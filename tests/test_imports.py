"""Import hygiene: numpy and mpmath load only on the paths that use them,
fractions only on the exact-fraction paths, and no path loads the standard
library's dataclasses (numpy loads inspect itself when sampling).

Each check runs in a fresh interpreter, because this suite's own process has
long since imported both libraries.  The child imports the same ``setcensus``
package as the suite, with its ``src/`` first on ``PYTHONPATH``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import setcensus
from setcensus import exact, species

HEAVY = ("numpy", "mpmath")
DEFERRED = ("dataclasses", "inspect", "fractions")


def run_child(code, cwd=None):
    """Run ``code`` in a fresh interpreter and return the JSON it prints last."""
    package_root = str(Path(setcensus.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_neither_numpy_nor_mpmath():
    loaded = run_child(
        "import json, sys, setcensus\n"
        f"print(json.dumps([m for m in {HEAVY!r} + ('setcensus.cli', 'setcensus.sampler') "
        "if m in sys.modules]))"
    )
    assert loaded == []


README_CALLS = [
    pytest.param(["constants", "--class", "trees", "--lambda", "0.75"], [], id="constants"),
    pytest.param(["exact", "--class", "cacti", "-n", "30", "-k", "12"], [], id="exact"),
    # count_log's exact tier: the log of the integer count
    pytest.param(
        ["exact", "--class", "cacti", "-n", "30", "-k", "12", "--mode", "float"],
        [],
        id="exact-float",
    ),
    pytest.param(
        ["exact", "--class", "trees", "-n", "6", "--k-range", "1:3"], [], id="exact-range"
    ),
    pytest.param(
        ["estimate", "--class", "husimi", "-n", "200", "--lambda", "0.3"], [], id="estimate"
    ),
    pytest.param(
        ["compare", "--class", "trees", "--lambda", "0.75", "--n-list", "40,80",
         "--format", "tsv"],
        [],
        id="compare",
    ),
    pytest.param(["series", "--class", "husimi", "--terms", "6"], [], id="series"),
    pytest.param(
        ["series", "--class", "cacti", "--terms", "5", "--export", "cacti5.json"],
        [],
        id="series-export",
    ),
    # the sampler needs numpy: shows that the child would see a load
    pytest.param(
        ["sample", "--class", "trees", "-n", "6", "-k", "2", "--seed", "7"],
        ["numpy"],
        id="sample",
    ),
]


def cli_loads(cwd, argv, modules):
    """[exit status, the modules among ``modules`` loaded] of ``cli.main(argv)``."""
    return run_child(
        "import contextlib, io, json, sys\n"
        "from setcensus import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        f"print(json.dumps([code, [m for m in {modules!r} if m in sys.modules]]))",
        cwd=cwd,
    )


@pytest.mark.parametrize("argv, expect_loaded", README_CALLS)
def test_readme_cli_loads_only_what_it_uses(tmp_path, argv, expect_loaded):
    assert cli_loads(tmp_path, argv, HEAVY) == [0, expect_loaded]


# count_log's exact tier takes its log in Python integers, with no decimal
@pytest.mark.parametrize(
    "argv",
    [pytest.param(p.values[0], id=p.id) for p in README_CALLS if p.id in ("exact-float", "compare")],
)
def test_readme_count_log_calls_load_no_decimal(tmp_path, argv):
    assert cli_loads(tmp_path, argv, ("decimal",)) == [0, []]


def test_a_failed_rounding_test_widens_without_decimal():
    # a series bound of 2^200 terms at the first Q fails its rounding test
    code = (
        "import json, sys\n"
        "from setcensus import exact, species\n"
        "atanh2, qs = exact._atanh2, []\n"
        "def wide_first(a, b, q):\n"
        "    qs.append(q)\n"
        "    total, terms = atanh2(a, b, q)\n"
        "    return total, 1 << 200 if q == exact._LN_Q else terms\n"
        "exact._atanh2 = wide_first\n"
        "log = exact.count_log(species.builtin('cacti'), 30, 12)\n"
        "print(json.dumps([log.hex(), exact._LN_Q in qs, max(qs) > exact._LN_Q + 32,\n"
        "                  'decimal' in sys.modules]))"
    )
    want = exact.count_log(species.builtin("cacti"), 30, 12).hex()
    assert run_child(code) == [want, True, True, False]


def test_import_loads_no_record_or_fraction_machinery():
    loaded = run_child(
        "import json, sys, setcensus\n"
        f"print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))"
    )
    assert loaded == []


# sample loads numpy, which imports inspect itself
@pytest.mark.parametrize(
    "argv", [pytest.param(p.values[0], id=p.id) for p in README_CALLS if p.id != "sample"]
)
def test_readme_cli_other_than_sample_loads_no_record_or_fraction_machinery(tmp_path, argv):
    assert cli_loads(tmp_path, argv, DEFERRED) == [0, []]


def test_readme_sample_loads_no_dataclasses(tmp_path):
    (argv,) = [p.values[0] for p in README_CALLS if p.id == "sample"]
    assert cli_loads(tmp_path, argv, ("dataclasses",)) == [0, []]


def test_sampler_resolves_after_bare_import():
    result = run_child(
        "import json, setcensus\n"
        "f = setcensus.sampler.size_distribution\n"
        "print(json.dumps([f.__module__, setcensus.cli.main.__module__, "
        "hasattr(setcensus, 'no_such_module')]))"
    )
    assert result == ["setcensus.sampler", "setcensus.cli", False]


def test_star_import_binds_all_names():
    missing = run_child(
        "import json\n"
        "from setcensus import *\n"
        "import setcensus\n"
        "print(json.dumps([n for n in setcensus.__all__ if n not in globals()]))"
    )
    assert missing == []


def test_synthetic_class_loads_nothing_heavy():
    # |C_1| >= 1 holds by construction, so building the class evaluates no count
    loaded = run_child(
        "import json, sys\n"
        "from setcensus import species\n"
        "species.synthetic(1, 0.5, 2.5)\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    )
    assert loaded == []


# the Hurwitz tail at the radius is a decimal sum: classes whose head needs no
# mpmath (2 alpha an integer, explicit lists) reach lambda* and the estimates without it
SCALAR_CLASSES = {
    "synthetic": "species.synthetic(1, 0.5, 2)",
    "synthetic-1.5": "species.synthetic(1, 0.5, 1.5)",
    "synthetic-2.5": "species.synthetic(1, 0.5, 2.5)",
    "list-growth": (
        "species.from_coefficients('trees-list', "
        "species.coefficients(species.builtin('trees'), 240), species.builtin('trees').growth)"
    ),
}


@pytest.mark.parametrize("name", sorted(SCALAR_CLASSES))
def test_lambda_star_and_estimates_at_the_radius_load_no_mpmath(name):
    loaded = run_child(
        "import json, sys\n"
        "from setcensus import asymptotics, species\n"
        f"cls = {SCALAR_CLASSES[name]}\n"
        "for lam in (0.3, asymptotics.lambda_star(cls)):\n"
        "    asymptotics.estimate(cls, 300, lam)\n"
        "print(json.dumps([m for m in ('mpmath',) if m in sys.modules]))"
    )
    assert loaded == []


def test_constants_of_an_integer_alpha_synthetic_class_load_no_mpmath(tmp_path):
    argv = ["constants", "--synthetic", "1", "0.5", "2", "--lambda", "0.3"]
    assert cli_loads(tmp_path, argv, HEAVY) == [0, []]


@pytest.mark.parametrize("alpha", [1.5, 2, 2.5, 3])
def test_synthetic_counts_at_integer_or_half_integer_alpha_load_no_mpmath_or_fractions(alpha):
    loaded = run_child(
        "import json, sys\n"
        "from setcensus import species\n"
        f"species.coefficients(species.synthetic(1, 0.5, {alpha}), 300)\n"
        "print(json.dumps([m for m in ('mpmath', 'fractions') if m in sys.modules]))"
    )
    assert loaded == []


def test_constants_of_a_half_integer_alpha_synthetic_class_load_no_mpmath_or_fractions(tmp_path):
    argv = ["constants", "--synthetic", "1", "0.5", "2.5", "--lambda", "0.9"]
    assert cli_loads(tmp_path, argv, ("mpmath", "fractions")) == [0, []]
