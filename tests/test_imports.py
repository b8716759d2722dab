"""Import hygiene: numpy and mpmath load only on the paths that use them,
fractions only on the exact-fraction paths, and no path loads the standard
library's dataclasses (numpy loads inspect itself when sampling).

Each check runs in a fresh interpreter, because this suite's own process has
long since imported both libraries.  The child imports the same ``setcensus``
package as the suite, with its ``src/`` first on ``PYTHONPATH``.
"""

import builtins
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import setcensus
from setcensus import asymptotics, exact, sampler, species

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


def test_import_loads_only_the_errors_submodule():
    loaded = run_child(
        "import json, sys, setcensus\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('setcensus'))))"
    )
    assert loaded == ["setcensus", "setcensus.errors"]


def test_submodules_load_on_first_access_after_bare_import():
    result = run_child(
        "import json, sys, setcensus\n"
        "names = ('exact', 'powerseries', 'species', 'asymptotics')\n"
        "before = [n for n in names if 'setcensus.' + n in sys.modules]\n"
        "fns = [setcensus.exact.count, setcensus.powerseries.mul, setcensus.species.builtin,\n"
        "       setcensus.asymptotics.estimate]\n"
        "print(json.dumps([before, [f.__module__ + '.' + f.__name__ for f in fns]]))"
    )
    assert result == [
        [],
        [
            "setcensus.exact.count",
            "setcensus.powerseries.mul",
            "setcensus.species.builtin",
            "setcensus.asymptotics.estimate",
        ],
    ]


def test_importtime_shows_a_submodule_loaded_on_first_access():
    package_root = str(Path(setcensus.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import setcensus; setcensus.species"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=package_root),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "setcensus.species" in [line.split("|")[-1].strip() for line in proc.stderr.splitlines()]


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


SIBLINGS = ("setcensus.exact", "setcensus.powerseries")


# each command loads only the siblings it calls
@pytest.mark.parametrize(
    "call_id, expect_loaded",
    [("constants", []), ("estimate", []), ("series", ["setcensus.powerseries"])],
)
def test_readme_cli_loads_only_the_siblings_it_calls(tmp_path, call_id, expect_loaded):
    (argv,) = [p.values[0] for p in README_CALLS if p.id == call_id]
    assert cli_loads(tmp_path, argv, SIBLINGS) == [0, expect_loaded]


# cactus counts come from their own recurrence, not from the block fixed point
def test_cacti_series_loads_no_powerseries(tmp_path):
    argv = ["series", "--class", "cacti", "--terms", "5"]
    assert cli_loads(tmp_path, argv, SIBLINGS) == [0, []]


# the argument checks that need no sampler refuse the call before numpy loads
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["sample", "-n", "5", "-k", "2"], id="no-seed"),
        pytest.param(["sample", "--composition", "-n", "3", "--seed", "1"], id="composition-n"),
    ],
)
def test_refused_sample_calls_load_no_numpy(tmp_path, argv):
    assert cli_loads(tmp_path, argv, HEAVY + ("setcensus.sampler",)) == [2, []]


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


# An import statement calls builtins.__import__ each time it runs, even when the
# module is loaded: about 0.5 us, which an import inside exact._tilt added to
# every forest draw.  So once warm, the draw, count and estimate paths run none.
def _warm_paths():
    cacti = species.builtin("cacti")
    x = 0.6 * asymptotics.recipe_constants(cacti).rho
    rng = np.random.default_rng(5)
    return {
        "sample_forest": lambda: [sampler.sample_forest(8, 6, rng=rng) for _ in range(200)],
        "sample_set": lambda: [sampler.sample_set(cacti, x, rng) for _ in range(200)],
        "sample_composition": lambda: [
            sampler.sample_composition(cacti, 30, 10, rng=rng) for _ in range(50)
        ],
        "count": lambda: exact.count(cacti, 30, 12),
        "count_log": lambda: exact.count_log(cacti, 30, 12),  # the exact tier
        "estimate": lambda: [asymptotics.estimate(cacti, 200, lam) for lam in (0.3, 0.8)],
        "lambda_star": lambda: asymptotics.lambda_star(cacti),
    }


def imports_during(monkeypatch, fn):
    """The names that import statements ask for while fn runs."""
    names, real_import = [], builtins.__import__

    def counting(name, *args, **kwargs):
        names.append(name)
        return real_import(name, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(builtins, "__import__", counting)
        fn()
    return names


def test_the_import_counter_sees_an_import_of_a_loaded_module(monkeypatch):
    def f():
        import math  # noqa: F401

    assert imports_during(monkeypatch, f) == ["math"]


@pytest.mark.parametrize("name", sorted(_warm_paths()))
def test_warm_hot_paths_import_nothing(monkeypatch, name):
    fn = _warm_paths()[name]
    fn()  # warm: memos, size tables and the modules a first call loads
    assert imports_during(monkeypatch, fn) == []
