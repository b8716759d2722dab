import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import setcensus
from deadline import deadline
from setcensus import asymptotics, cli, exact, species

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(out):
    return [json.loads(line) for line in out.splitlines()]


class TestConstants:
    def test_trees_record_shape(self, capsys):
        code, out, err = run_cli(capsys, "constants", "--class", "trees")
        assert code == 0 and err == ""
        (rec,) = records(out)
        assert rec["schema_version"] == "1"
        assert rec["command"] == "constants"
        assert rec["inputs"] == {"class": "trees"}
        r = rec["results"]
        assert r["lambda_star"] == pytest.approx(0.5, abs=1e-12)
        assert r["alpha"] == 1.5
        assert r["C_rho"] == pytest.approx(0.5, abs=1e-10)

    def test_above_threshold_block(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--class", "cacti", "--lambda", "0.8")
        (rec,) = records(out)
        at = rec["results"]["at_lambda"]
        assert code == 0
        assert at["regime"] == "above"
        assert set(at) >= {"constant", "x_lambda", "y_lambda", "C_x_lambda", "sigma2"}

    def test_below_threshold_block(self, capsys):
        _, out, _ = run_cli(capsys, "constants", "--class", "trees", "--lambda", "0.25")
        (rec,) = records(out)
        at = rec["results"]["at_lambda"]
        assert at["regime"] == "below"
        assert at["constant"] == pytest.approx(
            math.sqrt(2 / math.pi) * 0.25 / 0.5**2.5, rel=1e-9
        )

    def test_critical_threshold(self, capsys):
        _, out, _ = run_cli(capsys, "constants", "--class", "trees", "--lambda", "0.5")
        (rec,) = records(out)
        assert rec["results"]["at_lambda"]["regime"] == "critical"

    def test_lambda_out_of_range(self, capsys):
        code, out, err = run_cli(capsys, "constants", "--class", "trees", "--lambda", "1.5")
        assert code == 2 and out == ""
        payload = json.loads(err)["error"]
        assert payload["code"] == "domain"
        assert "lambda" in payload["message"]

    def test_unknown_class(self, capsys):
        code, _, err = run_cli(capsys, "constants", "--class", "widgets")
        assert code == 2
        assert json.loads(err)["error"]["code"] == "unknown-class"

    def test_synthetic_class(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--synthetic", "1", "0.5", "2")
        (rec,) = records(out)
        assert code == 0
        assert rec["results"]["alpha"] == 2.0
        assert rec["results"]["lambda_star"] == pytest.approx(0.7273334675, abs=1e-8)

    def test_values_come_from_the_growth_constants(self, capsys, tmp_path):
        # one C(rho) for every route: the recipe's, which lambda* and the estimates use
        path = tmp_path / "p3.json"
        path.write_text(json.dumps({"name": "p3", "block": {"kind": "poly",
                                                            "bprime": ["0", "1", "3/2"]}}))
        code, out, _ = run_cli(capsys, "constants", "--class-file", str(path))
        (rec,) = records(out)
        b, rho, alpha, lam_star, C_rho = asymptotics._growth_constants(species.from_file(path))
        r = rec["results"]
        assert code == 0
        assert (r["b"], r["rho"], r["alpha"], r["lambda_star"], r["C_rho"]) == tuple(
            cli._real(v) for v in (b, rho, alpha, lam_star, C_rho))

    def test_huge_synthetic_rho_fails_fast(self, capsys):
        with deadline(5):
            code, out, err = run_cli(capsys, "constants", "--synthetic", "1", "1e300", "2")
        assert code == 2 and out == ""
        payload = json.loads(err)["error"]
        assert payload["code"] == "domain"
        assert "256" in payload["message"]


class TestExact:
    def test_single_count(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--class", "trees", "-n", "4", "-k", "2")
        (rec,) = records(out)
        assert code == 0
        assert rec["results"]["count"] == "15"
        assert rec["results"]["log_count"] == pytest.approx(math.log(15), rel=1e-12)

    def test_k_range_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--class", "trees", "-n", "3", "--k-range", "1:3"
        )
        (rec,) = records(out)
        assert code == 0
        assert [(r["k"], r["count"]) for r in rec["results"]["rows"]] == [
            (1, "3"),
            (2, "3"),
            (3, "1"),
        ]

    @pytest.mark.parametrize("name", ["trees", "cacti", "husimi"])
    def test_log_count_is_count_log(self, capsys, name):
        # the exact mode's log is the exact tier's one logarithm, on
        # TestExactTierRounding's grid, for one k and for a k range
        for n in range(1, 41):
            want = [cli._real(exact.count_log(species.builtin(name), n, k)) for k in range(1, n + 1)]
            got = []
            for k in range(1, n + 1):
                _, out, _ = run_cli(capsys, "exact", "--class", name, "-n", str(n), "-k", str(k))
                got.append(records(out)[0]["results"]["log_count"])
            assert got == want, (name, n)
            _, out, _ = run_cli(capsys, "exact", "--class", name, "-n", str(n), "--k-range", f"1:{n}")
            assert [r["log_count"] for r in records(out)[0]["results"]["rows"]] == want, (name, n)

    def test_float_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--class", "trees", "-n", "4", "-k", "2", "--mode", "float"
        )
        (rec,) = records(out)
        assert code == 0
        assert "precision_bits" not in rec["inputs"]
        assert rec["results"]["log_count"] == pytest.approx(math.log(15), rel=1e-10)
        assert rec["results"]["log10_count"] == pytest.approx(math.log10(15), rel=1e-10)

    def test_requires_exactly_one_k_selector(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--class", "trees", "-n", "4")
        assert code == 2
        code, _, err = run_cli(
            capsys, "exact", "--class", "trees", "-n", "4", "-k", "2", "--k-range", "1:2"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "args",
        [("--k-range", "3"), ("--k-range", "3:2"), ("--mode", "float", "--k-range", "1:3")],
        ids=["no colon", "reversed", "float mode"],
    )
    def test_bad_k_range_is_a_domain_error(self, capsys, args):
        code, out, err = run_cli(capsys, "exact", "--class", "trees", "-n", "5", *args)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["code"] == "domain"

    def test_zero_count_row_logs_minus_inf(self, capsys, tmp_path):
        path = tmp_path / "gap.json"
        path.write_text(json.dumps({"name": "gap", "coefficients": ["1", "0"]}))
        code, out, _ = run_cli(capsys, "exact", "--class-file", str(path), "-n", "2",
                               "--k-range", "1:2")
        (rec,) = records(out)
        assert code == 0
        assert [(r["k"], r["count"], r["log_count"]) for r in rec["results"]["rows"]] == [
            (1, "0", "-inf"),
            (2, "1", 0.0),
        ]

    def test_k_beyond_n(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--class", "trees", "-n", "3", "-k", "4")
        assert code == 2
        assert json.loads(err)["error"]["code"] == "domain"


class TestEstimateCompare:
    def test_estimate_record(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--class", "trees", "-n", "100", "--lambda", "0.75"
        )
        (rec,) = records(out)
        assert code == 0
        r = rec["results"]
        assert r["regime"] == "above"
        assert r["N"] == 75
        assert r["log10_count"] == pytest.approx(r["log_count"] / math.log(10), rel=1e-12)
        assert set(r["factors"]) == {
            "log_constant",
            "n_power_exponent",
            "log_power_exponent",
            "log_rho_inv_n",
            "N_log_h",
            "log_factorial_ratio",
        }

    def test_estimate_rejects_small_n(self, capsys):
        code, _, err = run_cli(
            capsys, "estimate", "--class", "trees", "-n", "1", "--lambda", "0.5"
        )
        assert code == 2

    def test_compare_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compare",
            "--class",
            "trees",
            "--n-list",
            "50,100",
            "--lambda",
            "0.75",
        )
        (rec,) = records(out)
        assert code == 0
        rows = rec["results"]["rows"]
        assert [r["n"] for r in rows] == [50, 100]
        for r in rows:
            assert r["ratio"] == pytest.approx(math.exp(r["log_error"]), rel=1e-9)

    def test_compare_tsv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compare",
            "--class",
            "trees",
            "-n",
            "50,100",
            "--lambda",
            "0.75",
            "--format",
            "tsv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n\tlog_exact\tlog_est\tratio"
        assert len(lines) == 3
        for line in lines[1:]:
            cells = line.split("\t")
            assert len(cells) == 4
            int(cells[0])
            [float(c) for c in cells[1:]]

    def test_compare_empty_n_list(self, capsys):
        code, out, err = run_cli(capsys, "compare", "--class", "trees", "-n", ",",
                                 "--lambda", "0.75")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["message"] == "empty n list"

    def test_compare_bad_n_list(self, capsys):
        code, _, err = run_cli(
            capsys, "compare", "--class", "trees", "-n", "a,b", "--lambda", "0.75"
        )
        assert code == 2


class TestSample:
    def test_composition_stream(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sample",
            "--class",
            "trees",
            "--composition",
            "--x",
            "0.1",
            "--seed",
            "7",
            "--trials",
            "3",
        )
        recs = records(out)
        assert code == 0
        assert [r["results"]["draw"] for r in recs] == [0, 1, 2]
        for r in recs:
            assert r["inputs"]["normalizer"] == pytest.approx(0.105579298515, abs=1e-9)
            assert len(r["results"]["sizes"]) == r["results"]["kappa"]

    def test_forest_stream_and_determinism(self, capsys):
        args = ("sample", "-n", "6", "-k", "2", "--seed", "11", "--trials", "2")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        recs = records(out1)
        assert len(recs) == 2
        for rec in recs:
            r = rec["results"]
            flat = sorted(v for b in r["blocks"] for v in b)
            assert flat == list(range(1, 7))
            assert len(r["edges"]) == 6 - 2

    def test_seed_required(self, capsys):
        code, _, err = run_cli(capsys, "sample", "-n", "4", "-k", "2")
        assert code == 2
        assert "seed" in json.loads(err)["error"]["message"]

    def test_forest_needs_n_and_k(self, capsys):
        code, _, _ = run_cli(capsys, "sample", "--seed", "1")
        assert code == 2

    def test_forest_rejects_other_classes(self, capsys):
        code, _, err = run_cli(
            capsys, "sample", "--class", "cacti", "-n", "4", "-k", "2", "--seed", "1"
        )
        assert code == 2

    def test_composition_requires_class_and_x(self, capsys):
        code, _, _ = run_cli(capsys, "sample", "--composition", "--seed", "1")
        assert code == 2
        code, _, _ = run_cli(
            capsys, "sample", "--composition", "--class", "trees", "--seed", "1"
        )
        assert code == 2

    def test_trials_must_be_positive(self, capsys):
        code, _, _ = run_cli(
            capsys, "sample", "-n", "4", "-k", "2", "--seed", "1", "--trials", "0"
        )
        assert code == 2

    def test_retry_budget_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sample",
            "-n",
            "8",
            "-k",
            "1",
            "--x",
            "1e-12",
            "--seed",
            "1",
            "--max-rejects",
            "5",
        )
        assert code == 4
        payload = json.loads(err)["error"]
        assert payload["code"] == "retry-budget"
        assert payload["attempts"] == 6

    @pytest.mark.parametrize(
        "args, flag",
        [
            (("--composition", "--class", "trees", "--x", "0.2", "-n", "5"), "-n"),
            (("--composition", "--class", "trees", "--x", "0.2", "-k", "2"), "-k"),
            (("--composition", "--class", "trees", "--x", "0.2", "--max-rejects", "0"),
             "--max-rejects"),
            (("-n", "6", "-k", "2", "--trunc-order", "3"), "--trunc-order"),
        ],
        ids=["composition -n", "composition -k", "composition --max-rejects",
             "forest --trunc-order"],
    )
    def test_flags_of_the_other_mode_are_domain_errors(self, capsys, args, flag):
        code, out, err = run_cli(capsys, "sample", "--seed", "1", *args)
        assert code == 2 and out == ""
        payload = json.loads(err)["error"]
        assert payload["code"] == "domain"
        assert payload["message"].startswith(f"{flag} applies to ")

    def test_negative_max_rejects_is_a_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys, "sample", "-n", "8", "-k", "1", "--seed", "1", "--max-rejects", "-3"
        )
        assert code == 2
        assert json.loads(err)["error"]["code"] == "domain"

    def test_precision_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(species, "_MAX_BLOCK_TABLE", 64)
        rho = species.builtin("cacti").growth.rho
        code, _, err = run_cli(
            capsys,
            "sample",
            "--class",
            "cacti",
            "--composition",
            "--x",
            repr(rho),
            "--seed",
            "1",
        )
        assert code == 3
        payload = json.loads(err)["error"]
        assert payload["code"] == "precision"
        assert payload["suggested"] >= 64

    def test_negative_seed_is_a_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--class", "trees", "-n", "6", "-k", "2",
                                 "--seed", "-1")
        assert code == 2 and out == ""
        payload = json.loads(err)["error"]
        assert payload["code"] == "domain"
        assert "--seed = -1" in payload["message"]

    def test_weights_beyond_float64_exit_3(self, capsys, tmp_path):
        path = tmp_path / "ones.json"
        path.write_text(json.dumps({"name": "ones", "coefficients": ["1"] * 400}))
        code, out, err = run_cli(capsys, "sample", "--composition", "--class-file", str(path),
                                 "--x", "1000", "--seed", "1")
        assert code == 3 and out == ""
        payload = json.loads(err)["error"]
        assert payload["code"] == "precision"
        assert "x = 1000.0" in payload["message"]


class TestSizeCap:
    @pytest.mark.parametrize(
        "args",
        [
            ("exact", "--class", "trees", "-n", "100000000000", "-k", "3"),
            ("series", "--class", "trees", "--terms", str(10**20)),
        ],
        ids=["exact", "series"],
    )
    def test_past_the_cap_exits_3_at_once(self, capsys, args):
        with deadline(10):
            code, out, err = run_cli(capsys, *args)
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["code"] == "precision"


# a count of 10**400 at size 2 passes the float64 range at every x these calls use
@pytest.mark.parametrize(
    "args",
    [
        ("constants",),
        ("estimate", "-n", "40", "--lambda", "0.5"),
        ("compare", "-n", "20", "--lambda", "0.5"),
        ("sample", "--composition", "--x", "0.3", "--seed", "1"),
    ],
    ids=["constants", "estimate", "compare", "sample"],
)
def test_count_past_the_float_range_exits_3(capsys, tmp_path, args):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"name": "big", "coefficients": ["1", str(10**400)],
                                "growth": {"b": 1, "rho": 0.5, "alpha": 2}}))
    code, out, err = run_cli(capsys, *args, "--class-file", str(path))
    assert code == 3 and out == ""
    (line,) = err.splitlines()
    payload = json.loads(line)["error"]
    assert payload["code"] == "precision"
    assert "size 2" in payload["message"]


# one valid call of each command, the two flags that only sample reads, and
# --precision-bits, which no command reads any more
_CALLS = {
    "constants": ("constants", "--class", "trees"),
    "exact": ("exact", "--class", "trees", "-n", "4", "-k", "2"),
    "estimate": ("estimate", "--class", "trees", "-n", "40", "--lambda", "0.5"),
    "compare": ("compare", "--class", "trees", "--lambda", "0.75", "-n", "40"),
    "sample": ("sample", "-n", "6", "-k", "2", "--seed", "1"),
    "series": ("series", "--class", "trees", "--terms", "5"),
}
_READS = {"sample": {"--seed", "--trunc-order"}}
# --trunc-order is read by composition sampling only
_FLAG_CALLS = {
    ("sample", "--trunc-order"):
        ("sample", "--composition", "--class", "trees", "--x", "0.25", "--seed", "1"),
}


@pytest.mark.parametrize("flag", ["--seed", "--trunc-order", "--precision-bits"])
@pytest.mark.parametrize("command", _CALLS)
def test_flags_only_on_the_commands_that_read_them(capsys, command, flag):
    args = [*_FLAG_CALLS.get((command, flag), _CALLS[command]), flag, "20"]
    if flag in _READS.get(command, ()):
        assert cli.main(args) == 0
    else:
        with pytest.raises(SystemExit) as info:
            cli.main(args)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# Every integer flag of every command that reads it, with the other arguments
# valid; V stands for the value.
_INT_FLAG_CALLS = [
    ("exact -n", "exact --class trees -n V -k 3"),
    ("exact -k", "exact --class trees -n 8 -k V"),
    ("estimate -n", "estimate --class trees -n V --lambda 0.5"),
    ("compare -n", "compare --class trees --lambda 0.75 -n V"),
    ("sample -n", "sample -n V -k 2 --seed 1"),
    ("sample -k", "sample -n 6 -k V --seed 1"),
    ("sample --seed", "sample -n 6 -k 2 --seed V"),
    ("sample --trials", "sample -n 6 -k 2 --seed 1 --trials V"),
    ("sample --max-rejects", "sample -n 6 -k 2 --seed 1 --max-rejects V"),
    ("sample --trunc-order",
     "sample --composition --class trees --x 0.25 --seed 1 --trunc-order V"),
    ("series --terms", "series --class trees --terms V"),
]
# sizes, budgets and seeds also run far past any table or maximum;
# --trials prints one record a draw, so it does not
_HUGE_OK = ("-n", "-k", "--seed", "--max-rejects", "--trunc-order", "--terms")
_INT_FLAG_GRID = [
    pytest.param(template, value, id=f"{name} {value_id}")
    for name, template in _INT_FLAG_CALLS
    for value, value_id in [("-1", "-1"), ("0", "0"), (str(10**20), "10**20")]
    if value_id != "10**20" or name.split()[1] in _HUGE_OK
]


@pytest.mark.parametrize("template, value", _INT_FLAG_GRID)
def test_integer_flag_grid(capsys, template, value):
    """Exit 0, 2, 3 or 4 within the time limit; an error is one JSON line on stderr."""
    args = [value if a == "V" else a for a in template.split()]
    with deadline(10):
        code, out, err = run_cli(capsys, *args)
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert err == "" and out
    else:
        assert out == "" and len(err.splitlines()) == 1
        assert set(json.loads(err)["error"]) >= {"code", "message"}


# SHA-256 of the stdout of each README example, recorded before count_log
# moved to n - k + 1 terms; README output must stay byte-identical.
README_STDOUT_SHA256 = {
    "constants --class trees --lambda 0.75":
        "d6f7f894cd7f2fc9a3b1ac18366a633a54be8f0fe753ea5c9b14473398e1c9c8",
    "exact --class cacti -n 30 -k 12":
        "3b7a413ddfcc4770c0b2d3008a803a7726028b78bfdc9a5a6f43ce7fcc88b36d",
    "exact --class trees -n 6 --k-range 1:3":
        "5f5ec7e1283fa83c6162b0c35e23ac42b3d32b0989cea81d188cd5ebfb2e1bac",
    "estimate --class husimi -n 200 --lambda 0.3":
        "f533d77c24a863b4cb68502252b73e968c72e642d8c4d282bf557e6ee5d7f45a",
    "compare --class trees --lambda 0.75 --n-list 40,80 --format tsv":
        "d75f2b4cd5c6ed8879b4f008ad6308924abd8ac445cdfe3ed45531eb5a4c0a95",
    "sample --class trees -n 6 -k 2 --seed 7":
        "c38c31e1cc0aa773e59949ba69e84deb0fe1222f9574b0326308c12460950ae4",
    "sample --class trees --composition --x 0.25 --trials 2 --seed 11":
        "842051f78a6db039b995d8a13cb9de9d392261b5f26bfcc579653bae2590a62d",
    "series --class husimi --terms 6":
        "e49739c1f7048ceab919b036074409dcf69d86d7ad0bdca82068a38a7d9d69bf",
    "series --class cacti --terms 5 --export cacti5.json":
        "ec78d4d1e3ee7cc8eac8efca92bd5296dbbd38e1a98960cb9c75de961cd83218",
}


class TestReadmeExamples:
    """The nine README CLI examples, with their own arguments and seeds."""

    @pytest.mark.parametrize("command", README_STDOUT_SHA256)
    def test_stdout_digest(self, capsys, monkeypatch, tmp_path, command):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *command.split())
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == README_STDOUT_SHA256[command]

    def test_export_digest(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        run_cli(capsys, "series", "--class", "cacti", "--terms", "5", "--export", "cacti5.json")
        data = (tmp_path / "cacti5.json").read_bytes()
        want = "be3a3b52180c307bdc13249c4bcdc35eb5a193febabca026373c7a9ef54632c6"
        assert hashlib.sha256(data).hexdigest() == want


class TestSeries:
    def test_terms(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--class", "trees", "--terms", "5")
        (rec,) = records(out)
        assert code == 0
        assert rec["results"]["coefficients"] == ["1", "1", "3", "16", "125"]

    def test_zero_terms(self, capsys):
        code, _, _ = run_cli(capsys, "series", "--class", "trees", "--terms", "0")
        assert code == 2

    def test_export_and_reload(self, capsys, tmp_path):
        path = tmp_path / "husimi.json"
        code, out, _ = run_cli(
            capsys,
            "series",
            "--class",
            "husimi",
            "--terms",
            "6",
            "--export",
            str(path),
        )
        (rec,) = records(out)
        assert code == 0
        assert rec["results"]["exported_to"] == str(path)
        code, out, _ = run_cli(capsys, "series", "--class-file", str(path), "--terms", "6")
        (rec,) = records(out)
        assert code == 0
        assert rec["results"]["coefficients"] == ["1", "1", "4", "29", "311", "4447"]

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_export_path(self, capsys, tmp_path, where):
        path = tmp_path / "nope" / "x.json" if where == "missing-directory" else tmp_path
        code, out, err = run_cli(
            capsys, "series", "--class", "trees", "--terms", "3", "--export", str(path)
        )
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        payload = json.loads(line)["error"]
        assert payload["code"] == "validation"
        assert payload["message"].startswith(f"cannot write class definition {path}: ")

    def test_bad_class_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code, _, err = run_cli(capsys, "series", "--class-file", str(path), "--terms", "3")
        assert code == 2
        assert json.loads(err)["error"]["code"] == "validation"


class TestReproducibility:
    def test_byte_identical_output(self, capsys):
        args = ("constants", "--class", "husimi", "--lambda", "0.8")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


def test_early_closed_stdout_ends_quietly():
    """A reader that stops early (as `| head -c 200` does) gets no traceback."""
    package_root = str(Path(setcensus.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    args = ["sample", "-n", "6", "-k", "2", "--seed", "1", "--trials", "2000"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "setcensus", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    # the 2000 records overrun the pipe buffer, so the child is still writing
    assert proc.stdout.read(200).startswith(b'{"schema_version": "1"')
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert err == b""
    assert proc.returncode == 1


def declared_entry_point():
    """The ``module:function`` target of ``setcensus`` under ``[project.scripts]``."""
    if tomllib is None:
        return "setcensus.cli:entry"
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as f:
        return tomllib.load(f)["project"]["scripts"]["setcensus"]


def test_console_script_subprocess():
    """Run the CLI as its own process: always through the declared entry point,
    and also through the installed ``setcensus`` script when one is on PATH.

    The child imports the same ``setcensus`` package as this suite, so an
    uninstalled checkout needs no script on PATH.
    """
    args = ["exact", "--class", "trees", "-n", "3", "-k", "2"]
    module, function = declared_entry_point().split(":")
    package_root = str(Path(setcensus.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    runs = [
        (
            [sys.executable, "-c", f"from {module} import {function}; {function}()", *args],
            dict(os.environ, PYTHONPATH=pythonpath),
        )
    ]
    installed = shutil.which("setcensus")
    if installed:
        runs.append(([installed, *args], None))
    for command, env in runs:
        proc = subprocess.run(command, capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        rec = json.loads(proc.stdout)
        assert rec["results"]["count"] == "3"
