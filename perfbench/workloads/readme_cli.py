"""readme-cli: the README command-line examples, one ``python -m setcensus`` process each.

This is the only workload where every query pays interpreter start-up,
imports and cold memos at small n, so a change that trades start-up or
small-query cost for large-query speed shows here and nowhere else.  The
console script is not assumed to be installed.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys

import reference as ref

from . import Query, first_and_repeats, rel_err

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPORT = os.path.join(".perfbench-out", "cacti5.json")
RSS_OF_CHILDREN = True  # the workload process only launches; each CLI process is measured
_span_files = itertools.count()


def setup(sc):
    ctx = {"sc": sc}
    for name in ("trees", "cacti", "husimi"):
        sc.species.builtin(name)
    return ctx


def _cli_query(label, kind, argv, params=None):
    def call(ctx, state):
        trace_dir = ctx.get("trace_dir")
        if trace_dir is None:
            cmd = [sys.executable, "-m", "setcensus", *argv]
        else:
            spans = os.path.join(trace_dir, f"cli-{next(_span_files)}.json")
            cmd = [sys.executable, os.path.join(BENCH_DIR, "clitrace.py"), spans, *argv]
        return subprocess.run(cmd, capture_output=True, text=True, timeout=120)

    def digest(proc):
        out = {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr[-300:]}
        if kind == "export" and os.path.exists(EXPORT):
            with open(EXPORT, "r", encoding="utf-8") as fh:
                out["file"] = fh.read()
            os.remove(EXPORT)  # the next round must write it again
        return out

    return Query(label, kind, dict(params or {}, argv=argv), call, digest)


def plan(seed):
    """The README examples in README order; the seed picks the two sampling seeds."""
    os.makedirs(os.path.dirname(EXPORT), exist_ok=True)
    if os.path.exists(EXPORT):
        os.remove(EXPORT)
    r = random.Random(seed)
    s_forest, s_comp = r.randrange(2**31), r.randrange(2**31)
    return [
        _cli_query("constants trees 0.75", "constants",
                   ["constants", "--class", "trees", "--lambda", "0.75"], {"lam": 0.75}),
        _cli_query("exact cacti 30 12", "exact",
                   ["exact", "--class", "cacti", "-n", "30", "-k", "12"]),
        _cli_query("exact trees 6 1:3", "exact_range",
                   ["exact", "--class", "trees", "-n", "6", "--k-range", "1:3"]),
        _cli_query("estimate husimi 200 0.3", "estimate",
                   ["estimate", "--class", "husimi", "-n", "200", "--lambda", "0.3"]),
        _cli_query("compare trees 0.75 40,80", "compare",
                   ["compare", "--class", "trees", "--lambda", "0.75", "--n-list", "40,80",
                    "--format", "tsv"]),
        _cli_query("sample forest 6 2", "forest",
                   ["sample", "--class", "trees", "-n", "6", "-k", "2", "--seed", str(s_forest)]),
        _cli_query("sample composition 0.25", "composition",
                   ["sample", "--class", "trees", "--composition", "--x", "0.25",
                    "--trials", "2", "--seed", str(s_comp)]),
        _cli_query("series husimi 6", "series",
                   ["series", "--class", "husimi", "--terms", "6"]),
        _cli_query("series cacti 5 export", "export",
                   ["series", "--class", "cacti", "--terms", "5", "--export", EXPORT]),
    ]


def check(queries, records):
    problems = []
    for q in queries:
        d = first_and_repeats(q.label, records[q.label], problems)
        if d is None:
            continue
        if d["rc"] != 0:
            problems.append(f"{q.label}: exit status {d['rc']}: {d['stderr']}")
            continue
        try:
            problems.extend(f"{q.label}: {p}" for p in CHECKS[q.kind](d, q.params))
        except (ValueError, KeyError, IndexError, TypeError) as e:
            problems.append(f"{q.label}: unreadable output ({type(e).__name__}: {e})")
    return problems


def _records(d):
    return [json.loads(line) for line in d["stdout"].splitlines()]


def _close(got, want, tol=1e-12):
    return rel_err(float(got), want) <= tol or abs(float(got) - want) <= tol


def _check_constants(d, params):
    (rec,) = _records(d)
    res, lam = rec["results"], params["lam"]
    x, y = ref.tree_saddle(lam)
    sigma2 = y / (lam * (1 - y)) + 1 / lam - 1 / lam**2
    want = {
        "b": 1 / math.sqrt(2 * math.pi), "rho": math.exp(-1), "zeta": 1.0,
        "lambda_star": 0.5, "C_rho": 0.5, "alpha": 1.5,
    }
    at = {
        "x_lambda": x, "y_lambda": y, "C_x_lambda": lam * y, "sigma2": sigma2,
        "constant": 1 / math.sqrt(2 * math.pi * sigma2 * lam),
    }
    out = [f"{k} = {res[k]}, expected {v}" for k, v in want.items() if not _close(res[k], v)]
    out += [f"at_lambda {k} = {res['at_lambda'][k]}, expected {v}"
            for k, v in at.items() if not _close(res["at_lambda"][k], v)]
    if res["at_lambda"]["regime"] != "above":
        out.append(f"regime {res['at_lambda']['regime']}, expected above")
    return out


def _check_exact(d, params):
    (rec,) = _records(d)
    res = rec["results"]
    want = ref.set_count(ref.block_counts("cactus", 19), 30, 12)
    out = []
    if int(res["count"]) != want:
        out.append(f"count {res['count']}, expected {want}")
    if not _close(res["log_count"], math.log(want)):
        out.append(f"log_count {res['log_count']}, expected {math.log(want)}")
    return out


def _check_exact_range(d, params):
    (rec,) = _records(d)
    got = [(r["k"], int(r["count"])) for r in rec["results"]["rows"]]
    want = [(k, ref.forests(6, k)) for k in (1, 2, 3)]
    return [] if got == want else [f"rows {got}, expected {want}"]


def _check_estimate(d, params):
    (rec,) = _records(d)
    res = rec["results"]
    zeta, _rho, C_rho = ref.block_constants("complete")
    out = []
    if (res["regime"], res["N"]) != ("below", 60):
        out.append(f"regime {res['regime']} with N = {res['N']}, expected below with N = 60")
    if not _close(res["lambda_star"], C_rho / zeta, 1e-9):
        out.append(f"lambda_star {res['lambda_star']}, expected {C_rho / zeta}")
    lfr = math.lgamma(201) - math.lgamma(61)
    if not _close(res["factors"]["log_factorial_ratio"], lfr):
        out.append(f"log_factorial_ratio {res['factors']['log_factorial_ratio']}, expected {lfr}")
    if not _close(res["log10_count"], res["log_count"] / math.log(10)):
        out.append("log10_count is not log_count / ln 10")
    exact = math.log(ref.set_count(ref.block_counts("complete", 141), 200, 60))
    if abs(res["log_count"] - exact) > 0.25:
        out.append(f"log_count {res['log_count']} is {res['log_count'] - exact:.3g} from the "
                   f"exact {exact}")
    return out


def _check_compare(d, params):
    lines = d["stdout"].splitlines()
    if lines[0] != "n\tlog_exact\tlog_est\tratio" or len(lines) != 3:
        return [f"unexpected table {lines!r}"]
    out, errs = [], []
    for line, (n, k) in zip(lines[1:], ((40, 30), (80, 60))):
        n_got, log_exact, log_est, ratio = line.split("\t")
        want = math.log(ref.forests(n, k))
        if int(n_got) != n or not _close(log_exact, want):
            out.append(f"row {line!r}: expected n = {n}, log_exact = {want}")
        if not _close(ratio, math.exp(float(log_est) - float(log_exact)), 1e-9):
            out.append(f"row {line!r}: ratio is not exp(log_est - log_exact)")
        errs.append(abs(float(log_est) - want))
    if not errs[1] < errs[0]:
        out.append(f"estimate error does not fall from n = 40 to 80: {errs}")
    return out


def _check_forest(d, params):
    (rec,) = _records(d)
    res = rec["results"]
    blocks = [tuple(b) for b in res["blocks"]]
    edges = [tuple(e) for e in res["edges"]]
    trees = [tuple(e for e in edges if e[0] in b) for b in blocks]
    problem = ref.spanning_forest_problem(6, 2, blocks, trees)
    if problem is None and sum(map(len, trees)) != len(edges):
        problem = "an edge lies in no block"
    return [] if problem is None else [problem]


def _check_composition(d, params):
    recs = _records(d)
    out = []
    if len(recs) != 2:
        out.append(f"{len(recs)} records for 2 trials")
    for rec in recs:
        inp, res = rec["inputs"], rec["results"]
        if not _close(inp["normalizer"], ref.tree_egf(0.25)):
            out.append(f"normalizer {inp['normalizer']}, expected C(0.25) = {ref.tree_egf(0.25)}")
        if inp["truncated_mass"] != 0.0 or inp["n_max"] != 256:
            out.append(f"table n_max {inp['n_max']}, truncated mass {inp['truncated_mass']}")
        if res["kappa"] != len(res["sizes"]) or any(s < 1 for s in res["sizes"]):
            out.append(f"draw {res} is not a composition")
    return out


def _check_series(d, params):
    (rec,) = _records(d)
    want = [str(c) for c in ref.block_counts("complete", 6)]
    got = rec["results"]["coefficients"]
    return [] if got == want else [f"coefficients {got}, expected {want}"]


def _check_export(d, params):
    (rec,) = _records(d)
    want = [str(c) for c in ref.block_counts("cactus", 5)]
    out = []
    if rec["results"]["coefficients"] != want:
        out.append(f"coefficients {rec['results']['coefficients']}, expected {want}")
    doc = json.loads(d.get("file") or "{}")
    if doc.get("coefficients") != want or doc.get("name") != "cacti":
        out.append(f"exported file {doc} does not hold the cacti coefficients")
    return out


CHECKS = {
    "constants": _check_constants,
    "exact": _check_exact,
    "exact_range": _check_exact_range,
    "estimate": _check_estimate,
    "compare": _check_compare,
    "forest": _check_forest,
    "composition": _check_composition,
    "series": _check_series,
    "export": _check_export,
}
