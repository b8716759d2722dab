"""Each workload's check passes correct outputs and rejects deliberately wrong ones.

Correct outputs for exact-int, log-scale and sampling are built from the
reference computations (and, for draws, from the exact laws), so these
tests run without the package; readme-cli runs the real command lines once.
"""

import copy
import math
import os
from collections import Counter

import numpy as np
import pytest

import child
import reference as ref
from workloads import exact_int, log_scale, readme_cli, sampling

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def two_rounds(digests):
    return {label: [d, copy.deepcopy(d)] for label, d in digests.items()}


# --- exact-int ------------------------------------------------------------------


def exact_digests(queries):
    out = {}
    for q in queries:
        p = q.params
        trees = p["cls"] == "trees"
        top = max(p.get("T", 0), p.get("n", 0))
        counts = ([ref.cayley(m) for m in range(1, top + 1)] if trees
                  else ref.block_counts(exact_int.KINDS[p["cls"]], top))
        if q.kind == "coefficients":
            out[q.label] = tuple(counts)
        elif q.kind == "count":
            out[q.label] = (ref.forests(p["n"], p["k"]) if trees
                            else ref.set_count(counts, p["n"], p["k"]))
        elif q.kind == "total_count":
            out[q.label] = ref.total_count(counts, p["n"])
        else:
            row = ([ref.forests(p["n"], k) for k in range(1, p["n"] + 1)] if trees
                   else ref.set_count_row(counts, p["n"]))
            out[q.label] = tuple((k, v, math.log(v)) for k, v in enumerate(row, start=1))
    return out


@pytest.fixture(scope="module")
def exact_case():
    queries = exact_int.plan(3)
    return queries, exact_digests(queries)


def test_exact_int_accepts_reference(exact_case):
    queries, digests = exact_case
    assert exact_int.check(queries, two_rounds(digests)) == []


def test_exact_int_rejects_off_by_one(exact_case):
    queries, digests = exact_case
    label = next(q.label for q in queries if q.kind == "count" and q.params["cls"] == "cacti")
    records = two_rounds(digests)
    records[label] = [digests[label] + 1] * 2
    assert any(label in p for p in exact_int.check(queries, records))


def test_exact_int_rejects_wrong_coefficient_and_table(exact_case):
    queries, digests = exact_case
    records = two_rounds(digests)
    coeffs = next(q.label for q in queries if q.kind == "coefficients")
    bad = list(digests[coeffs])
    bad[-1] -= 1
    records[coeffs] = [tuple(bad)] * 2
    table = next(q.label for q in queries if q.kind == "count_table")
    rows = list(digests[table])
    k, v, lg = rows[3]
    rows[3] = (k, v, lg + 1e-6)
    records[table] = [tuple(rows)] * 2
    problems = exact_int.check(queries, records)
    assert any(coeffs in p for p in problems) and any(table in p for p in problems)


def test_exact_int_rejects_rounds_that_differ(exact_case):
    queries, digests = exact_case
    records = two_rounds(digests)
    label = queries[-1].label
    records[label][1] = "other"
    assert any("differs between rounds" in p for p in exact_int.check(queries, records))


# --- log-scale ------------------------------------------------------------------


def _bisect_saddle(ratio, hi, lam):
    lo = hi * 1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ratio(mid) > 1.0 / lam:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def log_digests(queries):
    out = {}
    syn_lambda_star = {"syn2": 0.7273334675410268, "syn2.5": 0.8227462569866653}
    regimes = {(name, lam): regime for name, lam, regime in log_scale.CASES}
    for q in queries:
        name, n, lam = q.params["cls"], q.params["n"], q.params["lam"]
        counts = log_scale._exact_counts(name, log_scale.SIZES[name][1])
        lam_star = log_scale._lambda_star(name) or syn_lambda_star[name]
        at = lam_star if lam is None else lam
        N = math.floor(at * n + 1e-9)
        exact = math.log(ref.forests(n, N) if name == "trees" else ref.set_count(counts, n, N))
        x, log_h = 0.3, 0.0
        if regimes[(name, lam)] == "above":
            if name == "trees":
                x, y = ref.tree_saddle(at)
                log_h = math.log(at * y)
            elif name in log_scale.SYNTHETIC:
                b, rho, alpha = log_scale.SYNTHETIC[name]
                x = _bisect_saddle(lambda t: (lambda C, A: A / C)(
                    *ref.synthetic_egf(counts, b, rho, alpha, t)), rho * (1 - 1e-12), at)
                log_h = math.log(ref.synthetic_egf(counts, b, rho, alpha, x)[0])
            else:
                rho = ref.block_constants(log_scale.BLOCK_KINDS[name])[1]
                x = _bisect_saddle(lambda t: (lambda C, A, _: A / C)(
                    *ref.egf_direct(counts, t)), rho, at)
                log_h = math.log(ref.egf_direct(counts, x)[0])
        out[q.label] = {
            "lam": at, "lambda_star": lam_star, "regime": regimes[(name, lam)], "N": N,
            "log_count": exact, "log_estimate": exact + 4.0 / n, "x": x, "log_h": log_h,
            "log_factorial_ratio": math.lgamma(n + 1) - math.lgamma(N + 1),
        }
    return out


@pytest.fixture(scope="module")
def log_case():
    queries = log_scale.plan(5)
    return queries, log_digests(queries)


def _label(queries, name, n, lam):
    return next(q.label for q in queries
                if (q.params["cls"], q.params["n"], q.params["lam"]) == (name, n, lam))


def test_log_scale_accepts_reference(log_case):
    queries, digests = log_case
    assert log_scale.check(queries, two_rounds(digests)) == []


@pytest.mark.parametrize("name, lam, field, factor", [
    ("trees", 0.75, "x", 1 + 1e-6),  # wrong tree saddle
    ("syn2.5", 0.9, "x", 1 + 1e-6),  # wrong synthetic saddle
    ("cacti", 0.85, "x", 1 - 1e-6),  # wrong block-class saddle
    ("husimi", 0.3, "log_count", 1 + 1e-8),  # count_log off the exact log
    ("cacti", None, "lambda_star", 1 + 1e-6),  # wrong threshold
])
def test_log_scale_rejects_wrong_values(log_case, name, lam, field, factor):
    queries, digests = log_case
    label = _label(queries, name, log_scale.SIZES[name][1], lam)
    bad = dict(digests[label])
    bad[field] *= factor
    records = two_rounds(digests)
    records[label] = [bad, bad]
    assert any(label in p or f"{name} at" in p for p in log_scale.check(queries, records))


def test_log_scale_rejects_growing_error_and_wrong_regime(log_case):
    queries, digests = log_case
    records = two_rounds(digests)
    label = _label(queries, "trees", log_scale.SIZES["trees"][1], 0.25)
    bad = dict(digests[label], log_estimate=digests[label]["log_count"] + 0.5)
    records[label] = [bad, bad]
    label2 = _label(queries, "husimi", log_scale.SIZES["husimi"][0], 0.85)
    records[label2] = [dict(digests[label2], regime="critical")] * 2
    problems = log_scale.check(queries, records)
    assert any("trees at lambda=0.25" in p for p in problems)
    assert any(label2 in p and "regime" in p for p in problems)


# --- sampling -------------------------------------------------------------------


def composition_digest(q, rng, kappa_scale=1.0):
    name, scale, draws = q.params["cls"], q.params["scale"], q.params["draws"]
    _zeta, rho, C_rho = ref.block_constants(sampling.KINDS[name])
    x = scale * rho
    counts = ref.block_counts(sampling.KINDS[name], sampling.HEAD)
    w = ref.egf_terms(counts, x)
    C = C_rho if scale == 1.0 else ref.egf_direct(counts, x)[0]
    kappa = rng.poisson(C * kappa_scale, size=draws)
    probs = [v / C for v in w]
    probs.append(1.0 - sum(probs))
    sizes = rng.choice(len(probs), size=int(kappa.sum()), p=probs) + 1
    sizes[sizes == len(probs)] = 500  # beyond the compared head
    return {
        "x": x, "n_max": 8192 if scale == 1.0 else 256, "normalizer": C,
        "truncated_mass": 3e-7 if scale == 1.0 else 0.0, "pmf_sum": 1.0,
        "pmf_head": probs[:-1], "tail_slope": -2.5 if scale == 1.0 else None,
        "kappa": Counter(int(v) for v in kappa), "sizes": Counter(int(v) for v in sizes),
        "bad_draws": 0,
    }


def forest_digest(q, rng, universe=None, law=None, isolated_shift=0.0):
    n, k, draws = q.params["n"], q.params["k"], q.params["draws"]
    v1, shapes, isolated = Counter(), Counter(), []
    if n <= 8:
        universe = universe or ref.enumerate_forests(n, k)
        for i in rng.integers(0, len(universe), size=draws):
            edges = universe[i]
            comp, grew = {1}, True
            while grew:
                grew = False
                for u, v in edges:
                    if (u in comp) != (v in comp):
                        comp |= {u, v}
                        grew = True
            v1[len(comp)] += 1
            shapes[edges] += 1
            isolated.append(sum(1 for v in range(1, n + 1) if all(v not in e for e in edges)))
    else:
        law = law or ref.vertex_one_law(n, k, sampling.V1_BINS)
        p = list(law) + [1.0 - sum(law)]
        for m in rng.choice(len(p), size=draws, p=p):
            v1[int(m) + 1] += 1
        mean, var = ref.isolated_moments(n, k)
        isolated = [round(v) for v in rng.normal(mean + isolated_shift, math.sqrt(var), draws)]
    return {"problems": [], "invalid": 0, "v1": v1, "shapes": shapes, "isolated": isolated}


@pytest.fixture(scope="module")
def sampling_case():
    rng = np.random.default_rng(17)
    queries = sampling.plan(17)
    records = {}
    for q in queries:
        make = composition_digest if q.kind == "compositions" else forest_digest
        records[q.label] = [make(q, rng) for _ in range(4)]
    return queries, records


def test_sampling_accepts_exact_laws(sampling_case):
    queries, records = sampling_case
    assert sampling.check(queries, records) == []


def test_sampling_rejects_non_uniform_forests(sampling_case):
    queries, records = sampling_case
    q = next(q for q in queries if q.params.get("n") == 8)
    universe = ref.enumerate_forests(8, 6)
    rng = np.random.default_rng(1)
    skewed = universe[: len(universe) // 2] * 2  # half the forests twice as likely
    bad = dict(records)
    bad[q.label] = [forest_digest(q, rng, universe=skewed) for _ in range(4)]
    assert any(q.label in p and "not uniform" in p for p in sampling.check(queries, bad))


def test_sampling_rejects_wrong_size_law(sampling_case):
    queries, records = sampling_case
    q = next(q for q in queries if q.params.get("n") == 2000)
    law = ref.vertex_one_law(2000, q.params["k"], sampling.V1_BINS)
    rng = np.random.default_rng(2)
    bad = dict(records)
    shifted = [law[0] * 0.5] + law[1:]  # vertex 1 alone half as often as the law says
    bad[q.label] = [forest_digest(q, rng, law=shifted) for _ in range(6)]
    assert any(q.label in p and "vertex 1" in p for p in sampling.check(queries, bad))
    _mean, var = ref.isolated_moments(2000, q.params["k"])
    bad[q.label] = [forest_digest(q, rng, isolated_shift=math.sqrt(var)) for _ in range(6)]
    assert any(q.label in p and "one-vertex" in p for p in sampling.check(queries, bad))


def test_sampling_rejects_invalid_forest_and_wrong_table(sampling_case):
    queries, records = sampling_case
    bad = dict(records)
    fq = next(q for q in queries if q.kind == "forests")
    bad[fq.label] = [dict(d, invalid=1, problems=["edge (1, 2) closes a cycle"])
                     for d in records[fq.label]]
    cq = next(q for q in queries if q.kind == "compositions" and q.params["scale"] < 1)
    bad[cq.label] = [dict(d, normalizer=d["normalizer"] * 1.001) for d in records[cq.label]]
    kq = next(q for q in queries if q.kind == "compositions" and q.params["scale"] == 1)
    rng = np.random.default_rng(3)
    bad[kq.label] = [composition_digest(kq, rng, kappa_scale=1.5) for _ in range(4)]
    problems = sampling.check(queries, bad)
    for q in (fq, cq, kq):
        assert any(q.label in p for p in problems), q.label


# --- readme-cli -----------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_case():
    import setcensus

    saved_path, cwd = os.environ.get("PYTHONPATH"), os.getcwd()
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                             saved_path]))
    os.chdir(ROOT)
    try:
        queries = readme_cli.plan(9)
        with child.SpeedSampler() as sampler:
            records, _lat, errors = child.run_rounds(queries, readme_cli.setup(setcensus), 0.0,
                                                     sampler)
    finally:
        os.chdir(cwd)
        if saved_path is None:
            del os.environ["PYTHONPATH"]
        else:
            os.environ["PYTHONPATH"] = saved_path
    assert errors == []
    return queries, records


def test_readme_cli_accepts_program_output(cli_case):
    queries, records = cli_case
    assert readme_cli.check(queries, records) == []


def _edit(records, label, old, new):
    d = dict(records[label][0])
    assert old in d["stdout"]
    d["stdout"] = d["stdout"].replace(old, new, 1)
    return dict(records, **{label: [d]})


def test_readme_cli_rejects_wrong_outputs(cli_case):
    queries, records = cli_case
    cases = [
        ("exact cacti 30 12", "4860527143264144604713039383482275",
         "4860527143264144604713039383482276"),
        ("compare trees 0.75 40,80", "40\t51.4108174357783", "40\t51.4208174357783"),
        ("constants trees 0.75", '"sigma2": 0.888888888888889', '"sigma2": 0.8888'),
        ("series husimi 6", '"4447"', '"4448"'),
        ("sample forest 6 2", '"k": 2, "blocks": [[', '"k": 2, "blocks": [[1], ['),
    ]
    for label, old, new in cases:
        assert any(label in p for p in readme_cli.check(queries, _edit(records, label, old, new))), label


def test_readme_cli_rejects_runs_that_are_not_byte_identical(cli_case):
    queries, records = cli_case
    label = "sample composition 0.25"
    d = dict(records[label][0])
    d["stdout"] = d["stdout"].replace('"draw": 1', '"draw":  1')
    bad = dict(records, **{label: [records[label][0], d]})
    assert any("differs between rounds" in p for p in readme_cli.check(queries, bad))
