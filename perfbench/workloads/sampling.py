"""sampling: the Boltzmann route.

``sampler`` size tables and draws do the work and no series extraction
runs.  Exact-size tree forests re-solve the forest saddle in
``asymptotics`` on every draw.  Forests are drawn only at densities where
rejection succeeds on every seed: at low density (k/n < 1/2) the
rejection budget runs out at n = 2000, a known fault left to its own
workload.
"""

from collections import Counter

import math

import numpy as np

import reference as ref

from . import Query, first_and_repeats, rel_err

KINDS = {"cacti": "cactus", "husimi": "complete"}
HEAD = 120  # leading table entries compared with the exact counts
V1_BINS = 8  # sizes of the tree holding vertex 1 tested one by one; larger ones pooled
P_MIN = 1e-6  # chi-square tests fail below this p-value


def setup(sc):
    ctx = {"sc": sc, "trees": sc.species.builtin("trees")}
    for name in KINDS:
        ctx[name] = sc.species.builtin(name)
        ctx[f"rho_{name}"] = sc.asymptotics.recipe_constants(ctx[name]).rho
    return ctx


def _composition_query(name, scale, draws, rng):
    """Size table at x = scale * rho, then a batch of unconditioned draws from it."""

    def call(ctx, state):
        sc, cls = ctx["sc"], ctx[name]
        x = scale * ctx[f"rho_{name}"]
        dist = sc.sampler.size_distribution(cls, x)
        return x, dist, [sc.sampler.sample_set(cls, x, rng, dist=dist) for _ in range(draws)]

    def digest(out):
        x, dist, comps = out
        pmf = dist.pmf
        sizes = Counter(s for c in comps for s in c.sizes)
        tail = None
        if dist.n_max >= 4096:
            # at rho the weights fall as j^-5/2 (every block class has alpha = 3/2)
            j1, j2 = dist.n_max // 4, dist.n_max // 2
            tail = float(np.log(pmf[j2 - 1] / pmf[j1 - 1]) / np.log(j2 / j1))
        return {
            "x": x,
            "n_max": dist.n_max,
            "normalizer": dist.normalizer,
            "truncated_mass": dist.truncated_mass,
            "pmf_sum": float(pmf.sum()),
            "pmf_head": [float(v) for v in pmf[:HEAD]],
            "tail_slope": tail,
            "kappa": Counter(c.kappa for c in comps),
            "sizes": sizes,
            "bad_draws": sum(1 for c in comps if len(c.sizes) != c.kappa),
        }

    return Query(f"compositions {name} x={scale}rho", "compositions",
                 {"cls": name, "scale": scale, "draws": draws}, call, digest)


def _forest_query(n, k, draws, rng):
    def call(ctx, state):
        sample_forest = ctx["sc"].sampler.sample_forest
        return [sample_forest(n, k, rng=rng) for _ in range(draws)]

    def digest(forests):
        problems = []
        v1, shapes, isolated = Counter(), Counter(), []
        for f in forests:
            p = ref.spanning_forest_problem(n, k, f.blocks, f.trees)
            if p is not None:
                problems.append(p)
                continue
            v1[next(len(b) for b in f.blocks if 1 in b)] += 1
            isolated.append(sum(1 for b in f.blocks if len(b) == 1))
            if n <= 8:
                shapes[frozenset(e for t in f.trees for e in t)] += 1
        return {"problems": problems[:3], "invalid": len(problems), "v1": v1, "shapes": shapes,
                "isolated": isolated}

    return Query(f"forests n={n} k={k}", "forests", {"n": n, "k": k, "draws": draws},
                 call, digest)


def plan(seed):
    """One generator made from the seed feeds every draw of the run, round after round.

    Batch sizes are chosen so that every query takes about the same time,
    which keeps the median query latency from jumping between query kinds.
    """
    rng = np.random.default_rng(seed)
    return [
        _composition_query("cacti", 1.0, 3000, rng),
        _composition_query("cacti", 0.6, 60000, rng),
        _composition_query("husimi", 1.0, 3000, rng),
        _composition_query("husimi", 0.6, 60000, rng),
        _forest_query(2000, 1200, 20, rng),
        _forest_query(2000, 1600, 30, rng),
        _forest_query(8, 6, 2000, rng),
        _forest_query(5, 2, 1500, rng),
        _forest_query(4, 2, 2500, rng),
    ]


def check(queries, records):
    problems = []
    for q in queries:
        digests = [d for d in records[q.label] if d is not None]
        if not digests:
            continue
        if q.kind == "compositions":
            problems.extend(_composition_problems(q, digests))
        else:
            problems.extend(_forest_problems(q, digests))
    return problems


def _composition_problems(q, digests):
    label, name, scale = q.label, q.params["cls"], q.params["scale"]
    table_keys = ("x", "n_max", "normalizer", "truncated_mass", "pmf_sum", "pmf_head",
                  "tail_slope")
    problems = []
    d = first_and_repeats(label, [{k: g[k] for k in table_keys} for g in digests], problems)
    _zeta, rho, C_rho = ref.block_constants(KINDS[name])
    if rel_err(d["x"], scale * rho) > 1e-9:
        problems.append(f"{label}: x = {d['x']}, reference rho gives {scale * rho}")
    counts = ref.block_counts(KINDS[name], HEAD)
    w = ref.egf_terms(counts, d["x"])
    C_head, _A, last = ref.egf_direct(counts, d["x"])
    head = d["pmf_head"]
    if any(rel_err(head[j] * d["normalizer"], w[j]) > 1e-9 for j in range(min(len(head), HEAD))):
        problems.append(f"{label}: table weights differ from |C_j| x^j / j!")
    if abs(d["pmf_sum"] - 1.0) > 1e-12:
        problems.append(f"{label}: pmf sums to {d['pmf_sum']}")
    if not 0.0 <= d["truncated_mass"] <= 1e-6:
        problems.append(f"{label}: truncated mass {d['truncated_mass']} above the 1e-6 target")
    if scale == 1.0:
        C_full = C_rho
        if d["tail_slope"] is None or abs(d["tail_slope"] + 2.5) > 0.05:
            problems.append(f"{label}: table tail decays as j^{d['tail_slope']}, not j^-2.5")
    elif last < 1e-15:
        C_full = C_head
    else:
        raise ValueError(f"{label}: x too close to rho for a {HEAD}-term direct sum")
    if rel_err(d["normalizer"], C_full) > 2e-6:
        problems.append(f"{label}: normalizer {d['normalizer']} vs C(x) = {C_full}")
    if any(g["bad_draws"] for g in digests):
        problems.append(f"{label}: a draw's size list does not match its kappa")
    # pooled draws: kappa ~ Poisson(C(x)), sizes iid with P(j) = |C_j| x^j / j! / C(x)
    kappa = sum((g["kappa"] for g in digests), Counter())
    sizes = sum((g["sizes"] for g in digests), Counter())
    kmax = max(kappa)
    p = ref.chi_square_p([kappa.get(j, 0) for j in range(kmax + 1)],
                         ref.poisson_pmf(C_full, kmax), sum(kappa.values()))
    if p < P_MIN:
        problems.append(f"{label}: component counts are not Poisson(C(x)), p = {p:.2e}")
    if sizes and (min(sizes) < 1 or max(sizes) > d["n_max"]):
        problems.append(f"{label}: a size falls outside 1..n_max")
    p = ref.chi_square_p([sizes.get(j, 0) for j in range(1, HEAD + 1)],
                         [v / C_full for v in w], sum(sizes.values()))
    if p < P_MIN:
        problems.append(f"{label}: component sizes do not follow the table, p = {p:.2e}")
    return problems


def _forest_problems(q, digests):
    label, n, k = q.label, q.params["n"], q.params["k"]
    problems = []
    invalid = sum(g["invalid"] for g in digests)
    if invalid:
        first = next(p for g in digests for p in g["problems"])
        problems.append(f"{label}: {invalid} draws are not spanning forests ({first})")
    v1 = sum((g["v1"] for g in digests), Counter())
    law = ref.vertex_one_law(n, k, min(V1_BINS, n - k + 1))
    p = ref.chi_square_p([v1.get(m, 0) for m in range(1, len(law) + 1)], law,
                         sum(v1.values()))
    if p < P_MIN:
        problems.append(f"{label}: size of the tree holding vertex 1 departs from its law, "
                        f"p = {p:.2e}")
    isolated = [m for g in digests for m in g["isolated"]]
    mean, var = ref.isolated_moments(n, k)
    z = (sum(isolated) / max(len(isolated), 1) - mean) / math.sqrt(var / max(len(isolated), 1))
    if isolated and math.erfc(abs(z) / math.sqrt(2)) < P_MIN:
        problems.append(f"{label}: mean number of one-vertex trees is {z:+.1f} standard errors "
                        f"from {mean:.4g}")
    if n <= 8:
        shapes = sum((g["shapes"] for g in digests), Counter())
        universe = ref.enumerate_forests(n, k)
        if set(shapes) - set(universe):
            problems.append(f"{label}: drew an edge set that is not a ({n}, {k}) forest")
        else:
            p = ref.chi_square_p([shapes.get(f, 0) for f in universe],
                                 [1.0 / len(universe)] * len(universe), sum(shapes.values()))
            if p < P_MIN:
                problems.append(f"{label}: forests are not uniform over all {len(universe)}, "
                                f"p = {p:.2e}")
    return problems
