import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from chisquare import chi_square_sf
from setcensus import asymptotics, exact, sampler, species, weights
from setcensus import powerseries as ps
from setcensus.errors import (
    DivergenceError,
    DomainError,
    PrecisionError,
    RetryBudgetError,
)


def assert_valid_forest(f):
    labels = [v for b in f.blocks for v in b]
    assert sorted(labels) == list(range(1, f.n + 1))
    for block, edges in zip(f.blocks, f.trees):
        assert len(edges) == len(block) - 1
        adj = {v: set() for v in block}
        for u, v in edges:
            assert u < v
            adj[u].add(v)
            adj[v].add(u)
        # connected: BFS reaches the whole block
        seen = {block[0]}
        queue = [block[0]]
        while queue:
            w = queue.pop()
            for z in adj[w]:
                if z not in seen:
                    seen.add(z)
                    queue.append(z)
        assert seen == set(block)


class TestSizeDistribution:
    def test_trees_at_x01(self):
        d = sampler.size_distribution(species.builtin("trees"), 0.1, n_max=256)
        assert d.normalizer == pytest.approx(0.105579298515, abs=1e-9)
        assert d.pmf[0] == pytest.approx(0.947155374269, abs=1e-9)
        assert d.truncated_mass == 0.0
        assert d.cdf[-1] == 1.0

    def test_auto_truncation(self):
        d = sampler.size_distribution(species.builtin("trees"), 0.1)
        assert d.n_max == 256
        assert d.pmf.sum() == pytest.approx(1.0, abs=1e-12)

    def test_pmf_is_normalized_and_cdf_monotone(self):
        d = sampler.size_distribution(species.builtin("cacti"), 0.2, n_max=64)
        assert d.pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(d.cdf) >= -1e-15)
        assert not d.pmf.flags.writeable

    def test_block_weights_match_exact_coefficients(self):
        cls = species.builtin("cacti")
        d = sampler.size_distribution(cls, 0.2, n_max=10)
        counts = species.coefficients(cls, 10)
        w1 = counts[0] * 0.2
        for j in range(10):
            want = (
                math.exp(math.log(counts[j]) + (j + 1) * math.log(0.2) - math.lgamma(j + 2))
                / w1
            )
            assert d.pmf[j] / d.pmf[0] == pytest.approx(want, rel=1e-10)

    def test_mean_size_at_radius(self):
        # E[size] = rho C'(rho)/C(rho) = 1/lambda* = 2, short of the truncation deficit
        trees = species.builtin("trees")
        d = sampler.size_distribution(trees, trees.growth.rho, n_max=4096)
        mean = float(np.dot(np.arange(1, 4097), d.pmf))
        assert 0 < 2 - mean < 0.03
        assert 0 < d.truncated_mass < 1e-5

    def test_divergence_beyond_radius(self):
        with pytest.raises(DivergenceError):
            sampler.size_distribution(species.builtin("trees"), 0.4)

    @pytest.mark.parametrize("x", [0.0, -0.1])
    def test_bad_x(self, x):
        with pytest.raises(DomainError):
            sampler.size_distribution(species.builtin("trees"), x)

    def test_one_size_class(self):
        d = sampler.size_distribution(species.from_coefficients("one", [1]), 0.3)
        assert d.n_max == 1
        assert d.pmf[0] == 1.0
        assert d.normalizer == pytest.approx(0.3, abs=1e-15)

    def test_tables_compare_and_hash_by_identity(self):
        trees = species.builtin("trees")
        a = sampler.size_distribution(trees, 0.1)
        b = sampler.size_distribution(trees, 0.1)
        assert a == a
        assert a != b
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2

    def test_tables_share_one_cached_solve(self):
        trees = species.builtin("trees")
        a = sampler.size_distribution(trees, 0.1)
        b = sampler.size_distribution(trees, 0.1)
        assert a != b
        assert a.pmf is b.pmf and a.cdf is b.cdf
        assert not a.cdf.flags.writeable

    def test_sample_set_solves_the_block_table_once(self, monkeypatch):
        cacti = species.builtin("cacti")
        monkeypatch.setattr(cacti, "_scalar_cache", {})
        solves = []
        solve = ps.BlockTable._solve

        def counting(table, M):
            solves.append(M)
            return solve(table, M)

        monkeypatch.setattr(ps.BlockTable, "_solve", counting)
        rng = np.random.default_rng(3)
        x = 0.5 * cacti.growth.rho
        sampler.sample_set(cacti, x, rng)
        first = len(solves)
        assert first >= 1
        for _ in range(20):
            sampler.sample_set(cacti, x, rng)
        assert len(solves) == first

    def test_cached_table_still_respects_the_cap(self, monkeypatch):
        cacti = species.builtin("cacti")
        assert sampler.size_distribution(cacti, cacti.growth.rho).n_max == 8192
        monkeypatch.setattr(species, "_MAX_BLOCK_TABLE", 64)
        with pytest.raises(PrecisionError):
            sampler.size_distribution(cacti, cacti.growth.rho)

    def test_numpy_and_fraction_parameters(self):
        trees = species.builtin("trees")
        for x in (np.float32(0.2), Fraction(1, 5), np.float64(0.2)):
            d = sampler.size_distribution(trees, x)
            assert d.x == float(x)
            assert d.normalizer == pytest.approx(asymptotics._egf_at(trees, x)[0], rel=1e-9)
            comp = sampler.sample_set(trees, x, np.random.default_rng(1))
            assert comp.kappa == len(comp.sizes)
        with pytest.raises(DomainError):
            sampler.size_distribution(trees, "0.2")

    def test_weights_beyond_float64_raise_precision_error(self):
        # 1000^j / j! passes the float64 range near j = 347
        cls = species.from_coefficients("ones", [1] * 400)
        with pytest.raises(PrecisionError, match="x = 1000.0"):
            sampler.size_distribution(cls, 1000.0)

    def test_bare_list_table_ends_with_the_list(self):
        # the list is the whole model: one size past it is the coefficients' own error
        cls = species.from_coefficients("three", [1, 1, 3])
        assert sampler.size_distribution(cls, 0.3).truncated_mass == 0.0
        with pytest.raises(DomainError, match="only up to n = 3$"):
            sampler.size_distribution(cls, 0.3, n_max=4)

    def test_block_table_cap_raises_precision(self, monkeypatch):
        monkeypatch.setattr(species, "_MAX_BLOCK_TABLE", 64)
        cacti = species.builtin("cacti")
        with pytest.raises(PrecisionError) as info:
            sampler.size_distribution(cacti, cacti.growth.rho)
        assert info.value.suggested is not None


class TestBoltzmannDraws:
    def test_composition_shape_validation(self):
        with pytest.raises(DomainError):
            sampler.Composition(kappa=2, sizes=(1,))

    def test_kappa_is_poisson_of_normalizer(self):
        one = species.from_coefficients("one", [1])
        d = sampler.size_distribution(one, 0.3)
        rng = np.random.default_rng(42)
        zero = sum(
            1 for _ in range(20000) if sampler.sample_set(one, 0.3, rng, dist=d).kappa == 0
        )
        p = zero / 20000
        want = math.exp(-0.3)
        assert abs(p - want) < 4 * math.sqrt(want * (1 - want) / 20000)

    def test_wald_identity_total_size(self):
        # E[sum of sizes] = x C'(x); at x = 0.1 for trees that is 0.111832559...
        trees = species.builtin("trees")
        d = sampler.size_distribution(trees, 0.1, n_max=256)
        rng = np.random.default_rng(7)
        totals = np.array(
            [sum(sampler.sample_set(trees, 0.1, rng, dist=d).sizes) for _ in range(50000)],
            dtype=float,
        )
        want = 0.11183255915896297
        se = totals.std(ddof=1) / math.sqrt(len(totals))
        assert abs(totals.mean() - want) < 4 * se

    def test_scalar_draws_match_a_binary_search(self):
        # w_j = 0.9^j for j <= 60: about nine components a draw, and every
        # cdf value inside a bucket makes that bucket fall back to searchsorted
        cls = species.from_coefficients("geometric", [math.factorial(j) for j in range(1, 61)])
        d = sampler.size_distribution(cls, 0.9)
        ours, ref = np.random.default_rng(12), np.random.default_rng(12)
        fallbacks = 0
        for _ in range(2000):
            comp = sampler.sample_set(cls, 0.9, ours)
            kappa = int(ref.poisson(d.normalizer))
            u = ref.random(kappa)
            fallbacks += int(np.count_nonzero(d.guide[(u * 4096).astype(int)] < 0))
            assert comp.sizes == tuple((d.cdf.searchsorted(u, side="right") + 1).tolist())
        assert fallbacks > 100
        draws = (sampler.sample_set(cls, 1e-3, ours) for _ in range(100))
        assert next(c for c in draws if not c.kappa) == sampler.Composition(kappa=0, sizes=())

    @pytest.mark.parametrize("name", ["cacti", "trees"])
    @pytest.mark.parametrize("scale", [0.6, 1.0])
    def test_draws_match_the_loop_and_share_one_component_results(self, name, scale):
        cls = species.builtin(name)
        x = scale * cls.growth.rho
        d = sampler.size_distribution(cls, x)
        ours, ref = np.random.default_rng(2024), np.random.default_rng(2024)
        shared, ones = {}, 0
        for _ in range(20_000):
            got, want = sampler.sample_set(cls, x, ours, dist=d), _loop_sample_set(d, ref)
            assert got == want and repr(got) == repr(want)
            if got.kappa == 1:
                ones += 1
                assert got is shared.setdefault(got.sizes, got)
                assert got == sampler.Composition(kappa=1, sizes=got.sizes)
        assert ours.random() == ref.random()
        assert ones > len(shared) > 1  # some sizes came more than once

    def test_size_draws_follow_pmf(self):
        d = sampler.size_distribution(species.builtin("trees"), 0.2, n_max=8)
        rng = np.random.default_rng(11)
        draws = sampler._lookup(d.cdf, d.guide, rng.random(30000)) + 1
        assert draws.min() >= 1 and draws.max() <= 8
        obs = np.bincount(draws, minlength=9)[1:9]
        chi2 = float((((obs - 30000 * d.pmf) ** 2) / (30000 * d.pmf)).sum())
        assert chi_square_sf(chi2, 7) > 1e-4


def _loop_sample_set(dist, rng):
    """sample_set as it was before one-component draws were shared: one scalar
    uniform and a guide lookup per component, and a new Composition each draw."""
    kappa = int(rng.poisson(dist.normalizer))
    sizes = []
    for _ in range(kappa):
        u = rng.random()
        i = dist.guide.item(int(u * 4096))
        if i < 0:
            i = int(dist.cdf.searchsorted(u, side="right"))
        sizes.append(i + 1)
    return sampler.Composition(kappa=kappa, sizes=tuple(sizes))


class TestPartition:
    def test_two_one_split_is_uniform(self):
        rng = np.random.default_rng(5)
        hits = sum(
            1 for _ in range(9000) if sampler.sample_partition((2, 1), rng)[0] == (1, 2)
        )
        p = hits / 9000
        assert abs(p - 1 / 3) < 4 * math.sqrt((1 / 3) * (2 / 3) / 9000)

    def test_trivial_partitions(self):
        rng = np.random.default_rng(0)
        assert set(sampler.sample_partition((1, 1, 1), rng)) == {(1,), (2,), (3,)}
        assert sampler.sample_partition((4,), rng) == ((1, 2, 3, 4),)

    def test_matches_the_reference_dressing(self):
        for sizes in [(3, 1, 4, 1, 5, 9, 2, 6), (1,) * 7, (2, 2, 1), (2, 1) * 40, (12,), ()]:
            ours, ref = np.random.default_rng(len(sizes)), np.random.default_rng(len(sizes))
            assert sampler.sample_partition(sizes, ours) == _reference_partition(sizes, ref)
            assert ours.random() == ref.random()

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(DomainError):
            sampler.sample_partition((2, 0), rng=np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [2.5, math.nan, "3"])
    def test_rejects_non_integer_sizes(self, bad):
        with pytest.raises(DomainError, match="must be an integer"):
            sampler.sample_partition([bad, 1], rng=np.random.default_rng(0))

    def test_numpy_integer_sizes(self):
        sizes = np.array([3, 1, 2], dtype=np.int64)
        ours, ref = np.random.default_rng(4), np.random.default_rng(4)
        assert sampler.sample_partition(sizes, ours) == sampler.sample_partition((3, 1, 2), ref)
        assert sampler.sample_partition((), ours) == ()


class TestForests:
    def test_structure_is_valid(self):
        rng = np.random.default_rng(21)
        for n, k in [(1, 1), (2, 2), (6, 2), (9, 4), (12, 1)]:
            f = sampler.sample_forest(n, k, rng=rng)
            assert f.n == n and len(f.blocks) == k
            assert_valid_forest(f)

    def test_unique_forest_cases(self):
        f = sampler.sample_forest(2, 2, rng=np.random.default_rng(1))
        assert frozenset(f.blocks) == {(1,), (2,)}
        assert f.trees == ((), ())

    def test_uniform_trees_n4(self):
        # k = 1 reduces to a uniform labeled tree; n = 4 has 16 of them
        rng = np.random.default_rng(3)
        cnt = Counter()
        for _ in range(32000):
            f = sampler.sample_forest(4, 1, rng=rng)
            cnt[f.trees[0]] += 1
        assert len(cnt) == 16
        e = 32000 / 16
        chi2 = sum((o - e) ** 2 / e for o in cnt.values())
        assert chi_square_sf(chi2, 15) > 1e-4

    def test_uniform_forests_n3_k2(self):
        rng = np.random.default_rng(13)
        cnt = Counter()
        for _ in range(9000):
            cnt[frozenset(sampler.sample_forest(3, 2, rng=rng).blocks)] += 1
        assert len(cnt) == 3
        for v in cnt.values():
            assert abs(v / 9000 - 1 / 3) < 4 * math.sqrt((1 / 3) * (2 / 3) / 9000)

    def test_explicit_x_supported(self):
        f = sampler.sample_forest(5, 2, x=0.2, rng=np.random.default_rng(17))
        assert_valid_forest(f)

    @pytest.mark.parametrize("x", [math.nan, -1, "0.3"])
    def test_explicit_x_is_checked_with_a_plan_cached(self, x):
        sampler.sample_forest(5, 2, x=0.3, rng=np.random.default_rng(1))
        assert ("forest", 0.3, 5, 2) in species.builtin("trees")._scalar_cache
        with pytest.raises(DomainError, match="boltzmann parameter x"):
            sampler.sample_forest(5, 2, x=x, rng=np.random.default_rng(1))

    def test_cached_plan_still_respects_the_cap(self, monkeypatch):
        sampler.sample_forest(8, 6, rng=np.random.default_rng(1))
        assert ("forest", _default_x(8, 6), 8, 6) in species.builtin("trees")._scalar_cache
        monkeypatch.setattr(species, "_MAX_TABLE", 2)  # below the 3 sizes of (8, 6)
        with pytest.raises(PrecisionError):
            sampler.sample_forest(8, 6, rng=np.random.default_rng(1))

    def test_retry_budget_with_more_than_128_sizes(self):
        # the plan holds the exact acceptance for any number of sizes
        n, k = 300, 200
        x = _default_x(n, k)
        table, p, _block = sampler._forest_plan(species.builtin("trees"), x, n, k)
        assert p == math.exp(weights._log_power_coefficient(table.pmf, k, n - k))
        with pytest.raises(RetryBudgetError) as info:
            sampler.sample_forest(n, k, x=x * 0.5, rng=np.random.default_rng(0), max_rejects=0)
        half = sampler.size_distribution(species.builtin("trees"), x * 0.5, n_max=n - k + 1)
        want = math.exp(weights._log_power_coefficient(half.pmf, k, n - k))
        assert info.value.expected_acceptance == want

    @pytest.mark.parametrize("n,k,x,p,block", [(6, 6, None, 1.0, 1), (8, 1, 1e-200, 0.0, 8192)])
    def test_block_when_the_acceptance_is_one_or_underflows(self, n, k, x, p, block):
        # one attempt always hits at n = k; an acceptance of 0 leaves the cap
        x = _default_x(n, k) if x is None else x
        _table, plan_p, plan_block = sampler._forest_plan(species.builtin("trees"), x, n, k)
        assert (plan_p, plan_block) == (p, block)

    @pytest.mark.parametrize("n,k", [(3, 4), (3, 0), (0, 1), (2.5, 1)])
    def test_domain(self, n, k):
        with pytest.raises(DomainError):
            sampler.sample_forest(n, k, rng=np.random.default_rng(0))

    def test_retry_budget(self):
        rng = np.random.default_rng(0)
        with pytest.raises(RetryBudgetError) as info:
            sampler.sample_forest(8, 1, x=1e-12, rng=rng, max_rejects=10)
        assert info.value.attempts == 11
        # 11 attempts of k = 1 uniform each, and not one more
        fresh = np.random.default_rng(0)
        fresh.random(11)
        assert rng.random() == fresh.random()

    def test_retry_budget_reports_the_exact_acceptance(self):
        trees = species.builtin("trees")
        n, k, x = 12, 3, 0.08
        with pytest.raises(RetryBudgetError) as info:
            sampler.sample_forest(n, k, x=x, rng=np.random.default_rng(0), max_rejects=20)
        err = info.value
        assert err.attempts == 21
        # (k!/n!) count(n, k) x^n / C_M(x)^k with the table truncated at M = n - k + 1
        xq = Fraction(x)
        counts = species.coefficients(trees, n - k + 1)
        C_M = sum(Fraction(c, math.factorial(j + 1)) * xq ** (j + 1) for j, c in enumerate(counts))
        want = Fraction(math.factorial(k), math.factorial(n)) * exact.count(trees, n, k) * xq**n
        want = float(want / C_M**k)
        assert err.expected_acceptance == pytest.approx(want, rel=1e-10)
        # the suggested budget succeeds with probability at least 0.95, and one less does not
        p, budget = err.expected_acceptance, err.suggested
        assert -math.expm1((budget + 1) * math.log1p(-p)) >= 0.95
        assert -math.expm1(budget * math.log1p(-p)) < 0.95
        assert f"{budget}" in str(err) and f"{p:.3g}" in str(err)

    def test_retry_budget_when_the_acceptance_underflows(self):
        with pytest.raises(RetryBudgetError) as info:
            sampler.sample_forest(8, 1, x=1e-200, max_rejects=0)
        err = info.value
        assert (err.attempts, err.expected_acceptance, err.suggested) == (1, 0.0, None)
        assert str(err).endswith("the per-attempt acceptance underflows to 0 at this x")

    def test_default_rng(self):
        assert_valid_forest(sampler.sample_forest(6, 2, rng=None))

    def test_seed_determinism(self):
        a = sampler.sample_forest(7, 3, rng=np.random.default_rng(123))
        b = sampler.sample_forest(7, 3, rng=np.random.default_rng(123))
        assert a == b


def _default_x(n, k):
    trees = species.builtin("trees")
    if asymptotics.lambda_star(trees) + 1e-12 < k / n < 1.0:
        return asymptotics.solve_supercritical(trees, k / n).x_lambda
    return trees.growth.rho


def _probe_uniforms(cdf):
    """Bucket edges, their left neighbours, the cdf values and their neighbours, in [0, 1)."""
    edges = np.arange(4096) / 4096
    u = np.concatenate([
        [0.0, np.nextafter(1.0, 0.0)],
        edges,
        np.nextafter(edges, 0.0),
        cdf,
        np.nextafter(cdf, 0.0),
        np.nextafter(cdf, 1.0),
        np.random.default_rng(4096).random(50_000),
    ])
    return u[(u >= 0.0) & (u < 1.0)]


# tables of 1 to 20 sizes at the radius (k = 1) and below it (k = 40)
_TINY_TABLES = [(m, 1) for m in range(1, 21)] + [(m + 39, 40) for m in range(2, 21)]


class TestGuideTable:
    @pytest.mark.parametrize("n,k", [(2000, 1200), (2000, 1600), (8, 6), (5, 2), (4, 2)] + _TINY_TABLES)
    def test_forest_tables(self, n, k):
        d = sampler.size_distribution(species.builtin("trees"), _default_x(n, k), n_max=n - k + 1)
        cdf, guide = d.cdf, d.guide
        u = _probe_uniforms(cdf)
        want = cdf.searchsorted(u, side="right")
        assert np.array_equal(sampler._lookup(cdf, guide, u.copy()), want)
        # blocks of _SEARCH_MAX uniforms take one searchsorted call, longer ones the guide
        for step in (sampler._SEARCH_MAX, sampler._SEARCH_MAX + 1):
            got = [
                sampler._size_indices(cdf, guide, u[i : i + step].copy())
                for i in range(0, len(u), step)
            ]
            assert np.array_equal(np.concatenate(got), want)

    def test_long_table_at_radius(self):
        cacti = species.builtin("cacti")
        cdf = sampler.size_distribution(cacti, cacti.growth.rho).cdf
        assert len(cdf) == 8192
        u = _probe_uniforms(cdf)
        got = sampler._lookup(cdf, sampler._guide_table(cdf), u.copy())
        assert np.array_equal(got, cdf.searchsorted(u, side="right"))

    def test_zero_weight_sizes(self):
        gap = species.from_coefficients("gap", [1, 0, 6])
        cdf = sampler.size_distribution(gap, 0.5).cdf
        assert cdf[0] == cdf[1]
        u = _probe_uniforms(cdf)
        got = sampler._lookup(cdf, sampler._guide_table(cdf), u.copy())
        assert np.array_equal(got, cdf.searchsorted(u, side="right"))
        assert 1 not in got  # size 2 has no weight and is never drawn

    def test_ambiguous_buckets_are_marked(self):
        cdf = np.array([0.3, 0.5, 1.0])
        guide = sampler._guide_table(cdf)
        # 0.5 is a bucket edge, 0.3 is not: only the bucket holding 0.3 is ambiguous
        assert list(np.flatnonzero(guide < 0)) == [int(0.3 * 4096)]
        assert guide[2047] == 1 and guide[2048] == 2


def _reference_partition(sizes, rng):
    """sample_partition as it was first written: one sorted slice per block."""
    sizes = list(map(int, sizes))
    if any(s < 1 for s in sizes):
        raise DomainError("all block sizes must be positive")
    n = sum(sizes)
    perm = (rng.permutation(n) + 1).tolist()
    blocks = []
    at = 0
    for s in sizes:
        blocks.append(tuple(sorted(perm[at : at + s])))
        at += s
    return tuple(blocks)


def _reference_tree_edges(labels, rng):
    """Uniform labeled tree on the given labels, as first written: one call per block."""
    m = len(labels)
    if m == 1:
        return ()
    if m == 2:
        return ((min(labels), max(labels)),)
    seq = rng.integers(0, m, size=m - 2).tolist()
    edges = sampler._prufer_decode(m, seq)
    out = []
    for a, b in edges:
        u, v = labels[a], labels[b]
        out.append((u, v) if u < v else (v, u))
    return tuple(out)


def _one_attempt_forest(n, k, x, rng, max_rejects):
    """sample_forest as it was first written: one searchsorted per rejection attempt,
    then the frozen reference dressing."""
    cdf = sampler.size_distribution(species.builtin("trees"), x, n_max=n - k + 1).cdf
    attempts = 0
    while attempts <= max_rejects:
        attempts += 1
        idx = cdf.searchsorted(rng.random(k), side="right")
        if idx.sum() == n - k:
            blocks = _reference_partition((idx + 1).tolist(), rng)
            trees = tuple(_reference_tree_edges(b, rng) for b in blocks)
            return sampler.LabeledForest(n=n, blocks=blocks, trees=trees)
    raise RetryBudgetError("reference budget", attempts=attempts)


_BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox]


class TestBlockRejection:
    @pytest.mark.parametrize("bit_generator", _BIT_GENERATORS)
    @pytest.mark.parametrize(
        "n,k",
        # (2000, 1100) draws about 140 trees of 3 or more vertices per forest
        [
            (2000, 1990), (2000, 1600), (2000, 1200), (2000, 1100), (200, 150),
            (40, 39), (8, 6), (7, 3), (6, 6), (4, 2), (1, 1),
        ],
    )
    def test_generator_ends_where_one_attempt_at_a_time_does(self, bit_generator, n, k):
        x = _default_x(n, k)
        ours = np.random.Generator(bit_generator(2024))
        ref = np.random.Generator(bit_generator(2024))
        for _ in range(3):
            assert sampler.sample_forest(n, k, rng=ours) == _one_attempt_forest(
                n, k, x, ref, 10_000
            )
            assert ours.random() == ref.random()

    @pytest.mark.parametrize("bit_generator", _BIT_GENERATORS)
    def test_one_and_many_pruefer_blocks_match_the_reference(self, bit_generator):
        # (7, 3) and (9, 2) give forests with one and with two trees of 3 or more
        # vertices, (2000, 1100) about 140; every way of drawing their sequences
        # must leave the generator where one call per tree does
        ours = np.random.Generator(bit_generator(15))
        ref = np.random.Generator(bit_generator(15))
        big_trees = Counter()
        for n, k, draws in ((7, 3, 40), (9, 2, 40), (2000, 1100, 2)):
            x = _default_x(n, k)
            for _ in range(draws):
                f = sampler.sample_forest(n, k, rng=ours)
                assert f == _one_attempt_forest(n, k, x, ref, 10_000)
                assert ours.random() == ref.random()
                big = sum(len(b) >= 3 for b in f.blocks)
                big_trees[(n, "many" if big > 1 else big)] += 1
        assert big_trees[(7, 1)] and big_trees[(7, "many")]
        assert big_trees[(9, 1)] and big_trees[(9, "many")]
        assert big_trees[(2000, "many")] == 2

    def test_small_budgets_match_the_reference(self):
        # budgets that end inside the first block, on its last attempt and past it
        for max_rejects in (0, 1, 5, 40, 41, 42, 300):
            ours, ref = np.random.default_rng(max_rejects), np.random.default_rng(max_rejects)
            for _ in range(20):
                try:
                    want = _one_attempt_forest(8, 6, _default_x(8, 6), ref, max_rejects)
                except RetryBudgetError as err:
                    with pytest.raises(RetryBudgetError) as info:
                        sampler.sample_forest(8, 6, rng=ours, max_rejects=max_rejects)
                    assert info.value.attempts == err.attempts
                else:
                    assert sampler.sample_forest(8, 6, rng=ours, max_rejects=max_rejects) == want
                assert ours.random() == ref.random()

    @pytest.mark.parametrize("bit_generator", _BIT_GENERATORS)
    @pytest.mark.parametrize("n,k,p,first", [(5, 2, 0.0553, 41), (7, 3, 0.0516, 44)])
    def test_budgets_around_the_acceptance_sized_first_block(self, bit_generator, n, k, p, first):
        x = _default_x(n, k)
        _table, plan_p, plan_first = sampler._forest_plan(species.builtin("trees"), x, n, k)
        assert plan_p == pytest.approx(p, abs=1e-4)
        # the fewest attempts that hit with probability 0.9
        assert plan_first == first == math.ceil(math.log(0.1) / math.log1p(-plan_p))
        outcomes = Counter()
        # budgets that end inside the first block, on its last attempt and just past it
        for max_rejects in (0, first // 2, first - 2, first - 1, first, first + 1):
            ours = np.random.Generator(bit_generator(max_rejects))
            ref = np.random.Generator(bit_generator(max_rejects))
            for _ in range(20):
                try:
                    want = _one_attempt_forest(n, k, x, ref, max_rejects)
                except RetryBudgetError as err:
                    with pytest.raises(RetryBudgetError) as info:
                        sampler.sample_forest(n, k, rng=ours, max_rejects=max_rejects)
                    assert info.value.attempts == err.attempts == max_rejects + 1
                    outcomes["budget"] += 1
                else:
                    assert sampler.sample_forest(n, k, rng=ours, max_rejects=max_rejects) == want
                    outcomes["forest"] += 1
                assert ours.random() == ref.random()
        assert outcomes["budget"] and outcomes["forest"]

    @pytest.mark.parametrize("max_rejects", [-3, 2.5, "10"])
    def test_max_rejects_must_be_a_non_negative_integer(self, max_rejects):
        with pytest.raises(DomainError, match="max_rejects"):
            sampler.sample_forest(8, 1, rng=np.random.default_rng(0), max_rejects=max_rejects)

    @pytest.mark.parametrize("rng", [np.random.RandomState(0), 7, "seed"])
    def test_rng_must_be_a_generator(self, rng):
        with pytest.raises(DomainError, match=r"numpy\.random\.default_rng\(seed\)"):
            sampler.sample_forest(6, 2, rng=rng)


class TestSumProbability:
    def test_exact_identity_fraction(self):
        trees = species.builtin("trees")
        x = Fraction(1, 10)
        P = sampler.sum_size_probability_exact(trees, x, 2, 4)
        lhs = Fraction(math.factorial(2), math.factorial(4)) * exact.count(trees, 4, 2)
        counts = species.coefficients(trees, 3)
        C_trunc = sum(
            Fraction(counts[j - 1], math.factorial(j)) * x**j for j in range(1, 4)
        )
        assert lhs == C_trunc**2 * x**-4 * P

    def test_exact_is_probability(self):
        trees = species.builtin("trees")
        P = sampler.sum_size_probability_exact(trees, Fraction(1, 5), 3, 6)
        assert 0 < P < 1

    def test_decreasing_beyond_mode(self):
        trees = species.builtin("trees")
        vals = [
            sampler.sum_size_probability_exact(trees, Fraction(1, 10), 2, n)
            for n in range(2, 9)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_exact_frozen(self):
        # Fractions recorded from the full-order power [x^n] W^k
        def digest(values):
            return hashlib.sha256(str(values).encode()).hexdigest()[:16]

        trees, cacti = species.builtin("trees"), species.builtin("cacti")
        grid = [
            sampler.sum_size_probability_exact(trees, x, k, n)
            for n, k in ((4, 2), (5, 2), (5, 3), (6, 3))
            for x in (Fraction(1, 10), Fraction(1, 5))
        ]
        assert digest(grid) == "9a24f2cca9386186"
        edges = [
            sampler.sum_size_probability_exact(cacti, Fraction(1, 5), 3, 9, n_max=m)
            for m in (2, 7, 12)
        ]
        edges += [
            sampler.sum_size_probability_exact(trees, 1, 1, 1),
            sampler.sum_size_probability_exact(trees, Fraction(1, 3), 5, 5),
        ]
        assert edges[0] == 0 and edges[3:] == [1, 1]
        assert digest(edges) == "f14e5da94da54412"

    def test_mc_matches_exact(self):
        trees = species.builtin("trees")
        want = float(sampler.sum_size_probability_exact(trees, Fraction(1, 10), 2, 4))
        rng = np.random.default_rng(99)
        mc = sampler.mc_sum_probability(trees, 0.1, 2, 4, 20000, rng)
        assert mc.trials == 20000
        assert mc.hits >= 1
        assert mc.estimate == mc.hits / mc.trials
        assert abs(mc.estimate - want) <= 3 * mc.stderr

    def test_mc_hits_match_a_binary_search(self):
        trees = species.builtin("trees")
        mc = sampler.mc_sum_probability(trees, 0.3, 3, 7, 5000, np.random.default_rng(8))
        d = sampler.size_distribution(trees, 0.3, n_max=5)
        sizes = d.cdf.searchsorted(np.random.default_rng(8).random(15000), side="right") + 1
        assert mc.hits == int(np.count_nonzero(sizes.reshape(5000, 3).sum(axis=1) == 7))

    def test_mc_takes_a_generator_or_none(self):
        trees = species.builtin("trees")
        mc = sampler.mc_sum_probability(trees, 0.3, 3, 7, 50, None)
        assert mc.trials == 50 and 0 <= mc.hits <= 50
        for rng in (random.Random(1), np.random.RandomState(0), 7):
            with pytest.raises(DomainError, match=r"numpy\.random\.default_rng\(seed\)"):
                sampler.mc_sum_probability(trees, 0.3, 3, 7, 50, rng)

    def test_mc_single_component_matches_pmf(self):
        trees = species.builtin("trees")
        d = sampler.size_distribution(trees, 0.1, n_max=3)
        want = float(d.pmf[2])
        rng = np.random.default_rng(31)
        mc = sampler.mc_sum_probability(trees, 0.1, 1, 3, 40000, rng)
        assert abs(mc.estimate - want) <= 3 * mc.stderr


def _partitions(n, k, most):
    """Partitions of n into k parts of at most most each, parts decreasing."""
    if k == 0:
        return [()] if n == 0 else []
    return [
        (m, *rest)
        for m in range(min(n - k + 1, most), 0, -1)
        for rest in _partitions(n - m, k - 1, m)
    ]


def _sorted_size_law(cls, n, k):
    """P(sorted sizes = m) for every partition m of n into k parts with a non-zero
    count: n!/(prod m_i! prod mu_r!) prod |C_{m_i}| / count(n, k), as a Fraction."""
    counts = species.coefficients(cls, n - k + 1)
    total = exact.count(cls, n, k)
    law = {}
    for m in _partitions(n, k, n - k + 1):
        ways = math.factorial(n)
        for size in m:
            ways = ways * counts[size - 1] // math.factorial(size)
        for mu in Counter(m).values():
            ways //= math.factorial(mu)
        if ways:
            law[m] = Fraction(ways, total)
    assert sum(law.values()) == 1
    return law


_BARE_LIST = [1 if j <= 2 else j ** (j - 2) for j in range(1, 14)]
_BARE_LIST[1] = _BARE_LIST[4] = 0  # no components of 2 or 5 vertices


class TestComposition:
    @pytest.mark.parametrize("n,k", [(12, 4), (20, 8)])
    @pytest.mark.parametrize("name", ["cacti", "husimi", "poly", "synthetic", "bare-list"])
    def test_sorted_sizes_follow_the_exact_law(self, frozen_classes, name, n, k):
        if name == "synthetic":
            cls = species.synthetic(1, 0.5, 2.5)
        elif name == "bare-list":
            cls = species.from_coefficients("gapped-cayley-13", _BARE_LIST)
        else:
            cls = frozen_classes[name]  # "poly" is c4: blocks of 2, 3 and 4 vertices
        law = _sorted_size_law(cls, n, k)
        draws = 4000
        rng = np.random.default_rng(n * 100 + k)
        seen = Counter()
        for _ in range(draws):
            comp = sampler.sample_composition(cls, n, k, rng=rng)
            assert comp.kappa == k and sum(comp.sizes) == n
            seen[tuple(sorted(comp.sizes, reverse=True))] += 1
        assert set(seen) <= set(law)
        # cells expected fewer than 5 times are pooled into one
        cells, pooled = [], [0, 0.0]
        for m, p in law.items():
            if draws * p >= 5:
                cells.append((seen[m], draws * float(p)))
            else:
                pooled[0] += seen[m]
                pooled[1] += draws * float(p)
        if pooled[1] > 0:
            cells.append(tuple(pooled))
        chi2 = sum((o - e) ** 2 / e for o, e in cells)
        assert len(cells) >= 3
        assert chi_square_sf(chi2, len(cells) - 1) > 1e-3

    @pytest.mark.parametrize("n,k", [(4, 2), (8, 6), (2000, 1200), (2000, 1990)])
    def test_forest_sizes_are_the_trees_composition(self, monkeypatch, n, k):
        trees = species.builtin("trees")
        before_dressing = []
        partition = sampler._partition

        def recording(sizes, rng):
            before_dressing.append((tuple(sizes), rng.bit_generator.state))
            return partition(sizes, rng)

        monkeypatch.setattr(sampler, "_partition", recording)
        ours, ref = np.random.default_rng(n + k), np.random.default_rng(n + k)
        for _ in range(3):
            comp = sampler.sample_composition(trees, n, k, rng=ours)
            forest = sampler.sample_forest(n, k, rng=ref)
            assert before_dressing.pop() == (comp.sizes, ours.bit_generator.state)
            assert tuple(len(b) for b in forest.blocks) == comp.sizes
            blocks = partition(comp.sizes, ours)
            edges = sampler._forest_trees(comp.sizes, blocks, ours)
            assert forest == sampler.LabeledForest(n=n, blocks=blocks, trees=edges)
            assert ours.bit_generator.state == ref.bit_generator.state

    def test_sizes_are_python_ints(self):
        comp = sampler.sample_composition(
            species.builtin("cacti"), 12.0, np.int64(4), rng=np.random.default_rng(3)
        )
        assert type(comp) is sampler.Composition and comp.kappa == 4
        assert all(type(s) is int for s in comp.sizes)
        forest = sampler.sample_forest(6.0, 2, rng=np.random.default_rng(3))
        assert type(forest.n) is int and forest.n == 6

    @pytest.mark.parametrize(
        "bprime,n,k", [(None, 5, 2), (["0", "0", "1/2"], 11, 4), (["0", "0", "1/2"], 401, 200),
                       (["0", "0", "1/2"], 2001, 1000)],
    )
    def test_a_count_of_zero_is_a_domain_error(self, tmp_path, bprime, n, k):
        # odd sizes only: every component has 1 plus a multiple of 2 vertices
        if bprime is None:
            cls = species.from_coefficients("odd", [1, 0, 6, 0, 120, 0, 5040])
        else:
            path = tmp_path / "triangles.json"
            doc = {"name": "triangles", "block": {"kind": "poly", "bprime": bprime}}
            path.write_text(json.dumps(doc))
            cls = species.from_file(path)
        if n <= 12:
            assert exact.count(cls, n, k) == 0
        message = f"no object of class .* has {n} vertices and {k} components"
        with pytest.raises(DomainError, match=message):
            sampler.sample_composition(cls, n, k, rng=np.random.default_rng(0))
        # one vertex more is a count that is not 0
        comp = sampler.sample_composition(cls, n + 1, k, rng=np.random.default_rng(0))
        assert sum(comp.sizes) == n + 1

    def test_a_count_of_zero_inside_the_span_is_a_domain_error(self):
        # sizes 1, 4 and 6 have span 1, but no two of them total 9
        cls = species.from_coefficients("one-four-six", [1, 0, 0, 24, 0, 720, 0, 0])
        assert exact.count(cls, 9, 2) == 0
        message = "no object of class one-four-six has 9 vertices and 2 components"
        with pytest.raises(DomainError, match=message):
            sampler.sample_composition(cls, 9, 2, rng=np.random.default_rng(0))
        # (10, 2) needs sizes up to 9, and 4 + 6 = 10 is the one way to make it
        cls = species.from_coefficients("one-four-six", [1, 0, 0, 24, 0, 720, 0, 0, 0])
        assert exact.count(cls, 10, 2) > 0
        comp = sampler.sample_composition(cls, 10, 2, rng=np.random.default_rng(0))
        assert sorted(comp.sizes) == [4, 6]

    def test_weights_lost_to_underflow_do_not_make_a_count_of_zero(self):
        # at x = 1e-100 sizes 1 and 3 keep a weight and size 4 underflows to 0
        cls = species.from_coefficients("one-three-four", [1, 0, 6, 24])
        assert exact.count(cls, 4, 1) == 24
        assert np.flatnonzero(sampler.size_distribution(cls, 1e-100).pmf).tolist() == [0, 2]
        with pytest.raises(RetryBudgetError, match="underflows to 0"):
            sampler.sample_composition(cls, 4, 1, x=1e-100, rng=np.random.default_rng(0))

    def test_a_class_without_growth_solves_its_tilt_once(self, monkeypatch):
        cls = species.from_coefficients("cayley-13", _CAYLEY[:13])
        want = weights._mean_tilt(cls, 9, 3.0)
        solves = []
        solve = weights._mean_tilt

        def counting(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(weights, "_mean_tilt", counting)
        rng = np.random.default_rng(4)
        for _ in range(3):
            sampler.sample_composition(cls, 12, 4, rng=rng)
        assert exact._tilt(cls, 12, 4).hex() == want.hex()
        assert len(solves) == 1
        assert ("forest", want, 12, 4) in cls._scalar_cache


class TestChiSquare:
    def test_reference_values(self):
        assert chi_square_sf(0.0, 5) == pytest.approx(1.0, abs=1e-12)
        assert chi_square_sf(3.841458820694124, 1) == pytest.approx(0.05, abs=1e-9)
        assert chi_square_sf(1e6, 5) < 1e-12

    def test_monotone_in_statistic(self):
        vals = [chi_square_sf(s, 4) for s in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        # negative statistics clamp to the full tail; df must be positive
        assert chi_square_sf(-1.0, 4) == 1.0
        with pytest.raises(DomainError):
            chi_square_sf(1.0, 0)


# --- frozen outputs ---------------------------------------------------------------
#
# Values recorded from the sampler as released; a faster table recurrence or draw
# loop must reproduce every float and every seeded draw bit for bit.  Table floats
# come from np.dot, whose summation order depends on the BLAS kernel, so they are
# recorded per kernel family and named by the digest of a fixed set of dot products.

_BLOCK_FILES = {
    "edge": {"name": "edge-trees", "block": {"kind": "edge"}},
    "poly": {"name": "c4", "block": {"kind": "poly", "bprime": ["0", "1", "1/2", "1/2"]}},
    "poly-gap": {"name": "p3", "block": {"kind": "poly", "bprime": ["0", "1", "0", "1/3"]}},
}


@pytest.fixture(scope="module")
def frozen_classes(tmp_path_factory):
    classes = {"cacti": species.builtin("cacti"), "husimi": species.builtin("husimi")}
    root = tmp_path_factory.mktemp("blocks")
    for name, doc in _BLOCK_FILES.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(doc))
        classes[name] = species.from_file(path)
    return classes


def _sha(data):
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.fixture(scope="module")
def dot_order():
    """Digest of np.dot over prefixes of two fixed vectors: it names the summation order."""
    k = np.arange(1.0, 1002.0)
    a, b = (k % 13 - 6) / 7, (k % 11 - 5) / 3
    return _sha(b"".join(a[:m].dot(b[:m]).tobytes() for m in range(1, 1001)))[:12]


def _table_fingerprint(cls, scale):
    d = sampler.size_distribution(cls, scale * cls.growth.rho)
    return (
        _sha(d.pmf.tobytes()),
        _sha(d.cdf.tobytes()),
        d.n_max,
        d.normalizer.hex(),
        d.truncated_mass.hex(),
    )


def _draw_fingerprints():
    rng = np.random.default_rng(123)
    small = [sampler.sample_forest(7, 3, rng=rng) for _ in range(5)]
    large = sampler.sample_forest(2000, 1200, rng=np.random.default_rng(7))
    cacti = species.builtin("cacti")
    x = cacti.growth.rho
    dist = sampler.size_distribution(cacti, x)
    rng = np.random.default_rng(11)
    comps = [sampler.sample_set(cacti, x, rng, dist=dist) for _ in range(300)]
    part = sampler.sample_partition((3, 1, 4, 1, 5, 9, 2, 6), np.random.default_rng(5))
    return {
        "forest(7, 3)": _sha(repr(small).encode()),
        "forest(2000, 1200)": _sha(repr(large).encode()),
        "sample_set(cacti, rho)": _sha(repr(comps).encode()),
        "sample_partition": repr(part),
    }


FROZEN_TABLES = {
    "7c4506ab67cd": {  # AVX-512 OpenBLAS kernels (SkylakeX and later)
        ("cacti", 0.6): (
            "830738c5cd3374a3", "35aca494e1000723", 256, "0x1.401d4a7c8c16cp-3", "0x1.99741ef7c6efdp-52",
        ),
        ("cacti", 0.9): (
            "ac20f807c4179b36", "8390e0db9d84f5fe", 256, "0x1.00ffee79229c8p-2", "0x0.0p+0",
        ),
        ("cacti", 1.0): (
            "3630a0a42d5953d6", "1b1f68064bce645f", 8192, "0x1.283ea74b5b01fp-2", "0x1.90edf8bc8fedap-22",
        ),
        ("husimi", 0.6): (
            "93f60092cc19a3f3", "183f592a970362e3", 256, "0x1.66890b75cdda6p-3", "0x1.3fe1142f6de17p-50",
        ),
        ("husimi", 0.9): (
            "ba93165c7bd25a62", "25eb8dd78e740511", 256, "0x1.233b099ebe86dp-2", "0x1.c21004bf21606p-52",
        ),
        ("husimi", 1.0): (
            "b9f086cf0609d85e", "9deccfee5d9fa190", 8192, "0x1.524b746e9a38dp-2", "0x1.0810d5f261ea0p-21",
        ),
        ("edge", 0.6): (
            "e565a0622ce329e8", "8401ab962a7b5fa4", 256, "0x1.03066b08bea04p-2", "0x0.0p+0",
        ),
        ("edge", 0.9): (
            "5b059bde240d0bde", "694fd568d271cdc8", 256, "0x1.b17601eb5a72dp-2", "0x0.0p+0",
        ),
        ("edge", 1.0): (
            "0d99f5653ca373f1", "ee4d31229def9162", 8192, "0x1.ffffe7ee25a26p-2", "0x1.811da5da00000p-21",
        ),
        ("poly", 0.6): (
            "484a9164f1b4d7ae", "0de0c36208f6c6e7", 256, "0x1.5387e0c4db381p-3", "0x0.0p+0",
        ),
        ("poly", 0.9): (
            "cc10c8d0fe9dced5", "e5ca9c96d46ceace", 256, "0x1.1277accd2c6b1p-2", "0x0.0p+0",
        ),
        ("poly", 1.0): (
            "57111fa3c179399c", "90fb6a22d53977f6", 8192, "0x1.3df6eadbab9b2p-2", "0x1.ef9b5b2fd3bbap-22",
        ),
        ("poly-gap", 0.6): (
            "4b961bf12514e341", "73888c19e858d41e", 256, "0x1.aa2ae3222ab39p-3", "0x1.338f4f16c6ca2p-53",
        ),
        ("poly-gap", 0.9): (
            "051103113eb17e2e", "9472020729cb7501", 256, "0x1.5c09589825083p-2", "0x1.789aaad612b65p-53",
        ),
        ("poly-gap", 1.0): (
            "6a867d0cd48cbbda", "caa1887ab76928c4", 8192, "0x1.94d760e115e81p-2", "0x1.03e15fb3ee248p-21",
        ),
    },
    "6440c6090564": {  # AVX2 OpenBLAS kernels (Haswell, Zen)
        ("cacti", 0.6): (
            "cf6c5ee5a3db1acc", "35aca494e1000723", 256, "0x1.401d4a7c8c16cp-3", "0x1.99741ef7c6efdp-52",
        ),
        ("cacti", 0.9): (
            "b29e8dec95d70085", "8390e0db9d84f5fe", 256, "0x1.00ffee79229c8p-2", "0x0.0p+0",
        ),
        ("cacti", 1.0): (
            "66fff24660712eb6", "1b1f68064bce645f", 8192, "0x1.283ea74b5b01fp-2", "0x1.90edf8bc8fedap-22",
        ),
        ("husimi", 0.6): (
            "1184bba256b61f1d", "183f592a970362e3", 256, "0x1.66890b75cdda6p-3", "0x1.3fe1142f6de17p-50",
        ),
        ("husimi", 0.9): (
            "999fd2ade86a0153", "25eb8dd78e740511", 256, "0x1.233b099ebe86dp-2", "0x1.c21004bf21606p-52",
        ),
        ("husimi", 1.0): (
            "8f9a55414d40ea4a", "9deccfee5d9fa190", 8192, "0x1.524b746e9a38dp-2", "0x1.0810d5f261ea0p-21",
        ),
        ("edge", 0.6): (
            "2c239bf4b003db2a", "d3c83721ba07e033", 256, "0x1.03066b08bea04p-2", "0x0.0p+0",
        ),
        ("edge", 0.9): (
            "d8677266934a2f7f", "694fd568d271cdc8", 256, "0x1.b17601eb5a72dp-2", "0x0.0p+0",
        ),
        ("edge", 1.0): (
            "1b1957f13d0c45f9", "ee4d31229def9162", 8192, "0x1.ffffe7ee25a26p-2", "0x1.811da5da00000p-21",
        ),
        ("poly", 0.6): (
            "5b81bd4d1cc0eac3", "0de0c36208f6c6e7", 256, "0x1.5387e0c4db381p-3", "0x0.0p+0",
        ),
        ("poly", 0.9): (
            "ee2208447a4475ff", "e5ca9c96d46ceace", 256, "0x1.1277accd2c6b1p-2", "0x0.0p+0",
        ),
        ("poly", 1.0): (
            "1d964846bda17982", "90fb6a22d53977f6", 8192, "0x1.3df6eadbab9b2p-2", "0x1.ef9b5b2fd3bbap-22",
        ),
        ("poly-gap", 0.6): (
            "fd13f9ddb5a5ec8b", "73888c19e858d41e", 256, "0x1.aa2ae3222ab39p-3", "0x1.338f4f16c6ca2p-53",
        ),
        ("poly-gap", 0.9): (
            "1ba43eea38e8309b", "e1f1e949688e801c", 256, "0x1.5c09589825084p-2", "0x0.0p+0",
        ),
        ("poly-gap", 1.0): (
            "687a37c3466bd6b7", "3c6f90eef5060fcb", 8192, "0x1.94d760e115e81p-2", "0x1.03e15fb3ee248p-21",
        ),
    },
}

FROZEN_DRAWS = {
    "forest(7, 3)": "78215f5dc518c7f1",
    "forest(2000, 1200)": "c23b6eca1ae243d3",
    "sample_set(cacti, rho)": "1b9d3c156312c0ba",
    "sample_partition": (
        "((3, 10, 21), (8,), (7, 12, 20, 24), (13,), (4, 25, 26, 27, 31), "
        "(2, 5, 16, 17, 18, 19, 28, 29, 30), (11, 14), (1, 6, 9, 15, 22, 23))"
    ),
}


class TestFrozenOutputs:
    @pytest.mark.parametrize("key", sorted(FROZEN_TABLES["7c4506ab67cd"]))
    def test_size_table(self, frozen_classes, dot_order, key):
        if dot_order not in FROZEN_TABLES:
            pytest.skip(f"no table floats recorded for dot summation order {dot_order}")
        name, scale = key
        assert _table_fingerprint(frozen_classes[name], scale) == FROZEN_TABLES[dot_order][key]

    @pytest.mark.parametrize("name", ["cacti", "husimi", "edge", "poly", "poly-gap"])
    def test_weights_are_prefix_stable(self, frozen_classes, name):
        cls = frozen_classes[name]
        x = cls.growth.rho
        longer = sampler._weights(cls, x, 1500)
        for M in (255, 256, 257, 1000):
            assert sampler._weights(cls, x, M).tobytes() == longer[:M].tobytes()

    def test_seeded_draws(self):
        assert _draw_fingerprints() == FROZEN_DRAWS


# --- frozen formula tables --------------------------------------------------------
#
# Tables of trees, synthetic and list classes are built with np.exp and np.log,
# whose SIMD kernels may round the last bit differently on other CPUs, so their
# floats are recorded per kernel and named by the digest of np.exp and np.log on
# a fixed vector.

_CAYLEY = [1 if n <= 2 else n ** (n - 2) for n in range(1, 21)]


@pytest.fixture(scope="module")
def ufunc_order():
    """Digest of np.exp and np.log on a fixed vector: it names their kernels."""
    v = np.linspace(-40.0, 40.0, 20_001)
    return _sha(np.exp(v).tobytes() + np.log(np.abs(v) + 0.25).tobytes())[:12]


@pytest.fixture(scope="module")
def formula_classes():
    trees = species.builtin("trees")
    return {
        "trees": trees,
        "synthetic": species.synthetic(1, 0.5, 2.5),
        "list-growth": species.from_coefficients("cayley-20", _CAYLEY, growth=trees.growth),
        "bare-list": species.from_coefficients("cayley-8", _CAYLEY[:8]),
    }


def _formula_fingerprint(cls, x, n_max):
    d = sampler.size_distribution(cls, x, n_max=n_max)
    return (
        _sha(d.pmf.tobytes()),
        _sha(d.cdf.tobytes()),
        d.n_max,
        d.normalizer.hex(),
        d.truncated_mass.hex(),
    )


FROZEN_FORMULA_TABLES = {
    "b44d055a64f1": {  # AVX-512 kernels (numpy 2.4 on x86-64)
        ("trees", 0.6, None): (
            "52613bc1d8746e6e", "d3c83721ba07e033", 256, "0x1.03066b08bea04p-2", "0x0.0p+0",
        ),
        ("trees", 0.9, None): (
            "7ccd66da8ce49d09", "694fd568d271cdc8", 256, "0x1.b17601eb5a72dp-2", "0x0.0p+0",
        ),
        ("trees", 1.0, None): (
            "dfe714f6273e4e70", "2f6f717f7bb3f2b7", 8192, "0x1.ffffe7ee25a22p-2", "0x1.811da5de00000p-21",
        ),
        ("synthetic", 0.6, None): (
            "ebb8c2854f97264b", "5b0617a1a38eef32", 256, "0x1.4d474b45bd959p-1", "0x0.0p+0",
        ),
        ("synthetic", 0.9, None): (
            "0f16db2a631715a4", "e2f1552f0d1c02ba", 256, "0x1.06ac325ba1048p+0", "0x1.f2fe6490c0500p-53",
        ),
        ("synthetic", 1.0, None): (
            "e287f90e42bb2825", "5d0f2419eb8ce339", 256, "0x1.29b149d00c07cp+0", "0x1.5e84bad215ee9p-22",
        ),
        ("list-growth", 0.6, None): (
            "5adf34c7f8c33477", "c6c25317a4c6971f", 256, "0x1.03066b0959ac9p-2", "0x1.fa05408c2acbbp-53",
        ),
        ("list-growth", 0.9, None): (
            "a263ba3e969ecfc4", "13b366f63e6804c3", 256, "0x1.b1761c325882dp-2", "0x1.c593a61ff891dp-52",
        ),
        ("list-growth", 1.0, None): (
            "c27552c1aa4be1f9", "843df894457dfe97", 8192, "0x1.0000ddeb0d7c9p-1", "0x1.811cdfefa9709p-21",
        ),
        ("bare-list", 0.3, None): (
            "2db3e40bab440f58", "be9de5b1d7cb4fdc", 8, "0x1.79c0be7d5d8efp-2", "0x0.0p+0",
        ),
        ("bare-list", 0.3, 5): (
            "d331225764b9122b", "738457d823a42138", 5, "0x1.7739c0ebedfa4p-2", "0x1.b675c7885a07ap-8",
        ),
        ("bare-list", 0.3, 8): (
            "2db3e40bab440f58", "be9de5b1d7cb4fdc", 8, "0x1.79c0be7d5d8efp-2", "0x0.0p+0",
        ),
    },
    "4c48460d2a6a": {  # AVX2 kernels (numpy 2.4 with AVX-512 off)
        ("trees", 0.6, None): (
            "2bb6426fb95e2909", "d3c83721ba07e033", 256, "0x1.03066b08bea04p-2", "0x0.0p+0",
        ),
        ("trees", 0.9, None): (
            "b4eb6dd087c57a98", "694fd568d271cdc8", 256, "0x1.b17601eb5a72dp-2", "0x0.0p+0",
        ),
        ("trees", 1.0, None): (
            "c417546f18f20d97", "2f6f717f7bb3f2b7", 8192, "0x1.ffffe7ee25a22p-2", "0x1.811da5de00000p-21",
        ),
        ("synthetic", 0.6, None): (
            "d484e7cbf6de8773", "5b0617a1a38eef32", 256, "0x1.4d474b45bd959p-1", "0x0.0p+0",
        ),
        ("synthetic", 0.9, None): (
            "cadc22d44e42ff6c", "e2f1552f0d1c02ba", 256, "0x1.06ac325ba1048p+0", "0x1.f2fe6490c0500p-53",
        ),
        ("synthetic", 1.0, None): (
            "3e961369e2cc3f10", "5d0f2419eb8ce339", 256, "0x1.29b149d00c07cp+0", "0x1.5e84bad215ee9p-22",
        ),
        ("list-growth", 0.6, None): (
            "370c4e8d6aeb43b8", "c6c25317a4c6971f", 256, "0x1.03066b0959ac9p-2", "0x1.fa05408c2acbbp-53",
        ),
        ("list-growth", 0.9, None): (
            "a309a650f3133173", "13b366f63e6804c3", 256, "0x1.b1761c325882dp-2", "0x1.c593a61ff891dp-52",
        ),
        ("list-growth", 1.0, None): (
            "35f31162ad8dd27e", "843df894457dfe97", 8192, "0x1.0000ddeb0d7c9p-1", "0x1.811cdfefa9709p-21",
        ),
        ("bare-list", 0.3, None): (
            "2db3e40bab440f58", "be9de5b1d7cb4fdc", 8, "0x1.79c0be7d5d8efp-2", "0x0.0p+0",
        ),
        ("bare-list", 0.3, 5): (
            "d331225764b9122b", "738457d823a42138", 5, "0x1.7739c0ebedfa4p-2", "0x1.b675c7885a07ap-8",
        ),
        ("bare-list", 0.3, 8): (
            "2db3e40bab440f58", "be9de5b1d7cb4fdc", 8, "0x1.79c0be7d5d8efp-2", "0x0.0p+0",
        ),
    },
}


class TestFrozenFormulaTables:
    @pytest.mark.parametrize("key", sorted(FROZEN_FORMULA_TABLES["b44d055a64f1"], key=repr))
    def test_size_table(self, formula_classes, ufunc_order, key):
        """(class, x, n_max) with x a multiple of the radius, where the class has one."""
        if ufunc_order not in FROZEN_FORMULA_TABLES:
            pytest.skip(f"no table floats recorded for exp/log kernels {ufunc_order}")
        name, x, n_max = key
        cls = formula_classes[name]
        if cls.growth is not None:
            x *= cls.growth.rho
        assert _formula_fingerprint(cls, x, n_max) == FROZEN_FORMULA_TABLES[ufunc_order][key]

    def test_coefficients_one_past_a_list(self):
        cls = species.from_coefficients("cayley-8", _CAYLEY[:8])
        message = "class cayley-8 defines coefficients only up to n = 8"
        with pytest.raises(DomainError) as info:
            species.coefficients(cls, 9)
        assert str(info.value) == message
        assert species.coefficients(cls, 8) == _CAYLEY[:8]
        with pytest.raises(DomainError) as info:
            species.coefficients(cls, 9)
        assert str(info.value) == message
