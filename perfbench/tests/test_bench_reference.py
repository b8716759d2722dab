"""The reference computations agree with each other and with the brute-force census."""

import math
from decimal import Decimal, getcontext

import pytest

import bruteforce
import reference as ref

KINDS = {"trees": "edge", "cacti": "cactus", "husimi": "complete"}


@pytest.fixture(scope="module")
def census():
    return {n: bruteforce.census(n) for n in range(1, 7)}


def test_recurrences_match_brute_force(census):
    for n in range(1, 7):
        for name, kind in KINDS.items():
            counts = ref.block_counts(kind, n)
            want = census[n][name]
            got = {k: ref.set_count(counts, n, k) for k in range(1, n + 1)}
            assert {k: v for k, v in got.items() if v} == want, (name, n)
            row = ref.set_count_row(counts, n)
            assert {k: v for k, v in enumerate(row, start=1) if v} == want, (name, n)
            assert ref.total_count(counts, n) == sum(want.values())


def test_tree_closed_forms_match_recurrences(census):
    assert ref.block_counts("edge", 40) == [ref.cayley(m) for m in range(1, 41)]
    cayley = [ref.cayley(m) for m in range(1, 13)]
    for n in range(1, 13):
        for k in range(1, n + 1):
            assert ref.forests(n, k) == ref.set_count(cayley, n, k), (n, k)
    for n in range(1, 7):
        assert {k: ref.forests(n, k) for k in census[n]["trees"]} == census[n]["trees"]


def test_known_connected_counts():
    assert ref.block_counts("cactus", 5) == [1, 1, 4, 31, 362]
    assert ref.block_counts("complete", 6) == [1, 1, 4, 29, 311, 4447]


def test_enumerated_forests_match_counts():
    for n in range(1, 7):
        for k in range(1, n + 1):
            assert len(ref.enumerate_forests(n, k)) == ref.forests(n, k), (n, k)
    assert set(ref.enumerate_forests(4, 2)) == set(bruteforce.forests_with_components(4, 2))


def test_vertex_one_law_matches_enumeration():
    n, k = 6, 3
    universe = ref.enumerate_forests(n, k)
    sizes = []
    for edges in universe:
        comp, grew = {1}, True
        while grew:
            grew = False
            for u, v in edges:
                if (u in comp) != (v in comp):
                    comp |= {u, v}
                    grew = True
        sizes.append(len(comp))
    law = ref.vertex_one_law(n, k, n - k + 1)
    for m, p in enumerate(law, start=1):
        assert p == pytest.approx(sizes.count(m) / len(universe), rel=1e-12)
    assert sum(ref.vertex_one_law(2000, 1600, 401)) == pytest.approx(1.0, rel=1e-9)


def test_synthetic_counts_round_the_growth_formula():
    getcontext().prec = 400
    for alpha in (2.0, 2.5, 3.0):
        got = ref.synthetic_counts(1.0, 0.5, alpha, 60)
        for n in range(1, 61):
            v = Decimal(math.factorial(n)) * Decimal(2) ** n / Decimal(n) ** Decimal(1 + alpha)
            assert got[n - 1] == int(v + Decimal("0.5")), (alpha, n)
    assert ref.synthetic_counts(0.25, 0.5, 2.0, 1) == [1]  # |C_1| is at least 1
    with pytest.raises(ValueError):
        ref.synthetic_counts(1.0, 0.5, 2.25, 5)


def test_scalar_sums():
    trees = [ref.cayley(m) for m in range(1, 200)]
    C, A, last = ref.egf_direct(trees, 0.25)
    assert last < 1e-15
    assert C == pytest.approx(ref.tree_egf(0.25), rel=1e-13)
    counts = ref.synthetic_counts(1.0, 0.5, 2.5, 300)
    C_long, A_long, _ = ref.egf_direct(counts, 0.3)
    C_tail, A_tail = ref.synthetic_egf(counts[:40], 1.0, 0.5, 2.5, 0.3)
    assert C_tail == pytest.approx(C_long, rel=1e-12)
    assert A_tail == pytest.approx(A_long, rel=1e-12)
    x, y = ref.tree_saddle(0.75)
    assert ref.tree_egf(x) == pytest.approx(0.75 * y, rel=1e-12)


def test_block_constants_match_published_values():
    # twelve-digit values of zeta, rho and C(rho) for cacti and Husimi graphs
    for kind, want in (("cactus", (0.456310987308, 0.238740143685, 0.289301612134)),
                       ("complete", (0.567143290410, 0.264380447350, 0.330366124762))):
        for got, w in zip(ref.block_constants(kind), want):
            assert got == pytest.approx(w, abs=1e-11)


def test_chi_square_p():
    probs = [0.5, 0.3, 0.2]
    assert ref.chi_square_p([500, 300, 200], probs, 1000) > 0.99
    assert ref.chi_square_p([700, 200, 100], probs, 1000) < 1e-6
    # the draws that observed leaves out form the remainder category
    assert ref.chi_square_p([500, 300], [0.5, 0.3], 1000) > 0.99
    assert ref.chi_square_p([500, 300], [0.5, 0.3], 800) < 1e-6
    # sparse categories are pooled until each expects five draws
    assert ref.chi_square_p([1, 0, 1, 0, 1, 0], [1 / 6] * 6, 3) == 1.0
    assert ref.poisson_pmf(0.5, 3)[0] == pytest.approx(math.exp(-0.5))
    assert sum(ref.poisson_pmf(2.0, 60)) == pytest.approx(1.0)


def test_forest_validity():
    assert ref.spanning_forest_problem(4, 2, [(1, 2), (3, 4)], [((1, 2),), ((3, 4),)]) is None
    assert ref.spanning_forest_problem(4, 2, [(1, 2), (3, 4)], [((1, 2),), ()]) is not None
    assert ref.spanning_forest_problem(4, 2, [(1, 2, 3), (4,)],
                                       [((1, 2), (1, 3)), ()]) is None
    assert ref.spanning_forest_problem(4, 2, [(1, 2, 3), (4,)],
                                       [((1, 2), (1, 4)), ()]) is not None
    assert ref.spanning_forest_problem(3, 1, [(1, 2, 3)],
                                       [((1, 2), (1, 2))]) is not None


def test_isolated_moments_match_enumeration():
    for n, k in ((5, 2), (6, 3), (7, 5)):
        iso = [sum(1 for v in range(1, n + 1) if all(v not in e for e in f))
               for f in ref.enumerate_forests(n, k)]
        mean = sum(iso) / len(iso)
        var = sum((m - mean) ** 2 for m in iso) / len(iso)
        assert ref.isolated_moments(n, k) == pytest.approx((mean, var), rel=1e-12)
