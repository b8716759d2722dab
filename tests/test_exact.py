import hashlib
import json
import math
import random
import time
from decimal import Context, Decimal
from fractions import Fraction
from functools import lru_cache

import pytest

from deadline import deadline
from setcensus import asymptotics, exact, sampler, species
from setcensus import powerseries as ps
from setcensus.errors import DomainError, InternalConsistencyError, PrecisionError


def forest_counts_oracle(counts):
    """g_{n,k} by recursion on the component containing label 1."""
    c = dict(enumerate(counts, start=1))

    @lru_cache(maxsize=None)
    def g(n, k):
        if k == 0:
            return 1 if n == 0 else 0
        if n < k:
            return 0
        total = 0
        for j in range(1, n - k + 2):
            cj = c.get(j, 0)
            if cj:
                total += math.comb(n - 1, j - 1) * cj * g(n - j, k - 1)
        return total

    return g


class TestCount:
    def test_trees_examples(self):
        trees = species.builtin("trees")
        assert exact.count(trees, 3, 2) == 3
        assert exact.count(trees, 4, 2) == 15
        assert exact.count(trees, 1, 1) == 1

    def test_n_equals_k_is_one(self):
        for name in ("trees", "cacti", "husimi"):
            cls = species.builtin(name)
            assert exact.count(cls, 5, 5) == 1

    def test_single_component_matches_coefficients(self):
        for name in ("trees", "cacti", "husimi"):
            cls = species.builtin(name)
            coeffs = species.coefficients(cls, 7)
            for n in range(1, 8):
                assert exact.count(cls, n, 1) == coeffs[n - 1]

    @pytest.mark.parametrize("n,k", [(3, 4), (3, 0), (0, 1), (-1, 1), (2.5, 1)])
    def test_domain_errors(self, n, k):
        with pytest.raises(DomainError):
            exact.count(species.builtin("trees"), n, k)

    def test_against_recursion_oracle(self):
        cls = species.synthetic(1, 0.5, 2)
        g = forest_counts_oracle(species.coefficients(cls, 8))
        for n in range(1, 9):
            for k in range(1, n + 1):
                assert exact.count(cls, n, k) == g(n, k)

    def test_explicit_list_class(self):
        cls = species.from_coefficients("tiny", [1, 0, 6])
        # two components on four labels: sizes (1,3) only since |C_2| = 0
        assert exact.count(cls, 4, 2) == math.comb(4, 1) * 6
        assert exact.count(cls, 2, 1) == 0


class TestCountLog:
    def test_matches_exact_small(self):
        trees = species.builtin("trees")
        got = exact.count_log(trees, 4, 2)
        assert got == pytest.approx(math.log(15), abs=1e-12)

    def test_n_equals_k_is_zero(self):
        assert exact.count_log(species.builtin("cacti"), 6, 6) == pytest.approx(0.0, abs=1e-12)

    def test_matches_exact_large(self):
        trees = species.builtin("trees")
        want = math.log(exact.count(trees, 100, 75))
        got = exact.count_log(trees, 100, 75)
        assert abs(got - want) <= 1e-9 * abs(want)

    def test_zero_count_raises_precision_error(self):
        cls = species.from_coefficients("gap", [1, 0])
        with pytest.raises(PrecisionError) as info:
            exact.count_log(cls, 2, 1)
        assert info.value.suggested is None

    @pytest.mark.parametrize("n, k", [(4, 2), (200, 150), (400, 300)])
    def test_precision_bits_is_ignored(self, n, k):
        trees = species.builtin("trees")
        want = exact.count_log(trees, n, k)
        for bits in (8, 64, 200, 4096, 65536):
            assert exact.count_log(trees, n, k, precision_bits=bits) == want

    def test_block_class_large(self):
        cacti = species.builtin("cacti")
        want = math.log(exact.count(cacti, 60, 30))
        got = exact.count_log(cacti, 60, 30)
        assert abs(got - want) <= 1e-9 * abs(want)


class TestCountTable:
    def test_trees_n3(self):
        table = exact.count_table(species.builtin("trees"), 3)
        assert [(k, c) for k, c, _ in table.rows] == [(1, 3), (2, 3), (3, 1)]

    def test_trees_n2(self):
        table = exact.count_table(species.builtin("trees"), 2)
        assert [(k, c) for k, c, _ in table.rows] == [(1, 1), (2, 1)]

    def test_log_column(self):
        table = exact.count_table(species.builtin("trees"), 4)
        for _k, c, lg in table.rows:
            assert lg == pytest.approx(math.log(c), abs=1e-12)

    def test_k_range_subset(self):
        table = exact.count_table(species.builtin("trees"), 5, range(2, 4))
        assert [k for k, _c, _lg in table.rows] == [2, 3]
        assert [c for _k, c, _lg in table.rows] == [110, 45]

    def test_k_range_validation(self):
        with pytest.raises(DomainError):
            exact.count_table(species.builtin("trees"), 5, [0, 1])
        with pytest.raises(DomainError):
            exact.count_table(species.builtin("trees"), 5, [5, 6])
        # a non-integer k is an error, not the row of its integer part
        with pytest.raises(DomainError):
            exact.count_table(species.builtin("trees"), 6, [2.5])

    def test_empty_k_list(self):
        with pytest.raises(DomainError, match="k_range"):
            exact.count_table(species.builtin("trees"), 5, [])

    def test_row_sum_equals_total(self):
        for name in ("trees", "cacti", "husimi"):
            cls = species.builtin(name)
            for n in range(1, 9):
                table = exact.count_table(cls, n)
                assert sum(c for _k, c, _lg in table.rows) == exact.total_count(cls, n)

    def test_table_agrees_with_count(self):
        cls = species.builtin("husimi")
        table = exact.count_table(cls, 6)
        for k, c, _lg in table.rows:
            assert exact.count(cls, 6, k) == c

    @pytest.mark.parametrize("name,n,ks", [("trees", 300, range(290, 301)), ("cacti", 60, [50, 55, 60])])
    def test_rows_from_the_smallest_k(self, name, n, ks):
        # the running power starts at C^min(k); the oracle is filled
        # bottom-up in n, so that its recursion stays one level deep
        cls = species.builtin(name)
        window = n - min(ks)
        g = forest_counts_oracle(species.coefficients(cls, window + 1))
        for m in range(1, n + 1):
            for j in range(max(1, m - window), m + 1):
                g(m, j)
        rows = exact.count_table(cls, n, ks).rows
        assert [k for k, _c, _lg in rows] == list(ks)
        assert [c for _k, c, _lg in rows] == [exact.count(cls, n, k) for k in ks] == [g(n, k) for k in ks]


def _digest(value):
    return hashlib.sha256(str(value).encode()).hexdigest()[:16]


def _poly_class(tmp_path):
    path = tmp_path / "c4.json"
    path.write_text(
        json.dumps({"name": "c4", "block": {"kind": "poly", "bprime": ["0", "1", "1/2", "1/2"]}})
    )
    return species.from_file(str(path))


class TestFrozenExact:
    """Exact integers frozen from the Fraction-series implementation."""

    def test_count_cacti(self):
        assert _digest(exact.count(species.builtin("cacti"), 120, 60)) == "a6673d33faacbc0b"

    def test_count_trees(self):
        assert _digest(exact.count(species.builtin("trees"), 150, 30)) == "467c2fa54794638d"

    def test_count_table_trees(self):
        rows = exact.count_table(species.builtin("trees"), 60).rows
        assert _digest(rows) == "7f595c25a6520b7e"

    def test_total_count_cacti(self):
        assert _digest(exact.total_count(species.builtin("cacti"), 150)) == "2a1046e0bb18f315"

    def test_total_count_husimi(self):
        assert _digest(exact.total_count(species.builtin("husimi"), 120)) == "86348850fd530793"


class TestFrozenOddPower:
    """Odd k, whose last product multiplies by C, recorded from the full power
    chain (every TestFrozenExact count has an even k)."""

    @pytest.mark.parametrize(
        "name,n,k,want",
        [
            ("cacti", 121, 61, "003b9a07457aedd1"),
            ("husimi", 120, 41, "75f851a514e8e8fe"),
            ("trees", 151, 31, "7a5389f4fc199080"),
        ],
    )
    def test_count(self, name, n, k, want):
        assert _digest(exact.count(species.builtin(name), n, k)) == want

    def test_sum_size_probability(self):
        p = sampler.sum_size_probability_exact(species.builtin("husimi"), Fraction(1, 5), 31, 90)
        assert _digest(p) == "0824fe918fc2ed0a"


_LIST = [1, 2, 9, 64, 625, 7776, 117649, 2097152]
_LOG_CLASSES = {
    "trees": lambda: species.builtin("trees"),
    "cacti": lambda: species.builtin("cacti"),
    "husimi": lambda: species.builtin("husimi"),
    "syn2": lambda: species.synthetic(1, 0.5, 2),
    "syn25": lambda: species.synthetic(1, 0.5, 2.5),
    "list": lambda: species.from_coefficients("list", _LIST),
}

# (class, n, k, precision_bits, float.hex of count_log), recorded from the
# extraction that raised C to the k-th power through order n.  k = 0.3 n lies
# below lambda* for every class here and k = 0.9 n above it; syn2 at
# (120, 87) is at lambda*.
_FROZEN_COUNT_LOG = [
    ("trees", 1, 1, 128, "0x0.0p+0"),
    ("trees", 60, 1, 128, "0x1.daf1a7f776b9cp+7"),
    ("trees", 60, 18, 128, "0x1.83a15dcf6924ep+7"),
    ("trees", 60, 54, 128, "0x1.324560bae679bp+5"),
    ("trees", 60, 60, 128, "0x0.0p+0"),
    ("trees", 120, 36, 128, "0x1.c263dbe819c4bp+8"),
    ("trees", 120, 108, 128, "0x1.59efa01b496f0p+6"),
    ("cacti", 1, 1, 128, "0x0.0p+0"),
    ("cacti", 60, 1, 128, "0x1.0638ed223a867p+8"),
    ("cacti", 60, 18, 128, "0x1.a1eeb60057273p+7"),
    ("cacti", 60, 54, 128, "0x1.34e03844cdd94p+5"),
    ("cacti", 60, 60, 128, "0x0.0p+0"),
    ("cacti", 120, 36, 128, "0x1.e18439a008341p+8"),
    ("cacti", 120, 108, 128, "0x1.5cd9217a1c2cbp+6"),
    ("husimi", 1, 1, 128, "0x0.0p+0"),
    ("husimi", 60, 1, 128, "0x1.00819c2c00773p+8"),
    ("husimi", 60, 18, 128, "0x1.9b35f17d980f7p+7"),
    ("husimi", 60, 54, 128, "0x1.34bb357fcf1bdp+5"),
    ("husimi", 60, 60, 128, "0x0.0p+0"),
    ("husimi", 120, 36, 128, "0x1.da765e9459173p+8"),
    ("husimi", 120, 108, 128, "0x1.5ca58f1b1eaeep+6"),
    ("syn2", 1, 1, 128, "0x1.62e42fefa39efp-1"),
    ("syn2", 60, 1, 128, "0x1.b3de316400530p+7"),
    ("syn2", 60, 18, 128, "0x1.7a52049b277aep+7"),
    ("syn2", 60, 54, 128, "0x1.1f4df608cababp+6"),
    ("syn2", 60, 60, 128, "0x1.4cb5ecf0a9650p+5"),
    ("syn2", 120, 36, 128, "0x1.baaa0632486adp+8"),
    ("syn2", 120, 108, 128, "0x1.3339e83491b8ap+7"),
    ("syn25", 1, 1, 128, "0x1.62e42fefa39efp-1"),
    ("syn25", 60, 1, 128, "0x1.afc60a6ce7066p+7"),
    ("syn25", 60, 18, 128, "0x1.74f5ecf6a025bp+7"),
    ("syn25", 60, 54, 128, "0x1.1d27dddc9ef92p+6"),
    ("syn25", 60, 60, 128, "0x1.4cb5ecf0a9650p+5"),
    ("syn25", 120, 36, 128, "0x1.b6f228abdbcc7p+8"),
    ("syn25", 120, 108, 128, "0x1.30f63ab032cd1p+7"),
    ("trees", 200, 150, 128, "0x1.5a5aa940fe7b3p+8"),
    ("trees", 60, 30, 64, "0x1.2a270d0c7936cp+7"),
    ("cacti", 60, 20, 200, "0x1.91b31f98ca142p+7"),
    ("syn2", 120, 87, 128, "0x1.f2390811b8362p+7"),
    ("list", 8, 1, 128, "0x1.d1cb7eea86c0ap+3"),
    ("list", 8, 8, 128, "0x0.0p+0"),
    ("list", 20, 13, 128, "0x1.fcc31c205f2cep+4"),
    ("list", 20, 18, 128, "0x1.644295de65f56p+3"),
]


class TestFrozenCountLog:
    """count_log floats frozen bit for bit from the full-order power."""

    @pytest.mark.parametrize("name,n,k,bits,want", _FROZEN_COUNT_LOG)
    def test_grid(self, name, n, k, bits, want):
        got = exact.count_log(_LOG_CLASSES[name](), n, k, precision_bits=bits)
        assert got.hex() == want


class TestAgainstOracle:
    def test_grid(self, tmp_path):
        classes = [species.builtin(name) for name in ("trees", "cacti", "husimi")]
        classes += [species.synthetic(1, 0.5, 2), _poly_class(tmp_path)]
        for cls in classes:
            g = forest_counts_oracle(species.coefficients(cls, 9))
            for n in range(1, 10):
                row = [g(n, k) for k in range(1, n + 1)]
                assert [exact.count(cls, n, k) for k in range(1, n + 1)] == row, cls.name
                assert [c for _k, c, _lg in exact.count_table(cls, n).rows] == row, cls.name
                assert exact.total_count(cls, n) == sum(row), cls.name

    def test_explicit_list_grid(self):
        cls = species.from_coefficients("tiny", [1, 0, 6])
        g = forest_counts_oracle([1, 0, 6])
        for n in range(1, 4):
            row = [g(n, k) for k in range(1, n + 1)]
            assert [c for _k, c, _lg in exact.count_table(cls, n).rows] == row
            assert exact.total_count(cls, n) == sum(row)
        for n in range(1, 10):
            for k in range(max(1, n - 2), n + 1):
                assert exact.count(cls, n, k) == g(n, k)

    def test_explicit_list_reach(self):
        # count(n, k) needs |C_1..n-k+1|; a list of length 3 reaches n - k = 2
        cls = species.from_coefficients("tiny", [1, 0, 6])
        assert exact.count(cls, 40, 38) == forest_counts_oracle([1, 0, 6])(40, 38)
        with pytest.raises(DomainError):
            exact.count(cls, 40, 37)
        with pytest.raises(DomainError):
            exact.count_table(cls, 40, range(37, 41))
        with pytest.raises(DomainError):
            exact.total_count(cls, 4)

    @pytest.mark.parametrize("name,n,k", [("trees", 1000, 989), ("cacti", 600, 589)])
    def test_large_n_small_window(self, name, n, k):
        # the oracle is filled bottom-up in n, so that its recursion stays
        # one level deep; it reads |C_1..n-k+1| only, as count does
        cls = species.builtin(name)
        g = forest_counts_oracle(species.coefficients(cls, n - k + 1))
        for m in range(1, n + 1):
            for j in range(max(1, m - (n - k)), m + 1):
                g(m, j)
        assert exact.count(cls, n, k) == g(n, k)

    @pytest.mark.parametrize("corrupt", [lambda v: v + 1, lambda v: -v], ids=["remainder", "negative"])
    def test_bad_product_raises(self, monkeypatch, corrupt):
        trees = species.builtin("trees")
        assert exact.count(trees, 6, 3) == forest_counts_oracle(species.coefficients(trees, 6))(6, 3)
        product, top = ps.mul, ps.pow_top

        def corrupted(f, g, n):
            # only the product through the requested n: pow forms the inner
            # square of C^3 through n - 1, and its top entry feeds the result,
            # where two negations would cancel
            h = product(f, g, n)
            if n == 6:
                h[n] = corrupt(h[n])
            return h

        # count takes its last product as one dot in pow_top, past any mul
        monkeypatch.setattr(ps, "pow_top", lambda c, k, n: corrupt(top(c, k, n)))
        with pytest.raises(InternalConsistencyError):
            exact.count(trees, 6, 3)
        monkeypatch.setattr(ps, "mul", corrupted)
        with pytest.raises(InternalConsistencyError):
            exact.count_table(trees, 6, [3])


U = 2.0**-53


def _exact_log(cls, n, k):
    return float(Context(prec=50).ln(Decimal(exact.count(cls, n, k))))


def _tier_classes():
    trees = species.builtin("trees")
    return {
        "trees": trees,
        "cacti": species.builtin("cacti"),
        "husimi": species.builtin("husimi"),
        "syn2": species.synthetic(1, 0.5, 2),
        "syn25": species.synthetic(1, 0.5, 2.5),
        "list-growth": species.from_coefficients(
            "trees-list", species.coefficients(trees, 240), growth=trees.growth
        ),
        "bare-list": species.from_coefficients("list", _LIST),
    }


def _straddling_grid(name):
    """(n, k) on both sides of the tier switch: n <= 200 and n (n - k + 1) <= 12 000."""
    if name == "bare-list":  # 8 coefficients reach n - k = 7
        return [(n, k) for n in (120, 200, 201) for k in (n - 7, n - 3, n - 1)]
    return [(120, 30), (120, 66), (120, 108), (120, 21), (120, 20),
            (200, 141), (200, 140), (200, 199), (201, 150), (201, 200)]


class TestCountLogTiers:
    def test_tier_boundary(self):
        assert all(exact._in_exact_tier(n, k) for _c, n, k, _b, _w in _FROZEN_COUNT_LOG)
        # README: exact --class cacti -n 30 -k 12, compare --lambda 0.75 --n-list 40,80
        assert all(exact._in_exact_tier(n, k) for n, k in ((30, 12), (40, 30), (80, 60)))
        # acceptance 05 at n = 400 (n = 100 and 200 fall in the exact tier), 06, and
        # the log-scale trees sizes below lambda* and at it
        floats = [(400, 300), (200, 50), (400, 100), (800, 200), (200, 100)]
        syn2 = species.synthetic(1, 0.5, 2)
        lam_star = asymptotics.lambda_star(syn2)
        floats += [(n, asymptotics.estimate(syn2, n, lam_star).N) for n in (500, 1000, 2000)]
        assert not any(exact._in_exact_tier(n, k) for n, k in floats)
        # the two sides of the switch
        assert exact._in_exact_tier(200, 141) and not exact._in_exact_tier(200, 140)
        assert exact._in_exact_tier(200, 200) and not exact._in_exact_tier(201, 201)

    @pytest.mark.parametrize("name", list(_tier_classes()))
    def test_float_tier_within_its_bound(self, name):
        # the bound stated in the exact module docstring; on these classes the
        # tier stayed below a fifth of it for n <= 300
        cls = _tier_classes()[name]
        for n, k in _straddling_grid(name):
            want = _exact_log(cls, n, k)
            got = exact._tilted_count_log(cls, n, k)
            bound = (n - k + 1) * max(1.0, math.log2(k)) * U * max(1.0, abs(want))
            assert abs(got - want) <= bound, (name, n, k, got, want)
            tier = want if exact._in_exact_tier(n, k) else got
            assert exact.count_log(cls, n, k) == tier, (name, n, k)

    def test_float_tier_on_a_synthetic_class_with_small_counts(self):
        # at rho = 20 the count at size 65 is about 7, so the weights must take
        # exact counts until they pass 2^54 (size 91) before the formula
        cls = species.synthetic(1, 20, 2)
        for n, k in ((120, 20), (230, 30), (300, 10)):
            want = _exact_log(cls, n, k)
            bound = (n - k + 1) * math.log2(k) * U * abs(want)
            assert abs(exact.count_log(cls, n, k) - want) <= bound, (n, k)

    def test_float_tier_zero_count_raises_precision_error(self):
        cls = species.from_coefficients("gap", [1, 0])
        assert not exact._in_exact_tier(300, 299)
        with pytest.raises(PrecisionError) as info:
            exact.count_log(cls, 300, 299)
        assert info.value.suggested is None

    def test_float_tier_keeps_the_list_reach(self):
        trees = species.builtin("trees")
        cls = species.from_coefficients("short", species.coefficients(trees, 8), trees.growth)
        assert exact.count_log(cls, 300, 293) == pytest.approx(
            exact.count_log(trees, 300, 293), rel=1e-14
        )
        with pytest.raises(DomainError):
            exact.count_log(cls, 300, 292)

    def test_weights_beyond_float64_raise_precision_error(self):
        # the mean tilt moves x up until the mean size is near n, where the
        # weight x^j / j! of a list of ones passes the float64 range
        cls = species.from_coefficients("ones", [1] * 400)
        for n in range(341, 401):
            with pytest.raises(PrecisionError, match="at x = "):
                exact.count_log(cls, n, 1)

    def test_acceptance_sizes_run_fast(self):
        # acceptance 07's largest size is this big; the float tier takes milliseconds
        t0 = time.perf_counter()
        got = exact.count_log(species.builtin("trees"), 2000, 1000)
        assert time.perf_counter() - t0 < 1.0
        assert got == pytest.approx(8594.82836866037, rel=1e-13)


class TestExactTierRounding:
    """The exact tier's logarithm, exact._ln's nearest double, rounds to the
    same float as one of 300 digits: no more digits would change any of these
    outputs."""

    @pytest.mark.parametrize("name", ["trees", "cacti", "husimi"])
    def test_matches_300_digits_for_n_up_to_40(self, name):
        cls = species.builtin(name)
        wide = Context(prec=300)
        for n in range(1, 41):
            for k, cnt, _lg in exact.count_table(cls, n).rows:
                assert exact._in_exact_tier(n, k)
                want = float(wide.ln(Decimal(cnt)))
                assert exact.count_log(cls, n, k) == want, (name, n, k)


# k spread over each row, with k = n (count 1) and, at n = 120 and 200, the
# float-tier cell just outside the exact tier beside the first one inside it
_EXACT_TIER_ROWS = {
    1: (1,),
    2: (1, 2),
    30: (1, 2, 8, 15, 23, 29, 30),
    60: (1, 2, 18, 30, 45, 59, 60),
    120: (20, 21, 40, 66, 90, 119, 120),
    200: (140, 141, 160, 180, 199, 200),
}


def _exact_tier_cells(name):
    if name == "bare-list":  # 8 coefficients reach n - k = 7
        return [(n, k) for n in _EXACT_TIER_ROWS for k in sorted({max(1, n - j) for j in (7, 4, 1, 0)})]
    return [(n, k) for n, ks in _EXACT_TIER_ROWS.items() for k in ks]


class TestFrozenExactTierLog:
    """SHA-256 prefixes of count_log(...).hex() over exact-tier cells, each
    exact._ln's nearest double, and the float-tier cells beside them."""

    @pytest.mark.parametrize(
        "name,want",
        [
            ("trees", "b77ef2b930ee2018"),
            ("cacti", "c638a3ecfc51422f"),
            ("husimi", "b741ffc95d2c5f14"),
            ("syn2", "aac987b9156de72f"),
            ("syn25", "0e33f5f5465251a2"),
            ("list-growth", "b77ef2b930ee2018"),
            ("bare-list", "b63ea1835b6174ce"),
        ],
    )
    def test_cells(self, name, want):
        cls = _tier_classes()[name]
        cells = _exact_tier_cells(name)
        assert exact._in_exact_tier(120, 21) and not exact._in_exact_tier(120, 20)
        assert exact._in_exact_tier(200, 141) and not exact._in_exact_tier(200, 140)
        logs = ",".join(exact.count_log(cls, n, k).hex() for n, k in cells)
        assert hashlib.sha256(logs.encode()).hexdigest()[:16] == want


def _assert_ln_is_the_300_digit_double(values):
    wide = Context(prec=300)
    for v in values:
        assert exact._ln(v) == float(wide.ln(Decimal(v))), v


def _300_digit_logs(T):
    """ln v to 300 digits at index v = 1..T: a prime's from Context(prec=300).ln,
    any other v's the sum of its smallest prime factor's and its cofactor's."""
    wide, spf = Context(prec=300), list(range(T + 1))
    for p in range(2, math.isqrt(T) + 1):
        if spf[p] == p:
            for m in range(p * p, T + 1, p):
                spf[m] = min(spf[m], p)
    logs = [None, Decimal(0)]
    for v in range(2, T + 1):
        p = spf[v]
        logs.append(wide.ln(Decimal(v)) if p == v else wide.add(logs[p], logs[v // p]))
    return logs


class TestFixedPointLog:
    """exact._ln, the one logarithm of exact counts, against 300 digits: it
    widens its fixed point until Ziv's rounding test passes, so it is total."""

    def test_every_integer_to_ten_thousand(self):
        assert exact._ln(1) == 0.0
        logs = _300_digit_logs(10_000)
        for v in range(1, 10_001):
            assert exact._ln(v) == float(logs[v]), v

    def test_random_integers_of_up_to_4000_bits(self):
        rng = random.Random(34)
        bits = [rng.randint(2, 4000) for _ in range(2000)]
        _assert_ln_is_the_300_digit_double(rng.getrandbits(b) | 1 << b - 1 for b in bits)

    def test_counts_of_the_rounding_grid(self):
        _assert_ln_is_the_300_digit_double(
            cnt
            for name in ("trees", "cacti", "husimi")
            for n in range(1, 41)
            for _k, cnt, _lg in exact.count_table(species.builtin(name), n).rows
        )

    def test_a_failed_rounding_test_widens_the_fixed_point(self, monkeypatch):
        # a series bound J of 2^200 terms widens E past every double's spacing at Q = 128
        atanh2, qs = exact._atanh2, []

        def wide_bound(a, b, q):
            qs.append(q)
            return atanh2(a, b, q)[0], 1 << 200

        monkeypatch.setattr(exact, "_atanh2", wide_bound)
        cacti = species.builtin("cacti")
        value = exact.count(cacti, 30, 12)
        want = float(Context(prec=300).ln(Decimal(value)))
        assert exact._ln(value) == want
        assert exact._LN_Q in qs and max(qs) > exact._LN_Q + 32  # past the first table's q
        assert exact.count_log(cacti, 30, 12) == want


class TestOneLogarithm:
    """count_table's log column is count_log's exact-tier log, cell by cell, on
    TestExactTierRounding's grid."""

    @pytest.mark.parametrize("name", ["trees", "cacti", "husimi"])
    def test_count_table_logs_are_count_log(self, name):
        cls = species.builtin(name)
        for n in range(1, 41):
            for k, _cnt, lg in exact.count_table(cls, n).rows:
                assert lg == exact.count_log(cls, n, k), (name, n, k)


class TestSizeCap:
    """count, count_table and total_count build lists of n + 1 counts, so an n
    past species._table_cap raises PrecisionError before any is built."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda cls: exact.count(cls, 10**5000, 3),
            lambda cls: exact.count_table(cls, 10**5000, [3]),
            lambda cls: exact.total_count(cls, 10**5000),
            lambda cls: exact.count(cls, 10**12, 10**12 - 5),
        ],
        ids=["count", "count_table", "total_count", "count small window"],
    )
    def test_huge_n_raises_at_once(self, call):
        t0 = time.perf_counter()
        with deadline(10), pytest.raises(PrecisionError) as info:
            call(species.builtin("trees"))
        assert time.perf_counter() - t0 < 1.0
        assert info.value.suggested == species._MAX_TABLE

    def test_explicit_list_keeps_its_reach_error(self):
        cls = species.from_coefficients("ones", [1] * 400)
        with pytest.raises(DomainError, match="only up to n = 400"):
            exact.count(cls, 10**12, 3)
        with pytest.raises(PrecisionError):
            exact.count(cls, 10**12, 10**12 - 5)

    def test_coefficients_stop_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(species, "_MAX_TABLE", 64)
        cls = species.synthetic(1, 2, 2)
        assert len(species.coefficients(cls, 64)) == 64
        with pytest.raises(PrecisionError) as info:
            species.coefficients(cls, 65)
        assert info.value.suggested == 64
        with pytest.raises(PrecisionError):
            exact.count(cls, 65, 64)
