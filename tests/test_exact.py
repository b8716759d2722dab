import hashlib
import json
import math
from functools import lru_cache

import pytest

from setcensus import exact, species
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
        assert info.value.suggested is not None

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

    @pytest.mark.parametrize("corrupt", [lambda v: v + 1, lambda v: -v], ids=["remainder", "negative"])
    def test_bad_product_raises(self, monkeypatch, corrupt):
        trees = species.builtin("trees")
        assert exact.count(trees, 6, 3) == forest_counts_oracle(species.coefficients(trees, 6))(6, 3)
        product = exact._labeled_product

        def corrupted(f, g, n):
            h = product(f, g, n)
            h[n] = corrupt(h[n])
            return h

        monkeypatch.setattr(exact, "_labeled_product", corrupted)
        with pytest.raises(InternalConsistencyError):
            exact.count(trees, 6, 3)
        with pytest.raises(InternalConsistencyError):
            exact.count_table(trees, 6, [3])
