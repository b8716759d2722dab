import json
import math
import operator
import random
import threading
import time
from fractions import Fraction

import pytest
import recurrences

import setcensus.powerseries as ps
from setcensus import species, weights
from setcensus.errors import ModelViolationError


class TestArithmetic:
    """Labeled lists: entry m is m! [x^m] of the EGF."""

    def test_mul_polynomials(self):
        # (1 + x)^2 = 1 + 2x + x^2, labeled 1, 2, 2
        a = [1, 1]
        got = ps.mul(a, a, 4)
        assert got == [1, 2, 2, 0, 0]

    def test_mul_truncates(self):
        # (x + x^2/2 + x^3/6)^2 = x^2 + x^3 + ...: labeled 2, 6 at sizes 2, 3
        a = [0, 1, 1, 1]
        got = ps.mul(a, a, 3)
        assert got == [0, 0, 2, 6]

    def test_pow_binomials(self):
        # (1 + x)^5 has m! C(5, m) at size m
        a = [1, 1, 0, 0, 0, 0]
        got = ps.pow(a, 5, 5)
        assert got == [math.factorial(j) * math.comb(5, j) for j in range(6)]

    @pytest.mark.parametrize("v", [0, 1, 2, 3, None], ids=[*(f"valuation-{v}" for v in range(4)), "zero"])
    def test_pow_matches_repeated_products(self, v):
        # pow forms its inner powers only through the sizes that reach n,
        # which depends on v, the first size with a non-zero entry
        c = ([0] * v + [3, 1, 0, 2, 0, 5, 7, 1, 0, 2, 4, 0, 6])[:13] if v is not None else [0] * 13
        for n in range(13):
            for k in range(10):
                want = [1] + [0] * n
                if k:
                    want = c
                    for _ in range(k - 1):
                        want = ps.mul(want, c, n)
                got = ps.pow(c, k, n)
                assert got[: n + 1] == want[: n + 1], (n, k)
                assert len(got) > n

    @pytest.mark.parametrize("seed", range(4))
    def test_mul_and_pow_match_naive_convolution(self, seed):
        # an oracle independent of mul's windowed and halved binomial rows:
        # every full Pascal row, every term
        def naive(f, g, n):
            f, g = [*f, *[0] * (n + 1)], [*g, *[0] * (n + 1)]
            return [sum(math.comb(m, j) * f[j] * g[m - j] for j in range(m + 1)) for m in range(n + 1)]

        rng = random.Random(seed)

        def draw():  # valuation 0-6, shorter or longer than n + 1, or all zeros
            size = rng.randrange(24)
            if rng.random() < 0.1:
                return [0] * size
            v = rng.randrange(7)
            return [0] * v + [rng.randint(-40, 40) for _ in range(size - v)]

        for n in range(21):
            f, g = draw(), draw()
            for x, y in ((f, f), (f, list(f)), (f, g), (g, f)):
                assert ps.mul(x, y, n) == naive(x, y, n), (n, x, y)
            for k in range(11):
                want = [1] + [0] * n
                for _ in range(k):
                    want = naive(want, f, n)
                got = ps.pow(f, k, n)  # the first power is f itself, which may be shorter
                assert [*got, *[0] * (n + 1)][: n + 1] == want, (n, k, f)

    def test_pow_zeroth(self):
        a = [0, 3, 14, 0, 0]
        got = ps.pow(a, 0, 4)
        assert got == [1, 0, 0, 0, 0]

    def test_pow_rejects_negative(self):
        with pytest.raises(ValueError):
            ps.pow([1, 1, 0, 0], -1, 3)

    @pytest.mark.parametrize("k", [2.5, 2.0, "2"])
    def test_pow_rejects_non_integer(self, k):
        with pytest.raises(ValueError, match="non-negative integer"):
            ps.pow([1, 1, 0, 0], k, 3)

    @pytest.mark.parametrize("name", ["trees", "cacti", "husimi"])
    def test_pow_top_matches_pow(self, name):
        c = [0, *species.coefficients(species.builtin(name), 44)]
        for n in range(1, 45):
            for k in range(1, n + 1):
                assert ps.pow_top(c, k, n) == ps.pow(c, k, n)[n], (n, k)

    @pytest.mark.parametrize(
        "c", [[0, 1, 0, 0, 24, 0, 720, 0, 0], [0, 0, 2, 0, 5, 7, 0, 1, 0, 0, 0], [0, 0, 0, 6, *[1] * 9]]
    )
    def test_pow_top_on_gapped_lists(self, c):
        # leading zeros: C^k starts at k v, so k v > n gives 0 without a product
        v = next(j for j, x in enumerate(c) if x)
        beyond = 0
        for n in range(len(c)):
            for k in range(1, n + 2):
                got = ps.pow_top(c, k, n)
                assert got == ps.pow(c, k, n)[n], (n, k)
                if k * v > n:
                    beyond += 1
                    assert got == 0, (n, k)
        assert beyond > 0
        assert [ps.pow_top(c, 1, n) for n in range(len(c))] == c

    @pytest.mark.parametrize("k", [-1, 2.5, "2"])
    def test_pow_top_rejects_bad_exponents(self, k):
        with pytest.raises(ValueError, match="non-negative integer"):
            ps.pow_top([0, 1, 1, 0], k, 3)

    def test_exp_of_x(self):
        # m! [x^m] e^x = 1; C = x has one structure of size 1
        got = ps.exp([1], 8)
        assert got == [1] * 9


def _tree_y(T):
    """m! [x^m] y of y = x e^y through order T: the integer edge-block solve
    of the built-in trees, read from the one labeled table they keep."""
    return species.y_series(species.builtin("trees"), T)


def _block_class(kind, tmp_path):
    if kind != "poly":
        return species.builtin({"edge": "trees", "cactus": "cacti", "complete": "husimi"}[kind])
    # B'(u) = u + u^3/3: a coefficient that is not dyadic
    path = tmp_path / "p3.json"
    doc = {"name": "p3", "block": {"kind": "poly", "bprime": ["0", "1", "0", "1/3"]}}
    path.write_text(json.dumps(doc))
    return species.from_file(path)


def _labeled_table(kind, tail, T):
    table = ps.BlockTable(kind, tail, ps.Labeled())
    table.terms(T)
    return table


def _fraction_kernel(x):
    return ps.Tilted(
        x, lambda n: [Fraction(0)] * n, lambda a, b: sum(map(operator.mul, a, b), Fraction(0))
    )


class TestFixedPoint:
    def test_tree_series(self):
        # y = x e^y has n! y_n = n^{n-1}
        T = 30
        y = _tree_y(T)
        for n in range(1, T + 1):
            assert y[n] == n ** (n - 1)

    def test_poly_step_matches_compose(self):
        # A = P(y) for P(u) = u + u^2/2 + u^3/6 against direct composition,
        # on the y of the labeled recurrences
        T = 16
        tail = [Fraction(1), Fraction(1, 2), Fraction(1, 6)]
        table = _labeled_table("poly", tail, T)
        y = [0] + [n * c for n, c in enumerate(recurrences.connected_counts("poly", T, tail), 1)]
        assert table.Y == y
        stepped = table.kA[1:]  # n! A_n
        direct = [sum(t * ps.pow(y, d, T)[n] for d, t in enumerate(tail, 1)) for n in range(1, T + 1)]
        assert stepped == direct

    def test_connected_counts_cayley(self):
        T = 12
        y = _tree_y(T)
        assert all(y[n] % n == 0 for n in range(1, T + 1))
        counts = [y[n] // n for n in range(1, T + 1)]
        assert counts[0] == 1
        assert counts[1] == 1
        for n in range(3, T + 1):
            assert counts[n - 1] == n ** (n - 2)

    def test_connected_counts_require_integers(self):
        # from_file refuses both specs, so they are built directly
        cases = [
            # B'(u) = u + u^2/5: the labeled B'(y) at size 2 is 12/5, not an integer
            ([Fraction(1), Fraction(1, 5)], "not an integer"),
            # B'(u) = u - 2u^2: |C_3| = -1
            ([Fraction(1), Fraction(-2)], "negative connected count at n = 3"),
        ]
        for tail, match in cases:
            spec = species._poly_spec(tail)
            cls = species.ConnectedClass("bad", species.CoeffSource.BLOCK_DERIVED, None, spec)
            with pytest.raises(ModelViolationError, match=match):
                species.y_series(cls, 10)

    def test_c_series_from_blocks_trees(self):
        # B = u^2/2: C = y - y*B'(y) + B(y) = y - y^2/2 and n! c_n = n^{n-2}
        T = 14
        y = _tree_y(T)
        prod = ps.mul(y, y, T)  # y * B'(y), B'(u) = u
        assert all(v % 2 == 0 for v in prod)
        b_y = [v // 2 for v in prod]  # B(y) = y^2/2
        c = [y[k] - prod[k] + b_y[k] for k in range(T + 1)]
        counts = [y[n] // n for n in range(1, T + 1)]
        for n in range(1, T + 1):
            cayley = 1 if n <= 2 else n ** (n - 2)
            assert c[n] == cayley
            assert c[n] == counts[n - 1]

    @pytest.mark.parametrize("kind", ["edge", "cactus", "complete", "poly"])
    def test_float_fixed_point_close_to_exact(self, tmp_path, kind):
        # the float64 table at rho stays within 2^-45 of the exact route,
        # relative, through order 40
        T = 40
        cls = _block_class(kind, tmp_path)
        y_exact = species.y_series(cls, T)
        rho = Fraction(cls.growth.rho)
        w = weights._block_weights(cls, cls.growth.rho)(T)
        for n in range(1, T + 1):
            want = Fraction(y_exact[n], n * math.factorial(n)) * rho**n  # |C_n| rho^n / n!
            assert abs(Fraction(float(w[n - 1])) - want) / want < Fraction(1, 2**45)

    @pytest.mark.parametrize("kind", ["edge", "cactus", "complete", "poly"])
    def test_integer_table_matches_fraction_table(self, kind):
        # every buffer of the labeled table holds m! times the Fraction entry
        # of size m; the marked factors kA and kY hold m! A_m and m! y_m where
        # the Fraction table holds m A_m and m y_m
        T = 60
        tail = [Fraction(1), Fraction(1, 2), Fraction(1, 6)] if kind == "poly" else []
        exact = ps.BlockTable(kind, tail, _fraction_kernel(Fraction(1)))
        exact.terms(T)
        labeled = _labeled_table(kind, tail, T)
        fact = [math.factorial(m) for m in range(T + 1)]
        sizes = {name: range(T + 1) for name in ("Y", "kA", "kY", "P")}
        sizes.update({name: range(T, -1, -1) for name in ("Er", "Sr", "EYr", "Yr")})
        for name, size in sizes.items():
            want, got = getattr(exact, name), getattr(labeled, name)
            if name != "P":
                want, got = [want], [got]
            for w, g in zip(want, got, strict=True):
                assert all(type(v) is int for v in g)
                scaled = [
                    w[i] * fact[m] / m if name in ("kA", "kY") and m else w[i] * fact[m]
                    for i, m in enumerate(size)
                ]
                assert g == scaled, name

    @pytest.mark.parametrize("kind", ["edge", "cactus", "complete", "poly"])
    def test_one_labeled_table_per_class(self, monkeypatch, tmp_path, kind):
        # y_series and coefficients extend one labeled table with one kernel
        spec = _block_class(kind, tmp_path).block_spec
        cls = species.ConnectedClass("fresh", species.CoeffSource.BLOCK_DERIVED, None, spec)
        kernels = []
        table = ps.BlockTable

        def recording(kind, tail, kernel):
            kernels.append(kernel)
            return table(kind, tail, kernel)

        monkeypatch.setattr(ps, "BlockTable", recording)
        species.y_series(cls, 12)
        species.y_series(cls, 20)
        got = species.coefficients(cls, 30)
        assert len(kernels) == 1 and type(kernels[0]) is ps.Labeled
        assert got == recurrences.connected_counts(kind, 30, spec.tail)


def _fresh_block_class(tail):
    spec = species._poly_spec([Fraction(t) for t in tail])
    return species.ConnectedClass("fresh", species.CoeffSource.BLOCK_DERIVED, None, spec)


class TestSharedTable:
    """The labeled table a block class keeps and grows for as long as it lives."""

    def test_threads_see_identical_prefixes(self):
        # B'(u) = u + u^2/2 + u^3/2 (cacti through size 4), grown from eight
        # threads at once to different sizes; coefficients holds the class
        # lock while y_series takes it again, so a plain Lock would hang here
        cls = _fresh_block_class([1, Fraction(1, 2), Fraction(1, 2)])
        sizes = [5, 60, 17, 90, 33, 90, 8, 71]
        results = [None] * len(sizes)
        barrier = threading.Barrier(len(sizes))

        def grow(i):
            barrier.wait()
            results[i] = species.coefficients(cls, sizes[i])

        threads = [threading.Thread(target=grow, args=(i,), daemon=True) for i in range(len(sizes))]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 60
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not any(t.is_alive() for t in threads)
        want = recurrences.connected_counts("poly", 90, cls.block_spec.tail)
        assert results == [want[:T] for T in sizes]

    def test_table_whose_step_raised_is_dropped(self):
        # B'(u) = u + u^2/5: the labeled B'(y) at size 2 is 12/5; lift opens
        # that step's Pascal row before mark raises, so the table goes
        cls = _fresh_block_class([1, Fraction(1, 5)])
        for _ in range(2):
            with pytest.raises(ModelViolationError, match="size n = 2 has labeled count 12/5"):
                species.y_series(cls, 10)
            assert cls._table is None
        assert species.y_series(cls, 1) == [0, 1]

    @pytest.mark.parametrize("T", [3, 4, 10])
    def test_negative_count_raises_on_every_call(self, T):
        # B'(u) = u - 2u^2: |C_3| = -1, in the table once it has grown past 3
        cls = _fresh_block_class([1, -2])
        assert species.coefficients(cls, 2) == [1, 1]
        for t in (T, T, 2 * T, T):
            with pytest.raises(ModelViolationError, match="negative connected count at n = 3"):
                species.coefficients(cls, t)
            with pytest.raises(ModelViolationError, match="negative connected count at n = 3"):
                species.y_series(cls, t)
        assert species.coefficients(cls, 2) == [1, 1]
