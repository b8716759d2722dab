import json
import math
from fractions import Fraction

import mpmath
import pytest

import setcensus.powerseries as ps
from setcensus import species
from setcensus.errors import (
    ConstantTermError,
    FlavorMismatchError,
    InternalConsistencyError,
    ModelViolationError,
)


def frac(values):
    return ps.SeriesExact([Fraction(v) for v in values])


class TestArithmetic:
    def test_mul_polynomials(self):
        a = frac([1, 1])
        got = ps.mul(a, a, 4)
        assert got.coeffs == (1, 2, 1, 0, 0)

    def test_mul_truncates(self):
        a = frac([0, 1, 1, 1])
        got = ps.mul(a, a, 3)
        assert got.coeffs == (0, 0, 1, 2)

    def test_pow_binomials(self):
        a = frac([1, 1])
        got = ps.pow(a, 5, 5)
        assert got.coeffs == tuple(math.comb(5, j) for j in range(6))

    def test_pow_zeroth(self):
        a = frac([0, 3, 7])
        got = ps.pow(a, 0, 4)
        assert got.coeffs == (1, 0, 0, 0, 0)

    def test_pow_rejects_negative(self):
        with pytest.raises(ValueError):
            ps.pow(frac([1, 1]), -1, 3)

    @pytest.mark.parametrize(
        "values",
        [[1, 1], [0, 2, 0, -3, 5], [0, 0, 1, 4], [7], [0], [3, 1, 0, 0, 0, 0, 0, 0, 0, 0]],
    )
    @pytest.mark.parametrize("bits", [None, 53, 128])
    def test_pow_coefficient_is_the_top_of_pow(self, values, bits):
        if bits is None:
            a = frac([Fraction(v, 3) for v in values])
        else:
            with mpmath.workprec(bits):
                a = ps.SeriesFloat([mpmath.mpf(v) / 3 for v in values], bits)
        for m in range(10):
            for M in range(8):
                got = ps.pow_coefficient(a, m, M)
                assert got == ps.pow(a, m, M).coeffs[M], (m, M)
                assert type(got) is type(a.coeffs[0])

    def test_pow_coefficient_rejects_bad_arguments(self):
        for m, M in ((-1, 3), (1.5, 3), (2, -1), (2, 1.5)):
            with pytest.raises(ValueError):
                ps.pow_coefficient(frac([1, 1]), m, M)

    def test_exp_of_x(self):
        got = ps.exp(frac([0, 1]), 8)
        assert got.coeffs == tuple(Fraction(1, math.factorial(j)) for j in range(9))

    def test_exp_requires_zero_constant(self):
        with pytest.raises(ConstantTermError):
            ps.exp(frac([1, 1]), 3)

    def test_compose_exp_log(self):
        # exp(log(1+x)) = 1 + x exactly, order by order
        T = 10
        f = ps.exp(frac([0, 1]), T)
        log1p = ps.SeriesExact(
            [Fraction(0)] + [Fraction((-1) ** (j + 1), j) for j in range(1, T + 1)]
        )
        got = ps.compose(f, log1p, T)
        assert got.coeffs == (1, 1) + (0,) * (T - 1)

    def test_compose_requires_zero_inner_constant(self):
        with pytest.raises(ConstantTermError):
            ps.compose(frac([0, 1]), frac([1, 1]), 3)

    def test_flavor_mismatch(self):
        a = frac([0, 1])
        b = ps.SeriesFloat([0, 1])
        with pytest.raises(FlavorMismatchError):
            ps.mul(a, b, 3)

    def test_float_flavor_tracks_precision(self):
        a = ps.SeriesFloat([0, 1], precision_bits=64)
        b = ps.SeriesFloat([0, 1], precision_bits=192)
        got = ps.mul(a, b, 3)
        assert got.precision_bits == 192

    def test_float_matches_exact(self):
        T = 20
        e_exact = ps.exp(frac([0, 1, Fraction(1, 2)]), T)
        e_float = ps.exp(ps.SeriesFloat([0, 1, 0.5], precision_bits=128), T)
        for n in range(T + 1):
            want = float(e_exact.coeffs[n])
            assert abs(float(e_float.coeffs[n]) - want) <= 1e-25 + 1e-30 * abs(want)


def _tree_y(T):
    """y = x e^y through order T: the exact edge-block solve, stabilization pass included."""
    k = ps._Kernel(exact=True)

    def make_table():
        return ps.BlockTable("edge", (), k.one, k.zeros, k.dot)

    return ps.solve_fixed_point_with_composer(T, make_table, k)


def _block_class(kind, tmp_path):
    if kind != "poly":
        return species.builtin({"edge": "trees", "cactus": "cacti", "complete": "husimi"}[kind])
    # B'(u) = u + u^3/3: a coefficient that is not dyadic
    path = tmp_path / "p3.json"
    doc = {"name": "p3", "block": {"kind": "poly", "bprime": ["0", "1", "0", "1/3"]}}
    path.write_text(json.dumps(doc))
    return species.from_file(path)


class TestFixedPoint:
    def test_tree_series(self):
        # y = x e^y has y_n = n^{n-1}/n!
        T = 30
        y = _tree_y(T)
        for n in range(1, T + 1):
            assert y.coeffs[n] == Fraction(n ** (n - 1), math.factorial(n))

    def test_poly_step_matches_compose(self):
        # A = P(y) for P(u) = u + u^2/2 + u^3/6 against direct composition
        T = 16
        k = ps._Kernel(exact=True)
        tail = [Fraction(1), Fraction(1, 2), Fraction(1, 6)]
        table = ps.BlockTable("poly", tail, k.one, k.zeros, k.dot)
        y = ps.SeriesExact(table.terms(T))
        stepped = [table.kA[n] / n for n in range(1, T + 1)]
        p = ps.SeriesExact([Fraction(0)] + tail)
        direct = ps.compose(p, y, T)
        assert stepped == list(direct.coeffs[1:])

    def test_connected_counts_cayley(self):
        T = 12
        y = _tree_y(T)
        counts = ps.connected_coeffs_from_y(y, T)
        assert counts[0] == 1
        assert counts[1] == 1
        for n in range(3, T + 1):
            assert counts[n - 1] == n ** (n - 2)

    def test_connected_counts_require_integers(self):
        y = ps.SeriesExact([0, 1, Fraction(1, 3)])
        with pytest.raises(ModelViolationError):
            ps.connected_coeffs_from_y(y, 2)

    def test_c_series_from_blocks_trees(self):
        # B = u^2/2: C = y - y*B'(y) + B(y) = y - y^2/2 and c_n = n^{n-2}/n!
        T = 14
        bprime = frac([0, 1])
        y = _tree_y(T)
        b = frac([0, 0, Fraction(1, 2)])
        prod = ps.mul(y, ps.compose(bprime, y, T), T)
        b_y = ps.compose(b, y, T)
        c = [y[k] - prod[k] + b_y[k] for k in range(T + 1)]
        counts = ps.connected_coeffs_from_y(y, T)
        for n in range(1, T + 1):
            cayley = 1 if n <= 2 else n ** (n - 2)
            assert c[n] == Fraction(cayley, math.factorial(n))
            assert c[n] * math.factorial(n) == counts[n - 1]

    @pytest.mark.parametrize("kind", ["edge", "cactus", "complete", "poly"])
    def test_float_fixed_point_close_to_exact(self, tmp_path, kind):
        # the mpmath route at 160 bits stays within 2^-120 of the exact route,
        # relative, through order 40
        T = 40
        cls = _block_class(kind, tmp_path)
        y_exact = species.y_series(cls, T)
        y_float = species.y_series(cls, T, exact=False, precision_bits=160)
        assert y_float.precision_bits == 160
        with mpmath.workprec(160):
            for n in range(1, T + 1):
                want = mpmath.mpf(y_exact.coeffs[n].numerator) / y_exact.coeffs[n].denominator
                rel = abs(y_float.coeffs[n] - want) / want
                assert rel < mpmath.mpf(2) ** -120

    @pytest.mark.parametrize("kind", ["edge", "cactus", "complete", "poly"])
    def test_integer_table_matches_fraction_table(self, kind):
        # every buffer of the table on integers over T! is T! times the Fraction one
        T = 60
        tail = [Fraction(1), Fraction(1, 2), Fraction(1, 6)] if kind == "poly" else []
        k = ps._Kernel(exact=True)
        exact = ps.BlockTable(kind, tail, k.one, k.zeros, k.dot)
        ik = ps._IntKernel(T)
        scaled = ps.BlockTable(kind, [ik.factor(t) for t in tail], 1, ik.zeros, ik.dot, ik.one, ik.div)
        exact.terms(T)
        scaled.terms(T)
        for name in ("Y", "kA", "kY", "Er", "Sr", "EYr", "Yr", "P"):
            want, got = getattr(exact, name), getattr(scaled, name)
            if name != "P":
                want, got = [want], [got]
            for w, g in zip(want, got, strict=True):
                assert all(type(v) is int for v in g)
                assert [Fraction(v, ik.one) for v in g] == w, name
        assert ps.SeriesExact(exact.Y) == ik.wrap(scaled.Y)

    def test_stabilization_pass_must_agree(self):
        # a second pass that disagrees with the first is an internal fault
        k = ps._Kernel(exact=True)
        tilts = iter([k.one, 2 * k.one])

        def make_table():
            return ps.BlockTable("edge", (), next(tilts), k.zeros, k.dot)

        with pytest.raises(InternalConsistencyError, match="coefficient 1 changed"):
            ps.solve_fixed_point_with_composer(5, make_table, k)

