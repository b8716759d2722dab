import math
from fractions import Fraction

import mpmath
import pytest

import setcensus.powerseries as ps
from setcensus.errors import (
    ConstantTermError,
    FlavorMismatchError,
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


class TestFixedPoint:
    def test_tree_series(self):
        # y = x e^y has y_n = n^{n-1}/n!
        T = 30
        y = ps.solve_block_fixed_point(frac([0, 1]), T)
        for n in range(1, T + 1):
            assert y.coeffs[n] == Fraction(n ** (n - 1), math.factorial(n))

    def test_bprime_constant_term_rejected(self):
        with pytest.raises(ConstantTermError):
            ps.solve_block_fixed_point(frac([1, 1]), 5)

    def test_polynomial_composer_matches_compose(self):
        # A = P(y) for P(u) = u + u^2/2 + u^3/6 against direct composition
        T = 16
        y = ps.solve_block_fixed_point(frac([0, 1]), T)
        tail = [Fraction(1), Fraction(1, 2), Fraction(1, 6)]
        comp = ps.PolynomialComposer(tail, Fraction(0))
        stepped = [comp.step(y.coeffs, n) for n in range(1, T + 1)]
        p = ps.SeriesExact([Fraction(0)] + tail)
        direct = ps.compose(p, y, T)
        assert stepped == list(direct.coeffs[1:])

    def test_connected_counts_cayley(self):
        T = 12
        y = ps.solve_block_fixed_point(frac([0, 1]), T)
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
        # B = u^2/2: C = y - y^2/2 and c_n = n^{n-2}/n!
        T = 14
        bprime = frac([0, 1])
        y = ps.solve_block_fixed_point(bprime, T)
        b = frac([0, 0, Fraction(1, 2)])
        c = ps.c_series_from_blocks(y, b, bprime, T)
        for n in range(1, T + 1):
            cayley = 1 if n <= 2 else n ** (n - 2)
            assert c.coeffs[n] == Fraction(cayley, math.factorial(n))

    def test_float_fixed_point_close_to_exact(self):
        T = 40
        y_exact = ps.solve_block_fixed_point(frac([0, 1]), T)
        kernel = ps._Kernel(exact=False, precision_bits=160)
        y_float = ps.solve_fixed_point_with_composer(
            T, lambda: ps.PolynomialComposer([kernel.one], kernel.zero), kernel
        )
        with mpmath.workprec(160):
            for n in range(1, T + 1):
                want = mpmath.mpf(y_exact.coeffs[n].numerator) / y_exact.coeffs[n].denominator
                rel = abs(y_float.coeffs[n] - want) / want
                assert rel < mpmath.mpf(2) ** -120
