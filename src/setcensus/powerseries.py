"""Truncated power-series arithmetic for exponential generating functions.

Two coefficient flavors: SeriesExact holds arbitrary-precision rationals (no
rounding anywhere) for the block fixed point of species.coefficients and for
sampler.sum_size_probability_exact; SeriesFloat holds mpmath floats at a
configurable mantissa width (default 128 bits) for exact.count_log and
species.y_series(exact=False).  exact.count, count_table and total_count use
neither: they run on labeled integer counts.

count_log and sum_size_probability_exact read [x^n] C^k as [x^(n-k)] (C/x)^k,
on n - k + 1 coefficients, through pow_coefficient.

Beyond ring arithmetic (mul, pow, exp, compose) the module solves the
block-decomposition fixed point

    y = x * exp(B'(y)),        y = x*C'(x),

which turns the derivative series of a 2-connected block family B into the
series of the connected class C, via

    C(x) = y - y*B'(y) + B(y),      |C_n| = (n-1)! * [x^n] y.
"""

import contextlib
import numbers
from fractions import Fraction

from .errors import (
    ConstantTermError,
    DomainError,
    FlavorMismatchError,
    InternalConsistencyError,
    ModelViolationError,
)

DEFAULT_PRECISION_BITS = 128


class SeriesExact:
    """Truncated series with exact rational coefficients c_0..c_T."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("series needs at least the constant coefficient")

    @property
    def order(self):
        return len(self.coeffs) - 1

    def __getitem__(self, k):
        return self.coeffs[k] if 0 <= k <= self.order else Fraction(0)

    def __eq__(self, other):
        return isinstance(other, SeriesExact) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"SeriesExact([{head}{tail}], order={self.order})"


class SeriesFloat:
    """Truncated series with mpmath floating coefficients.

    precision_bits fixes the mantissa width used when the coefficients were
    produced; operations on two float series run at the larger of the two
    widths.
    """

    __slots__ = ("coeffs", "precision_bits")

    def __init__(self, coeffs, precision_bits=DEFAULT_PRECISION_BITS):
        import mpmath

        self.precision_bits = check_precision_bits(precision_bits)
        with mpmath.workprec(self.precision_bits):
            self.coeffs = tuple(_to_mpf(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("series needs at least the constant coefficient")

    @property
    def order(self):
        return len(self.coeffs) - 1

    def __getitem__(self, k):
        if 0 <= k <= self.order:
            return self.coeffs[k]
        import mpmath

        return mpmath.mpf(0)

    def __repr__(self):
        import mpmath

        head = ", ".join(mpmath.nstr(c, 8) for c in self.coeffs[:6])
        tail = ", ..." if self.order >= 6 else ""
        return f"SeriesFloat([{head}{tail}], order={self.order}, bits={self.precision_bits})"


def check_precision_bits(bits):
    """bits as an int; DomainError unless it is an integer of at least 8."""
    if not isinstance(bits, numbers.Integral) or bits < 8:
        raise DomainError(f"precision_bits = {bits!r} must be an integer of at least 8")
    return int(bits)


def _to_mpf(c):
    import mpmath

    if isinstance(c, Fraction):
        return mpmath.mpf(c.numerator) / c.denominator
    return mpmath.mpf(c)


class _Kernel:
    """Flavor-neutral coefficient arithmetic on plain lists."""

    def __init__(self, exact, precision_bits=DEFAULT_PRECISION_BITS):
        self.exact = exact
        self.precision_bits = precision_bits
        if exact:
            self.zero, self.one = Fraction(0), Fraction(1)
        else:
            import mpmath

            self.zero, self.one = mpmath.mpf(0), mpmath.mpf(1)

    def ctx(self):
        if self.exact:
            return contextlib.nullcontext()
        import mpmath

        return mpmath.workprec(self.precision_bits)

    def wrap(self, coeffs):
        if self.exact:
            return SeriesExact(coeffs)
        return SeriesFloat(coeffs, self.precision_bits)

    def lift(self, series, T):
        out = [self.zero] * (T + 1)
        for k in range(min(series.order, T) + 1):
            out[k] = series.coeffs[k]
        return out


def _kernel_for(*series_args):
    kinds = {type(s) for s in series_args}
    if kinds == {SeriesExact}:
        return _Kernel(exact=True)
    if kinds == {SeriesFloat}:
        bits = max(s.precision_bits for s in series_args)
        return _Kernel(exact=False, precision_bits=bits)
    raise FlavorMismatchError(
        "cannot mix SeriesExact and SeriesFloat operands; convert explicitly"
    )


def _mul_lists(a, b, T, zero):
    out = [zero] * (T + 1)
    for i, ai in enumerate(a):
        if i > T or not ai:
            continue
        top = min(T - i, len(b) - 1)
        for j in range(top + 1):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def mul(a, b, T):
    """Cauchy product of two same-flavor series, truncated at order T."""
    k = _kernel_for(a, b)
    with k.ctx():
        return k.wrap(_mul_lists(k.lift(a, T), k.lift(b, T), T, k.zero))


def _pow_factors(a, m, T, zero, one):
    """(r, b) with a**m = r*b through order T: b = a**(2**j) for the top bit j
    of m and r the product of the lower bits, every product truncated at T."""
    r = [one] + [zero] * T
    while m > 1:
        if m & 1:
            r = _mul_lists(r, a, T, zero)
        m >>= 1
        a = _mul_lists(a, a, T, zero)
    return (r, a) if m else (r, r)


def pow(a, m, T):  # noqa: A001 - deliberate shadow, mirrors mul/exp/compose naming
    """a**m truncated at T, by binary exponentiation with truncation after each multiply."""
    if m < 0 or m != int(m):
        raise ValueError("exponent must be a non-negative integer")
    k = _kernel_for(a)
    with k.ctx():
        r, b = _pow_factors(k.lift(a, T), int(m), T, k.zero, k.one)
        return k.wrap(_mul_lists(r, b, T, k.zero))


def pow_coefficient(a, m, M):
    """[x^M] a**m, equal to pow(a, m, M).coeffs[M] bit for bit: the same products,
    but the last forms only its x^M coefficient, summed in mul's order."""
    if min(m, M) < 0 or m != int(m) or M != int(M):
        raise ValueError("exponent and order must be non-negative integers")
    k, M = _kernel_for(a), int(M)
    with k.ctx():
        r, b = _pow_factors(k.lift(a, M), int(m), M, k.zero, k.one)
        return sum((x * y for x, y in zip(r, reversed(b)) if x and y), k.zero)


def _exp_lists(a, T, zero, one):
    # n*f_n = sum_{j=1..n} j*a_j*f_{n-j}, f_0 = 1
    f = [one] + [zero] * T
    for n in range(1, T + 1):
        s = zero
        for j in range(1, n + 1):
            aj = a[j] if j < len(a) else zero
            if aj:
                s += j * aj * f[n - j]
        f[n] = s / n
    return f


def exp(a, T):
    """Series exponential of a, requiring a_0 = 0."""
    k = _kernel_for(a)
    if a.coeffs[0] != 0:
        raise ConstantTermError("exp requires a series with zero constant term")
    with k.ctx():
        return k.wrap(_exp_lists(k.lift(a, T), T, k.zero, k.one))


def compose(f, g, T):
    """f(g(x)) truncated at T, requiring g_0 = 0 (Horner over truncated series)."""
    k = _kernel_for(f, g)
    if g.coeffs[0] != 0:
        raise ConstantTermError("compose requires the inner series to have zero constant term")
    with k.ctx():
        gl = k.lift(g, T)
        acc = [f.coeffs[f.order]] + [k.zero] * T
        for d in range(f.order - 1, -1, -1):
            acc = _mul_lists(acc, gl, T, k.zero)
            acc[0] += f.coeffs[d]
        return k.wrap(acc)


# --- block-decomposition fixed point ---------------------------------------


class PolynomialComposer:
    """Incremental evaluator of A = P(y) for a polynomial P with P(0) = 0.

    step(y, n) must be called for n = 1, 2, ... in order, with y[1..n] final;
    it returns [x^n] P(y). Internal power arrays make the total cost of T
    steps O(deg(P) * T^2) coefficient operations.
    """

    def __init__(self, tail_coeffs, zero):
        # tail_coeffs[d-1] is the coefficient of u^d, d = 1..D
        self.c = list(tail_coeffs)
        while self.c and not self.c[-1]:
            self.c.pop()
        self.zero = zero
        self.powers = [[zero] for _ in self.c]  # powers[d-1][m] = [x^m] y^d

    def step(self, y, n):
        acc = self.zero
        for d in range(1, len(self.c) + 1):
            p = self.powers[d - 1]
            if d == 1:
                p.append(y[n])
            elif d > n:
                p.append(self.zero)
            else:
                prev = self.powers[d - 2]
                s = self.zero
                for j in range(d - 1, n):
                    pj = prev[j]
                    if pj:
                        s += pj * y[n - j]
                p.append(s)
            if self.c[d - 1]:
                acc += self.c[d - 1] * p[n]
        return acc


def _run_fixed_point(T, make_composer, zero, one, expected=None):
    """One full pass of y <- x*exp(A(y)) organized coefficient-by-coefficient.

    Each loop iteration fixes exactly one further coefficient of y (the
    classical contraction argument: pass n of the naive whole-series sweep
    freezes [x^n] y, and that coefficient depends only on already-frozen
    ones).  With expected set, verifies the pass reproduces it.
    """
    comp = make_composer()
    y = [zero] * (T + 1)
    A = [zero] * (T + 1)
    E = [one] + [zero] * T  # exp(A)
    for n in range(1, T + 1):
        y[n] = E[n - 1]
        if expected is not None:
            if y[n] != expected[n]:
                raise InternalConsistencyError(
                    f"fixed-point coefficient {n} changed in the stabilization pass"
                )
            y[n] = expected[n]
        A[n] = comp.step(y, n)
        s = zero
        for j in range(1, n + 1):
            aj = A[j]
            if aj:
                s += j * aj * E[n - j]
        E[n] = s / n
    return y


def solve_fixed_point_with_composer(T, make_composer, kernel):
    """Solve y = x*exp(A(y)) where A is evaluated by a caller-supplied composer.

    make_composer() -> object with step(y, n) as in PolynomialComposer.  Runs
    the T coefficient-fixing passes and then one stabilization pass that must
    reproduce every coefficient exactly.
    """
    with kernel.ctx():
        y = _run_fixed_point(T, make_composer, kernel.zero, kernel.one)
        _run_fixed_point(T, make_composer, kernel.zero, kernel.one, expected=y)
        return kernel.wrap(y)


def solve_block_fixed_point(bprime, T):
    """Solve y = x*exp(B'(y)) through order T for a truncated B' series.

    The returned y has y_0 = 0, y_1 = 1 and satisfies
    y = x*exp(compose(bprime, y)) through order T.  Cost is
    O(bprime.order * T^2) coefficient operations.
    """
    k = _kernel_for(bprime)
    if bprime.coeffs[0] != 0:
        raise ConstantTermError("B' must have zero constant term (B starts at x^2)")
    tail = list(bprime.coeffs[1:])
    return solve_fixed_point_with_composer(
        T, lambda: PolynomialComposer(tail, k.zero), k
    )


def connected_coeffs_from_y(y, n_max):
    """Recover |C_n| = (n-1)! * [x^n] y for n = 1..n_max (exact flavor only)."""
    if not isinstance(y, SeriesExact):
        raise FlavorMismatchError("connected counts require the exact flavor")
    if y.order < n_max:
        raise ValueError(f"y is truncated at order {y.order} < n_max = {n_max}")
    out = []
    fact = 1  # (n-1)!
    for n in range(1, n_max + 1):
        c = fact * y.coeffs[n]
        if c.denominator != 1:
            raise ModelViolationError(
                f"(n-1)! * [x^{n}] y = {c} is not an integer; block spec is inconsistent"
            )
        if c < 0:
            raise ModelViolationError(f"negative connected count at n = {n}")
        out.append(int(c))
        fact *= n
    return out


def c_series_from_blocks(y, b, bprime, T):
    """EGF of the connected class: C = y - y*B'(y) + B(y), truncated at T.

    Exact flavor only; the result is cross-checked coefficientwise against
    connected_coeffs_from_y so the two derivations of |C_n| agree.
    """
    if not all(isinstance(s, SeriesExact) for s in (y, b, bprime)):
        raise FlavorMismatchError("c_series_from_blocks requires the exact flavor")
    bp_y = compose(bprime, y, T)
    b_y = compose(b, y, T)
    prod = mul(y, bp_y, T)
    coeffs = [y[k] - prod[k] + b_y[k] for k in range(T + 1)]
    cs = SeriesExact(coeffs)
    counts = connected_coeffs_from_y(y, T)
    fact = 1
    for n in range(1, T + 1):
        fact *= n
        if cs.coeffs[n] * fact != counts[n - 1]:
            raise InternalConsistencyError(
                f"block routes disagree at n = {n}: "
                f"{cs.coeffs[n] * fact} vs {counts[n - 1]}"
            )
    return cs
