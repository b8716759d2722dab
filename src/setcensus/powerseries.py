"""Truncated power-series arithmetic for exponential generating functions.

Two coefficient flavors: SeriesExact holds arbitrary-precision rationals (no
rounding anywhere); SeriesFloat holds mpmath floats at a configurable
mantissa width (default 128 bits) for species.y_series(exact=False).  mul,
pow, pow_coefficient, exp and compose are their ring arithmetic.  The exact
routes of the package run on Python integers instead, and count_log beyond
its exact tier on the float64 weights of the weights module.

The module holds the package's one solver of the block-decomposition fixed
point

    y = x * exp(B'(y)),        y = x*C'(x),

which turns the derivative series of a 2-connected block family B into the
series of the connected class C, with |C_n| = (n-1)! * [x^n] y.  BlockTable
defines the step of each block kind once and runs it on any arithmetic that
supplies buffers, a dot product, a unit and a division: Python integers
(_IntKernel) for species.coefficients and y_series(exact=True), mpmath
lists for y_series(exact=False), float64 numpy arrays in the weights module.

Through order T each integer is D = T! times the coefficient it stands for:
[x^n] of y, B'(y), exp(B'(y)), y/(1-y), exp(y) and y^d/d! is a labeled count
over n! when the block counts are integers.  A remainder in a division, or
a poly tail term that takes an integer to a non-integer, raises
ModelViolationError.
"""

import contextlib
import math
import numbers
import operator
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

    def zeros(self, length):
        return [self.zero] * length

    def dot(self, a, b):
        return sum(map(operator.mul, a, b), self.zero)

    div = staticmethod(operator.truediv)

    def factor(self, t):
        return t if self.exact else _to_mpf(t)

    def lift(self, series, T):
        out = [self.zero] * (T + 1)
        for k in range(min(series.order, T) + 1):
            out[k] = series.coeffs[k]
        return out


def _divide_scaled(a, b):
    q, r = divmod(a, b)
    if r:
        raise ModelViolationError(
            "a fixed-point coefficient times T! is not an integer; block spec is inconsistent"
        )
    return q


class _IntFactor(Fraction):
    """A block coefficient whose product with an integer must be an integer."""

    def __mul__(self, v):
        return _divide_scaled(self.numerator * v, self.denominator)

    __rmul__ = __mul__


class _IntKernel:
    """Python integers, each D = T! times the coefficient it stands for."""

    ctx = contextlib.nullcontext
    div = staticmethod(_divide_scaled)
    factor = _IntFactor

    def __init__(self, T):
        self.one = math.factorial(T)  # D

    def wrap(self, coeffs):
        return SeriesExact([Fraction(c, self.one) for c in coeffs])

    def zeros(self, length):
        return [0] * length

    def dot(self, a, b):
        return _divide_scaled(sum(map(operator.mul, a, b)), self.one)


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


class BlockTable:
    """Term-by-term solve of y = x exp(B'(y)) for one block kind, tilted by x.

    The package's one block fixed-point step: Y[n] = [x^n] y times x^n, so
    x = 1 solves y itself and the sampler's x < rho keeps the terms O(1).
    A = B'(y) and E = exp(A); term n depends only on the terms below it, so
    the table grows in place and terms 1..M are the same numbers whatever
    length it reaches.  kind is "edge" (B' = u), "cactus" (u/2 + u/(2(1-u))),
    "complete" (e^u - 1) or "poly" (B' = sum_d tail[d-1] u^d).

    The buffers come from zeros(length) and every convolution is one
    dot(a, b) of two slices: Python lists with sum(map(mul, a, b)) for
    integer, Fraction and mpmath terms, or numpy arrays with ndarray.dot for
    float64 (the sampler passes those in, so this module imports no numpy).
    one is the entry of exp(0) and div(a, n) divides by a small integer:
    true division by default, and for _IntKernel's integers over D = T!
    one = D and exact division, with dot dividing its sum by D.  The
    factor read backwards is stored reversed, term j at index cap - j: E,
    S = y/(1-y) (cacti), exp(y) (complete blocks) and y (polynomial blocks).
    The factor read forwards is stored as it is used: n A_n, n y_n (complete
    blocks) and the powers y^d (polynomial blocks).  Buffers a kind does not
    use stay unfilled.
    """

    def __init__(self, kind, tail, x, zeros, dot, one=1, div=operator.truediv):
        self.kind, self.tail, self.x = kind, list(tail), x
        self.zeros, self.dot, self.div = zeros, dot, div
        self.n = 0  # terms 1..n are solved
        self.cap = 0
        self.Y, self.kA, self.kY = zeros(1), zeros(1), zeros(1)
        self.P = [zeros(1) for _ in self.tail[1:]]  # y^2, y^3, ...
        self.Er, self.Sr, self.EYr, self.Yr = zeros(1), zeros(1), zeros(1), zeros(1)
        self.Er[0] = self.EYr[0] = one  # exp(0)

    def terms(self, M):
        """The buffer Y with terms 0..M solved (entries past M are not final)."""
        if M > self.cap:
            self._grow(M)
        if M > self.n:
            self._solve(M)
        return self.Y

    def _grow(self, cap):
        old, zeros = self.cap, self.zeros

        def forward(a):
            b = zeros(cap + 1)
            b[: old + 1] = a
            return b

        def backward(a):
            b = zeros(cap + 1)
            b[cap - old :] = a
            return b

        self.Y, self.kA, self.kY = map(forward, (self.Y, self.kA, self.kY))
        self.P = list(map(forward, self.P))
        self.Er, self.Sr, self.EYr, self.Yr = map(backward, (self.Er, self.Sr, self.EYr, self.Yr))
        self.cap = cap

    def _solve(self, M):
        x, c, kind, tail, dot, div = self.x, self.cap, self.kind, self.tail, self.dot, self.div
        Y, kA, kY, Er, Sr, EYr, Yr = self.Y, self.kA, self.kY, self.Er, self.Sr, self.EYr, self.Yr
        P = [Y] + self.P  # P[d - 1] holds y^d
        e = Er[c - self.n]
        for n in range(self.n + 1, M + 1):
            y = x * e
            Y[n] = y
            if kind == "edge":
                a = y
            elif kind == "cactus":
                s = y + dot(Y[1:n], Sr[c - n + 1 : c])
                Sr[c - n] = s
                a = div(y + s, 2)
            elif kind == "complete":
                kY[n] = n * y
                a = div(dot(kY[1 : n + 1], EYr[c - n + 1 : c + 1]), n)
                EYr[c - n] = a
            else:
                Yr[c - n] = y
                for d in range(2, min(len(tail), n) + 1):
                    P[d - 1][n] = dot(P[d - 2][d - 1 : n], Yr[c - n + d - 1 : c])
                a = sum(t * P[d][n] for d, t in enumerate(tail) if t)
            kA[n] = n * a
            e = div(dot(kA[1 : n + 1], Er[c - n + 1 : c + 1]), n)
            Er[c - n] = e
        self.n = M


# The name predates BlockTable: the benchmark's layer trace reports the
# exact and mpmath block solves under it.
def solve_fixed_point_with_composer(T, make_table, kernel):
    """y = x exp(B'(y)) through order T, as a series of the kernel's flavor.

    make_table() -> a fresh untilted BlockTable on the kernel's zeros and dot.
    The stabilization pass solves a second table and raises
    InternalConsistencyError unless it reproduces every coefficient exactly.
    """
    with kernel.ctx():
        y = make_table().terms(T)
        again = make_table().terms(T)
        for n in range(T + 1):
            if again[n] != y[n]:
                raise InternalConsistencyError(
                    f"fixed-point coefficient {n} changed in the stabilization pass"
                )
        return kernel.wrap(y)


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
