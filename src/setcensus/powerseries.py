"""Labeled EGF arithmetic on Python integers, and the block fixed point.

A labeled list f holds f_m = m! [x^m] F, the number of labeled structures of
size m when F is the EGF of a class.  mul, pow and exp are the product,
power and exponential of EGFs on such lists: the EGF product is the
binomial convolution h_m = sum_j C(m, j) f_j g_{m-j}, so every entry stays
an integer.  The exact routes of the package (exact.count, count_table,
total_count and sampler.sum_size_probability_exact) run on them.

The module also holds the package's one solver of the block-decomposition
fixed point

    y = x * exp(B'(y)),        y = x*C'(x),

which turns the derivative series of a 2-connected block family B into the
series of the connected class C, with |C_n| = (n-1)! * [x^n] y.  BlockTable
defines the step of each block kind once and runs it on any arithmetic that
supplies buffers, a dot product, a unit and a division: Python integers
(_IntKernel) for species.y_series, float64 numpy arrays in the weights
module.

Through order T each integer is D = T! times the coefficient it stands for:
[x^n] of y, B'(y), exp(B'(y)), y/(1-y), exp(y) and y^d/d! is a labeled count
over n! when the block counts are integers.  A remainder in a division, or
a poly tail term that takes an integer to a non-integer, raises
ModelViolationError.
"""

import math
import operator
from fractions import Fraction

from .errors import InternalConsistencyError, ModelViolationError

# --- labeled EGF arithmetic ---------------------------------------------------


def mul(f, g, n):
    """h_m = sum_j C(m, j) f_j g_{m-j} for m = 0..n, so h_m = m! [x^m] F*G
    when f_m = m! [x^m] F and g_m = m! [x^m] G; entries past the end of a
    list are 0.  One Pascal row is alive at a time; the leading zeros of f
    are skipped."""
    if len(g) <= n:  # g is read backwards from index m
        g = [*g, *[0] * (n + 1 - len(g))]
    a = next((j for j, v in enumerate(f) if v), n + 1)
    h, row = [], [1]
    for m in range(n + 1):
        terms = zip(row[a:], f[a:], reversed(g[: m - a + 1]))
        h.append(sum(r * x * y for r, x, y in terms) if m >= a else 0)
        row = [1, *map(operator.add, row, row[1:]), 1]
    return h


def pow(c, k, n):  # noqa: A001 - deliberate shadow, mirrors mul/exp naming
    """Labeled k-th power of c through size n, by binary exponentiation.

    The first power is c itself, not a copy.
    """
    if k < 1:
        if k == 0:
            return [1] + [0] * n
        raise ValueError("exponent must be a non-negative integer")
    if k == 1:
        return c
    half = pow(c, k // 2, n)
    square = mul(half, half, n)
    return mul(square, c, n) if k & 1 else square


def exp(c, n):
    """g_m = m! [x^m] exp(C) for m = 0..n, with c[j - 1] = j! [x^j] C for j >= 1.

    C has no constant term, so c starts at size 1; the recurrence is
    g_m = sum_j C(m-1, j-1) c_j g_{m-j}, g_0 = 1.
    """
    g, row = [1], [1]
    for m in range(1, n + 1):
        g.append(sum(r * x * y for r, x, y in zip(row, c, reversed(g))))
        row = [1, *map(operator.add, row, row[1:]), 1]
    return g


# --- block-decomposition fixed point ---------------------------------------


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

    div = staticmethod(_divide_scaled)
    factor = _IntFactor

    def __init__(self, T):
        self.one = math.factorial(T)  # D

    def zeros(self, length):
        return [0] * length

    def dot(self, a, b):
        return _divide_scaled(sum(map(operator.mul, a, b)), self.one)


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
    integer terms, or numpy arrays with ndarray.dot for float64 (the sampler
    passes those in, so this module imports no numpy).  one is the entry of
    exp(0) and div(a, n) divides by a small integer: true division by
    default, and for _IntKernel's integers over D = T! one = D and exact
    division, with dot dividing its sum by D.  The factor read backwards is
    stored reversed, term j at index cap - j: E, S = y/(1-y) (cacti), exp(y)
    (complete blocks) and y (polynomial blocks).  The factor read forwards
    is stored as it is used: n A_n, n y_n (complete blocks) and the powers
    y^d (polynomial blocks).  Buffers a kind does not use stay unfilled.
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
# integer block solve under it.
def solve_fixed_point_with_composer(T, make_table):
    """The buffer Y of y = x exp(B'(y)) with terms 0..T solved.

    make_table() -> a fresh untilted BlockTable.  The stabilization pass
    solves a second table and raises InternalConsistencyError unless it
    reproduces every coefficient exactly.
    """
    y = make_table().terms(T)
    again = make_table().terms(T)
    for n in range(T + 1):
        if again[n] != y[n]:
            raise InternalConsistencyError(
                f"fixed-point coefficient {n} changed in the stabilization pass"
            )
    return y
