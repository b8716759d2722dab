"""Labeled EGF arithmetic on Python integers, and the block fixed point.

A labeled list f holds f_m = m! [x^m] F, the number of labeled structures of
size m when F is the EGF of a class.  mul, pow and exp are the product,
power and exponential of EGFs on such lists: the EGF product is the
binomial convolution h_m = sum_j C(m, j) f_j g_{m-j}, so every entry stays
an integer.  mul skips the leading zeros of both factors, keeps only the
binomials of its window and sums each pair of a square once, and pow forms
each power of its binary chain only through the sizes that can still reach n,
so C^k through n, with C from size 1, costs about (n - k + 1)^2 / 2 products
and as many binomial additions per convolution, half that per square.
pow_top returns the entry n of C^k alone: it takes the last product of the
chain as one binomial dot at n, about n - k + 1 products (half for a
square) in place of that whole convolution.  The exact routes of the
package (exact.count, count_table, total_count and
sampler.sum_size_probability_exact) run on them.

The module also holds the package's one solver of the block-decomposition
fixed point

    y = x * exp(B'(y)),        y = x*C'(x),

which turns the derivative series of a 2-connected block family B into the
series of the connected class C, with |C_n| = (n-1)! * [x^n] y.  BlockTable
defines the step of each block kind once and takes its arithmetic from a
kernel: Labeled runs it on labeled counts in Python integers (n! times each
coefficient, binomial-weighted like mul and exp) for species.y_series, and
Tilted on coefficients tilted by x^n in the caller's buffers, float64 numpy
arrays in the weights module.  Each block class solves its labeled table
once: species keeps the table with the class and extends it to each larger
size asked for.  A poly block whose labeled B'(y) is not an integer raises
ModelViolationError naming the size.
"""

import math
import numbers
import operator
from itertools import accumulate, islice

from .errors import ModelViolationError

# --- labeled EGF arithmetic ---------------------------------------------------


def mul(f, g, n):
    """h_m = sum_j C(m, j) f_j g_{m-j} for m = 0..n, so h_m = m! [x^m] F*G
    when f_m = m! [x^m] F and g_m = m! [x^m] G; entries past the end of a
    list are 0.  With f_a and g_b the first non-zero entries, h_m = 0 for
    m < a + b and sums over j in [a, m - b] only, so the row of binomials
    kept holds C(m, j) for those j; it steps from m - 1 with the edge
    binomials C(m - 1, a - 1) and C(m - 1, b - 1).  A square (f is g, as pow
    forms it) sums each pair j < m - j once on the half row j in [a, m // 2]."""
    square = f is g
    if len(g) <= n:  # g is read backwards from index m
        g = [*g, *[0] * (n + 1 - len(g))]
    f = g if square else f
    a = next((j for j, v in enumerate(f) if v), n + 1)
    b = a if square else next((j for j, v in enumerate(g) if v), n + 1)
    if a + b > n:
        return [0] * (n + 1)
    row = [math.comb(a + b, a)]
    left, right = (math.comb(a + b, a - 1) if a else 0), (math.comb(a + b, b - 1) if b else 0)
    h = [0] * (a + b) + [row[0] * f[a] * g[b]]
    for m in range(a + b + 1, n + 1):
        if square:  # C(m - 1, m/2) = C(m - 1, m/2 - 1) ends the half row at an even m
            row = [*map(operator.add, [left, *row], row if m & 1 else [*row, row[-1]])]
            pairs = _dot(row, f[a : (m + 1) // 2], reversed(f[m // 2 + 1 : m - a + 1]))
            h.append(2 * pairs + (0 if m & 1 else row[-1] * f[m // 2] ** 2))
        else:
            row = [*map(operator.add, [left, *row], [*row, right])]
            right = right * m // (m - b + 1)
            h.append(_dot(row, f[a : m - b + 1], reversed(g[b : m - a + 1])))
        left = left * m // (m - a + 1)
    return h


def _dot(row, x, y):
    """sum_i row_i x_i y_i, stopping at the shortest."""
    return sum(map(operator.mul, map(operator.mul, row, x), y))


def pow(c, k, n):  # noqa: A001 - deliberate shadow, mirrors mul/exp naming
    """Labeled k-th power of c through size n, by binary exponentiation.

    The first power is c itself, not a copy.  With c_v the first non-zero
    entry, C^(k-h) starts at size (k-h) v, so C^h = C^(k//2) is formed only
    through n - (k-h) v and its square through n - (k mod 2) v; every entry
    0..n is the same integer as that of the full chain.
    """
    if not isinstance(k, numbers.Integral) or k < 0:
        raise ValueError(f"exponent must be a non-negative integer, got {k!r}")
    if k == 0:
        return [1] + [0] * n
    if k == 1:
        return c
    v = next((j for j, x in enumerate(c) if x), n + 1)
    h = k // 2
    if (k - h) * v > n:
        return [0] * (n + 1)
    half = pow(c, h, n - (k - h) * v)
    square = mul(half, half, n - (k & 1) * v)
    return mul(square, c, n) if k & 1 else square


def pow_top(c, k, n):
    """n! [x^n] C^k, the entry n of pow(c, k, n), without the rest of its last
    product: C^(k-1) through n - v (k odd) or C^(k/2) through n - (k/2) v
    (k even) comes from pow, and the product of it by C or by itself is the
    one binomial dot sum_j C(n, j) f_j g_{n-j}, each pair of a square once.
    c holds at least the sizes 0..n."""
    if not isinstance(k, numbers.Integral) or k < 2:
        return pow(c, k, n)[n]  # raises for a bad k; C^0 = 1 and C^1 = c
    v = next((j for j, x in enumerate(c) if x), n + 1)
    if k * v > n:
        return 0
    b = v if k & 1 else k // 2 * v  # g starts at size b and f at a = k v - b
    f = pow(c, k - 1, n - v) if k & 1 else pow(c, k // 2, n - b)
    a, hi = (k * v - b, n - b) if k & 1 else (b, n // 2)
    row = [*accumulate(range(a + 1, hi + 1), lambda r, j: r * (n - j + 1) // j, initial=math.comb(n, a))]
    if k & 1:
        return _dot(row, f[a : n - b + 1], reversed(c[b : n - a + 1]))
    pairs = _dot(row, f[a : (n + 1) // 2], reversed(f[n // 2 + 1 : n - a + 1]))
    return 2 * pairs + (0 if n & 1 else row[-1] * f[n // 2] ** 2)


def exp(c, n):
    """g_m = m! [x^m] exp(C) for m = 0..n, with c[j - 1] = j! [x^j] C for j >= 1.

    C has no constant term, so c starts at size 1; the recurrence is
    g_m = sum_j C(m-1, j-1) c_j g_{m-j}, g_0 = 1.
    """
    g, row = [1], [1]
    for m in range(1, n + 1):
        g.append(_dot(row, c, reversed(g)))
        row = [1, *map(operator.add, row, row[1:]), 1]
    return g


# --- block-decomposition fixed point ---------------------------------------


class Labeled:
    """Python integers, each n! times the coefficient of size n it stands for.

    conv and exp_conv weigh their terms by one Pascal row per n, which lift
    advances, so a kernel serves one table; mark keeps an integer as it is
    and raises ModelViolationError for any other value.
    """

    zeros = staticmethod(lambda length: [0] * length)
    half = staticmethod(lambda v: v // 2)  # y + y/(1-y): y^j counts ordered j-tuples

    def __init__(self):
        self.row = [1]  # C(n, .) of the last step opened

    def lift(self, n, e):
        """n! [x^n] y = n e_{n-1}; opens step n."""
        row = self.prev = self.row
        self.row = [1, *map(operator.add, row, row[1:]), 1]
        return n * e

    @staticmethod
    def mark(n, v):
        if v.denominator != 1:
            raise ModelViolationError(
                f"B'(y) at size n = {n} has labeled count {v}, not an integer; "
                "block spec is inconsistent"
            )
        return v.numerator

    def conv(self, lo, a, b):
        """sum_i C(n, lo + i) a_i b_i, the size-n term of an EGF product."""
        return _dot(islice(self.row, lo, None), a, b)

    def exp_conv(self, n, a, b):
        """sum_j C(n-1, j-1) a_j b_{n-j}, with a = a_1..a_n and b = b_{n-1}..b_0."""
        return _dot(self.prev, a, b)


class Tilted:
    """Coefficients tilted by x^n, Y[n] = x^n [x^n] y, in the caller's buffers:
    float64 numpy arrays for the sampler (this module imports no numpy), or
    lists of Fractions in the tests, with dot(a, b) their plain dot product.
    exp(A) follows E_n = (1/n) sum_j j A_j E_{n-j}, so mark stores n A_n."""

    mark = staticmethod(operator.mul)
    half = staticmethod(lambda v: v / 2)

    def __init__(self, x, zeros, dot):
        self.x, self.zeros, self.dot = x, zeros, dot

    def lift(self, n, e):
        return self.x * e

    def conv(self, lo, a, b):
        return self.dot(a, b)

    def exp_conv(self, n, a, b):
        return self.dot(a, b) / n


class BlockTable:
    """Term-by-term solve of y = x exp(B'(y)) for one block kind.

    The package's one block fixed-point step.  A = B'(y) and E = exp(A);
    term n depends only on the terms below it, so the table grows in place
    and terms 1..M are the same numbers whatever length it reaches.  kind is
    "edge" (B' = u), "cactus" (u/2 + u/(2(1-u))), "complete" (e^u - 1) or
    "poly" (B' = sum_d tail[d-1] u^d).

    The kernel (Labeled or Tilted) supplies the arithmetic: zeros(length)
    for the buffers, lift(n, e) for y_n from e_{n-1}, conv(lo, a, b) for an
    EGF product whose first term has size lo, exp_conv(n, a, b) for the
    recurrence e_n of an exponential (e_n = sum_j C(n-1, j-1) a_j e_{n-j}
    labeled), whose forward factor is stored as mark(n, v), and half(v).
    Every convolution is one call on two slices.
    The factor read backwards is stored reversed, term j at index cap - j:
    E, S = y/(1-y) (cacti), exp(y) (complete blocks) and y (polynomial
    blocks).  The factor read forwards is stored marked: A and y (complete
    blocks); the powers y^d (polynomial blocks) are stored as they are.
    Buffers a kind does not use stay unfilled.
    """

    def __init__(self, kind, tail, kernel):
        self.kind, self.tail, self.kernel = kind, list(tail), kernel
        zeros = kernel.zeros
        self.n = 0  # terms 1..n are solved
        self.cap = 0
        self.Y, self.kA, self.kY = zeros(1), zeros(1), zeros(1)
        self.P = [zeros(1) for _ in self.tail[1:]]  # y^2, y^3, ...
        self.Er, self.Sr, self.EYr, self.Yr = zeros(1), zeros(1), zeros(1), zeros(1)
        self.Er[0] = self.EYr[0] = 1  # exp(0)

    def terms(self, M):
        """The buffer Y with terms 0..M solved (entries past M are not final)."""
        if M > self.cap:
            self._grow(M)
        if M > self.n:
            self._solve(M)
        return self.Y

    def _grow(self, cap):
        old, zeros = self.cap, self.kernel.zeros

        def moved(a, at):  # a copied to index at of a buffer of length cap + 1
            b = zeros(cap + 1)
            b[at : at + old + 1] = a
            return b

        self.Y, self.kA, self.kY = (moved(a, 0) for a in (self.Y, self.kA, self.kY))
        self.P = [moved(a, 0) for a in self.P]
        self.Er, self.Sr, self.EYr, self.Yr = (
            moved(a, cap - old) for a in (self.Er, self.Sr, self.EYr, self.Yr)
        )
        self.cap = cap

    def _solve(self, M):
        k, c, kind, tail = self.kernel, self.cap, self.kind, self.tail
        lift, mark, conv, exp_conv = k.lift, k.mark, k.conv, k.exp_conv
        Y, kA, kY, Er, Sr, EYr, Yr = self.Y, self.kA, self.kY, self.Er, self.Sr, self.EYr, self.Yr
        P = [Y] + self.P  # P[d - 1] holds y^d
        e = Er[c - self.n]
        for n in range(self.n + 1, M + 1):
            y = lift(n, e)
            Y[n] = y
            if kind == "edge":
                a = y
            elif kind == "cactus":
                s = y + conv(1, Y[1:n], Sr[c - n + 1 : c])
                Sr[c - n] = s
                a = k.half(y + s)
            elif kind == "complete":
                kY[n] = mark(n, y)
                a = exp_conv(n, kY[1 : n + 1], EYr[c - n + 1 : c + 1])
                EYr[c - n] = a
            else:
                Yr[c - n] = y
                for d in range(2, min(len(tail), n) + 1):
                    P[d - 1][n] = conv(d - 1, P[d - 2][d - 1 : n], Yr[c - n + d - 1 : c])
                a = sum(t * P[d][n] for d, t in enumerate(tail) if t)
            kA[n] = mark(n, a)
            e = exp_conv(n, kA[1 : n + 1], Er[c - n + 1 : c + 1])
            Er[c - n] = e
        self.n = M


# table.terms(T) under a module-level name: the benchmark's layer trace
# wraps module attributes and reports the integer block solve under this one.
def solve_fixed_point_with_composer(T, table):
    """table.terms(T): the buffer Y of y = x exp(B'(y)), extended through T."""
    return table.terms(T)
