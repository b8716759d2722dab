"""Exact and high-precision counting of forests of connected structures.

count(n, k) is the number of labeled objects on n vertices made of exactly k
connected components: count(n, k) = (n!/k!) * [x^n] C(x)^k, a non-negative
integer computed on the labeled counts |C_m| = m! [x^m] C in Python integers,
where the EGF product is a binomial convolution.  count_log evaluates the same
coefficient in fixed-precision floating point, which reaches sizes where the
exact route is too slow, as [x^(n-k)] (C/x)^k: a binary power of the n - k + 1
coefficients [x^1..x^(n-k+1)] C, truncated at n - k, whose last product forms
only its top coefficient.  count_table reuses one running power of C to
produce a whole row of counts.
"""

import math
from dataclasses import dataclass
from operator import add

from . import powerseries as ps
from . import species
from .errors import DomainError, InternalConsistencyError, PrecisionError


@dataclass(frozen=True)
class CountTable:
    """Counts for one vertex count n over a set of component counts k."""

    n: int
    rows: tuple  # (k, count, log_count) triples, k increasing


def _check_domain(n, k):
    if n != int(n) or n < 1:
        raise DomainError(f"n = {n} must be a positive integer")
    if k != int(k) or not (1 <= k <= n):
        raise DomainError(f"k = {k} must be an integer in [1, n = {n}]")
    return int(n), int(k)


def _labeled_counts(cls, n, usable):
    """[0, |C_1|, ..., |C_usable|, 0, ...] of length n + 1; n! [x^n] C^k needs
    sizes up to n - k + 1 only, so explicit lists keep their full reach."""
    return [0, *species.coefficients(cls, usable), *[0] * (n - usable)]


def _labeled_product(f, g, n):
    """h_m = sum_j C(m, j) f_j g_{m-j} for m = 0..n, so h_m = m! [x^m] F*G
    when f_m = m! [x^m] F and g_m = m! [x^m] G.  One Pascal row is alive at a
    time; the leading zeros of f are skipped."""
    a = next((j for j, v in enumerate(f) if v), n + 1)
    h, row = [], [1]
    for m in range(n + 1):
        terms = zip(row[a:], f[a:], reversed(g[: m - a + 1]))
        h.append(sum(r * x * y for r, x, y in terms) if m >= a else 0)
        row = [1, *map(add, row, row[1:]), 1]
    return h


def _labeled_power(c, k, n):
    """Labeled k-th power of c through size n, by binary exponentiation."""
    if k == 1:
        return c
    half = _labeled_power(c, k // 2, n)
    square = _labeled_product(half, half, n)
    return _labeled_product(square, c, n) if k & 1 else square


def _divide_exact(value, k_fact, what):
    q, r = divmod(value, k_fact)
    if r or q < 0:
        raise InternalConsistencyError(f"{what} = {value}/{k_fact} is not a non-negative integer")
    return q


def _c_over_x_float(cls, M, precision_bits):
    """SeriesFloat of C(x)/x through order M, from [x^1..x^(M+1)] C.

    Block classes avoid huge integers entirely: [x^m] C = y_m / m where y is
    the float solution of the block fixed point.  Other classes convert their
    exact counts.
    """
    import mpmath

    with mpmath.workprec(precision_bits):
        if cls.coeff_source is species.CoeffSource.BLOCK_DERIVED:
            y = species.y_series(cls, M + 1, exact=False, precision_bits=precision_bits)
            coeffs = [y.coeffs[m] / m for m in range(1, M + 2)]
        else:
            counts = species.coefficients(cls, M + 1)
            coeffs = [mpmath.mpf(c) / mpmath.factorial(m) for m, c in enumerate(counts, 1)]
    return ps.SeriesFloat(coeffs, precision_bits)


def count(cls, n, k):
    """Number of objects with n vertices and exactly k components, exactly."""
    n, k = _check_domain(n, k)
    power = _labeled_power(_labeled_counts(cls, n, n - k + 1), k, n)
    return _divide_exact(power[n], math.factorial(k), f"count({n}, {k})")


def count_log(cls, n, k, precision_bits=ps.DEFAULT_PRECISION_BITS):
    """log count(n, k) = log((n!/k!) [x^(n-k)] (C/x)^k) at the given precision."""
    import mpmath

    n, k = _check_domain(n, k)
    precision_bits = ps.check_precision_bits(precision_bits)
    coef = ps.pow_coefficient(_c_over_x_float(cls, n - k, precision_bits), k, n - k)
    with mpmath.workprec(precision_bits):
        if coef <= 0:
            raise PrecisionError(
                f"[x^{n}] C^{k} evaluated to {coef}; increase precision",
                suggested=2 * precision_bits,
            )
        val = mpmath.log(coef) + mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1)
        return float(val)


def count_table(cls, n, k_range=None):
    """CountTable of (k, count, log count) built from one running power of C.

    k_range is an iterable of component counts within [1, n]; default all.
    log_count is the natural log of the exact integer (-inf for zero counts).
    """
    if n != int(n) or n < 1:
        raise DomainError(f"n = {n} must be a positive integer")
    n = int(n)
    ks = list(range(1, n + 1) if k_range is None else k_range)
    if any(k != int(k) for k in ks):
        raise DomainError(f"k_range = {ks} must select integers")
    ks = sorted({int(k) for k in ks})
    if not ks or ks[0] < 1 or ks[-1] > n:
        raise DomainError(f"k_range must select integers within [1, {n}]")
    wanted = set(ks)
    c = _labeled_counts(cls, n, n - ks[0] + 1)
    rows = []
    power = c
    k_fact = 1
    for k in range(1, ks[-1] + 1):
        if k > 1:
            power = _labeled_product(power, c, n)
            k_fact *= k
        if k in wanted:
            cnt = _divide_exact(power[n], k_fact, f"count({n}, {k})")
            rows.append((k, cnt, math.log(cnt) if cnt > 0 else -math.inf))
    return CountTable(n=n, rows=tuple(rows))


def total_count(cls, n):
    """Number of objects with n vertices and any number of components.

    Equals n! [x^n] exp(C(x)), by G_m = sum_j C(m-1, j-1) |C_j| G_{m-j};
    used as a row-sum cross-check on count_table.
    """
    if n != int(n) or n < 1:
        raise DomainError(f"n = {n} must be a positive integer")
    n = int(n)
    c = species.coefficients(cls, n)
    g, row = [1], [1]
    for m in range(1, n + 1):
        g.append(sum(r * x * y for r, x, y in zip(row, c, reversed(g))))
        row = [1, *map(add, row, row[1:]), 1]
    return _divide_exact(g[n], 1, f"total count at n = {n}")
