"""Exact and high-precision counting of forests of connected structures.

count(n, k) is the number of labeled objects on n vertices made of exactly k
connected components: count(n, k) = (n!/k!) * [x^n] C(x)^k, a non-negative
integer computed with exact rational arithmetic.  count_log evaluates the same
coefficient extraction in fixed-precision floating point, which reaches sizes
where the exact route is too slow.  count_table reuses one running power of C
to produce a whole row of counts.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

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


def _c_egf_exact(cls, T, usable=None):
    """SeriesExact of the EGF C(x) through order T.

    Extracting [x^T] C^k only ever touches component sizes up to T - k + 1,
    so callers may pass usable = T - k + 1; sizes above it are padded with
    zeros, which keeps explicit coefficient lists usable at their full reach.
    """
    U = T if usable is None else min(usable, T)
    counts = species.coefficients(cls, U)
    coeffs = [Fraction(0)]
    fact = 1
    for n in range(1, T + 1):
        fact *= n
        coeffs.append(Fraction(counts[n - 1], fact) if n <= U else Fraction(0))
    return ps.SeriesExact(coeffs)


def _c_egf_float(cls, T, precision_bits, usable=None):
    """SeriesFloat of the EGF C(x) through order T (see _c_egf_exact on usable).

    Block classes avoid huge integers entirely: [x^n] C = y_n / n where y is
    the float solution of the block fixed point.  Other classes convert their
    exact counts.
    """
    import mpmath

    U = T if usable is None else min(usable, T)
    with mpmath.workprec(precision_bits):
        if cls.coeff_source is species.CoeffSource.BLOCK_DERIVED:
            y = species.y_series(cls, U, exact=False, precision_bits=precision_bits)
            coeffs = [mpmath.mpf(0)] + [y.coeffs[n] / n for n in range(1, U + 1)]
        else:
            counts = species.coefficients(cls, U)
            coeffs = [mpmath.mpf(0)] + [
                mpmath.mpf(counts[n - 1]) / mpmath.factorial(n) for n in range(1, U + 1)
            ]
        coeffs.extend(mpmath.mpf(0) for _ in range(T - U))
    return ps.SeriesFloat(coeffs, precision_bits)


def count(cls, n, k):
    """Number of objects with n vertices and exactly k components, exactly."""
    n, k = _check_domain(n, k)
    c = _c_egf_exact(cls, n, usable=n - k + 1)
    p = ps.pow(c, k, n)
    val = p.coeffs[n] * math.factorial(n) / Fraction(math.factorial(k))
    if val.denominator != 1 or val < 0:
        raise InternalConsistencyError(
            f"count({n}, {k}) = {val} is not a non-negative integer"
        )
    return int(val)


def count_log(cls, n, k, precision_bits=ps.DEFAULT_PRECISION_BITS):
    """log count(n, k) via float coefficient extraction at the given precision."""
    import mpmath

    n, k = _check_domain(n, k)
    c = _c_egf_float(cls, n, precision_bits, usable=n - k + 1)
    p = ps.pow(c, k, n)
    with mpmath.workprec(precision_bits):
        coef = p.coeffs[n]
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
    ks = sorted(set(range(1, n + 1) if k_range is None else (int(k) for k in k_range)))
    if not ks or ks[0] < 1 or ks[-1] > n:
        raise DomainError(f"k_range must select integers within [1, {n}]")
    wanted = set(ks)
    c = _c_egf_exact(cls, n, usable=n - ks[0] + 1)
    n_fact = math.factorial(n)
    rows = []
    power = c
    k_fact = 1
    for k in range(1, ks[-1] + 1):
        if k > 1:
            power = ps.mul(power, c, n)
            k_fact *= k
        if k in wanted:
            val = power.coeffs[n] * n_fact / Fraction(k_fact)
            if val.denominator != 1 or val < 0:
                raise InternalConsistencyError(
                    f"count({n}, {k}) = {val} is not a non-negative integer"
                )
            cnt = int(val)
            rows.append((k, cnt, math.log(cnt) if cnt > 0 else -math.inf))
    return CountTable(n=n, rows=tuple(rows))


def total_count(cls, n):
    """Number of objects with n vertices and any number of components.

    Equals n! [x^n] exp(C(x)); used as a row-sum cross-check on count_table.
    """
    if n != int(n) or n < 1:
        raise DomainError(f"n = {n} must be a positive integer")
    n = int(n)
    g = ps.exp(_c_egf_exact(cls, n), n)
    val = g.coeffs[n] * math.factorial(n)
    if val.denominator != 1 or val < 0:
        raise InternalConsistencyError(f"total count at n = {n} is {val}")
    return int(val)
