"""Exact counting of forests of connected structures, and its logarithm.

count(n, k) is the number of labeled objects on n vertices made of exactly k
connected components: count(n, k) = (n!/k!) * [x^n] C(x)^k, a non-negative
integer computed on the labeled counts |C_m| = m! [x^m] C in Python integers,
where the EGF product is a binomial convolution.  count reads the one
coefficient n! [x^n] C^k from powerseries.pow_top, which forms the power
before the last through powerseries.pow and the last product only at n.
count_table reuses one running power of C to produce a whole row of counts,
and total_count takes powerseries.exp.  All three build lists of n + 1
counts, so an n past species._table_cap raises PrecisionError.

count_log(n, k) returns log count(n, k) as a float, by one of two tiers
chosen from (n, k) alone:

* the exact tier, when n <= 200 and n (n - k + 1) <= 12 000: log count(n, k)
  as the nearest double, from _ln, which gives count_table's logs too.  _ln
  works in fixed point with Ziv's rounding test.  With v = 2^(s-Q) y, 2^Q <=
  y < 2^(Q+1), and c = 2^Q (1 + i/2^B) the leading B + 1 bits of y, ln v =
  s ln 2 + ln(1 + i/2^B) + 2 atanh((y - c) / (y + c)) (Brent and Zimmermann,
  Modern Computer Arithmetic, ch. 4).  ln 2 and the table, built once per Q,
  are each within a unit 2^-Q, the bits of v below y cost under one, and the
  series, summed in truncated integers until its J-th term is 0, is low by
  under 6 J + 8; so the sum X is within E = s + 6 J + 12 units of 2^Q ln v.
  If (X - E) / 2^Q and (X + E) / 2^Q round to one double (int division rounds
  correctly), monotone rounding sends ln v there too; else Q, first 128,
  doubles.  For v > 1 this ends: ln v is transcendental (Lindemann), so not a
  double nor a midpoint, and E 2^-Q falls to 0, as J grows like Q / 10.
  Each of the ~2 log2 k binomial convolutions behind count but the last makes
  about (n - k + 1)^2 / 2 big-integer products, half that for a square, and
  about as many additions for the binomials of its window; the last is one
  dot of about n - k + 1 products.  The bounds stay where they were set for
  n (n - k + 1) products and full Pascal rows: no count_log output moves;
* the float tier beyond: the Boltzmann identity of the weights module,

      count(n, k) = (n!/k!) W^k x^(-n) P(S_k = n - k),

  on the n - k + 1 float64 weights w_j = |C_j| x^j / j! with sum W, where S_k
  is the sum of k iid 0-based size indices with law w / W.  x is the saddle
  x_lambda of lambda = k/n above lambda*, and rho at or below it; a class
  without growth parameters is tilted where the truncated size law has mean
  n/k.  With w_1 = |C_1| x, the tier evaluates

      log count = log Q + k log |C_1| - (n - k) log x + sum_{j=k+1..n} log j,
      Q = [t^(n-k)] (sum_j (w_j / w_1) t^(j-1))^k = P(S_k = n - k) (W / w_1)^k,

  in which no two large terms cancel when k is close to n, and the leading
  coefficient 1 of the powered series has exact powers.  Every term of the
  truncated convolutions behind Q is non-negative; each of the at most
  2 log2 k convolutions of length n - k + 1 adds a relative error of at most
  (n - k + 1) 2^-53 per entry (Higham, Accuracy and Stability of Numerical
  Algorithms, ch. 3).  Squaring doubles the error its operand carries, so
  the worst case grows like k (n - k + 1) 2^-53, but the roundings do not
  line up: against the exact tier, on trees, cacti, Husimi graphs, three
  synthetic classes and two lists, the log stayed within a fifth of
  (n - k + 1) max(1, log2 k) 2^-53 max(1, |log count|), and the tests hold
  it to that bound.
"""

import functools
import math
from collections import namedtuple

from . import asymptotics
from . import powerseries as ps
from . import species
from .errors import DomainError, InternalConsistencyError, PrecisionError, check_int

_EXACT_TIER_MAX_N = 200  # set for full Pascal rows; kept so that no count_log output moves
_EXACT_TIER_MAX_WORK = 12_000  # bounds n (n - k + 1); the module docstring says why
_LN_Q, _LN_B = 128, 4  # first fraction bits of the fixed-point logarithm, index bits of its table


class CountTable(namedtuple("CountTable", "n rows")):
    """Counts for one vertex count n over a set of component counts k: rows
    holds (k, count, log_count) triples, k increasing."""

    __slots__ = ()


def _check_domain(n, k):
    n = check_int("n", n, 1)
    return n, check_int("k", k, 1, n)


def _labeled_counts(cls, n, usable):
    """[0, |C_1|, ..., |C_usable|, 0, ...] of length n + 1, n within the class's
    species._table_cap; n! [x^n] C^k needs sizes up to n - k + 1 only, so
    explicit lists keep their full reach."""
    counts = species.coefficients(cls, usable)
    species._table_cap(cls, n)
    return [0, *counts, *[0] * (n - usable)]


def _divide_exact(value, k_fact, what):
    q, r = divmod(value, k_fact)
    if r or q < 0:
        raise InternalConsistencyError(f"{what} = {value}/{k_fact} is not a non-negative integer")
    return q


def count(cls, n, k):
    """Number of objects with n vertices and exactly k components, exactly."""
    n, k = _check_domain(n, k)
    top = ps.pow_top(_labeled_counts(cls, n, n - k + 1), k, n)
    return _divide_exact(top, math.factorial(k), f"count({n}, {k})")


def _in_exact_tier(n, k):
    """Whether count_log takes the log of the exact count at this (n, k)."""
    return n <= _EXACT_TIER_MAX_N and n * (n - k + 1) <= _EXACT_TIER_MAX_WORK


def count_log(cls, n, k, precision_bits=None):
    """log count(n, k) as a float, from the exact count or from float64 weights.

    The module docstring states the rule that picks the tier, the exact
    tier's logarithm and the float tier's error bound.  precision_bits is
    accepted and ignored: the exact tier always gives the nearest double to
    the log.  The keyword stays only because TestFrozenCountLog still passes it.
    """
    n, k = _check_domain(n, k)
    if _in_exact_tier(n, k):
        value = count(cls, n, k)
        if value > 0:
            return _ln(value)
    else:
        value = _tilted_count_log(cls, n, k)
        if value is not None:
            return value
    # no suggested precision: an exact-tier 0 is exact, and no precision moves the float tier
    raise PrecisionError(f"count({n}, {k}) evaluated to 0, which has no logarithm")


def _atanh2(a, b, q):
    """(2 atanh(a/b) 2^q rounded down, its number of series terms), 0 <= a/b < 1/2."""
    t = (a << q) // b
    t2, total, j = t * t >> q, 0, 1
    while t:
        total, t, j = total + t // j, t * t2 >> q, j + 2
    return 2 * total, j // 2


@functools.cache
def _ln_table(q):
    """ln(1 + i/2^B) 2^q for 0 <= i <= 2^B (the last is ln 2), each within one unit."""
    b = 1 << _LN_B
    return [(_atanh2(i, 2 * b + i, q + 32)[0] + (1 << 31)) >> 32 for i in range(b + 1)]


def _ln(value):
    """ln value as the nearest double, for an integer value >= 1 (ln 1 is 0.0)."""
    if value == 1:
        return 0.0
    q, b, s = _LN_Q, _LN_B, value.bit_length() - 1
    while True:  # the module docstring says why this ends
        y = value << q - s if s <= q else value >> s - q  # 2^q <= y < 2^(q+1)
        c = y >> q - b << q - b  # 2^q (1 + i/2^b): the leading b + 1 bits of y
        series, terms = _atanh2(y - c, y + c, q)
        table = _ln_table(q)
        x = s * table[-1] + table[(c >> q - b) - (1 << b)] + series
        err = s + 6 * terms + 12  # the module docstring's E
        low = (x - err) / (1 << q)
        if low == (x + err) / (1 << q):
            return low
        q *= 2


def _tilted_count_log(cls, n, k):
    """The float tier of count_log, or None when Q comes out 0."""
    from . import weights  # numpy: loaded only when this tier runs

    M = n - k + 1
    if cls.coeff_source is species.CoeffSource.EXPLICIT_LIST:
        species.coefficients(cls, M)  # DomainError beyond the list, as count raises
    x = _tilt(cls, n, k)
    w = weights._weights(cls, x, M)
    # weights relative to size 1's: the size-1 entry is 1 exactly, so the many
    # size-1 components of a composition near k = n add no rounding
    log_q = weights._log_power_coefficient(w / w[0], k, n - k)
    if not log_q > -math.inf:
        return None
    log_falling = math.fsum(map(math.log, range(k + 1, n + 1)))  # log(n!/k!)
    c1 = species.coefficients(cls, 1)[0]
    return log_q + k * math.log(c1) - (n - k) * math.log(x) + log_falling


def _tilt(cls, n, k):
    """Boltzmann parameter of the float tier: x_lambda where lambda = k/n < 1
    is above the critical window (asymptotics._regime), else rho, and for a
    class without growth parameters the x where the size law truncated to
    n - k + 1 sizes has mean n/k.  Any x gives the same count; this one keeps
    the weights near the sizes a composition of n into k parts uses.  The
    class without growth parameters keeps its tilt in the class's cache."""
    if cls.growth is None:
        from . import weights

        return species.cached(cls, ("tilt", n, k), weights._mean_tilt, cls, n - k + 1, n / k)
    lam, lam_star = k / n, asymptotics.lambda_star(cls)
    if lam < 1.0 and asymptotics._regime(lam, lam_star) is asymptotics.Regime.ABOVE:
        return asymptotics.solve_supercritical(cls, lam).x_lambda
    return cls.growth.rho


def count_table(cls, n, k_range=None):
    """CountTable of (k, count, log count) built from one running power of C.

    k_range is an iterable of component counts within [1, n]; default all.
    log_count is ln of the exact integer as the nearest double (-inf for 0).
    """
    n = check_int("n", n, 1)
    ks = list(range(1, n + 1) if k_range is None else k_range)
    ks = sorted({check_int("k", k, 1, n) for k in ks})
    if not ks:
        raise DomainError(f"k_range must select integers within [1, {n}]")
    wanted = set(ks)
    c = _labeled_counts(cls, n, n - ks[0] + 1)
    rows = []
    power = ps.pow(c, ks[0], n)
    k_fact = math.factorial(ks[0])
    for k in range(ks[0], ks[-1] + 1):
        if k > ks[0]:
            power = ps.mul(power, c, n)
            k_fact *= k
        if k in wanted:
            cnt = _divide_exact(power[n], k_fact, f"count({n}, {k})")
            rows.append((k, cnt, _ln(cnt) if cnt > 0 else -math.inf))
    return CountTable(n=n, rows=tuple(rows))


def total_count(cls, n):
    """Number of objects with n vertices and any number of components.

    Equals n! [x^n] exp(C(x)), by G_m = sum_j C(m-1, j-1) |C_j| G_{m-j};
    used as a row-sum cross-check on count_table.
    """
    n = check_int("n", n, 1)
    g = ps.exp(species.coefficients(cls, n), n)
    return _divide_exact(g[n], 1, f"total count at n = {n}")
