"""Tilted component-size weights and their convolution powers, in float64.

w[j] = |C_{j+1}| x^{j+1} / (j+1)! is the weight of size j + 1 at the
Boltzmann parameter x.  With W the sum of the first M weights and S_k the
sum of k iid sizes drawn with probabilities w / W,

    count(n, k) = (n!/k!) W^k x^(-n) P(S_k = n)    for M >= n - k + 1,

which the sampler uses to draw and test sizes and exact.count_log uses to
count beyond its exact tier.  Block classes solve their weights with
powerseries.BlockTable on float64 arrays, tilted by x^n; the other classes
evaluate exact counts or the growth formula in logs, and an exact count
whose weight passes the float64 range raises PrecisionError.
species._table_cap bounds every table's length.  This module imports
numpy and nothing else that is heavy; the sampler imports it, and
exact.count_log imports it only when it needs the float tier.
"""

import math

# Siblings before numpy, for the reason given in the sampler.
from . import powerseries as ps
from . import species
from .asymptotics import _safe_newton
from .errors import PrecisionError

import numpy as np

_FORMULA_HEAD = 64  # synthetic classes: exact integers at least this far, formula beyond


def _log_factorials(M):
    # lgamma(n+1) for n = 1..M via cumulative sum
    return np.cumsum(np.log(np.arange(1, M + 1, dtype=float)))


def _weights(cls, x, M):
    """w[j] = |C_{j+1}| x^{j+1} / (j+1)! as float64, j = 0..M-1."""
    return _weight_table(cls, x)(M)


def _weight_table(cls, x):
    """The function M -> _weights(cls, x, M) for one class at one x.

    A block class keeps its fixed-point table between calls and only extends
    it, so a search over growing M solves each entry once.
    """
    if cls.coeff_source is species.CoeffSource.BLOCK_DERIVED:
        return _block_weights(cls, x)
    return lambda M: _formula_weights(cls, x, M)


def _formula_weights(cls, x, M):
    species._table_cap(cls, M)
    ns = np.arange(1, M + 1, dtype=float)
    logfact = _log_factorials(M)
    if cls.coeff_source is species.CoeffSource.CLOSED_FORM:
        # the only closed form is Cayley's n^{n-2}
        logw = (ns - 2.0) * np.log(ns) + ns * math.log(x) - logfact
        return np.exp(logw)
    # exact counts for a head of H sizes, the growth formula beyond it
    g = cls.growth
    if cls.coeff_source is species.CoeffSource.SYNTHETIC:
        H = _exact_head(g, M)
    else:  # explicit list: without growth, species.coefficients rejects M past the list
        H = M if g is None else min(M, len(cls._memo))
    w = np.zeros(M)
    for j, c in enumerate(species.coefficients(cls, H)):
        if c:
            try:
                w[j] = math.exp(math.log(c) + (j + 1) * math.log(x) - logfact[j])
            except OverflowError:
                raise PrecisionError(
                    f"the weight of size {j + 1} at x = {x} exceeds the float64 range"
                ) from None
    if M > H:
        tail_ns = ns[H:]
        w[H:] = np.exp(
            math.log(g.b) - (1.0 + g.alpha) * np.log(tail_ns) + tail_ns * math.log(x / g.rho)
        )
    return w


def _exact_head(g, M):
    """How many leading sizes of a synthetic class take their exact counts.

    At least _FORMULA_HEAD, and on while the count stays below 2^54: rounding
    the formula to an integer moves a smaller count by more than 2^-55 of
    itself (the count at size 65 is about 7 when rho = 20), and the counts
    only grow once they pass 2^54.
    """
    species.check_synthetic_rho(g)
    log_b, log_rho, H = math.log(g.b), math.log(g.rho), _FORMULA_HEAD
    while H < M and (
        log_b - (1 + g.alpha) * math.log(H + 1) - (H + 1) * log_rho + math.lgamma(H + 2)
        < 54 * math.log(2)
    ):
        H += 1
    return min(H, M)


def _dot(a, b):
    return float(a.dot(b))


def _block_weights(cls, x):
    """M -> _weights for a block class at x, from one growing float64 BlockTable."""
    spec = cls.block_spec
    tail = [float(c) for c in spec.tail]
    table = ps.BlockTable(spec.kind, tail, ps.Tilted(x, np.zeros, _dot))

    def weights(M):
        species._table_cap(cls, M)
        return table.terms(M)[1 : M + 1] / np.arange(1, M + 1, dtype=float)

    return weights


def _log_power_coefficient(a, k, total):
    """log [t^total] a(t)^k for a non-negative float64 a of length total + 1.

    Binary powering truncates every product at total and divides it by the
    power of two at or above its largest entry.  The division is exact and
    keeps the largest entry in [1/2, 1], so nothing overflows, and the powers
    of an entry that is a power of two, such as a[0] = 1, stay exact.  -inf
    when the coefficient is 0.  With a the pmf of a size law, this is
    log P(S_k = total) for the sum S_k of k iid 0-based size indices.
    """
    width = total + 1
    power, base, base_exp = None, a, 0
    while True:
        if k & 1:
            if power is None:
                power, power_exp = base, base_exp
            else:
                power, e = _rescaled(np.convolve(power, base)[:width])
                power_exp += base_exp + e
        k >>= 1
        if not k:
            c = float(power[total])
            return math.log(c) + power_exp * math.log(2) if c > 0 else -math.inf
        base, e = _rescaled(np.convolve(base, base)[:width])
        base_exp = 2 * base_exp + e


def _rescaled(v):
    """(v / 2^e, e) with 2^e at or above the largest entry of v, and e = 0 for zeros."""
    e = math.frexp(float(v.max()))[1]
    return np.ldexp(v, -e), e


def _mean_tilt(cls, M, mean):
    """The x at which the size law truncated to sizes 1..M has the given mean.

    The mean is held at least half a size below the largest size with a
    non-zero count, so x stays finite; a class with a single such size gets
    x = 1, since then every x gives the same counts.  The smallest size is 1,
    below every mean count_log asks for.
    """
    counts = species.coefficients(cls, M)
    sizes = np.array([j for j, c in enumerate(counts, 1) if c], dtype=float)
    if len(sizes) == 1:
        return 1.0
    logw = np.array([math.log(c) - math.lgamma(j + 1) for j, c in enumerate(counts, 1) if c])
    target = min(mean, sizes[-1] - 0.5)

    def fdf(t):
        e = logw + sizes * t
        p = np.exp(e - e.max())
        p /= p.sum()
        m = float(p.dot(sizes))
        return m - target, float(p.dot((sizes - m) ** 2))

    lo, hi = -1.0, 1.0
    while fdf(lo)[0] >= 0:
        lo *= 2
    while fdf(hi)[0] <= 0:
        hi *= 2
    return math.exp(_safe_newton(fdf, lo, hi))
