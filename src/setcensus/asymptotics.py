"""Asymptotic counting of labeled forests of connected structures.

The number of objects with n vertices and N = floor(lambda*n) components obeys
one of three first-order formulas depending on where lambda sits relative to
the threshold lambda* = C(rho) / (rho*C'(rho)):

* below (0 < lambda < lambda*): constant * n^{-alpha} * rho^{-n} * C(rho)^N * n!/N!
* at the threshold: the n-power becomes n^{-1/alpha} for alpha < 2,
  (n*log(lambda*'n))^{-1/2} for alpha = 2, and n^{-1/2} for alpha > 2;
* above (lambda* < lambda < 1): constant * n^{-1/2} * x_lambda^{-n} *
  C(x_lambda)^N * n!/N!, where x_lambda solves x*C'(x)/C(x) = 1/lambda.

Each rule of this table is decided once: _regime makes the closed window
[lambda* - 1e-9, lambda* + 1e-9] critical, _alpha_case takes alpha within
1e-12 of 2 as 2, and _growth_constants gives (b, rho, alpha, lambda*, C(rho));
block classes get these from a closed recipe in scalar values of B alone.

Scalar values of C, x*C', x^2*C'' for synthetic and list classes are computed
from a coefficient head plus the growth formula's tail sum_{n>H} n^{-s} z^n,
z = x/rho.  For z <= 1 - 2^-8 the tail is summed directly in float64 until a
geometric remainder bound falls below 2^-60 of the sum.  At z = 1 it is the
Hurwitz zeta(s, H + 1), an Euler-Maclaurin sum in a 34-digit decimal context
rounded once to the nearest double.  Only in the band 1 - 2^-8 < z < 1, where
the float sum would need too many terms, does mpmath's Lerch transcendent take
over.  The saddle x_lambda of these classes comes from a bracketed Newton
iteration on x*C'/C.
"""

import functools
import math
from collections import namedtuple
from enum import Enum

from . import species
from .errors import (
    DivergenceError,
    DomainError,
    InternalConsistencyError,
    NotSubcriticalError,
    PrecisionError,
    check_int,
    check_real,
)

_CRITICAL_WINDOW = 1e-9  # the half-width of the closed critical window around lambda*
_ALPHA_TOL = 1e-12
_RESIDUAL_TOL = 1e-10
_HEAD_TERMS = 64
_TAIL_BAND = 2.0**-8  # the float tail sums z <= 1 - _TAIL_BAND; mpmath the band up to z < 1
_TAIL_DIGITS = 34  # significant digits of the decimal Hurwitz sum at z = 1
_TAIL_LOG_EPS = math.log(1e-34)  # its Euler-Maclaurin truncation bound, relative to the sum
_EM_TERMS = 40  # the most Bernoulli terms it takes
_LOG_2PI = math.log(2.0 * math.pi)


class Regime(str, Enum):
    BELOW = "below"
    CRITICAL = "critical"
    ABOVE = "above"


class AlphaCase(str, Enum):
    LT2 = "alpha_lt_2"
    EQ2 = "alpha_eq_2"
    GT2 = "alpha_gt_2"


class RecipeConstants(namedtuple("RecipeConstants", "zeta b rho lambda_star C_rho")):
    """Outputs of the subcritical block recipe."""

    __slots__ = ()


class SupercriticalPoint(
    namedtuple("SupercriticalPoint", "lam y_lambda x_lambda C_x_lambda sigma2")
):
    """Saddle data at a supercritical component density lambda."""

    __slots__ = ()


class EstimateFactors(
    namedtuple(
        "EstimateFactors",
        "log_constant n_power_exponent log_power_exponent log_rho_inv_n N_log_h "
        "log_factorial_ratio",
    )
):
    """Additive decomposition of a log-count estimate.

    log_count = log_constant + n_power_exponent*log(n)
              + log_power_exponent*log(log(lambda_star*n))
              + log_rho_inv_n + N_log_h + log_factorial_ratio
    (the log-log term is present only in the alpha = 2 critical cell).
    """

    __slots__ = ()


class RegimeEstimate(
    namedtuple("RegimeEstimate", "regime alpha_case n N lam lambda_star log_count factors")
):
    """Regime, alpha case and log-count estimate at (n, N = floor(lam*n))."""

    __slots__ = ()


# --- gamma --------------------------------------------------------------------


def gamma_fn(z):
    """Gamma function on the reals, with DomainError at the poles 0, -1, -2, ..."""
    z = float(z)
    if z <= 0 and z == math.floor(z):
        raise DomainError(f"gamma has a pole at {z}")
    return math.gamma(z)


# --- root finding -------------------------------------------------------------


def _safe_newton(fdf, lo, hi):
    """Root of an increasing f with f(lo) < 0 < f(hi), starting at hi.

    fdf(x) returns (f(x), f'(x)).  Every evaluation narrows the bracket.  A
    Newton step that would leave it (or an infinite derivative) gives way to
    the secant through the bracket ends, and to bisection while an end is
    unevaluated or when the bracket has not halved over the last two steps,
    so the iterate stays in [lo, hi] and secant steps cannot stall.  It stops
    at an evaluated x where f is 0, where the Newton step no longer moves x,
    or where the bracket has closed to neighbouring floats.
    """
    flo = fhi = None
    width = [math.inf, math.inf]  # bracket widths one and two steps back
    x = hi
    for _ in range(100):
        fx, dfx = fdf(x)
        if fx == 0:
            return x
        if fx < 0:
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
        step = fx / dfx if 0 < dfx < math.inf else math.inf
        nxt = x - step
        if nxt == x:
            return x
        if not lo < nxt < hi:
            if flo is None or fhi is None or hi - lo > 0.5 * width[1]:
                nxt = 0.5 * (lo + hi)
            else:
                nxt = lo - flo * (hi - lo) / (fhi - flo)
        if not lo < nxt < hi:
            return x  # the bracket has closed to neighbouring floats
        width = [hi - lo, width[0]]
        x = nxt
    return x


# --- the subcritical block recipe ----------------------------------------------


def solve_zeta(cls):
    """Root of zeta * B''(zeta) = 1 inside (0, R), the subcriticality witness."""
    spec = cls.block_spec
    if spec is None:
        raise DomainError(f"class {cls.name} carries no block specification")
    Bpp, Bppp, R = spec.Bpp, spec.Bppp, spec.R

    def g(t):
        return t * Bpp(t) - 1.0

    def gdg(t):
        return g(t), Bpp(t) + t * Bppp(t)

    lo = 1e-12
    if g(lo) >= 0:
        lo = 1e-300
    hi = None
    if math.isinf(R):
        cand = 1.0
        for _ in range(64):
            if g(cand) > 0:
                hi = cand
                break
            cand *= 2.0
    else:
        for k in range(1, 54):
            cand = R * (1.0 - 2.0**-k)
            if g(cand) > 0:
                hi = cand
                break
    if hi is None:
        raise NotSubcriticalError(
            f"class {cls.name} is not subcritical: t*B''(t) stays below 1 on (0, R)"
        )
    # Newton from hi toward a root far below it (B'' of order 1e300) only halves
    # its distance each step, so the bracket is halved down to the root first
    while hi / 2 > lo and g(hi / 2) > 0:
        hi /= 2
    zeta = _safe_newton(gdg, lo, hi)
    if abs(zeta * Bpp(zeta) - 1.0) > _RESIDUAL_TOL:
        raise InternalConsistencyError(
            f"zeta residual too large: {zeta * Bpp(zeta) - 1.0}"
        )
    return zeta


def recipe_constants(cls):
    """Growth constants of a subcritical block class, cached on the class."""
    return species.cached(cls, "recipe", _recipe_constants, cls)


def _recipe_constants(cls):
    zeta = solve_zeta(cls)  # DomainError for a class without a block spec
    spec = cls.block_spec
    b = zeta / math.sqrt(2 * math.pi * (1.0 + zeta**2 * spec.Bppp(zeta)))
    rho = zeta * math.exp(-spec.Bp(zeta))
    lam_star = 1.0 - spec.Bp(zeta) + spec.B(zeta) / zeta
    C_rho = zeta * lam_star
    if not (0.0 < lam_star < 1.0):
        raise DomainError(
            f"class {cls.name} has degenerate threshold lambda* = {lam_star}"
        )
    return RecipeConstants(zeta=zeta, b=b, rho=rho, lambda_star=lam_star, C_rho=C_rho)


# --- scalar EGF evaluation ------------------------------------------------------


def _egf_at(cls, x):
    """(C(x), x*C'(x), x^2*C''(x)) as floats; the third entry may be inf.

    Results are cached per class and x.  For block classes the values come
    from the inverse of y*exp(-B'(y)); for synthetic and growth-annotated list
    classes from an exact coefficient head plus an analytic tail.
    """
    x = check_real("evaluation point x", x)
    if not x > 0:
        raise DomainError(f"evaluation point x = {x} must be a positive real")
    return species.cached(cls, x, _egf_values, cls, x)


def _egf_values(cls, x):
    if cls.block_spec is not None:
        return _egf_block(cls, x)
    if cls.coeff_source is species.CoeffSource.SYNTHETIC:
        species.check_synthetic_rho(cls.growth)
        # head long enough that the coefficient-rounding tail 0.5*x^n/n! is dwarfed
        head = max(_HEAD_TERMS, int(3 * cls.growth.rho) + 48)
        return _egf_head_tail(cls, x, species.coefficients(cls, head))
    if cls.coeff_source is species.CoeffSource.EXPLICIT_LIST and cls.growth is not None:
        return _egf_head_tail(cls, x, species.coefficients(cls, len(cls._memo)))
    raise DomainError(f"class {cls.name} supports no scalar EGF evaluation")


def _egf_block(cls, x):
    spec = cls.block_spec
    rc = recipe_constants(cls)
    _check_radius(x, rc.rho)
    if x >= rc.rho * (1.0 - 1e-14):
        y = rc.zeta
    else:
        def fdf(t):
            e = math.exp(-spec.Bp(t))
            return t * e - x, e * (1.0 - t * spec.Bpp(t))

        y = _safe_newton(fdf, 1e-300, rc.zeta)
    C = y - y * spec.Bp(y) + spec.B(y)
    A = y
    denom = 1.0 - y * spec.Bpp(y)
    D = math.inf if denom <= 0 else y / denom - y
    return (C, A, D)


def _check_radius(x, rho):
    """DivergenceError for x beyond the radius rho, with a relative slack of 1e-12."""
    if x > rho * (1.0 + 1e-12):
        raise DivergenceError(f"x = {x} exceeds the radius of convergence rho = {rho}")


def _egf_head_tail(cls, x, head_coeffs):
    sC = sA = sD = 0.0
    lx = math.log(x)
    for n, c in enumerate(head_coeffs, start=1):
        if c == 0:
            continue
        try:
            term = math.exp(math.log(c) + n * lx - math.lgamma(n + 1))
        except OverflowError:
            raise PrecisionError(
                f"the weight of size {n} at x = {x} exceeds the float64 range"
            ) from None
        sC += term
        sA += n * term
        sD += n * (n - 1) * term
    b, rho, alpha = cls.growth.b, cls.growth.rho, cls.growth.alpha
    _check_radius(x, rho)
    z = x / rho
    if z > 1.0 - 1e-12:
        z = 1.0
    H = len(head_coeffs)
    tC = _tail(z, 1.0 + alpha, H)
    tA = _tail(z, alpha, H)
    tA1 = _tail(z, alpha - 1.0, H)
    sC += b * tC
    sA += b * tA
    sD = sD + b * (tA1 - tA) if math.isfinite(tA1) else math.inf
    return (sC, sA, sD)


def _tail(z, s, H):
    """sum_{n > H} n^{-s} z^n for 0 < z <= 1 and s > 0 (inf when z = 1, s <= 1)."""
    if z == 1.0:
        return _hurwitz(s, H + 1) if s > 1.0 else math.inf
    if z > 1.0 - _TAIL_BAND:
        import mpmath

        with mpmath.workdps(40):
            return float(z ** (H + 1) * mpmath.lerchphi(z, s, H + 1))
    import numpy as np

    # After term M the remainder is at most M^{-s} z^{M+1}/(1-z), which is
    # z^{M-H}/(1-z) times the first term or less; stop once that is 2^-60.
    lz = math.log(z)
    terms = math.ceil((60.0 * math.log(2.0) - math.log1p(-z)) / -lz)
    n = np.arange(H + 1, H + 1 + terms, dtype=float)
    return float(np.exp(n * lz - s * np.log(n)).sum())


def _decimal_context(digits):
    """A decimal context that sets every field, rounding half to even and
    trapping what decimal's defaults trap, so that neither decimal.DefaultContext
    nor the thread's context can change what its methods return."""
    import decimal  # on first use: importing asymptotics stays cheap

    return decimal.Context(
        prec=digits,
        rounding=decimal.ROUND_HALF_EVEN,
        Emin=decimal.MIN_EMIN,
        Emax=decimal.MAX_EMAX,
        capitals=1,
        clamp=0,
        flags=[],
        traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow],
    )


@functools.cache
def _bernoulli_ratios():
    """B_2j / (2j)! for j = 1.._EM_TERMS, each an exact integer ratio rounded once.

    B_2j = (-1)^(j-1) 2j T_j / (4^j (4^j - 1)), where the tangent numbers T_j
    come from an integer recurrence (Brent and Harvey, Fast computation of
    Bernoulli, tangent and secant numbers, 2013).
    """
    from decimal import Decimal

    ctx = _decimal_context(_TAIL_DIGITS)
    T = [0, 1] + [0] * (_EM_TERMS - 1)
    for k in range(2, _EM_TERMS + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, _EM_TERMS + 1):
        for j in range(k, _EM_TERMS + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    return tuple(
        ctx.divide(
            Decimal((-1) ** (j - 1) * 2 * j * T[j]),
            Decimal(4**j * (4**j - 1) * math.factorial(2 * j)),
        )
        for j in range(1, _EM_TERMS + 1)
    )


def _hurwitz_plan(s, a):
    """(N, M) for _hurwitz: the fewest direct terms N, then the fewest Bernoulli
    terms M <= _EM_TERMS, at which the Euler-Maclaurin remainder at A = a + N,

        |R| <= 4 (s)_2M (2 pi)^-2M A^(1-s-2M) / (s + 2M - 1)

    (Johansson, Rigorous high-precision computation of the Hurwitz zeta
    function, Numerical Algorithms 2015), is at most 1e-34 times
    max(a^-s, a^(1-s)/(s-1)) <= zeta(s, a).  Taking logs, the bound holds once
    log(A/a) >= x = (k - floor - (2M - 1) log a) / (s + 2M - 1), where k is the
    log of (s)_2M (2 pi)^-2M / (s + 2M - 1) and floor = log(1e-34 / 4) +
    max(0, log(a/(s-1))).  The factor (A/a)^-s in the bound keeps N at a few
    terms for large s; for small s, a large a lets the Bernoulli terms converge
    with N = 0.  x falls with M and then rises again (the series is
    asymptotic), and the search stops where it rises.
    """
    log_a = math.log(a)
    floor = _TAIL_LOG_EPS - math.log(4.0) + max(0.0, log_a - math.log(s - 1.0))
    log_poch, last_x, best = 0.0, math.inf, None
    for M in range(1, _EM_TERMS + 1):
        log_poch += math.log(s + (2 * M - 2)) + math.log(s + (2 * M - 1))
        k = log_poch - 2 * M * _LOG_2PI - math.log(s + (2 * M - 1))
        x = (k - floor - (2 * M - 1) * log_a) / (s + (2 * M - 1))
        if x >= last_x:
            break
        last_x = x
        N = max(0, math.ceil(a * math.expm1(min(x, 50.0))))
        if best is None or N < best[0]:
            best = (N, M)
            if N == 0:
                break
    return best


def _hurwitz(s, a):
    """zeta(s, a) = sum_{k >= 0} (a + k)^-s for s > 1 and an integer a >= 1.

    Euler-Maclaurin at A = a + N with M Bernoulli terms (_hurwitz_plan),

        sum_{k < N} (a + k)^-s + A^(1-s)/(s-1) + A^-s/2
            + sum_{j <= M} B_2j/(2j)! s(s+1)...(s+2j-2) A^(-s-2j+1),

    summed in a 34-digit decimal context and rounded to a double once.  Only
    context methods are used, so the thread's decimal context is never read.
    """
    from decimal import Decimal

    s = float(s)
    N, M = _hurwitz_plan(s, a)
    ctx = _decimal_context(_TAIL_DIGITS)
    sd, minus_s = Decimal.from_float(s), Decimal.from_float(-s)

    def power(n):
        # n^-s: libmpdec's power at an integer s; otherwise exp(-s ln n), which
        # takes half the time of its power at a fractional exponent
        if s.is_integer():
            return ctx.power(n, minus_s)
        return ctx.exp(ctx.multiply(ctx.ln(n), minus_s))

    A = Decimal(a + N)
    A_s, A2 = power(A), ctx.multiply(A, A)
    total = ctx.add(ctx.divide(ctx.multiply(A, A_s), ctx.subtract(sd, 1)), ctx.divide(A_s, 2))
    term = ctx.divide(ctx.multiply(sd, A_s), A)  # (s)_(2j-1) A^(-s-2j+1) at j = 1
    for j, c in enumerate(_bernoulli_ratios()[:M], start=1):
        total = ctx.fma(c, term, total)
        step = ctx.multiply(ctx.add(sd, 2 * j - 1), ctx.add(sd, 2 * j))
        term = ctx.divide(ctx.multiply(term, step), A2)
    for n in range(a + N - 1, a - 1, -1):  # the direct terms, smallest first
        total = ctx.add(total, power(Decimal(n)))
    return float(total)


def lambda_star(cls):
    """Threshold density C(rho) / (rho * C'(rho))."""
    return _growth_constants(cls)[3]


def _growth_constants(cls):
    """(b, rho, alpha, lambda_star, C_rho): the recipe's for block classes (trees too)."""
    if cls.block_spec is not None:
        rc = recipe_constants(cls)
        return rc.b, rc.rho, species.SUBCRITICAL_ALPHA, rc.lambda_star, rc.C_rho
    if cls.growth is None:
        raise DomainError(
            f"class {cls.name} declares no growth parameters; asymptotics are unavailable"
        )
    g = cls.growth
    C, A, _ = _egf_at(cls, g.rho)
    lam_star = C / A
    if not (0.0 < lam_star < 1.0):
        raise DomainError(f"class {cls.name} has degenerate threshold lambda* = {lam_star}")
    return g.b, g.rho, g.alpha, lam_star, C


# --- supercritical saddle -------------------------------------------------------


def solve_supercritical(cls, lam):
    """Saddle point x_lambda with x*C'(x)/C(x) = 1/lambda, for lambda* < lambda < 1.

    Results are cached per class and lambda, next to the _egf_at values.
    """
    lam = check_real("lambda", lam)
    return species.cached(cls, ("saddle", lam), _saddle, cls, lam)


def _saddle(cls, lam):
    lam_star = lambda_star(cls)
    if not (lam_star < lam < 1.0):
        raise DomainError(
            f"lambda = {lam} is not in the supercritical range ({lam_star}, 1)"
        )
    if cls.block_spec is not None:
        return _supercritical_block(cls, lam)
    return _supercritical_scalar(cls, lam)


def _supercritical_block(cls, lam):
    # The saddle y solves g(y) = 1 - lambda, where g = B' - B/t rises from 0
    # at 0+ to 1 - lambda* at zeta; g' = B'' - g/t.
    spec = cls.block_spec
    rc = recipe_constants(cls)
    gap = spec.gap
    if gap is None:

        def fdf(t):
            return (
                lam - (1.0 - spec.Bp(t) + spec.B(t) / t),
                spec.Bpp(t) - spec.Bp(t) / t + spec.B(t) / t**2,
            )

    else:

        def fdf(t):
            g = gap(t)
            return g - (1.0 - lam), spec.Bpp(t) - g / t

    y = _safe_newton(fdf, 1e-12 * rc.zeta, rc.zeta)
    if abs(fdf(y)[0]) > _RESIDUAL_TOL:
        raise InternalConsistencyError(f"saddle residual too large at lambda = {lam}")
    x = y * math.exp(-spec.Bp(y))
    C = lam * y
    denom = 1.0 - y * spec.Bpp(y)
    D = y / denom - y
    sigma2 = D / C + 1.0 / lam - 1.0 / lam**2
    return SupercriticalPoint(lam=lam, y_lambda=y, x_lambda=x, C_x_lambda=C, sigma2=sigma2)


def _supercritical_scalar(cls, lam):
    rho = cls.growth.rho
    target = 1.0 / lam

    def fdf(x):
        C, A, D = _egf_at(cls, x)
        return A / C - target, (C * (A + D) - A * A) / (x * C * C)

    # A/C rises from 1 at x = 0+ to 1/lambda* > target at rho, which brackets the
    # root.  Starting at rho (cached by lambda_star) puts the first Newton steps
    # on the side from which they approach a convex ratio without overshooting.
    x = _safe_newton(fdf, rho * 1e-9, rho)
    C, A, D = _egf_at(cls, x)
    if abs(A / C - target) > _RESIDUAL_TOL:
        raise InternalConsistencyError(f"saddle residual too large at lambda = {lam}")
    sigma2 = D / C + 1.0 / lam - 1.0 / lam**2
    return SupercriticalPoint(lam=lam, y_lambda=A, x_lambda=x, C_x_lambda=C, sigma2=sigma2)


# --- the regime table -------------------------------------------------------------


def _regime(lam, lam_star):
    """The regime of lambda: the closed window [lambda* - w, lambda* + w] is critical."""
    if lam < lam_star - _CRITICAL_WINDOW:
        return Regime.BELOW
    if lam <= lam_star + _CRITICAL_WINDOW:
        return Regime.CRITICAL
    return Regime.ABOVE


def _alpha_case(alpha):
    """The alpha case: alpha within 1e-12 of 2 counts as 2."""
    if alpha < 2.0 - _ALPHA_TOL:
        return AlphaCase.LT2
    if alpha <= 2.0 + _ALPHA_TOL:
        return AlphaCase.EQ2
    return AlphaCase.GT2


def constant_below(cls, lam):
    """Leading constant in the sparse-components regime 0 < lambda < lambda*."""
    lam = check_real("lambda", lam)
    b, _rho, alpha, lam_star, C_rho = _growth_constants(cls)
    if not (0.0 < lam < lam_star):
        raise DomainError(f"lambda = {lam} is not in (0, lambda* = {lam_star})")
    return b * lam / (C_rho * (1.0 - lam / lam_star) ** (alpha + 1.0))


def constant_critical(cls):
    """Leading constant at lambda = lambda* (defined for alpha <= 2)."""
    b, _rho, alpha, lam_star, C_rho = _growth_constants(cls)
    alpha_case = _alpha_case(alpha)
    if alpha_case is AlphaCase.LT2:
        num = alpha * C_rho
        den = lam_star * b * abs(gamma_fn(1.0 - alpha))
        return (num / den) ** (1.0 / alpha) / abs(gamma_fn(-1.0 / alpha))
    if alpha_case is AlphaCase.EQ2:
        return math.sqrt(C_rho / (b * math.pi * lam_star))
    raise DomainError(
        "for alpha > 2 the critical constant is the gaussian one; "
        "use constant_above at lambda = lambda*"
    )


def _sigma2_at_rho(cls):
    b, rho, alpha, lam_star, C_rho = _growth_constants(cls)
    if _alpha_case(alpha) is not AlphaCase.GT2:
        raise DomainError("the variance at rho is finite only for alpha > 2")
    _C, _A, D = _egf_at(cls, rho)
    return D / C_rho + 1.0 / lam_star - 1.0 / lam_star**2


def constant_above(cls, lam):
    """Gaussian constant 1/sqrt(2*pi*sigma2*lambda) for lambda* <= lambda < 1.

    lambda = lambda* itself is admitted only when alpha > 2 (where the
    variance stays finite at rho).
    """
    lam = check_real("lambda", lam)
    lam_star = _growth_constants(cls)[3]
    if not (lam_star <= lam < 1.0):
        raise DomainError(f"lambda = {lam} is not in [lambda* = {lam_star}, 1)")
    if _regime(lam, lam_star) is Regime.CRITICAL:
        sigma2 = _sigma2_at_rho(cls)
        lam_eff = lam_star
    else:
        sigma2 = solve_supercritical(cls, lam).sigma2
        lam_eff = lam
    if not (sigma2 > 0 and math.isfinite(sigma2)):
        raise DomainError(f"variance {sigma2} is not positive finite at lambda = {lam}")
    return 1.0 / math.sqrt(2.0 * math.pi * sigma2 * lam_eff)


# --- the regime classifier ------------------------------------------------------


def classify(cls, lam):
    """(regime, alpha_case, leading constant, saddle) at density lambda.

    lambda in [lambda* - 1e-9, lambda* + 1e-9] is critical, where the constant is
    the critical one for alpha <= 2 and the gaussian one at lambda* above.
    The saddle is the SupercriticalPoint above lambda* and None otherwise.
    """
    lam = check_real("lambda", lam)
    _b, _rho, alpha, lam_star, _C = _growth_constants(cls)
    regime, alpha_case = _regime(lam, lam_star), _alpha_case(alpha)
    sp = None
    if regime is Regime.BELOW:
        const = constant_below(cls, lam)
    elif regime is Regime.ABOVE:
        sp = solve_supercritical(cls, lam)
        const = constant_above(cls, lam)
    elif alpha_case is AlphaCase.GT2:
        const = constant_above(cls, lam_star)
    else:
        const = constant_critical(cls)
    return regime, alpha_case, const, sp


def estimate(cls, n, lam):
    """First-order estimate of log count(n, floor(lambda*n)) with its factors."""
    n = check_int("n", n, 2)
    lam = check_real("lambda", lam)
    if not (0.0 < lam < 1.0):
        raise DomainError(f"lambda = {lam} must lie strictly between 0 and 1")
    N = int(math.floor(lam * check_real("n", n) + 1e-9))  # DomainError beyond the float range
    if N < 1:
        raise DomainError(f"floor(lambda*n) = {N}; need at least one component")

    _b, rho, alpha, lam_star, C_rho = _growth_constants(cls)
    regime, alpha_case, const, sp = classify(cls, lam)
    n_power = -0.5
    log_power = 0.0
    x_base, h = rho, C_rho
    if regime is Regime.BELOW:
        n_power = -alpha
    elif regime is Regime.ABOVE:
        x_base, h = sp.x_lambda, sp.C_x_lambda
    elif alpha_case is AlphaCase.LT2:
        n_power = -1.0 / alpha
    elif alpha_case is AlphaCase.EQ2:
        if lam_star * n <= 1.0:
            raise DomainError(
                f"n = {n} is too small for the log-corrected critical formula"
            )
        log_power = -0.5

    factors = EstimateFactors(
        log_constant=math.log(const),
        n_power_exponent=n_power,
        log_power_exponent=log_power,
        log_rho_inv_n=-n * math.log(x_base),
        N_log_h=N * math.log(h),
        log_factorial_ratio=math.lgamma(n + 1) - math.lgamma(N + 1),
    )
    log_count = (
        factors.log_constant
        + factors.n_power_exponent * math.log(n)
        + (factors.log_power_exponent * math.log(math.log(lam_star * n)) if log_power else 0.0)
        + factors.log_rho_inv_n
        + factors.N_log_h
        + factors.log_factorial_ratio
    )
    return RegimeEstimate(
        regime=regime,
        alpha_case=alpha_case,
        n=n,
        N=N,
        lam=lam,
        lambda_star=lam_star,
        log_count=log_count,
        factors=factors,
    )
