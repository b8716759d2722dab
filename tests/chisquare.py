"""Upper tail of the chi-square distribution, for the goodness-of-fit tests."""

import mpmath

from setcensus.errors import DomainError


def chi_square_sf(statistic, df):
    """P(X >= statistic) for X chi-square on df degrees of freedom, as the
    regularized upper incomplete gamma Q(df/2, statistic/2)."""
    if df <= 0:
        raise DomainError(f"df = {df} must be positive")
    if statistic < 0:
        return 1.0
    with mpmath.workdps(30):
        return float(mpmath.gammainc(df / 2.0, statistic / 2.0, mpmath.inf, regularized=True))
