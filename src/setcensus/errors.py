"""Exception hierarchy shared by all setcensus modules.

Each class carries what the CLI reports for it: ``code``, the error code of
its stderr record, and ``exit_status``, 2 for domain and validation
failures, 3 for precision shortfalls and 4 for exhausted retry budgets.
"""

import math
import numbers


class SetCensusError(Exception):
    """Base class for all errors raised by this package."""

    code = "domain"  # DomainError's too
    exit_status = 2


class DomainError(SetCensusError):
    """A parameter lies outside the mathematically valid range."""


def check_int(name, value, lo, hi=None):
    """value as an int in [lo, hi] (hi None: no upper bound), else DomainError.

    Integral values of other types (3.0, numpy integers, Fraction(3)) count;
    nan, infinities, 2.5 and strings do not.  A bool counts as 0 or 1, as it
    does everywhere in Python.
    """
    if type(value) is not int:
        try:
            as_int = int(value)
        except (TypeError, ValueError, OverflowError):
            as_int = None
        if as_int is None or as_int != value:
            raise DomainError(f"{name} = {shown(value)} must be an integer")
        value = as_int
    if value < lo or (hi is not None and value > hi):
        bounds = f"of at least {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise DomainError(f"{name} = {shown(value)} must be an integer {bounds}")
    return value


def shown(value):
    """repr(value) for a message, unless it has too many digits to print."""
    try:
        return repr(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return "a number too long to print"


def check_real(name, value):
    """value as a float, else DomainError.  Real values of any type that a float
    holds count (Fraction(1, 2), numpy floats, ints); nan, inf, None, "0.5" do not."""
    try:
        # float and int first: they skip the slower abstract-class check
        if isinstance(value, (float, int, numbers.Real)) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int or Fraction beyond the float range, too long to print
        raise DomainError(f"{name} lies beyond the float range") from None
    raise DomainError(f"{name} = {value!r} must be a finite real number")


class ValidationError(SetCensusError):
    """A class definition violates a structural requirement."""

    code = "validation"


class UnknownClassError(DomainError):
    """Lookup of a class name that is not registered."""

    code = "unknown-class"


class NotSubcriticalError(DomainError):
    """The block series fails the subcriticality test t*B''(t) > 1 near its radius."""

    code = "not-subcritical"


class DivergenceError(DomainError):
    """Evaluation requested at x beyond the radius of convergence."""

    code = "divergence"


class ModelViolationError(SetCensusError):
    """A block specification produced non-integer connected counts."""

    code = "model-violation"


class InternalConsistencyError(SetCensusError):
    """Two independent derivations of the same quantity disagree."""

    code = "internal-consistency"


class PrecisionError(SetCensusError):
    """Requested tolerance is unreachable at the current truncation or precision.

    Carries ``suggested`` when a larger truncation order or precision is known
    to suffice.
    """

    code = "precision"
    exit_status = 3

    def __init__(self, message, suggested=None):
        super().__init__(message)
        self.suggested = suggested


class RetryBudgetError(SetCensusError):
    """Rejection sampling exhausted its budget.

    ``attempts`` is the number of proposals made, every one of which missed.
    ``expected_acceptance`` is the exact per-attempt acceptance, and
    ``suggested`` a budget that succeeds with probability 0.95 (None when the
    acceptance underflows to 0).
    """

    code = "retry-budget"
    exit_status = 4

    def __init__(self, message, attempts=0, expected_acceptance=None, suggested=None):
        super().__init__(message)
        self.attempts = attempts
        self.expected_acceptance = expected_acceptance
        self.suggested = suggested
