"""Exception hierarchy shared by all setcensus modules.

The CLI maps these onto exit codes: domain/validation failures exit 2,
precision shortfalls exit 3, exhausted retry budgets exit 4.
"""


class SetCensusError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SetCensusError):
    """A parameter lies outside the mathematically valid range."""


class ValidationError(SetCensusError):
    """A class definition violates a structural requirement."""


class UnknownClassError(DomainError):
    """Lookup of a class name that is not registered."""


class NotSubcriticalError(DomainError):
    """The block series fails the subcriticality test t*B''(t) > 1 near its radius."""


class DivergenceError(DomainError):
    """Evaluation requested at x beyond the radius of convergence."""


class FlavorMismatchError(SetCensusError):
    """Exact-rational and floating series were mixed in one operation."""


class ConstantTermError(SetCensusError):
    """A series argument has a nonzero constant term where zero is required."""


class ModelViolationError(SetCensusError):
    """A block specification produced non-integer connected counts."""


class InternalConsistencyError(SetCensusError):
    """Two independent derivations of the same quantity disagree."""


class PrecisionError(SetCensusError):
    """Requested tolerance is unreachable at the current truncation or precision.

    Carries ``suggested`` when a larger truncation order or precision is known
    to suffice.
    """

    def __init__(self, message, suggested=None):
        super().__init__(message)
        self.suggested = suggested


class RetryBudgetError(SetCensusError):
    """Rejection sampling exhausted its budget.

    ``acceptance_rate`` is the observed acceptance estimate, ``attempts`` the
    number of proposals made.  ``expected_acceptance`` is the exact
    per-attempt acceptance and ``suggested`` a budget that succeeds with
    probability 0.95, when known.
    """

    def __init__(self, message, acceptance_rate=0.0, attempts=0, expected_acceptance=None,
                 suggested=None):
        super().__init__(message)
        self.acceptance_rate = acceptance_rate
        self.attempts = attempts
        self.expected_acceptance = expected_acceptance
        self.suggested = suggested
