"""setcensus: count, estimate and sample labeled forests of connected structures.

The composite class under study is SET(C) for a connected class C: labeled
objects whose components all lie in C.  The package counts objects with n
vertices and N = floor(lambda*n) components exactly (big-integer coefficient
extraction), estimates the counts through the three asymptotic regimes of the
component density lambda, and draws uniform objects through a Boltzmann
sampler; the three routes cross-validate each other.

`import setcensus` loads only `errors`, whose exceptions it re-exports; each
submodule loads when first reached as an attribute of the package, and the
CLI loads `asymptotics` and `exact` only in the commands that call them.
Once warm, exact counts, estimates and draws at a given or growth-derived x
run no import statement.  numpy loads only with the sampler and count_log's
float tier; mpmath only for the Lerch tail just below the radius and for
synthetic counts where 2 alpha is not an integer; decimal only for the
Hurwitz tail at the radius; fractions only for poly block files and the
exact sum probability.  Every record is a named tuple, so no module imports
dataclasses.
"""

from .errors import (
    DivergenceError,
    DomainError,
    InternalConsistencyError,
    ModelViolationError,
    NotSubcriticalError,
    PrecisionError,
    RetryBudgetError,
    SetCensusError,
    UnknownClassError,
    ValidationError,
)

__version__ = "0.1.0"

__all__ = [
    "asymptotics",
    "cli",
    "exact",
    "sampler",
    "powerseries",
    "species",
    "SetCensusError",
    "DomainError",
    "ValidationError",
    "UnknownClassError",
    "NotSubcriticalError",
    "DivergenceError",
    "ModelViolationError",
    "InternalConsistencyError",
    "PrecisionError",
    "RetryBudgetError",
    "__version__",
]

_LAZY_MODULES = ("asymptotics", "cli", "exact", "powerseries", "sampler", "species")


def __getattr__(name):
    # every submodule loads on first access, not on import; __import__ and not
    # importlib.import_module, whose loads -X importtime does not show
    if name in _LAZY_MODULES:
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
