"""setcensus: count, estimate and sample labeled forests of connected structures.

The composite class under study is SET(C) for a connected class C: labeled
objects whose components all lie in C.  The package counts objects with n
vertices and N = floor(lambda*n) components exactly (big-integer coefficient
extraction), estimates the counts through the three asymptotic regimes of the
component density lambda, and draws uniform objects through a Boltzmann
sampler; the three routes cross-validate each other.

numpy and mpmath load on first use: `sampler` and `cli` are imported when
first reached as attributes of the package, and only the Lerch tail in the
band just below the radius and synthetic counts where 2 alpha is not an
integer import mpmath, when called.  decimal loads only for the Hurwitz tail
at the radius, fractions only for poly block files and the exact sum
probability.  Every record is a named tuple, so no module imports dataclasses.
"""

import importlib

from . import asymptotics, exact, powerseries, species
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

_LAZY_MODULES = ("cli", "sampler")


def __getattr__(name):
    # sampler (numpy) and cli (argparse) load on first access, not on import
    if name in _LAZY_MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
