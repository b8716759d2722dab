"""Integer and real parameters: every public check goes through
errors.check_int or errors.check_real.

nan, the infinities and non-integral values raise DomainError instead of a
bare ValueError or OverflowError; integral values of other types still count.
The real checks refuse nan, the infinities, None and strings in the same way,
and take Fraction, numpy floats and ints.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from setcensus import asymptotics, exact, sampler, species
from setcensus.errors import DomainError, SetCensusError, check_int, check_real

TREES = species.builtin("trees")


def _rng():
    return np.random.default_rng(1)


# (name, call with the integer parameter v); every other argument is valid
CALLS = [
    ("count n", lambda v: exact.count(TREES, v, 1)),
    ("count k", lambda v: exact.count(TREES, 5, v)),
    ("count_log n", lambda v: exact.count_log(TREES, v, 1)),
    ("count_log k", lambda v: exact.count_log(TREES, 5, v)),
    ("count_table n", lambda v: exact.count_table(TREES, v)),
    ("count_table k", lambda v: exact.count_table(TREES, 5, [2, v])),
    ("total_count n", lambda v: exact.total_count(TREES, v)),
    ("coefficients n_max", lambda v: species.coefficients(TREES, v)),
    ("estimate n", lambda v: asymptotics.estimate(TREES, v, 0.5)),
    ("size_distribution n_max", lambda v: sampler.size_distribution(TREES, 0.1, n_max=v)),
    ("sample_forest n", lambda v: sampler.sample_forest(v, 1, rng=_rng())),
    ("sample_forest k", lambda v: sampler.sample_forest(5, v, rng=_rng())),
    ("mc_sum_probability trials",
     lambda v: sampler.mc_sum_probability(TREES, 0.1, 2, 4, v, _rng())),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 2.5], ids=repr)
@pytest.mark.parametrize("name, call", CALLS, ids=[name for name, _ in CALLS])
def test_non_integers_are_domain_errors(name, call, value):
    with pytest.raises(DomainError):
        call(value)


@pytest.mark.parametrize("value", [3, 3.0, np.int64(3), Fraction(3)], ids=repr)
def test_integral_values_of_any_type_count(value):
    got = check_int("n", value, 1)
    assert got == 3 and type(got) is int
    assert exact.count(TREES, value, 2) == 3


@pytest.mark.parametrize(
    "value, lo, hi", [(0, 1, None), (6, 1, 5), ("3", 1, None), (Fraction(5, 2), 1, None)]
)
def test_out_of_range_or_not_a_number(value, lo, hi):
    with pytest.raises(DomainError, match="must be an integer"):
        check_int("n", value, lo, hi)


# (name, call with the real parameter v); every other argument is valid
REAL_CALLS = [
    ("estimate lambda", lambda v: asymptotics.estimate(TREES, 100, v)),
    ("classify lambda", lambda v: asymptotics.classify(TREES, v)),
    ("solve_supercritical lambda", lambda v: asymptotics.solve_supercritical(TREES, v)),
    ("constant_below lambda", lambda v: asymptotics.constant_below(TREES, v)),
    ("constant_above lambda", lambda v: asymptotics.constant_above(TREES, v)),
    ("_egf_at x", lambda v: asymptotics._egf_at(TREES, v)),
    ("size_distribution x", lambda v: sampler.size_distribution(TREES, v).pmf.tolist()),
]


# 10**5000 has too many digits for str(), so its message must not print it
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, None, "0.5", [0.5], 10**400, 10**5000],
                         ids=["nan", "inf", "-inf", "None", "str", "list", "10**400", "10**5000"])
@pytest.mark.parametrize("name, call", REAL_CALLS, ids=[name for name, _ in REAL_CALLS])
def test_non_reals_are_domain_errors(name, call, value):
    with pytest.raises(DomainError):
        call(value)


# (name, call with the integer parameter v) for integers out of range, too
# long to print or beyond the float range; a huge n goes only where it fails
# before an n-long list is built
HUGE_INT_CALLS = [
    ("count k", lambda v: exact.count(TREES, 5, v)),
    ("count_table k", lambda v: exact.count_table(TREES, 5, [v])),
    ("sample_forest k", lambda v: sampler.sample_forest(5, v, rng=_rng())),
    ("count_log n", lambda v: exact.count_log(TREES, v, 3)),
    ("count_log n, block class", lambda v: exact.count_log(species.builtin("cacti"), v, 3)),
    ("estimate n", lambda v: asymptotics.estimate(TREES, v, 0.5)),
]


@pytest.mark.parametrize("value", [10**400, 10**5000, -(10**5000)],
                         ids=["10**400", "10**5000", "-10**5000"])
@pytest.mark.parametrize("name, call", HUGE_INT_CALLS, ids=[name for name, _ in HUGE_INT_CALLS])
def test_huge_integers_are_typed_errors(name, call, value):
    with pytest.raises(SetCensusError):
        call(value)


def test_huge_integers_are_not_printed():
    with pytest.raises(DomainError, match="too long to print must be an integer in"):
        check_int("k", 10**5000, 1, 5)


# a valid value of each real parameter: below lambda* = 1/2 or above it, as the call needs
_VALID = {"solve_supercritical lambda": 3, "constant_above lambda": 3}


@pytest.mark.parametrize(
    "convert", [float, Fraction, np.float64], ids=["float", "Fraction", "float64"]
)
@pytest.mark.parametrize("name, call", REAL_CALLS, ids=[name for name, _ in REAL_CALLS])
def test_real_values_of_any_type_count(name, call, convert):
    quarters = _VALID.get(name, 1)
    assert call(convert(Fraction(quarters, 4))) == call(quarters / 4)


def test_integers_count_as_reals():
    assert check_real("x", 1) == 1.0 and type(check_real("x", 1)) is float
    wide = species.synthetic(1, 2, 2.5)  # rho = 2, so x = 1 converges
    assert asymptotics._egf_at(wide, 1) == asymptotics._egf_at(wide, 1.0)
