"""Integer parameters: every public check goes through errors.check_int.

nan, the infinities and non-integral values raise DomainError instead of a
bare ValueError or OverflowError; integral values of other types still count.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from setcensus import asymptotics, exact, sampler, species
from setcensus.errors import DomainError, check_int

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
