"""The seven immutable records of the numpy-free modules.

Each record keeps its field names and order, its repr, value equality and
hashing, and refuses assignment.  The checks go through the constructor's
signature and attribute access only, so they hold for any immutable record
type with these fields.
"""

import inspect
import math

import pytest

from setcensus import asymptotics as asy
from setcensus import exact, species
from setcensus.errors import ValidationError


def _records():
    trees, cacti, husimi = (species.builtin(name) for name in ("trees", "cacti", "husimi"))
    est = asy.estimate(husimi, 200, 0.3)
    return {
        "RecipeConstants": (
            asy.recipe_constants(cacti),
            ["zeta", "b", "rho", "lambda_star", "C_rho"],
        ),
        "SupercriticalPoint": (
            asy.solve_supercritical(trees, 0.75),
            ["lam", "y_lambda", "x_lambda", "C_x_lambda", "sigma2"],
        ),
        "EstimateFactors": (
            est.factors,
            [
                "log_constant",
                "n_power_exponent",
                "log_power_exponent",
                "log_rho_inv_n",
                "N_log_h",
                "log_factorial_ratio",
            ],
        ),
        "RegimeEstimate": (
            est,
            ["regime", "alpha_case", "n", "N", "lam", "lambda_star", "log_count", "factors"],
        ),
        "CountTable": (exact.count_table(trees, 6, range(1, 4)), ["n", "rows"]),
        "GrowthParams": (trees.growth, ["b", "rho", "alpha"]),
        "BlockSpec": (
            cacti.block_spec,
            ["kind", "B", "Bp", "Bpp", "Bppp", "R", "gap", "tail"],
        ),
    }


RECORDS = _records()


def _fields(record):
    return list(inspect.signature(type(record)).parameters)


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    rec, fields = RECORDS[request.param]
    assert type(rec).__name__ == request.param
    return rec, fields


def test_field_names_and_order(record):
    rec, fields = record
    assert _fields(rec) == fields


def test_repr_lists_every_field_in_order(record):
    rec, fields = record
    shown = ", ".join(f"{name}={getattr(rec, name)!r}" for name in fields)
    assert repr(rec) == f"{type(rec).__name__}({shown})"


def test_copy_from_the_same_fields_is_equal(record):
    rec, fields = record
    copy = type(rec)(**{name: getattr(rec, name) for name in fields})
    assert copy is not rec
    assert copy == rec
    assert not copy != rec
    assert hash(copy) == hash(rec)
    assert repr(copy) == repr(rec)


def test_a_changed_field_is_unequal(record):
    rec, fields = record
    values = {name: getattr(rec, name) for name in fields}
    last = values[fields[-1]]
    values[fields[-1]] = last + 1 if isinstance(last, float) else object()
    assert type(rec)(**values) != rec


def test_fields_refuse_assignment(record):
    rec, fields = record
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    with pytest.raises(AttributeError):
        rec.no_such_field = 1


def test_block_spec_tail_defaults_to_empty():
    spec = species.builtin("trees").block_spec
    assert spec.tail == ()
    assert inspect.signature(type(spec)).parameters["tail"].default == ()


@pytest.mark.parametrize(
    "b, rho, alpha, match",
    [
        (0.0, 0.5, 1.5, "b must be positive"),
        (math.nan, 0.5, 1.5, "b must be positive"),
        (1.0, -0.5, 1.5, "rho must be positive"),
        (1.0, math.inf, 1.5, "rho must be positive"),
        (1.0, 0.5, 1.0, "alpha must exceed 1"),
        (1.0, 0.5, math.inf, "alpha must exceed 1"),
    ],
)
def test_invalid_growth_params_raise(b, rho, alpha, match):
    with pytest.raises(ValidationError, match=match):
        species.GrowthParams(b, rho, alpha)
    with pytest.raises(ValidationError, match=match):
        species.GrowthParams(b=b, rho=rho, alpha=alpha)


def test_replaced_growth_params_are_checked():
    growth = species.builtin("trees").growth
    assert growth._replace(alpha=2.5) == (growth.b, growth.rho, 2.5)
    with pytest.raises(ValidationError, match="rho must be positive"):
        growth._replace(rho=-1.0)
    with pytest.raises(ValidationError, match="alpha must exceed 1"):
        species.GrowthParams._make([1.0, 0.5, 0.5])
