"""The eleven immutable records of the package.

Each record keeps its field names and order, its repr, value equality and
hashing, and refuses assignment; SizeDistribution, whose array fields have
no single truth value, compares and hashes by identity instead and leaves
cdf and guide out of its repr.  The checks go through the constructor's
signature and attribute access only, so they hold for any immutable record
type with these fields.
"""

import inspect
import math

import numpy as np
import pytest

from setcensus import asymptotics as asy
from setcensus import exact, sampler, species
from setcensus.errors import DomainError, ValidationError


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
        "Composition": (sampler.Composition(kappa=2, sizes=(3, 1)), ["kappa", "sizes"]),
        "LabeledForest": (
            sampler.sample_forest(6, 2, rng=np.random.default_rng(1)),
            ["n", "blocks", "trees"],
        ),
        "MCEstimate": (
            sampler.mc_sum_probability(trees, 0.3, 2, 4, 200, np.random.default_rng(1)),
            ["estimate", "stderr", "trials", "hits"],
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


def _changed(value):
    """A value unequal to value that the record's own checks still accept."""
    if isinstance(value, float):
        return value + 1
    if isinstance(value, tuple) and value:  # Composition checks the length of sizes
        return tuple(object() for _ in value)
    return object()


def test_a_changed_field_is_unequal(record):
    rec, fields = record
    values = {name: getattr(rec, name) for name in fields}
    values[fields[-1]] = _changed(values[fields[-1]])
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


@pytest.mark.parametrize("kappa, sizes", [(2, (1,)), (0, (1,)), (1, ())])
def test_composition_size_list_must_match_kappa(kappa, sizes):
    with pytest.raises(DomainError, match="does not match kappa"):
        sampler.Composition(kappa, sizes)
    with pytest.raises(DomainError, match="does not match kappa"):
        sampler.Composition(kappa=kappa, sizes=sizes)


_SIZE_FIELDS = ["x", "n_max", "pmf", "truncated_mass", "normalizer", "cdf", "guide"]


def _size_table():
    return sampler.size_distribution(species.builtin("trees"), 0.1, n_max=8)


def test_size_distribution_fields_and_repr():
    dist = _size_table()
    assert _fields(dist) == _SIZE_FIELDS
    shown = ", ".join(f"{name}={getattr(dist, name)!r}" for name in _SIZE_FIELDS[:5])
    assert repr(dist) == f"SizeDistribution({shown})"


def test_size_distribution_compares_and_hashes_by_identity():
    dist = _size_table()
    assert dist == dist and not dist != dist
    assert hash(dist) == object.__hash__(dist)
    copy = type(dist)(**{name: getattr(dist, name) for name in _SIZE_FIELDS})
    assert copy != dist and not copy == dist
    assert hash(copy) == object.__hash__(copy)
    assert dist != tuple(getattr(dist, name) for name in _SIZE_FIELDS)


def test_size_distribution_calls_share_the_cached_arrays():
    first, second = _size_table(), _size_table()
    assert first is not second and first != second
    for name in ("pmf", "cdf", "guide"):
        assert getattr(first, name) is getattr(second, name)


def test_size_distribution_fields_refuse_assignment():
    dist = _size_table()
    for name in _SIZE_FIELDS:
        with pytest.raises(AttributeError):
            setattr(dist, name, getattr(dist, name))
    with pytest.raises(AttributeError):
        dist.no_such_field = 1


def test_replaced_composition_is_checked():
    comp = sampler.Composition(kappa=2, sizes=(3, 1))
    assert comp._replace(sizes=(1, 3)) == (2, (1, 3))
    with pytest.raises(DomainError, match="does not match kappa"):
        comp._replace(kappa=3)
    with pytest.raises(DomainError, match="does not match kappa"):
        sampler.Composition._make([1, ()])
