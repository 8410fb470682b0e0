"""Equality, immutability and hashing of the value types: bias factors,
discount vectors, instances, constraint matrices and distributions."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest

from biasrank import (
    BiasModel,
    ConstraintMatrix,
    DiscountVector,
    Empirical,
    Instance,
    LogNormal,
    Normal,
    ShiftedScaled,
    Uniform,
    simple_constraints,
)

MEMBERSHIP = [[True, False], [False, True], [False, True]]


def instance(w=(3.0, 2.0, 1.0), mem=MEMBERSHIP, n=2, v=None):
    return Instance(list(w), mem, n, DiscountVector.constant(n) if v is None else v)


def one_of_each():
    """One value of every value type, simple_constraints' matrix among them."""
    return [
        BiasModel([0.5, 1.0]),
        DiscountVector.dcg(3, log_base=2.0),
        instance(),
        ConstraintMatrix([[0, 1], [1, 1]]),
        simple_constraints(0.5, 1, 4, 2),
        Uniform(0, 1),
        LogNormal(0, 1),
        Normal(0, 1),
        Empirical([2.0, 1.0]),
        ShiftedScaled(Uniform(0, 1), 2.0, 3.0),
    ]


@pytest.mark.parametrize(
    "a, b",
    [
        (instance(), instance(w=(3.0, 2.0, 0.5))),
        (instance(), instance(mem=[[True, False], [False, True], [True, True]])),
        (instance(), instance(n=3)),
        (instance(), instance(v=DiscountVector.zipf(2))),
        (ConstraintMatrix.zeros(2, 1), ConstraintMatrix.zeros(2, 2)),
        (ConstraintMatrix.zeros(2, 2), ConstraintMatrix.zeros(3, 2)),
        (BiasModel([0.5, 1.0]), BiasModel([0.5, 0.9])),
        (BiasModel([0.5]), BiasModel([0.5, 0.5])),
        (Uniform(0, 1), Uniform(0, 2)),
        (ShiftedScaled(Empirical([1.0, 2.0])), ShiftedScaled(Empirical([1.0, 3.0]))),
    ],
    ids=[
        "instance-weight",
        "instance-membership-bit",
        "instance-n",
        "instance-v",
        "constraints-columns",
        "constraints-rows",
        "bias-factor",
        "bias-length",
        "uniform-bound",
        "shifted-empirical-base",
    ],
)
def test_values_that_differ_in_one_field_are_unequal(a, b):
    assert (a == b) is False and (b == a) is False
    assert a != b


def test_equal_values_compare_equal():
    assert Empirical([3.0, 1.0, 2.0]) == Empirical([2.0, 3.0, 1.0])
    assert ShiftedScaled(Empirical([2.0, 1.0]), 2) == ShiftedScaled(Empirical([1.0, 2.0]), 2.0)
    assert instance() == instance()
    assert BiasModel([0.5]) == BiasModel(np.array([0.5]))
    assert DiscountVector.constant(2) == DiscountVector([1.0, 1.0])
    assert simple_constraints(0.5, 1, 4, 2) == ConstraintMatrix([[0, 0], [0, 1], [0, 1], [0, 2]])


def test_a_discount_is_its_weights():
    """Vectors with equal weights are equal, whichever constructor built them, and write the same JSON."""
    assert [f.name for f in fields(DiscountVector)] == ["values"]
    for named, weights in [
        (DiscountVector.constant(2), [1.0, 1.0]),
        (DiscountVector.dcg(3), DiscountVector.dcg(3).values),
        (DiscountVector.dcg(3, log_base=math.e), 1.0 / np.log([2.0, 3.0, 4.0])),
        (DiscountVector.zipf(2), [1.0, 0.5]),
    ]:
        assert named == DiscountVector(weights) and DiscountVector(weights) == named
        assert named.to_json_dict() == {"kind": "custom", "values": list(map(float, weights))}
    assert DiscountVector.zipf(2) != DiscountVector.constant(2)


def test_comparisons_across_types_are_false():
    values = one_of_each()
    for a in values:
        for b in values:
            if type(a) is not type(b):
                assert (a == b) is False, (a, b)
        for other in (None, 0, "uniform", (1.0,)):
            assert (a == other) is False


@pytest.mark.parametrize("value", one_of_each(), ids=lambda x: type(x).__name__)
def test_fields_cannot_be_assigned_and_arrays_are_read_only(value):
    for f in fields(value):
        current = getattr(value, f.name)
        with pytest.raises(AttributeError):
            setattr(value, f.name, current)
        if isinstance(current, np.ndarray):
            assert not current.flags.writeable
            with pytest.raises(ValueError):
                current[...] = 0
    with pytest.raises(AttributeError):
        value.extra = 1


def test_distributions_hash_by_value_and_array_holders_are_unhashable():
    assert hash(Uniform(0, 1)) == hash(Uniform(0.0, 1.0))
    assert len({Normal(0, 1), Normal(0.0, 1.0), LogNormal(0, 1)}) == 2
    for value in one_of_each():
        if any(isinstance(getattr(value, f.name), np.ndarray) for f in fields(value)):
            with pytest.raises(TypeError):
                hash(value)


def test_distribution_json_is_kind_then_fields():
    d = ShiftedScaled(Empirical([2, 1]), 3, 4)
    assert json.dumps(d.to_json_dict()) == (
        '{"kind": "shifted_scaled", "base": {"kind": "empirical", "sample": [1.0, 2.0]}, "scale": 3.0, "shift": 4.0}'
    )
    assert json.dumps(Uniform(-1, 2).to_json_dict()) == '{"kind": "uniform", "a": -1.0, "b": 2.0}'
    assert json.dumps(LogNormal(sigma=2).to_json_dict()) == '{"kind": "lognormal", "mu": 0.0, "sigma": 2.0}'
