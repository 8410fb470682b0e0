import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from biasrank import (
    BiasModel,
    ConstraintMatrix,
    DiscountVector,
    Instance,
    NonDisjointGroupsError,
    Ranking,
    check_feasibility,
    instance_from_json,
    instance_to_json,
    observed_utilities,
    prefix_group_counts,
    ranking_utility,
    validate_discount,
)
from biasrank.stats import read_number, read_numbers
from conftest import membership

TOL = 1e-9


def make_instance(ws, mem, n=None, v=None):
    n = n if n is not None else len(ws)
    v = v if v is not None else DiscountVector.constant(n)
    return Instance.from_arrays(ws, mem, n, v)


class TestObservedUtilities:
    def test_empty_group_set_is_unshaded(self):
        inst = make_instance([1.0, 2.0], membership(2, [{1}]))
        obs = observed_utilities(inst, BiasModel([0.5]))
        assert obs[0] == 1.0

    def test_single_group_factor(self):
        inst = make_instance([2.0, 1.0], membership(2, [{1}, {0}]))
        obs = observed_utilities(inst, BiasModel([1.0, 0.25]))
        assert_allclose(obs, [0.5, 1.0], atol=TOL)

    def test_intersection_multiplies_factors(self):
        inst = make_instance([1.0, 1.0], membership(2, [set(), {0}, {0}]))
        obs = observed_utilities(inst, BiasModel([1.0, 0.5, 0.5]))
        assert_allclose(obs[0], 0.25, atol=TOL)
        assert obs[1] == 1.0

    def test_dimension_mismatch(self):
        inst = make_instance([1.0, 1.0], np.eye(2, dtype=bool))
        with pytest.raises(ValueError):
            observed_utilities(inst, BiasModel([0.5]))

    def test_all_ones_is_identity(self):
        inst = make_instance([3.0, -1.0, 0.5], membership(3, [{0, 2}, {1, 2}]))
        obs = observed_utilities(inst, BiasModel([1.0, 1.0]))
        assert np.array_equal(obs, inst.latent_utilities)

    @given(
        m=st.integers(1, 30),
        p=st.integers(3, 12),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_the_dense_product(self, m, p, data, seed):
        """Overlapping groups, every grouped item with at least three non-unit
        factors, some items ungrouped: the (m, p) product's bits, in group order."""
        betas = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=p, max_size=p))
        rng = np.random.default_rng(seed)
        mem = rng.random((m, p)) < rng.random()
        for row in mem:
            row[rng.choice(p, 3, replace=False)] = True
        mem[rng.random(m) < 0.2] = False
        w = rng.normal(size=m) * 10.0 ** rng.integers(-300, 300, m)
        inst = make_instance(w, mem, n=1)
        expected = w * np.where(mem, betas, 1.0).prod(axis=1)
        assert observed_utilities(inst, BiasModel(betas)).tobytes() == expected.tobytes()


class TestRankingUtility:
    def test_two_position_example(self):
        r = Ranking((0, 1))
        assert ranking_utility(r, DiscountVector([2.0, 1.0]), [2.0, 1.0]) == 5.0

    def test_zero_weights(self):
        r = Ranking((2, 0, 1))
        assert ranking_utility(r, DiscountVector.constant(3), [0.0, 0.0, 0.0]) == 0.0

    def test_constant_discount_sums(self):
        r = Ranking((0, 1))
        assert_allclose(ranking_utility(r, DiscountVector.constant(2), [0.9, 0.85]), 1.75, atol=TOL)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ranking_utility(Ranking((0,)), DiscountVector.constant(2), [1.0, 1.0])

    def test_out_of_range_id(self):
        with pytest.raises(ValueError):
            ranking_utility(Ranking((5,)), DiscountVector.constant(1), [1.0, 1.0])


class TestValidateDiscount:
    def test_constant_vector(self):
        d = validate_discount(DiscountVector.constant(4))
        assert d.nonincreasing and d.convex_differences
        assert d.assumption_ratio == 0.0

    def test_log_discount_n4(self):
        d = validate_discount(DiscountVector.dcg(4))
        assert d.nonincreasing and d.convex_differences
        vals = [1.0 / math.log(k + 1) for k in range(1, 5)]
        expected = (1.0 / math.log(2) - 1.0 / math.log(5)) / sum(vals)
        assert_allclose(d.assumption_ratio, expected, atol=TOL)

    def test_non_monotone_raw_vector(self):
        d = validate_discount([1.0, 3.0, 2.0])
        assert not d.nonincreasing

    def test_short_vector_vacuous_convexity(self):
        assert validate_discount([2.0, 1.0]).convex_differences

    def test_concave_differences_flagged(self):
        # gaps grow toward the tail: 3, 2.9, 2.0
        d = validate_discount([3.0, 2.9, 2.0, 0.0])
        assert d.nonincreasing and not d.convex_differences


class TestPrefixGroupCounts:
    def test_counting(self):
        groups = membership(3, [{1}, {0, 2}])  # group 1 holds items 0 and 2
        counts = prefix_group_counts(Ranking((0, 1, 2)), groups)
        assert counts[:, 1].tolist() == [1, 1, 2]
        assert counts[:, 0].tolist() == [0, 1, 1]

    def test_empty_group(self):
        groups = membership(2, [set(), {0, 1}])
        counts = prefix_group_counts(Ranking((0, 1)), groups)
        assert counts[:, 0].tolist() == [0, 0]

    def test_intersectional_counts_in_both_columns(self):
        groups = membership(1, [set(), {0}, {0}])
        counts = prefix_group_counts(Ranking((0,)), groups)
        assert counts[0].tolist() == [0, 1, 1]

    def test_disjoint_steps_at_most_one(self):
        groups = membership(4, [{0, 3}, {1, 2}])
        counts = prefix_group_counts(Ranking((3, 2, 0, 1)), groups)
        steps = np.diff(counts, axis=0, prepend=0)
        assert np.all((steps == 0) | (steps == 1))


nonneg_floats = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, width=32)


class TestModelInvariants:
    @given(
        ws=st.lists(nonneg_floats, min_size=2, max_size=8),
        betas=st.lists(st.floats(min_value=0.0, max_value=1.0, width=32), min_size=2, max_size=2),
        seed=st.integers(0, 2**20),
    )
    @settings(max_examples=60, deadline=None)
    def test_observed_never_exceeds_latent(self, ws, betas, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(-1, 2, size=len(ws))
        inst = make_instance(ws, labels[:, None] == np.arange(2))
        obs = observed_utilities(inst, BiasModel(betas))
        assert np.all(obs <= inst.latent_utilities + TOL)
        n = max(1, len(ws) // 2)
        v = DiscountVector(np.sort(rng.uniform(0, 1, n))[::-1])
        r = Ranking(tuple(int(i) for i in rng.permutation(len(ws))[:n]))
        assert ranking_utility(r, v, obs) <= ranking_utility(r, v, inst.latent_utilities) + TOL

    @given(
        beta_hi=st.floats(min_value=0.0, max_value=1.0, width=32),
        beta_lo=st.floats(min_value=0.0, max_value=1.0, width=32),
        seed=st.integers(0, 2**20),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_beta(self, beta_hi, beta_lo, seed):
        beta_lo, beta_hi = sorted([beta_lo, beta_hi])
        rng = np.random.default_rng(seed)
        m = 6
        labels = rng.integers(-1, 2, size=m)
        inst = make_instance(rng.uniform(0, 10, m), labels[:, None] == np.arange(2))
        obs_hi = observed_utilities(inst, BiasModel([1.0, beta_hi]))
        obs_lo = observed_utilities(inst, BiasModel([1.0, beta_lo]))
        in_group = inst.membership_matrix[:, 1]
        assert np.all(obs_lo[in_group] <= obs_hi[in_group] + TOL)
        assert np.array_equal(obs_lo[~in_group], obs_hi[~in_group])

    @given(
        ws=st.lists(st.integers(0, 2**20), min_size=2, max_size=8, unique=True),
        log2_c=st.integers(-3, 3),
        seed=st.integers(0, 2**20),
    )
    @settings(max_examples=60, deadline=None)
    def test_scaling_utilities(self, ws, log2_c, seed):
        # integer utilities and a power-of-two factor keep every product exact
        from biasrank import rank_unconstrained

        c = 2.0**log2_c
        rng = np.random.default_rng(seed)
        n = max(1, len(ws) - 1)
        v = DiscountVector(np.sort(rng.uniform(0, 1, n))[::-1])
        ungrouped = np.zeros((len(ws), 0), dtype=bool)
        inst = make_instance([float(x) for x in ws], ungrouped, n=n, v=v)
        scaled = make_instance([float(x) * c for x in ws], ungrouped, n=n, v=v)
        r1 = rank_unconstrained(inst, inst.latent_utilities)
        r2 = rank_unconstrained(scaled, scaled.latent_utilities)
        assert r1.positions == r2.positions
        u1 = ranking_utility(r1, v, inst.latent_utilities)
        u2 = ranking_utility(r2, v, scaled.latent_utilities)
        assert u2 == c * u1


def edited_json(edit) -> dict:
    """JSON of a valid overlapping-group instance after ``edit`` mutates it."""
    inst = Instance.from_arrays([3.0, 1.0, 2.0], membership(3, [{0, 1}, {1}]), 2, DiscountVector.zipf(2))
    doc = instance_to_json(inst)
    assert instance_from_json(doc) == inst
    if edit is not None:
        edit(doc)
    return doc


class TestTypesAndJson:
    def test_item_validation(self):
        # a negative id, and non-finite utilities both from JSON and from arrays
        for edit in (lambda d: d["items"][0].update(id=-1), lambda d: d["items"][1].update(w=float("inf"))):
            with pytest.raises(ValueError):
                instance_from_json(edited_json(edit))
        with pytest.raises(ValueError):
            Instance([0.0, float("nan")], np.zeros((2, 0), dtype=bool), 1, DiscountVector.constant(1))

    def test_ranking_validation(self):
        with pytest.raises(ValueError):
            Ranking((0, 0))
        with pytest.raises(ValueError):
            Ranking((-1,))

    def test_discount_validation(self):
        with pytest.raises(ValueError):
            DiscountVector([1.0, 2.0])
        with pytest.raises(ValueError):
            DiscountVector([-1.0])
        with pytest.raises(ValueError):
            DiscountVector([])
        DiscountVector([1.0, 0.0])  # zeros are fine

    def test_dcg_base_two(self):
        v = DiscountVector.dcg(3, log_base=2.0)
        assert_allclose(v.values[0], 1.0, atol=TOL)
        assert_allclose(v.values[2], 1.0 / 2.0, atol=TOL)

    def test_zipf(self):
        assert_allclose(DiscountVector.zipf(3).values, [1.0, 0.5, 1 / 3], atol=TOL)

    def test_instance_requires_dense_ids(self):
        shuffled = edited_json(lambda d: d["items"].reverse())
        assert instance_from_json(shuffled) == instance_from_json(edited_json(None))
        # a duplicate id, then a gap
        for edit in (lambda d: d["items"][1].update(id=0), lambda d: d["items"][1].update(id=3)):
            with pytest.raises(ValueError, match="0..m-1"):
                instance_from_json(edited_json(edit))

    def test_instance_n_bounds(self):
        with pytest.raises(ValueError):
            make_instance([1.0], np.zeros((1, 0), dtype=bool), n=2, v=DiscountVector.constant(2))

    def test_discount_length_must_match_n(self):
        with pytest.raises(ValueError):
            make_instance([1.0, 2.0], np.zeros((2, 0), dtype=bool), n=2, v=DiscountVector.constant(1))

    def test_membership_is_a_boolean_matrix(self):
        v = DiscountVector.constant(1)
        mem = [[True, False], [True, True]]
        inst = Instance.from_arrays([1.0, 2.0], mem, 1, v)
        assert inst.membership_matrix.tolist() == mem
        assert inst == Instance([1.0, 2.0], np.array(mem), 1, v)
        with pytest.raises(NonDisjointGroupsError):
            check_feasibility(ConstraintMatrix.zeros(1, 2), inst.membership_matrix)

    @pytest.mark.parametrize(
        "groups",
        [
            [[0], [1]],  # per-item group lists of equal length would read as a (2, 1) integer matrix
            [[0], [0, 1]],
            [{0}, {0, 1}],
            [[], []],
            [0, 1],
            np.array([0, -1]),
            [[1, 0], [1, 1]],
            np.zeros((2, 2)),
            [[True, False]],
            np.ones((2, 1, 1), dtype=bool),
        ],
        ids=[
            "per-item-lists-one-each",
            "per-item-lists-ragged",
            "per-item-sets",
            "per-item-lists-empty",
            "labels",
            "labels-with-ungrouped",
            "int-matrix",
            "float-matrix",
            "bool-matrix-too-few-rows",
            "bool-3d",
        ],
    )
    def test_other_membership_encodings_are_rejected(self, groups):
        with pytest.raises(ValueError, match=r"membership must be a boolean \(m, p\) matrix"):
            Instance.from_arrays([1.0, 2.0], groups, 1, DiscountVector.constant(1))

    @pytest.mark.parametrize("v", [[1.0], np.ones(1), 1.0, {"kind": "constant"}], ids=["list", "array", "float", "json"])
    def test_a_discount_must_be_a_discount_vector(self, v):
        with pytest.raises(ValueError, match="^discount must be a DiscountVector$"):
            Instance.from_arrays([1.0, 2.0], np.zeros((2, 0), dtype=bool), 1, v)

    def test_items_materialize_from_arrays(self):
        inst = Instance.from_arrays([2.5, 1.5], membership(2, [set(), {0}]), 1, DiscountVector.constant(1))
        doc = instance_to_json(inst)
        assert doc["items"] == [{"id": 0, "w": 2.5, "groups": [1]}, {"id": 1, "w": 1.5, "groups": []}]
        assert doc["groups"] == [[], [0]]

    def test_json_round_trip_idempotent(self):
        doc = {
            "n": 2,
            "v": {"kind": "custom", "values": [2.0, 1.0]},
            "groups": [[0], [1]],
            "items": [
                {"id": 0, "w": 2.0, "groups": [0]},
                {"id": 1, "w": 1.0, "groups": [1]},
            ],
        }
        inst = instance_from_json(doc)
        again = instance_from_json(instance_to_json(inst))
        assert inst == again
        assert instance_to_json(inst) == instance_to_json(again)

    def test_json_group_consistency_checked(self):
        doc = {
            "n": 1,
            "v": {"kind": "constant"},
            "groups": [[0, 1]],
            "items": [{"id": 0, "w": 1.0, "groups": [0]}, {"id": 1, "w": 1.0, "groups": []}],
        }
        with pytest.raises(ValueError):
            instance_from_json(doc)
        # a repeated (item, group) pair counts once, in a top-level list or in an item's list
        for edit in (
            lambda d: d["groups"][0].append(1),
            lambda d: d["groups"][1].insert(0, 1),
            lambda d: d["items"][1]["groups"].append(0),
            lambda d: d["items"][0].update(groups=[0, 0, 0]),
        ):
            assert instance_from_json(edited_json(edit)) == instance_from_json(edited_json(None))
        for edit, match in (
            (lambda d: d["groups"][0].append(2), "disagree"),  # (2, 0) only at the top level
            (lambda d: d["items"][0].update(groups=[]), "disagree"),  # (0, 0) only at the top level
            (lambda d: d["groups"][1].pop(), "disagree"),  # (1, 1) missing from the top level
            (lambda d: d["groups"][0].__setitem__(1, 0), "disagree"),  # a repeat of (0, 0) in place of (1, 0)
            (lambda d: d["items"][1]["groups"].__setitem__(1, 0), "disagree"),  # the same within an item's list
            (lambda d: d["groups"].pop(), "outside"),
            (lambda d: d["items"][2].update(groups=[-1]), "outside"),
            (lambda d: d["groups"][1].append(5), "outside"),
        ):
            with pytest.raises(ValueError, match=match):
                instance_from_json(edited_json(edit))

    def test_json_counts_and_ids_are_whole_numbers(self):
        def whole_floats(d):
            d["n"] = float(d["n"])
            d["groups"] = [[float(i) for i in g] for g in d["groups"]]
            for it in d["items"]:
                it.update(id=float(it["id"]), groups=[float(s) for s in it["groups"]])

        assert instance_from_json(edited_json(whole_floats)) == instance_from_json(edited_json(None))
        for edit, field in (
            (lambda d: d.update(n=1.5), "n"),
            (lambda d: d["items"][0].update(id=0.7), "item id"),
            (lambda d: d["items"][0].update(groups=[0.2]), "group id"),
            (lambda d: d["groups"][0].__setitem__(0, 0.2), "group member"),
        ):
            with pytest.raises(ValueError, match=f"^{field} must be a whole number"):
                instance_from_json(edited_json(edit))
        for edit, field in (
            (lambda d: d["items"][0].update(groups=[None]), "group id"),
            (lambda d: d["groups"][0].__setitem__(0, None), "group member"),
        ):
            with pytest.raises(ValueError, match=f"^{field} must be a whole number, got null$"):
                instance_from_json(edited_json(edit))

    @settings(max_examples=300, deadline=None)
    @given(
        whole=st.booleans(),
        numbers=st.lists(st.integers(-(2**63), 2**63 - 1) | st.integers(-(2**53), 2**53).map(float), max_size=8),
        fractions=st.lists(st.floats(allow_nan=False), max_size=4),
        bad=st.none() | st.booleans() | st.text(max_size=3) | st.lists(st.integers(), max_size=2) | st.just({"w": 1}),
        where=st.integers(0, 12),
        tail=st.lists(st.none() | st.booleans() | st.text(max_size=2) | st.floats(), max_size=3),
    )
    def test_json_number_readers_decide_by_python_type(self, whole, numbers, fractions, bad, where, tail):
        """Ints and floats read as ``np.asarray`` reads them, with the reader's
        dtype; any other element, boolean included, is named, the first one."""
        xs = numbers if whole else numbers + fractions
        got = read_numbers(xs, "x", whole)
        assert got.dtype == (np.int64 if whole else np.float64)
        assert np.array_equal(got, np.asarray(xs, dtype=got.dtype)) and np.array_equal(got, np.asarray(xs))
        if whole and xs and all(type(x) is int for x in xs):
            assert got.dtype == np.asarray(xs).dtype
        for x in xs[:1]:
            assert type(read_number(x, "x", whole)) is (int if whole else float)
        kind = "a whole number" if whole else "a number"
        message = f"^x must be {kind}, got {re.escape('a string' if isinstance(bad, str) else json.dumps(bad))}$"
        with pytest.raises(ValueError, match=message):
            read_numbers(xs[:where] + [bad] + xs[where:] + tail, "x", whole)
        with pytest.raises(ValueError, match=message):
            read_number(bad, "x", whole)

    def test_json_strings_booleans_and_null_are_not_numbers(self):
        for edit, message in (
            (lambda d: d["items"][0].update(w="3.0"), "item w must be a number, got a string"),
            (lambda d: d["items"][0].update(w=None), "item w must be a number, got null"),
            (lambda d: [it.update(w=True) for it in d["items"]], "item w must be a number, got true"),
            (lambda d: d.update(n=True), "n must be a whole number, got true"),
            (lambda d: d["items"][0].update(id="0"), "item id must be a whole number, got a string"),
            (lambda d: d["items"][0].update(groups=["0", 1]), "group id must be a whole number, got a string"),
            (lambda d: d["groups"][0].__setitem__(0, "0"), "group member must be a whole number, got a string"),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                instance_from_json(edited_json(edit))
        # an integer past 64 bits is still a JSON number
        huge = instance_from_json(edited_json(lambda d: d["items"][0].update(w=2**70)))
        assert huge.latent_utilities.tolist() == [2.0**70, 1.0, 2.0]

    def test_json_discount_kinds(self):
        for kind in ({"kind": "constant"}, {"kind": "zipf"}, {"kind": "dcg"}, {"kind": "dcg", "log_base": 2.0}):
            v = DiscountVector.from_json_dict(kind, 4)
            v2 = DiscountVector.from_json_dict(v.to_json_dict(), 4)
            assert v == v2

    def test_bias_model_validation(self):
        with pytest.raises(ValueError):
            BiasModel([1.5])
        with pytest.raises(ValueError):
            BiasModel([-0.1])
