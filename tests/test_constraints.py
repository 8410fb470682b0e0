import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biasrank import (
    ConstraintMatrix,
    DiscountVector,
    Instance,
    NonDisjointGroupsError,
    Ranking,
    check_feasibility,
    derived_constraints,
    prefix_group_counts,
    satisfies,
    simple_constraints,
)
from conftest import (
    membership,
    random_disjoint_instance,
    random_feasible_constraints,
    random_intersectional_instance,
)


class TestSimpleConstraints:
    def test_floor_of_alpha_k(self):
        L = simple_constraints(0.3, 1, 10, 2)
        assert L.matrix[9, 1] == 3  # 0.3 * 10 rounds down to 3, not 2
        assert np.all(L.matrix[:, 0] == 0)

    def test_alpha_zero_is_unconstrained(self):
        L = simple_constraints(0.0, 0, 5, 2)
        assert not L.matrix.any()

    def test_alpha_half_column(self):
        L = simple_constraints(0.5, 1, 4, 2)
        assert L.matrix[:, 1].tolist() == [0, 1, 1, 2]

    def test_alpha_one(self):
        L = simple_constraints(1.0, 0, 4, 1)
        assert L.matrix[:, 0].tolist() == [1, 2, 3, 4]

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            simple_constraints(1.5, 0, 4, 1)
        with pytest.raises(ValueError):
            simple_constraints(-0.1, 0, 4, 1)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            simple_constraints(0.5, 2, 4, 2)

    @given(alpha=st.floats(0.0, 1.0), n=st.integers(1, 400), target=st.integers(0, 2))
    @settings(max_examples=200, deadline=None)
    def test_unchecked_matrix_passes_the_checked_constructor(self, alpha, n, target):
        L = simple_constraints(alpha, target, n, 3)
        assert ConstraintMatrix(L.matrix) == L
        assert not L.matrix.flags.writeable

    def test_needs_a_row(self):
        with pytest.raises(ValueError, match="at least one row"):
            simple_constraints(0.5, 0, 0, 1)

    def test_float_noise_does_not_lose_integral_products(self):
        # 0.2 * 15 and 0.3 * 10 are integral in real arithmetic but land
        # just under the integer in binary floating point
        assert simple_constraints(0.2, 0, 15, 1).matrix[14, 0] == 3
        assert simple_constraints(0.3, 0, 10, 1).matrix[9, 0] == 3


class TestDerivedConstraints:
    def test_counts_from_sorted_order(self):
        inst = Instance.from_arrays(
            [5.0, 4.0, 3.0, 2.0, 1.0], membership(5, [{0, 2, 4}, {1, 3}]), 3, DiscountVector.constant(3)
        )
        L = derived_constraints(inst)
        assert L.matrix[:, 0].tolist() == [1, 1, 2]
        assert L.matrix[:, 1].tolist() == [0, 1, 1]

    def test_single_group_with_all_items(self):
        inst = Instance.from_arrays([3.0, 1.0, 2.0], np.ones((3, 1), dtype=bool), 3, DiscountVector.constant(3))
        L = derived_constraints(inst)
        assert L.matrix[:, 0].tolist() == [1, 2, 3]

    def test_two_item_counterexample_target_column(self):
        inst = Instance.from_arrays([2.0, 1.0], np.eye(2, dtype=bool), 2, DiscountVector([2.0, 1.0]))
        L = derived_constraints(inst)
        assert L.matrix[:, 1].tolist() == [0, 1]
        assert L.matrix[:, 0].tolist() == [1, 1]

    def test_ties_break_by_ascending_id(self):
        inst = Instance.from_arrays([1.0, 1.0], np.eye(2, dtype=bool), 1, DiscountVector.constant(1))
        L = derived_constraints(inst)
        assert L.matrix[0].tolist() == [1, 0]

    def test_latent_optimal_ranking_satisfies_own_constraints(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            inst = random_disjoint_instance(rng)
            L = derived_constraints(inst)
            order = np.argsort(-inst.latent_utilities, kind="stable")[: inst.n]
            assert satisfies(Ranking(tuple(int(i) for i in order)), L, inst.membership_matrix)


class TestSatisfies:
    def test_zero_constraints_always_true(self):
        groups = membership(2, [{0}, {1}])
        L = ConstraintMatrix.zeros(2, 2)
        assert satisfies(Ranking((0, 1)), L, groups)
        assert satisfies(Ranking((1, 0)), L, groups)

    def test_unmet_first_position(self):
        groups = membership(2, [{0}, {1}])
        L = ConstraintMatrix([[0, 1], [0, 1]])
        assert not satisfies(Ranking((0, 1)), L, groups)
        assert satisfies(Ranking((1, 0)), L, groups)

    def test_dimension_mismatch(self):
        groups = membership(2, [{0}, {1}])
        with pytest.raises(ValueError):
            satisfies(Ranking((0,)), ConstraintMatrix.zeros(2, 2), groups)
        with pytest.raises(ValueError):
            satisfies(Ranking((0, 1)), ConstraintMatrix.zeros(2, 1), groups)

    def test_matrix_counts_match_per_item_loop(self):
        # overlapping groups and ungrouped items, checked against plain loops
        # over per-item group sets
        rng = np.random.default_rng(5150)
        outcomes = set()
        for _ in range(200):
            inst = random_intersectional_instance(rng)
            item_groups = [{s for s, flag in enumerate(row) if flag} for row in inst.membership_matrix.tolist()]

            def loop_counts(positions):
                counts, rows = [0] * inst.p, []
                for item in positions:
                    for s in item_groups[item]:
                        counts[s] += 1
                    rows.append(list(counts))
                return rows

            ranking = Ranking(tuple(int(i) for i in rng.permutation(inst.m)[: inst.n]))
            expected = loop_counts(ranking.positions)
            assert prefix_group_counts(ranking, inst.membership_matrix).tolist() == expected
            assert satisfies(ranking, ConstraintMatrix(expected), inst.membership_matrix)
            other = loop_counts(rng.permutation(inst.m)[: inst.n])
            meets = all(e >= o for erow, orow in zip(expected, other) for e, o in zip(erow, orow))
            assert satisfies(ranking, ConstraintMatrix(other), inst.membership_matrix) == meets
            outcomes.add(meets)
        assert outcomes == {True, False}

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_weaker_constraints_stay_satisfied(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_disjoint_instance(rng)
        L1 = random_feasible_constraints(rng, inst)
        # L2 <= L1 entrywise
        drop = rng.integers(0, 2, size=L1.matrix.shape)
        L2 = ConstraintMatrix(np.maximum.accumulate(np.maximum(L1.matrix - drop, 0), axis=0))
        order = np.argsort(-inst.latent_utilities, kind="stable")[: inst.n]
        ranking = Ranking(tuple(int(i) for i in order))
        if satisfies(ranking, L1, inst.membership_matrix):
            assert np.all(L2.matrix <= L1.matrix)
            assert satisfies(ranking, L2, inst.membership_matrix)


class TestCheckFeasibility:
    def test_two_items_cannot_share_first_position(self):
        groups = membership(2, [{0}, {1}])
        L = ConstraintMatrix([[1, 1], [1, 1]])
        assert not check_feasibility(L, groups)

    def test_exact_packing(self):
        groups = membership(3, [{0, 1}, {2}])
        L = ConstraintMatrix([[0, 0], [1, 0], [2, 1]])
        assert check_feasibility(L, groups)

    def test_demand_beyond_group_size(self):
        groups = membership(3, [{0}, {1, 2}])
        L = ConstraintMatrix([[0, 0], [1, 0], [2, 0]])
        assert not check_feasibility(L, groups)  # group 0 has one member
        assert not check_feasibility(ConstraintMatrix.zeros(4, 2), groups)  # 4 positions, 3 items

    def test_non_disjoint_rejected(self):
        groups = membership(2, [{0, 1}, {1}])
        with pytest.raises(NonDisjointGroupsError):
            check_feasibility(ConstraintMatrix.zeros(2, 2), groups)

    def test_simple_constraints_feasible_and_satisfiable(self):
        # alpha at most the group share: build the witness ranking by hand,
        # target items at even positions
        n, m_b = 6, 3
        groups = membership(6, [{0, 1, 2}, {3, 4, 5}])
        L = simple_constraints(0.5, 1, n, 2)
        assert check_feasibility(L, groups)
        witness = Ranking((0, 3, 1, 4, 2, 5))
        assert satisfies(witness, L, groups)

    @given(
        alpha=st.floats(min_value=0.0, max_value=1.0, width=32),
        m_b=st.integers(1, 6),
        m_a=st.integers(1, 6),
        n_cap=st.integers(1, 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_simple_constraints_feasible_when_group_large_enough(self, alpha, m_b, m_a, n_cap):
        import math

        n = min(n_cap, m_a + m_b)
        groups = membership(m_a + m_b, [set(range(m_a)), set(range(m_a, m_a + m_b))])
        L = simple_constraints(alpha, 1, n, 2)
        if math.floor(alpha * n + 1e-9) <= m_b:
            assert check_feasibility(L, groups)


class TestConstraintMatrixType:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            ConstraintMatrix([[-1]])

    def test_rejects_decreasing_columns(self):
        with pytest.raises(ValueError):
            ConstraintMatrix([[1], [0]])

    def test_rejects_demand_beyond_prefix(self):
        with pytest.raises(ValueError):
            ConstraintMatrix([[2], [2]])

    def test_json_round_trip(self):
        L = simple_constraints(0.5, 1, 4, 2)
        again = ConstraintMatrix.from_json_dict(L.to_json_dict())
        assert L == again

    def test_json_counts_and_bounds_are_whole_numbers(self):
        doc = {"n": 2.0, "p": 1.0, "L": [[0.0], [1.0]]}
        assert ConstraintMatrix.from_json_dict(doc) == ConstraintMatrix([[0], [1]])
        for key, value in (("n", 2.5), ("p", 0.5), ("L", [[0], [1.5]])):
            with pytest.raises(ValueError, match="must be a whole number"):
                ConstraintMatrix.from_json_dict({**doc, key: value})
        for key, value, got in (("n", "2", "a string"), ("p", True, "true"), ("L", [[False], [True]], "false")):
            with pytest.raises(ValueError, match=f"must be a whole number, got {got}$"):
                ConstraintMatrix.from_json_dict({**doc, key: value})

    def test_json_shape_mismatch(self):
        with pytest.raises(ValueError):
            ConstraintMatrix.from_json_dict({"n": 2, "p": 1, "L": [[0, 0], [0, 0]]})
