import numpy as np
import pytest
from numpy.testing import assert_allclose

from biasrank import (
    BiasModel,
    ConstraintMatrix,
    DiscountVector,
    InfeasibleConstraintsError,
    Instance,
    NonDisjointGroupsError,
    derived_constraints,
    observed_utilities,
    rank_constrained_bruteforce,
    rank_constrained_greedy,
    rank_unconstrained,
    ranking_utility,
    satisfies,
)
from conftest import (
    enumerate_best_feasible,
    random_disjoint_instance,
    random_feasible_constraints,
    two_group_instance,
)

TOL = 1e-9


def counterexample_instance(w0, w1):
    return Instance.from_arrays([w0, w1], [[0], [1]], 2, DiscountVector.custom([2.0, 1.0]), p=2)


class TestRankUnconstrained:
    def test_biased_ranking_keeps_order_when_bias_is_small_enough(self):
        inst = counterexample_instance(2.0, 1.0)
        obs = observed_utilities(inst, BiasModel([1.0, 0.25]))
        r = rank_unconstrained(inst, obs)
        assert r.positions == (0, 1)
        assert_allclose(ranking_utility(r, inst.v, obs), 4.25, atol=TOL)

    def test_biased_ranking_loses_latent_utility(self):
        inst = counterexample_instance(1.0, 2.0)
        obs = observed_utilities(inst, BiasModel([1.0, 0.25]))
        assert_allclose(obs, [1.0, 0.5], atol=TOL)
        r = rank_unconstrained(inst, obs)
        assert r.positions == (0, 1)
        latent = ranking_utility(r, inst.v, inst.latent_utilities)
        best = ranking_utility(rank_unconstrained(inst, inst.latent_utilities), inst.v, inst.latent_utilities)
        assert_allclose(latent, 4.0, atol=TOL)
        assert_allclose(best, 5.0, atol=TOL)

    def test_ties_break_by_ascending_id(self):
        inst = Instance.from_arrays([1.0] * 5, [[]] * 5, 3, DiscountVector.constant(3), p=0)
        assert rank_unconstrained(inst, inst.latent_utilities).positions == (0, 1, 2)

    def test_weight_length_checked(self):
        inst = counterexample_instance(1.0, 2.0)
        with pytest.raises(ValueError):
            rank_unconstrained(inst, [1.0])


class TestGreedy:
    def test_forced_target_at_second_position(self):
        # expected values enumerated by hand over all 12 orderings
        inst = two_group_instance([0.9, 0.8], [0.85, 0.1], 2)
        observed = np.array([0.9, 0.8, 0.425, 0.05])
        L = ConstraintMatrix([[0, 0], [0, 1]])
        best_util, best_seq = enumerate_best_feasible(inst, observed, L)
        r = rank_constrained_greedy(inst, observed, L)
        assert r.positions == best_seq == (0, 2)
        assert_allclose(ranking_utility(r, inst.v, observed), best_util, atol=TOL)
        assert_allclose(ranking_utility(r, inst.v, inst.latent_utilities), 1.75, atol=TOL)

    def test_zero_constraints_match_unconstrained(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            inst = random_disjoint_instance(rng)
            w = rng.uniform(0, 1, inst.m)
            L = ConstraintMatrix.zeros(inst.n, inst.p)
            assert rank_constrained_greedy(inst, w, L).positions == rank_unconstrained(inst, w).positions

    def test_every_prefix_deadline_forces_a_target_item(self):
        inst = two_group_instance([0.9, 0.8, 0.7], [0.3, 0.2, 0.1], 3)
        L = ConstraintMatrix([[0, 1], [0, 2], [0, 2]])
        r = rank_constrained_greedy(inst, inst.latent_utilities, L)
        assert satisfies(r, L, inst.membership_matrix)
        assert r.positions == (3, 4, 0)
        oracle_util, _ = enumerate_best_feasible(inst, inst.latent_utilities, L)
        assert_allclose(ranking_utility(r, inst.v, inst.latent_utilities), oracle_util, atol=TOL)

    def test_column_jump_forces_early_placement(self):
        # two target items owed by position 2 pin position 1 even though
        # the first row demands nothing
        inst = two_group_instance([1.0, 0.9], [0.5, 0.4], 3)
        L = ConstraintMatrix([[0, 0], [0, 2], [0, 2]])
        r = rank_constrained_greedy(inst, inst.latent_utilities, L)
        assert satisfies(r, L, inst.membership_matrix)
        assert r.positions == (2, 3, 0)
        oracle_util, _ = enumerate_best_feasible(inst, inst.latent_utilities, L)
        assert_allclose(ranking_utility(r, inst.v, inst.latent_utilities), oracle_util, atol=TOL)

    def test_lookahead_spans_multiple_groups(self):
        # both groups owe one item by position 3, so position 2 is already pinned
        inst = Instance.from_arrays(
            [1.0, 0.9, 0.8, 0.7],
            [[], [], [0], [1]],
            3,
            DiscountVector.constant(3),
            p=2,
        )
        L = ConstraintMatrix([[0, 0], [0, 0], [1, 1]])
        r = rank_constrained_greedy(inst, inst.latent_utilities, L)
        assert satisfies(r, L, inst.membership_matrix)
        oracle_util, _ = enumerate_best_feasible(inst, inst.latent_utilities, L)
        assert_allclose(ranking_utility(r, inst.v, inst.latent_utilities), oracle_util, atol=TOL)

    def test_infeasible_rejected(self):
        inst = two_group_instance([1.0], [0.5], 2)
        L = ConstraintMatrix([[0, 1], [0, 2]])  # group 1 has one member
        with pytest.raises(InfeasibleConstraintsError):
            rank_constrained_greedy(inst, inst.latent_utilities, L)

    def test_non_disjoint_rejected(self):
        inst = Instance.from_arrays([1.0, 2.0], [[0, 1], [1]], 1, DiscountVector.constant(1), p=2)
        with pytest.raises(NonDisjointGroupsError):
            rank_constrained_greedy(inst, inst.latent_utilities, ConstraintMatrix.zeros(1, 2))

    def test_output_always_satisfies(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            inst = random_disjoint_instance(rng)
            L = random_feasible_constraints(rng, inst)
            w = rng.uniform(0, 1, inst.m)
            r = rank_constrained_greedy(inst, w, L)
            assert len(set(r.positions)) == inst.n
            assert satisfies(r, L, inst.membership_matrix)

    def test_constraints_never_raise_observed_optimum(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            inst = random_disjoint_instance(rng)
            L = random_feasible_constraints(rng, inst)
            w = rng.uniform(0, 1, inst.m)
            constrained = ranking_utility(rank_constrained_greedy(inst, w, L), inst.v, w)
            unconstrained = ranking_utility(rank_unconstrained(inst, w), inst.v, w)
            assert constrained <= unconstrained + TOL


class TestBruteForce:
    def test_zero_constraints_match_unconstrained(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            inst = random_disjoint_instance(rng)
            w = rng.uniform(0, 1, inst.m)
            L = ConstraintMatrix.zeros(inst.n, inst.p)
            bf = rank_constrained_bruteforce(inst, w, L)
            assert_allclose(
                ranking_utility(bf, inst.v, w),
                ranking_utility(rank_unconstrained(inst, w), inst.v, w),
                atol=TOL,
            )

    def test_recovers_latent_optimum_on_counterexample_instance(self):
        inst = counterexample_instance(2.0, 1.0)
        obs = observed_utilities(inst, BiasModel([1.0, 0.25]))
        L = derived_constraints(inst)
        r = rank_constrained_bruteforce(inst, obs, L)
        latent = ranking_utility(r, inst.v, inst.latent_utilities)
        assert_allclose(latent, 5.0, atol=TOL)

    def test_size_guard(self):
        inst = Instance.from_arrays(np.ones(11), [[]] * 11, 3, DiscountVector.constant(3), p=0)
        with pytest.raises(ValueError):
            rank_constrained_bruteforce(inst, inst.latent_utilities, ConstraintMatrix.zeros(3, 0))

    def test_infeasible_raises(self):
        inst = two_group_instance([1.0], [0.5], 2)
        L = ConstraintMatrix([[0, 1], [0, 2]])
        with pytest.raises(InfeasibleConstraintsError):
            rank_constrained_bruteforce(inst, inst.latent_utilities, L)

    def test_lexicographic_tie_break(self):
        inst = Instance.from_arrays([1.0, 1.0, 1.0], [[]] * 3, 2, DiscountVector.constant(2), p=0)
        r = rank_constrained_bruteforce(inst, inst.latent_utilities, ConstraintMatrix.zeros(2, 0))
        assert r.positions == (0, 1)

    def test_handles_intersectional_groups(self):
        inst = Instance.from_arrays(
            [3.0, 2.0, 1.0],
            [[0, 1], [0], [1]],
            2,
            DiscountVector.custom([2.0, 1.0]),
            p=2,
        )
        L = ConstraintMatrix([[0, 1], [1, 1]])
        r = rank_constrained_bruteforce(inst, inst.latent_utilities, L)
        assert satisfies(r, L, inst.membership_matrix)
        util, seq = enumerate_best_feasible(inst, inst.latent_utilities, L)
        assert r.positions == seq


class TestGreedyMatchesOracle:
    def test_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(150):
            inst = random_disjoint_instance(rng)
            L = random_feasible_constraints(rng, inst)
            w = rng.uniform(0, 1, inst.m)
            g = rank_constrained_greedy(inst, w, L)
            b = rank_constrained_bruteforce(inst, w, L)
            assert_allclose(
                ranking_utility(g, inst.v, w), ranking_utility(b, inst.v, w), atol=TOL
            )
