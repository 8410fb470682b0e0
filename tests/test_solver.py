import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
from biasrank.solver import _greedy
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


def rescan_greedy(labels, w, L) -> list[int]:
    """Reference greedy with the original lookahead: at every position,
    rescan every later prefix k for unmet demand that fills its k - j + 1
    open positions.  O(n^2 p)."""
    n, p = L.shape
    rows = L.tolist()
    order = np.argsort(-w, kind="stable").tolist()
    per_group = [[i for i in order if labels[i] == s] for s in range(p)]
    wl, placed, counts, out = w.tolist(), set(), [0] * p, []
    for j in range(1, n + 1):
        forced = None
        for k in range(j, n + 1):
            deficit = sum(max(0, rows[k - 1][s] - counts[s]) for s in range(p))
            if deficit > k - j + 1:
                raise InfeasibleConstraintsError(f"unmet demand {deficit} at prefix {k}")
            if deficit == k - j + 1:
                forced = [s for s in range(p) if rows[k - 1][s] > counts[s]]
                break
        if forced is None:
            pick = next(i for i in order if i not in placed)
        else:
            heads = []
            for s in forced:
                left = [i for i in per_group[s] if i not in placed]
                if not left:
                    raise InfeasibleConstraintsError(f"group {s} ran out of items at position {j}")
                heads.append(left[0])
            pick = min(heads, key=lambda i: (-wl[i], i))
        placed.add(pick)
        if labels[pick] >= 0:
            counts[labels[pick]] += 1
        out.append(pick)
    return out


@st.composite
def greedy_problems(draw, feasible: bool):
    """Disjoint groups (p = 1..4) plus ungrouped items, weights with or
    without ties, and bound columns that often jump by 2 or more.  With
    ``feasible`` false, rows may ask for more than k items in total or for
    more items than a group has, so the fill can break down midway."""
    p = draw(st.integers(1, 4))
    m = draw(st.integers(1, 100))
    n = draw(st.integers(1, min(m, 80)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.integers(-1, p, m)
    w = rng.integers(0, 4, m).astype(float) if draw(st.booleans()) else rng.uniform(-1.0, 1.0, m)
    grow = draw(st.sampled_from([0.2, 0.5, 0.8]))
    sizes = np.bincount(labels[labels >= 0], minlength=p)
    L = np.zeros((n, p), dtype=np.int64)
    row = np.zeros(p, dtype=np.int64)
    for k in range(1, n + 1):
        budget = k - row.sum() if feasible else 3
        for s in rng.permutation(p):
            cap = min(sizes[s], k) if feasible else k
            while budget > 0 and row[s] < cap and rng.random() < grow:
                row[s] += 1
                budget -= 1
        L[k - 1] = row
    return labels, w, L


def outcome(solve, *args):
    try:
        return solve(*args)
    except InfeasibleConstraintsError:
        return InfeasibleConstraintsError


class TestGreedyMatchesRescan:
    """The incremental slack lookahead picks exactly what the per-position
    prefix rescan picks."""

    @given(problem=greedy_problems(feasible=True))
    @settings(max_examples=150, deadline=None)
    def test_feasible_bounds(self, problem):
        labels, w, L = problem
        inst = Instance.from_arrays(w, labels, L.shape[0], DiscountVector.constant(L.shape[0]), p=L.shape[1])
        r = rank_constrained_greedy(inst, w, ConstraintMatrix(L))
        assert list(r.positions) == rescan_greedy(labels, w, L)

    @given(problem=greedy_problems(feasible=False))
    @settings(max_examples=150, deadline=None)
    def test_bounds_that_fail_mid_fill(self, problem):
        labels, w, L = problem
        assert outcome(_greedy, labels, w, L) == outcome(rescan_greedy, labels, w, L)

    @pytest.mark.parametrize(
        "L",
        [
            [[0, 0], [1, 1], [2, 2]],  # four items owed by position 3
            [[0, 1], [0, 2], [0, 3]],  # group 1 has two members
            [[0, 0], [0, 2], [1, 3]],  # group 1 runs out after a jump of 2
        ],
    )
    def test_mid_fill_failures_raise(self, L):
        labels = np.array([0, 0, 0, 1, 1, -1])
        w = np.array([0.9, 0.8, 0.7, 0.6, 0.5, 1.0])
        L = np.array(L)
        with pytest.raises(InfeasibleConstraintsError):
            rescan_greedy(labels, w, L)
        with pytest.raises(InfeasibleConstraintsError):
            _greedy(labels, w, L)


class TestExactRepairAtScale:
    """Solving the biased instance under the latent-optimal ranking's prefix
    counts returns the latent optimum, at the size of the repair experiment."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_derived_bounds_recover_latent_optimum(self, seed):
        rng = np.random.default_rng(seed)
        n, m, p = 400, 1600, 3
        labels = rng.integers(-1, p, m)
        inst = Instance.from_arrays(rng.uniform(0.0, 1.0, m), labels, n, DiscountVector.dcg(n), p=p)
        observed = observed_utilities(inst, BiasModel(rng.uniform(0.05, 0.95, p)))
        best = rank_unconstrained(inst, inst.latent_utilities)
        r = rank_constrained_greedy(inst, observed, derived_constraints(inst))
        assert r.positions == best.positions
        assert ranking_utility(r, inst.v, inst.latent_utilities) == ranking_utility(best, inst.v, inst.latent_utilities)
        assert rank_unconstrained(inst, observed).positions != best.positions
