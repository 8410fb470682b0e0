import tracemalloc
from unittest import mock

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
    Ranking,
    check_feasibility,
    derived_constraints,
    instance_from_json,
    instance_to_json,
    observed_utilities,
    rank_constrained_bruteforce,
    rank_constrained_greedy,
    rank_unconstrained,
    ranking_utility,
    satisfies,
)
from biasrank import model, solver
from biasrank.solver import _greedy
from conftest import (
    dp_optimum,
    enumerate_best_feasible,
    membership,
    random_disjoint_instance,
    random_feasible_constraints,
    two_group_instance,
)

TOL = 1e-9


def counterexample_instance(w0, w1):
    return Instance.from_arrays([w0, w1], np.eye(2, dtype=bool), 2, DiscountVector([2.0, 1.0]))


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
        inst = Instance.from_arrays([1.0] * 5, np.zeros((5, 0), dtype=bool), 3, DiscountVector.constant(3))
        assert rank_unconstrained(inst, inst.latent_utilities).positions == (0, 1, 2)

    def test_top_n_and_derived_bounds_select_without_a_full_sort(self):
        rng = np.random.default_rng(3)
        w = rng.uniform(0.0, 1.0, 50)
        mem = rng.integers(-1, 2, 50)[:, None] == np.arange(2)
        inst = Instance.from_arrays(w, mem, 10, DiscountVector.constant(10))
        top = np.argsort(-w, kind="stable")[:10]
        raises = {"side_effect": AssertionError("full sort")}
        with mock.patch.object(model, "_order", **raises), mock.patch.object(solver, "_order", **raises):
            assert list(rank_unconstrained(inst, w).positions) == top.tolist()
            assert derived_constraints(inst) == ConstraintMatrix(np.cumsum(inst.membership_matrix[top], axis=0))

    def test_nan_weights_rank_last_by_ascending_id(self):
        inst = Instance.from_arrays([1.0] * 5, np.zeros((5, 0), dtype=bool), 4, DiscountVector.constant(4))
        w = np.array([np.nan, 2.0, np.nan, 1.0, 0.5])
        assert rank_unconstrained(inst, w).positions == (1, 3, 4, 0)

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
        inst = Instance.from_arrays([1.0, 0.9, 0.8, 0.7], membership(4, [{2}, {3}]), 3, DiscountVector.constant(3))
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
        inst = Instance.from_arrays([1.0, 2.0], membership(2, [{0}, {0, 1}]), 1, DiscountVector.constant(1))
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
        inst = Instance.from_arrays(np.ones(11), np.zeros((11, 0), dtype=bool), 3, DiscountVector.constant(3))
        with pytest.raises(ValueError):
            rank_constrained_bruteforce(inst, inst.latent_utilities, ConstraintMatrix.zeros(3, 0))

    def test_infeasible_raises(self):
        inst = two_group_instance([1.0], [0.5], 2)
        L = ConstraintMatrix([[0, 1], [0, 2]])
        with pytest.raises(InfeasibleConstraintsError):
            rank_constrained_bruteforce(inst, inst.latent_utilities, L)

    def test_lexicographic_tie_break(self):
        inst = Instance.from_arrays([1.0, 1.0, 1.0], np.zeros((3, 0), dtype=bool), 2, DiscountVector.constant(2))
        r = rank_constrained_bruteforce(inst, inst.latent_utilities, ConstraintMatrix.zeros(2, 0))
        assert r.positions == (0, 1)

    def test_handles_intersectional_groups(self):
        inst = Instance.from_arrays([3.0, 2.0, 1.0], membership(3, [{0, 1}, {0, 2}]), 2, DiscountVector([2.0, 1.0]))
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
    without ties, and bound columns that often jump by 2 or more, or rows
    whose total grows by at most 1 per position, as under derived and
    ``floor(alpha * k)`` bounds, where the greedy never scans.  With
    ``feasible`` false, rows may ask for more than k items in total or for
    more items than a group has, so the fill can break down midway."""
    p = draw(st.integers(1, 4))
    unit = draw(st.booleans())
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
        if unit:
            budget = min(budget, 1)
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
        mem = labels[:, None] == np.arange(L.shape[1])
        inst = Instance.from_arrays(w, mem, L.shape[0], DiscountVector.constant(L.shape[0]))
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
            [[1, 1]],  # two items owed by position 1
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

    def test_overfull_prefix_before_a_tight_one(self):
        # At position 1, prefix 3 owes four items to three open positions
        # and prefix 4 is tight after it: the first maximum of the slack
        # tail is prefix 3, not the first prefix whose slack equals 1 - j.
        labels = np.array([0, 0, 0, 1, 1, -1])
        w = np.array([0.9, 0.8, 0.7, 0.6, 0.5, 1.0])
        L = np.array([[0, 0], [0, 0], [2, 2], [2, 2]])
        with pytest.raises(InfeasibleConstraintsError, match="prefix 3"):
            rescan_greedy(labels, w, L)
        with pytest.raises(InfeasibleConstraintsError, match="by 1 at prefix 3"):
            _greedy(labels, w, L)


@st.composite
def memberships(draw):
    """A boolean (m, p) membership with empty rows, p = 0 or a wide p, and
    sometimes rows in two or more groups, with nondecreasing bounds (n, p)
    whose rows ask for about 0, 0.3 or 1 item per position."""
    m = draw(st.integers(1, 40))
    p = draw(st.sampled_from([0, 1, 2, 3, 7, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mem = rng.integers(-1, p, m)[:, None] == np.arange(p)
    if draw(st.booleans()):
        mem |= rng.random((m, p)) < draw(st.sampled_from([0.02, 0.3]))
    n = draw(st.integers(1, m + 1))
    steps = rng.random((n, p)) < draw(st.sampled_from([0.0, 0.3, 1.0])) / max(p, 1)
    return mem, ConstraintMatrix(np.minimum(np.cumsum(steps, axis=0), np.arange(1, n + 1)[:, None]))


def matmul_feasibility(L, mem):
    """check_feasibility with its row and column counts read through int64
    matrix products: the oracle for the counting form."""
    m, p = mem.shape
    if np.any(mem @ np.ones(p, dtype=np.int64) > 1):
        raise NonDisjointGroupsError("groups overlap; use the brute-force solver")
    mat = L.matrix
    return bool(
        L.n <= m
        and np.all(mat[-1] <= np.ones(m, dtype=np.int64) @ mem)
        and np.all(mat.sum(axis=1) <= np.arange(1, L.n + 1))
    )


def overlap_outcome(check, *args):
    try:
        return check(*args)
    except NonDisjointGroupsError as exc:
        return str(exc)


class TestMembershipReadByCounting:
    """Feasibility and the greedy's labels read the membership matrix by
    counting and agree with the matrix-product forms."""

    @given(problem=memberships())
    @settings(max_examples=300, deadline=None)
    def test_feasibility_equals_matmul_form(self, problem):
        mem, L = problem
        assert overlap_outcome(check_feasibility, L, mem) == overlap_outcome(matmul_feasibility, L, mem)

    @given(problem=memberships())
    @settings(max_examples=150, deadline=None)
    def test_greedy_labels_equal_matmul_form(self, problem):
        mem, _ = problem
        m, p = mem.shape
        inst = Instance.from_arrays(np.linspace(1.0, 0.0, m), mem, 1, DiscountVector.constant(1))
        zeros = ConstraintMatrix.zeros(1, p)
        with mock.patch.object(solver, "_greedy", wraps=solver._greedy) as core:
            outcome = overlap_outcome(rank_constrained_greedy, inst, inst.latent_utilities, zeros)
        if mem.sum(axis=1).max() > 1:
            assert outcome == "groups overlap; use the brute-force solver" and not core.called
        else:
            assert outcome.positions == (0,)
            assert core.call_args.args[0].tolist() == (mem @ np.arange(1, p + 1) - 1).tolist()


def traced_peak(f, *args) -> int:
    """Peak bytes that tracemalloc sees while ``f(*args)`` runs."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMembershipMemory:
    """The solve path holds one (m, p) boolean matrix and no int64 copy:
    disjoint groups at m = 400 and p = 4000, 1.6 M cells, nearly all empty."""

    m, p = 400, 4000

    def instance(self) -> Instance:
        groups = np.arange(self.m) * 10 % self.p
        mem = (groups[:, None] == np.arange(self.p)) & (np.arange(self.m) % 2 == 0)[:, None]  # odd items ungrouped
        return Instance.from_arrays(np.linspace(1.0, 0.0, self.m), mem, 1, DiscountVector.constant(1))

    def test_feasibility_and_greedy_peak_below_one_byte_per_cell(self):
        inst, L = self.instance(), ConstraintMatrix.zeros(1, self.p)
        assert traced_peak(check_feasibility, L, inst.membership_matrix) < self.m * self.p
        assert traced_peak(rank_constrained_greedy, inst, inst.latent_utilities, L) < self.m * self.p

    def test_parse_peaks_below_two_and_a_half_bytes_per_cell(self):
        doc = instance_to_json(self.instance())
        assert traced_peak(instance_from_json, doc) < 2.5 * self.m * self.p


class TestGreedyWorksOnlyOnBoundedGroups:
    """A group bounded by 0 at n never forces a placement, so the greedy
    gives per-group work only to bounded groups: at p = 20000, one item in
    each of groups 0..999, it makes at most one ``np.searchsorted`` call
    per bounded group, and the rest of the groups cost it nothing."""

    m, p = 1000, 20000

    def solve(self, L):
        labels, w = np.arange(self.m), np.linspace(1.0, 0.0, self.m)
        with mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as searchsorted:
            ranking = outcome(_greedy, labels, w, L)
        return ranking, searchsorted.call_count

    def test_zero_bounds_make_no_per_group_calls(self):
        assert self.solve(np.zeros((1, self.p), dtype=np.int64)) == ([0], 0)

    def test_bounded_groups_keep_their_ids(self):
        L = np.zeros((3, self.p), dtype=np.int64)
        L[:, 999], L[1:, 998] = 1, 1  # the two lightest items, owed by positions 1 and 2
        assert self.solve(L) == ([999, 998, 0], 2)
        L[2, self.p - 1] = 1  # an empty group owed position 3, reported by its own id
        with pytest.raises(InfeasibleConstraintsError, match=f"^group {self.p - 1} ran out of items at position 3$"):
            _greedy(np.arange(self.m), np.linspace(1.0, 0.0, self.m), L)


class TestLookaheadPathsAtScale:
    """Both lookahead paths pick what the rescan picks at n=300, m=1200, p=3."""

    n, m, p = 300, 1200, 3

    def test_derived_bounds_take_the_tight_check(self):
        # Total demand grows by at most one per position, so no two demand
        # units fall due together and every forced step is tight at j itself.
        rng = np.random.default_rng(5)
        labels = rng.integers(-1, self.p, self.m)
        latent = rng.uniform(0.0, 1.0, self.m)
        w = latent * np.array([0.5, 0.7, 0.9, 1.0])[labels]
        top = np.argsort(-latent, kind="stable")[: self.n]
        L = np.cumsum(labels[top, None] == np.arange(self.p), axis=0)
        assert np.diff(L.sum(axis=1), prepend=0).max() == 1
        assert _greedy(labels, w, L) == rescan_greedy(labels, w, L) == top.tolist()

    def test_jumping_bounds_take_the_scan(self):
        # Columns jump by 2-3, often several at one position, so the first
        # tight prefix lies beyond j and the tail scan finds it.
        rng = np.random.default_rng(6)
        labels = rng.integers(-1, self.p, self.m)
        w = rng.uniform(0.0, 1.0, self.m)
        L = np.zeros((self.n, self.p), dtype=np.int64)
        row = np.zeros(self.p, dtype=np.int64)
        for k in range(1, self.n + 1):
            if rng.random() < 0.15:
                for s in rng.permutation(self.p)[: rng.integers(1, self.p + 1)]:
                    row[s] += min(int(rng.integers(2, 4)), k - int(row.sum()))
            L[k - 1] = row
        steps = np.diff(L, axis=0, prepend=0)
        assert steps.max() >= 2 and np.any((steps > 0).sum(axis=1) >= 2)
        assert _greedy(labels, w, L) == rescan_greedy(labels, w, L)


class TestGreedyMatchesDP:
    """The greedy's value equals the exact DP optimum at the Monte Carlo
    scale (m=1000, n up to 200), and the two agree on infeasibility."""

    KINDS = ("alpha", "derived", "jumps", "overfull", "short")

    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [100, 200])
    def test_value_and_feasibility(self, n, kind, tied):
        m = 1000
        rng = np.random.default_rng([n, self.KINDS.index(kind), tied])
        labels = rng.integers(-1, 2, m)
        if kind == "short":  # group 1 keeps 20 members and is owed floor(0.3 k)
            labels[np.flatnonzero(labels == 1)[20:]] = -1
        if tied:  # integer weights, and a discount that is flat in blocks of ten
            w = rng.integers(0, 30, m).astype(float)
            v = DiscountVector(np.repeat(np.linspace(1.0, 0.1, n // 10), 10))
        else:
            w = rng.uniform(0.0, 1.0, m)
            v = DiscountVector.dcg(n)
        inst = Instance.from_arrays(w, labels[:, None] == np.arange(2), n, v)
        if kind == "derived":  # solve the shaded instance under the latent optimum's prefix counts
            top = np.argsort(-w, kind="stable")[:n]
            L = ConstraintMatrix(np.cumsum(labels[top, None] == np.arange(2), axis=0))
            w = w * np.array([0.5, 0.8, 1.0])[labels]
        elif kind == "jumps":
            L = random_feasible_constraints(rng, inst)
        else:
            alpha = {"alpha": [0.3, 0.25], "overfull": [0.6, 0.5], "short": [0.1, 0.3]}[kind]
            k = np.arange(1, n + 1)[:, None]
            L = ConstraintMatrix(np.floor(np.array(alpha) * k + 1e-9).astype(np.int64))
        best = dp_optimum(labels, w, v.values, L.matrix)
        r = outcome(rank_constrained_greedy, inst, w, L)
        assert (best is None) == (kind in ("overfull", "short")) == (r is InfeasibleConstraintsError)
        if best is None:
            assert outcome(_greedy, labels, w, L.matrix) is InfeasibleConstraintsError
            return
        assert ranking_utility(r, v, w) == pytest.approx(best[0], rel=1e-12)
        if not tied:
            assert list(r.positions) == best[1]


class TestExactRepairAtScale:
    """Solving the biased instance under the latent-optimal ranking's prefix
    counts returns the latent optimum, at the size of the repair experiment."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_derived_bounds_recover_latent_optimum(self, seed):
        rng = np.random.default_rng(seed)
        n, m, p = 400, 1600, 3
        labels = rng.integers(-1, p, m)
        mem = labels[:, None] == np.arange(p)
        inst = Instance.from_arrays(rng.uniform(0.0, 1.0, m), mem, n, DiscountVector.dcg(n))
        observed = observed_utilities(inst, BiasModel(rng.uniform(0.05, 0.95, p)))
        best = rank_unconstrained(inst, inst.latent_utilities)
        r = rank_constrained_greedy(inst, observed, derived_constraints(inst))
        assert r.positions == best.positions
        assert ranking_utility(r, inst.v, inst.latent_utilities) == ranking_utility(best, inst.v, inst.latent_utilities)
        assert rank_unconstrained(inst, observed).positions != best.positions

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dp_on_shaded_weights_recovers_latent_optimum(self, seed):
        # Two groups plus ungrouped items, so the exact DP checks the claim
        # without the greedy; n=400 would cost the DP about 2.5 s per instance.
        rng = np.random.default_rng(seed)
        n, m = 200, 1000
        labels = rng.integers(-1, 2, m)
        mem = labels[:, None] == np.arange(2)
        inst = Instance.from_arrays(rng.uniform(0.0, 1.0, m), mem, n, DiscountVector.dcg(n))
        observed = observed_utilities(inst, BiasModel(rng.uniform(0.05, 0.95, 2)))
        _, ranked = dp_optimum(labels, observed, inst.v.values, derived_constraints(inst).matrix)
        best = rank_unconstrained(inst, inst.latent_utilities)
        latent = ranking_utility(Ranking(ranked), inst.v, inst.latent_utilities)
        assert latent == pytest.approx(ranking_utility(best, inst.v, inst.latent_utilities), rel=1e-12)
        assert ranked == list(best.positions)  # uniform draws: the weights are distinct
