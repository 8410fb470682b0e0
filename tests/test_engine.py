"""The batched trial engine against its scalar oracles.

``run_trials`` and ``run_sweep`` must reproduce ``run_trial`` exactly, the
top-n selection must equal the prefix of the full stable sort, the
stacked scoring must equal ``ranking_utility`` bit for bit, and the
closed-form single-column placement must equal the greedy solver.
Block seeding must put every trial's generator in the state
``rng_for_trial`` gives it, every distribution must draw the same bits
into a block row as into a new array, ``estimate_order_stats`` must
return the same report whatever its block size,
``supernumerary_compare`` must equal the per-trial loop, errors included,
and every engine must follow the one block rule of ``_draw_blocks``.
"""

from __future__ import annotations

import contextlib
import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from biasrank import (
    DiscountVector,
    Empirical,
    InfeasibleConstraintsError,
    Instance,
    LogNormal,
    Normal,
    Ranking,
    SeedSpec,
    ShiftedScaled,
    SupernumeraryConfig,
    TrialConfig,
    Uniform,
    apply_score_shift,
    estimate_order_stats,
    rank_constrained_greedy,
    ranking_utility,
    run_sweep,
    run_trial,
    run_trials,
    simple_constraints,
    supernumerary_compare,
    supernumerary_seats,
)
from biasrank import experiments, model, stats
from biasrank.solver import _single_column_slots
from conftest import dp_optimum

# Uniform draws into a block row take rng.random when a is 0 (signed zero
# included) and rng.uniform otherwise; each must give rng.uniform's bits.
UNIFORMS = [Uniform(0, 1), Uniform(0, 100), Uniform(-0.0, 2.0)]
DISTS = UNIFORMS + [Empirical([0.0, 1.0, 1.0, 2.0, 3.0, 3.0]), Normal(0, 1)]
DISCOUNTS = {"constant": DiscountVector.constant, "dcg": DiscountVector.dcg, "zipf": DiscountVector.zipf}


@st.composite
def trial_configs(draw):
    m_a = draw(st.integers(0, 25))
    m_b = draw(st.integers(0 if m_a else 1, 25))
    n = draw(st.integers(1, m_a + m_b))
    return TrialConfig(
        m_a=m_a,
        m_b=m_b,
        n=n,
        beta=draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)),
        alpha=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        dist_a=draw(st.sampled_from(DISTS)),
        dist_b=draw(st.sampled_from(DISTS)),
        discount=DISCOUNTS[draw(st.sampled_from(sorted(DISCOUNTS)))](n),
        target_group=draw(st.integers(0, 1)),
    )


def feasible(cfg: TrialConfig, alpha: float) -> bool:
    size = cfg.m_b if cfg.target_group == 1 else cfg.m_a
    return math.floor(alpha * cfg.n + 1e-9) <= size


# Engine blocks of 1, 3 and 7 trials, seeded two blocks at a time, put
# block and seeding-chunk edges inside short trial ranges, so the oracle's
# cost does not grow with the production block.
BLOCK_ROWS = (1, 3, 7)
ENGINE_BLOCKS = st.sampled_from([*BLOCK_ROWS, None])


@contextlib.contextmanager
def blocks_of(rows, m):
    """Engine blocks of ``rows`` trials of m utilities each, seeded two
    blocks a chunk, or of the production sizes when ``rows`` is None."""
    if rows is None:
        yield
        return
    with mock.patch.object(experiments, "BLOCK_ELEMENTS", rows * m), mock.patch.object(stats, "SEED_BLOCK", 2 * rows):
        yield


def assert_sweep_equals_loop(cfg, alphas, betas, trials, spec, block):
    """``run_sweep``'s means and standard errors equal those of ``run_trial``
    over each (beta, alpha) cell, bit for bit."""
    with blocks_of(block, cfg.m_a + cfg.m_b):
        rows = iter(run_sweep(cfg, alphas, betas, trials, spec).rows)
    for beta in betas:
        for alpha in alphas:
            cell = replace(cfg, alpha=alpha, beta=beta)
            reports = [run_trial(cell, i, spec) for i in range(trials)]
            row = next(rows)
            for field in ("cons", "uncons", "opt"):
                values = np.array([getattr(r, f"u_{field}") for r in reports])
                se = values.std(ddof=1) / math.sqrt(trials) if trials > 1 else 0.0
                assert getattr(row, f"mean_{field}") == values.mean()
                assert getattr(row, f"se_{field}") == se


class TestEngineMatchesRunTrial:
    @given(cfg=trial_configs(), trials=st.integers(1, 17), seed=st.integers(0, 2**64 - 1), block=ENGINE_BLOCKS)
    @settings(max_examples=80, deadline=None)
    def test_run_trials_equals_run_trial(self, cfg, trials, seed, block):
        spec = SeedSpec(seed)
        if not feasible(cfg, cfg.alpha):
            with pytest.raises(InfeasibleConstraintsError):
                run_trial(cfg, 0, spec)
            with pytest.raises(InfeasibleConstraintsError):
                run_trials(cfg, trials, spec)
            return
        with blocks_of(block, cfg.m_a + cfg.m_b):
            reports = run_trials(cfg, trials, spec)
        assert reports == [run_trial(cfg, i, spec) for i in range(trials)]

    @given(
        cfg=trial_configs(),
        alphas=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
        betas=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2),
        trials=st.integers(1, 9),
        seed=st.integers(0, 2**64 - 1),
        block=ENGINE_BLOCKS,
    )
    @settings(max_examples=40, deadline=None)
    def test_sweep_means_equal_per_trial_loop(self, cfg, alphas, betas, trials, seed, block):
        alphas = [a for a in alphas if feasible(cfg, a)] or [0.0]
        assert_sweep_equals_loop(cfg, alphas, betas, trials, SeedSpec(seed), block)

    # A beta reuses the shaded group's latent candidates unless two adjacent
    # scaled values among them tie, and then selects anew.  Only a tie that
    # the scaling makes (the first two cases) needs the new selection.
    @pytest.mark.parametrize("block", [*BLOCK_ROWS, None])
    @pytest.mark.parametrize(
        "dist_b, n, betas",
        [
            (Empirical([0.9226872211976584, 0.9226872211976586]), 1, [0.9, 0.5]),  # 0.9 maps both to one float
            (Uniform(0, 1), 4, [0.0, 0.5]),
            (Empirical([0.0, 1.0, 1.0, 2.0]), 4, [0.5, 1.0]),  # latent ties at the cut
        ],
        ids=["scaling-tie", "beta-zero", "latent-tie-at-cut"],
    )
    def test_candidate_reuse_falls_back_on_ties(self, dist_b, n, betas, block):
        cfg = TrialConfig(
            m_a=5, m_b=9, n=n, beta=betas[0], alpha=0.0,
            dist_a=Uniform(0, 0.5), dist_b=dist_b, discount=DiscountVector.dcg(n),
        )
        assert_sweep_equals_loop(cfg, [0.0, 0.5, 1.0], betas, 20, SeedSpec(41), block)

    @pytest.mark.parametrize("betas, fallbacks", [([0.25, 0.5], 0), ([0.0, 0.5], 1)])
    @pytest.mark.parametrize("block", [7, None])
    def test_one_selection_per_group_and_block(self, betas, fallbacks, block):
        # perfbench's sweep: m=1000, m_b=250, n=100, DCG, 11 alphas, 30 trials
        cfg = TrialConfig(
            m_a=750, m_b=250, n=100, beta=betas[0], alpha=0.0,
            dist_a=Uniform(0, 1), dist_b=Uniform(0, 1), discount=DiscountVector.dcg(100),
        )
        alphas = [round(0.05 * i, 2) for i in range(11)]
        with blocks_of(block, 1000), mock.patch.object(experiments, "_top", wraps=experiments._top) as top:
            run_sweep(cfg, alphas, betas, 30, SeedSpec(0))
        blocks = math.ceil(30 / (block or experiments.BLOCK_ELEMENTS // 1000))
        assert top.call_count == blocks * (2 + fallbacks)

    # Acceptance C5 (two trial sets) and C7 take their reports from
    # run_trials; the scalar oracle checks their configs on the first trials.
    @pytest.mark.parametrize(
        "m, seed", [(100, 55001), (1000, 55002), (100, 77001)], ids=["c5", "c5-large-pool", "c7"]
    )
    def test_acceptance_configs(self, m, seed):
        cfg = TrialConfig(
            m_a=m, m_b=m, n=100, beta=0.5, alpha=0.5,
            dist_a=Uniform(0, 1), dist_b=Uniform(0, 1), discount=DiscountVector.constant(100),
        )
        spec = SeedSpec(seed)
        # two production blocks of 2m utilities per trial, and one trial more
        trials = 2 * (experiments.BLOCK_ELEMENTS // (2 * m)) + 1
        assert run_trials(cfg, trials, spec) == [run_trial(cfg, i, spec) for i in range(trials)]


@st.composite
def tie_heavy_matrices(draw):
    rows = draw(st.integers(1, 4))
    width = draw(st.integers(1, 12))
    values = st.sampled_from([-0.0, 0.0]) | st.integers(-3, 3).map(float)
    return np.array(draw(st.lists(st.lists(values, min_size=width, max_size=width), min_size=rows, max_size=rows)))


class TestTopSelection:
    @given(x=tie_heavy_matrices())
    @settings(max_examples=200, deadline=None)
    def test_equals_prefix_of_full_order(self, x):
        full = experiments._order(x)
        for c in range(1, x.shape[1] + 1):
            assert experiments._top(x, c).tolist() == full[:, :c].tolist()

    def straddles(self, x, c):
        """Whether some row's c-th and (c+1)-th largest values tie, after
        checking ``_top(x, c)`` against the full sort with ``_order`` made
        to raise."""
        with mock.patch.object(model, "_order", side_effect=AssertionError("full sort")):
            top = experiments._top(x, c)
        assert top.tolist() == np.argsort(-x, axis=1, kind="stable")[:, :c].tolist()
        desc = -np.sort(-x, axis=1)
        return bool(np.any(desc[:, c - 1] == desc[:, c]))

    def test_partition_branch_without_a_straddling_tie(self):
        # ties inside the top 3 and below it, none across the cut
        x = np.array([[1.0, 5.0, 0.0, 5.0, 2.0, 0.0, -0.0], [3.0, 3.0, 8.0, -1.0, -1.0, 9.0, 9.0]])
        assert not self.straddles(x, 3)

    def test_tie_branch_on_a_straddling_tie(self):
        # row 1's 2nd and 3rd largest tie (0.0 and -0.0)
        assert self.straddles(np.array([[4.0, 3.0, 2.0, 1.0], [-0.0, 7.0, 0.0, -2.0]]), 2)
        # discrete utilities: ties straddle the cut in every row, by many ids
        x = np.array([[1.0, 2.0, 1.0, 0.0, 2.0, 1.0, 1.0, -0.0, 1.0], [0.0, 0.0, -0.0, 3.0, 0.0, 0.0, 3.0, 0.0, 1.0]])
        assert self.straddles(x, 4)

    def test_empty_group_and_full_width(self):
        assert experiments._top(np.empty((2, 0)), 0).shape == (2, 0)
        assert experiments._top(np.array([[2.0, 1.0, 2.0]]), 3).tolist() == [[0, 2, 1]]


@st.composite
def single_column_problems(draw):
    m = draw(st.integers(1, 25))
    n = draw(st.integers(1, m))
    labels = np.array(draw(st.lists(st.integers(-1, 1), min_size=m, max_size=m)))
    rows = draw(st.integers(1, 4))
    ties = draw(st.booleans())
    weights = st.integers(0, 3).map(float) if ties else st.floats(-1.0, 1.0)
    w = np.array(draw(st.lists(st.lists(weights, min_size=m, max_size=m), min_size=rows, max_size=rows)))
    alphas = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=3))
    return w, labels, n, alphas, draw(st.integers(0, 1))


@st.composite
def scoring_problems(draw):
    """``(w, ids, v)``: rows of values from 1e-12 to 1e13 in magnitude, of
    both signs and with zeros, in C, Fortran or strided layout, and
    distinct-id rankings of shape (rows, n) or (rows, alphas, n)."""
    rows = draw(st.integers(1, 4))
    width = draw(st.integers(1, 60))
    n = draw(st.sampled_from([1, width]) | st.integers(1, width))
    lead = (rows,) if draw(st.booleans()) else (rows, draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def wide(*shape):
        x = rng.uniform(-10.0, 10.0, shape) * 10.0 ** rng.integers(-12, 13, shape)
        return np.where(rng.random(shape) < 0.05, 0.0, x)

    w = wide(rows, width)
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        w = np.asfortranarray(w)
    elif layout == "strided":
        w = np.repeat(w, 2, axis=1)[:, ::2]
    ids = np.array([rng.permutation(width)[:n] for _ in range(math.prod(lead))])
    return w, ids.reshape(*lead, n), wide(n)


class TestBatchedScoring:
    @given(problem=scoring_problems())
    @settings(max_examples=300, deadline=None)
    def test_equals_per_row_dot_bit_for_bit(self, problem):
        w, ids, v = problem
        u = experiments._utilities(w, ids, v)
        assert u.shape == ids.shape[:-1]
        for idx in np.ndindex(*ids.shape[:-1]):
            row = w[idx[0]]
            assert u[idx] == row[ids[idx]] @ v
            assert u[idx] == ranking_utility(Ranking(ids[idx]), v, row)

    def test_a_sum_off_by_one_ulp_fails_loudly(self):
        # a numpy or BLAS build whose stacked product summed in another order
        rng = np.random.default_rng(5)
        w, v = rng.normal(size=(3, 12)), DiscountVector.dcg(6).values
        ids = np.argsort(-w, axis=1)[:, :6]
        matmul = np.matmul
        with mock.patch.object(np, "matmul", lambda a, b: np.nextafter(matmul(a, b), np.inf)):
            with pytest.raises(RuntimeError, match=f"numpy {np.__version__}"):
                experiments._utilities(w, ids, v)
            with pytest.raises(RuntimeError):
                experiments._utilities(w, np.stack([ids, ids], axis=1), v)


def closed_form(order, target, bounds):
    """The closed form's rankings ``best[row, at]``, (rows, cols, n), and target counts, (rows, cols)."""
    best, at, count = _single_column_slots(np.asarray(order), target, np.asarray(bounds, dtype=np.int64))
    return best[np.arange(len(best))[:, None, None], at], count


class TestClosedFormPlacement:
    @given(problem=single_column_problems())
    @settings(max_examples=300, deadline=None)
    def test_equals_greedy(self, problem):
        w, labels, n, alphas, target = problem
        Ls = [simple_constraints(a, target, n, 2) for a in alphas]
        order = np.argsort(-w, axis=1, kind="stable")
        try:
            ids, count = closed_form(order, labels == target, [L.matrix[:, target] for L in Ls])
        except InfeasibleConstraintsError:
            ids = None
        mem = labels[:, None] == np.arange(2)
        for r, row in enumerate(w):
            inst = Instance.from_arrays(row, mem, n, DiscountVector.constant(n))
            for a, L in enumerate(Ls):
                if ids is None:
                    # one infeasible bound fails the whole batch
                    with pytest.raises(InfeasibleConstraintsError):
                        for L in Ls:
                            rank_constrained_greedy(inst, row, L)
                    break
                expected = rank_constrained_greedy(inst, row, L).positions
                assert tuple(ids[r, a].tolist()) == expected
                assert count[r, a] == np.count_nonzero(labels[list(expected)] == target)

    @pytest.mark.parametrize("beta", [0.5, 0.9])
    def test_whole_batches_are_optimal(self, beta):
        # the C6 shape: m_a = m_b = 500, n=100, DCG, floor(alpha*k) on the shaded group
        m_a, m_b, n, alphas = 500, 500, 100, [0.1, 0.3, 0.5]
        rng = np.random.default_rng(int(beta * 10))
        labels = np.repeat([0, 1], [m_a, m_b])
        w = rng.uniform(0.0, 1.0, (4, m_a + m_b)) * np.where(labels == 1, beta, 1.0)
        v = DiscountVector.dcg(n).values
        bounds = [simple_constraints(a, 1, n, 2).matrix for a in alphas]
        ids, _ = closed_form(np.argsort(-w, axis=1, kind="stable"), labels == 1, [L[:, 1] for L in bounds])
        for r, row in enumerate(w):
            for a, L in enumerate(bounds):
                best, _ = dp_optimum(labels, row, v, L)
                assert row[ids[r, a]] @ v == pytest.approx(best, rel=1e-12)

    def test_count_switches_between_observed_and_bound(self):
        # Observed order T T O O O O O T T T T T T T under floor(k/2) at n=12:
        # the top p holds its observed targets U_p for p <= 3, the bound's
        # for 6 <= p <= 8 (U_p = 2 or 3 < L), and U_p again from p = 11.
        labels = np.array([1, 1, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1])
        w = np.linspace(1.0, 0.1, labels.size)
        n, L = 12, simple_constraints(0.5, 1, 12, 2)
        U, bound = np.cumsum(labels[:n]), L.matrix[:, 1]
        assert (U > bound)[:3].all() and (U < bound)[5:8].all() and (U > bound)[10:].all()
        ids, count = closed_form(np.argsort(-w, kind="stable")[None], labels == 1, bound[None])
        inst = Instance.from_arrays(w, labels[:, None] == np.arange(2), n, DiscountVector.constant(n))
        expected = rank_constrained_greedy(inst, w, L).positions
        assert expected == (0, 1, 2, 3, 4, 7, 5, 8, 6, 9, 10, 11)
        assert tuple(ids[0, 0].tolist()) == expected
        assert count.shape == (1, 1) and count[0, 0] == 7

    def test_raises_on_infeasible_bounds(self):
        order = np.arange(6)[None]
        target = np.array([True, True, False, False, False, False])
        with pytest.raises(InfeasibleConstraintsError):
            closed_form(order, target, [np.array([1, 2, 3])])
        with pytest.raises(InfeasibleConstraintsError):
            closed_form(order, target, [np.zeros(7, dtype=np.int64)])
        with pytest.raises(ValueError):
            closed_form(order, target, [np.array([0, 2, 2])])


class CountingUniform(Uniform):
    """Uniform on [0, 1) that counts its draws."""

    __slots__ = ("calls",)

    def __init__(self):
        super().__init__(0.0, 1.0)
        self.calls = 0

    def draw(self, rng, size, out=None):
        self.calls += 1
        return super().draw(rng, size, out)


class TestInfeasibleAlphaFailsBeforeDrawing:
    def config(self, dist):
        return TrialConfig(
            m_a=18, m_b=2, n=10, beta=0.5, alpha=0.0,
            dist_a=dist, dist_b=dist, discount=DiscountVector.constant(10),
        )

    def test_feasible_runs_count_every_draw(self):
        # the positive control: without it, calls == 0 below could mean the
        # counter is never reached
        dist = CountingUniform()
        run_sweep(self.config(dist), [0.0, 0.1, 0.2], [0.25, 0.5], trials=37, seed=SeedSpec(0))
        assert dist.calls == 2 * 37
        dist = CountingUniform()
        estimate_order_stats(3, 2, 10, 12, dist, 300, SeedSpec(0))
        assert dist.calls == 300

    def test_only_last_alpha_infeasible(self):
        dist = CountingUniform()
        # floor(0.2 * 10) = 2 fits the two target items, floor(0.3 * 10) = 3 does not
        with pytest.raises(InfeasibleConstraintsError, match="no ranking satisfies the constraint matrix"):
            run_sweep(self.config(dist), [0.0, 0.1, 0.2, 0.3], [0.25, 0.5], trials=50, seed=SeedSpec(0))
        assert dist.calls == 0

    def test_run_trials(self):
        dist = CountingUniform()
        cfg = self.config(dist)
        with pytest.raises(InfeasibleConstraintsError):
            run_trials(replace(cfg, alpha=0.5), 20, SeedSpec(0))
        assert dist.calls == 0


def first_cell_error(base, alphas, betas):
    """The error a loop of ``replace`` over every (beta, alpha) cell raises first, or None."""
    for beta in betas:
        for alpha in alphas:
            try:
                replace(base, alpha=float(alpha), beta=float(beta))
            except (TypeError, ValueError) as exc:
                return exc
    return None


class TestSweepScoresFromSlots:
    """The sweep scores its constrained rankings from the closed form's
    slots, and checks 12 of the 22 cells of an 11-alpha, 2-beta grid."""

    # A mixing beta puts targets in the observed top n, and the empirical
    # sample's few values tie before and after scaling.
    CONFIG = TrialConfig(
        m_a=6, m_b=9, n=5, beta=0.9, alpha=0.0,
        dist_a=Uniform(0, 2), dist_b=Empirical([0.0, 1.0, 1.0, 2.0, 2.0]), discount=DiscountVector.dcg(5),
    )

    @pytest.mark.parametrize("block", [*BLOCK_ROWS, None])
    def test_equals_per_trial_loop(self, block):
        # targets in the observed top n, and bounds that place more of them
        reports = run_trials(replace(self.CONFIG, alpha=0.8), 30, SeedSpec(3))
        assert any(r.n_b_uncons for r in reports) and any(r.n_b_cons > r.n_b_uncons for r in reports)
        assert_sweep_equals_loop(self.CONFIG, [0.0, 0.4, 0.8], [0.9, 0.5], 30, SeedSpec(3), block)

    @pytest.mark.parametrize(
        "betas, alphas",
        [
            ([0.5, 2.0], [0.1, -1.0]),  # the first beta's second cell: alpha
            ([2.0], [-1.0]),  # one cell, both bad: beta first
            ([0.5, 2.0], [0.1]),  # the second beta's cell: beta
            ([0.5, 2.0], [0.1, "x"]),  # a non-number alpha, before the bad beta
            (["x"], [2.0]),  # a non-number beta
            ([0.5, None], [0.1, 0.2]),  # a non-number second beta
        ],
        ids=["alpha-in-first-row", "beta-before-alpha", "second-beta", "string-alpha", "string-beta", "none-beta"],
    )
    def test_raises_the_first_error_of_every_cell(self, betas, alphas):
        expected = first_cell_error(self.CONFIG, alphas, betas)
        dist = CountingUniform()
        cfg = replace(self.CONFIG, dist_a=dist, dist_b=dist)
        with pytest.raises(type(expected)) as raised:
            run_sweep(cfg, alphas, betas, 5, SeedSpec(0))
        assert type(raised.value) is type(expected) and str(raised.value) == str(expected)
        assert dist.calls == 0

    def test_validates_the_first_row_and_column(self):
        alphas, betas = [round(0.05 * i, 2) for i in range(11)], [0.25, 0.5]
        with mock.patch.object(experiments, "replace", wraps=replace) as checked:
            run_sweep(self.CONFIG, alphas, betas, 2, SeedSpec(0))
        assert [(c.kwargs["beta"], c.kwargs["alpha"]) for c in checked.call_args_list] == (
            [(0.25, a) for a in alphas] + [(0.5, 0.0)]
        )
        for empty in ([], [0.5]), ([0.5], []):
            with mock.patch.object(experiments, "replace", wraps=replace) as checked:
                run_sweep(self.CONFIG, *empty, 2, SeedSpec(0))
            assert not checked.called


# One of each distribution kind; the empirical sample is full of ties.
FIVE_KINDS = [
    Uniform(-1.0, 2.0),
    LogNormal(0.3, 1.2),
    Normal(1.0, 0.5),
    Empirical([0.0, 1.0, 1.0, 2.0, 3.0, 3.0]),
    ShiftedScaled(Normal(0.0, 1.0), -2.0, 1.0),
]
SEEDS = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]) | st.integers(0, 2**64 - 1)
# Seeding blocks of 1, 3 and 7 trials put several block edges inside short ranges.
SEED_BLOCKS = st.sampled_from([1, 3, 7, stats.SEED_BLOCK])
# Edge values of the 128-bit arithmetic's uint64 halves, whose products and sums carry.
UINT64S = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, stats._PCG64_MULT % 2**64]) | st.integers(0, 2**64 - 1)


@st.composite
def trial_ranges(draw):
    start = draw(st.integers(0, 40) | st.integers(0, 2**40))
    return start, start + draw(st.integers(0, 20))


class Drawn:
    """``dist`` as one group of a trial's draws that keeps each draw's bytes;
    ``draw(rng, size, out)`` must return ``out`` itself."""

    def __init__(self, dist):
        self.dist, self.drawn = dist, []

    def draw(self, rng, size, out=None):
        x = self.dist.draw(rng, size, out)
        assert out is None or x is out
        self.drawn.append(x.tobytes())
        return x


def rows_of(block, *groups):
    """``block`` rows of draws for ``SeedSpec._draw_trials``, every row the same ``(dist, size, out)`` groups."""
    return [list(groups)] * block


class TestBlockSeeding:
    @given(seed=SEEDS, span=trial_ranges())
    @settings(max_examples=60, deadline=None)
    def test_states_equal_rng_for_trial(self, seed, span):
        start, stop = span
        states = stats._srandom(*stats._seed_words(stats._trial_seeds(seed, start, stop))).tolist()
        want = []
        for i in range(start, stop):
            state = SeedSpec(seed).rng_for_trial(i).bit_generator.state["state"]
            want.append([state["state"] >> 64, state["state"] % 2**64, state["inc"] >> 64, state["inc"] % 2**64])
        assert states == want

    @given(
        seed=SEEDS, trials=st.integers(1, 20), block=st.sampled_from(BLOCK_ROWS), chunk=SEED_BLOCKS, size=st.integers(0, 12)
    )
    @settings(max_examples=40, deadline=None)
    def test_first_draws_equal_for_every_distribution_kind(self, seed, trials, block, chunk, size):
        """Each trial draws twice, into the middle columns of a block row, leaving the rest alone, then as a new
        array; seeding chunks and blocks of 1, 3 and 7 trials put their edges inside short runs."""
        spec = SeedSpec(seed)
        for dist in FIVE_KINDS + UNIFORMS:
            want = []
            for i in range(trials):
                rng = spec.rng_for_trial(i)
                want += [dist.draw(rng, size).tobytes(), dist.draw(rng, size).tobytes()]
            drawn = Drawn(dist)
            buf = np.full((block, size + 3), np.nan)
            rows = [[(drawn, size, row[2 : 2 + size]), (drawn, size, None)] for row in buf]
            written = []
            with mock.patch.object(stats, "SEED_BLOCK", chunk):
                for part in spec._draw_trials(trials, rows):
                    w = buf[: part.stop - part.start]
                    written += [row[2 : 2 + size].tobytes() for row in w]
                    assert np.isnan(w[:, :2]).all() and np.isnan(w[:, 2 + size :]).all()
            assert drawn.drawn == want
            assert written == want[::2]

    @given(seed=SEEDS, span=trial_ranges())
    @settings(max_examples=100, deadline=None)
    def test_vectorised_splitmix_equals_trial_seed(self, seed, span):
        spec = SeedSpec(seed)
        start, stop = span
        assert stats._trial_seeds(seed, start, stop).tolist() == [spec.trial_seed(i) for i in range(start, stop)]

    def test_run_across_default_chunk_edge(self):
        spec = SeedSpec(2**64 - 1)
        drawn = Drawn(Uniform(0.0, 1.0))
        trials = stats.SEED_BLOCK + 9  # 1022 trials a chunk in blocks of 7
        parts = list(spec._draw_trials(trials, rows_of(7, (drawn, 2, None))))
        assert parts == [slice(i, min(i + 7, trials)) for i in range(0, trials, 7)]
        assert drawn.drawn == [spec.rng_for_trial(i).uniform(size=2).tobytes() for i in range(trials)]

    def test_no_trials_draw_nothing(self):
        """No trials give ``_draw_blocks`` a buffer of no rows, and nothing is drawn or yielded."""
        drawn = Drawn(Uniform())
        assert list(experiments._draw_blocks(SeedSpec(0), 0, ((Uniform(), 3),))) == []
        assert list(SeedSpec(0)._draw_trials(0, rows_of(0, (drawn, 3, None)))) == [] and drawn.drawn == []

    def test_changed_seeding_fails_loudly(self):
        # a numpy release that seeded PCG64 differently would derive other states
        with mock.patch.object(stats, "_PCG64_MULT", stats._PCG64_MULT + 2):
            with pytest.raises(RuntimeError, match=f"numpy {np.__version__}"):
                next(SeedSpec(3)._draw_trials(9, rows_of(2)))

    def test_buffered_uint32_does_not_leak_into_the_next_trial(self):
        # three bounded 32-bit draws leave half of a 64-bit output buffered
        class Bounded:
            def draw(self, rng, size, out):
                got.append((rng.bit_generator.state, rng.integers(0, 7, 3).tolist()))
                assert rng.bit_generator.state["has_uint32"] == 1

        spec, got = SeedSpec(11), []
        list(spec._draw_trials(6, rows_of(4, (Bounded(), 0, None))))
        want = []
        for i in range(6):
            rng = spec.rng_for_trial(i)
            want.append((rng.bit_generator.state, rng.integers(0, 7, 3).tolist()))
        assert got == want

    @given(a=UINT64S, b=UINT64S)
    @settings(max_examples=300, deadline=None)
    def test_mulhi_equals_python_ints(self, a, b):
        assert stats._mulhi(np.array([a], dtype=np.uint64), b).tolist() == [(a * b) >> 64]

    @given(s=st.tuples(UINT64S, UINT64S), q=st.tuples(UINT64S, UINT64S))
    @settings(max_examples=300, deadline=None)
    def test_srandom_step_equals_python_ints(self, s, q):
        words = [np.array([x], dtype=np.uint64) for x in (*s, *q)]
        inc = ((((q[0] << 64) | q[1]) << 1) | 1) % 2**128
        state = ((((s[0] << 64) | s[1]) + inc) * stats._PCG64_MULT + inc) % 2**128
        assert stats._srandom(*words).tolist() == [[state >> 64, state % 2**64, inc >> 64, inc % 2**64]]

    def test_wrong_word_order_fails_loudly(self):
        swap_halves = (1, 0, 3, 2)
        with mock.patch.object(stats, "_PCG128_LAYOUTS", ((2, 3, 0, 1),)):
            with pytest.raises(RuntimeError, match=f"layout under numpy {np.__version__}"):
                next(SeedSpec(3)._draw_trials(9, rows_of(2)))
        srandom = stats._srandom
        with mock.patch.object(stats, "_srandom", lambda *words: srandom(*words)[:, swap_halves]):
            with pytest.raises(RuntimeError, match=f"differs from default_rng's under numpy {np.__version__}"):
                next(SeedSpec(3)._draw_trials(9, rows_of(2)))


def per_trial_order_stats(k, l, m_a, m_b, dist, trials, seed):
    """The per-trial loop: one ``rng_for_trial`` stream and one sort per trial."""
    nkb, pl = [], []
    for i in range(trials):
        w = dist.draw(seed.rng_for_trial(i), m_a + m_b)
        is_b = np.argsort(-w, kind="stable") >= m_a
        nkb.append(int(is_b[:k].sum()))
        pl.append(int(np.nonzero(is_b)[0][l - 1]) + 1)
    return np.array(nkb), np.array(pl)


# Besides the five kinds and the uniforms: signed zeros that tie with each
# other, a sample with few atoms, and lognormals whose draws overflow to
# +inf (some or all) or, scaled by -1, to -inf.
ORDER_STATS_DISTS = FIVE_KINDS + UNIFORMS + [
    Empirical([-0.0, 0.0, 0.0, 1.0]),
    Empirical([0.0, 1.0, 1.0]),
    LogNormal(709.0, 2.0),
    LogNormal(800.0, 1.0),
    ShiftedScaled(LogNormal(709.0, 2.0), -1.0, 0.0),
]


@st.composite
def order_stats_problems(draw):
    m_a = draw(st.integers(2, 14))
    m_b = draw(st.integers(2, 14))
    k = draw(st.integers(1, min(m_a, m_b) - 1))
    l = draw(st.integers(1, m_b))
    trials = draw(st.integers(1, 30))
    return k, l, m_a, m_b, draw(st.sampled_from(ORDER_STATS_DISTS)), trials


# Samples with few atoms: one on [0, 1], and one whose draws are -inf,
# -0.0, 0.0 (twice as often) and +inf, so ties cross the signed zeros.
TIE_HEAVY = [
    Empirical([0.0, 1.0, 1.0, 1.0]),
    ShiftedScaled(Empirical([-2.0, -0.0, 0.0, 0.0, 2.0]), 1e308, -0.0),
]


class NaNAt(CountingUniform):
    """A counting uniform that puts NaN in column ``col`` of draw ``trial``."""

    __slots__ = ("trial", "col")

    def __init__(self, trial, col):
        super().__init__()
        self.trial, self.col = trial, col

    def draw(self, rng, size, out=None):
        x = super().draw(rng, size, out)
        if self.calls == self.trial + 1:
            x[self.col] = np.nan
        return x


def assert_order_stats_equal_loop(k, l, m_a, m_b, dist, trials, spec, block):
    """``estimate_order_stats`` in blocks of ``block`` trials gives the
    per-trial loop's means, standard errors and counts, bit for bit."""
    nkb, pl = per_trial_order_stats(k, l, m_a, m_b, dist, trials, spec)
    with blocks_of(block, m_a + m_b):
        rep = estimate_order_stats(k, l, m_a, m_b, dist, trials, spec)

    def mean_se(x):
        x = x.astype(float)
        return float(x.mean()), float(x.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0

    assert (rep.mean_Nkb, rep.se_Nkb) == mean_se(nkb)
    assert (rep.mean_Pl, rep.se_Pl) == mean_se(pl)
    assert rep.nkb_counts.tolist() == np.bincount(nkb, minlength=k + 1).tolist()
    assert rep.pl_counts.tolist() == np.bincount(pl, minlength=m_a + l + 1).tolist()


def report_fields(rep):
    return (rep.mean_Nkb, rep.se_Nkb, rep.mean_Pl, rep.se_Pl, rep.trials, rep.nkb_counts.tolist(), rep.pl_counts.tolist())


class TestOrderStatsEngine:
    @given(problem=order_stats_problems(), seed=SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_same_report_for_every_block_size(self, problem, seed):
        k, l, m_a, m_b, dist, trials = problem
        spec = SeedSpec(seed)
        reports = []
        for block in (*BLOCK_ROWS, None):
            with blocks_of(block, m_a + m_b):
                reports.append(report_fields(estimate_order_stats(k, l, m_a, m_b, dist, trials, spec)))
        assert all(r == reports[0] for r in reports)

    @given(problem=order_stats_problems(), seed=SEEDS, block=st.sampled_from(BLOCK_ROWS))
    @settings(max_examples=60, deadline=None)
    def test_equals_per_trial_loop(self, problem, seed, block):
        assert_order_stats_equal_loop(*problem, SeedSpec(seed), block)

    # k and l at both ends of their ranges, with either group much the
    # larger, where a slice of the merge count would first run past its group.
    @pytest.mark.parametrize("m_a, m_b", [(2, 2), (3, 11), (11, 3), (7, 7)])
    @pytest.mark.parametrize("k_end", ["first", "last"])
    @pytest.mark.parametrize("l_end", ["first", "last"])
    @pytest.mark.parametrize("dist", TIE_HEAVY, ids=["few-atoms", "signed-zeros-and-infs"])
    def test_merge_counts_at_the_extremes(self, m_a, m_b, k_end, l_end, dist):
        k = 1 if k_end == "first" else min(m_a, m_b) - 1
        l = 1 if l_end == "first" else m_b
        with np.errstate(over="ignore"):  # the scale of 1e308 takes +-2.0 to +-inf
            assert_order_stats_equal_loop(k, l, m_a, m_b, dist, 50, SeedSpec(5), 7)

    # Trial 0 lies in the first block of three, trial 7 in the last, partial one.
    @pytest.mark.parametrize("trial", [0, 7])
    @pytest.mark.parametrize("group", ["A", "B"])
    def test_nan_in_one_group_raises(self, trial, group):
        m_a, m_b = 6, 5
        col = 1 if group == "A" else m_a + 1  # neither group's last column
        dist = NaNAt(trial, col)
        with blocks_of(3, m_a + m_b), pytest.raises(ValueError, match="^utilities must not be NaN$"):
            estimate_order_stats(2, 3, m_a, m_b, dist, 8, SeedSpec(0))
        assert dist.calls == (3 if trial == 0 else 8)


def per_trial_supernumerary(config, trials, seed, discount):
    """The per-trial loop: one ``rng_for_trial`` stream and one sort per
    trial, the general greedy ``rank_constrained_greedy`` (not the closed
    form under test) per trial and seat count, and each scheme's per-seat
    utility from its own 1-D dot with ``discount(seats)``, the constructor
    that built ``config.discount``, so the engine's slices of it are checked.
    Returns the per-seat utilities and seat counts, one row per scheme, or
    raises the first trial's error."""
    m_a, m_b, n = config.m_a, config.m_b, config.n
    m = m_a + m_b
    target = np.arange(m) >= m_a
    mem = np.stack([~target, target], axis=1)
    per_seat, seats = np.empty((5, trials)), np.empty((5, trials))
    for i in range(trials):
        rng = seed.rng_for_trial(i)
        observed = np.concatenate([config.dist_a.draw(rng, m_a), config.dist_b.draw(rng, m_b)])
        latent = observed.copy()
        latent[m_a:] = apply_score_shift(observed[m_a:], config.gamma, config.score_offset)
        order = np.argsort(-observed, kind="stable")
        n_f = int(target[order[:n]].sum())
        x = supernumerary_seats(n, n_f, config.alpha)
        if n + x > m:
            raise ValueError(f"{n + x} seats but only {m} candidates")
        if n_f + x > m_b:
            raise ValueError(f"{n_f + x} reserved seats but only {m_b} target candidates")
        if not np.all(np.isfinite(latent)):
            raise ValueError("latent utilities must be finite")
        reserved = order[target[order]][: n_f + x]
        open_pool = order[~np.isin(order, reserved)]
        sup = order[np.isin(order, np.concatenate([reserved, open_pool[: n - n_f]]))]

        def cons(length):
            inst = Instance.from_arrays(latent, mem, length, DiscountVector.constant(length))
            L = simple_constraints(config.alpha, 1, length, 2)
            return np.array(rank_constrained_greedy(inst, observed, L).positions)

        for s, ids in enumerate([cons(n), order[:n], sup, cons(n + x), order[: n + x]]):
            per_seat[s, i] = (latent[ids] @ discount(ids.size).values) / ids.size
            seats[s, i] = ids.size
    return per_seat, seats


def assert_report_is_loops(report, per_seat, seats):
    """Each scheme's mean, standard error and mean seats equal those of the
    per-trial loop's rows, bit for bit."""
    trials = per_seat.shape[1]
    for s, stats_ in enumerate(report.schemes):
        values = per_seat[s]
        se = values.std(ddof=1) / math.sqrt(trials) if trials > 1 else 0.0
        assert (stats_.mean_utility_per_seat, stats_.se) == (values.mean(), se)
        assert stats_.mean_seats == seats[s].mean()


@st.composite
def supernumerary_problems(draw):
    """A config and the constructor of its discount at any length; a custom vector is defined by its slices."""
    m_a = draw(st.integers(0, 30))
    m_b = draw(st.integers(0 if m_a else 1, 30))
    kind = draw(st.sampled_from([*sorted(DISCOUNTS), "dcg-base-2", "custom"]))
    if kind == "custom":
        values = sorted(draw(st.lists(st.floats(0.0, 10.0), min_size=m_a + m_b, max_size=m_a + m_b)), reverse=True)
        discount = lambda length: DiscountVector(values[:length])
    elif kind == "dcg-base-2":
        discount = lambda length: DiscountVector.dcg(length, 2.0)
    else:
        discount = DISCOUNTS[kind]
    config = SupernumeraryConfig(
        n=draw(st.integers(1, m_a + m_b)),
        m_a=m_a,
        m_b=m_b,
        alpha=draw(st.sampled_from([0.0, 0.5, 0.99]) | st.floats(0.0, 0.95)),
        gamma=draw(st.sampled_from([1.0, 1.5])),
        dist_a=draw(st.sampled_from(DISTS)),
        dist_b=draw(st.sampled_from(DISTS + [LogNormal(800.0, 1.0)])),
        score_offset=draw(st.sampled_from([0.0, 10.0])),
        discount=discount(m_a + m_b),
    )
    return config, discount


class TestSupernumeraryEngine:
    # Trial 1 has too many reserved seats and trial 3 too many seats, the
    # check that comes first within a trial: the engine must raise trial 1's.
    @example(
        problem=(
            SupernumeraryConfig(
                n=10, m_a=8, m_b=6, alpha=0.5, gamma=1.2, dist_a=Uniform(0, 100), dist_b=Uniform(0, 70),
                discount=DiscountVector.dcg(14), score_offset=10.0,
            ),
            DiscountVector.dcg,
        ),
        trials=8,
        seed=30,
        block=None,
    )
    @given(problem=supernumerary_problems(), trials=st.integers(1, 20), seed=SEEDS, block=ENGINE_BLOCKS)
    @settings(max_examples=80, deadline=None)
    def test_equals_per_trial_loop(self, problem, trials, seed, block):
        config, discount = problem
        spec = SeedSpec(seed)
        with blocks_of(block, config.m_a + config.m_b):
            try:
                report = supernumerary_compare(config, trials, spec)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    per_trial_supernumerary(config, trials, spec, discount)
                return
        assert_report_is_loops(report, *per_trial_supernumerary(config, trials, spec, discount))

    # The pool of the timed supernumerary config, m_a = m_b = 400 and n=40,
    # where the candidates are each group's best n + x_max = 48 at alpha 0.15
    # and its best 40 at alpha 0.  The target sample (36 values 11 times
    # each, then three single ones at the top) ties at the cut of 48 in 73
    # of the 81 rows.  n_f runs from 0 to 6, so reserved targets sit as deep
    # as observed position 74, and 3 rows rank the 48th privileged item.
    @pytest.mark.parametrize("alpha", [0.15, 0.0])
    def test_production_size_with_ties_at_the_cut(self, alpha):
        config = SupernumeraryConfig(
            n=40, m_a=400, m_b=400, alpha=alpha, gamma=1.5, dist_a=Uniform(0, 100),
            dist_b=Empirical(np.append(np.repeat(np.arange(0.0, 90.0, 2.5), 11), [92.5, 95.0, 97.5])),
            discount=DiscountVector.dcg(800),
        )
        spec = SeedSpec(7)
        trials = 2 * (experiments.BLOCK_ELEMENTS // 800) + 1
        loops = per_trial_supernumerary(config, trials, spec, DiscountVector.dcg)
        for block in [*BLOCK_ROWS, None]:
            with blocks_of(block, 800):
                assert_report_is_loops(supernumerary_compare(config, trials, spec), *loops)

    def test_sorts_only_the_candidates(self):
        config = SupernumeraryConfig(
            n=40, m_a=400, m_b=400, alpha=0.15, gamma=1.5, dist_a=Uniform(0, 100), dist_b=Uniform(0, 100),
            discount=DiscountVector.constant(800),
        )
        order, widths = experiments._order, []

        def spy(x):
            widths.append(x.shape[-1])
            return order(x)

        with mock.patch.object(experiments, "_order", spy):
            supernumerary_compare(config, 100, SeedSpec(7))
        assert widths and max(widths) <= 2 * 48  # c = n + x_max = 40 + 8 per group


class TestOneBlockRule:
    """With ``model.MAX_ELEMENTS`` lowered to the block budget, every engine
    refuses a trial of one utility more, before drawing, with one message,
    and runs a trial of exactly that many in blocks of one."""

    ENGINES = ("sweep", "orderstats", "supernumerary")

    def run(self, engine, m, dist):
        m_b = m // 2
        seed = SeedSpec(0)
        if engine == "sweep":
            cfg = TrialConfig(
                m_a=m - m_b, m_b=m_b, n=2, beta=0.5, alpha=0.5,
                dist_a=dist, dist_b=dist, discount=DiscountVector.constant(2),
            )
            run_sweep(cfg, [0.5], [0.5], 3, seed)
        elif engine == "orderstats":
            estimate_order_stats(1, 1, m - m_b, m_b, dist, 3, seed)
        else:
            cfg = SupernumeraryConfig(
                n=2, m_a=m - m_b, m_b=m_b, alpha=0.2, gamma=1.0, dist_a=dist, dist_b=dist,
                discount=DiscountVector.constant(m),
            )
            supernumerary_compare(cfg, 3, seed)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_refuses_a_trial_above_the_limit(self, engine):
        limit = experiments.BLOCK_ELEMENTS
        dist = CountingUniform()
        message = f"a trial's utilities would hold {limit + 1} elements, more than the limit of {limit}"
        with mock.patch.object(model, "MAX_ELEMENTS", limit):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                self.run(engine, limit + 1, dist)
        assert dist.calls == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_runs_a_trial_at_the_limit_in_blocks_of_one(self, engine):
        limit = experiments.BLOCK_ELEMENTS
        draw_blocks = experiments._draw_blocks
        shapes = []

        def spy(*args):
            for part, w in draw_blocks(*args):
                shapes.append(w.shape)
                yield part, w

        with mock.patch.object(model, "MAX_ELEMENTS", limit), mock.patch.object(experiments, "_draw_blocks", spy):
            self.run(engine, limit, Uniform(0, 1))
        assert shapes == [(1, limit)] * 3
