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
from biasrank.solver import rank_single_column
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


# Engine blocks of 1, 3 and 7 trials put block edges inside short trial
# ranges, so the oracle's cost does not grow with the production block.
BLOCK_ROWS = (1, 3, 7)
ENGINE_BLOCKS = st.sampled_from([*BLOCK_ROWS, None])


def blocks_of(rows, m):
    """Engine blocks of ``rows`` trials of m utilities each, or of the
    production size when ``rows`` is None."""
    if rows is None:
        return contextlib.nullcontext()
    return mock.patch.object(experiments, "BLOCK_ELEMENTS", rows * m)


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
        spec = SeedSpec(seed)
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
        with mock.patch.object(experiments, "_order", side_effect=AssertionError("full sort")):
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


class TestClosedFormPlacement:
    @given(problem=single_column_problems())
    @settings(max_examples=300, deadline=None)
    def test_equals_greedy(self, problem):
        w, labels, n, alphas, target = problem
        Ls = [simple_constraints(a, target, n, 2) for a in alphas]
        order = np.argsort(-w, axis=1, kind="stable")
        try:
            ids, count = rank_single_column(order, labels == target, [L.matrix[:, target] for L in Ls])
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
        ids, _ = rank_single_column(np.argsort(-w, axis=1, kind="stable"), labels == 1, [L[:, 1] for L in bounds])
        for r, row in enumerate(w):
            for a, L in enumerate(bounds):
                best, _ = dp_optimum(labels, row, v, L)
                assert row[ids[r, a]] @ v == pytest.approx(best, rel=1e-12)

    def test_single_order_and_bound_drop_their_axes(self):
        order = np.array([3, 0, 1, 2])
        target = np.array([False, False, True, True])
        # target 3 is already first; the bound pulls target 2 up from 4th to 3rd
        ids, count = rank_single_column(order, target, [0, 1, 2])
        assert ids.tolist() == [3, 0, 2] and count == 2

    def test_raises_on_infeasible_bounds(self):
        order = np.arange(6)[None]
        target = np.array([True, True, False, False, False, False])
        with pytest.raises(InfeasibleConstraintsError):
            rank_single_column(order, target, [np.array([1, 2, 3])])
        with pytest.raises(InfeasibleConstraintsError):
            rank_single_column(order, target, [np.zeros(7, dtype=np.int64)])
        with pytest.raises(ValueError):
            rank_single_column(order, target, [np.array([0, 2, 2])])


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


class TestBlockSeeding:
    @given(seed=SEEDS, span=trial_ranges(), block=SEED_BLOCKS)
    @settings(max_examples=60, deadline=None)
    def test_states_equal_rng_for_trial(self, seed, span, block):
        spec = SeedSpec(seed)
        start, stop = span
        with mock.patch.object(stats, "SEED_BLOCK", block):
            states = [rng.bit_generator.state for rng in spec.rngs_for_trials(start, stop)]
        assert states == [spec.rng_for_trial(i).bit_generator.state for i in range(start, stop)]

    @given(seed=SEEDS, span=trial_ranges(), block=SEED_BLOCKS, size=st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_first_draws_equal_for_every_distribution_kind(self, seed, span, block, size):
        spec = SeedSpec(seed)
        start, stop = span
        for dist in FIVE_KINDS + UNIFORMS:
            want = [dist.draw(spec.rng_for_trial(i), size).tobytes() for i in range(start, stop)]
            with mock.patch.object(stats, "SEED_BLOCK", block):
                got = [dist.draw(rng, size).tobytes() for rng in spec.rngs_for_trials(start, stop)]
                # into the middle columns of a block row, leaving the rest alone
                block_rows = np.full((stop - start, size + 3), np.nan)
                for row, rng in zip(block_rows, spec.rngs_for_trials(start, stop)):
                    out = row[2 : 2 + size]
                    assert dist.draw(rng, size, out) is out
            assert got == want
            assert [row[2 : 2 + size].tobytes() for row in block_rows] == want
            assert np.isnan(block_rows[:, :2]).all() and np.isnan(block_rows[:, 2 + size :]).all()

    @given(seed=SEEDS, span=trial_ranges())
    @settings(max_examples=100, deadline=None)
    def test_vectorised_splitmix_equals_trial_seed(self, seed, span):
        spec = SeedSpec(seed)
        start, stop = span
        assert stats._trial_seeds(seed, start, stop).tolist() == [spec.trial_seed(i) for i in range(start, stop)]

    def test_range_across_default_block_edge(self):
        spec = SeedSpec(2**64 - 1)
        start, stop = 3, stats.SEED_BLOCK + 9
        draws = [rng.uniform(size=2) for rng in spec.rngs_for_trials(start, stop)]
        assert np.array_equal(draws, [spec.rng_for_trial(i).uniform(size=2) for i in range(start, stop)])

    def test_yields_one_reused_generator(self):
        rngs = list(SeedSpec(5).rngs_for_trials(0, 4))
        assert len(rngs) == 4 and all(r is rngs[0] for r in rngs)

    def test_empty_and_negative_ranges(self):
        assert list(SeedSpec(1).rngs_for_trials(4, 4)) == []
        assert list(SeedSpec(1).rngs_for_trials(4, 2)) == []
        with pytest.raises(ValueError):
            SeedSpec(1).rngs_for_trials(-1, 3)

    def test_changed_seeding_fails_loudly(self):
        # a numpy release that seeded PCG64 differently would derive other states
        with mock.patch.object(stats, "_PCG64_MULT", stats._PCG64_MULT + 2):
            with pytest.raises(RuntimeError, match=f"numpy {np.__version__}"):
                next(SeedSpec(3).rngs_for_trials(7, 9))

    def test_buffered_uint32_does_not_leak_into_the_next_trial(self):
        # three bounded 32-bit draws leave half of a 64-bit output buffered
        spec = SeedSpec(11)
        got = []
        for rng in spec.rngs_for_trials(0, 6):
            got.append((rng.bit_generator.state, rng.integers(0, 7, 3).tolist()))
            assert rng.bit_generator.state["has_uint32"] == 1
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
                next(SeedSpec(3).rngs_for_trials(7, 9))
        srandom = stats._srandom
        with mock.patch.object(stats, "_srandom", lambda *words: srandom(*words)[:, swap_halves]):
            with pytest.raises(RuntimeError, match=f"differs from default_rng's under numpy {np.__version__}"):
                next(SeedSpec(3).rngs_for_trials(7, 9))


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
        k, l, m_a, m_b, dist, trials = problem
        spec = SeedSpec(seed)
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


def per_trial_supernumerary(config, trials, seed):
    """The per-trial loop: one ``rng_for_trial`` stream, one sort and one
    ``rank_single_column`` call per trial and seat count, and each scheme's
    per-seat utility from its own 1-D dot.  Returns the per-seat utilities
    and seat counts, one row per scheme, or raises the first trial's error."""
    m_a, m_b, n = config.m_a, config.m_b, config.n
    m = m_a + m_b
    target = np.arange(m) >= m_a
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
            bound = simple_constraints(config.alpha, 1, length, 2).matrix[:, 1]
            return rank_single_column(order, target, bound)[0]

        for s, ids in enumerate([cons(n), order[:n], sup, cons(n + x), order[: n + x]]):
            per_seat[s, i] = (latent[ids] @ config.discount(ids.size).values) / ids.size
            seats[s, i] = ids.size
    return per_seat, seats


@st.composite
def supernumerary_problems(draw):
    m_a = draw(st.integers(0, 30))
    m_b = draw(st.integers(0 if m_a else 1, 30))
    return SupernumeraryConfig(
        n=draw(st.integers(1, m_a + m_b)),
        m_a=m_a,
        m_b=m_b,
        alpha=draw(st.sampled_from([0.0, 0.5, 0.99]) | st.floats(0.0, 0.95)),
        gamma=draw(st.sampled_from([1.0, 1.5])),
        dist_a=draw(st.sampled_from(DISTS)),
        dist_b=draw(st.sampled_from(DISTS + [LogNormal(800.0, 1.0)])),
        score_offset=draw(st.sampled_from([0.0, 10.0])),
        discount_kind=draw(st.sampled_from(["constant", "dcg", "zipf"])),
    )


class TestSupernumeraryEngine:
    # Trial 1 has too many reserved seats and trial 3 too many seats, the
    # check that comes first within a trial: the engine must raise trial 1's.
    @example(
        config=SupernumeraryConfig(
            n=10, m_a=8, m_b=6, alpha=0.5, gamma=1.2, dist_a=Uniform(0, 100), dist_b=Uniform(0, 70),
            score_offset=10.0, discount_kind="dcg",
        ),
        trials=8,
        seed=30,
        block=None,
    )
    @given(config=supernumerary_problems(), trials=st.integers(1, 20), seed=SEEDS, block=ENGINE_BLOCKS)
    @settings(max_examples=80, deadline=None)
    def test_equals_per_trial_loop(self, config, trials, seed, block):
        spec = SeedSpec(seed)
        with blocks_of(block, config.m_a + config.m_b):
            try:
                report = supernumerary_compare(config, trials, spec)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    per_trial_supernumerary(config, trials, spec)
                return
        per_seat, seats = per_trial_supernumerary(config, trials, spec)
        for s, stats_ in enumerate(report.schemes):
            values = per_seat[s]
            se = values.std(ddof=1) / math.sqrt(trials) if trials > 1 else 0.0
            assert (stats_.mean_utility_per_seat, stats_.se) == (values.mean(), se)
            assert stats_.mean_seats == seats[s].mean()


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
            cfg = SupernumeraryConfig(n=2, m_a=m - m_b, m_b=m_b, alpha=0.2, gamma=1.0, dist_a=dist, dist_b=dist)
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
