"""The batched trial engine against its scalar oracles.

``run_trials`` and ``run_sweep`` must reproduce ``run_trial`` exactly, and
the closed-form single-column placement must equal the greedy solver.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biasrank import (
    DiscountVector,
    Empirical,
    InfeasibleConstraintsError,
    Instance,
    Normal,
    SeedSpec,
    TrialConfig,
    Uniform,
    rank_constrained_greedy,
    run_sweep,
    run_trial,
    run_trials,
    simple_constraints,
)
from biasrank.experiments import BLOCK_TRIALS
from biasrank.solver import rank_single_column

DISTS = [Uniform(0, 1), Empirical([0.0, 1.0, 1.0, 2.0, 3.0, 3.0]), Normal(0, 1)]
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


class TestEngineMatchesRunTrial:
    @given(cfg=trial_configs(), trials=st.integers(1, 2 * BLOCK_TRIALS + 3), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=80, deadline=None)
    def test_run_trials_equals_run_trial(self, cfg, trials, seed):
        spec = SeedSpec(seed)
        if not feasible(cfg, cfg.alpha):
            with pytest.raises(InfeasibleConstraintsError):
                run_trial(cfg, 0, spec)
            with pytest.raises(InfeasibleConstraintsError):
                run_trials(cfg, trials, spec)
            return
        assert run_trials(cfg, trials, spec) == [run_trial(cfg, i, spec) for i in range(trials)]

    @given(
        cfg=trial_configs(),
        alphas=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
        betas=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2),
        trials=st.integers(1, BLOCK_TRIALS + 2),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_sweep_means_equal_per_trial_loop(self, cfg, alphas, betas, trials, seed):
        alphas = [a for a in alphas if feasible(cfg, a)] or [0.0]
        spec = SeedSpec(seed)
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
        for r, row in enumerate(w):
            inst = Instance.from_arrays(row, labels, n, DiscountVector.constant(n), p=2)
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

    def draw(self, rng, size):
        self.calls += 1
        return super().draw(rng, size)


class TestInfeasibleAlphaFailsBeforeDrawing:
    def config(self, dist):
        return TrialConfig(
            m_a=18, m_b=2, n=10, beta=0.5, alpha=0.0,
            dist_a=dist, dist_b=dist, discount=DiscountVector.constant(10),
        )

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
