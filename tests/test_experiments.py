import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from biasrank import (
    DiscountVector,
    Empirical,
    LogNormal,
    SeedSpec,
    SupernumeraryConfig,
    TrialConfig,
    Uniform,
    apply_score_shift,
    estimate_order_stats,
    expected_Nkb,
    expected_Pl,
    run_sweep,
    run_trial,
    supernumerary_compare,
    supernumerary_seats,
)

TOL = 1e-9
# Grid values: valid, out of range, NaN, and not numbers at all.
GRID_VALUES = st.sampled_from([0.0, 0.5, 1.0, -0.5, 1.5, float("nan"), "x", None])


def config(m_a=20, m_b=20, n=10, beta=0.5, alpha=0.5, discount=None):
    return TrialConfig(
        m_a=m_a,
        m_b=m_b,
        n=n,
        beta=beta,
        alpha=alpha,
        dist_a=Uniform(0, 1),
        dist_b=Uniform(0, 1),
        discount=discount or DiscountVector.constant(n),
    )


class TestRunTrial:
    def test_no_bias_no_constraint_all_agree(self):
        cfg = config(beta=1.0, alpha=0.0)
        for i in range(10):
            r = run_trial(cfg, i, SeedSpec(5))
            assert r.u_cons == r.u_uncons == r.u_opt

    def test_opt_dominates(self):
        cfg = config(beta=0.3, alpha=0.4, discount=DiscountVector.dcg(10))
        for i in range(25):
            r = run_trial(cfg, i, SeedSpec(11))
            assert r.u_opt >= r.u_cons - TOL
            assert r.u_opt >= r.u_uncons - TOL

    def test_no_bias_unconstrained_equals_opt(self):
        cfg = config(beta=1.0, alpha=0.3)
        for i in range(10):
            r = run_trial(cfg, i, SeedSpec(17))
            assert r.u_uncons == r.u_opt

    def test_deterministic_given_seed_and_index(self):
        cfg = config()
        a = run_trial(cfg, 3, SeedSpec(123))
        b = run_trial(cfg, 3, SeedSpec(123))
        assert a == b

    def test_counts_reported(self):
        cfg = config(alpha=0.5)
        r = run_trial(cfg, 0, SeedSpec(0))
        assert 0 <= r.n_b_uncons <= 10
        assert r.n_b_cons >= 5  # floor(0.5 * 10)

    def test_square_uniform_means_near_closed_forms(self):
        # fixed-position values for m_a = m_b = n = 100, beta = 1/2, flat discount
        cfg = config(m_a=100, m_b=100, n=100, beta=0.5, alpha=0.5, discount=DiscountVector.constant(100))
        seed = SeedSpec(2718)
        trials = 600
        uc = np.empty(trials)
        uu = np.empty(trials)
        for i in range(trials):
            r = run_trial(cfg, i, seed)
            uc[i], uu[i] = r.u_cons, r.u_uncons
        assert abs(uc.mean() - 74.26) <= 1.5
        assert abs(uu.mean() - 72.22) <= 1.5

    def test_pick_proportional_per_trial(self):
        # with a flat discount, alpha = 1/2 and equal groups, any trial whose
        # unconstrained ranking holds at most n/2 target items must hold
        # exactly n/2 of them under the constraint
        cfg = config(m_a=20, m_b=20, n=20, beta=0.5, alpha=0.5, discount=DiscountVector.constant(20))
        seed = SeedSpec(31337)
        applicable = 0
        for i in range(300):
            r = run_trial(cfg, i, seed)
            if r.n_b_uncons <= 10:
                applicable += 1
                assert r.n_b_cons == 10
        assert applicable > 250

    def test_infeasible_alpha(self):
        from biasrank import InfeasibleConstraintsError

        cfg = config(m_a=18, m_b=2, n=10, alpha=0.5)
        with pytest.raises(InfeasibleConstraintsError):
            run_trial(cfg, 0, SeedSpec(0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            config(beta=1.2)
        with pytest.raises(ValueError):
            config(alpha=-0.1)
        with pytest.raises(ValueError):
            config(n=100, m_a=10, m_b=10)


class TestRunSweep:
    def test_single_cell_no_bias(self):
        rep = run_sweep(config(), [0.0], [1.0], trials=20, seed=SeedSpec(1))
        row = rep.rows[0]
        assert row.mean_cons == row.mean_uncons == row.mean_opt

    def test_grid_shape_and_order(self):
        alphas = [0.0, 0.25, 0.5]
        betas = [0.25, 1.0]
        rep = run_sweep(config(), alphas, betas, trials=5, seed=SeedSpec(1))
        assert len(rep.rows) == 6
        assert [r.alpha for r in rep.rows] == alphas * 2
        assert [r.beta for r in rep.rows] == [0.25] * 3 + [1.0] * 3

    def test_deterministic(self):
        args = (config(), [0.0, 0.3], [0.5], 40, SeedSpec(42))
        a = run_sweep(*args)
        b = run_sweep(*args)
        assert a == b
        assert a.to_csv() == b.to_csv()

    def test_csv_format(self):
        rep = run_sweep(config(), [0.5], [0.5], trials=8, seed=SeedSpec(9))
        lines = rep.to_csv().splitlines()
        assert lines[0] == "# seed=9"
        assert lines[1].startswith("alpha,beta,m_a,m_b,n,trials,mean_cons")
        fields = lines[2].split(",")
        assert len(fields) == 12
        assert fields[0] == "0.5"
        assert fields[5] == "8"

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            run_sweep(config(), [0.1], [0.5], trials=0, seed=SeedSpec(0))

    @given(alphas=st.lists(GRID_VALUES, min_size=1, max_size=4), betas=st.lists(GRID_VALUES, min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_first_error_is_the_first_bad_cells(self, alphas, betas):
        def error(call):
            try:
                call()
            except (TypeError, ValueError) as exc:
                return type(exc), str(exc)
            return None

        def cell_by_cell():
            for beta in betas:
                for alpha in alphas:
                    replace(config(), alpha=float(alpha), beta=float(beta))

        want = error(cell_by_cell)
        assert error(lambda: run_sweep(config(), alphas, betas, trials=1, seed=SeedSpec(0))) == want


class TestEstimateOrderStats:
    def test_counts_and_positions_near_closed_forms(self):
        est = estimate_order_stats(10, 2, 50, 50, Uniform(0, 1), trials=20000, seed=SeedSpec(8))
        assert abs(est.mean_Nkb - expected_Nkb(10, 50, 50)) <= 3 * est.se_Nkb + 1e-12
        assert abs(est.mean_Pl - expected_Pl(2, 50, 50)) <= 3 * est.se_Pl + 1e-12

    def test_distribution_independence(self):
        u = estimate_order_stats(6, 2, 12, 12, Uniform(0, 1), trials=20000, seed=SeedSpec(21))
        ln = estimate_order_stats(6, 2, 12, 12, LogNormal(0, 1), trials=20000, seed=SeedSpec(22))
        se = np.hypot(u.se_Nkb, ln.se_Nkb)
        assert abs(u.mean_Nkb - ln.mean_Nkb) <= 3 * se

    def test_histogram_consistent(self):
        est = estimate_order_stats(5, 1, 10, 10, Uniform(0, 1), trials=500, seed=SeedSpec(3))
        assert est.nkb_counts.sum() == 500
        weighted = float(np.arange(est.nkb_counts.size) @ est.nkb_counts) / 500
        assert_allclose(weighted, est.mean_Nkb, atol=TOL)
        assert est.tail_frequency(-1) == 0.0
        assert est.tail_frequency(5) == 1.0

    def test_deterministic(self):
        a = estimate_order_stats(5, 1, 10, 10, Uniform(0, 1), 300, SeedSpec(4))
        b = estimate_order_stats(5, 1, 10, 10, Uniform(0, 1), 300, SeedSpec(4))
        assert a.mean_Nkb == b.mean_Nkb and a.mean_Pl == b.mean_Pl
        assert np.array_equal(a.nkb_counts, b.nkb_counts)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            estimate_order_stats(10, 1, 10, 10, Uniform(0, 1), 10, SeedSpec(0))
        with pytest.raises(ValueError):
            estimate_order_stats(3, 11, 10, 10, Uniform(0, 1), 10, SeedSpec(0))


class TestScoreShift:
    def test_identity_at_gamma_one(self):
        xs = np.array([-10.0, 0.0, 42.0])
        assert_allclose(apply_score_shift(xs, 1.0, 105.0), xs, atol=TOL)

    def test_stated_value(self):
        assert_allclose(apply_score_shift(np.array([105.0]), 1.076, 105.0)[0], 120.96, atol=1e-9)

    def test_fixed_point(self):
        assert_allclose(apply_score_shift(np.array([-105.0]), 1.3, 105.0)[0], -105.0, atol=TOL)

    def test_gamma_below_one_rejected(self):
        for gamma in (0.9, math.nan):
            with pytest.raises(ValueError, match="gamma must be at least 1"):
                apply_score_shift(np.array([1.0]), gamma, 105.0)


class TestSupernumerarySeats:
    def test_stated_seat_equation(self):
        assert supernumerary_seats(100, 9, 0.14) == 6

    def test_zero_when_share_already_met(self):
        assert supernumerary_seats(10, 2, 0.2) == 0
        assert supernumerary_seats(10, 5, 0.2) == 0

    def test_integral_real_solution(self):
        # n_f + x = alpha (n + x) solves exactly at x = 4
        assert supernumerary_seats(10, 3, 0.5) == 4

    def test_array_of_counts_equals_each_count(self):
        counts = np.arange(0, 101)
        for alpha in (0.0, 0.14, 0.5, 0.99):
            seats = supernumerary_seats(100, counts, alpha)
            assert seats.tolist() == [supernumerary_seats(100, int(c), alpha) for c in counts]
        assert type(supernumerary_seats(100, 9, 0.14)) is int

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            supernumerary_seats(10, 0, 1.0)

    def test_alpha_next_below_one_overflows_no_seat_count(self):
        # 1 - alpha = 2**-53 puts x near 1990 * 2**53, past the int64 range
        alpha = 1 - 2**-53
        x = supernumerary_seats(2000, 10, alpha)
        assert type(x) is int and x > 2**63
        assert supernumerary_seats(2000, np.array([10]), alpha).tolist() == [x]
        # every one of the 10 target candidates is in the top 2000 of 2000
        config = sup_config(n=2000, m_a=1990, m_b=10, alpha=alpha)
        with pytest.raises(ValueError, match=f"^{2000 + x} seats but only 2000 candidates$"):
            supernumerary_compare(config, 3, SeedSpec(0))


def sup_config(kind="constant", **kw):
    """A config whose discount, unless given, is ``kind`` over the whole pool."""
    base = dict(
        n=10,
        m_a=20,
        m_b=8,
        alpha=0.2,
        gamma=1.05,
        dist_a=Uniform(0, 100),
        dist_b=Uniform(0, 100),
        score_offset=10.0,
    )
    base.update(kw)
    base.setdefault("discount", getattr(DiscountVector, kind)(base["m_a"] + base["m_b"]))
    return SupernumeraryConfig(**base)


class TestSupernumeraryCompare:
    def test_no_shift_no_constraint_all_equal(self):
        rep = supernumerary_compare(sup_config(alpha=0.0, gamma=1.0), trials=25, seed=SeedSpec(6))
        values = {s.mean_utility_per_seat for s in rep.schemes}
        assert len(values) == 1
        assert all(s.mean_seats == 10 for s in rep.schemes)

    def test_reserved_matches_unconstrained_when_share_already_met(self):
        # target items always outscore the rest, so the unconstrained top-10
        # holds exactly 2 of them and the seat equation adds nothing
        cfg = sup_config(
            m_a=20,
            m_b=2,
            alpha=0.2,
            gamma=1.0,
            dist_a=Empirical([1.0]),
            dist_b=Empirical([2.0]),
        )
        rep = supernumerary_compare(cfg, trials=10, seed=SeedSpec(2))
        sup = rep.by_scheme("sup")
        uncons = rep.by_scheme("uncons")
        assert sup.mean_seats == uncons.mean_seats == 10
        assert_allclose(sup.mean_utility_per_seat, uncons.mean_utility_per_seat, atol=TOL)

    def test_expanded_schemes_use_more_seats(self):
        rep = supernumerary_compare(sup_config(alpha=0.4), trials=40, seed=SeedSpec(10))
        assert rep.by_scheme("uncons_expanded").mean_seats >= rep.by_scheme("uncons").mean_seats
        assert rep.by_scheme("cons_expanded").mean_seats == rep.by_scheme("sup").mean_seats

    def test_shifted_scores_reward_constrained_schemes(self):
        # strong upward shift for the target group: per-seat utility of the
        # constrained pick should beat the unconstrained one
        cfg = sup_config(m_a=40, m_b=40, n=20, alpha=0.45, gamma=1.6, score_offset=0.0)
        rep = supernumerary_compare(cfg, trials=200, seed=SeedSpec(77))
        cons = rep.by_scheme("cons")
        uncons = rep.by_scheme("uncons")
        assert cons.mean_utility_per_seat > uncons.mean_utility_per_seat

    def test_prefix_bounds_beat_reservation_under_position_discount(self):
        # reservation lets the shifted group sink to the tail positions, so
        # at equal seat counts the prefix-bound scheme wins once positions
        # are discounted; the shift must be strong enough that the group's
        # true scores beat the mid-field it displaces
        cfg = sup_config(
            n=20,
            m_a=60,
            m_b=60,
            alpha=0.35,
            gamma=3.0,
            dist_a=Uniform(0, 100),
            dist_b=Uniform(0, 40),
            score_offset=0.0,
            kind="dcg",
        )
        rep = supernumerary_compare(cfg, trials=300, seed=SeedSpec(88))
        cons_exp = rep.by_scheme("cons_expanded")
        sup = rep.by_scheme("sup")
        assert cons_exp.mean_seats == sup.mean_seats
        gap = cons_exp.mean_utility_per_seat - sup.mean_utility_per_seat
        assert gap > 3 * np.hypot(cons_exp.se, sup.se)

    def test_insufficient_candidates(self):
        cfg = sup_config(m_a=8, m_b=3, n=10, alpha=0.6)
        with pytest.raises(ValueError):
            supernumerary_compare(cfg, trials=5, seed=SeedSpec(0))

    def test_csv_format(self):
        from biasrank.experiments import supernumerary_csv

        rep = supernumerary_compare(sup_config(), trials=5, seed=SeedSpec(3))
        lines = supernumerary_csv([rep]).splitlines()
        assert lines[0] == "# seed=3"
        assert lines[1] == "alpha,scheme,seats,mean_utility_per_seat,se"
        assert len(lines) == 2 + 5

    def test_config_validation(self):
        for gamma in (0.99, math.nan):
            with pytest.raises(ValueError, match="gamma must be at least 1"):
                sup_config(gamma=gamma)
        sup_config(gamma=math.inf)  # allowed, and checked without a numpy warning
        for offset in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="^score offset must be finite, got "):
                sup_config(score_offset=offset)
        for alpha in (1.0, -0.1, math.nan):
            with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\)$"):
                sup_config(alpha=alpha)
        with pytest.raises(ValueError, match="^candidate pool must cover the base capacity$"):
            sup_config(n=50, m_a=20, m_b=8, alpha=1.0, discount=DiscountVector.zipf(3))
        # the discount weighs a ranking of the whole pool, m_a + m_b positions
        for length in (10, 27, 29):
            with pytest.raises(ValueError, match=f"^discount has length {length}, expected m_a \\+ m_b=28$"):
                sup_config(discount=DiscountVector.dcg(length))
        sup_config(discount=DiscountVector(np.linspace(2.0, 0.0, 28)))
        # checks run in order: n, pool (above), alpha, gamma, offset, then the discount
        with pytest.raises(ValueError, match="^n must be positive$"):
            sup_config(n=0, alpha=1.0, discount=DiscountVector.zipf(3))
        with pytest.raises(ValueError, match="^alpha must lie"):
            sup_config(alpha=1.0, gamma=0.5, discount=DiscountVector.zipf(3))
        with pytest.raises(ValueError, match="^gamma must be at least 1$"):
            sup_config(gamma=0.5, score_offset=math.nan, discount=DiscountVector.zipf(3))
        with pytest.raises(ValueError, match="^score offset must be finite"):
            sup_config(score_offset=math.nan, discount=DiscountVector.zipf(3))
        # a bad log base or kind is DiscountVector's to refuse, before any config
        with pytest.raises(ValueError, match="^log base must exceed 1$"):
            DiscountVector.dcg(28, log_base=1.0)
        with pytest.raises(ValueError, match="^unknown discount kind 'lcg'$"):
            DiscountVector.from_json_dict({"kind": "lcg"}, 28)
