import itertools
import math

import numpy as np
import pytest
import scipy.stats
from numpy.testing import assert_allclose

from biasrank import (
    Empirical,
    LogNormal,
    Normal,
    SeedSpec,
    ShiftedScaled,
    Uniform,
    binomial_negative_moment,
    distribution_from_json,
    expected_Nkb,
    expected_Pl,
    pmf_Nkb,
    pmf_Pl,
    tail_bound_Nkb,
    utility_with_constraints_formula,
    utility_without_constraints_formula,
)

TOL = 1e-9


class TestExpectedNkb:
    def test_equal_groups(self):
        assert expected_Nkb(10, 50, 50) == 5.0

    def test_empty_target_group(self):
        assert expected_Nkb(4, 3, 0) == 0.0

    def test_two_thirds(self):
        assert_allclose(expected_Nkb(3, 1, 2), 2.0, atol=TOL)

    def test_k_positive(self):
        with pytest.raises(ValueError):
            expected_Nkb(0, 1, 1)


class TestExpectedPl:
    def test_example(self):
        assert_allclose(expected_Pl(2, 9, 9), 3.8, atol=TOL)

    def test_no_other_group(self):
        assert expected_Pl(3, 0, 5) == 3.0

    def test_two_items_by_enumeration(self):
        # one item from each group, both orderings equally likely
        positions = []
        for perm in itertools.permutations(["a", "b"]):
            positions.append(perm.index("b") + 1)
        assert_allclose(expected_Pl(1, 1, 1), np.mean(positions), atol=TOL)

    def test_l_bounds(self):
        with pytest.raises(ValueError):
            expected_Pl(0, 1, 1)
        with pytest.raises(ValueError):
            expected_Pl(2, 1, 1)


class TestPmfNkb:
    def test_small_case(self):
        assert_allclose(pmf_Nkb(1, 2, 2, 2), 2.0 / 3.0, atol=TOL)

    def test_degenerate_all_target(self):
        assert_allclose(pmf_Nkb(2, 2, 0, 2), 1.0, atol=TOL)

    def test_out_of_support_is_zero(self):
        assert pmf_Nkb(5, 3, 10, 10) == 0.0
        assert pmf_Nkb(-1, 3, 10, 10) == 0.0
        assert pmf_Nkb(0, 5, 2, 10) == 0.0  # k - m_a forces at least 3 target items

    def test_normalization(self):
        total = sum(pmf_Nkb(j, 5, 7, 4) for j in range(0, 6))
        assert_allclose(total, 1.0, atol=TOL)

    def test_matches_scipy_hypergeom(self):
        for k, m_a, m_b in [(5, 7, 4), (10, 50, 50), (3, 100, 2), (20, 500, 1500)]:
            rv = scipy.stats.hypergeom(m_a + m_b, m_b, k)
            for j in range(0, min(k, m_b) + 1):
                assert_allclose(pmf_Nkb(j, k, m_a, m_b), rv.pmf(j), atol=1e-12)

    def test_large_sizes_stay_finite(self):
        val = pmf_Nkb(50, 100, 1000, 1000)
        assert 0.0 < val < 1.0


class TestPmfPl:
    def test_symmetric_two_items(self):
        assert_allclose(pmf_Pl(1, 1, 1, 1), 0.5, atol=TOL)
        assert_allclose(pmf_Pl(2, 1, 1, 1), 0.5, atol=TOL)

    def test_normalization(self):
        total = sum(pmf_Pl(k, 2, 4, 3) for k in range(2, 7))
        assert_allclose(total, 1.0, atol=TOL)

    def test_mean_matches_closed_form(self):
        mean = sum(k * pmf_Pl(k, 2, 9, 9) for k in range(2, 12))
        assert_allclose(mean, expected_Pl(2, 9, 9), atol=TOL)
        assert_allclose(mean, 3.8, atol=TOL)

    def test_out_of_support_is_zero(self):
        assert pmf_Pl(1, 2, 4, 3) == 0.0
        assert pmf_Pl(7, 2, 4, 3) == 0.0


class TestTailBound:
    def test_stated_value(self):
        assert_allclose(tail_bound_Nkb(2.0, 8), math.exp(-0.75), atol=TOL)

    def test_vacuous_for_large_k(self):
        assert tail_bound_Nkb(2.0, 10**7) > 0.999

    def test_delta_regime(self):
        with pytest.raises(ValueError):
            tail_bound_Nkb(1.5, 10)

    def test_exact_tail_below_bound(self):
        k, m_a, m_b, delta = 10, 50, 50, 2.0
        mean = expected_Nkb(k, m_a, m_b)
        exact = sum(pmf_Nkb(j, k, m_a, m_b) for j in range(0, int(math.floor(mean - delta)) + 1))
        assert exact <= tail_bound_Nkb(delta, k)


class TestBinomialNegativeMoment:
    def test_degenerate_beta_one(self):
        r1 = binomial_negative_moment(10, 1.0, 1)
        r2 = binomial_negative_moment(10, 1.0, 2)
        assert r1.exact == r1.approx == 0.5
        assert r2.exact == r2.approx == 0.25

    def test_error_bound_at_n_1000(self):
        r = binomial_negative_moment(1000, 0.5, 1)
        assert_allclose(r.approx, 2.0 / 3.0, atol=TOL)
        assert abs(r.exact - r.approx) <= 1000 ** (-3.0 / 8.0)

    def test_exact_matches_direct_summation(self):
        n, beta = 200, 0.3
        pmf = scipy.stats.binom(n, 1.0 - beta).pmf(np.arange(n + 1))
        for power in (1, 2):
            direct = float(pmf @ (n / (2.0 * n - np.arange(n + 1))) ** power)
            r = binomial_negative_moment(n, beta, power)
            assert_allclose(r.exact, direct, rtol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            binomial_negative_moment(10, 0.0, 1)
        with pytest.raises(ValueError):
            binomial_negative_moment(10, 0.5, 3)


class TestUtilityFormulas:
    def test_constrained_square_case(self):
        assert_allclose(utility_with_constraints_formula(100, 100, 100), 75.0, atol=TOL)

    def test_constrained_equals_three_quarters_when_square(self):
        for n in (10, 40, 250):
            assert_allclose(utility_with_constraints_formula(n, n, n), 0.75 * n, atol=TOL)

    def test_constrained_large_pool(self):
        assert_allclose(utility_with_constraints_formula(100, 500, 500), 95.0, atol=TOL)

    def test_constrained_precondition(self):
        with pytest.raises(ValueError):
            utility_with_constraints_formula(100, 50, 500)

    def test_unconstrained_square_case(self):
        est = utility_without_constraints_formula(100, 100, 100, 0.5)
        assert est.branch == "biased_regime"
        expected = 37.5 + 62.5 * (1.0 - 10000.0 / 22500.0)
        assert_allclose(est.value, expected, atol=TOL)
        # the same value via the square-case closed form (n/2)(1 + 2 beta/(1+beta)^2)
        assert_allclose(est.value, 50.0 * (1.0 + 2.0 * 0.5 / 2.25), atol=TOL)

    def test_unconstrained_no_bias_matches_constrained_form(self):
        for n, m_a, m_b in [(100, 100, 100), (100, 500, 300)]:
            est = utility_without_constraints_formula(n, m_a, m_b, 1.0)
            assert est.branch == "biased_regime"
            assert_allclose(est.value, utility_with_constraints_formula(n, m_a, m_b), atol=1e-7)

    def test_unconstrained_saturated_branch(self):
        est = utility_without_constraints_formula(100, 1000, 1000, 0.5)
        assert est.branch == "saturated_regime"
        assert_allclose(est.value, 95.0, atol=TOL)

    def test_gap_branch_flagged(self):
        est = utility_without_constraints_formula(100, 200, 200, 0.5)
        assert est.branch == "gap"

    def test_precondition(self):
        with pytest.raises(ValueError):
            utility_without_constraints_formula(100, 100, 50, 0.5)


class TestDistributions:
    def test_uniform_support(self):
        rng = np.random.default_rng(0)
        xs = Uniform(0, 1).draw(rng, 1000)
        assert np.all((xs >= 0) & (xs <= 1))

    def test_uniform_mean_large_sample(self):
        rng = np.random.default_rng(123)
        xs = Uniform(0, 1).draw(rng, 10**6)
        # 3 sigma for the mean of a million uniforms
        assert abs(xs.mean() - 0.5) < 0.005

    def test_empirical_constant(self):
        rng = np.random.default_rng(0)
        xs = Empirical([5.0]).draw(rng, 100)
        assert np.all(xs == 5.0)

    def test_empirical_resamples_stored_values(self):
        rng = np.random.default_rng(0)
        xs = Empirical([1.0, 3.0]).draw(rng, 500)
        assert set(np.unique(xs)) == {1.0, 3.0}

    def test_lognormal_positive(self):
        rng = np.random.default_rng(0)
        assert np.all(LogNormal(0, 1).draw(rng, 1000) > 0)

    def test_shifted_scaled_is_affine_in_base(self):
        base = Uniform(0, 1)
        a = base.draw(np.random.default_rng(11), 50)
        b = ShiftedScaled(base, scale=2.0, shift=3.0).draw(np.random.default_rng(11), 50)
        assert_allclose(b, a * 2.0 + 3.0, atol=TOL)

    def test_negative_count_rejected(self):
        for dist in (Uniform(0, 1), Empirical([1.0, 3.0])):
            with pytest.raises(ValueError):
                dist.draw(np.random.default_rng(0), -1)

    def test_uniform_range_must_be_finite(self):
        # numpy's uniform raises OverflowError when b - a is not finite
        for a, b in ((-math.inf, 1.0), (0.0, math.inf), (-1e308, 1e308), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                Uniform(a, b)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="got a=1, b=1$"):
            Uniform(1, 1)
        for sigma in (0, math.nan):
            with pytest.raises(ValueError, match="^normal requires sigma > 0"):
                Normal(0, sigma)
        for sigma in (-1, math.nan):
            with pytest.raises(ValueError, match="^lognormal requires sigma > 0"):
                LogNormal(0, sigma)
        with pytest.raises(ValueError):
            Empirical([])

    def test_json_round_trip(self):
        dists = [
            Uniform(-1, 2),
            LogNormal(0.5, 1.5),
            Normal(3, 2),
            Empirical([3.0, 1.0, 2.0]),
            ShiftedScaled(Normal(0, 1), 1.076, 7.98),
        ]
        for d in dists:
            assert distribution_from_json(d.to_json_dict()) == d

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="^unknown distribution kind 'cauchy'$"):
            distribution_from_json({"kind": "cauchy"})

    @pytest.mark.parametrize(
        "d, message",
        [
            ({"kind": "empirical"}, 'empirical distribution requires a "sample" array'),
            ({"kind": "shifted_scaled", "scale": 2.0}, 'shifted_scaled distribution requires a "base" distribution'),
            ({"kind": "shifted_scaled", "base": {"kind": "empirical"}}, 'empirical distribution requires a "sample" array'),
            ({"mu": 0.0}, "unknown distribution kind None"),
            ({"kind": ["uniform"]}, "unknown distribution kind ['uniform']"),
            ({"kind": {"uniform": 1}}, "unknown distribution kind {'uniform': 1}"),
            (["uniform"], "distribution JSON must be an object"),
        ],
        ids=["no-sample", "no-base", "nested-no-sample", "missing-kind", "list-kind", "object-kind", "not-an-object"],
    )
    def test_json_error_messages(self, d, message):
        with pytest.raises(ValueError) as info:
            distribution_from_json(d)
        assert str(info.value) == message

    def test_json_defaults_and_unknown_keys(self):
        assert distribution_from_json({"kind": "uniform", "b": 2, "extra": 1}) == Uniform(0.0, 2.0)
        assert distribution_from_json({"kind": "lognormal", "sigma": 0.5}) == LogNormal(0.0, 0.5)
        assert distribution_from_json({"kind": "normal", "mu": 3}) == Normal(3.0, 1.0)
        d = {"kind": "shifted_scaled", "base": {"kind": "empirical", "sample": [2, 1], "x": 0}, "shift": 4}
        assert distribution_from_json(d) == ShiftedScaled(Empirical([1.0, 2.0]), 1.0, 4.0)


class TestSeedSpec:
    def test_identical_trial_streams(self):
        spec = SeedSpec(42)
        a = spec.rng_for_trial(7).uniform(size=16)
        b = spec.rng_for_trial(7).uniform(size=16)
        assert np.array_equal(a, b)

    def test_distinct_trials_differ(self):
        spec = SeedSpec(42)
        a = spec.rng_for_trial(0).uniform(size=16)
        b = spec.rng_for_trial(1).uniform(size=16)
        assert not np.array_equal(a, b)

    def test_distinct_masters_differ(self):
        a = SeedSpec(1).rng_for_trial(0).uniform(size=16)
        b = SeedSpec(2).rng_for_trial(0).uniform(size=16)
        assert not np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            SeedSpec(-1)
        with pytest.raises(ValueError):
            SeedSpec(0).trial_seed(-1)


class TestPmfGridInvariants:
    @pytest.mark.parametrize(
        "k,m_a,m_b",
        [(2, 3, 3), (5, 7, 4), (10, 50, 50), (4, 9, 9), (7, 20, 10), (3, 2, 8), (6, 30, 6), (12, 40, 80), (1, 1, 1), (8, 16, 16)],
    )
    def test_nkb_sums_to_one_and_mean_matches(self, k, m_a, m_b):
        js = range(0, min(k, m_b) + 1)
        total = sum(pmf_Nkb(j, k, m_a, m_b) for j in js)
        mean = sum(j * pmf_Nkb(j, k, m_a, m_b) for j in js)
        assert_allclose(total, 1.0, atol=TOL)
        assert_allclose(mean, expected_Nkb(k, m_a, m_b), atol=TOL)

    @pytest.mark.parametrize(
        "l,m_a,m_b",
        [(1, 1, 1), (2, 4, 3), (2, 9, 9), (1, 10, 5), (3, 6, 6), (5, 12, 8), (1, 50, 50), (4, 7, 9), (2, 30, 3), (6, 10, 6)],
    )
    def test_pl_sums_to_one_and_mean_matches(self, l, m_a, m_b):
        ks = range(l, m_a + l + 1)
        total = sum(pmf_Pl(k, l, m_a, m_b) for k in ks)
        mean = sum(k * pmf_Pl(k, l, m_a, m_b) for k in ks)
        assert_allclose(total, 1.0, atol=TOL)
        assert_allclose(mean, expected_Pl(l, m_a, m_b), atol=TOL)
