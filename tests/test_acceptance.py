"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; several tests are Monte Carlo heavy and the whole module takes a
few minutes single-threaded.
"""

import math
import time

import numpy as np
import pytest

from biasrank import (
    BiasModel,
    DiscountVector,
    Instance,
    LogNormal,
    SeedSpec,
    TrialConfig,
    Uniform,
    binomial_negative_moment,
    derived_constraints,
    estimate_order_stats,
    expected_Nkb,
    expected_Pl,
    observed_utilities,
    pmf_Nkb,
    pmf_Pl,
    rank_constrained_bruteforce,
    rank_constrained_greedy,
    rank_unconstrained,
    ranking_utility,
    run_sweep,
    run_trials,
    satisfies,
    simple_constraints,
    tail_bound_Nkb,
)
from biasrank.cli import main
from conftest import random_disjoint_instance, random_feasible_constraints

TOL = 1e-9


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}: {detail}"


def test_c01_greedy_matches_bruteforce_oracle():
    rng = np.random.default_rng(20240115)
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        inst = random_disjoint_instance(rng, max_m=7, max_n=5, max_p=3)
        L = random_feasible_constraints(rng, inst)
        w = rng.uniform(0.0, 1.0, inst.m)
        g = rank_constrained_greedy(inst, w, L)
        b = rank_constrained_bruteforce(inst, w, L)
        assert satisfies(g, L, inst.membership_matrix)
        gap = abs(ranking_utility(g, inst.v, w) - ranking_utility(b, inst.v, w))
        worst = max(worst, gap)
    elapsed = time.time() - t0
    report(
        "C1 greedy equals oracle on 1000 random instances",
        worst <= TOL and elapsed < 60.0,
        f"max utility gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_c02_derived_constraints_recover_latent_optimum():
    rng = np.random.default_rng(77002)
    worst = 0.0
    for _ in range(500):
        m = int(rng.integers(2, 8))
        n = int(rng.integers(1, min(m, 5) + 1))
        p = int(rng.integers(1, 4))
        mem = rng.random((m, p)) < 0.5
        w = rng.uniform(0.0, 1.0, m)
        if rng.random() < 0.3:
            v = DiscountVector.constant(n)
        else:
            v = DiscountVector(np.sort(rng.uniform(0.0, 1.0, n))[::-1])
        inst = Instance.from_arrays(w, mem, n, v)
        betas = BiasModel(rng.uniform(0.05, 0.95, p))
        observed = observed_utilities(inst, betas)
        L = derived_constraints(inst)
        constrained = rank_constrained_bruteforce(inst, observed, L)
        latent = ranking_utility(constrained, v, w)
        best = ranking_utility(rank_unconstrained(inst, w), v, w)
        worst = max(worst, abs(latent - best))
    report(
        "C2 utility-derived bounds recover the latent optimum (500 instances)",
        worst <= TOL,
        f"max latent gap {worst:.2e}",
    )


# name -> (k, l, m_a, m_b, distribution, master seed), 100k trials each
ORDER_STATS_RUNS = {
    "uniform_nkb": (10, 2, 50, 50, Uniform(0, 1), 1001),
    "lognorm_nkb": (10, 2, 50, 50, LogNormal(0, 1), 1002),
    "uniform_pl": (4, 2, 9, 9, Uniform(0, 1), 1003),
    "lognorm_pl": (4, 2, 9, 9, LogNormal(0, 1), 1004),
}


@pytest.fixture(scope="module")
def order_stats_runs():
    return {
        name: estimate_order_stats(k, l, m_a, m_b, dist, 100_000, SeedSpec(seed))
        for name, (k, l, m_a, m_b, dist, seed) in ORDER_STATS_RUNS.items()
    }


def test_c03_order_stat_means_and_distribution_independence(order_stats_runs):
    t0 = time.time()
    runs = order_stats_runs
    err_n_u = abs(runs["uniform_nkb"].mean_Nkb - expected_Nkb(10, 50, 50))
    err_n_l = abs(runs["lognorm_nkb"].mean_Nkb - expected_Nkb(10, 50, 50))
    err_p_u = abs(runs["uniform_pl"].mean_Pl - expected_Pl(2, 9, 9))
    err_p_l = abs(runs["lognorm_pl"].mean_Pl - expected_Pl(2, 9, 9))
    agree_n = abs(runs["uniform_nkb"].mean_Nkb - runs["lognorm_nkb"].mean_Nkb) <= 3 * math.hypot(
        runs["uniform_nkb"].se_Nkb, runs["lognorm_nkb"].se_Nkb
    )
    agree_p = abs(runs["uniform_pl"].mean_Pl - runs["lognorm_pl"].mean_Pl) <= 3 * math.hypot(
        runs["uniform_pl"].se_Pl, runs["lognorm_pl"].se_Pl
    )
    elapsed = time.time() - t0
    ok = (
        err_n_u <= 0.05
        and err_n_l <= 0.05
        and err_p_u <= 0.1
        and err_p_l <= 0.1
        and agree_n
        and agree_p
        and elapsed < 120.0
    )
    report(
        "C3 top-k count and l-th position means match closed forms",
        ok,
        f"|dNkb| {err_n_u:.4f}/{err_n_l:.4f}, |dPl| {err_p_u:.4f}/{err_p_l:.4f}",
    )


def pooled_chi_square(counts, pmf) -> tuple[float, int]:
    """Pearson's statistic and degrees of freedom of ``counts`` against
    ``counts.sum() * pmf`` over the same bins, adjacent bins pooled left to
    right until each expects at least 5 (a short tail joins the last bin)."""
    obs, exp, o, e = [], [], 0.0, 0.0
    for c, x in zip(counts, counts.sum() * np.asarray(pmf)):
        o, e = o + c, e + x
        if e >= 5.0:
            obs.append(o)
            exp.append(e)
            o, e = 0.0, 0.0
    obs[-1] += o
    exp[-1] += e
    obs, exp = np.array(obs), np.array(exp)
    return float(((obs - exp) ** 2 / exp).sum()), len(obs) - 1


def test_c12_urn_laws_pass_chi_square(order_stats_runs):
    # Every C3 run's top-k target count is hypergeometric and its l-th target
    # position shifted negative hypergeometric, whatever the distribution.
    chi2 = pytest.importorskip("scipy.stats").chi2
    ok, details = True, []
    for name, (k, l, m_a, m_b, _, _) in ORDER_STATS_RUNS.items():
        est = order_stats_runs[name]
        laws = (
            ("Nkb", est.nkb_counts, [pmf_Nkb(j, k, m_a, m_b) for j in range(k + 1)]),
            ("Pl", est.pl_counts, [pmf_Pl(p, l, m_a, m_b) for p in range(m_a + l + 1)]),
        )
        for law, counts, pmf in laws:
            assert len(counts) == len(pmf)
            stat, df = pooled_chi_square(counts, pmf)
            p_value = float(chi2.sf(stat, df))
            ok = ok and p_value > 0.001
            details.append(f"{name} {law}: chi2={stat:.1f} df={df} p={p_value:.3f}")
    report("C12 urn-model laws pass a chi-square test at p > 0.001", ok, "; ".join(details))


def test_c04_lower_tail_within_bound(order_stats_runs):
    est = order_stats_runs["uniform_nkb"]
    mean = expected_Nkb(10, 50, 50)
    ok = True
    details = []
    for delta in (2.0, 3.0):
        freq = est.tail_frequency(mean - delta)
        se = math.sqrt(max(freq * (1 - freq), 1e-12) / est.trials)
        bound = tail_bound_Nkb(delta, 10)
        details.append(f"d={delta:.0f}: {freq:.4f} <= {bound:.4f}+3se")
        ok = ok and freq <= bound + 3 * se
    report("C4 empirical lower tail within the exponential bound", ok, "; ".join(details))


def test_c05_closed_form_utilities_at_scale():
    t0 = time.time()
    trials = 5000
    seed = SeedSpec(55001)
    cfg = TrialConfig(
        m_a=100, m_b=100, n=100, beta=0.5, alpha=0.5,
        dist_a=Uniform(0, 1), dist_b=Uniform(0, 1), discount=DiscountVector.constant(100),
    )
    reports = run_trials(cfg, trials, seed)
    u_cons = np.array([r.u_cons for r in reports])
    u_uncons = np.array([r.u_uncons for r in reports])
    cons_ok = abs(u_cons.mean() - 74.26) <= 0.03 * 74.26
    uncons_ok = abs(u_uncons.mean() - 72.22) <= 0.03 * 72.22

    big = TrialConfig(
        m_a=1000, m_b=1000, n=100, beta=0.5, alpha=0.5,
        dist_a=Uniform(0, 1), dist_b=Uniform(0, 1), discount=DiscountVector.constant(100),
    )
    u_big = np.array([r.u_cons for r in run_trials(big, trials, SeedSpec(55002))])
    big_ok = abs(u_big.mean() - 97.5) <= 0.02 * 97.5
    elapsed = time.time() - t0
    report(
        "C5 fixed-position utility closed forms at n=100",
        cons_ok and uncons_ok and big_ok and elapsed < 300.0,
        f"cons {u_cons.mean():.3f}~74.26, uncons {u_uncons.mean():.3f}~72.22, "
        f"large-pool {u_big.mean():.3f}~97.5, {elapsed:.0f}s",
    )


def test_c06_sweep_peaks_near_proportional_share():
    trials = 2000
    alphas = [round(0.05 * i, 2) for i in range(11)]
    ok = True
    details = []
    for mb_frac in (0.25, 0.5):
        for beta in (0.25, 0.5):
            m = 1000
            m_b = int(m * mb_frac)
            base = TrialConfig(
                m_a=m - m_b, m_b=m_b, n=100, beta=beta, alpha=0.0,
                dist_a=Uniform(0, 1), dist_b=Uniform(0, 1), discount=DiscountVector.dcg(100),
            )
            rep = run_sweep(base, alphas, [beta], trials, SeedSpec(66001))
            means = np.array([r.mean_cons for r in rep.rows])
            best_alpha = alphas[int(np.argmax(means))]
            star = rep.rows[alphas.index(round(mb_frac, 2))]
            sep = (star.mean_cons - star.mean_uncons) / math.hypot(star.se_cons, star.se_uncons)
            cfg_ok = sep > 3.0 and abs(best_alpha - mb_frac) <= 0.1
            ok = ok and cfg_ok
            details.append(f"mb/m={mb_frac},b={beta}: argmax={best_alpha}, sep={sep:.0f}se")
    report("C6 constrained mean peaks near the group share and beats unconstrained", ok, "; ".join(details))


# name -> (m_a, m_b, beta, alpha, discount, trials, seed), all at n = 100 with uniform utilities: C5's two
# configs, C6's four cells at alpha = m_b / m, and two cells at a beta where targets reach the unconstrained
# top n.  The four C6 cells share their seed and m, so their latent optima are the same draws.
EXACT_CONFIGS = {
    "c5": (100, 100, 0.5, 0.5, "constant", 5000, 55001),
    "c5-large-pool": (1000, 1000, 0.5, 0.5, "constant", 5000, 55002),
    "c6-mb250-b0.25": (750, 250, 0.25, 0.25, "dcg", 2000, 66001),
    "c6-mb250-b0.5": (750, 250, 0.5, 0.25, "dcg", 2000, 66001),
    "c6-mb500-b0.25": (500, 500, 0.25, 0.5, "dcg", 2000, 66001),
    "c6-mb500-b0.5": (500, 500, 0.5, 0.5, "dcg", 2000, 66001),
    "mixing-a0.25": (500, 500, 0.9, 0.25, "dcg", 2000, 90001),
    "mixing-a0.5": (500, 500, 0.9, 0.5, "dcg", 2000, 90001),
}


@pytest.mark.parametrize("name", EXACT_CONFIGS)
def test_c13_monte_carlo_means_match_exact_expectations(name):
    pytest.importorskip("scipy.special")
    from exact_utilities import expected_utilities

    m_a, m_b, beta, alpha, kind, trials, seed = EXACT_CONFIGS[name]
    v = DiscountVector.constant(100) if kind == "constant" else DiscountVector.dcg(100)
    cfg = TrialConfig(
        m_a=m_a, m_b=m_b, n=100, beta=beta, alpha=alpha, dist_a=Uniform(0, 1), dist_b=Uniform(0, 1), discount=v,
    )
    reports = run_trials(cfg, trials, SeedSpec(seed))
    exact = expected_utilities(m_a, m_b, 100, beta, simple_constraints(alpha, 1, 100, 2).matrix[:, 1], v.values)
    ok, details = True, []
    for field, want in zip(("u_opt", "u_uncons", "u_cons"), exact):
        u = np.array([getattr(r, field) for r in reports])
        z = (u.mean() - want) / (u.std(ddof=1) / math.sqrt(trials))
        ok = ok and abs(z) <= 4.0
        details.append(f"{field} {u.mean():.4f} vs exact {want:.4f}, z={z:+.2f}")
    report(f"C13 {name}: Monte Carlo means within 4 se of the exact expectations", ok, "; ".join(details))


def test_c07_exact_proportional_pick():
    trials = 5000
    seed = SeedSpec(77001)
    cfg = TrialConfig(
        m_a=100, m_b=100, n=100, beta=0.5, alpha=0.5,
        dist_a=Uniform(0, 1), dist_b=Uniform(0, 1), discount=DiscountVector.constant(100),
    )
    violations = 0
    applicable = 0
    for r in run_trials(cfg, trials, seed):
        if r.n_b_uncons <= 50:
            applicable += 1
            if r.n_b_cons != 50:
                violations += 1
    report(
        "C7 constrained ranking picks exactly half from the target group",
        violations == 0 and applicable > 0,
        f"{violations} violations in {applicable} applicable trials",
    )


def test_c08_binomial_negative_moments():
    ok = True
    worst = 0.0
    for n in (100, 1000):
        budget = n ** (-3.0 / 8.0)
        for beta in (0.25, 0.5, 0.9):
            for power in (1, 2):
                r = binomial_negative_moment(n, beta, power)
                gap = abs(r.exact - r.approx)
                worst = max(worst, gap / budget)
                ok = ok and gap <= budget
    report("C8 negative binomial moments within the stated error order", ok, f"max gap/budget {worst:.3f}")


def test_c09_pmf_normalization_and_moments():
    grid_nkb = [(2, 3, 3), (5, 7, 4), (10, 50, 50), (4, 9, 9), (7, 20, 10),
                (3, 2, 8), (6, 30, 6), (12, 40, 80), (1, 1, 1), (8, 16, 16)]
    grid_pl = [(1, 1, 1), (2, 4, 3), (2, 9, 9), (1, 10, 5), (3, 6, 6),
               (5, 12, 8), (1, 50, 50), (4, 7, 9), (2, 30, 3), (6, 10, 6)]
    worst = 0.0
    for k, m_a, m_b in grid_nkb:
        js = range(0, min(k, m_b) + 1)
        worst = max(worst, abs(sum(pmf_Nkb(j, k, m_a, m_b) for j in js) - 1.0))
        worst = max(worst, abs(sum(j * pmf_Nkb(j, k, m_a, m_b) for j in js) - expected_Nkb(k, m_a, m_b)))
    for l, m_a, m_b in grid_pl:
        ks = range(l, m_a + l + 1)
        worst = max(worst, abs(sum(pmf_Pl(k, l, m_a, m_b) for k in ks) - 1.0))
        worst = max(worst, abs(sum(k * pmf_Pl(k, l, m_a, m_b) for k in ks) - expected_Pl(l, m_a, m_b)))
    report("C9 pmf normalization and mean identities on a 10-point grid", worst <= TOL, f"max defect {worst:.2e}")


def test_c10_fixed_constraints_cannot_serve_both_utility_vectors():
    v = DiscountVector([2.0, 1.0])
    inst_w = Instance.from_arrays([2.0, 1.0], np.eye(2, dtype=bool), 2, v)
    inst_wp = Instance.from_arrays([1.0, 2.0], np.eye(2, dtype=bool), 2, v)
    betas = BiasModel([1.0, 0.25])
    L = derived_constraints(inst_w)

    obs_w = observed_utilities(inst_w, betas)
    first = rank_constrained_bruteforce(inst_w, obs_w, L)
    recovered = ranking_utility(first, v, inst_w.latent_utilities)

    obs_wp = observed_utilities(inst_wp, betas)
    second = rank_constrained_bruteforce(inst_wp, obs_wp, L)
    stuck = ranking_utility(second, v, inst_wp.latent_utilities)
    best = ranking_utility(rank_unconstrained(inst_wp, inst_wp.latent_utilities), v, inst_wp.latent_utilities)

    ok = abs(recovered - 5.0) <= TOL and abs(stuck - 4.0) <= TOL and abs(best - 5.0) <= TOL
    report(
        "C10 bounds fixed for one utility vector fail the swapped one",
        ok,
        f"recovered {recovered}, stuck at {stuck} vs optimal {best}",
    )


def test_c11_sweep_bytes_independent_of_threads(tmp_path):
    import json

    cfg = {
        "m_a": 150,
        "m_b": 50,
        "n": 20,
        "beta": 0.5,
        "alpha": 0.0,
        "alphas": [0.0, 0.1, 0.25],
        "betas": [0.5],
        "trials": 100,
        "dist_a": {"kind": "uniform"},
        "dist_b": {"kind": "uniform"},
        "discount": {"kind": "dcg"},
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    out1, out8 = tmp_path / "t1.csv", tmp_path / "t8.csv"
    assert main(["sweep", str(path), "--seed", "42", "--threads", "1", "--out", str(out1)]) == 0
    assert main(["sweep", str(path), "--seed", "42", "--threads", "8", "--out", str(out8)]) == 0
    same = out1.read_bytes() == out8.read_bytes()
    report("C11 sweep output is byte-identical across thread counts", same)
