"""Closed-form expected utilities versus simulation for flat discounts.

With a constant position weight (plain subset selection), uniform
utilities, and equal group sizes, the expected latent utility of both the
unconstrained and the proportionally constrained selection admits simple
expressions, built on negative moments of a binomial count.  This script
prints each formula next to its Monte Carlo estimate.
"""

import numpy as np

import biasrank as br


def mc_means(cfg, trials, seed):
    reports = br.run_trials(cfg, trials, seed)
    uc = np.array([r.u_cons for r in reports])
    uu = np.array([r.u_uncons for r in reports])
    return uc.mean(), uu.mean()


def main():
    n = 100
    beta = 0.5
    trials = 1500

    print("Negative binomial moments (the engine of the closed forms):")
    print(f"{'n':>6} {'beta':>5} | {'exact E[n/(2n-N)]':>18} | {'limit 1/(1+b)':>13} | gap")
    for nn in (100, 1000):
        for b in (0.25, 0.5, 0.9):
            r = br.binomial_negative_moment(nn, b, 1)
            print(f"{nn:>6} {b:>5} | {r.exact:18.6f} | {r.approx:13.6f} | {abs(r.exact - r.approx):.2e}")

    print(f"\nEqual pools m_a = m_b = n = {n}, bias {beta}, flat discount, {trials} trials:")
    cfg = br.TrialConfig(
        m_a=n, m_b=n, n=n, beta=beta, alpha=0.5,
        dist_a=br.Uniform(0, 1), dist_b=br.Uniform(0, 1),
        discount=br.DiscountVector.constant(n),
    )
    mean_cons, mean_uncons = mc_means(cfg, trials, br.SeedSpec(9))
    est = br.utility_without_constraints_formula(n, n, n, beta)
    print(f"  unconstrained: simulated {mean_uncons:7.3f}  vs closed form {est.value:7.3f} ({est.branch})")
    print(f"  constrained  : simulated {mean_cons:7.3f}  vs leading order "
          f"{br.utility_with_constraints_formula(n, n, n):7.3f}")

    print(f"\nLarger pools m_a = m_b = 1000, same n = {n}:")
    big = br.TrialConfig(
        m_a=1000, m_b=1000, n=n, beta=beta, alpha=0.5,
        dist_a=br.Uniform(0, 1), dist_b=br.Uniform(0, 1),
        discount=br.DiscountVector.constant(n),
    )
    mean_cons, mean_uncons = mc_means(big, trials, br.SeedSpec(10))
    est = br.utility_without_constraints_formula(n, 1000, 1000, beta)
    print(f"  unconstrained: simulated {mean_uncons:7.3f}  vs closed form {est.value:7.3f} ({est.branch})")
    print(f"  constrained  : simulated {mean_cons:7.3f}  vs leading order "
          f"{br.utility_with_constraints_formula(n, 1000, 1000):7.3f}")
    print("\nIn the saturated branch the evaluator's top list is all first-group,")
    print("so its value no longer depends on the bias at all; the constrained")
    print("selection stays within a hair of the unbiased optimum.")


if __name__ == "__main__":
    main()
