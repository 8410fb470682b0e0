"""Exact expected latent utilities of the three rankings a trial scores, for
uniform utilities: a test oracle for the Monte Carlo means (needs scipy).

Latent utilities are i.i.d. U(0, 1).  The target group (group b) is observed
at ``beta * y`` and the other group at its latent value, and ``bounds[p - 1]``
targets are required in every top-p prefix.  With continuous utilities there
are no ties, and each group is ranked among itself by latent value, so each
item's position is a function of one binomial count:

* The r-th best privileged item, of value x ~ Beta(m_a - r + 1, r), has
  J ~ Bin(m_b, (1 - x / beta)+) targets observed above it.  It sits at r + J
  unconstrained, and at r + max(J, D_r) under the bounds, where D_r is the
  least B with B >= bounds at prefix r + B (the bounds rise by at most one a
  position, so B - bound(r + B) never falls).
* The s-th best target, of value y ~ Beta(m_b - s + 1, s), has
  K ~ Bin(m_a, 1 - beta * y) privileged items observed above it.  It sits at
  s + K unconstrained, and at min(d_s, s + K) under the bounds, where d_s is
  the first prefix whose bound reaches s.  A target with s + K > n is still
  placed at d_s, so it needs the tail P(K > n - s).
* The latent optimum's k-th item has mean (m - k + 1) / (m + 1).

Each expectation over x or y is taken in quantile space, x = F^-1(u) at
Gauss-Legendre nodes u on [0, 1], with the binomial pmfs in log space and
truncated at the last position that is ranked.
"""

import numpy as np
from scipy.special import betaincinv, gammaln, xlog1py, xlogy

NODES = 200
_u, _w = np.polynomial.legendre.leggauss(NODES)
U, W = (_u + 1) / 2, _w / 2


def binomial_pmf(m: int, q: np.ndarray, top: int) -> np.ndarray:
    """P(Bin(m, q) = k) for k = 0..min(m, top), one row per success probability in ``q``."""
    k = np.arange(min(m, top) + 1)
    log_choose = gammaln(m + 1) - gammaln(k + 1) - gammaln(m - k + 1)
    return np.exp(log_choose + xlogy(k, q[:, None]) + xlog1py(m - k, -q[:, None]))


def expected_utilities(m_a: int, m_b: int, n: int, beta: float, bounds, v) -> tuple[float, float, float]:
    """Expected latent utility of the (latent optimum, unconstrained, constrained) rankings.

    ``bounds`` holds the target bound at prefix lengths 1..n and ``v`` the discount, both of length n.
    """
    v = np.asarray(v, dtype=float)
    L = np.concatenate([[0], np.asarray(bounds)])  # L[p]: the bound at prefix length p
    k = np.arange(1, n + 1)
    opt = float(v @ (m_a + m_b - k + 1)) / (m_a + m_b + 1)
    uncons = cons = 0.0
    for r in range(1, min(m_a, n) + 1):
        x = betaincinv(m_a - r + 1, r, U)
        J = binomial_pmf(m_b, np.clip(1 - x / beta, 0.0, 1.0), n - r)
        B = np.arange(J.shape[1])
        uncons += W @ (x * (J @ v[r + B - 1]))
        free = np.flatnonzero(np.arange(n - r + 1) >= L[r : n + 1])
        if free.size:
            cons += W @ (x * (J @ v[r + np.maximum(B, free[0]) - 1]))
    for s in range(1, min(m_b, n) + 1):
        y = betaincinv(m_b - s + 1, s, U)
        K = binomial_pmf(m_a, 1 - beta * y, n - s)
        at = s + np.arange(K.shape[1])
        uncons += W @ (y * (K @ v[at - 1]))
        due = np.flatnonzero(L[1:] >= s)
        if due.size:
            d = due[0] + 1
            cons += W @ (y * (K @ v[np.minimum(at, d) - 1] + (1 - K.sum(axis=1)) * v[d - 1]))
        else:
            cons += W @ (y * (K @ v[at - 1]))
    return opt, float(uncons), float(cons)
