"""Monte Carlo harness for two-group ranking trials.

Each trial draws fresh utilities for a privileged group (index 0, size
m_a) and a target group (index 1, size m_b), shades the target group by a
factor beta, and compares three rankings evaluated by latent utility:

* ``opt``    - the unattainable latent-utility argmax,
* ``uncons`` - the observed-utility argmax,
* ``cons``   - the observed-utility argmax under the floor(alpha * k)
  prefix bounds.

Trials are independent: trial i derives its own stream from
(master_seed, i), so any grid cell can be recomputed in isolation, and
:func:`run_trial` stays as the scalar definition and oracle.  The batched
engines (sweeps and ``simulate``, :func:`estimate_order_stats` and
:func:`supernumerary_compare`) draw through one helper, ``_draw_blocks``:
it walks the trials in blocks of ``max(1, BLOCK_ELEMENTS // m)``, puts
each trial's generator in the state ``SeedSpec.rng_for_trial(i)`` defines
(:meth:`SeedSpec.rngs_for_trials`), and has each group's distribution
write its draws straight into that group's columns of the trial's row of
one (rows, m) matrix.  Each engine then checks, selects or sorts, and
scores the whole block at once, and reproduces the per-trial loop bit for
bit, whatever the block size.

The seat-expansion comparison pits the prefix-bound intervention against
reserving added seats for the target group when the target group's scores
understate its true utility by an affine shift.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace
from typing import Iterator, Sequence

import numpy as np

from .constraints import InfeasibleConstraintsError, simple_constraints
from .model import BiasModel, DiscountVector, Instance, _order, check_size, observed_utilities, ranking_utility
from .solver import rank_constrained_greedy, rank_single_column, rank_unconstrained
from .stats import Distribution, SeedSpec

__all__ = [
    "OrderStatsReport",
    "SupernumeraryConfig",
    "SupernumeraryReport",
    "SupernumerarySchemeStats",
    "SweepReport",
    "SweepRow",
    "TrialConfig",
    "TrialReport",
    "apply_score_shift",
    "estimate_order_stats",
    "run_sweep",
    "run_trial",
    "run_trials",
    "supernumerary_compare",
    "supernumerary_csv",
    "supernumerary_seats",
]

CEIL_EPSILON = 1e-9

# Utilities per block: each engine draws and scores max(1, BLOCK_ELEMENTS // m)
# trials of m utilities at a time (32 in the sweep benchmark, m = 1000; 327 in
# the order-statistics one, m = 100).  Keep it at most model.MAX_ELEMENTS.
BLOCK_ELEMENTS = 2**15


def _csv(seed: int, header: Sequence[str], rows) -> str:
    """The ``# seed=`` line, the header, then a line per row: str and int cells by ``str``, others to 12 digits."""
    lines = [f"# seed={seed}", ",".join(header)]
    for row in rows:
        lines.append(",".join([str(x) if isinstance(x, (int, str)) else format(float(x), ".12g") for x in row]))
    return "\n".join(lines) + "\n"


def _mean_se(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error along the last axis, the bits of each row's 1-D forms; raises on overflow."""
    size = values.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        mean = values.mean(axis=-1)
        se = values.std(axis=-1, ddof=1) / math.sqrt(size) if size > 1 else np.zeros_like(mean)
    if not (np.isfinite(mean).all() and np.isfinite(se).all()):
        raise ValueError("a mean or standard error overflows the float range")
    return mean, se


@dataclass(frozen=True)
class TrialConfig:
    """Parameters of one two-group trial."""

    m_a: int
    m_b: int
    n: int
    beta: float
    alpha: float
    dist_a: Distribution
    dist_b: Distribution
    discount: DiscountVector
    target_group: int = 1

    def __post_init__(self) -> None:
        if self.m_a < 0 or self.m_b < 0:
            raise ValueError("group sizes must be nonnegative")
        if not (1 <= self.n <= self.m_a + self.m_b):
            raise ValueError(f"need 1 <= n <= m_a + m_b, got n={self.n}")
        if not (0.0 <= self.beta <= 1.0):
            raise ValueError("beta must lie in [0, 1]")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        if len(self.discount) != self.n:
            raise ValueError(f"discount has length {len(self.discount)}, expected n={self.n}")
        if self.target_group not in (0, 1):
            raise ValueError("target group must be 0 or 1")


@dataclass(frozen=True)
class TrialReport:
    """Latent utilities of the three rankings plus target-group counts in
    the ranked positions of the constrained and unconstrained rankings."""

    u_cons: float
    u_uncons: float
    u_opt: float
    n_b_cons: int
    n_b_uncons: int


def run_trial(config: TrialConfig, trial_index: int, seed: SeedSpec) -> TrialReport:
    """One trial: draw utilities, shade the target group, rank three ways,
    and evaluate all three by latent utility."""
    rng = seed.rng_for_trial(trial_index)
    w = np.concatenate([config.dist_a.draw(rng, config.m_a), config.dist_b.draw(rng, config.m_b)])
    is_b = np.arange(config.m_a + config.m_b) >= config.m_a
    instance = Instance.from_arrays(w, np.stack([~is_b, is_b], axis=1), config.n, config.discount)
    target = config.target_group
    observed = observed_utilities(instance, BiasModel(np.where(np.arange(2) == target, config.beta, 1.0)))

    L = simple_constraints(config.alpha, target, config.n, 2)
    opt = rank_unconstrained(instance, w)
    uncons = rank_unconstrained(instance, observed)
    cons = rank_constrained_greedy(instance, observed, L)
    v = config.discount

    def count_target(r) -> int:
        return int(instance.membership_matrix[np.asarray(r.positions, dtype=np.intp), target].sum())

    return TrialReport(
        u_cons=ranking_utility(cons, v, w),
        u_uncons=ranking_utility(uncons, v, w),
        u_opt=ranking_utility(opt, v, w),
        n_b_cons=count_target(cons),
        n_b_uncons=count_target(uncons),
    )


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    beta: float
    m_a: int
    m_b: int
    n: int
    trials: int
    mean_cons: float
    se_cons: float
    mean_uncons: float
    se_uncons: float
    mean_opt: float
    se_opt: float


@dataclass(frozen=True)
class SweepReport:
    master_seed: int
    rows: tuple[SweepRow, ...]

    def to_csv(self) -> str:
        names = [f.name for f in fields(SweepRow)]
        return _csv(self.master_seed, names, ([getattr(r, name) for name in names] for r in self.rows))


def _draw_blocks(seed: SeedSpec, trials: int, groups) -> Iterator[tuple[slice, np.ndarray]]:
    """Trials 0..trials-1 as ``(part, w)``, ``max(1, BLOCK_ELEMENTS // m)``
    at a time, where m is the sum of the group sizes: row i of the (rows, m)
    matrix ``w`` holds trial ``part.start + i``, each ``(dist, size)`` of
    ``groups`` in turn drawing the next ``size`` columns from the trial's
    stream with ``dist.draw(rng, size, out=...)``.  Every block reuses one
    buffer, so ``w`` is valid until the next is requested.  Raises
    ValueError, before allocating it, when m exceeds ``MAX_ELEMENTS``.
    """
    cols, at = [], 0
    for dist, size in groups:
        cols.append((dist, size, slice(at, at + size)))
        at += size
    check_size("a trial's utilities", at)
    block = max(1, BLOCK_ELEMENTS // at)
    buf = np.empty((min(block, trials), at))
    # Each row's group views, made once for all blocks.
    rows = [[(dist, size, row[col]) for dist, size, col in cols] for row in buf]
    rngs = seed.rngs_for_trials(0, trials)
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        for draws, rng in zip(rows[: stop - start], rngs):
            for dist, size, out in draws:
                dist.draw(rng, size, out)
        yield slice(start, stop), buf[: stop - start]


def _kth_largest(x: np.ndarray, k: int) -> np.ndarray:
    """Each row's k-th largest value, ``1 <= k <=`` row width, by selection."""
    cut = x.shape[1] - k
    return np.partition(x, cut, axis=1)[:, cut]


def _top(x: np.ndarray, c: int) -> np.ndarray:
    """The first ``c`` columns of ``_order(x)``, by selection; ``c`` is at
    least 1 or at least the row width.

    ``argpartition`` finds each row's ``c`` largest values; their ids,
    sorted ascending and then stable-sorted by value, keep the tie order of
    the full sort.  When some row's c-th largest value is not above its
    (c+1)-th, a tie straddles the cut and the partition may have picked the
    wrong tied ids.  Then every row takes its ids above its c-th largest
    value and the lowest ids equal to it until it holds ``c``, as the full
    sort would.
    """
    rows, width = x.shape
    if c >= width:
        return _order(x)[:, :c]
    neg = -x
    part = np.argpartition(neg, c, axis=1)
    win = np.sort(part[:, :c], axis=1)
    row = np.arange(rows)[:, None]
    key = neg[row, win]
    kth = key.max(axis=1)[:, None]  # minus each row's c-th largest value
    if np.any(kth >= neg[row, part[:, c : c + 1]]):
        above = neg < kth
        tied = neg == kth
        room = c - np.count_nonzero(above, axis=1)[:, None]
        win = np.nonzero(above | tied & (np.cumsum(tied, axis=1) <= room))[1].reshape(rows, c)
        key = neg[row, win]
    return win[row, np.argsort(key, axis=1, kind="stable")]


def _utilities(w: np.ndarray, ids: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Latent utility ``w[r, ids[r, ...]] @ v`` of every ranking in ``ids``,
    shape (rows, ..., n), by one stacked ``matmul`` of (1, n) @ (n, 1)
    products.  NumPy sums each with the ddot kernel of the 1-D ``@`` in
    :func:`ranking_utility` (a (T, n) @ (n,) gemv sums in another order);
    the first ranking is checked against that dot, so a build that sums
    differently raises RuntimeError rather than changing the output bytes.
    """
    row = np.arange(len(w)).reshape((-1,) + (1,) * (ids.ndim - 1))
    u = np.matmul(w[row, ids][..., None, :], v[:, None])[..., 0, 0]
    first = (0,) * (ids.ndim - 1)
    if u.size and (got := u[first]) != (want := w[0, ids[first]] @ v) and not (np.isnan(got) and np.isnan(want)):
        raise RuntimeError(f"stacked matmul and the 1-D dot sum differently under numpy {np.__version__}")
    return u


def _run_grid(
    base: TrialConfig,
    alphas: Sequence[float],
    betas: Sequence[float],
    trials: int,
    seed: SeedSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every trial of every (beta, alpha) cell, equal to ``run_trial`` of the
    cell's config for each trial index, computed block by block.

    Only each group's best ``min(size, n)`` items can reach a ranking of n
    positions, so each block keeps those candidates per group (:func:`_top`
    on the latent values once, and on the shaded group's scaled values per
    beta), group 0 first.  One stable sort of the candidates' values then
    orders them as the full stable sort orders its first n items, and
    :func:`rank_single_column` runs on candidate-local indices: a target's
    candidate position equals its full-order position whenever either is
    at most n, and otherwise both exceed n, which is all the closed form
    needs to know.

    Returns ``u_opt`` (trials,), ``u_uncons`` and ``n_b_uncons`` (betas,
    trials), and ``u_cons`` and ``n_b_cons`` (betas, alphas, trials).
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if len(alphas) and len(betas):
        # A cell's config fails on its beta before its alpha, so over the
        # cells in grid order the first error is the first cell's, then the
        # first bad alpha's, then the first bad beta's.
        replace(base, alpha=float(alphas[0]), beta=float(betas[0]))
        for alpha in alphas[1:]:
            replace(base, alpha=float(alpha))
        for beta in betas[1:]:
            replace(base, beta=float(beta))
    m_a, m_b, n, t = base.m_a, base.m_b, base.n, base.target_group
    columns = [simple_constraints(float(a), t, n, 2).matrix[:, t] for a in alphas]
    bounds = np.array(columns, dtype=np.int64).reshape(len(alphas), n)
    if bounds[:, -1].max(initial=0) > (m_b if t == 1 else m_a):
        raise InfeasibleConstraintsError("no ranking satisfies the constraint matrix")
    check_size("the trial results", trials * max(len(betas), 1) * max(len(alphas), 1))
    groups = (slice(0, m_a), slice(m_a, m_a + m_b))
    c = (min(m_a, n), min(m_b, n))
    # Candidate-local target mask: group 0's candidates come first.
    target = np.repeat([t == 0, t == 1], c)
    v = base.discount.values
    u_opt = np.empty(trials)
    u_uncons = np.empty((len(betas), trials))
    n_b_uncons = np.empty((len(betas), trials), dtype=np.int64)
    u_cons = np.empty((len(betas), len(alphas), trials))
    n_b_cons = np.empty((len(betas), len(alphas), trials), dtype=np.int64)
    for part, w in _draw_blocks(seed, trials, ((base.dist_a, m_a), (base.dist_b, m_b))):
        if not np.all(np.isfinite(w)):
            raise ValueError("latent utilities must be finite")
        row = np.arange(len(w))[:, None]
        ids = [_top(w[:, g], size) + g.start for g, size in zip(groups, c)]
        keys = [w[row, i] for i in ids]
        cand = np.concatenate(ids, axis=1)
        local = _order(np.concatenate(keys, axis=1))
        u_opt[part] = _utilities(w, cand[row, local[:, :n]], v)
        for b, beta in enumerate(betas):
            scaled = w[:, groups[t]] * float(beta)
            top = _top(scaled, c[t])
            keys[t] = scaled[row, top]
            ids[t] = top + groups[t].start
            cand = np.concatenate(ids, axis=1)
            local = _order(np.concatenate(keys, axis=1))
            u_uncons[b, part] = _utilities(w, cand[row, local[:, :n]], v)
            n_b_uncons[b, part] = target[local[:, :n]].sum(axis=1)
            local_ids, count = rank_single_column(local, target, bounds)
            ranked = cand[row[:, :, None], local_ids]
            n_b_cons[b, :, part] = count.T
            u_cons[b, :, part] = _utilities(w, ranked, v).T
    return u_opt, u_uncons, n_b_uncons, u_cons, n_b_cons


def run_trials(config: TrialConfig, trials: int, seed: SeedSpec) -> list[TrialReport]:
    """Reports of trials 0..trials-1 of one config; report i equals
    ``run_trial(config, i, seed)``."""
    # A report costs about 2 KB of Python objects and output JSON.
    check_size("the trial reports", trials * 256)
    grid = _run_grid(config, [config.alpha], [config.beta], trials, seed)
    u_opt, u_uncons, n_b_uncons, u_cons, n_b_cons = grid
    return [
        TrialReport(
            u_cons=float(u_cons[0, 0, i]),
            u_uncons=float(u_uncons[0, i]),
            u_opt=float(u_opt[i]),
            n_b_cons=int(n_b_cons[0, 0, i]),
            n_b_uncons=int(n_b_uncons[0, i]),
        )
        for i in range(trials)
    ]


def run_sweep(
    base: TrialConfig,
    alphas: Sequence[float],
    betas: Sequence[float],
    trials: int,
    seed: SeedSpec,
) -> SweepReport:
    """Grid of trial means over (beta, alpha) cells.

    Every cell reuses trial indices 0..trials-1, so draws are paired across
    cells and any cell can be reproduced on its own from
    (master_seed, trial_index).  Raises InfeasibleConstraintsError before
    drawing anything when some alpha asks for more target items than the
    target group holds.
    """
    u_opt, u_uncons, _, u_cons, _ = _run_grid(base, alphas, betas, trials, seed)
    mo, so = _mean_se(u_opt)
    mu, su = _mean_se(u_uncons)
    mc, sc = _mean_se(u_cons)
    rows = [
        SweepRow(
            alpha=float(alpha),
            beta=float(beta),
            m_a=base.m_a,
            m_b=base.m_b,
            n=base.n,
            trials=trials,
            mean_cons=float(mc[b, a]),
            se_cons=float(sc[b, a]),
            mean_uncons=float(mu[b]),
            se_uncons=float(su[b]),
            mean_opt=float(mo),
            se_opt=float(so),
        )
        for b, beta in enumerate(betas)
        for a, alpha in enumerate(alphas)
    ]
    return SweepReport(master_seed=seed.master_seed, rows=tuple(rows))


@dataclass(frozen=True, eq=False)
class OrderStatsReport:
    """Monte Carlo estimates of the utility-sorted ranking's composition.

    ``nkb_counts[j]`` counts trials whose top-k contained exactly j
    target-group items, so tail frequencies can be read off directly;
    ``pl_counts[p]`` counts trials whose l-th target item sat at position p.
    """

    mean_Nkb: float
    se_Nkb: float
    mean_Pl: float
    se_Pl: float
    trials: int
    nkb_counts: np.ndarray
    pl_counts: np.ndarray

    def tail_frequency(self, threshold: float) -> float:
        """Fraction of trials with top-k target count <= threshold."""
        idx = int(math.floor(threshold))
        if idx < 0:
            return 0.0
        idx = min(idx, self.nkb_counts.size - 1)
        return float(self.nkb_counts[: idx + 1].sum() / self.trials)


def estimate_order_stats(
    k: int,
    l: int,
    m_a: int,
    m_b: int,
    dist: Distribution,
    trials: int,
    seed: SeedSpec,
) -> OrderStatsReport:
    """Sample the top-k target count and the position of the l-th target
    item in the utility-sorted ranking of m_a + m_b i.i.d. utilities.

    Trials are drawn in blocks (see ``_draw_blocks``), trial i's m_a + m_b
    utilities in one row of a matrix.  The ranking is by descending
    utility, ties by ascending id, so group A (ids below m_a) wins ties,
    but no row is sorted.  With ``t`` a row's k-th largest value, the top
    k holds every item above ``t``, then the tied ones, A's first:
    ``N_k^b = max(#(B > t), k - #(A >= t))``.  With ``b_l`` its l-th
    largest target value, ``P_l = l + #(A >= b_l)``.  The report is the
    same for every block size.  NaN utilities raise ``ValueError``.
    """
    if not (0 < k < min(m_a, m_b)):
        raise ValueError(f"need 0 < k < min(m_a, m_b), got k={k}")
    if not (1 <= l <= m_b):
        raise ValueError(f"need 1 <= l <= m_b, got l={l}")
    if trials < 1:
        raise ValueError("trials must be positive")
    check_size("the trial results", trials)
    nkb = np.empty(trials, dtype=np.int64)
    pl = np.empty(trials, dtype=np.int64)
    for part, x in _draw_blocks(seed, trials, ((dist, m_a + m_b),)):
        if np.isnan(x).any():
            raise ValueError("utilities must not be NaN")
        a, b = x[:, :m_a], x[:, m_a:]
        t = _kth_largest(x, k)[:, None]
        b_l = _kth_largest(b, l)[:, None]
        nkb[part] = np.maximum(np.count_nonzero(b > t, axis=1), k - np.count_nonzero(a >= t, axis=1))
        pl[part] = l + np.count_nonzero(a >= b_l, axis=1)
    mean_n, se_n = map(float, _mean_se(nkb.astype(float)))
    mean_p, se_p = map(float, _mean_se(pl.astype(float)))
    return OrderStatsReport(
        mean_Nkb=mean_n,
        se_Nkb=se_n,
        mean_Pl=mean_p,
        se_Pl=se_p,
        trials=trials,
        nkb_counts=np.bincount(nkb, minlength=k + 1),
        pl_counts=np.bincount(pl, minlength=m_a + l + 1),
    )


def apply_score_shift(scores, gamma: float, offset: float) -> np.ndarray:
    """Affine correction ``(s + offset) * gamma - offset`` mapping reported
    scores to true scores; ``-offset`` is its fixed point."""
    if not (gamma >= 1.0):  # NaN fails too
        raise ValueError("gamma must be at least 1")
    s = np.asarray(scores, dtype=float)
    return (s + offset) * gamma - offset


def supernumerary_seats(n: int, n_f, alpha: float):
    """Added seats x solving ``n_f + x = alpha * (n + x)``, ceiled and clamped
    at zero: an int, or whole-number floats (past int64 near alpha 1) for an array."""
    if not (0.0 <= alpha < 1.0):
        raise ValueError("alpha must lie in [0, 1)")
    x = np.maximum(0.0, np.ceil((alpha * n - np.asarray(n_f)) / (1.0 - alpha) - CEIL_EPSILON))
    return x if x.ndim else int(x)


@dataclass(frozen=True)
class SupernumeraryConfig:
    """Seat-expansion comparison parameters.

    Scores are drawn per group; the target group's true utility is its
    score pushed through the affine shift with factor gamma.  m_a and m_b
    set the candidate pool sizes.  Schemes are scored as rankings under a
    position discount of the given kind ("constant", "dcg", or "zipf";
    seat counts vary per trial, so a fixed custom vector is not allowed).
    A constant discount reduces every scheme to its admitted set.
    """

    n: int
    m_a: int
    m_b: int
    alpha: float
    gamma: float
    dist_a: Distribution
    dist_b: Distribution
    score_offset: float = 105.0
    discount_kind: str = "constant"
    log_base: float | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.m_a < 0 or self.m_b < 0 or self.m_a + self.m_b < self.n:
            raise ValueError("candidate pool must cover the base capacity")
        if not (0.0 <= self.alpha < 1.0):
            raise ValueError("alpha must lie in [0, 1)")
        if not (self.gamma >= 1.0):  # NaN fails too
            raise ValueError("gamma must be at least 1")
        if not math.isfinite(self.score_offset):
            raise ValueError(f"score offset must be finite, got {self.score_offset}")
        if self.discount_kind not in ("constant", "dcg", "zipf"):
            raise ValueError("discount kind must be constant, dcg, or zipf")
        self.discount(1)  # a bad log base fails here, before any trial is drawn

    def discount(self, length: int) -> DiscountVector:
        return DiscountVector.from_json_dict({"kind": self.discount_kind, "log_base": self.log_base}, length)


SUPERNUMERARY_SCHEMES = ("cons", "uncons", "sup", "cons_expanded", "uncons_expanded")


@dataclass(frozen=True)
class SupernumerarySchemeStats:
    scheme: str
    mean_seats: float
    mean_utility_per_seat: float
    se: float


@dataclass(frozen=True)
class SupernumeraryReport:
    alpha: float
    master_seed: int
    trials: int
    schemes: tuple[SupernumerarySchemeStats, ...]

    def by_scheme(self, name: str) -> SupernumerarySchemeStats:
        for s in self.schemes:
            if s.scheme == name:
                return s
        raise KeyError(name)


def supernumerary_csv(reports: Sequence[SupernumeraryReport]) -> str:
    if not reports:
        raise ValueError("no reports to serialize")
    header = ("alpha", "scheme", "seats", "mean_utility_per_seat", "se")
    rows = ((r.alpha, s.scheme, s.mean_seats, s.mean_utility_per_seat, s.se) for r in reports for s in r.schemes)
    return _csv(reports[0].master_seed, header, rows)


def supernumerary_compare(
    config: SupernumeraryConfig,
    trials: int,
    seed: SeedSpec,
) -> SupernumeraryReport:
    """Mean latent utility per seat for five admission schemes.

    Per trial with observed scores s and true (shifted) target scores:
    n_f is the target-group count in the observed top-n; x extra seats
    solve the share equation; ``sup`` admits the n_f + x best target
    candidates on reserved seats first, then fills n - n_f open seats by
    observed score from everyone left.  ``cons``/``uncons`` fill n seats,
    their _expanded variants fill n + x, and the prefix-bound schemes
    optimize observed score under floor(alpha * k) bounds.

    Every scheme is evaluated as the observed-utility-maximizing ranking
    it allows: reservation leaves placement free, so its admitted set is
    ordered purely by observed score and the reserved candidates sink to
    the tail positions, while the prefix bounds spread them through the
    list.  Latent utility under the config's discount, divided by the
    scheme's seat count, is reported.

    Trials run in blocks (see ``_draw_blocks``), with one stable sort and
    one :func:`rank_single_column` call per block.  Each trial is checked for
    too many seats, then too many reserved seats, then a non-finite shifted
    utility; as in a per-trial loop, the first failing trial raises its error.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    m_a, m_b, n, alpha = config.m_a, config.m_b, config.n, config.alpha
    m = m_a + m_b
    check_size("the trial results", trials)
    # one row per scheme, in SUPERNUMERARY_SCHEMES order
    per_seat = np.empty((len(SUPERNUMERARY_SCHEMES), trials))
    seats = np.empty((len(SUPERNUMERARY_SCHEMES), trials))

    @functools.cache
    def discount_for(length: int) -> np.ndarray:
        return config.discount(length).values

    @functools.cache
    def bound_for(length: int) -> np.ndarray:
        return simple_constraints(alpha, 1, length, 2).matrix[:, 1]

    for part, observed in _draw_blocks(seed, trials, ((config.dist_a, m_a), (config.dist_b, m_b))):
        latent = observed.copy()
        with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check below reports it
            latent[:, m_a:] = apply_score_shift(observed[:, m_a:], config.gamma, config.score_offset)
        order = _order(observed)
        is_t = order >= m_a
        n_f = np.count_nonzero(is_t[:, :n], axis=1)
        x = supernumerary_seats(n, n_f, alpha)  # float, so a huge x is checked before any cast
        # each trial's checks in order; the first failing trial raises
        bad = np.stack([n + x > m, n_f + x > m_b, ~np.isfinite(latent).all(axis=1)])
        if bad.any():
            i = int(bad.any(axis=0).argmax())
            raise ValueError(
                (
                    f"{n + int(x[i])} seats but only {m} candidates",
                    f"{int(n_f[i]) + int(x[i])} reserved seats but only {m_b} target candidates",
                    "latent utilities must be finite",
                )[int(bad[:, i].argmax())]
            )
        n_sup, reserved = n + x.astype(np.int64), n_f + x.astype(np.int64)

        # Reserved seats go to the best reserved-count target candidates by
        # observed score; open seats then take the best n - n_f of everyone
        # else, so an item's open rank is its position less the reserved
        # targets at or above it.  Placement is unconstrained, so the
        # admitted set keeps its observed order.
        t_rank = np.cumsum(is_t, axis=1)
        open_rank = np.arange(1, m + 1) - np.minimum(t_rank, reserved[:, None])
        admitted = (is_t & (t_rank <= reserved[:, None])) | (open_rank <= (n - n_f)[:, None])

        # The floor(alpha * k) bounds of a shorter ranking are a prefix of a
        # longer one's, and so is the closed form's ranking under them: one
        # call at the block's most seats gives every row's cons and
        # cons_expanded as prefixes.
        cons = rank_single_column(order, np.arange(m) >= m_a, bound_for(int(n_sup.max())))[0]
        ids = np.stack([cons[:, :n], order[:, :n]], axis=1)
        per_seat[:2, part] = _utilities(latent, ids, discount_for(n)).T / n
        seats[:2, part] = n
        seats[2:, part] = n_sup
        for length in np.unique(n_sup).tolist():
            rows = np.flatnonzero(n_sup == length)
            o = order[rows]
            ids = np.stack([o[admitted[rows]].reshape(len(rows), length), cons[rows, :length], o[:, :length]], axis=1)
            per_seat[2:, part.start + rows] = _utilities(latent[rows], ids, discount_for(length)).T / length
    mean_u, se = _mean_se(per_seat)
    stats = tuple(
        SupernumerarySchemeStats(name, float(s), float(u), float(e))
        for name, s, u, e in zip(SUPERNUMERARY_SCHEMES, seats.mean(axis=1), mean_u, se)
    )
    return SupernumeraryReport(alpha=config.alpha, master_seed=seed.master_seed, trials=trials, schemes=stats)
