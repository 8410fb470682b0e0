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
it hands ``SeedSpec`` blocks of ``max(1, BLOCK_ELEMENTS // m)`` rows of
one (rows, m) matrix, and each trial's groups draw, from the stream
``SeedSpec.rng_for_trial(i)`` defines, straight into their columns of the
trial's row.  Each engine then checks, sorts each group's columns (in
place, for the order statistics), scores the whole block at once, and
reproduces the per-trial loop bit for bit, whatever the block size.

The seat-expansion comparison pits the prefix-bound intervention against
reserving added seats for the target group when the target group's scores
understate its true utility by an affine shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Iterator, Sequence

import numpy as np

from .constraints import FLOOR_EPSILON, InfeasibleConstraintsError, _floor_bounds, simple_constraints
from .model import BiasModel, DiscountVector, Instance, _order, _top, check_size, observed_utilities, ranking_utility
from .solver import _single_column_slots, rank_constrained_greedy, rank_unconstrained
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
    buffer, valid until the next block, whose rows are all drawn anew, so a
    caller may sort ``w`` in place.  Raises ValueError, before allocating
    it, when m exceeds ``MAX_ELEMENTS``.
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
    for part in seed._draw_trials(trials, rows):
        yield part, buf[: part.stop - part.start]


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
    base: TrialConfig, alphas: Sequence[float], betas: Sequence[float], trials: int, seed: SeedSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every trial of every (beta, alpha) cell, equal to ``run_trial`` of the
    cell's config for each trial index, computed block by block.

    Only each group's best ``min(size, n)`` items can reach a ranking of n
    positions, so each block keeps those candidates' latent values, best
    first, group 0's first, and the shaded group's next one where it has
    one, to see a tie at the cut; n candidates precede it, so it ranks
    nowhere.  Values suffice, as outputs sum values or count the positional
    target mask.  Scaling by beta keeps the shaded group's order, so every
    beta reuses them, keyed ``latent * beta``, unless two adjacent scaled
    values tie in some row (by rounding, at the cut, or at beta = 0): then
    the id tie rule picks them, by ``_top`` on the scaled values.
    One stable sort of all slots' keys (latent for opt, then each beta's)
    orders each slot's candidates as the full sort orders its first n, and
    one ``_single_column_slots`` call places them on candidate-local indices:
    a target's candidate position equals its full-order position whenever
    either is at most n, and otherwise both exceed n, which is all the closed
    form needs.  Its slots score the constrained rankings, the latent values
    in each row's ``best`` order indexed by ``at``, with no id matrix built.
    A block where no beta selects anew and no observed top n holds a target
    ranks every beta alike, by the bounds alone: only its first beta's rows
    are slotted (one broadcast table) and scored, then broadcast to all.

    Returns ``u_opt`` (trials,), ``u_uncons`` and ``n_b_uncons`` (betas,
    trials), and ``u_cons`` and ``n_b_cons`` (betas, alphas, trials).
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    # A cell checks its alpha and beta alone: the first beta's cells, then the first alpha's, fail as all would.
    for beta, alpha in [(b, a) for b in betas[:1] for a in alphas] + [(b, a) for b in betas[1:] for a in alphas[:1]]:
        replace(base, alpha=float(alpha), beta=float(beta))
    m_a, m_b, n, t = base.m_a, base.m_b, base.n, base.target_group
    bounds = _floor_bounds(np.asarray(alphas, dtype=float), n)
    if bounds[:, -1].max(initial=0) > (m_b if t == 1 else m_a):
        raise InfeasibleConstraintsError("no ranking satisfies the constraint matrix")
    check_size("the trial results", trials * max(len(betas), 1) * max(len(alphas), 1))
    c = [min(size, n + (s == t)) for s, size in enumerate((m_a, m_b))]
    target = np.repeat([t == 0, t == 1], c)
    # Slot 0 keys the candidates by latent value (opt), slot b by the observed one at beta b - 1.
    scale = np.array([1.0, *betas], dtype=float)
    factor = np.where(target, scale[:, None], 1.0)[:, None, :]
    v = base.discount.values
    u_opt = np.empty(trials)
    u_uncons = np.empty((len(betas), trials))
    n_b_uncons = np.empty((len(betas), trials), dtype=np.int64)
    u_cons = np.empty((len(betas), len(alphas), trials))
    n_b_cons = np.empty((len(betas), len(alphas), trials), dtype=np.int64)
    for part, w in _draw_blocks(seed, trials, ((base.dist_a, m_a), (base.dist_b, m_b))):
        if not np.all(np.isfinite(w)):
            raise ValueError("latent utilities must be finite")
        cols = np.hsplit(w, [m_a])  # each group's latent values
        tops = [np.sort(x, axis=1)[:, : -size - 1 : -1] for x, size in zip(cols, c)]  # each group's best, best first
        lat = np.repeat(np.concatenate(tops, axis=1)[None], len(scale), axis=0)  # each slot's candidates' latent values
        scaled = tops[t] * scale[1:, None, None]
        reselect = np.flatnonzero((scaled[:, :, 1:] == scaled[:, :, :-1]).any(axis=(1, 2))) + 1
        for b in reselect:
            lat[b][:, target] = np.take_along_axis(cols[t], _top(cols[t] * scale[b], c[t]), 1)
        local = _order((lat * factor).reshape(-1, lat.shape[2]))
        lat = lat.reshape(local.shape)
        u = _utilities(lat, local[:, :n], v).reshape(len(scale), len(w))
        u_opt[part], u_uncons[:, part] = u[0], u[1:]
        n_b_uncons[:, part] = target[local[len(w) :, :n]].sum(axis=1).reshape(len(betas), len(w))
        end = 2 * len(w) if not (n_b_uncons[:, part].any() or len(reselect)) else len(local)  # betas alike: slot one
        best, at, count = _single_column_slots(local[len(w) : end], target, bounds)
        cons = _utilities(np.take_along_axis(lat[len(w) : end], best, 1), at, v)
        cells = (len(best) // len(w), len(w), len(alphas))  # one beta's rows, or every beta's
        n_b_cons[:, :, part], u_cons[:, :, part] = (x.reshape(cells).transpose(0, 2, 1) for x in (count, cons))
    return u_opt, u_uncons, n_b_uncons, u_cons, n_b_cons


def run_trials(config: TrialConfig, trials: int, seed: SeedSpec) -> list[TrialReport]:
    """Reports of trials 0..trials-1 of one config; report i equals
    ``run_trial(config, i, seed)``."""
    # A report costs about 2 KB of Python objects and output JSON.
    check_size("the trial reports", trials * 256)
    u_opt, u_uncons, n_b_uncons, u_cons, n_b_cons = _run_grid(config, [config.alpha], [config.beta], trials, seed)
    columns = (u_cons[0, 0], u_uncons[0], u_opt, n_b_cons[0, 0], n_b_uncons[0])  # in TrialReport's field order
    return [TrialReport(*row) for row in zip(*(c.tolist() for c in columns))]


def run_sweep(
    base: TrialConfig, alphas: Sequence[float], betas: Sequence[float], trials: int, seed: SeedSpec
) -> SweepReport:
    """Grid of trial means over (beta, alpha) cells.

    Every cell reuses trial indices 0..trials-1, so draws are paired across
    cells and any cell can be reproduced on its own from
    (master_seed, trial_index).  Raises InfeasibleConstraintsError before
    drawing anything when some alpha asks for more target items than the
    target group holds.
    """
    u_opt, u_uncons, _, u_cons, _ = _run_grid(base, alphas, betas, trials, seed)
    (mo, so), (mu, su), (mc, sc) = ([x.tolist() for x in _mean_se(u)] for u in (u_opt, u_uncons, u_cons))
    rows = [  # SweepRow's fields are the CSV's columns, in order
        SweepRow(alpha, beta, base.m_a, base.m_b, base.n, trials, mc[b][a], sc[b][a], mu[b], su[b], mo, so)
        for b, beta in enumerate(map(float, betas))
        for a, alpha in enumerate(map(float, alphas))
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
        return float(self.nkb_counts[: max(0, math.floor(threshold) + 1)].sum() / self.trials)


def estimate_order_stats(
    k: int, l: int, m_a: int, m_b: int, dist: Distribution, trials: int, seed: SeedSpec
) -> OrderStatsReport:
    """Sample the top-k target count and the position of the l-th target
    item in the utility-sorted ranking of m_a + m_b i.i.d. utilities.

    Trials are drawn in blocks (see ``_draw_blocks``), trial i's m_a + m_b
    utilities in one row of a matrix.  The ranking is by descending
    utility, ties by ascending id, so group A (ids below m_a) wins ties.
    Each group's columns are sorted in place.  With ``a_(i)``, ``b_(j)``
    the i-th, j-th largest of each, ``b_(j)`` is in the top k exactly when
    ``b_(j) > a_(k-j+1)``, true for a prefix of j, so N_k^b counts those
    j <= k, and ``P_l = l + #(A >= b_(l))``.  The report is the same for
    every block size.  NaN utilities raise ``ValueError``.
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
        a, b = x[:, :m_a], x[:, m_a:]
        a.sort(axis=1)
        b.sort(axis=1)
        if np.isnan(a[:, -1]).any() or np.isnan(b[:, -1]).any():
            raise ValueError("utilities must not be NaN")
        nkb[part] = np.count_nonzero(b[:, : -k - 1 : -1] > a[:, -k:], axis=1)
        pl[part] = l + np.count_nonzero(a >= b[:, -l, None], axis=1)
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
    x = np.maximum(0.0, np.ceil((alpha * n - np.asarray(n_f)) / (1.0 - alpha) - FLOOR_EPSILON))
    return x if x.ndim else int(x)


@dataclass(frozen=True)
class SupernumeraryConfig:
    """Seat-expansion comparison parameters.

    Scores are drawn per group; the target group's true utility is its
    score pushed through the affine shift with factor gamma.  m_a and m_b
    set the candidate pool sizes.  Schemes are scored as rankings under
    ``discount``, which weighs a ranking of the whole pool (m_a + m_b
    positions); a scheme of k seats takes its first k entries.  A constant
    discount reduces every scheme to its admitted set.
    """

    n: int
    m_a: int
    m_b: int
    alpha: float
    gamma: float
    dist_a: Distribution
    dist_b: Distribution
    discount: DiscountVector
    score_offset: float = 105.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.m_a < 0 or self.m_b < 0 or self.m_a + self.m_b < self.n:
            raise ValueError("candidate pool must cover the base capacity")
        supernumerary_seats(self.n, 0, self.alpha)  # checks alpha
        apply_score_shift(1.0, self.gamma, 0.0)  # checks gamma; 1.0, as 0 * inf would warn
        if not math.isfinite(self.score_offset):
            raise ValueError(f"score offset must be finite, got {self.score_offset}")
        if len(self.discount) != self.m_a + self.m_b:
            raise ValueError(f"discount has length {len(self.discount)}, expected m_a + m_b={self.m_a + self.m_b}")


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
        return {s.scheme: s for s in self.schemes}[name]


def supernumerary_csv(reports: Sequence[SupernumeraryReport]) -> str:
    if not reports:
        raise ValueError("no reports to serialize")
    header = ("alpha", "scheme", "seats", "mean_utility_per_seat", "se")
    rows = ((r.alpha, s.scheme, s.mean_seats, s.mean_utility_per_seat, s.se) for r in reports for s in r.schemes)
    return _csv(reports[0].master_seed, header, rows)


def supernumerary_compare(config: SupernumeraryConfig, trials: int, seed: SeedSpec) -> SupernumeraryReport:
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
    list.  A scheme of k seats is scored by latent utility under the first
    k entries of the config's discount, divided by k.  A constant, dcg or
    zipf vector of k entries equals that prefix of the longer one bit for
    bit, as the floor(alpha * k) bounds of k positions are a prefix.

    Trials run in blocks (see ``_draw_blocks``), ranked on candidates as
    ``_run_grid`` ranks them.  x falls as n_f rises, so with ``x_max =
    supernumerary_seats(n, 0, alpha)`` every scheme ranks a best-first
    prefix of each group, of n + x_max items at most: a reserved target
    deep in the observed order is still among its group's best n_f + x.
    Each group's best ``min(size, n + x_max)`` scores (NaN last, as
    ``_order`` ranks it), their shifted values and one
    ``_single_column_slots`` call serve the block.  Each trial is checked
    for too many seats, then too many reserved seats, then a non-finite
    shifted utility in its whole row; as in a per-trial loop, the first
    failing trial raises its error.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    m_a, m_b, n, alpha = config.m_a, config.m_b, config.n, config.alpha
    check_size("the trial results", trials)
    # one row per scheme, in SUPERNUMERARY_SCHEMES order
    per_seat = np.empty((len(SUPERNUMERARY_SCHEMES), trials))
    seats = np.empty((len(SUPERNUMERARY_SCHEMES), trials))
    v = config.discount.values
    x_max = supernumerary_seats(n, 0, alpha)
    c = (min(m_a, n + x_max), min(m_b, n + x_max))
    for part, observed in _draw_blocks(seed, trials, ((config.dist_a, m_a), (config.dist_b, m_b))):
        scores = np.hstack([-np.sort(-x, axis=1)[:, :size] for x, size in zip(np.hsplit(observed, [m_a]), c)])
        latent, lat = observed.copy(), scores.copy()  # every item's latent value, and each candidate's
        with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check below reports it
            latent[:, m_a:] = apply_score_shift(observed[:, m_a:], config.gamma, config.score_offset)
            lat[:, c[0] :] = apply_score_shift(scores[:, c[0] :], config.gamma, config.score_offset)
        local = _order(scores)
        is_t = local >= c[0]
        n_f = np.count_nonzero(is_t[:, :n], axis=1)
        x = supernumerary_seats(n, n_f, alpha)  # float, so a huge x is checked before any cast
        # each trial's checks in order; the first failing trial raises
        bad = np.stack([n + x > m_a + m_b, n_f + x > m_b, ~np.isfinite(latent).all(axis=1)])
        if bad.any():
            i = int(bad.any(axis=0).argmax())
            messages = (
                f"{n + int(x[i])} seats but only {m_a + m_b} candidates",
                f"{int(n_f[i]) + int(x[i])} reserved seats but only {m_b} target candidates",
                "latent utilities must be finite",
            )
            raise ValueError(messages[int(bad[:, i].argmax())])
        n_sup, reserved = n + x.astype(np.int64), n_f + x.astype(np.int64)

        # sup admits the observed top n and then the next x targets; placement is free, so they keep observed order
        admitted = (np.arange(sum(c)) < n) | is_t & (np.cumsum(is_t, axis=1) <= reserved[:, None])

        # The floor(alpha * k) bounds of a shorter ranking, and the closed
        # form's ranking under them, are prefixes of a longer one's: one call
        # at the block's most seats slots every row's cons and cons_expanded.
        best, at, _ = _single_column_slots(local, np.arange(sum(c)) >= c[0], _floor_bounds([alpha], int(n_sup.max())))
        slotted, cons = np.take_along_axis(lat, best, 1), at[:, 0]  # latent values in best order, and the slots
        per_seat[:2, part] = _utilities(slotted, cons[:, :n], v[:n]) / n, _utilities(lat, local[:, :n], v[:n]) / n
        seats[:2, part] = n
        seats[2:, part] = n_sup
        for length in np.unique(n_sup).tolist():
            rows = np.flatnonzero(n_sup == length)
            o = local[rows]
            ids = np.stack([o[admitted[rows]].reshape(len(rows), length), o[:, :length]], axis=1)
            per_seat[2::2, part.start + rows] = _utilities(lat[rows], ids, v[:length]).T / length
            per_seat[3, part.start + rows] = _utilities(slotted[rows], cons[rows, :length], v[:length]) / length
    mean_u, se = _mean_se(per_seat)
    stats = tuple(
        SupernumerarySchemeStats(name, float(s), float(u), float(e))
        for name, s, u, e in zip(SUPERNUMERARY_SCHEMES, seats.mean(axis=1), mean_u, se)
    )
    return SupernumeraryReport(alpha=config.alpha, master_seed=seed.master_seed, trials=trials, schemes=stats)
