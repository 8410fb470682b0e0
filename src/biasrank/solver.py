"""Optimal rankings: unconstrained, greedy with deadline lookahead, and an
exhaustive oracle.

The unconstrained optimum for a nonincreasing discount is simply the top-n
items by weight, found by selection.  Under prefix lower bounds with
disjoint groups, a greedy pass fills positions in order, placing the
heaviest item whose placement keeps every remaining prefix bound
satisfiable; the lookahead is the earliest-deadline feasibility test from
scheduling.  With c_s items of group s placed, ``slack[k-1] = sum_s max(0,
L[k-1, s] - c_s) - k``, and position j is pinned by the first k >= j whose
unmet demand fills its k - j + 1 open positions: the slack tail's first
maximum.  Where the bound-row sums S step by at most 1 at j and ``S_k - k
<= S_j - j`` for all k >= j, no later prefix is tighter than j, and j needs
neither slack nor scan; that is every position under derived and
``floor(alpha * k)`` bounds.  The brute-force solver enumerates ordered
subsets and works for overlapping groups too, but only on small instances;
it is the greedy's oracle.

When only one group is bounded and its bound grows by at most one per
position (every ``floor(alpha * k)`` matrix), ``_single_column_slots``
evaluates the greedy in closed form for a batch of observed orders, as a
prefix-count maximum (Celis, Straszak & Vishnoi, ICALP 2018).
"""

from __future__ import annotations

import numpy as np

from .constraints import ConstraintMatrix, InfeasibleConstraintsError, NonDisjointGroupsError
from .model import Instance, Ranking, _order, _top

__all__ = [
    "rank_constrained_bruteforce",
    "rank_constrained_greedy",
    "rank_unconstrained",
    "BRUTEFORCE_MAX_ITEMS",
    "BRUTEFORCE_MAX_POSITIONS",
]

BRUTEFORCE_MAX_ITEMS = 10
BRUTEFORCE_MAX_POSITIONS = 6


def _check_weights(instance: Instance, weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (instance.m,):
        raise ValueError(f"weights must have shape ({instance.m},), got {w.shape}")
    return w


def rank_unconstrained(instance: Instance, weights) -> Ranking:
    """Top-n items by weight, descending; ties broken by ascending id.

    Optimal for any nonincreasing discount vector.
    """
    w = _check_weights(instance, weights)
    order = _order(w) if np.isnan(w).any() else _top(w[None], instance.n)[0]  # NaN would upset _top's cut
    return Ranking(tuple(order[: instance.n].tolist()))


def rank_constrained_greedy(instance: Instance, weights, L: ConstraintMatrix) -> Ranking:
    """Maximum-weight ranking satisfying prefix lower bounds, disjoint groups.

    Fills positions 1..n in order; at each position places the heaviest item
    (ties by ascending id) whose placement leaves every later prefix bound
    satisfiable, by the slack lookahead of the module docstring.  Raises
    NonDisjointGroupsError for overlapping groups before the fill, which alone
    decides feasibility: its InfeasibleConstraintsError names the prefix or group.
    """
    n, p = instance.n, instance.p
    if L.n != n or L.p != p:
        raise ValueError(f"constraints are {L.n}x{L.p}, instance needs {n}x{p}")
    rows, cols = np.divmod(np.flatnonzero(instance.membership_matrix), p)  # flat index item * p + group
    if np.any(np.diff(rows) == 0):  # an item in two groups
        raise NonDisjointGroupsError("groups overlap; use the brute-force solver")
    labels = np.full(instance.m, -1)  # each item's group id, or -1
    labels[rows] = cols
    w = _check_weights(instance, weights)
    return Ranking(tuple(_greedy(labels, w, L.matrix)))


def _greedy(labels: np.ndarray, w: np.ndarray, Lmat: np.ndarray) -> list[int]:
    """The greedy on plain arrays: item group ids (-1 for none), weights and
    the (n, p) bound matrix, its columns nondecreasing.  The one check of
    feasibility for disjoint groups: raises InfeasibleConstraintsError when
    the fill runs into it.

    Each pick is the heaviest item left of the owing group or of all, so
    group s has always taken ``by_group[s][:counts[s]]``.  Each position
    leaves its prefix met, so at a ``lazy`` position (see the module
    docstring), where at most one column steps, only its group can owe.
    Only the other positions update ``slack``, scan its tail and ask every
    group."""
    n, p = Lmat.shape
    order = _order(w)
    bounded = np.flatnonzero(Lmat[-1])  # a group bounded by 0 at n never forces a placement,
    relabel = np.full(p + 1, -1)  # so its items count as ungrouped, as -1's (the last entry) do
    relabel[bounded] = np.arange(len(bounded))
    # Items are handled by their rank in ``order``: the lowest free rank is
    # the heaviest item left, ties by ascending id.
    ordered_labels = relabel[labels[order]]
    by_group = [np.flatnonzero(ordered_labels == s).tolist() for s in range(len(bounded))]
    group_of = ordered_labels.tolist()
    # due[s][c]: index of the first prefix whose bound on bounded group s reaches c + 1, else n
    due = [np.searchsorted(col, np.arange(1, n + 2)).tolist() for col in Lmat[:, bounded].T]
    slack = Lmat.sum(axis=1) - np.arange(1, n + 1)  # S_k - k until the first placement
    lazy = (np.diff(slack, prepend=0) <= 0) & (slack >= np.maximum.accumulate(slack[::-1])[::-1])
    # per position, the bounded group whose column steps there if it is lazy (-1 for none), else -2
    steps = np.diff(Lmat[:, bounded], axis=0, prepend=0) > 0
    stepping = np.where(lazy, steps @ np.arange(1, len(bounded) + 1) - 1, -2).tolist()
    taken = bytearray(len(group_of))
    counts = [0] * len(bounded)
    free = 0
    ranks: list[int] = []
    queued: list[int] = []  # due prefixes of placements not yet taken off slack

    for j, stepped in enumerate(stepping, 1):
        k, owing = j, () if stepped < 0 else (stepped,)
        if stepped == -2:
            for d in queued:
                slack[d:] -= 1
            queued.clear()
            k = int(slack[j - 1 :].argmax()) + j  # the first maximum of the tail
            over = int(slack[k - 1]) + j - 1  # unmet demand at k minus its k - j + 1 open positions
            if over > 0:
                raise InfeasibleConstraintsError(f"unmet demand exceeds open positions by {over} at prefix {k}")
            owing = range(len(bounded)) if over == 0 else ()
        r = len(taken)
        for s in owing:
            if due[s][counts[s]] >= k:  # the bound at k asks for no more group-s items
                continue
            if counts[s] == len(by_group[s]):
                raise InfeasibleConstraintsError(f"group {bounded[s]} ran out of items at position {j}")
            r = min(r, by_group[s][counts[s]])
        if r == len(taken):  # no group is forced at j
            while taken[free]:
                free += 1
            r = free
        taken[r] = 1
        g = group_of[r]
        if g >= 0:
            queued.append(due[g][counts[g]])
            counts[g] += 1
        ranks.append(r)
    return order[ranks].tolist()


def _single_column_slots(order: np.ndarray, target, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The greedy's rankings under one bounded group, in closed form, as slots.

    ``order`` (rows, m) holds item orders by descending observed utility, ties by ascending id;
    ``target`` is the (m,) mask of the bounded group; each row of ``bounds`` (cols, n) is
    nondecreasing, starts at 0 or 1, steps by at most 1, and its entry k-1 is the least number of
    targets in the top k.  The greedy places the c-th best target (0-based) at ``min(d_c, u_c)``,
    the first k with ``bound[k-1] >= c+1`` or its 1-based observed position, as
    :func:`rank_constrained_greedy` does; both increase with c, so the top p holds ``T_p =
    max(bound[p-1], U_p)`` targets, U_p those in the observed top p, and position p holds target
    ``T_p - 1`` where T rises, else the ``(p - T_p)``-th best other item.  ``best`` holds each
    row's best ``min(m_t, n)`` targets, then its best n others; ``at``, int32 (rows, cols, n),
    indexes each ranked id in its row of ``best``, so ``best[row, at]`` ranks every (order, bound)
    pair; ``count``, int32 (rows, cols), holds their target counts.  Both are read-only; where no
    row's observed top n holds a target, U is 0 and both broadcast one table of the bounds alone.
    Raises InfeasibleConstraintsError when n exceeds m or a bound asks for more targets than exist."""
    target = np.asarray(target, dtype=bool)
    (rows, m), n = order.shape, bounds.shape[1]
    m_t = int(np.count_nonzero(target))
    if n > m or bounds[:, -1].max(initial=0) > m_t:
        raise InfeasibleConstraintsError("no ranking satisfies the constraint matrix")
    steps = np.diff(bounds, axis=1, prepend=0)
    if np.any((steps < 0) | (steps > 1)):
        raise ValueError("bounds must be nondecreasing with steps of at most 1")
    flat = order.ravel()
    is_t = target[flat]
    k = min(m_t, n)
    t_ids = flat[np.flatnonzero(is_t).reshape(rows, m_t)[:, :k]]
    o_ids = flat[np.flatnonzero(~is_t).reshape(rows, m - m_t)[:, :n]]
    U = np.cumsum(is_t.reshape(rows, m)[:, :n], axis=1, dtype=np.int32)
    U = U[: rows if U[:, -1].any() else 1]  # with no target in any row's top n, one table: the bounds alone
    T = np.maximum(U[:, None, :], bounds.astype(np.int32))  # targets in each top j + 1
    rise = np.diff(T, axis=2, prepend=np.int32(0)) > 0
    at = np.broadcast_to(np.where(rise, T - 1, k + np.arange(n, dtype=np.int32) - T), (rows, len(bounds), n))
    return np.concatenate([t_ids, o_ids], axis=1), at, np.broadcast_to(T[..., -1], (rows, len(bounds)))


def rank_constrained_bruteforce(instance: Instance, weights, L: ConstraintMatrix) -> Ranking:
    """Exact constrained optimum by enumerating ordered n-subsets.

    Handles overlapping groups.  Guarded to m <= 10 and n <= 6; the search
    prunes any prefix that already violates a bound.  Utility ties resolve
    to the lexicographically smallest id sequence.  Raises when no ranking
    satisfies the bounds.
    """
    m, n, p = instance.m, instance.n, instance.p
    if m > BRUTEFORCE_MAX_ITEMS or n > BRUTEFORCE_MAX_POSITIONS:
        raise ValueError(
            f"the brute-force solver, which overlapping groups need, is limited to m <= {BRUTEFORCE_MAX_ITEMS}"
            f" and n <= {BRUTEFORCE_MAX_POSITIONS}, got m={m}, n={n}"
        )
    if L.n != n or L.p != p:
        raise ValueError(f"constraints are {L.n}x{L.p}, instance needs {n}x{p}")
    w = _check_weights(instance, weights).tolist()
    v = instance.v.values.tolist()
    Lrows = L.matrix.tolist()
    mem = instance.membership_matrix
    item_groups = [tuple(int(s) for s in np.nonzero(mem[i])[0]) for i in range(m)]

    best_util = -np.inf
    best_seq: tuple[int, ...] | None = None
    counts = [0] * p
    used = bytearray(m)
    seq: list[int] = []

    def extend(depth: int, util: float) -> None:
        nonlocal best_util, best_seq
        if depth == n:
            if util > best_util:
                best_util = util
                best_seq = tuple(seq)
            return
        row = Lrows[depth]
        for i in range(m):
            if used[i]:
                continue
            gs = item_groups[i]
            for s in gs:
                counts[s] += 1
            if all(counts[s] >= row[s] for s in range(p)):
                used[i] = 1
                seq.append(i)
                extend(depth + 1, util + w[i] * v[depth])
                seq.pop()
                used[i] = 0
            for s in gs:
                counts[s] -= 1

    extend(0, 0.0)
    if best_seq is None:
        raise InfeasibleConstraintsError("no ranking satisfies the constraint matrix")
    return Ranking(best_seq)
