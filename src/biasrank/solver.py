"""Optimal rankings: unconstrained, greedy with deadline lookahead, and an
exhaustive oracle.

The unconstrained optimum for a nonincreasing discount is simply the top-n
items by weight.  Under prefix lower bounds with disjoint groups, a greedy
pass fills positions in order, placing the heaviest item whose placement
keeps every remaining prefix bound satisfiable; the lookahead is the
earliest-deadline feasibility test from scheduling.  The brute-force solver
enumerates ordered subsets and works for overlapping groups too, but only
on small instances; it doubles as the correctness oracle for the greedy.

When only one group is bounded and its bound grows by at most one per
position (every ``floor(alpha * k)`` matrix), the greedy has a closed form
that :func:`rank_single_column` evaluates for a whole batch of observed
orders at once.
"""

from __future__ import annotations

import numpy as np

from .constraints import ConstraintMatrix, InfeasibleConstraintsError, check_feasibility
from .model import Instance, Ranking

__all__ = [
    "rank_constrained_bruteforce",
    "rank_constrained_greedy",
    "rank_single_column",
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
    order = np.argsort(-w, kind="stable")[: instance.n]
    return Ranking(tuple(int(i) for i in order))


def _single_unit_column(L: np.ndarray) -> int | None:
    """Index of the only constrained column if its increments are all <= 1.

    For such matrices the lookahead collapses to "place a target-group item
    whenever the current row demands one more than is already placed".
    Returns -1 when no column is constrained at all, None when the general
    lookahead is required.
    """
    nonzero = np.nonzero(L[-1])[0] if L.size else np.empty(0, dtype=np.int64)
    if nonzero.size == 0:
        return -1
    if nonzero.size > 1:
        return None
    s = int(nonzero[0])
    col = L[:, s]
    steps = np.diff(col, prepend=0)
    return s if np.all(steps <= 1) else None


def _forced_groups(Lrows: list[list[int]], counts: list[int], j: int, n: int, p: int) -> tuple[int, ...] | None:
    """Groups the j-th position must draw from, or None if any item works.

    Scans prefixes k >= j: if the total unmet demand at k equals the k-j+1
    positions still available, the earliest such k pins position j to a
    group with unmet demand there.  Unmet demand exceeding the available
    positions means the matrix became infeasible (cannot happen after
    check_feasibility plus a correct fill).
    """
    for k in range(j, n + 1):
        row = Lrows[k - 1]
        deficit = 0
        for s in range(p):
            d = row[s] - counts[s]
            if d > 0:
                deficit += d
        slots = k - j + 1
        if deficit > slots:
            raise InfeasibleConstraintsError(f"unmet demand {deficit} exceeds {slots} open positions at prefix {k}")
        if deficit == slots:
            return tuple(s for s in range(p) if row[s] > counts[s])
    return None


def rank_constrained_greedy(instance: Instance, weights, L: ConstraintMatrix) -> Ranking:
    """Maximum-weight ranking satisfying prefix lower bounds, disjoint groups.

    Fills positions 1..n in order; at each position places the heaviest item
    (ties by ascending id) whose placement leaves every later prefix bound
    satisfiable.  Raises NonDisjointGroupsError for overlapping groups and
    InfeasibleConstraintsError for infeasible bounds.
    """
    n, p = instance.n, instance.p
    if L.n != n or L.p != p:
        raise ValueError(f"constraints are {L.n}x{L.p}, instance needs {n}x{p}")
    mem = instance.membership_matrix
    if not check_feasibility(L, mem):
        raise InfeasibleConstraintsError("no ranking satisfies the constraint matrix")
    w = _check_weights(instance, weights)
    Lmat = L.matrix

    labels = mem @ np.arange(1, p + 1) - 1  # rows hold at most one group: its id, or -1
    order = np.argsort(-w, kind="stable")
    order_list = order.tolist()
    ordered_labels = labels[order]
    per_group: list[list[int]] = [order[ordered_labels == s].tolist() for s in range(p)]

    wlist = w.tolist()
    labels_list = labels.tolist()
    Lrows = Lmat.tolist()
    fast = _single_unit_column(Lmat)
    placed = bytearray(instance.m)
    counts = [0] * p
    gptr = [0] * p
    optr = 0
    out: list[int] = []

    for j in range(1, n + 1):
        if fast == -1:
            forced = None
        elif fast is not None:
            forced = (fast,) if Lrows[j - 1][fast] > counts[fast] else None
        else:
            forced = _forced_groups(Lrows, counts, j, n, p)
        if forced:
            pick = -1
            pick_w = 0.0
            for s in forced:
                q = per_group[s]
                ptr = gptr[s]
                while ptr < len(q) and placed[q[ptr]]:
                    ptr += 1
                gptr[s] = ptr
                if ptr >= len(q):
                    raise InfeasibleConstraintsError(f"group {s} ran out of items at position {j}")
                cand = q[ptr]
                if pick < 0 or wlist[cand] > pick_w or (wlist[cand] == pick_w and cand < pick):
                    pick, pick_w = cand, wlist[cand]
        else:
            while placed[order_list[optr]]:
                optr += 1
            pick = order_list[optr]
        placed[pick] = 1
        g = labels_list[pick]
        if g >= 0:
            counts[g] += 1
        out.append(pick)
    return Ranking(tuple(out))


def rank_single_column(order, target, bounds) -> tuple[np.ndarray, np.ndarray]:
    """The greedy's rankings under one bounded group, in closed form.

    ``order`` holds item orders by descending observed utility, ties by
    ascending id (a stable argsort), one per row of shape (..., m);
    ``target`` is the (m,) boolean mask of the bounded group.  ``bounds``
    holds one or more bound columns, shape (..., n): each is nondecreasing,
    starts at 0 or 1 and grows by at most 1 per position, and its entry
    k-1 is the least number of target items in the top k.

    Targets and the other items each keep their observed order, so the
    greedy places the c-th best target (0-based) at position
    ``min(d_c, u_c)``: ``d_c`` is the first k with ``bound[k-1] >= c+1``
    and ``u_c`` is the target's 1-based position in its order; the other
    items fill the remaining positions in order.  This is what
    :func:`rank_constrained_greedy` returns for the same column.

    Returns ``(ids, count)`` for every (order, bound) pair: the ranked item
    ids, shape ``order.shape[:-1] + bounds.shape[:-1] + (n,)``, and the
    number of target items among them.  Raises InfeasibleConstraintsError
    when n exceeds m or a bound asks for more target items than exist.
    """
    order = np.asarray(order)
    target = np.asarray(target, dtype=bool)
    bounds = np.asarray(bounds, dtype=np.int64)
    m, n = order.shape[-1], bounds.shape[-1]
    shape = order.shape[:-1] + bounds.shape[:-1]
    order = order.reshape(-1, m)
    bounds = bounds.reshape(-1, n)
    rows, cols = order.shape[0], bounds.shape[0]
    m_t = int(np.count_nonzero(target))
    if n > m or bounds[:, -1].max(initial=0) > m_t:
        raise InfeasibleConstraintsError("no ranking satisfies the constraint matrix")
    steps = np.diff(bounds, axis=1, prepend=0)
    if np.any((steps < 0) | (steps > 1)):
        raise ValueError("bounds must be nondecreasing with steps of at most 1")
    k = min(m_t, n)
    # Deadline of target c under each bound: the position where the bound
    # first reaches c + 1, or n + 1 when it never does.
    deadline = np.full((cols, k), n + 1, dtype=np.int64)
    col, j = np.nonzero(steps)
    deadline[col, bounds[col, j] - 1] = j + 1
    # Flat indices into ``order`` of the best k targets and the best n other
    # items of each row, each in observed order.
    flat = order.ravel()
    is_t = target[flat]
    t_at = np.flatnonzero(is_t).reshape(rows, m_t)[:, :k]
    o_at = np.flatnonzero(~is_t).reshape(rows, m - m_t)[:, :n]
    t_rank = t_at - (np.arange(rows) * m)[:, None] + 1
    pos = np.minimum(t_rank[:, None, :], deadline)
    placed = pos <= n
    count = placed.sum(axis=2).ravel()
    # Mark each row's target slots; column n collects the targets left out.
    np.minimum(pos, n + 1, out=pos)
    pos += (np.arange(rows * cols) * (n + 1) - 1).reshape(rows, cols, 1)
    slot = np.zeros((rows * cols, n + 1), dtype=bool)
    slot.ravel()[pos] = True
    slot = slot[:, :n]
    ids = np.empty((rows * cols, n), dtype=order.dtype)
    ids[slot] = np.broadcast_to(flat[t_at][:, None, :], pos.shape)[placed]
    others = flat[o_at]
    take = np.arange(others.shape[1]) < (n - count).reshape(rows, cols, 1)
    ids[~slot] = np.broadcast_to(others[:, None, :], take.shape)[take]
    return ids.reshape(shape + (n,)), count.reshape(shape)


def rank_constrained_bruteforce(instance: Instance, weights, L: ConstraintMatrix) -> Ranking:
    """Exact constrained optimum by enumerating ordered n-subsets.

    Handles overlapping groups.  Guarded to m <= 10 and n <= 6; the search
    prunes any prefix that already violates a bound.  Utility ties resolve
    to the lexicographically smallest id sequence.  Raises when no ordering
    satisfies the bounds.
    """
    m, n, p = instance.m, instance.n, instance.p
    if m > BRUTEFORCE_MAX_ITEMS or n > BRUTEFORCE_MAX_POSITIONS:
        raise ValueError(
            f"brute force limited to m <= {BRUTEFORCE_MAX_ITEMS}, n <= {BRUTEFORCE_MAX_POSITIONS}"
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
        raise InfeasibleConstraintsError("no ordering satisfies the constraint matrix")
    return Ranking(best_seq)
