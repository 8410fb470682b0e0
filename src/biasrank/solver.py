"""Optimal rankings: unconstrained, greedy with deadline lookahead, and an
exhaustive oracle.

The unconstrained optimum for a nonincreasing discount is simply the top-n
items by weight.  Under prefix lower bounds with disjoint groups, a greedy
pass fills positions in order, placing the heaviest item whose placement
keeps every remaining prefix bound satisfiable; the lookahead is the
earliest-deadline feasibility test from scheduling.  With c_s items of
group s placed, it keeps ``slack[k-1] = sum_s max(0, L[k-1, s] - c_s) - k``
for every prefix k.  Position j is pinned by the first k >= j where the
unmet demand fills all k - j + 1 open positions, ``slack[k-1] == 1 - j``.
Feasible bounds keep all later slack at most 1 - j, so that k is the tail's
first maximum (one above 1 - j means infeasible bounds), or j itself when
``slack[j-1]`` is tight, as at every forced position under derived bounds.
The (c+1)-th group-s item lowers slack from its due prefix on, the first
with ``L[k-1, s] >= c + 1``, read from per-group tables built per solve.
The brute-force solver enumerates ordered subsets and works for overlapping
groups too, but only on small instances; it is the greedy's oracle.

When only one group is bounded and its bound grows by at most one per
position (every ``floor(alpha * k)`` matrix), the greedy has a closed form
that :func:`rank_single_column` evaluates for a whole batch of observed
orders at once.
"""

from __future__ import annotations

import numpy as np

from .constraints import ConstraintMatrix, InfeasibleConstraintsError, check_feasibility
from .model import Instance, Ranking, _order

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
    order = _order(w)[: instance.n]
    return Ranking(tuple(int(i) for i in order))


def rank_constrained_greedy(instance: Instance, weights, L: ConstraintMatrix) -> Ranking:
    """Maximum-weight ranking satisfying prefix lower bounds, disjoint groups.

    Fills positions 1..n in order; at each position places the heaviest item
    (ties by ascending id) whose placement leaves every later prefix bound
    satisfiable, by the slack lookahead of the module docstring.  Raises
    NonDisjointGroupsError for overlapping groups and
    InfeasibleConstraintsError for infeasible bounds.
    """
    n, p = instance.n, instance.p
    if L.n != n or L.p != p:
        raise ValueError(f"constraints are {L.n}x{L.p}, instance needs {n}x{p}")
    mem = instance.membership_matrix
    if not check_feasibility(L, mem):
        raise InfeasibleConstraintsError("no ranking satisfies the constraint matrix")
    w = _check_weights(instance, weights)
    labels = mem @ np.arange(1, p + 1) - 1  # rows hold at most one group: its id, or -1
    return Ranking(tuple(_greedy(labels, w, L.matrix)))


def _greedy(labels: np.ndarray, w: np.ndarray, Lmat: np.ndarray) -> list[int]:
    """The greedy on plain arrays: item group ids (-1 for none), weights and
    the (n, p) bound matrix.  Does not check feasibility first; raises
    InfeasibleConstraintsError when the fill runs into it."""
    n, p = Lmat.shape
    order = _order(w)
    # Items are handled by their rank in ``order``: the lowest free rank is
    # the heaviest item left, ties by ascending id.
    ordered_labels = labels[order]
    by_group = [np.flatnonzero(ordered_labels == s).tolist() for s in range(p)]
    group_of = ordered_labels.tolist()
    # due[s][c]: index of the first prefix whose bound on group s reaches c + 1, else n
    due = [np.searchsorted(col, np.arange(1, n + 2)).tolist() for col in Lmat.T]
    slack = Lmat.sum(axis=1) - np.arange(1, n + 1)
    taken = bytearray(len(group_of))
    counts, heads = [0] * p, [0] * p
    free = 0
    ranks: list[int] = []

    for j in range(1, n + 1):
        k, over = j, 0  # j is tight when its unmet demand fills its one open position
        if slack[j - 1] != 1 - j:
            k = int(slack[j - 1 :].argmax()) + j  # else the first maximum of the tail
            over = int(slack[k - 1]) + j - 1  # unmet demand at k minus its k - j + 1 open positions
            if over > 0:
                raise InfeasibleConstraintsError(f"unmet demand exceeds open positions by {over} at prefix {k}")
        if over == 0:
            r = len(taken)
            for s, d in enumerate(due):
                if d[counts[s]] >= k:  # the bound at k asks for no more group-s items
                    continue
                q, h = by_group[s], heads[s]
                while h < len(q) and taken[q[h]]:
                    h += 1
                if h == len(q):
                    raise InfeasibleConstraintsError(f"group {s} ran out of items at position {j}")
                heads[s] = h
                r = min(r, q[h])
        else:
            while taken[free]:
                free += 1
            r = free
        taken[r] = 1
        g = group_of[r]
        if g >= 0:
            slack[due[g][counts[g]] :] -= 1
            counts[g] += 1
        ranks.append(r)
    return order[ranks].tolist()


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
