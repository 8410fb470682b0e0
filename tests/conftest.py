"""Shared builders for randomized solver and constraint tests."""

from __future__ import annotations

import itertools

import numpy as np

from biasrank import (
    ConstraintMatrix,
    DiscountVector,
    InfeasibleConstraintsError,
    Instance,
    rank_constrained_greedy,
    satisfies,
)


def membership(m, groups) -> np.ndarray:
    """(m, p) boolean matrix whose column s marks the item ids in groups[s]."""
    mem = np.zeros((m, len(groups)), dtype=bool)
    for s, g in enumerate(groups):
        mem[list(g), s] = True
    return mem


def two_group_instance(w_a, w_b, n, v=None) -> Instance:
    """Group 0 holds the w_a items, group 1 the w_b items."""
    w = np.concatenate([np.asarray(w_a, float), np.asarray(w_b, float)])
    if v is None:
        v = DiscountVector.constant(n)
    return Instance.from_arrays(w, membership(w.size, [range(len(w_a)), range(len(w_a), w.size)]), n, v)


def random_disjoint_instance(rng, max_m=7, max_n=5, max_p=3) -> Instance:
    m = int(rng.integers(2, max_m + 1))
    n = int(rng.integers(1, min(m, max_n) + 1))
    p = int(rng.integers(1, max_p + 1))
    labels = rng.integers(-1, p, size=m)
    w = rng.uniform(0.0, 1.0, m)
    if rng.random() < 0.25:
        v = DiscountVector.constant(n)
    else:
        v = DiscountVector(np.sort(rng.uniform(0.0, 1.0, n))[::-1])
    return Instance.from_arrays(w, labels[:, None] == np.arange(p), n, v)


def random_intersectional_instance(rng, max_m=7, max_n=5, max_p=3, strict_v=False) -> Instance:
    m = int(rng.integers(2, max_m + 1))
    n = int(rng.integers(1, min(m, max_n) + 1))
    p = int(rng.integers(1, max_p + 1))
    mem = rng.random((m, p)) < 0.45
    w = rng.uniform(0.0, 1.0, m)
    if strict_v:
        # strictly decreasing, so position swaps always change the utility
        v = DiscountVector(np.sort(rng.uniform(0.1, 1.0, n))[::-1] + np.arange(n, 0, -1) * 1e-3)
    else:
        v = DiscountVector(np.sort(rng.uniform(0.0, 1.0, n))[::-1])
    return Instance.from_arrays(w, mem, n, v)


def random_feasible_constraints(rng, instance) -> ConstraintMatrix:
    """Random nondecreasing lower bounds kept feasible by construction."""
    n, p = instance.n, instance.p
    sizes = instance.membership_matrix.sum(axis=0)
    L = np.zeros((n, p), dtype=np.int64)
    prev = np.zeros(p, dtype=np.int64)
    for k in range(1, n + 1):
        row = prev.copy()
        budget = k - int(row.sum())
        for s in rng.permutation(p):
            # geometric number of increments, so columns sometimes jump by 2+
            while budget > 0 and row[s] < sizes[s] and rng.random() < 0.35:
                row[s] += 1
                budget -= 1
        L[k - 1] = row
        prev = row
    return ConstraintMatrix(L)


def greedy_ranks(L, groups) -> bool:
    """Whether ``rank_constrained_greedy`` ranks the items of the (m, p) matrix ``groups`` under L (False: it raises
    InfeasibleConstraintsError); a ranking it returns must satisfy L.  The instance, whose utilities fall with the
    id, raises ValueError when L has more rows than there are items."""
    inst = Instance.from_arrays(np.linspace(1.0, 0.0, groups.shape[0]), groups, L.n, DiscountVector.constant(L.n))
    try:
        ranking = rank_constrained_greedy(inst, inst.latent_utilities, L)
    except InfeasibleConstraintsError:
        return False
    assert satisfies(ranking, L, groups)
    return True


def dp_optimum(labels, w, v, L):
    """Exact optimum for two disjoint groups (labels 0 and 1) plus ungrouped
    items (-1) under prefix lower bounds ``L`` and a nonincreasing discount
    ``v``: (utility, ranked ids), or None when no ranking meets the bounds.

    By an exchange argument each class ranks its members in weight order
    (ties by ascending id), so only the interleaving is free.  After j
    positions, ``V[a, b]`` is the best utility with a items of group 0 and b
    of group 1 placed, the other j - a - b ungrouped: n steps over an
    (n+1)^2 table (the constant-p DP of Celis, Straszak & Vishnoi)."""
    n = len(v)
    ids = [np.flatnonzero(labels == c) for c in (0, 1, -1)]
    ids = [i[np.argsort(-w[i], kind="stable")] for i in ids]
    sizes = [len(i) for i in ids]
    # class weights in rank order, zero-padded so that every count indexes them
    wa, wb, wu = (np.concatenate([w[i], np.zeros(n)])[:n] for i in ids)
    a, b = np.ogrid[: n + 1, : n + 1]
    V = np.full((n + 1, n + 1), -np.inf)
    V[0, 0] = 0.0
    moves = np.empty((n, n + 1, n + 1), dtype=np.int8)  # class placed at position j
    cand = np.empty((3, n + 1, n + 1))
    for j in range(1, n + 1):
        u = j - a - b
        cand.fill(-np.inf)
        cand[0, 1:] = V[:-1] + wa[:, None] * v[j - 1]
        cand[1, :, 1:] = V[:, :-1] + wb * v[j - 1]
        cand[2] = V + wu[np.clip(u - 1, 0, n - 1)] * v[j - 1]
        moves[j - 1] = cand.argmax(axis=0)
        ok = (a <= sizes[0]) & (b <= sizes[1]) & (u >= 0) & (u <= sizes[2])
        ok &= (a >= L[j - 1, 0]) & (b >= L[j - 1, 1])
        V = np.where(ok, cand.max(axis=0), -np.inf)
    if V.max() == -np.inf:
        return None
    ca, cb = np.unravel_index(V.argmax(), V.shape)
    classes = []
    for j in range(n, 0, -1):
        c = int(moves[j - 1, ca, cb])
        classes.append(c)
        ca, cb = ca - (c == 0), cb - (c == 1)
    heads, ranked = [0, 0, 0], []
    for c in reversed(classes):
        ranked.append(int(ids[c][heads[c]]))
        heads[c] += 1
    return float(V.max()), ranked


def enumerate_best_feasible(instance, weights, L) -> tuple[float, tuple[int, ...]]:
    """Hand-rolled exhaustive oracle, independent of the solver module.

    Returns (best utility, lexicographically smallest best ordering).
    """
    mem = instance.membership_matrix
    v = instance.v.values
    w = np.asarray(weights, float)
    best = -np.inf
    best_seq = None
    for perm in itertools.permutations(range(instance.m), instance.n):
        counts = np.cumsum(mem[list(perm)], axis=0)
        if np.all(counts >= L.matrix):
            util = float(w[list(perm)] @ v)
            if util > best:
                best = util
                best_seq = perm
    return best, best_seq
