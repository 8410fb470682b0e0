"""Shared builders for randomized solver and constraint tests."""

from __future__ import annotations

import itertools

import numpy as np

from biasrank import ConstraintMatrix, DiscountVector, Instance


def membership(m, groups) -> np.ndarray:
    """(m, p) boolean matrix whose column s marks the item ids in groups[s]."""
    mem = np.zeros((m, len(groups)), dtype=bool)
    for s, g in enumerate(groups):
        mem[list(g), s] = True
    return mem


def two_group_instance(w_a, w_b, n, v=None) -> Instance:
    """Group 0 holds the w_a items, group 1 the w_b items."""
    w = np.concatenate([np.asarray(w_a, float), np.asarray(w_b, float)])
    labels = np.zeros(w.size, dtype=np.int64)
    labels[len(w_a) :] = 1
    if v is None:
        v = DiscountVector.constant(n)
    return Instance.from_arrays(w, labels, n, v, p=2)


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
    return Instance.from_arrays(w, labels, n, v, p=p)


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
    return Instance.from_arrays(w, mem, n, v, p=p)


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
