"""Prefix lower-bound constraint matrices for rankings.

An (n, p) integer matrix L constrains a ranking to contain at least
``L[k-1][s]`` members of group s among its top k positions, for every
k and s.  Two constructions are provided: the single-parameter family
``L[k][target] = floor(alpha * k)`` that spreads a target share over
every prefix, and the counts taken from the latent-optimal ranking,
which make the constrained observed-utility optimum recover the full
latent optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Instance, Ranking, _order, prefix_group_counts, whole_numbers
from .stats import _eq_fields, _store

__all__ = [
    "ConstraintMatrix",
    "InfeasibleConstraintsError",
    "NonDisjointGroupsError",
    "check_feasibility",
    "derived_constraints",
    "satisfies",
    "simple_constraints",
]

# Guards floor() against alpha*k values that real arithmetic makes integral
# but binary floating point lands just below (e.g. 0.3 * 10 = 2.999...96).
FLOOR_EPSILON = 1e-9


class InfeasibleConstraintsError(ValueError):
    """No ranking can satisfy the given constraint matrix."""


class NonDisjointGroupsError(ValueError):
    """Operation requires disjoint groups but some item is in two or more."""


@dataclass(frozen=True, eq=False)
class ConstraintMatrix:
    """Nonnegative (n, p) lower bounds with nondecreasing columns.

    Row k-1 applies to the top-k prefix; entries never exceed k because a
    prefix of length k cannot contain more than k items.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.matrix, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("constraint matrix must be 2-D (n rows, p columns)")
        if arr.shape[0] == 0:
            raise ValueError("constraint matrix needs at least one row")
        if np.any(arr < 0):
            raise ValueError("constraint entries must be nonnegative")
        if np.any(np.diff(arr, axis=0) < 0):
            raise ValueError("constraint columns must be nondecreasing")
        rows = np.arange(1, arr.shape[0] + 1, dtype=np.int64)
        if np.any(arr.max(axis=1, initial=0) > rows):
            raise ValueError("a top-k prefix cannot require more than k items")
        _store(self, matrix=arr.copy())

    __eq__ = _eq_fields

    @classmethod
    def _unchecked(cls, arr: np.ndarray) -> "ConstraintMatrix":
        """Take ownership of an int64 matrix that is valid by construction, unchecked."""
        self = object.__new__(cls)
        _store(self, matrix=arr)
        return self

    @property
    def n(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def p(self) -> int:
        return int(self.matrix.shape[1])

    def to_json_dict(self) -> dict:
        return {"n": self.n, "p": self.p, "L": self.matrix.tolist()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ConstraintMatrix":
        if not isinstance(d, dict):
            raise ValueError("constraint JSON must be an object")
        try:
            n, p = int(whole_numbers(d["n"], "n")), int(whole_numbers(d["p"], "p"))
            arr = whole_numbers(d["L"], "constraint bound")
        except KeyError as exc:
            raise ValueError(f"constraint JSON missing key {exc}") from exc
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"malformed constraint JSON: {exc}") from exc
        if arr.ndim == 1 and p == 0:
            arr = arr.reshape(n, 0)
        if arr.shape != (n, p):
            raise ValueError(f"L has shape {arr.shape}, expected ({n}, {p})")
        return cls(arr)

    @classmethod
    def zeros(cls, n: int, p: int) -> "ConstraintMatrix":
        return cls(np.zeros((n, p), dtype=np.int64))


def simple_constraints(alpha: float, target_group: int, n: int, p: int) -> ConstraintMatrix:
    """Require at least ``floor(alpha * k)`` target-group items in every
    top-k prefix; all other groups are unconstrained.

    Floor (with a tiny epsilon) is used rather than ceil so the bound never
    exceeds the prefix length for any alpha in [0, 1].  The columns are then
    nonnegative, nondecreasing and at most k, so the matrix is not checked
    again.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if not (0 <= target_group < p):
        raise ValueError(f"target group {target_group} outside [0, {p})")
    if n < 1:
        raise ValueError("constraint matrix needs at least one row")
    L = np.zeros((n, p), dtype=np.int64)
    L[:, target_group] = np.floor(alpha * np.arange(1, n + 1) + FLOOR_EPSILON)
    return ConstraintMatrix._unchecked(L)


def derived_constraints(instance: Instance) -> ConstraintMatrix:
    """Per-prefix group counts of the latent-optimal ranking.

    The latent-optimal ranking sorts by latent utility descending, breaking
    ties by ascending id.  Optimizing observed utility under these bounds
    recovers the optimal latent utility for any strictly-positive,
    below-one bias factors.
    """
    order = _order(instance.latent_utilities)[: instance.n]
    counts = np.cumsum(instance.membership_matrix[order], axis=0, dtype=np.int64)
    return ConstraintMatrix(counts)


def satisfies(ranking: Ranking, L: ConstraintMatrix, membership) -> bool:
    """True iff every prefix of the ranking meets every group lower bound,
    given the (m, p) boolean membership matrix."""
    if len(ranking.positions) != L.n:
        raise ValueError(f"ranking length {len(ranking.positions)} != constraint rows {L.n}")
    p = np.shape(membership)[1]
    if p != L.p:
        raise ValueError(f"membership has {p} groups but constraints have {L.p} columns")
    counts = prefix_group_counts(ranking, membership)
    return bool(np.all(counts >= L.matrix))


def check_feasibility(L: ConstraintMatrix, membership) -> bool:
    """Decide whether any ranking of L.n items satisfies L, for disjoint groups.

    For disjoint groups the exact conditions are: nondecreasing columns
    (guaranteed by construction), at least L.n items, final demand within
    each group's size, and total demand at each prefix within the prefix
    length.  Raises NonDisjointGroupsError when some item is in two or more
    groups; use the brute-force solver for those.
    """
    mem = np.asarray(membership, dtype=bool)
    m, p = mem.shape
    if p != L.p:
        raise ValueError(f"membership has {p} groups but constraints have {L.p} columns")
    # Row and column counts as integer matmuls: on a tall (m, p) bool matrix
    # they run several times faster than sum(axis=...).
    if np.any(mem @ np.ones(p, dtype=np.int64) > 1):
        raise NonDisjointGroupsError("groups overlap; use the brute-force solver")
    mat = L.matrix
    return bool(
        L.n <= m
        and np.all(mat[-1] <= np.ones(m, dtype=np.int64) @ mem)
        and np.all(mat.sum(axis=1) <= np.arange(1, L.n + 1))
    )
