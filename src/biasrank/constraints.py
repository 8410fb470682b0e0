"""Prefix lower-bound constraint matrices for rankings.

An (n, p) integer matrix L constrains a ranking to contain at least
``L[k-1][s]`` members of group s among its top k positions, for every
k and s.  Two constructions are provided: the single-parameter family
``L[k][target] = floor(alpha * k)`` that spreads a target share over
every prefix, and the counts taken from the latent-optimal ranking,
which make the constrained observed-utility optimum recover the full
latent optimum when the groups are disjoint (with overlapping groups they
can fail: see ROADMAP item 1's m = 4 instance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Instance, Ranking, _top, prefix_group_counts
from .stats import _eq_fields, _store, read_list, read_number, read_rows

__all__ = [
    "ConstraintMatrix",
    "InfeasibleConstraintsError",
    "NonDisjointGroupsError",
    "derived_constraints",
    "satisfies",
    "simple_constraints",
]

# Guards floor() against alpha*k values that real arithmetic makes integral
# but binary floating point lands just below (e.g. 0.3 * 10 = 2.999...96),
# and experiments.supernumerary_seats' ceil() against ones just above.
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
        if np.any(arr.max(axis=1, initial=0) > np.arange(1, arr.shape[0] + 1)):
            raise ValueError("a top-k prefix cannot require more than k items")
        _store(self, matrix=arr.copy())

    __eq__ = _eq_fields

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
        if foreign := [key for key in d if key not in ("n", "p", "L")]:
            raise ValueError(f"constraint JSON takes no key {foreign[0]!r}")
        try:
            n, p = read_number(d["n"], "n", whole=True), read_number(d["p"], "p", whole=True)
            bounds, widths = read_rows(read_list(d["L"], "L"), "L row", "constraint bound")
        except KeyError as exc:
            raise ValueError(f"constraint JSON missing key {exc}") from exc
        if len(widths) != n:
            raise ValueError(f"L has {len(widths)} rows, expected n={n}")
        if np.any(wrong := widths != p):
            row = wrong.argmax()
            raise ValueError(f"L row {row} has {widths[row]} bounds, expected p={p}")
        return cls(bounds.reshape(n, max(p, 0)))  # p < 0 passes only with no rows, which cls rejects

    @classmethod
    def zeros(cls, n: int, p: int) -> "ConstraintMatrix":
        return cls(np.zeros((n, p), dtype=np.int64))


def simple_constraints(alpha: float, target_group: int, n: int, p: int) -> ConstraintMatrix:
    """Require at least ``floor(alpha * k)`` target-group items in every
    top-k prefix; all other groups are unconstrained.

    Floor (with a tiny epsilon) is used rather than ceil so the bound never
    exceeds the prefix length for any alpha in [0, 1].
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if not (0 <= target_group < p):
        raise ValueError(f"target group {target_group} outside [0, {p})")
    L = np.zeros((n, p), dtype=np.int64)
    L[:, target_group] = _floor_bounds(alpha, n)
    return ConstraintMatrix(L)


def _floor_bounds(alphas, n: int) -> np.ndarray:
    """``floor(alpha * k)`` for k = 1..n, an int64 row per float alpha (one row for a scalar)."""
    return np.floor(np.multiply.outer(alphas, np.arange(1, n + 1)) + FLOOR_EPSILON).astype(np.int64)


def derived_constraints(instance: Instance) -> ConstraintMatrix:
    """Per-prefix group counts of the latent-optimal ranking.

    The latent-optimal ranking sorts by latent utility descending, breaking
    ties by ascending id.  With disjoint groups, optimizing observed utility
    under these bounds recovers the optimal latent utility for any
    strictly-positive, below-one bias factors.  With overlapping groups it
    need not: in ROADMAP item 1's m = 4 instance, one item in both groups
    meets both bounds and frees a slot for an unshaded, worse item.
    """
    order = _top(instance.latent_utilities[None], instance.n)[0]
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
