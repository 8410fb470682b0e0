"""Core domain types for ranking under multiplicative group bias.

Each item carries a latent (true) utility and a set of group memberships,
which may be empty, singleton, or overlapping; an instance stores the
memberships as one boolean (m, p) matrix.  An evaluator does not see the
latent utilities: each group contributes a multiplicative factor in
``[0, 1]``, and an item belonging to several groups is shaded by the
product of its groups' factors.  Rankings place ``n`` of the ``m`` items
into positions ``1..n`` and are scored against a nonincreasing,
nonnegative position-discount vector; a constant vector reduces ranking
to plain subset selection.

All types, and the utility distributions of :mod:`biasrank.stats`, are
frozen dataclasses that validate in ``__post_init__``, so they are immutable
after construction; all operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stats import _eq_fields, _store, read_each, read_list, read_number, read_numbers, read_rows

__all__ = [
    "BiasModel",
    "DiscountDiagnostics",
    "DiscountVector",
    "Instance",
    "Ranking",
    "instance_from_json",
    "instance_to_json",
    "observed_utilities",
    "prefix_group_counts",
    "ranking_utility",
    "validate_discount",
]


# Elements one allocation may hold (1 GiB of eight-byte values).  Counts come
# from outside, and under memory overcommit a far larger allocation can succeed
# and the process die later while filling it, so sizes are checked first.
MAX_ELEMENTS = 2**27
# The groups of an item without a "groups" key: one list, never changed, so none is made per item.
_NO_GROUPS: list = []


def check_size(what: str, elements: int) -> None:
    """Raise ValueError when ``what`` would hold more than MAX_ELEMENTS elements."""
    if elements > MAX_ELEMENTS:
        raise ValueError(f"{what} would hold {elements} elements, more than the limit of {MAX_ELEMENTS}")


def _order(x: np.ndarray) -> np.ndarray:
    """The tie rule of every ranking: indices by descending value, ties by ascending index."""
    return np.argsort(-x, kind="stable")


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


@dataclass(frozen=True, eq=False)
class BiasModel:
    """Per-group multiplicative shading factors, each in ``[0, 1]``.

    An item in groups ``T`` is observed at ``w * prod(betas[s] for s in T)``;
    the empty product leaves ungrouped items unshaded.
    """

    betas: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.betas, dtype=float).reshape(-1)
        if arr.size and (np.any(arr < 0.0) or np.any(arr > 1.0) or not np.all(np.isfinite(arr))):
            raise ValueError("bias factors must lie in [0, 1]")
        _store(self, betas=arr)

    __eq__ = _eq_fields

    @property
    def p(self) -> int:
        return int(self.betas.size)


@dataclass(frozen=True, eq=False)
class DiscountVector:
    """Nonincreasing, nonnegative per-position weights, and nothing else.

    ``constant``, ``dcg`` and ``zipf`` build the named vectors; dcg is
    ``1 / log(k + 1)`` with a configurable logarithm base, by default e.
    Zeros are allowed, positivity is not required.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("discount vector must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("discount entries must be finite")
        if np.any(arr < 0.0):
            raise ValueError("discount entries must be nonnegative")
        if np.any(arr[:-1] < arr[1:]):
            raise ValueError("discount vector must be nonincreasing")
        _store(self, values=arr)

    __eq__ = _eq_fields

    @classmethod
    def constant(cls, n: int) -> "DiscountVector":
        return cls(np.ones(n))

    @classmethod
    def dcg(cls, n: int, log_base: float | None = None) -> "DiscountVector":
        """1 / log(k + 1) for k = 1..n; natural log unless a base > 1 is given."""
        if log_base is not None and log_base <= 1.0:
            raise ValueError("log base must exceed 1")
        return cls((1.0 if log_base is None else math.log(log_base)) / np.log(np.arange(2, n + 2, dtype=float)))

    @classmethod
    def zipf(cls, n: int) -> "DiscountVector":
        return cls(1.0 / np.arange(1, n + 1, dtype=float))

    def __len__(self) -> int:
        return int(self.values.size)

    def to_json_dict(self) -> dict:
        return {"kind": "custom", "values": self.values.tolist()}

    @classmethod
    def from_json_dict(cls, d: dict, n: int) -> "DiscountVector":
        """The discount JSON object ``d`` names, of length ``n``: every command reads its discount here."""
        if not isinstance(d, dict):
            raise ValueError("discount must be a JSON object")
        if n < 1:
            raise ValueError(f"discount length must be at least 1, got {n}")
        check_size("the discount vector", n)
        kind, base = d.get("kind"), d.get("log_base")
        base = None if base is None else read_number(base, "log_base")  # a non-number fails beside any kind
        if kind not in ("constant", "dcg", "zipf", "custom"):
            raise ValueError(f"unknown discount kind {kind!r}")
        own = {"dcg": "log_base", "custom": "values"}.get(kind)
        if foreign := [key for key in d if key not in ("kind", own)]:
            raise ValueError(f"discount kind {kind!r} takes no field {foreign[0]!r}")
        if kind != "custom":
            return cls.dcg(n, log_base=base) if kind == "dcg" else getattr(cls, kind)(n)
        values = d.get("values")
        if values is None:
            raise ValueError('custom discount requires a "values" array')
        if len(read_list(values, "discount values")) != n:
            raise ValueError(f"discount has {len(values)} values, expected {n}")
        return cls(read_numbers(values, "discount value"))


@dataclass(frozen=True, eq=False)
class Instance:
    """A ranking problem: m items with latent utilities and group memberships,
    n ranked positions, and a ``DiscountVector`` of length n.

    Every item has a dense 0-based integer id, and every per-item vector is
    id-indexed.  Group membership is a boolean (m, p) matrix whose entry
    (i, s) is True iff item i belongs to group s; rows may hold any number
    of True entries, so groups may overlap and items may be ungrouped.  It
    is the only membership encoding: any other dtype or shape raises
    ValueError.
    """

    latent_utilities: np.ndarray
    membership_matrix: np.ndarray
    n: int
    v: DiscountVector

    def __post_init__(self) -> None:
        w = np.asarray(self.latent_utilities, dtype=float)
        try:
            mem = np.asarray(self.membership_matrix)
        except ValueError:  # ragged per-item group lists
            mem = np.empty(0)
        if w.ndim != 1:
            raise ValueError("latent utilities must be 1-D")
        if not np.all(np.isfinite(w)):
            raise ValueError("latent utilities must be finite")
        m = int(w.size)
        if mem.dtype != bool or mem.ndim != 2 or mem.shape[0] != m:
            raise ValueError("membership must be a boolean (m, p) matrix with one row per item")
        if not (1 <= self.n <= m):
            raise ValueError(f"need 1 <= n <= m, got n={self.n}, m={m}")
        if not isinstance(self.v, DiscountVector):
            raise ValueError("discount must be a DiscountVector")
        if len(self.v) != self.n:
            raise ValueError(f"discount vector has length {len(self.v)}, expected n={self.n}")
        _store(self, latent_utilities=w.copy(), membership_matrix=mem.copy(), n=int(self.n))

    __eq__ = _eq_fields

    @classmethod
    def from_arrays(cls, latent_utilities, membership, n: int, v: DiscountVector) -> "Instance":
        """``Instance(latent_utilities, membership, n, v)``; perfbench's tracing wraps this name."""
        return cls(latent_utilities, membership, n, v)

    @property
    def m(self) -> int:
        return int(self.latent_utilities.size)

    @property
    def p(self) -> int:
        return int(self.membership_matrix.shape[1])


@dataclass(frozen=True)
class Ranking:
    """An injective assignment of item ids to positions 1..n.

    ``positions[j]`` holds the id placed at position ``j + 1``.
    """

    positions: tuple[int, ...]

    def __post_init__(self) -> None:
        pos = tuple(map(int, self.positions))
        _store(self, positions=pos)
        if pos and min(pos) < 0:
            raise ValueError("item ids must be nonnegative")
        if len(set(pos)) != len(pos):
            raise ValueError("ranking must not repeat items")

    def __len__(self) -> int:
        return len(self.positions)

    def __iter__(self):
        return iter(self.positions)


def observed_utilities(instance: Instance, bias: BiasModel) -> np.ndarray:
    """Shaded utilities: each item's latent utility times the product of its
    groups' bias factors in group order (the empty product is 1), by a
    masked reduction that makes no (m, p) float matrix."""
    if bias.p != instance.p:
        raise ValueError(f"bias has {bias.p} factors but instance has {instance.p} groups")
    mem = instance.membership_matrix
    factors = np.multiply.reduce(np.broadcast_to(bias.betas, mem.shape), axis=1, where=mem, initial=1.0)
    return instance.latent_utilities * factors


def ranking_utility(ranking: Ranking, v, weights) -> float:
    """Discounted utility of a ranking: sum over positions j of
    ``weights[positions[j]] * v[j]``."""
    vv = v.values if isinstance(v, DiscountVector) else np.asarray(v, dtype=float)
    w = np.asarray(weights, dtype=float)
    pos = np.asarray(ranking.positions, dtype=np.intp)
    if pos.size != vv.size:
        raise ValueError(f"ranking has {pos.size} positions but discount has {vv.size}")
    if pos.size and int(pos.max()) >= w.size:
        raise ValueError("ranking references an item id outside the weight vector")
    return float(w[pos] @ vv)


@dataclass(frozen=True)
class DiscountDiagnostics:
    """Diagnostics for a candidate discount vector.

    ``convex_differences`` is vacuously true for n < 3.  ``assumption_ratio``
    is ``(v_1 - v_n) / sum(v)``, a smallness measure of the end-to-end drop
    relative to the total mass (reported, not pass/fail).
    """

    nonincreasing: bool
    convex_differences: bool
    assumption_ratio: float


def validate_discount(v) -> DiscountDiagnostics:
    """Check monotonicity and convexity of consecutive differences.

    Accepts a :class:`DiscountVector` or any 1-D array-like, so candidate
    vectors can be diagnosed before construction.
    """
    vv = v.values if isinstance(v, DiscountVector) else np.asarray(v, dtype=float)
    if vv.ndim != 1 or vv.size == 0:
        raise ValueError("discount must be a nonempty 1-D sequence")
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which compares False
        d = vv[:-1] - vv[1:]
    nonincreasing, convex = bool(np.all(vv[:-1] >= vv[1:])), bool(np.all(d[:-1] >= d[1:]))
    total = float(vv.sum())
    ratio = 0.0 if total == 0.0 else float((vv[0] - vv[-1]) / total)
    return DiscountDiagnostics(nonincreasing, convex, ratio)


def prefix_group_counts(ranking: Ranking, membership) -> np.ndarray:
    """(n, p) integer matrix; entry (k-1, s) counts group-s items among
    positions 1..k, given the (m, p) boolean membership matrix."""
    mem = np.asarray(membership, dtype=bool)
    pos = np.asarray(ranking.positions, dtype=np.intp)
    if pos.size and int(pos.max()) >= mem.shape[0]:
        raise ValueError("ranking references an item id outside the membership matrix")
    return np.cumsum(mem[pos], axis=0, dtype=np.int64)


def instance_to_json(instance: Instance) -> dict:
    """Serialize to the instance JSON schema (groups listed both at top
    level and per item)."""
    mem = instance.membership_matrix
    return {
        "n": instance.n,
        "v": instance.v.to_json_dict(),
        "groups": [np.nonzero(col)[0].tolist() for col in mem.T],
        "items": [
            {"id": i, "w": float(instance.latent_utilities[i]), "groups": np.nonzero(mem[i])[0].tolist()}
            for i in range(instance.m)
        ],
    }


def instance_from_json(d: dict) -> Instance:
    """Parse the instance JSON schema straight into utility and membership
    arrays.

    The item ids must be exactly 0..m-1 in any order, the utilities finite,
    and the group ids in [0, p), where p is the number of top-level group
    lists; those lists must agree with the per-item group lists.
    """
    if not isinstance(d, dict):
        raise ValueError("instance JSON must be an object")
    try:
        n = read_number(d["n"], "n", whole=True)
        group_lists = read_list(d["groups"], "groups")
        item_dicts = read_each(read_list(d["items"], "items"), dict, "item")
        v = DiscountVector.from_json_dict(d["v"], n)
        ids = read_numbers([it["id"] for it in item_dicts], "item id", whole=True)
        w_listed = read_numbers([it["w"] for it in item_dicts], "item w")
    except KeyError as exc:
        raise ValueError(f"instance JSON missing key {exc}") from exc
    p, m = len(group_lists), ids.size
    check_size("the membership matrix", m * p)
    item_groups, counts = read_rows([it.get("groups", _NO_GROUPS) for it in item_dicts], "item groups", "group id")
    members, sizes = read_rows(group_lists, "group", "group member")
    for values, bound, what in ((item_groups, p, "group id"), (members, m, "group member")):
        if np.any(bad := (values < 0) | (values >= bound)):
            raise ValueError(f"{what} {int(values[bad][0])} outside [0, {bound})")
    if not np.array_equal(np.sort(ids), np.arange(m)):
        raise ValueError("item ids must be exactly 0..m-1 with no duplicates")
    w = np.empty(m)
    w[ids] = w_listed
    mem = np.zeros((m, p), dtype=bool)
    mem[np.repeat(ids, counts), item_groups] = True
    keys = np.sort(members * p + np.repeat(np.arange(p), sizes))  # item * p + group, as flatnonzero(mem) reads
    if not np.array_equal(np.flatnonzero(mem), keys[np.diff(keys, prepend=-1) > 0]):
        raise ValueError("top-level group lists disagree with per-item group lists")
    return Instance(w, mem, n, v)
