"""Utility distributions, seeded sampling, and closed-form results for the
two-group exchangeable model.

When all m_a + m_b utilities are drawn i.i.d. from one continuous
distribution, group labels are exchangeable, so the composition of the
utility-sorted ranking reduces to an urn model: the count of group-b items
in the top k is hypergeometric and the position of the l-th group-b item
is a shifted negative hypergeometric.  Those pmfs, their means, a lower
tail bound, and the fixed-position closed forms for expected constrained
and unconstrained utility under uniform utilities live here, together
with the negative binomial moments that the closed forms rest on.

Binomial coefficients are evaluated in log space (lgamma) so pmfs stay
finite for group sizes in the thousands.
"""

from __future__ import annotations

import ctypes
import json
import math
from contextlib import suppress
from dataclasses import MISSING, dataclass, fields
from itertools import chain
from typing import Iterator

import numpy as np

__all__ = [
    "Distribution",
    "Empirical",
    "LogNormal",
    "NegativeMomentResult",
    "Normal",
    "SeedSpec",
    "ShiftedScaled",
    "Uniform",
    "UtilityEstimate",
    "binomial_negative_moment",
    "distribution_from_json",
    "expected_Nkb",
    "expected_Pl",
    "log_binom",
    "pmf_Nkb",
    "pmf_Pl",
    "tail_bound_Nkb",
    "utility_with_constraints_formula",
    "utility_without_constraints_formula",
]


# ---------------------------------------------------------------------------
# Distributions: ``draw(rng, size)`` returns ``size`` new values, and
# ``draw(rng, size, out)`` writes the same values into ``out`` and returns it.


def _into(out: np.ndarray | None, values: np.ndarray) -> np.ndarray:
    if out is None:
        return values
    out[...] = values
    return out


# The Python types json.load gives a JSON number; bool, a subclass of int, is not one.
JSON_NUMBER = frozenset({int, float})


def _shown(value) -> str:
    return "a string" if isinstance(value, str) else json.dumps(value)


def read_list(x, what: str) -> list:
    """``x`` if it is a JSON list, decided by type before len or iteration sees it, else ValueError naming ``what``."""
    if type(x) is not list:
        raise ValueError(f"{what} must be a list, got {_shown(x)}")
    return x


def read_each(xs: list, of: type, what: str) -> list:
    """``xs`` if each element is an ``of`` (list or dict), else ValueError naming ``what`` and the first other."""
    if list(map(type, xs)).count(of) != len(xs):  # faster than a set of the types
        bad = next(v for v in xs if type(v) is not of)
        raise ValueError(f"{what} must be {'a list' if of is list else 'an object'}, got {_shown(bad)}")
    return xs


def read_rows(rows: list, row: str, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The whole numbers ``what`` in a list of JSON lists (each a ``row``), row after row, and each row's length."""
    lengths = np.fromiter(map(len, read_each(rows, list, row)), np.int64, len(rows))
    return read_numbers(list(chain.from_iterable(rows)), what, whole=True), lengths


def read_numbers(xs, what: str, whole: bool = False) -> np.ndarray:
    """A JSON list of numbers as float64, or with ``whole`` as int64, types checked before numpy sees
    it.  A non-list, a bool, string, null, object or list in it, an int too large for a float, and with
    ``whole`` a fraction or a value past int64 raise ValueError naming ``what``, and a bad type its value."""
    kind = "a whole number" if whole else "a number"
    types = set(map(type, read_list(xs, what)))
    if not types <= JSON_NUMBER:
        bad = next(v for v in xs if type(v) not in JSON_NUMBER)
        raise ValueError(f"{what} must be {kind}, got {_shown(bad)}")
    with suppress(OverflowError):  # an int too large for the dtype: named below
        if not whole or float not in types:
            return np.array(xs, dtype=np.int64 if whole else float)
    if not whole:
        raise ValueError(f"{what} must be a number, got an integer past the float range")
    for v in xs:  # in Python, so an int beside a whole float stays exact
        if not (type(v) is int or v.is_integer()) or not -(2**63) <= v < 2**63:
            raise ValueError(f"{what} must be a whole number, got {v}")
    return np.array([int(v) for v in xs], dtype=np.int64)


def read_number(x, what: str, whole: bool = False) -> float | int:
    """One JSON number as a float, or with ``whole`` an int; a list is rejected."""
    return read_numbers([x], what, whole)[0].item()


def _store(obj, **values) -> None:
    """Set fields of a frozen dataclass, from its ``__post_init__``; array
    values are made read-only, so a value type's arrays never change."""
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


class _JsonFields:
    """``to_json_dict`` of a distribution: its ``kind``, then its fields in
    order, a nested distribution as its own dict and an array as a list."""

    def to_json_dict(self) -> dict:
        d = {"kind": self.kind}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value = value.tolist()
            elif isinstance(value, _JsonFields):
                value = value.to_json_dict()
            d[f.name] = value
        return d


@dataclass(frozen=True)
class Uniform(_JsonFields):
    """Uniform on [a, b)."""

    a: float = 0.0
    b: float = 1.0
    kind = "uniform"

    def __post_init__(self) -> None:
        a, b = float(self.a), float(self.b)
        if not (a < b and math.isfinite(b - a)):
            raise ValueError(f"uniform requires a < b and a finite b - a, got a={self.a}, b={self.b}")
        _store(self, a=a, b=b)

    def draw(self, rng: np.random.Generator, size: int, out: np.ndarray | None = None) -> np.ndarray:
        if out is None or self.a != 0.0:
            # a + (b - a) * x may round differently where multiply-add is fused
            return _into(out, rng.uniform(self.a, self.b, size))
        rng.random(out=out)  # rng.uniform's 0 + b * x rounds once, fused or not
        if self.b != 1.0:
            out *= self.b
        return out


@dataclass(frozen=True)
class _MuSigma(_JsonFields):
    """The finite ``mu`` and positive finite ``sigma`` of a normal, or of the normal a lognormal exponentiates."""

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self) -> None:
        mu, sigma = float(self.mu), float(self.sigma)
        if not (0 < sigma < math.inf and math.isfinite(mu)):  # NaN fails too
            raise ValueError(f"{self.kind} requires sigma > 0 and finite mu and sigma, got mu={mu}, sigma={sigma}")
        _store(self, mu=mu, sigma=sigma)


@dataclass(frozen=True)
class LogNormal(_MuSigma):
    """exp(N(mu, sigma^2))."""

    kind = "lognormal"

    def draw(self, rng: np.random.Generator, size: int, out: np.ndarray | None = None) -> np.ndarray:
        return _into(out, rng.lognormal(self.mu, self.sigma, size))


@dataclass(frozen=True)
class Normal(_MuSigma):
    kind = "normal"

    def draw(self, rng: np.random.Generator, size: int, out: np.ndarray | None = None) -> np.ndarray:
        return _into(out, rng.normal(self.mu, self.sigma, size))


def _eq_fields(self, other: object) -> bool:
    """``==`` for frozen dataclasses that hold arrays, where the generated one
    is ambiguous: the same type and equal fields, arrays by np.array_equal."""
    if type(other) is not type(self):
        return False
    pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in pairs)


@dataclass(frozen=True, eq=False)
class Empirical(_JsonFields):
    """Uniform resampling (with replacement) from a stored sample."""

    sample: np.ndarray
    kind = "empirical"

    def __post_init__(self) -> None:
        arr = np.sort(np.asarray(self.sample, dtype=float))
        if arr.size == 0:
            raise ValueError("empirical distribution needs a nonempty sample")
        if not np.all(np.isfinite(arr)):
            raise ValueError("empirical sample must be finite")
        _store(self, sample=arr)

    __eq__ = _eq_fields

    def draw(self, rng: np.random.Generator, size: int, out: np.ndarray | None = None) -> np.ndarray:
        return _into(out, self.sample[rng.integers(0, self.sample.size, size)])


@dataclass(frozen=True)
class ShiftedScaled(_JsonFields):
    """base * scale + shift."""

    base: Distribution
    scale: float = 1.0
    shift: float = 0.0
    kind = "shifted_scaled"

    def __post_init__(self) -> None:
        scale, shift = float(self.scale), float(self.shift)
        if not (math.isfinite(scale) and math.isfinite(shift)):
            raise ValueError(f"{self.kind} requires finite scale and shift, got scale={scale}, shift={shift}")
        _store(self, scale=scale, shift=shift)

    def draw(self, rng: np.random.Generator, size: int, out: np.ndarray | None = None) -> np.ndarray:
        x = self.base.draw(rng, size, out)
        x *= self.scale  # in place: the roundings of base * scale + shift
        x += self.shift
        return x


Distribution = Uniform | LogNormal | Normal | Empirical | ShiftedScaled


def distribution_from_json(d: dict) -> Distribution:
    if not isinstance(d, dict):
        raise ValueError("distribution JSON must be an object")
    kind = d.get("kind")
    cls = next((c for c in Distribution.__args__ if c.kind == kind), None)
    if cls is None:
        raise ValueError(f"unknown distribution kind {kind!r}")
    if foreign := [key for key in d if key != "kind" and key not in cls.__dataclass_fields__]:
        raise ValueError(f"{kind} distribution takes no field {foreign[0]!r}")
    values = {}
    for f in fields(cls):
        nested = f.type == "Distribution"  # annotations are strings (postponed evaluation)
        if f.name not in d and f.default is MISSING:
            raise ValueError(f'{kind} distribution requires a "{f.name}" {"distribution" if nested else "array"}')
        value = d.get(f.name, f.default)
        read = read_numbers if f.type == "np.ndarray" else read_number
        values[f.name] = distribution_from_json(value) if nested else read(value, f"{kind} {f.name}")
    return cls(**values)


# ---------------------------------------------------------------------------
# Reproducible per-trial streams

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Trials whose states SeedSpec._draw_trials derives together, in whole draw
# blocks; a chunk costs about 0.3 ms of numpy calls whatever its size.
SEED_BLOCK = 1024

# NumPy's SeedSequence hash constants (NEP 19) and PCG64's LCG multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# Word orders of numpy's 128-bit PCG64 state and increment, as indices into
# (hi, lo, hi, lo): native little-endian __uint128_t, then numpy's emulated
# {high, low} struct (also the native big-endian order).
_PCG128_LAYOUTS = ((1, 0, 3, 2), (0, 1, 2, 3))


def _hash_schedule(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiplier) columns of successive hash calls: the SeedSequence
    hash constant does not depend on the data, only on how often it was used."""
    consts = [init]
    for _ in range(calls):
        consts.append((consts[-1] * mult) & _MASK32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


_HASH_A = _hash_schedule(_INIT_A, _MULT_A, 16)  # 4 pool fills + 12 cross mixes
_HASH_B = _hash_schedule(_INIT_B, _MULT_B, 8)  # generate_state(4, uint64)


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> np.uint32(16))


def _splitmix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _trial_seeds(master_seed: int, start: int, stop: int) -> np.ndarray:
    """``SeedSpec(master_seed).trial_seed(i)`` for i in start..stop-1, as
    uint64 (numpy integer arithmetic wraps mod 2^64)."""
    z = np.arange(start + 1, stop + 1, dtype=np.uint64) * np.uint64(_GOLDEN) + np.uint64(master_seed)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for each uint64
    seed as (4, B) rows: PCG64's initial state hi, lo, stream selector hi, lo.
    A seed's pool starts as the 32-bit words [lo, hi, 0, 0]; a source word's
    three cross mixes leave it unchanged, so they run as one operation."""
    xor_a, mult_a = _HASH_A
    pool = np.zeros((4, seeds.size), dtype=np.uint32)
    pool[0] = seeds & np.uint64(_MASK32)
    pool[1] = seeds >> np.uint64(32)
    pool = _hashmix(pool, xor_a[:4], mult_a[:4])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        calls = slice(4 + 3 * src, 7 + 3 * src)
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor_a[calls], mult_a[calls]))
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], *_HASH_B).astype(np.uint64)
    # Consecutive 32-bit words are the halves of little-endian 64-bit words.
    return words[0::2] | (words[1::2] << np.uint64(32))


def _mulhi(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of each uint64 ``a`` times the 64-bit constant ``b``,
    from 32-bit limbs whose products fit in uint64."""
    m32, s32 = np.uint64(_MASK32), np.uint64(32)
    a0, a1 = a & m32, a >> s32
    b0, b1 = np.uint64(b & _MASK32), np.uint64(b >> 32)
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> s32) + (p01 & m32) + (p10 & m32)
    return a1 * b1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32)


def _srandom(s_hi: np.ndarray, s_lo: np.ndarray, q_hi: np.ndarray, q_lo: np.ndarray) -> np.ndarray:
    """PCG64's seeding, ``inc = q << 1 | 1`` and ``state = (s + inc) * MULT +
    inc mod 2^128``, on uint64 halves: (B, 4) rows of state hi, lo, inc hi, lo."""
    one = np.uint64(1)
    inc_lo = (q_lo << one) | one
    inc_hi = (q_hi << one) | (q_lo >> np.uint64(63))
    lo = s_lo + inc_lo
    hi = s_hi + inc_hi + (lo < inc_lo)
    mult_lo = _PCG64_MULT & _MASK64
    hi = _mulhi(lo, mult_lo) + lo * np.uint64(_PCG64_MULT >> 64) + hi * np.uint64(mult_lo)
    lo = lo * np.uint64(mult_lo) + inc_lo
    hi = hi + inc_hi + (lo < inc_lo)
    return np.stack([hi, lo, inc_hi, inc_lo], axis=1)


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus a fixed rule deriving one stream per trial.

    Trial ``i`` uses the splitmix64 output sequence of the master seed:
    ``seed_i = mix64(master_seed + (i + 1) * 0x9E3779B97F4A7C15 mod 2^64)``
    where ``mix64`` is the splitmix64 finalizer, and its stream is
    ``np.random.default_rng(seed_i)`` (:meth:`rng_for_trial`, the
    definition).  Identical (master_seed, trial_index) pairs always produce
    identical streams, so any trial is reproducible in isolation and
    aggregation is independent of execution order and batch size.

    The batched engines draw through ``_draw_trials``, which derives these
    states in numpy and stores each into one reused generator, instead of
    building a SeedSequence, a PCG64 and a Generator per trial.
    """

    master_seed: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.master_seed <= _MASK64):
            raise ValueError("master seed must fit in 64 bits")

    def trial_seed(self, trial_index: int) -> int:
        if trial_index < 0:
            raise ValueError("trial index must be nonnegative")
        return _splitmix64((self.master_seed + (trial_index + 1) * _GOLDEN) & _MASK64)

    def rng_for_trial(self, trial_index: int) -> np.random.Generator:
        return np.random.default_rng(self.trial_seed(trial_index))

    def _draw_trials(self, trials: int, rows: list) -> Iterator[slice]:
        """Draw trials 0..trials-1, ``len(rows)`` at a time, and yield each block's ``part`` once it is drawn: for
        trial ``part.start + j``, each ``(dist, size, out)`` of ``rows[j]`` in turn calls ``dist.draw(rng, size, out)``
        with ``rng`` in the state ``rng_for_trial`` starts it in.

        NumPy's SeedSequence hash and PCG64 seeding are fixed algorithms (NEP 19), so the states of about
        ``SEED_BLOCK`` trials, whole blocks of them, are derived together in numpy and stored into one reused
        Generator.  Each call reads the build's 128-bit word order from ``rng_for_trial(0)``'s raw state and checks
        the first stored state against that generator's; an unknown layout, or a numpy release that seeds
        differently, raises RuntimeError rather than changing the output bytes.
        """
        rng = np.random.default_rng(self.trial_seed(0))
        bitgen = rng.bit_generator
        want = bitgen.state
        # numpy's pcg64_state: {pcg64_random_t *pcg_state; int has_uint32;
        # uint32_t uinteger;}, where *pcg_state holds the state, then inc.
        address = bitgen.ctypes.state_address
        words = (ctypes.c_uint64 * 4).from_address(ctypes.c_void_p.from_address(address).value)
        buffered = (ctypes.c_uint32 * 2).from_address(address + ctypes.sizeof(ctypes.c_void_p))
        s, inc = want["state"]["state"], want["state"]["inc"]
        halves = (s >> 64, s & _MASK64, inc >> 64, inc & _MASK64)
        layout = next((p for p in _PCG128_LAYOUTS if list(words) == [halves[i] for i in p]), None)
        if layout is None:
            raise RuntimeError(f"unknown PCG64 state layout under numpy {np.__version__}")
        # Per trial, one 32-byte store and one clearing the buffered uint32;
        # memoryview slice stores cost about half of numpy row assignments.
        store, clear, zeros = memoryview(words).cast("B"), memoryview(buffered).cast("B"), bytes(8)
        if not rows:  # no trials, so nothing to draw
            return
        block = len(rows)
        chunk = max(1, SEED_BLOCK // block) * block
        for lo in range(0, trials, chunk):
            seeds = _trial_seeds(self.master_seed, lo, min(lo + chunk, trials))
            raw = memoryview(np.take(_srandom(*_seed_words(seeds)), layout, axis=1)).cast("B")
            if lo == 0:
                store[:] = raw[:32]
                if bitgen.state != want:
                    raise RuntimeError(
                        "block seeding derived a PCG64 state for trial 0 that differs from "
                        f"default_rng's under numpy {np.__version__}"
                    )
            offsets = iter(range(0, len(raw), 32))
            for start in range(lo, lo + seeds.size, block):
                for draws, at in zip(rows, offsets):  # the last block stops with the offsets
                    store[:] = raw[at : at + 32]
                    clear[:] = zeros
                    for dist, size, out in draws:
                        dist.draw(rng, size, out)
                yield slice(start, min(start + block, trials))


# ---------------------------------------------------------------------------
# Closed forms for the utility-sorted ranking of exchangeable groups


def log_binom(n: int, k: int) -> float:
    """log C(n, k); caller guarantees 0 <= k <= n."""
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def expected_Nkb(k: int, m_a: int, m_b: int) -> float:
    """Expected group-b count in the top k of the utility-sorted ranking:
    ``k * m_b / (m_a + m_b)``."""
    if k <= 0:
        raise ValueError("k must be positive")
    if m_a < 0 or m_b < 0 or m_a + m_b == 0:
        raise ValueError("group sizes must be nonnegative and not both zero")
    return k * m_b / (m_a + m_b)


def expected_Pl(l: int, m_a: int, m_b: int) -> float:
    """Expected position of the l-th group-b item in the utility-sorted
    ranking: ``l * (1 + m_a / (m_b + 1))``."""
    if not (1 <= l <= m_b):
        raise ValueError(f"need 1 <= l <= m_b, got l={l}, m_b={m_b}")
    if m_a < 0:
        raise ValueError("m_a must be nonnegative")
    return l * (1.0 + m_a / (m_b + 1.0))


def pmf_Nkb(j: int, k: int, m_a: int, m_b: int) -> float:
    """Hypergeometric pmf of the group-b count in the top k:
    ``C(k, j) C(m_a + m_b - k, m_b - j) / C(m_a + m_b, m_b)``.

    Out-of-support j yields 0.
    """
    if k < 1 or m_a < 0 or m_b < 0 or k > m_a + m_b:
        raise ValueError("need 1 <= k <= m_a + m_b and nonnegative group sizes")
    if j < max(0, k - m_a) or j > min(k, m_b):
        return 0.0
    m = m_a + m_b
    return math.exp(log_binom(k, j) + log_binom(m - k, m_b - j) - log_binom(m, m_b))


def pmf_Pl(k: int, l: int, m_a: int, m_b: int) -> float:
    """Shifted negative hypergeometric pmf of the position of the l-th
    group-b item: ``C(k-1, l-1) C(m_a + m_b - k, m_b - l) / C(m_a + m_b, m_b)``.

    Support is ``l <= k <= m_a + l``; out-of-support k yields 0.
    """
    if not (1 <= l <= m_b):
        raise ValueError(f"need 1 <= l <= m_b, got l={l}, m_b={m_b}")
    if m_a < 0:
        raise ValueError("m_a must be nonnegative")
    if k < l or k > m_a + l:
        return 0.0
    m = m_a + m_b
    return math.exp(log_binom(k - 1, l - 1) + log_binom(m - k, m_b - l) - log_binom(m, m_b))


def tail_bound_Nkb(delta: float, k: int) -> float:
    """Upper bound ``exp(-2 (delta^2 - 1) / k)`` on the probability that the
    top-k group-b count falls delta or more below its mean; stated for
    delta >= 2."""
    if delta < 2:
        raise ValueError("the bound is stated for delta >= 2")
    if k < 1:
        raise ValueError("k must be positive")
    return math.exp(-2.0 * (delta * delta - 1.0) / k)


@dataclass(frozen=True)
class NegativeMomentResult:
    exact: float
    approx: float


def binomial_negative_moment(n: int, beta: float, power: int) -> NegativeMomentResult:
    """Exact and limiting values of ``E[(n / (2n - N))^power]`` for
    ``N ~ Binomial(n, 1 - beta)``.

    The limit is ``(1 / (1 + beta))^power``; the gap decays like
    ``n^(-3/8)``.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not (0.0 < beta <= 1.0):
        raise ValueError("beta must lie in (0, 1]")
    if power not in (1, 2):
        raise ValueError("power must be 1 or 2")
    approx = (1.0 / (1.0 + beta)) ** power
    if beta == 1.0:
        # N is degenerate at 0.
        return NegativeMomentResult(exact=0.5**power, approx=approx)
    js = np.arange(n + 1, dtype=float)
    log_pmf = np.array([log_binom(n, j) for j in range(n + 1)]) + js * math.log(1.0 - beta) + (n - js) * math.log(beta)
    ratios = (n / (2.0 * n - js)) ** power
    exact = float(np.exp(log_pmf) @ ratios)
    return NegativeMomentResult(exact=exact, approx=approx)


def utility_with_constraints_formula(n: int, m_a: int, m_b: int) -> float:
    """Leading-order expected latent utility of the proportionally
    constrained ranking under uniform utilities and a constant discount:
    ``n (1 - n / (2 (m_a + m_b)))``.  Requires m_a, m_b >= n."""
    if m_a < n or m_b < n:
        raise ValueError("formula requires m_a >= n and m_b >= n")
    if n < 1:
        raise ValueError("n must be positive")
    return n * (1.0 - n / (2.0 * (m_a + m_b)))


@dataclass(frozen=True)
class UtilityEstimate:
    value: float
    branch: str  # "biased_regime" | "saturated_regime" | "gap"


def utility_without_constraints_formula(n: int, m_a: int, m_b: int, beta: float) -> UtilityEstimate:
    """Leading-order expected latent utility of the unconstrained ranking
    under uniform utilities and a constant discount.

    With ``c = m_a (1 - beta)`` counting privileged items whose shaded
    utility still beats every target-group item: for c below n (by at
    least n^(5/8)) the selection mixes groups and

        m_a (1 - beta^2) / 2
        + (m_a beta^2 + m_b) / 2 * (1 - (m_a + m_b - n)^2 / (m_a beta + m_b)^2)

    applies; for c above n (by at least n^(5/8)) the selection saturates on
    the privileged group and the value is ``n (1 - n / (2 m_a))``.  The band
    in between is flagged as "gap" (the mixed-regime value is returned as
    the best estimate).  Requires m_a, m_b >= n.
    """
    if m_a < n or m_b < n:
        raise ValueError("formula requires m_a >= n and m_b >= n")
    if n < 1:
        raise ValueError("n must be positive")
    if not (0.0 <= beta <= 1.0):
        raise ValueError("beta must lie in [0, 1]")
    c = m_a * (1.0 - beta)
    margin = n**0.625
    biased = m_a * (1.0 - beta**2) / 2.0 + (m_a * beta**2 + m_b) / 2.0 * (
        1.0 - (m_a + m_b - n) ** 2 / (m_a * beta + m_b) ** 2
    )
    if c <= n - margin:
        return UtilityEstimate(value=biased, branch="biased_regime")
    if c >= n + margin:
        return UtilityEstimate(value=n * (1.0 - n / (2.0 * m_a)), branch="saturated_regime")
    return UtilityEstimate(value=biased, branch="gap")
