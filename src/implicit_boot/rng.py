"""Deterministic, splittable uniform noise streams.

Every simulated dataset in this package is a pure function of a parameter
vector and a :class:`RandomBlock`.  Blocks are produced by a counter-based
construction (SplitMix64 finalizer over ``seed + i * GOLDEN``), so a block
depends only on its 64-bit seed, never on draw order or thread schedule.
Seeds are derived from a single master seed and a structured stream key.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyBlock

__all__ = [
    "MasterSeed",
    "Role",
    "StreamKey",
    "RandomBlock",
    "derive_seed",
    "derive_seeds",
    "draw_block",
    "draw_uniforms",
]

# SplitMix64 constants (Steele, Lea & Flood 2014).
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# Smallest value representable on the 53-bit output grid; used to keep
# uniforms strictly inside (0, 1) because quantile transforms downstream
# diverge at the endpoints.
_TINY = 2.0 ** -53
_INV_2_53 = 2.0 ** -53
_SHIFT_11 = np.uint64(11)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 output function on uint64 arrays (wrapping arithmetic)."""
    z = np.asarray(z, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


@dataclass(frozen=True)
class MasterSeed:
    """The single 64-bit seed fixed for the lifetime of an experiment run."""

    value: int

    def __post_init__(self):
        object.__setattr__(self, "value", int(self.value) & 0xFFFFFFFFFFFFFFFF)


class Role(enum.Enum):
    """What a stream is used for within one replicate."""

    OBSERVED = 1
    BOOT = 2
    INNER = 3


@dataclass(frozen=True)
class StreamKey:
    """Identifies one noise stream: (replicate, role, bootstrap/inner index, salt).

    Distinct keys yield distinct derived seeds up to the ~2^-64 per-pair
    collision probability of the mixing function.
    """

    replicate_id: int
    role: Role = Role.OBSERVED
    b: int = 0
    h: int = 0
    salt: int = 0

    def __post_init__(self):
        if self.replicate_id < 0:
            raise ValueError("replicate_id must be >= 0")


@dataclass(frozen=True)
class RandomBlock:
    """An immutable vector of m uniforms in the open interval (0, 1)."""

    u: np.ndarray
    m: int = field(init=False)

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        u.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "m", int(u.shape[0]))


def _absorb(state: np.ndarray, value: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return _mix64(state + _GOLDEN) ^ _mix64(np.asarray(value, dtype=np.uint64))


def derive_seed(master: MasterSeed, key: StreamKey) -> int:
    """Derive the 64-bit seed of the stream identified by ``key``.

    Pure function of its arguments; independent of call order.
    """
    state = np.asarray(np.uint64(master.value))
    for v in (key.replicate_id, key.role.value, key.b, key.h, key.salt):
        state = _absorb(state, np.uint64(int(v) & 0xFFFFFFFFFFFFFFFF))
    return int(_mix64(state))


def derive_seeds(master: MasterSeed, replicate_id: int, role: Role,
                 b: np.ndarray, h: np.ndarray | int = 0,
                 salt: int = 0) -> np.ndarray:
    """Vectorized :func:`derive_seed` over bootstrap indices ``b`` (and ``h``).

    Returns a uint64 array of the same broadcast shape as ``b``/``h``; entry
    i equals ``derive_seed(master, StreamKey(replicate_id, role, b[i], h[i], salt))``.
    """
    b = np.asarray(b, dtype=np.uint64)
    h = np.asarray(h, dtype=np.uint64)
    state = np.asarray(np.uint64(master.value))
    for v in (np.uint64(replicate_id), np.uint64(role.value)):
        state = _absorb(state, v)
    state = _absorb(np.broadcast_to(state, b.shape).copy(), b)
    state = _absorb(state, np.broadcast_to(h, state.shape))
    state = _absorb(state, np.uint64(int(salt) & 0xFFFFFFFFFFFFFFFF))
    return _mix64(state)


def draw_uniforms(seed, m: int) -> np.ndarray:
    """Open-interval uniforms for one or many seeds.

    ``seed`` may be a scalar (returns shape ``(m,)``) or an array of shape
    ``(k,)`` (returns ``(k, m)``, row i generated from ``seed[i]``).  Uses the
    53-bit mantissa convention ``(x >> 11) * 2**-53`` with exact zeros
    remapped to the smallest interior grid value.
    """
    if m < 1:
        raise EmptyBlock("block length m must be >= 1")
    seed = np.asarray(seed, dtype=np.uint64)
    counters = np.arange(1, m + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        state = seed[..., None] + _GOLDEN * counters
    u = (_mix64(state) >> _SHIFT_11).astype(np.float64) * _INV_2_53
    return np.where(u == 0.0, _TINY, u)


def draw_block(seed: int, m: int) -> RandomBlock:
    """Draw the canonical noise block of length ``m`` for ``seed``."""
    u = draw_uniforms(np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF), m)
    return RandomBlock(u=u[0] if u.ndim > 1 else u)
