"""The package's noise streams, rebuilt from their definition.

The checks regenerate observed samples and bootstrap noise blocks here
rather than through ``implicit_boot.rng``, so a fault in the program's
stream code cannot make a wrong draw look right.  Definition: a stream key
(replicate, role, b, h, salt) is absorbed word by word into the master seed
with ``state = mix(state + GOLDEN) ^ mix(word)``; the stream seed is
``mix(state)``; uniform i (1-based) is ``(mix(seed + i * GOLDEN) >> 11) *
2**-53``, with an exact zero replaced by ``2**-53``.  ``mix`` is the
SplitMix64 finalizer.
"""

from __future__ import annotations

import numpy as np

OBSERVED = 1
BOOT = 2

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix(z):
    z = np.asarray(z, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def stream_seeds(master: int, replicate: int, role: int, b) -> np.ndarray:
    """Seeds of the streams (replicate, role, b[i], 0, 0) under ``master``."""
    b = np.atleast_1d(np.asarray(b, dtype=np.uint64))
    state = np.full(b.shape, np.uint64(master & 0xFFFFFFFFFFFFFFFF))
    words = (np.full(b.shape, np.uint64(replicate)),
             np.full(b.shape, np.uint64(role)), b,
             np.zeros(b.shape, np.uint64), np.zeros(b.shape, np.uint64))
    with np.errstate(over="ignore"):
        for word in words:
            state = _mix(state + _GOLDEN) ^ _mix(word)
    return _mix(state)


def uniforms(seeds, m: int) -> np.ndarray:
    """Rows of m open-interval uniforms, one row per seed."""
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.uint64))
    with np.errstate(over="ignore"):
        state = seeds[:, None] + _GOLDEN * np.arange(1, m + 1, dtype=np.uint64)
    u = (_mix(state) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    u[u == 0.0] = 2.0 ** -53
    return u


def observed_block(master: int, replicate: int, m: int) -> np.ndarray:
    return uniforms(stream_seeds(master, replicate, OBSERVED, 0), m)[0]


def boot_blocks(master: int, replicate: int, b, m: int) -> np.ndarray:
    """Bootstrap blocks for 1-based draw indices ``b``."""
    return uniforms(stream_seeds(master, replicate, BOOT, b), m)
