"""Deterministic, splittable random streams.

A stream is addressed by a :class:`StreamKey` = (root seed, derivation path).
The key is hashed into a counter-based Philox generator, so any task can
rebuild its stream from the key alone and results never depend on the order
in which parallel tasks happen to run.  Convention: one key feeds one kind of
draw; anything needing several independent draws derives child keys first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

_U64_MAX = 2**64 - 1
_WORD_TOP = 2**53 - 2  # the largest word _words_to_unit maps below 1


@dataclass(frozen=True)
class StreamKey:
    """Address of a reproducible random stream.

    Identical (root, path) pairs reproduce the identical stream; distinct
    paths under one root give statistically independent streams.
    """

    root: int
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "path", tuple(int(i) for i in self.path))
        for value in (self.root, *self.path):
            if not 0 <= value <= _U64_MAX:
                raise ValueError(f"stream index {value} outside unsigned 64-bit range")

    def child(self, index: int) -> "StreamKey":
        """Append a task index to the path; pure, order-independent."""
        return StreamKey(self.root, self.path + (int(index),))


def generator(key: StreamKey) -> np.random.Generator:
    """Fresh counter-based generator positioned at the start of the stream."""
    ss = np.random.SeedSequence(entropy=key.root, spawn_key=key.path)
    return np.random.Generator(np.random.Philox(ss))


def _words_to_unit(bits: np.ndarray) -> np.ndarray:
    """Map 53-bit words into the open interval (0, 1) as (x + 0.5) / 2^53.

    Above 2^52 the sum x + 0.5 rounds half to even, so x = 2^53 - 1 would map
    to exactly 1.0; it is clamped (in place) to 2^53 - 2, which maps to
    1 - 2^-52.  Every other word keeps its value.  One float64 array is
    allocated and both steps are applied to it in place.
    """
    np.minimum(bits, _WORD_TOP, out=bits)
    u = bits.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return u


def uniform(key: StreamKey, count: int) -> np.ndarray:
    """i.i.d. uniforms on the open interval (0, 1).

    One 53-bit word per value (see _words_to_unit), so 0 and 1 are never
    returned and downstream transforms (log, ndtri) are safe.  The word is the
    top 53 bits of one raw Philox word, exactly what
    ``integers(0, 2**53, dtype=np.uint64)`` returns: Lemire's method for that
    range never rejects, since (2^64 - 2^53) mod 2^53 = 0, and keeps the high
    word of x * 2^53, which is x >> 11.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    bits = generator(key).bit_generator.random_raw(count)
    bits >>= 11
    return _words_to_unit(bits)


def standard_normal(key: StreamKey, count: int) -> np.ndarray:
    """i.i.d. N(0,1) via the inverse CDF; rejection-free, so the draw count
    consumed from the stream is fixed and the output is deterministic."""
    u = uniform(key, count)
    return ndtri(u, out=u)


def standard_exponential(key: StreamKey, count: int) -> np.ndarray:
    """i.i.d. Exp(1) via inversion; rejection-free."""
    u = uniform(key, count)
    np.log(u, out=u)
    return np.negative(u, out=u)
