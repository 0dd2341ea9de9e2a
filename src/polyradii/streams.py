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


def uniform(key: StreamKey, count: int) -> np.ndarray:
    """i.i.d. uniforms on the open interval (0, 1).

    Built from 53-bit integers as (x + 0.5) / 2^53, so 0 and 1 are never
    returned and downstream transforms (log, ndtri) are safe.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    bits = generator(key).integers(0, 1 << 53, size=count, dtype=np.uint64)
    return (bits + 0.5) * 2.0**-53


def standard_normal(key: StreamKey, count: int) -> np.ndarray:
    """i.i.d. N(0,1) via the inverse CDF; rejection-free, so the draw count
    consumed from the stream is fixed and the output is deterministic."""
    return ndtri(uniform(key, count))


def standard_exponential(key: StreamKey, count: int) -> np.ndarray:
    """i.i.d. Exp(1) via inversion; rejection-free."""
    return -np.log(uniform(key, count))
