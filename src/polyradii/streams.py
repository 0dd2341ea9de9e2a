"""Deterministic, splittable random streams.

A stream is addressed by a :class:`StreamKey` = (root seed, derivation path).
The key is hashed into a counter-based Philox generator, so any task can
rebuild its stream from the key alone and results never depend on the order
in which parallel tasks happen to run.  Convention: one key feeds one kind of
draw; anything needing several independent draws derives child keys first.

The hash is numpy's ``SeedSequence(root, spawn_key=path)``: the Philox key of
``StreamKey(root, path)`` is ``generate_state(2, np.uint64)`` of that
SeedSequence.  SeedSequence hashes the root's 32-bit words, zero-padded to
its 4-word pool, into the pool and cross-mixes the pool, then mixes each path
word into every pool word in turn, so a key carries its pool and ``child(i)``
mixes in only i's words (one word below 2^32, else two, low word first).
Philox is counter-based, so a stream depends on its 128-bit key alone and is
built from it directly.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

_U64_MAX = 2**64 - 1
_UNIT_TOP = 1.0 - 2.0**-52  # the largest double below 1

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx), 32-bit arithmetic
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # pool mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _entry(value) -> int:
    """A root or path entry as a Python int in the unsigned 64-bit range."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"stream index {value!r} is not an integer") from None
    if not 0 <= value <= _U64_MAX:
        raise ValueError(f"stream index {value} outside unsigned 64-bit range")
    return value


def _words(value: int) -> tuple[int, ...]:
    """SeedSequence's 32-bit words of an entry, low word first."""
    return (value,) if value <= _M32 else (value & _M32, value >> 32)


def _hashmix(value: int, const: int, mult: int) -> tuple[int, int]:
    """SeedSequence's hashmix: the hashed value and the next hash constant."""
    nxt = const * mult & _M32
    value = (value ^ const) * nxt & _M32
    return value ^ value >> 16, nxt


def _mix(x: int, y: int) -> int:
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


def _root_pool(root: int) -> tuple[int, ...]:
    """The pool of SeedSequence(root, spawn_key=path) before its path words,
    followed by its hash constant: the root's words, zero-padded to 4, hashed
    into the pool, then every pool word mixed into every other.  numpy pads
    only when the path is nonempty; an empty path hashes the same, since a
    pool word past the entropy takes a hashed 0."""
    pool, const = [], _INIT_A
    for word in (_words(root) + (0, 0, 0))[:4]:
        value, const = _hashmix(word, const, _MULT_A)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    return (*pool, const)


def _mix_in(pool: tuple[int, ...], entry: int) -> tuple[int, ...]:
    """The pool (and hash constant) after one more path entry: each of its
    words is hashed and mixed into every pool word in turn."""
    *words, const = pool
    for word in _words(entry):
        for i in range(4):
            value, const = _hashmix(word, const, _MULT_A)
            words[i] = _mix(words[i], value)
    return (*words, const)


def _philox_key(pool: tuple[int, ...]) -> tuple[int, int]:
    """generate_state(2, np.uint64) of the pool: two 64-bit words, each from
    two hashed 32-bit outputs, low word first."""
    out, const = [], _INIT_B
    for word in pool[:4]:
        value, const = _hashmix(word, const, _MULT_B)
        out.append(value)
    return out[0] | out[1] << 32, out[2] | out[3] << 32


@dataclass(frozen=True)
class StreamKey:
    """Address of a reproducible random stream.

    Identical (root, path) pairs reproduce the identical stream; distinct
    paths under one root give statistically independent streams.  Every
    entry is an integer in [0, 2^64 - 1]; anything else raises ValueError.
    ``_pool`` is the path's SeedSequence pool and hash constant.  ``child``
    passes its parent's pool with the new entry mixed in, having checked that
    entry; otherwise the entries are checked and the pool is derived from
    them.  The pool takes no part in equality, hashing or the repr.
    """

    root: int
    path: tuple[int, ...] = ()
    _pool: tuple[int, ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self) -> None:
        if self._pool:
            return
        object.__setattr__(self, "root", _entry(self.root))
        object.__setattr__(self, "path", tuple(map(_entry, self.path)))
        pool = _root_pool(self.root)
        for entry in self.path:
            pool = _mix_in(pool, entry)
        object.__setattr__(self, "_pool", pool)

    def child(self, index: int) -> "StreamKey":
        """Append a task index to the path; pure, order-independent."""
        index = _entry(index)
        return StreamKey(self.root, self.path + (index,), _mix_in(self._pool, index))


def generator(key: StreamKey) -> np.random.Generator:
    """Fresh counter-based generator positioned at the start of the stream."""
    low, high = _philox_key(key._pool)
    # one 128-bit int: Philox(key=) would read a pair of Python ints through float64
    return np.random.Generator(np.random.Philox(key=low | high << 64))


def _open_unit(u: np.ndarray) -> np.ndarray:
    """Map Generator.random's values x 2^-53, x a 53-bit word, into the open
    interval (0, 1) as (x + 0.5) / 2^53, in place: adding 2^-54 rounds once,
    as x + 0.5 would before its exact scaling.  Above 2^52 that sum rounds half to even,
    so x = 2^53 - 1 would map to exactly 1.0; it is clamped to 1 - 2^-52, the
    value of x = 2^53 - 2.
    """
    u += 2.0**-54
    return np.minimum(u, _UNIT_TOP, out=u)


def uniform(key: StreamKey, count: int) -> np.ndarray:
    """i.i.d. uniforms on the open interval (0, 1).

    One 53-bit word per value (see _open_unit), so 0 and 1 are never
    returned and downstream transforms (log, ndtri) are safe.  The word is the
    top 53 bits of one raw Philox word, exactly what
    ``integers(0, 2**53, dtype=np.uint64)`` returns: Lemire's method for that
    range never rejects, since (2^64 - 2^53) mod 2^53 = 0, and keeps the high
    word of x * 2^53, which is x >> 11.  Generator.random returns it times 2^-53.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    return _open_unit(generator(key).random(count))


def uniform_stack(keys: Sequence[StreamKey], count: int) -> np.ndarray:
    """(len(keys), count) uniforms whose row i has the bits of uniform(keys[i], count).

    One local Philox is reset to each key in turn (its key, a zero counter and
    an empty buffer, the state a fresh generator starts in) and its
    Generator fills that key's row of one float64 array; _open_unit then
    runs once over the whole stack.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    u = np.empty((len(keys), count))
    philox = np.random.Philox(key=0)
    gen = np.random.Generator(philox)
    state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": (0, 0)},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for row, key in zip(u, keys):
        state["state"]["key"] = _philox_key(key._pool)
        philox.state = state
        gen.random(out=row)
    return _open_unit(u)


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
