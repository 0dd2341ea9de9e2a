import random

import numpy as np
import pytest
from scipy.special import ndtri

from oracles import _words_to_unit
from polyradii import streams
from polyradii.estimates import Estimate, mean_and_stderr, power_estimate
from polyradii.streams import (
    StreamKey,
    generator,
    standard_exponential,
    standard_normal,
    uniform,
    uniform_stack,
)

# roots and path entries at the edges of SeedSequence's 32-bit word coercion
_EDGES = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)


def _reference_philox(key: StreamKey) -> np.random.Philox:
    return np.random.Philox(np.random.SeedSequence(key.root, spawn_key=key.path))


def test_derive_appends_index():
    parent = StreamKey(7)
    assert parent.child(0) == StreamKey(7, (0,))
    assert parent.child(3).child(1) == StreamKey(7, (3, 1))


def test_derivation_is_pure():
    parent = StreamKey(42, (5,))
    assert parent.child(0) == parent.child(0)
    assert parent == StreamKey(42, (5,))
    # the carried pool takes no part in equality, hashing or the repr
    assert hash(parent.child(0)) == hash(StreamKey(42, (5, 0)))
    assert repr(parent.child(0)) == "StreamKey(root=42, path=(5, 0))"


def test_same_key_reproduces_stream_bitwise():
    k = StreamKey(123, (4, 5))
    a = standard_normal(k, 1000)
    b = standard_normal(k, 1000)
    assert a.tobytes() == b.tobytes()


def test_sibling_streams_uncorrelated():
    root = StreamKey(7)
    a = uniform(root.child(0), 10**5)
    b = uniform(root.child(1), 10**5)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.01
    assert abs(np.corrcoef(a[1:], b[:-1])[0, 1]) < 0.01


def test_key_validation():
    with pytest.raises(ValueError):
        StreamKey(-1)
    with pytest.raises(ValueError):
        StreamKey(0, (2**64,))


def test_key_rejects_non_integral_entries():
    # entries are taken with operator.index: a float is neither truncated
    # into another key nor left to fail at draw time
    with pytest.raises(ValueError):
        StreamKey(7, (1.5,))
    with pytest.raises(ValueError):
        StreamKey(7.0)
    with pytest.raises(ValueError):
        StreamKey(7, ("1",))
    with pytest.raises(ValueError):
        StreamKey(7).child(2.9)
    with pytest.raises(ValueError):
        StreamKey(7).child(-1)
    key = StreamKey(np.uint64(2**64 - 1), (np.int64(3),))
    assert key == StreamKey(2**64 - 1, (3,)) and type(key.root) is int


def test_derived_keys_match_seedsequence():
    # the Philox key of StreamKey(root, path), built by child() chains and
    # directly, is numpy's SeedSequence(root, spawn_key=path).generate_state(2, uint64)
    rng = random.Random(20260809)

    def entry():
        return rng.choice(_EDGES + (rng.randrange(2**32), rng.randrange(2**64)))

    for length in (0, 1, 3, 4, 6):
        for _ in range(500):
            root, path = entry(), tuple(entry() for _ in range(length))
            chained = StreamKey(root)
            for index in path:
                chained = chained.child(index)
            direct = StreamKey(root, path)
            assert chained == direct and hash(chained) == hash(direct)
            want = np.random.SeedSequence(root, spawn_key=path).generate_state(2, np.uint64)
            for key in (chained, direct):
                got = generator(key).bit_generator.state["state"]["key"]
                assert np.array_equal(got, want), (root, path)


def test_uniform_stack_equals_per_key_reference_words():
    # one Philox reset per key gives each row the words of a fresh
    # SeedSequence-built Philox; counts around 4 straddle its 4-word blocks
    keys = [StreamKey(root, path) for root in _EDGES
            for path in ((), (2**64 - 1,), (0, 2**32), (3, 1, 4, 1, 5, 9))]
    for count in (0, 1, 3, 4, 5, 257):
        want = np.stack([_words_to_unit(_reference_philox(key).random_raw(count) >> 11)
                         for key in keys])
        assert np.array_equal(uniform_stack(keys, count), want)
        assert uniform_stack([], count).shape == (0, count)
    with pytest.raises(ValueError):
        uniform_stack(keys, -1)


def test_uniform_open_interval():
    u = uniform(StreamKey(3), 10**5)
    assert u.min() > 0.0 and u.max() < 1.0
    assert uniform(StreamKey(3), 0).size == 0
    with pytest.raises(ValueError):
        uniform(StreamKey(3), -1)


def test_words_to_unit_stays_inside_open_interval():
    words = np.array([0, 1, 2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1], dtype=np.uint64)
    unclamped = (words + 0.5) * 2.0**-53
    assert unclamped[-1] == 1.0  # x + 0.5 rounds half to even above 2^52
    u = _words_to_unit(words.copy())
    assert np.all((u > 0.0) & (u < 1.0))
    assert np.array_equal(u[:-1], unclamped[:-1])
    assert u[-1] == u[-2] == 1.0 - 2.0**-52
    assert np.all(np.isfinite(ndtri(u)))


def test_uniform_maps_edge_words_as_the_reference():
    # a Philox whose buffer holds chosen raw words feeds them to
    # Generator.random, the package's draw, and _open_unit must then give the
    # reference's (x + 0.5) / 2^53 of each word x = raw >> 11, with 2^53 - 1
    # clamped below 1; the low 11 bits are set and must be dropped
    words = np.array([0, 1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 3, 2**53 - 2, 2**53 - 1],
                     dtype=np.uint64)
    philox = np.random.Philox(key=0)
    drawn = []
    for block in words.reshape(-1, 4):
        state = philox.state
        state["buffer"], state["buffer_pos"] = tuple(int(x) << 11 | 0x7FF for x in block), 0
        philox.state = state
        drawn.append(np.random.Generator(philox).random(4))
    u = streams._open_unit(np.concatenate(drawn))
    assert np.array_equal(u, _words_to_unit(words.copy()))
    assert u[0] == 2.0**-54 and u[-1] == u[-2] == u[-3] == np.max(u) == 1.0 - 2.0**-52


def test_uniform_equals_integers_reference():
    # uniform reads raw Philox words shifted right by 11; numpy's
    # integers(0, 2**53) never rejects on that range and returns the same words.
    # Counts around 4 straddle Philox's 4-word output blocks.
    keys = [
        StreamKey(0),
        StreamKey(2**64 - 1),
        StreamKey(9, (2**32, 2**64 - 1)),
        StreamKey(5, (1, 2, 3, 4, 5, 6)),
    ]
    for key in keys:
        for count in (0, 1, 3, 4, 5, 1001):
            reference = np.random.Generator(_reference_philox(key))
            words = reference.integers(0, 2**53, size=count, dtype=np.uint64)
            assert np.array_equal(uniform(key, count), _words_to_unit(words))


def test_transforms_match_out_of_place_reference():
    key = StreamKey(17, (3,))
    for count in (0, 1, 5, 1001):
        assert np.array_equal(standard_normal(key, count), ndtri(uniform(key, count)))
        assert np.array_equal(standard_exponential(key, count), -np.log(uniform(key, count)))


def test_normal_moments():
    z = standard_normal(StreamKey(11), 10**6)
    assert abs(z.mean()) < 0.005
    assert abs(z.var(ddof=1) - 1.0) < 0.01
    assert standard_normal(StreamKey(11), 0).size == 0


def test_exponential_mean():
    e = standard_exponential(StreamKey(13), 10**6)
    assert abs(e.mean() - 1.0) < 0.005
    assert e.min() > 0.0


def test_mean_and_stderr_basics():
    est = mean_and_stderr([1.0, 1.0, 1.0])
    assert est.value == 1.0 and est.stderr == 0.0
    est = mean_and_stderr([0.0, 2.0])
    assert est.value == 1.0
    assert est.stderr == pytest.approx(1.0)  # s = sqrt(2), stderr = s / sqrt(2)
    with pytest.raises(ValueError, match="empty sample"):
        mean_and_stderr([])


def test_mean_reduction_fixed_order(key):
    # Reduction happens over the array as given; identical input, identical bits.
    xs = standard_normal(key, 10001)
    a = mean_and_stderr(xs)
    b = mean_and_stderr(xs)
    assert (a.value, a.stderr) == (b.value, b.stderr)


def test_estimate_invariants():
    with pytest.raises(ValueError):
        Estimate(1.0, -1e-9)


def test_power_estimate_delta_method():
    est = Estimate(4.0, 0.1)
    rooted = power_estimate(est, 0.5)
    assert rooted.value == 2.0
    assert rooted.stderr == pytest.approx(0.5 * 4.0**-0.5 * 0.1)
    with pytest.raises(ValueError):
        power_estimate(Estimate(-1.0, 0.1), 0.5)
