import numpy as np
import pytest
from scipy.special import ndtri

from polyradii.estimates import Estimate, mean_and_stderr, power_estimate
from polyradii.streams import (
    StreamKey,
    _words_to_unit,
    standard_exponential,
    standard_normal,
    uniform,
)


def test_derive_appends_index():
    parent = StreamKey(7)
    assert parent.child(0) == StreamKey(7, (0,))
    assert parent.child(3).child(1) == StreamKey(7, (3, 1))


def test_derivation_is_pure():
    parent = StreamKey(42, (5,))
    assert parent.child(0) == parent.child(0)
    assert parent == StreamKey(42, (5,))


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
