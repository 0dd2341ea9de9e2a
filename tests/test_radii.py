import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

from polyradii.bodies import make_body, sample
from polyradii.grassmann import Subspace, haar_subspace
from polyradii.radii import (
    PointCloud,
    mean_width,
    outer_radius_points,
    projected_radius,
    projected_sq_norms,
    radius_profile,
    symmetrize,
)
from polyradii.streams import standard_normal


def _cloud(points):
    return PointCloud(np.asarray(points, dtype=float))


def test_outer_radius_points():
    assert outer_radius_points(_cloud([[0, 0], [3, 4]])) == 5.0
    assert outer_radius_points(_cloud([[1, 2, 2]])) == 3.0
    with pytest.raises(ValueError):
        PointCloud(np.empty((0, 2)))


def test_symmetrization_keeps_projected_radii(key):
    pts = standard_normal(key.child(0), 60).reshape(20, 3)
    cloud = _cloud(pts)
    sym = symmetrize(cloud)
    assert outer_radius_points(sym) == outer_radius_points(cloud)
    for i in range(20):
        F = Subspace(haar_subspace(3, 2, key.child(1).child(i)))
        assert projected_radius(sym, F) == projected_radius(cloud, F)


def test_projected_radius_examples():
    cloud = _cloud([[3, 4], [1, -7]])
    F = Subspace(np.array([[1.0], [0.0]]))
    assert projected_radius(cloud, F) == 3.0
    full = Subspace(np.eye(2))
    assert projected_radius(cloud, full) == pytest.approx(
        outer_radius_points(cloud), rel=1e-12
    )
    bigger = _cloud([[3, 4], [1, -7], [9, 0]])
    assert projected_radius(bigger, F) >= projected_radius(cloud, F)
    with pytest.raises(ValueError):
        projected_radius(_cloud([[1.0, 2.0, 3.0]]), F)


def test_projected_sq_norms_monotone_and_complete(key):
    # rows nondecreasing in k with zero tolerance, on a sample and on the
    # single-point and collinear clouds of the profile_monotone check
    n = 16
    clouds = [
        sample(make_body("cube", n), 256, key.child(30)).points,
        np.ones((1, n)) * 0.1,
        np.linspace(-0.3, 0.3, 7)[:, None] * np.ones(n) / math.sqrt(n),
    ]
    for i, pts in enumerate(clouds):
        frame = haar_subspace(n, n, key.child(31).child(i))
        for ks in (np.arange(1, n + 1), np.array([1, 4, 8, 16]), [5]):
            sq = projected_sq_norms(pts, frame, ks)
            assert sq.shape == (pts.shape[0], len(ks))
            assert np.all(np.diff(sq, axis=1) >= 0.0)
        full = projected_sq_norms(pts, frame, [n])[:, 0]
        np.testing.assert_allclose(full, np.sum(pts**2, axis=1), rtol=1e-12, atol=0.0)


def test_projection_contraction(key):
    pts = standard_normal(key.child(2), 100).reshape(20, 5)
    cloud = _cloud(pts)
    for i in range(10):
        F = Subspace(haar_subspace(5, 2, key.child(3).child(i)))
        assert projected_radius(cloud, F) <= outer_radius_points(cloud) + 1e-12


def test_mean_outer_radius_of_dense_ball_cloud(key):
    body = make_body("ball", 3)
    cloud = sample(body, 20000, key.child(4))
    for k in (1, 2, 3):
        est = radius_profile(cloud, 64, key.child(5).child(k), [k]).estimate(k)
        assert abs(est.value - body.scale) <= 3 * est.stderr + 0.01 * body.scale


def test_mean_outer_radius_cross_vertices(key):
    # closed-form mean width of conv{+-e1, +-e2}: average of max(|cos|, |sin|)
    expected = quad(lambda t: max(abs(math.cos(t)), abs(math.sin(t))) / (2 * math.pi),
                    0.0, 2 * math.pi)[0]
    assert expected == pytest.approx(2 * math.sqrt(2) / math.pi, abs=1e-9)
    cloud = _cloud([[1, 0], [-1, 0], [0, 1], [0, -1]])
    est = radius_profile(cloud, 5000, key.child(6), [1]).estimate(1)
    assert abs(est.value - expected) <= 3 * est.stderr


def test_mean_outer_radius_full_dimension_is_exact(key):
    pts = standard_normal(key.child(7), 80).reshape(16, 5)
    cloud = _cloud(pts)
    est = radius_profile(cloud, 8, key.child(8), [5]).estimate(5)
    assert est.value == pytest.approx(outer_radius_points(cloud), rel=1e-12)
    assert est.stderr <= 1e-12 * est.value
    with pytest.raises(ValueError):
        radius_profile(cloud, 8, key.child(8), [6]).estimate(6)


def test_profile_monotone_exactly(key):
    clouds = [
        _cloud(standard_normal(key.child(9), 300).reshape(50, 6)),
        _cloud(np.full((1, 6), 0.3)),  # single point
        _cloud(np.linspace(-1, 1, 9)[:, None] * np.ones(6)),  # collinear
    ]
    for cloud in clouds:
        prof = radius_profile(cloud, 16, key.child(10))
        assert np.all(np.diff(prof.values) >= 0.0)


def test_profile_endpoint_and_subset(key):
    pts = standard_normal(key.child(11), 200).reshape(40, 5)
    cloud = _cloud(pts)
    prof = radius_profile(cloud, 8, key.child(12))
    assert prof.values[-1] == pytest.approx(outer_radius_points(cloud), rel=1e-12)
    sub = radius_profile(cloud, 8, key.child(12), ks=np.array([2, 5]))
    # same flags, same per-point partial sums up to segment regrouping
    assert sub.values[0] == pytest.approx(prof.values[1], rel=1e-12)
    assert sub.values[1] == pytest.approx(prof.values[4], rel=1e-12)
    with pytest.raises(ValueError):
        radius_profile(cloud, 8, key.child(12), ks=np.array([3, 3]))
    with pytest.raises(ValueError):
        radius_profile(cloud, 8, key.child(12), ks=np.array([0, 2]))


def test_profile_flat_for_dense_ball(key):
    body = make_body("ball", 3)
    cloud = sample(body, 20000, key.child(13))
    prof = radius_profile(cloud, 32, key.child(14))
    for value, stderr in zip(prof.values, prof.stderrs):
        assert abs(value - body.scale) <= 3 * stderr + 0.01 * body.scale


def test_profile_marginal_matches_mean_outer_radius(key):
    body = make_body("cube", 4)
    cloud = sample(body, 500, key.child(15))
    prof = radius_profile(cloud, 256, key.child(16))
    for k in (1, 2, 4):
        est = radius_profile(cloud, 256, key.child(17).child(k), [k]).estimate(k)
        combined = math.hypot(prof.estimate(k).stderr, est.stderr)
        # + rounding slack: at k = n both sides are deterministic
        assert abs(prof.estimate(k).value - est.value) <= 3 * combined + 1e-12 * est.value


def test_profile_flags_are_as_wide_as_the_largest_k(key):
    # flag i is haar_subspace(n, max(ks), key.child(i)); a one-k profile is the
    # plain Monte Carlo mean over (n, k) Haar frames, bit for bit
    n, M = 7, 16
    pts = standard_normal(key.child(32), 30 * n).reshape(30, n)
    cloud = _cloud(pts)

    def per_flag_radii(width, ks):
        radii = np.empty((M, len(ks)))
        for i in range(M):
            frame = haar_subspace(n, width, key.child(i))
            radii[i] = np.sqrt(np.max(projected_sq_norms(pts, frame, ks), axis=0))
        return radii

    for k in (1, 3, n):
        expected = np.mean(per_flag_radii(k, [k])[:, 0])
        assert radius_profile(cloud, M, key, [k]).estimate(k).value == expected
    sub = radius_profile(cloud, M, key, ks=[2, 5])
    assert np.array_equal(sub.values, np.mean(per_flag_radii(5, [2, 5]), axis=0))


def test_profile_estimate_lookup(key):
    cloud = _cloud(standard_normal(key.child(18), 60).reshape(12, 5))
    prof = radius_profile(cloud, 4, key.child(19), ks=np.array([1, 3]))
    assert prof.estimate(3).value == prof.values[1]
    with pytest.raises(KeyError):
        prof.estimate(2)


def test_mean_width_examples(key):
    # conv{+-e1} in R^3: E |theta_1| over the sphere is exactly 1/2
    cloud = _cloud([[1, 0, 0], [-1, 0, 0]])
    est = mean_width(cloud, 20000, key.child(20))
    assert abs(est.value - 0.5) <= 3 * est.stderr

    body = make_body("ball", 2)
    dense = sample(body, 40000, key.child(21))
    est = mean_width(dense, 2000, key.child(22))
    assert abs(est.value - body.scale) <= 3 * est.stderr + 0.01 * body.scale


def test_mean_width_agrees_with_k1_radius(key):
    cloud = sample(make_body("cross", 3), 1000, key.child(23))
    a = mean_width(cloud, 4000, key.child(24))
    b = radius_profile(cloud, 4000, key.child(25), [1]).estimate(1)
    assert abs(a.value - b.value) <= 3 * math.hypot(a.stderr, b.stderr)


def test_rotation_equivariance_distribution(key):
    # a fixed rotation of the cloud leaves the estimator's law unchanged
    pts = standard_normal(key.child(26), 90).reshape(30, 3)
    u_mat = haar_subspace(3, 3, key.child(27))
    a = np.empty(200)
    b = np.empty(200)
    for i in range(200):
        a[i] = radius_profile(_cloud(pts), 8, key.child(28).child(i), [2]).estimate(2).value
        b[i] = radius_profile(
            _cloud(pts @ u_mat.T), 8, key.child(29).child(i), [2]
        ).estimate(2).value
    assert ks_2samp(a, b).pvalue > 0.01
