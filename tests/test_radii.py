import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

from oracles import mean_width, outer_radius_points
from polyradii.bodies import make_body, sample_points
from polyradii.grassmann import haar_frames
from polyradii import radii
from polyradii.radii import (
    PointCloud,
    projected_sq_norms,
    radius_profile,
)
from polyradii.streams import generator, standard_normal, uniform


def _cloud(points):
    return PointCloud(np.asarray(points, dtype=float))


def _projected_radius(cloud, F):
    """max_j |P_F X_j| for a frame F with orthonormal columns."""
    return math.sqrt(np.max(projected_sq_norms(cloud.points, F, [F.shape[1]])))


def test_outer_radius_points():
    assert outer_radius_points(_cloud([[0, 0], [3, 4]])) == 5.0
    assert outer_radius_points(_cloud([[1, 2, 2]])) == 3.0
    with pytest.raises(ValueError):
        PointCloud(np.empty((0, 2)))


def test_projected_radius_examples():
    cloud = _cloud([[3, 4], [1, -7]])
    F = np.array([[1.0], [0.0]])
    assert _projected_radius(cloud, F) == 3.0
    full = np.eye(2)
    assert _projected_radius(cloud, full) == pytest.approx(
        outer_radius_points(cloud), rel=1e-12
    )
    bigger = _cloud([[3, 4], [1, -7], [9, 0]])
    assert _projected_radius(bigger, F) >= _projected_radius(cloud, F)


def test_projected_sq_norms_monotone_and_complete(key):
    # rows nondecreasing in k with zero tolerance, on a sample and on the
    # single-point and collinear clouds of the profile_monotone check
    n = 16
    clouds = [
        sample_points(make_body("cube", n), 256, key.child(30)),
        np.ones((1, n)) * 0.1,
        np.linspace(-0.3, 0.3, 7)[:, None] * np.ones(n) / math.sqrt(n),
    ]
    for i, pts in enumerate(clouds):
        frame = haar_frames(n, n, [key.child(31).child(i)])[0]
        for ks in (np.arange(1, n + 1), np.array([1, 4, 8, 16]), [5]):
            sq = projected_sq_norms(pts, frame, ks)
            assert sq.shape == (pts.shape[0], len(ks))
            assert np.all(np.diff(sq, axis=1) >= 0.0)
        full = projected_sq_norms(pts, frame, [n])[:, 0]
        np.testing.assert_allclose(full, np.sum(pts**2, axis=1), rtol=1e-12, atol=0.0)


def _reduceat_cumsum(points, frames, ks):
    """The kernel's reference: the same GEMM and square, then numpy's own
    segment sums and prefix sums."""
    sq = points @ frames[..., : ks[-1]]
    np.square(sq, out=sq)
    return np.cumsum(np.add.reduceat(sq, [0, *ks[:-1]], axis=-1), axis=-1)


def test_segment_sums_match_reduceat_cumsum(key):
    # coordinates scaled by 10^-6..10^6 and a signed permutation as the first
    # frame spread the squares over about 1e-12..1e12, so that different
    # summation orders round differently (asserted below); two Haar frames follow
    n = 130
    scales = 10.0 ** (12.0 * uniform(key.child(40), 64 * n) - 6.0)
    perm = np.eye(n)[:, generator(key.child(41)).permutation(n)] * np.sign(
        standard_normal(key.child(42), n))
    frames = np.stack([perm, *haar_frames(n, n, [key.child(43), key.child(44)])])
    clouds = [
        standard_normal(key.child(45), 64 * n).reshape(64, n) * scales.reshape(64, n),
        np.ones((1, n)) * 0.1,  # N = 1
        np.linspace(-0.3, 0.3, 7)[:, None] * np.ones(n) / math.sqrt(n),  # collinear
    ]
    gen = generator(key.child(46))
    grids = [[w] for w in (*range(1, 21), 129, 130)]
    for _ in range(20):  # random increasing ks, some with segments over 8 columns
        kmax = int(gen.integers(1, n + 1))
        size = int(gen.integers(1, kmax + 1))
        grids.append(sorted({kmax, *gen.choice(np.arange(1, kmax + 1), size, replace=False)}))
    for _ in range(20):  # segments of at most 8 columns
        ks = np.cumsum(gen.integers(1, 9, size=int(gen.integers(1, 17))))
        grids.append([int(k) for k in ks if k <= n])
    for pts in clouds:
        for frame in (frames[0], frames):
            for ks in grids:
                got = projected_sq_norms(pts, frame, ks)
                assert got.shape == (*frame.shape[:-2], pts.shape[0], len(ks))
                assert np.array_equal(got, _reduceat_cumsum(pts, frame, ks)), ks
    # plain left-to-right summation ((a0 + a1) + a2) + ... differs on this data
    sq = np.square(clouds[0] @ frames[0])
    for w in (*range(3, 21), 129, 130):
        left_to_right = sq[:, 0].copy()
        for c in range(1, w):
            left_to_right += sq[:, c]
        assert np.any(left_to_right != projected_sq_norms(clouds[0], frames[0], [w])[:, 0]), w


def test_projection_contraction(key):
    pts = standard_normal(key.child(2), 100).reshape(20, 5)
    cloud = _cloud(pts)
    for i in range(10):
        F = haar_frames(5, 2, [key.child(3).child(i)])[0]
        assert _projected_radius(cloud, F) <= outer_radius_points(cloud) + 1e-12


def test_mean_outer_radius_of_dense_ball_cloud(key):
    body = make_body("ball", 3)
    cloud = PointCloud(sample_points(body, 20000, key.child(4)))
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


def test_profile_k_errors_name_the_problem(key):
    cloud = _cloud(standard_normal(key.child(36), 40).reshape(10, 4))
    for ks, message in (([5], "k=5 outside 1..4"), ([0, 2], "k=0 outside 1..4"),
                        ([3, 3], "strictly increasing within 1..4"),
                        ([3, 2], "strictly increasing within 1..4")):
        with pytest.raises(ValueError, match=message):
            radius_profile(cloud, 8, key.child(37), ks)


def test_profile_flat_for_dense_ball(key):
    body = make_body("ball", 3)
    cloud = PointCloud(sample_points(body, 20000, key.child(13)))
    prof = radius_profile(cloud, 32, key.child(14))
    for value, stderr in zip(prof.values, prof.stderrs):
        assert abs(value - body.scale) <= 3 * stderr + 0.01 * body.scale


def test_profile_marginal_matches_mean_outer_radius(key):
    body = make_body("cube", 4)
    cloud = PointCloud(sample_points(body, 500, key.child(15)))
    prof = radius_profile(cloud, 256, key.child(16))
    for k in (1, 2, 4):
        est = radius_profile(cloud, 256, key.child(17).child(k), [k]).estimate(k)
        combined = math.hypot(prof.estimate(k).stderr, est.stderr)
        # + rounding slack: at k = n both sides are deterministic
        assert abs(prof.estimate(k).value - est.value) <= 3 * combined + 1e-12 * est.value


def test_profile_flags_are_as_wide_as_the_largest_k(key):
    # flag i is haar_frames(n, max(ks), [key.child(i)])[0]; a one-k profile is the
    # plain Monte Carlo mean over (n, k) Haar frames, bit for bit
    n, M = 7, 16
    pts = standard_normal(key.child(32), 30 * n).reshape(30, n)
    cloud = _cloud(pts)

    def per_flag_radii(width, ks):
        radii = np.empty((M, len(ks)))
        for i in range(M):
            frame = haar_frames(n, width, [key.child(i)])[0]
            radii[i] = np.sqrt(np.max(projected_sq_norms(pts, frame, ks), axis=0))
        return radii

    for k in (1, 3, n):
        expected = np.mean(per_flag_radii(k, [k])[:, 0])
        assert radius_profile(cloud, M, key, [k]).estimate(k).value == expected
    sub = radius_profile(cloud, M, key, ks=[2, 5])
    assert np.array_equal(sub.values, np.mean(per_flag_radii(5, [2, 5]), axis=0))


def _reference_profile(cloud, M, key, ks):
    """radius_profile one flag at a time, each flag drawn and projected alone;
    the blocked loop must give exactly these bits."""
    n = cloud.points.shape[1]
    per_flag = np.empty((M, len(ks)))
    for i in range(M):
        frame = haar_frames(n, int(ks[-1]), [key.child(i)])[0]
        per_flag[i] = np.sqrt(np.max(projected_sq_norms(cloud.points, frame, ks), axis=0))
    return np.mean(per_flag, axis=0), np.std(per_flag, axis=0, ddof=1) / np.sqrt(M)


@pytest.mark.parametrize("block", [1 << 12, 1 << 16, 1 << 20])
def test_blocked_profile_equals_the_reference_loop(key, monkeypatch, block):
    monkeypatch.setattr(radii, "_BLOCK", block)
    sizes = []

    def recording_frames(n, k, keys):
        sizes.append(len(keys))
        return haar_frames(n, k, keys)

    monkeypatch.setattr(radii, "haar_frames", recording_frames)
    n, seen = 8, set()
    clouds = [
        PointCloud(sample_points(make_body("cube", n), 1000, key.child(33))),
        _cloud(np.full((1, n), 0.3)),  # N = 1
        _cloud(np.linspace(-1, 1, 9)[:, None] * np.ones(n)),  # collinear
        PointCloud(sample_points(make_body("simplex", n), 9000, key.child(34))),  # N * n > 2^16
    ]
    for c, cloud in enumerate(clouds):
        for ks in (None, [1], [n], [2, 3, 7]):
            for M in (2, 5, 20):
                sizes.clear()
                prof = radius_profile(cloud, M, key.child(35).child(c).child(M), ks)
                values, stderrs = _reference_profile(
                    cloud, M, key.child(35).child(c).child(M), prof.ks)
                assert np.array_equal(prof.values, values)
                assert np.array_equal(prof.stderrs, stderrs)
                kmax = int(prof.ks[-1])
                B = max(1, min(M, block // (max(cloud.points.shape[0], n) * kmax)))
                assert sizes == [B] * (M // B) + ([M % B] if M % B else [])
                seen.update({"several" if B > 1 else "one flag per block",
                             "ragged" if M % B else "even"})
    # the 9000-point cloud needs more than 2^16 floats per flag
    single = {"one flag per block"} if block <= 1 << 16 else set()
    assert seen == {"several", "ragged", "even"} | single


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
    dense = PointCloud(sample_points(body, 40000, key.child(21)))
    est = mean_width(dense, 2000, key.child(22))
    assert abs(est.value - body.scale) <= 3 * est.stderr + 0.01 * body.scale


def test_mean_width_agrees_with_k1_radius(key):
    cloud = PointCloud(sample_points(make_body("cross", 3), 1000, key.child(23)))
    a = mean_width(cloud, 4000, key.child(24))
    b = radius_profile(cloud, 4000, key.child(25), [1]).estimate(1)
    assert abs(a.value - b.value) <= 3 * math.hypot(a.stderr, b.stderr)


def test_rotation_equivariance_distribution(key):
    # a fixed rotation of the cloud leaves the estimator's law unchanged
    pts = standard_normal(key.child(26), 90).reshape(30, 3)
    u_mat = haar_frames(3, 3, [key.child(27)])[0]
    a = np.empty(200)
    b = np.empty(200)
    for i in range(200):
        a[i] = radius_profile(_cloud(pts), 8, key.child(28).child(i), [2]).estimate(2).value
        b[i] = radius_profile(
            _cloud(pts @ u_mat.T), 8, key.child(29).child(i), [2]
        ).estimate(2).value
    assert ks_2samp(a, b).pvalue > 0.01
