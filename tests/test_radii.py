import math
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

from oracles import mean_width, outer_radius_points
from polyradii.bodies import make_body, sample_points
from polyradii.grassmann import haar_frames
from polyradii import parallel, radii
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


def test_an_empty_stack_projects_to_an_empty_result():
    # a stack of no frames runs one lane that takes no chunk
    sq = projected_sq_norms(np.ones((5, 3)), np.ones((0, 3, 2)), [1, 2])
    assert sq.shape == (0, 5, 2)


def _reduceat_cumsum(points, frames, ks):
    """The kernel's reference: the same GEMM on one BLAS thread, as the kernel
    runs it, and the same square, then numpy's own segment sums and prefix sums."""
    with parallel.one_blas_thread():
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
                        ([3, 2], "strictly increasing within 1..4"),
                        # a fraction is not truncated, and a string is no k
                        ([2.5], "k=2.5 is not an integer"),
                        ([1, 2.7, 4], "k=2.7 is not an integer"),
                        (["2"], "k='2' is not an integer")):
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


@pytest.mark.parametrize("block", [1 << 6, 1 << 8, 1 << 12, 1 << 16, 1 << 20])
def test_blocked_profile_equals_the_reference_loop(key, monkeypatch, block):
    # a chunk's products fit in _BLOCK floats unless its flag is cut into row
    # chunks, and so do the frames of one chunk per lane; the lanes draw
    # their chunks in any order
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
        PointCloud(sample_points(make_body("simplex", n), 40_000, key.child(34))),  # cut into rows
    ]
    # the GEMM floor makes rescore chunks of 16 416 points at n = w = 8
    assert radii._chunk_rule(40_000, n, n, True)[1] == (block <= 1 << 16)
    for c, cloud in enumerate(clouds):
        for ks in (None, [1], [n], [2, 3, 7]):
            for M in (2, 5, 20):
                sizes.clear()
                prof = radius_profile(cloud, M, key.child(35).child(c).child(M), ks)
                values, stderrs = _reference_profile(
                    cloud, M, key.child(35).child(c).child(M), prof.ks)
                assert np.array_equal(prof.values, values)
                assert np.array_equal(prof.stderrs, stderrs)
                N, kmax = cloud.points.shape[0], int(prof.ks[-1])
                per_chunk, cut = radii._chunk_rule(N, n, kmax, True)
                lanes = parallel.lane_count(-(-M // per_chunk), per_chunk * N * kmax)
                B = min(M, per_chunk, max(1, block // (lanes * n * kmax)))
                assert sorted(sizes) == sorted([B] * (M // B) + ([M % B] if M % B else []))
                seen.update({"several" if B > 1 else "one flag per chunk",
                             "ragged" if M % B else "even"})
                if cut:
                    seen.add("cut into rows")
    # a chunk holds a single flag wherever the 40 000-point flags are cut
    # into rows, at every _BLOCK up to 2^16 floats
    single = {"one flag per chunk", "cut into rows"} if block <= 1 << 16 else set()
    assert seen == {"several", "ragged", "even"} | single


@pytest.mark.parametrize("N", [256, 64])
def test_lanes_draw_the_flags_they_project(key, monkeypatch, N):
    # 64 flags at n = 64 are chunks of 4 flags at N = 256 (the products' bound)
    # and of 2^16 // (lanes * 64 * 64) flags at N = 64 (the frames' bound over
    # all lanes); each lane draws the flags of the chunks it takes, so every
    # lane's thread draws frames, and the profile keeps the per-flag bits
    n, M = 64, 64
    cloud = PointCloud(sample_points(make_body("cube", n), N, key.child(48).child(N)))
    draws = []
    real_frames = radii.haar_frames

    def recording_frames(n, k, keys):
        draws.append((threading.get_ident(), len(keys)))
        time.sleep(0.002)
        return real_frames(n, k, keys)

    monkeypatch.setattr(radii, "haar_frames", recording_frames)
    values, stderrs = _reference_profile(cloud, M, key.child(49), np.arange(1, n + 1))
    # a helper for each lane after the first, whatever os.cpu_count() says
    with ThreadPoolExecutor(2) as helpers:
        monkeypatch.setattr(parallel, "_helpers", helpers)
        for lanes in (2, 3):
            monkeypatch.setattr(parallel, "_usable_cpus", lambda: lanes)
            draws.clear()
            prof = radius_profile(cloud, M, key.child(49))
            assert np.array_equal(prof.values, values) and np.array_equal(prof.stderrs, stderrs)
            bound = max(1, radii._BLOCK // (lanes * n * n))
            sizes = [size for _, size in draws]
            assert len({ident for ident, _ in draws}) == lanes
            assert max(sizes) <= bound and sum(sizes) == M
            B = min(bound, radii._BLOCK // (N * n))
            assert sorted(sizes, reverse=True) == [B] * (M // B) + ([M % B] if M % B else [])


def test_a_failed_frame_draw_in_a_helper_lane_stops_the_profile(key, monkeypatch):
    # a ValueError in a helper lane's frame draw is raised by radius_profile
    # once every lane has stopped; numpy's BLAS gets its thread count back, and
    # the next profile has the per-flag bits
    cloud = PointCloud(sample_points(make_body("cube", 64), 256, key.child(50)))
    real_frames = radii.haar_frames

    def failing_frames(n, k, keys):
        if threading.current_thread() is not threading.main_thread():
            raise ValueError("helper draw")
        time.sleep(0.005)
        return real_frames(n, k, keys)

    blas = parallel._openblas()
    old = blas[0]() if blas else None
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
    try:
        if blas:
            blas[1](2)
        with monkeypatch.context() as patch:
            patch.setattr(radii, "haar_frames", failing_frames)
            with pytest.raises(ValueError, match="helper draw"):
                radius_profile(cloud, 64, key.child(51))
        if blas:
            assert blas[0]() == 2
        prof = radius_profile(cloud, 64, key.child(51), [1, 8, 64])
    finally:
        if blas:
            blas[1](old)
    values, stderrs = _reference_profile(cloud, 64, key.child(51), prof.ks)
    assert np.array_equal(prof.values, values) and np.array_equal(prof.stderrs, stderrs)


@pytest.mark.parametrize("shape, ks", [((1, 624, 100), [1, 10, 50, 100]),
                                       ((4, 256, 64), list(range(1, 65)))])
def test_max_kernel_sums_segment_major_with_the_same_bits(key, shape, ks):
    # the max kernel sums into a (B, len(ks), rows) array, so its max runs over
    # contiguous rows; its maxima equal those of point-major sums with zero
    # tolerance, on an in-regime unit (reduceat) and a block of small flags.
    # It raises its output, started at zero, to the max: an entry that starts
    # above the max keeps its value
    sq = standard_normal(key.child(52), math.prod(shape)).reshape(shape)
    sums = np.empty(shape[:-1] + (len(ks),))
    radii._sum_segments(sq.copy(), ks, sums)
    expected = np.max(sums, axis=-2)
    got = np.zeros((shape[0], len(ks)))
    radii._max_sq_norms(sq.copy(), ks, got)
    assert np.array_equal(got, expected)
    start = np.where(np.arange(expected.size).reshape(expected.shape) % 2, 2 * expected, 0.0)
    got = start.copy()
    radii._max_sq_norms(sq.copy(), ks, got)
    assert np.array_equal(got, np.maximum(start, expected))
    assert np.array_equal(got[start > 0], start[start > 0])


def test_row_chunks_just_above_the_small_gemm_cut_keep_the_bits(key, monkeypatch):
    # OpenBLAS runs a GEMM of at most 10^6 multiply-adds on a small-matrix
    # kernel: at n = 100 and k = 50, chunks of 200 of these 10^4 points change
    # about 17 000 entries of the product, and 2 of these 8 x 50 maxima.
    # Rescore chunks of 201 rows, the fewest above the cut (from any row, as
    # there is no row tile at k = 50), must give the monolithic maxima at any
    # lane count
    monkeypatch.setattr(radii, "_BLOCK", 201 * 50)
    monkeypatch.setattr(radii, "_GEMM_FLOOR", 10**6 + 1)
    monkeypatch.setattr(radii, "_ROW_TILE", 1)
    n, N, M, ks = 100, 10_000, 8, np.arange(1, 51)
    assert radii._floor_rows(n, 50) == 201 and radii._chunk_rule(N, n, 50, True)[1]
    pts = sample_points(make_body("ball", n), N, key.child(40))
    frames = haar_frames(n, 50, [key.child(41).child(i) for i in range(M)])
    expected = np.stack([np.sqrt(np.max(projected_sq_norms(pts, frame, ks), axis=-2))
                         for frame in frames])
    for lanes in (1, 2, 3):
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: lanes)
        assert np.array_equal(radii._flag_radii(pts, M, key.child(41), ks), expected)


def test_row_chunks_keep_the_bits_of_the_whole_product(key, monkeypatch):
    # at one BLAS thread OpenBLAS computes a product in tiles of 12 rows, and
    # at w = 199 or 260 the last w % 8 columns of a row get other bits when
    # its chunk starts off that grid (chunks of 329 and 256 rows change
    # hundreds of entries); the max kernel's rescore chunks keep every entry,
    # also at the in-regime n = k = 100: the fewest rows on the _ROW_TILE
    # grid that do _GEMM_FLOOR multiply-adds, from a row's tile or, where
    # that passes the cloud's end, from the grid row that leaves as many to
    # N.  In a cloud of one repeated point every row ties, so the screen
    # keeps every row and each rescore chunk is projected; on 1, 2 and 3
    # usable CPUs each is reduced once, in row order
    tile = radii._ROW_TILE
    for n, w, N in ((200, 199, 4000), (260, 260, 3000), (100, 100, 10_000), (64, 33, 9001)):
        pts = standard_normal(key.child(42).child(n), N * n).reshape(N, n)
        frame = haar_frames(n, w, [key.child(43).child(n)])[0]
        assert radii._chunk_rule(N, n, w, True)[1]
        floor = radii._floor_rows(n, w)
        rows = (0, tile - 1, tile, N // 2, N - floor, N - 1)
        rescore = [radii._rescore_chunk(row, N, n, w) for row in rows]
        for row, (r0, r1) in zip(rows, rescore):
            assert r0 <= row < r1 and r0 % tile == 0 and (r1 - r0) * n * w >= radii._GEMM_FLOOR
            assert r1 - r0 == floor or r1 == N and floor < r1 - r0 < floor + tile
        assert rescore[-1] == ((N - floor) // tile * tile, N)
        assert rescore[-1][0] < (N - 1) // tile * tile  # extended back
        with parallel.one_blas_thread():
            whole = pts @ frame
            for r0, r1 in rescore:
                assert np.array_equal(pts[r0:r1] @ frame, whole[r0:r1]), (n, w, r0, r1)
            repeated = np.repeat(pts[:1], N, axis=0)
            whole = repeated @ frame
        if w not in (199, 260):
            continue
        # every row's chunk, in row order: floor-row chunks, the last extended back
        every, end = [], 0
        while end < N:
            every.append(radii._rescore_chunk(end, N, n, w))
            end = every[-1][1]
        for cpus in (1, 2, 3):
            monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)
            chunks = []

            def keep(product, lo, hi):
                assert (lo, hi) == (0, 1)
                chunks.append(product[0].copy())

            radii._project_stack(repeated, lambda lo, hi: frame[None], 1, w, keep, np.array([w]),
                                 np.einsum("ij,ij->i", repeated, repeated))
            assert len(chunks) == len(every)
            for (r0, r1), chunk in zip(every, chunks):
                assert np.array_equal(chunk, whole[r0:r1]), (n, w, cpus, r0, r1)


def test_later_row_chunks_raise_the_running_max(key):
    # a 50 000 x 8 cloud is cut into rows by the default chunk rule (a
    # 9000 x 8 one is not: it holds fewer than two rescore chunks of 16 416
    # rows); with every point at the origin but one, in the first rescore
    # chunk or in the last, each flag's max comes from that chunk alone, so
    # the running max must take it there and keep it; the all-origin cloud
    # gives radii of exactly 0
    n, N, M = 8, 50_000, 5
    assert radii._chunk_rule(N, n, n, True)[1] and not radii._chunk_rule(9000, n, n, True)[1]
    first, last = radii._rescore_chunk(0, N, n, n), radii._rescore_chunk(N - 1, N, n, n)
    assert first[1] <= last[0]
    points = np.zeros((N, n))
    cloud = PointCloud(points)
    prof = radius_profile(cloud, M, key.child(53))
    assert np.array_equal(prof.values, np.zeros(n)) and np.array_equal(prof.stderrs, np.zeros(n))
    for j in (N - 1, first[1] - 1):
        points[:] = 0.0
        points[j] = standard_normal(key.child(54), n)
        for ks in (None, [1], [2, 3, 7]):
            prof = radius_profile(cloud, M, key.child(55), ks)
            values, stderrs = _reference_profile(cloud, M, key.child(55), prof.ks)
            assert np.all(values > 0)
            assert np.array_equal(prof.values, values) and np.array_equal(prof.stderrs, stderrs)


def _screened_clouds(key, n, N):
    """Clouds that the max kernel's screen must not get wrong: ties, repeats,
    zeros and scales far from 1."""
    cube = sample_points(make_body("cube", n), N, key)
    shell = standard_normal(key.child(1), N * n).reshape(N, n)
    shell /= np.sqrt(np.sum(shell**2, axis=1))[:, None]  # every |x_j| ties up to rounding
    repeated = cube.copy()
    top = repeated[np.argmax(np.sum(repeated**2, axis=1))].copy()
    repeated[[3, N // 2, N - 1]] = top  # the longest point in three row chunks
    # the longest point with each coordinate moved by about 3e-7 and 1e-15
    # of itself: the top rows' projections then differ by less than the
    # float32 screen's rounding, and their norms by less than the float64
    # kernel's, so a screen without its bound E_k misses maxima here
    jitter = standard_normal(key.child(2), N * n).reshape(N, n)
    return {
        "shell": shell,
        "repeated": repeated,
        "near ties in float32": top * (1 + 3e-7 * jitter),
        "near ties in float64": top * (1 + 1e-15 * jitter),
        "collinear": np.linspace(-1, 1, N)[:, None] * np.linspace(0.5, 1.5, n),
        "origin": np.zeros((N, n)),
        "cube * 2^60": cube * 2.0**60,
        "cube * 2^-60": cube * 2.0**-60,
        "cube * 2^-540": cube * 2.0**-540,  # float64 squares underflow
    }


@pytest.mark.parametrize("ks", [[64], [1, 8, 64], [2, 32], [3, 63]])
def test_screened_flags_equal_the_reference_loop(key, monkeypatch, ks):
    # every flag here is cut into row chunks, so its lane screens it in
    # float32 and projects in float64 only the rescore chunks of its
    # candidates; the profile must have the per-flag reference's bits, with
    # the top column k = n screened by the norms and without it
    n, N, M = 64, 10_000, 5
    assert radii._chunk_rule(N, n, ks[-1], True)[1]
    chunks = []
    real_chunk = radii._rescore_chunk

    def rescore_chunk(*args):
        chunks.append(args)
        return real_chunk(*args)

    monkeypatch.setattr(radii, "_rescore_chunk", rescore_chunk)
    for name, points in _screened_clouds(key.child(56), n, N).items():
        chunks.clear()
        cloud = PointCloud(points)
        prof = radius_profile(cloud, M, key.child(57), ks)
        values, stderrs = _reference_profile(cloud, M, key.child(57), prof.ks)
        assert np.array_equal(prof.values, values), name
        assert np.array_equal(prof.stderrs, stderrs), name
        assert len(chunks) >= M, name
        if name == "origin":
            assert not np.any(prof.values) and not np.any(prof.stderrs)


def test_clouds_the_screen_cannot_bound_are_rejected(key):
    # a NaN or an infinite coordinate, or squared norms of 2^1000 and more,
    # leave the float32 screen no bound, so radius_profile raises ValueError
    # for them before any flag is drawn, and warns of nothing; squared norms
    # up to 2^998 are accepted and keep the per-flag reference's bits
    n, N, M, ks = 16, 20_000, 4, [1, 4, 16]
    assert radii._chunk_rule(N, n, 16, True)[1]
    cube = sample_points(make_body("cube", n), N, key.child(58))
    assert np.max(np.sum((cube * 2.0**500) ** 2, axis=1)) >= 2.0**1000
    rejected = [cube * 2.0**500]
    for value in (np.nan, np.inf, -np.inf):
        rejected.append(cube.copy())
        rejected[-1][N // 2, 3] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for points in rejected:
            with pytest.raises(ValueError, match="finite and below 2\\^1000"):
                radius_profile(PointCloud(points), M, key.child(59), ks)
    cloud = PointCloud(cube * 2.0**498)
    assert np.max(np.sum(cloud.points**2, axis=1)) <= 2.0**998
    prof = radius_profile(cloud, M, key.child(59), ks)
    values, stderrs = _reference_profile(cloud, M, key.child(59), prof.ks)
    assert np.array_equal(prof.values, values) and np.array_equal(prof.stderrs, stderrs)


@pytest.mark.parametrize("n, N, ks", [(260, 3000, [1, 199, 260]), (100, 10_000, [1, 100])])
def test_profiles_have_the_same_bits_at_any_blas_thread_and_lane_count(
        key, monkeypatch, n, N, ks):
    # at 2 BLAS threads OpenBLAS gives row chunks of a 3000 x 260 product other
    # bits than the whole product, and the whole product other bits than at
    # one thread.  _flag_radii holds BLAS at one thread in any number of lanes,
    # so one flag per block (n * max(k) > 2^16) and blocks of 6 flags (10^4 x
    # 100 products) give the one-thread per-flag bits at 1 and 2 BLAS threads
    # and on 1, 2 and 3 usable CPUs, and the caller's thread count comes back
    blas = parallel._openblas()
    if not blas:
        pytest.skip("numpy's BLAS exposes no thread count")
    get, set_threads = blas
    ks, M = np.array(ks), 6
    pts = sample_points(make_body("cube", n), N, key.child(44).child(n))
    frames = haar_frames(n, ks[-1], [key.child(45).child(i) for i in range(M)])
    expected = np.stack([np.sqrt(np.max(_reduceat_cumsum(pts, frame, ks), axis=0))
                         for frame in frames])
    old = get()
    try:
        for threads in (1, 2):
            set_threads(threads)
            for cpus in (1, 2, 3):
                monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)
                assert np.array_equal(radii._flag_radii(pts, M, key.child(45), ks), expected)
                assert get() == threads
    finally:
        set_threads(old)


@pytest.mark.parametrize("n, N, ks", [(100, 10_000, [1, 10, 50, 100]), (16, 64, [1, 4, 8, 16])])
def test_segment_sums_never_write_over_their_input(key, monkeypatch, n, N, ks):
    # each unit of the max kernel sums its segments into an array of its own:
    # on the in-regime cell, whose 50-column segment goes to np.add.reduceat,
    # and on a block of small flags, summed by column adds, at 1 and 2 usable
    # CPUs, and the profile keeps the bits of the per-flag reference
    overlaps, widest = [], []
    sum_segments = radii._sum_segments

    def checked(sq, ks, out):
        overlaps.append(np.shares_memory(sq, out))
        widest.append(int(max(np.diff([0, *ks]))))
        sum_segments(sq, ks, out)

    monkeypatch.setattr(radii, "_sum_segments", checked)
    cloud = PointCloud(sample_points(make_body("cube", n), N, key.child(46).child(n)))
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)
        overlaps.clear()
        prof = radius_profile(cloud, 4, key.child(47), ks)
        assert len(overlaps) > 0 and not any(overlaps)
        values, stderrs = _reference_profile(cloud, 4, key.child(47), prof.ks)
        assert np.array_equal(prof.values, values) and np.array_equal(prof.stderrs, stderrs)
    assert set(widest) == {50 if n == 100 else 8}


def test_row_chunks_never_fall_to_the_small_gemm_cut():
    # a flag is cut into rows only when its N x w product exceeds _BLOCK
    # floats and the cloud holds two rescore chunks; then every rescore
    # chunk starts on the _ROW_TILE grid, does at least _GEMM_FLOOR (more
    # than 10^6) multiply-adds and lies in [0, N]
    tile = radii._ROW_TILE
    for n in (1, 2, 3, 8, 15, 16, 17, 64, 100, 128, 256, 1000):
        for w in sorted({1, 2, max(1, n // 2), n}):
            for N in (1, 10, 999, 4097, 2**16 + 1, 10**5, 10**6 + 7):
                per_chunk, cut = radii._chunk_rule(N, n, w, True)
                floor = radii._floor_rows(n, w)
                assert per_chunk == max(1, radii._BLOCK // (N * w))
                assert cut == (N * w > radii._BLOCK and N >= 2 * floor)
                assert radii._chunk_rule(N, n, w, False) == (per_chunk, False)
                if not cut:
                    continue
                for row in {0, tile - 1, floor - 1, floor, N // 2, N - floor - 1, N - floor,
                            N - tile, N - 1}:
                    r0, r1 = radii._rescore_chunk(row, N, n, w)
                    assert 0 <= r0 <= row < r1 <= N and r0 % tile == 0
                    assert (r1 - r0) * n * w >= radii._GEMM_FLOOR > 10**6


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
