import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import poch
from scipy.stats import kstest, norm

from conftest import chi_max_mc
from oracles import GAUSSIAN_RATIO_BAND, GAUSSIAN_RATIO_CALIBRATION, chi_cdf
from polyradii import cli, gaussian, parallel, radii
from polyradii.estimates import mean_and_stderr
from polyradii.gaussian import (
    expected_max_chi,
    gaussian_cloud,
    tail_sandwich_check,
    projected_max_mc,
    tail_integral,
)
from polyradii.grassmann import haar_frames
from polyradii.radii import _BLOCK, PointCloud, projected_sq_norms, radius_profile


def test_chi_cdf_values():
    assert chi_cdf(4, 0.0) == 0.0
    # dimension 2 closed form: 1 - exp(-t^2/2)
    assert chi_cdf(2, 1.0) == pytest.approx(1 - math.exp(-0.5), abs=1e-12)
    # dimension 1: 2 Phi(t) - 1
    t = norm.ppf(0.975)
    assert chi_cdf(1, t) == pytest.approx(0.95, abs=1e-9)
    with pytest.raises(ValueError):
        chi_cdf(2, -0.1)
    with pytest.raises(ValueError):
        chi_cdf(0, 1.0)
    grid = np.linspace(0, 5, 11)
    assert np.all(np.diff(chi_cdf(3, grid)) > 0)


def test_expected_max_chi_closed_forms():
    assert expected_max_chi(1, 1) == pytest.approx(math.sqrt(2 / math.pi), abs=1e-8)
    assert expected_max_chi(3, 1) == pytest.approx(2 * math.sqrt(2 / math.pi), abs=1e-8)
    assert expected_max_chi(1, 2) == pytest.approx(2 / math.sqrt(math.pi), abs=1e-8)


def test_expected_max_chi_against_direct_quadrature():
    # independent route: integrate the survival with plain cdf powers
    for k, N in [(2, 7), (5, 100)]:
        direct, _ = quad(lambda t: 1 - chi_cdf(k, t) ** N, 0, 60, limit=300)
        assert expected_max_chi(k, N) == pytest.approx(direct, abs=1e-7)


def test_expected_max_chi_closed_form_at_large_k():
    # at k = 10^7 the drop of 1 - F near sqrt(k) is O(1) wide: one quadrature
    # from 0 missed it and returned sqrt(k).  E chi_k has the closed form
    # sqrt(2) Gamma((k+1)/2) / Gamma(k/2), taken through poch, which keeps its
    # digits where a difference of gammaln values loses them
    k = 10**7
    assert expected_max_chi(k, 1) == pytest.approx(math.sqrt(2) * poch(k / 2, 0.5), abs=1e-7)


def test_expected_max_chi_grows_with_N_at_large_k():
    # the same miss returned sqrt(k) for every N
    vals = [expected_max_chi(10**7, N) for N in (1, 10, 1000)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_expected_max_chi_at_the_largest_documented_N():
    # at N = 10^303 gammaincc's survival values turn subnormal inside the
    # window.  Reference: mpmath at 50 digits, mp.quad of
    # -expm1(N log1p(-erfc(t / sqrt 2))) over [0, c-4, c-1, c, c+1, c+4, inf]
    # with c = sqrt(2 log N), the integrand 1 - F(t)^N of chi_1
    assert expected_max_chi(1, 10**303) == pytest.approx(37.267017314525393395, abs=1e-9)


def test_expected_max_chi_at_the_largest_float_N():
    # past N ~ 10^305 gammaincc underflows to 0 where N (1 - F) is still of
    # order 1e-2, so the tail's survival values come from the log-space
    # continued fraction.  Reference: mpmath at 50 digits, mp.quad of
    # -expm1(N log1p(-Q)), Q = mp.gammainc(k/2, t^2/2, inf, regularized=True),
    # split at c + (-6, -2, -1, -1/2, -1/4, 0, 1/4, 1/2, 1, 2, 6), c the value
    top = int(sys.float_info.max)
    for k, reference in ((1, 37.590054828129670554), (4, 37.866495301354296257),
                         (1000, 61.040898220978711948)):
        assert abs(expected_max_chi(k, top) - reference) <= gaussian._ABS_TOL, k


# E max over N chi_k variables by mpmath 1.3.0 at 50 digits: mp.quad of
# -expm1(N log1p(-Q)), Q = mp.gammainc(k/2, t^2/2, inf, regularized=True), over
# [0, c-40, c-20, c-12, c-8, c-6, c-4, ..., c+4, c+6, c+8, c+12, c+20, c+40, inf]
# (the points below 0 left out), c the chi_k quantile at survival min(1/2, 1/N);
# real part, since mp.gammainc leaves an imaginary part below 1e-100 at k = 10^6.
# At N = 1 they match sqrt(2) Gamma((k+1)/2) / Gamma(k/2) to 22 digits
_CHI_MAX_REFERENCE = {
    1: (0.7978845608028653558799, 2.746957687806120577777, 6.197846093369071973887,
        37.26701731452539339464),
    8: (2.741624675377656799517, 4.632745954522827154498, 7.716740395107633341777,
        37.84690751833706949981),
    32: (5.612839389220732778617, 7.454592729996031148866, 10.3305180753088081783,
         39.2448130892477014212),
    10**3: (31.6148718969800800885, 33.40200356026137324298, 36.0101365269079213835,
            60.76918948614698693126),
    10**6: (999.9997500000312500391, 1001.773342064565891167, 1004.30739676774472676,
            1026.452891504123103067),
}


def test_expected_max_chi_against_mpmath_references():
    for k, references in _CHI_MAX_REFERENCE.items():
        for N, reference in zip((1, 100, 10**9, 10**303), references):
            assert abs(expected_max_chi(k, N) - reference) <= gaussian._ABS_TOL, (k, N)


def test_expected_max_chi_brute_force_mc(key):
    mc, se = chi_max_mc(1, 2, 10**7, key.child(0))
    assert abs(mc - expected_max_chi(1, 2)) <= 3 * se


def test_expected_max_chi_monotone_and_stable():
    grid_k = (1, 2, 5, 10, 50)
    grid_n = (1, 10, 100, 1000, 10000)
    table = {(k, N): expected_max_chi(k, N) for k in grid_k for N in grid_n}
    for k in grid_k:
        vals = [table[(k, N)] for N in grid_n]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
    for N in grid_n:
        vals = [table[(k, N)] for k in grid_k]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
    # huge N stays stable through the log-space power
    assert np.isfinite(expected_max_chi(2, 10**9))
    assert expected_max_chi(2, 10**9) > expected_max_chi(2, 10**6)


def test_prop51_ratio_band():
    ratios = []
    for k in (1, 2, 5, 10, 50):
        for N in (1, 10, 100, 1000, 10000):
            denom = max(math.sqrt(k), math.sqrt(math.log(N)))
            ratios.append(expected_max_chi(k, N) / denom)
    lo, hi = min(ratios), max(ratios)
    assert GAUSSIAN_RATIO_BAND[0] <= lo and hi <= GAUSSIAN_RATIO_BAND[1]
    # regression: recomputed endpoints within 1% of the pinned calibration
    assert lo == pytest.approx(GAUSSIAN_RATIO_CALIBRATION[0], rel=0.01)
    assert hi == pytest.approx(GAUSSIAN_RATIO_CALIBRATION[1], rel=0.01)


def test_tail_integral_values():
    assert tail_integral(1, 1.0) == pytest.approx(math.exp(-0.5), abs=1e-12)
    # at t = 0 the k = 1 integral is exactly 1 and the k = 0 one is sqrt(pi/2)
    assert tail_integral(1, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert tail_integral(0, 0.0) == pytest.approx(math.sqrt(math.pi / 2), abs=1e-12)
    for k, t in [(3, 2.5), (6, 4.0)]:
        direct, _ = quad(lambda r: r**k * math.exp(-r * r / 2), t, 60, limit=200)
        assert tail_integral(k, t) == pytest.approx(direct, rel=1e-9)
    with pytest.raises(ValueError):
        tail_integral(1, -1.0)


def test_tail_sandwich_examples():
    rows = tail_sandwich_check(1, np.array([1.0]))
    assert rows[0].holds
    assert rows[0].value == pytest.approx(rows[0].lower, rel=1e-12)
    # boundary-tight hypothesis at k = 3, t = 2 = sqrt(2(k-1))
    rows = tail_sandwich_check(3, np.array([2.0]))
    assert all(row.holds for row in rows)
    # t = 1 violates the hypothesis for every k >= 2, so k_max = 5 must raise
    # and the message names the first offending grid point
    with pytest.raises(ValueError, match="hypothesis violated at k="):
        tail_sandwich_check(5, np.array([1.0]))


def test_tail_sandwich_dense_grid():
    t0 = math.sqrt(2 * 49)
    rows = tail_sandwich_check(50, np.linspace(t0, t0 + 6, 25))
    assert all(row.holds for row in rows)
    k1 = [row for row in rows if row.k == 1]
    assert max(abs(r.value - r.lower) / r.lower for r in k1) <= 1e-12


def test_gaussian_cloud_basics(key):
    pts = gaussian_cloud(2, 10**6, key.child(1))
    stderr = pts.std(axis=0, ddof=1) / math.sqrt(pts.shape[0])
    assert np.all(np.abs(pts.mean(axis=0)) <= 3 * stderr)


def test_projected_gaussian_is_chi(key):
    # rotation invariance: |P_F X| follows the chi distribution in dim k
    pts = gaussian_cloud(9, 4000, key.child(2))
    for k in (1, 3):
        F = haar_frames(9, k, [key.child(3).child(k)])[0]
        nrm = np.linalg.norm(pts @ F, axis=1)
        assert kstest(nrm, lambda t: chi_cdf(k, t)).pvalue > 0.01


def test_mean_outer_radius_matches_oracle_for_single_cloud(key):
    # with a large cloud the Grassmann average of one cloud concentrates near
    # the oracle; keep a bias allowance on top of the subspace stderr
    cloud = PointCloud(gaussian_cloud(16, 2000, key.child(4)))
    est = radius_profile(cloud, 128, key.child(5), [4]).estimate(4)
    oracle = expected_max_chi(4, 2000)
    assert abs(est.value - oracle) <= 3 * est.stderr + 0.05 * oracle


def test_blocked_projected_max_mc_equals_per_replica_loop(key, monkeypatch):
    # _BLOCK holds 32 frames of 64 x 32, split across lanes: frame stacks of
    # at most 32, 16 and 10 at 1, 2 and 3 lanes.  The lanes take 1 / (2 lanes)
    # of the replicas left in turn: 70 replicas as 7 blocks at 1 lane (35, 18,
    # 9, 4, 2, 1, 1), 13 at 2 lanes (18, 13, 10, ..., 1) and 18 at 3 (12, 10,
    # ..., 1), so each first block draws its frames in two stacks.  One 260 x 260
    # frame exceeds _BLOCK on its own, and 2 replicas at 3 usable CPUs run in
    # 2 lanes.  A short switch interval makes the lanes' threads interleave
    # often, so a lost or misplaced write shows.
    assert _BLOCK // (64 * 32) == 32 and 260 * 260 > _BLOCK
    for n, k, N, replicas in ((64, 32, 20, 70), (260, 260, 3, 4), (8, 2, 5, 2)):
        vals = []
        for i in range(replicas):
            pts = gaussian_cloud(n, N, key.child(i))
            frame = haar_frames(n, k, [key.child(i).child(1)])[0]
            vals.append(np.sqrt(np.max(projected_sq_norms(pts, frame, [k]))))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for lanes in (1, 2, 3):
                monkeypatch.setattr(parallel, "_usable_cpus", lambda: lanes)
                assert projected_max_mc(n, k, N, replicas, key) == mean_and_stderr(vals)
        finally:
            sys.setswitchinterval(interval)


def test_lanes_keep_the_clouds_within_budget(key, monkeypatch):
    # at 32 usable CPUs small clouds get one lane per CPU, at most one per
    # replica; larger (N, n) clouds share _LANE_FLOATS floats, down to a single
    # lane once one cloud alone needs more (10^7 x 16 floats are 1.28 GB)
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 32)
    assert parallel._LANE_FLOATS == 1 << 22
    assert parallel.lane_count(128, 1000 * 64) == 32
    assert parallel.lane_count(5, 1000 * 64) == 5
    assert parallel.lane_count(128, (1 << 16) * 16) == 4
    assert parallel.lane_count(128, (1 << 18) * 16) == 1
    assert parallel.lane_count(128, 10**7 * 16) == 1
    # projected_max_mc runs its clouds in as many threads as lane_count allows, with
    # the same result: 3 usable CPUs and room for 3, 2 and 1 clouds of 20 x 8;
    # the first blocks of 12 replicas hold 2 or 3 each, and each lane takes one
    # while the others sleep in theirs
    real_cloud = gaussian.gaussian_cloud
    threads = set()

    def cloud(n, N, cloud_key):
        threads.add(threading.get_ident())
        time.sleep(0.02)
        return real_cloud(n, N, cloud_key)

    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(gaussian, "gaussian_cloud", cloud)
    # a pool of its own with a helper for each lane after the first, whatever
    # os.cpu_count() says on this host
    with ThreadPoolExecutor(2) as helpers:
        monkeypatch.setattr(parallel, "_helpers", helpers)
        results = []
        for clouds in (3, 2, 1):
            monkeypatch.setattr(parallel, "_LANE_FLOATS", clouds * 20 * 8)
            threads.clear()
            results.append(projected_max_mc(8, 2, 20, 12, key))
            assert len(threads) == clouds
            assert clouds > 1 or threads == {threading.get_ident()}
    assert results[0] == results[1] == results[2]


def test_frame_stacks_stay_within_block(key, monkeypatch):
    # a lane draws its block's frames in stacks of at most _BLOCK // (lanes n k)
    # keys, so all lanes' frames together stay within _BLOCK floats: 32, 16
    # and 10 keys of 64 x 32 frames at 1, 2 and 3 lanes, where the first
    # block of 128 replicas holds 64, 32 and 22; the result is the same
    real_frames = gaussian.haar_frames
    stacks = []

    def haar_frames(n, k, keys):
        stacks.append(len(keys))
        return real_frames(n, k, keys)

    monkeypatch.setattr(gaussian, "haar_frames", haar_frames)
    # a pool of its own with a helper for each lane after the first, whatever
    # os.cpu_count() says on this host
    with ThreadPoolExecutor(2) as helpers:
        monkeypatch.setattr(parallel, "_helpers", helpers)
        results = []
        for lanes in (1, 2, 3):
            monkeypatch.setattr(parallel, "_usable_cpus", lambda: lanes)
            stacks.clear()
            results.append(projected_max_mc(64, 32, 1000, 128, key))
            bound = max(1, _BLOCK // (lanes * 64 * 32))
            assert sum(stacks) == 128 and max(stacks) == bound == {1: 32, 2: 16, 3: 10}[lanes]
    assert results[0] == results[1] == results[2]


def test_projected_max_mc_stops_every_lane_on_error(key, monkeypatch):
    # 2 lanes take the blocks 0-1, 2-3, 4, 5, 6 and 7 as they come free: the
    # first replica a helper runs fails, and then the first one the calling
    # thread runs, each while the other lane sleeps inside a replica; that lane
    # stops at its next replica, and no lane runs once the error is raised
    real_cloud = gaussian.gaussian_cloud
    replica = {key.child(i): i for i in range(8)}
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
    for fail_in_caller in (False, True):
        calls, running, failed = [], [], []

        def cloud(n, N, cloud_key):
            calls.append(replica[cloud_key])
            running.append(1)
            try:
                in_caller = threading.current_thread() is threading.main_thread()
                if in_caller == fail_in_caller and not failed:
                    failed.append(replica[cloud_key])
                    time.sleep(0.05)
                    raise RuntimeError(f"replica {failed[0]}")
                time.sleep(0.1)
                return real_cloud(n, N, cloud_key)
            finally:
                running.pop()

        monkeypatch.setattr(gaussian, "gaussian_cloud", cloud)
        with pytest.raises(RuntimeError, match="replica") as raised:
            projected_max_mc(16, 4, 10, 8, key)
        returned = list(calls)
        assert not running
        time.sleep(0.1)
        assert str(raised.value) == f"replica {failed[0]}"
        assert calls == returned and 7 not in calls


def test_replicas_over_block_project_their_frames_without_nesting_lanes(monkeypatch, capsys):
    # each replica's 10^4 x 32 product exceeds _BLOCK, but a replica's lane
    # projects its cloud whole itself, without calling run_lanes; the table's
    # bytes were recorded before flags over _BLOCK were projected in row chunks
    assert 10_000 * 32 > _BLOCK
    nested, runs = [], []
    real_run_lanes = gaussian.run_lanes

    def run_lanes(block, count, lanes):
        runs.append(lanes)
        real_run_lanes(block, count, lanes)

    monkeypatch.setattr(radii, "run_lanes", lambda *args: nested.append(args))
    monkeypatch.setattr(gaussian, "run_lanes", run_lanes)
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
    assert cli.main(["gaussian", "--k", "32", "--N", "10000", "--n", "64", "--M", "4"]) == 0
    assert capsys.readouterr().out == (
        "    k       N           mc     stderr       oracle  normalizer ok\n"
        "   32   10000     8.392488     0.0791   8.50702514    5.656854 yes\n")
    assert runs == [2] and nested == []


def test_projected_max_mc_agrees_with_quadrature(key):
    for i, k in enumerate((1, 4, 16)):
        est = projected_max_mc(16, k, 50, 2000, key.child(6).child(i))
        oracle = expected_max_chi(k, 50)
        assert abs(est.value - oracle) <= 3 * est.stderr
    with pytest.raises(ValueError):
        projected_max_mc(4, 5, 10, 100, key)
