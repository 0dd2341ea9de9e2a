import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest, norm

from conftest import chi_max_mc
from oracles import chi_cdf
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
from polyradii.sweep import GAUSSIAN_RATIO_BAND, GAUSSIAN_RATIO_CALIBRATION


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


def test_blocked_projected_max_mc_equals_per_replica_loop(key):
    # 64 x 32 frames come in blocks of 32, so 70 replicas make three blocks,
    # the last one partial; one 260 x 260 frame exceeds _BLOCK on its own
    assert _BLOCK // (64 * 32) == 32 and 260 * 260 > _BLOCK
    for n, k, N, replicas in ((64, 32, 20, 70), (260, 260, 3, 4)):
        vals = []
        for i in range(replicas):
            pts = gaussian_cloud(n, N, key.child(i))
            frame = haar_frames(n, k, [key.child(i).child(1)])[0]
            vals.append(np.sqrt(np.max(projected_sq_norms(pts, frame, [k]))))
        assert projected_max_mc(n, k, N, replicas, key) == mean_and_stderr(vals)


def test_projected_max_mc_agrees_with_quadrature(key):
    for i, k in enumerate((1, 4, 16)):
        est = projected_max_mc(16, k, 50, 2000, key.child(6).child(i))
        oracle = expected_max_chi(k, 50)
        assert abs(est.value - oracle) <= 3 * est.stderr
    with pytest.raises(ValueError):
        projected_max_mc(4, 5, 10, 100, key)
