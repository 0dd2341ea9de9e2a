"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
and timings.  Every tolerance is pinned here; none is configurable.
"""

import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import chi_max_mc
from polyradii.bodies import (
    KINDS,
    isotropic_constant,
    make_body,
    sample,
    sample_points,
)
from polyradii.gaussian import expected_max_chi, tail_sandwich_check, projected_max_mc
from polyradii.grassmann import sphere_points
from polyradii.moments import ball_moment_exact, grassmann_moment_avg, moment
from polyradii.moments import negative_moment_ratios, positive_moment_ratios
from polyradii.radii import PointCloud, radius_profile
from polyradii.streams import StreamKey
from polyradii.sweep import (
    PINNED_RATIO_BAND,
    RATIO_RANGE_CALIBRATION,
    SweepConfig,
    rows_to_csv,
    run_sweep,
)

SEED = 20260809


@contextmanager
def criterion(num: int, name: str, limit_s: float | None = None):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL ({time.time() - t0:.1f}s)")
        raise
    dt = time.time() - t0
    if limit_s is not None:
        assert dt < limit_s, f"criterion {num} runtime {dt:.1f}s exceeds {limit_s}s"
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({dt:.1f}s)")


def test_criterion_01_gaussian_oracle_closed_forms():
    with criterion(1, "gaussian exact oracle", limit_s=1.0):
        assert abs(expected_max_chi(1, 1) - math.sqrt(2 / math.pi)) < 1e-8
        assert abs(expected_max_chi(3, 1) - 2 * math.sqrt(2 / math.pi)) < 1e-8
        assert abs(expected_max_chi(1, 2) - 2 / math.sqrt(math.pi)) < 1e-8


def test_criterion_02_oracle_mc_equivalence():
    with criterion(2, "oracle/MC equivalence", limit_s=120.0):
        for k in (1, 2, 5, 10, 50):
            for N in (1, 10, 100, 1000):
                mc, se = chi_max_mc(k, N, 10**5, StreamKey(SEED, (90, k, N)))
                oracle = expected_max_chi(k, N)
                assert abs(mc - oracle) <= 3 * se, (k, N, mc, oracle, se)
                assert abs(mc - oracle) <= 0.02 * oracle, (k, N)


def test_criterion_03_gaussian_projection_reduction():
    with criterion(3, "Gaussian projection reduction at n=64", limit_s=120.0):
        key = StreamKey(SEED)
        for i, k in enumerate((1, 8, 32, 64)):
            est = projected_max_mc(64, k, 1000, 256, key.child(i))
            oracle = expected_max_chi(k, 1000)
            assert abs(est.value - oracle) <= 3 * est.stderr, (k, est, oracle)


def test_criterion_04_isotropy_suite():
    with criterion(4, "isotropy suite (4 bodies, n in {2,8,32})", limit_s=180.0):
        key = StreamKey(SEED)
        idx = 0
        for kind in KINDS:
            for n in (2, 8, 32):
                body = make_body(kind, n)
                L = isotropic_constant(body)
                ck = key.child(idx)
                idx += 1
                pts = sample_points(body, 10**6, ck.child(0))
                root_m = math.sqrt(pts.shape[0])
                # centroid at 0, coordinatewise
                se = pts.std(axis=0, ddof=1) / root_m
                assert np.all(np.abs(pts.mean(axis=0)) <= 3 * se), (kind, n)
                # isotropic condition along 10 random directions
                thetas = sphere_points(n, 10, ck.child(1))
                proj_sq = (pts @ thetas.T) ** 2
                gap = np.abs(proj_sq.mean(axis=0) - L * L)
                lim = 3 * proj_sq.std(axis=0, ddof=1) / root_m
                assert np.all(gap <= lim), (kind, n)
                # I_2 = sqrt(n) L_K
                sq = np.sum(pts**2, axis=1)
                i2 = math.sqrt(sq.mean())
                i2_se = sq.std(ddof=1) / root_m / (2 * i2)
                assert abs(i2 - math.sqrt(n) * L) <= 3 * i2_se, (kind, n)


def test_criterion_05_grassmann_moment_identity():
    with criterion(5, "exact Grassmannian moment identity"):
        key = StreamKey(SEED, (5,))
        for i, (n, k, q) in enumerate([(8, 3, 2.0), (16, 4, 1.0), (32, 8, 2.5)]):
            ball = make_body("ball", n)
            ga = grassmann_moment_avg(ball, k, q, 200, 20000, key.child(2 * i))
            assert ga.reference.stderr == 0.0
            assert abs(ga.estimate.value - ga.reference.value) <= 3 * ga.estimate.stderr
            cube = make_body("cube", n)
            ga = grassmann_moment_avg(cube, k, q, 200, 20000, key.child(2 * i + 1))
            tol = 3 * math.hypot(ga.estimate.stderr, ga.reference.stderr)
            assert abs(ga.estimate.value - ga.reference.value) <= tol
            # ball closed form r (n/(n+q))^(1/q) against plain Monte Carlo
            est = moment(ball, q, 200000, key.child(100 + i))
            assert abs(est.value - ball_moment_exact(ball, q)) <= 3 * est.stderr


def test_criterion_06_profile_monotone_zero_tolerance():
    with criterion(6, "profile monotonicity (pathwise, zero tolerance)"):
        key = StreamKey(SEED, (6,))
        clouds = [
            sample(make_body("cube", 8), 500, key.child(0)),
            sample(make_body("cross", 8), 500, key.child(1)),
            PointCloud(np.full((1, 8), 0.2)),  # single point
            PointCloud(np.linspace(-1, 1, 11)[:, None] * np.ones(8)),  # collinear
            PointCloud(np.zeros((3, 8))),  # degenerate at 0
        ]
        for i, cloud in enumerate(clouds):
            prof = radius_profile(cloud, 32, key.child(10 + i))
            assert np.all(np.diff(prof.values) >= 0.0), f"cloud {i}"


def test_criterion_07_tail_sandwich_grid():
    with criterion(7, "chi tail sandwich (k <= 50, 100 points)"):
        t0 = math.sqrt(2 * 49)  # hypothesis threshold for k = 50 covers all k
        grid = np.linspace(t0, t0 + 8, 100)
        rows = tail_sandwich_check(50, grid)
        assert len(rows) == 50 * 100
        assert all(row.holds for row in rows)
        k1_gap = max(
            abs(row.value - row.lower) / row.lower for row in rows if row.k == 1
        )
        assert k1_gap <= 1e-12


def _default_grid_configs(R: int) -> list[SweepConfig]:
    configs = []
    for body in KINDS:
        for n in (16, 64):
            N_list = [n, 4 * n] + ([n * n] if n * n <= 10**4 else [])
            k_list = sorted({1, math.ceil(math.sqrt(n)), math.ceil(n / 2), n})
            configs.append(
                SweepConfig(body=body, n=n, N_list=N_list, k_list=k_list, M=64, R=R, seed=SEED)
            )
    configs.append(
        SweepConfig(
            body="cube", n=100, N_list=[100, 400, 10**4], k_list=[1, 10, 50, 100],
            M=64, R=R, seed=SEED,
        )
    )
    return configs


def test_criterion_08_ratio_band():
    with criterion(8, "ratio band over the default grid", limit_s=900.0):
        per_body: dict[str, list[float]] = {kind: [] for kind in KINDS}
        for cfg in _default_grid_configs(R=10):
            for row in run_sweep(cfg):
                per_body[cfg.body].append(row.ratio)
        all_ratios = [x for vals in per_body.values() for x in vals]
        for body, vals in per_body.items():
            assert max(vals) / min(vals) <= 4.0, body
        assert max(all_ratios) / min(all_ratios) <= 6.0
        # regression against the pinned calibration endpoints (10% tolerance)
        assert min(all_ratios) == pytest.approx(RATIO_RANGE_CALIBRATION[0], rel=0.10)
        assert max(all_ratios) == pytest.approx(RATIO_RANGE_CALIBRATION[1], rel=0.10)
        # probability part: the in-regime cell (cube, n=100, N=10^4) with R=100
        cfg = SweepConfig(
            body="cube", n=100, N_list=[10**4], k_list=[1, 10, 50, 100],
            M=64, R=100, seed=SEED,
        )
        assert math.log(10**4) <= math.sqrt(100) and 100**2 <= 10**4
        rows = run_sweep(cfg)
        lo, hi = PINNED_RATIO_BAND
        for k in cfg.k_list:
            ratios = [r.ratio for r in rows if r.k == k]
            assert len(ratios) == 100
            inside = sum(lo <= x <= hi for x in ratios) / len(ratios)
            assert inside >= 0.95, (k, inside)


def test_criterion_09_moment_ratio_bands():
    with criterion(9, "moment ratio bands at n in {16,64}"):
        key = StreamKey(SEED, (9,))
        idx = 0
        for kind in KINDS:
            for n in (16, 64):
                body = make_body(kind, n)
                pos = positive_moment_ratios(body, 10**5, key.child(idx))
                idx += 1
                neg = negative_moment_ratios(body, 10**5, key.child(idx))
                idx += 1
                for row in pos + neg:
                    assert 0.5 <= row.ratio <= 2.0, (kind, n, row.q, row.ratio)
                if kind == "ball":
                    denom = math.sqrt(n) * isotropic_constant(body)
                    for row in pos + neg:
                        expected = ball_moment_exact(body, row.q) / denom
                        assert abs(row.ratio - expected) <= 3 * row.ratio_stderr, (
                            n, row.q,
                        )


def test_criterion_10_sweep_determinism(tmp_path):
    with criterion(10, "byte-identical sweeps across reruns and thread counts"):
        cfg = dict(
            body="cube", n=16, N_list=[64, 256], k_list=[1, 4, 16], M=16, R=3, seed=42
        )
        a = rows_to_csv(run_sweep(SweepConfig(**cfg)))
        b = rows_to_csv(run_sweep(SweepConfig(**cfg)))
        assert a.encode() == b.encode()
        # different BLAS/OpenMP thread counts in subprocesses
        outputs = []
        for i, threads in enumerate(("1", "2")):
            out = tmp_path / f"out{i}.csv"
            cfg_path = tmp_path / f"cfg{i}.json"
            cfg_path.write_text(json.dumps({**cfg, "out": str(out)}))
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads,
                MKL_NUM_THREADS=threads,
            )
            proc = subprocess.run(
                [sys.executable, "-m", "polyradii", "sweep", "--config", str(cfg_path)],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0] == a.encode()
