"""The lane runner and the loops that run on it.

Every loop that runs in lanes must give the same bits at any lane count, so
each test compares several lane counts against a plain loop or one lane with
``==``.  A short switch interval makes the lanes' threads interleave often, so
a lost or misplaced write shows.
"""

import contextlib
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from polyradii import gaussian, parallel, radii
from polyradii.bodies import KINDS, make_body, sample_points
from polyradii.estimates import Estimate, power_estimate
from polyradii.gaussian import projected_max_mc
from polyradii.grassmann import haar_frames, haar_subspace, sphere_marginal_moment, sphere_points
from polyradii.moments import (
    ball_moment_exact,
    centroid_width_check,
    grassmann_moment_avg,
    moment,
)
from polyradii.radii import _BLOCK, PointCloud, projected_sq_norms, radius_profile
from polyradii.sweep import SweepConfig, consistency_checks


@contextlib.contextmanager
def _short_switch_interval():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def test_stacked_sq_norms_in_lanes_equal_the_per_slice_calls(key, monkeypatch):
    # 1000 x 16 projections are 16000 floats, so chunks of 4 slices: 30 slices
    # make 8 chunks; one 5000 x 16 slice alone exceeds _BLOCK.  ks [3, 16] sums
    # a 13-column segment with reduceat, [1, 4, 8, 16] by column adds
    real = radii._sum_segments
    threads = set()

    def sum_segments(sq, ks, out):
        threads.add(threading.get_ident())
        time.sleep(0.01)
        real(sq, ks, out)

    monkeypatch.setattr(radii, "_sum_segments", sum_segments)
    assert _BLOCK // (1000 * 16) == 4 and 5000 * 16 > _BLOCK
    with _short_switch_interval():
        for N, B in ((1000, 30), (5000, 7)):
            pts = sample_points(make_body("cross", 16), N, key.child(N))
            frames = haar_frames(16, 16, [key.child(B).child(i) for i in range(B)])
            for ks in ([3, 16], [1, 4, 8, 16]):
                expected = np.stack([projected_sq_norms(pts, frame, ks) for frame in frames])
                for lanes in (1, 2, 3):
                    monkeypatch.setattr(parallel, "_usable_cpus", lambda: lanes)
                    threads.clear()
                    got = projected_sq_norms(pts, frames, ks)
                    assert got.shape == (B, N, len(ks))
                    assert np.array_equal(got, expected)
                    assert len(threads) == lanes


def test_flag_radii_in_lanes_equal_the_per_flag_loop(key, monkeypatch):
    # 12 flags of 1000 x 16 are projected in 3 chunks of 4; a 10^4 x 16 flag
    # exceeds _BLOCK and is a chunk of its own, cut into rows (it holds two
    # rescore chunks of 4128 rows) and so screened, so 12 flags make 12 chunks.  The lanes
    # draw and project whole chunks, min(lanes, chunks) of them at once.  ks [3, 16]
    # sums a 13-column segment with reduceat, [1, 4, 8, 16] by column adds.  Each
    # thread's first sum waits until min(lanes, chunks) threads have made one, so
    # lane 0 cannot take every chunk before the helpers start, and a missing
    # lane breaks the barrier at its timeout
    real = radii._sum_segments
    threads = set()
    barrier = None

    def sum_segments(sq, ks, out):
        if barrier is not None and threading.get_ident() not in threads:
            threads.add(threading.get_ident())
            barrier.wait(timeout=10)
        real(sq, ks, out)

    monkeypatch.setattr(radii, "_sum_segments", sum_segments)
    assert radii._chunk_rule(10_000, 16, 16, True)[1] and radii._floor_rows(16, 16) == 4128
    with _short_switch_interval():
        for N in (1000, 10_000):
            pts = sample_points(make_body("simplex", 16), N, key.child(N))
            frames = haar_frames(16, 16, [key.child(7).child(i) for i in range(12)])
            for ks in (np.array([3, 16]), np.array([1, 4, 8, 16])):
                barrier = None
                expected = np.stack([np.sqrt(np.max(projected_sq_norms(pts, frame, ks), axis=0))
                                     for frame in frames])
                for lanes in (1, 2, 3):
                    monkeypatch.setattr(parallel, "_usable_cpus", lambda: lanes)
                    threads.clear()
                    chunks = 12 if N == 10_000 else 3
                    barrier = threading.Barrier(min(lanes, chunks))
                    assert np.array_equal(radii._flag_radii(pts, 12, key.child(7), ks), expected)
                    assert len(threads) == min(lanes, chunks)


def _grassmann_reference(body, k, q, M, m, key):
    """grassmann_moment_avg as one projection per subspace."""
    n = body.dim
    pts = sample_points(body, m, key.child(0))
    frames = haar_frames(n, k, [key.child(1).child(i) for i in range(M)])
    powers = np.empty((M, m))
    for i, frame in enumerate(frames):
        powers[i] = np.sqrt(projected_sq_norms(pts, frame, [k])[:, 0]) ** q
    per_subspace = np.mean(powers, axis=1)
    per_point = np.mean(powers, axis=0)
    var = np.var(per_subspace, ddof=1) / M + np.var(per_point, ddof=1) / m
    estimate = power_estimate(Estimate(float(np.mean(powers)), float(np.sqrt(var))), 1.0 / q)
    mratio = (sphere_marginal_moment(n, q) / sphere_marginal_moment(k, q)) ** (1.0 / q)
    if body.kind == "ball":
        iq = Estimate(ball_moment_exact(body, q), 0.0)
    else:
        iq = moment(body, q, m, key.child(2))
    return estimate, Estimate(iq.value * mratio, iq.stderr * mratio), iq


def _centroid_reference(body, k, q, M, m, key):
    """centroid_width_check as one subspace at a time, all 64 directions at once."""
    n = body.dim
    pts = sample_points(body, m, key.child(0))
    lhs, rhs = np.empty(M), np.empty(M)
    for i in range(M):
        frame = haar_subspace(n, k, key.child(1).child(i))
        nrm = np.sqrt(projected_sq_norms(pts, frame, [k])[:, 0])
        lhs[i] = np.mean(nrm ** (-q)) ** (-1.0 / q)
        dirs = frame @ sphere_points(k, 64, key.child(2).child(i)).T
        with parallel.one_blas_thread():  # as the package projects the points
            hq = np.mean(np.abs(pts @ dirs) ** q, axis=0)
        rhs[i] = np.sqrt(k / q) * np.mean(1.0 / hq) ** (-1.0 / q)
    avg_neg = float(np.mean(lhs ** (-q)) ** (-1.0 / q))
    iq_neg = moment(body, -float(q), m, key.child(3)).value
    return lhs / rhs, avg_neg / (np.sqrt(k / n) * iq_neg)


def test_subspace_moments_in_lanes_equal_the_per_subspace_loop(key, monkeypatch):
    # 2000 points: chunks of 32, 4 and 2 subspaces at k = 1, 8 and 16 for the
    # Grassmannian average, of 4 subspaces for the centroid check's left side
    # and of 2 slices of 16 directions for its right side; at 5000 points one
    # 5000 x 16 slice alone exceeds _BLOCK
    with _short_switch_interval():
        for b, kind in enumerate(KINDS):
            body = make_body(kind, 16)
            for k in (1, 8, 16):
                for j, q in enumerate((1.0, 2.0, math.log(256))):
                    sub = key.child(b).child(k).child(j)
                    expected = _grassmann_reference(body, k, q, 100, 2000, sub)
                    for lanes in (1, 2, 3):
                        monkeypatch.setattr(parallel, "_usable_cpus", lambda: lanes)
                        ga = grassmann_moment_avg(body, k, q, 100, 2000, sub)
                        assert (ga.estimate, ga.reference, ga.iq) == expected
            for m, stream in ((2000, 0), (5000, 2)):  # not a k of the loop above
                for q in (1, 2):
                    sub = key.child(b).child(stream).child(q)
                    ratios, neg_ratio = _centroid_reference(body, 8, q, 20, m, sub)
                    for lanes in (1, 2, 3):
                        monkeypatch.setattr(parallel, "_usable_cpus", lambda: lanes)
                        report = centroid_width_check(body, 8, q, 20, m, sub)
                        assert np.array_equal(report.ratios, ratios)
                        assert report.grassmann_neg_ratio == neg_ratio


@pytest.mark.parametrize("m", [100, 101, 4999, 20000, 123457])
def test_centroid_direction_means_have_the_bits_of_np_mean(key, m):
    # the right side of the centroid check sums each slice's rows with einsum
    # and divides once by m, which must give np.mean's bits exactly: a numpy
    # that adds the rows in another order fails here
    body = make_body("cube", 16)
    ratios, neg_ratio = _centroid_reference(body, 8, 1, 2, m, key.child(m))
    report = centroid_width_check(body, 8, 1, 2, m, key.child(m))
    assert np.array_equal(report.ratios, ratios)
    assert report.grassmann_neg_ratio == neg_ratio


def test_every_loop_keeps_its_lanes_within_the_scratch_budget(key, monkeypatch):
    # at 8 usable CPUs a loop runs one lane per CPU only while the lanes'
    # scratch fits in _LANE_FLOATS together: a projected chunk of 4 slices of
    # 1000 x 16, a chunk of 2 slices of 2000 x 16 centroid directions, a 20 x 8
    # Gaussian cloud.  A budget of 20, 3, 1 and half a lane gives 8, 3, 1 and
    # 1 lanes, each on its own thread, with the bits of one lane
    body = make_body("cube", 16)
    pts = sample_points(body, 1000, key.child(0))
    frames = haar_frames(16, 16, [key.child(1).child(i) for i in range(40)])

    def centroid():
        report = centroid_width_check(body, 8, 1, 20, 2000, key.child(2))
        return np.append(report.ratios, report.grassmann_neg_ratio)

    def replicas():
        estimate = projected_max_mc(8, 2, 20, 24, key.child(3))
        return np.array([estimate.value, estimate.stderr])

    # (module whose run_lanes runs the loop, its count of chunks or replicas,
    # lane scratch, run): a stack runs in chunks, 40 frames in 10; the centroid
    # check's right side is its stack of 20 x 64 / 16 = 80 direction slices in
    # 40 chunks, and its left side, 20 frames in 5 chunks, also runs in radii
    loops = [
        (radii, 10, 4 * 1000 * 16, lambda: projected_sq_norms(pts, frames, [3, 16])),
        (radii, 40, 2 * 2000 * 16, centroid),
        (gaussian, 24, 20 * 8, replicas),
    ]
    real_run_lanes = parallel.run_lanes
    calls = []

    def traced(module):
        def run_lanes(block, count, lanes):
            threads = set()
            calls.append((module, count, lanes, threads))

            def steps(lane, start, stop):
                for step in block(lane, start, stop):
                    threads.add(threading.get_ident())
                    time.sleep(0.02)
                    yield step

            real_run_lanes(steps, count, lanes)

        return run_lanes

    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 8)
    # a pool of its own with a helper for each lane after the first, whatever
    # os.cpu_count() says on this host
    with _short_switch_interval(), ThreadPoolExecutor(7) as helpers:
        monkeypatch.setattr(parallel, "_helpers", helpers)
        for module, count, lane_floats, run in loops:
            monkeypatch.setattr(module, "run_lanes", traced(module))
            monkeypatch.setattr(parallel, "_LANE_FLOATS", lane_floats)
            expected = run()
            for budget, lanes in ((20, 8), (3, 3), (1, 1), (0.5, 1)):
                monkeypatch.setattr(parallel, "_LANE_FLOATS", int(budget * lane_floats))
                calls.clear()
                assert np.array_equal(run(), expected)
                ran = [(n, len(threads)) for caller, covered, n, threads in calls
                       if caller is module and covered == count]
                assert ran == [(lanes, lanes)]


def test_run_lanes_covers_every_index_once():
    # blocks of 1 / (2 lanes) of what is left, rounded up: 100 indexes at 3
    # lanes are 17, 14, 12, 10, 8, 7, 6, 5, ... in whichever lane.  Each lane
    # number stays on one thread, lane 0 on the calling one, so a lane's
    # scratch is never shared
    heads = {1: [50, 25, 13, 6, 3, 2, 1], 2: [25, 19, 14, 11, 8, 6, 5, 3],
             3: [17, 14, 12, 10, 8, 7, 6, 5]}
    for lanes, head in heads.items():
        hits = np.zeros(100, dtype=int)
        blocks = []
        threads = {}

        def block(lane, start, stop):
            blocks.append(stop - start)
            threads.setdefault(lane, set()).add(threading.get_ident())
            for i in range(start, stop):
                yield
                hits[i] += 1
                time.sleep(0.001)

        with _short_switch_interval():
            parallel.run_lanes(block, 100, lanes)
        assert np.all(hits == 1)
        assert sorted(blocks, reverse=True)[:8] == head and sum(blocks) == 100
        assert set(threads) <= set(range(lanes))
        assert threads[0] == {threading.get_ident()}
        assert all(len(idents) == 1 for idents in threads.values())
        assert len(set.union(*threads.values())) == len(threads)


# Runs in a fresh interpreter: prints the live thread count after importing
# the CLI, after a one-lane and after a two-lane run_lanes, and the names of
# the threads other than the main one
_THREAD_PROBE = textwrap.dedent(
    """
    import json, threading
    import polyradii.cli
    from polyradii import parallel

    def block(lane, start, stop):
        yield

    counts = [threading.active_count()]
    for lanes in (1, 2):
        parallel.run_lanes(block, 4, lanes)
        counts.append(threading.active_count())
    names = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
    print(json.dumps([counts, names]))
    """
)


def test_helper_pool_starts_a_thread_only_for_work():
    # the pool is made when parallel is imported: that starts no thread, a
    # one-lane run submits nothing, and a two-lane run starts one helper
    env = {**os.environ, "PYTHONPATH": str(Path(parallel.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[1, 1, 2], ["polyradii-lane_0"]]


def test_run_lanes_stops_every_lane_on_error(monkeypatch):
    # 2 lanes take the blocks 0-1, 2-3, 4, 5, 6 and 7 as they come free: the
    # first index a helper runs fails, and then the first one the calling
    # thread runs, each while the other lane sleeps inside an index; that lane
    # stops at its next index, and no lane runs once the error is raised
    for fail_in_caller in (False, True):
        calls, running, failed = [], [], []

        def block(lane, start, stop):
            for i in range(start, stop):
                yield
                calls.append(i)
                running.append(1)
                try:
                    in_caller = threading.current_thread() is threading.main_thread()
                    if in_caller == fail_in_caller and not failed:
                        failed.append(i)
                        time.sleep(0.05)
                        raise RuntimeError(f"index {i}")
                    time.sleep(0.1)
                finally:
                    running.pop()

        with ThreadPoolExecutor(1) as helpers:
            monkeypatch.setattr(parallel, "_helpers", helpers)
            with pytest.raises(RuntimeError, match="index") as raised:
                parallel.run_lanes(block, 8, 2)
            returned = list(calls)
            assert not running
            time.sleep(0.1)
        assert str(raised.value) == f"index {failed[0]}"
        assert calls == returned and 7 not in calls


def test_lanes_hold_numpy_blas_at_one_thread(key, monkeypatch):
    # lanes own the cores: while a loop runs, in 1 lane or 2, numpy's OpenBLAS
    # runs one thread, and so do the QR of radius_profile's frame draws and
    # the float32 screen in its lanes; it gets its old count back
    # after the loop, also when a helper lane raised.  run_lanes holds the
    # thread itself, whoever calls it, a one-unit projection included
    blas = parallel._openblas()
    if not blas:
        pytest.skip("numpy's BLAS exposes no thread count")
    get, set_threads = blas
    seen, chunks = [], []
    real_qr, real_sums, real_take = np.linalg.qr, radii._sum_segments, radii._Scan.take
    real_chunk = radii._rescore_chunk

    def qr(a):
        seen.append(get())
        return real_qr(a)

    def sum_segments(sq, ks, out):
        seen.append(get())
        real_sums(sq, ks, out)

    def take(scan, r0, sums):
        seen.append(get())
        real_take(scan, r0, sums)

    def rescore_chunk(*args):
        chunks.append(args)
        return real_chunk(*args)

    def block(lane, start, stop):
        for _ in range(start, stop):
            yield
            seen.append(get())
            time.sleep(0.01)
            if lane == 1:
                raise RuntimeError("helper lane")

    monkeypatch.setattr(np.linalg, "qr", qr)
    monkeypatch.setattr(radii, "_sum_segments", sum_segments)
    monkeypatch.setattr(radii._Scan, "take", take)
    monkeypatch.setattr(radii, "_rescore_chunk", rescore_chunk)
    # flags of 10^4 x 100 floats each, one flag and one QR per chunk
    cloud = PointCloud(sample_points(make_body("cube", 100), 10_000, key.child(0)))
    assert radii._chunk_rule(10_000, 100, 100, True)[1]
    old = get()
    try:
        set_threads(2)
        # each flag is cut into rows, so it is screened in one float32 block
        # and then rescored in a chunk per candidate, in 2 lanes and in 1
        for lanes in (2, 1):
            monkeypatch.setattr(parallel, "_usable_cpus", lambda: lanes)
            seen.clear()
            chunks.clear()
            radius_profile(cloud, 8, key.child(1), [1, 100])
            assert len(chunks) >= 8 and len(seen) == 8 + 8 + len(chunks) and set(seen) == {1}
            assert get() == 2
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        seen.clear()
        with ThreadPoolExecutor(1) as helpers:
            monkeypatch.setattr(parallel, "_helpers", helpers)
            with pytest.raises(RuntimeError, match="helper lane"):
                parallel.run_lanes(block, 8, parallel.lane_count(8, 1))
        assert seen and set(seen) == {1}
        assert get() == 2
        # one 64 x 8 frame over 100 points is one unit, one lane on the calling thread
        pts = sample_points(make_body("cube", 64), 100, key.child(2))
        frame = haar_frames(64, 8, [key.child(3)])[0]
        seen.clear()
        projected_sq_norms(pts, frame, [3, 8])
        assert seen == [1]
        assert get() == 2
    finally:
        set_threads(old)


def test_check_runs_the_public_functions_on_the_calling_thread(monkeypatch):
    # bench/tracing.py keeps one span stack for every thread, so a public
    # function run from a helper lane would get a wrong parent span and the
    # trace's self times could sum past its wall time.  Wrap every public
    # function of the layers check runs, wherever the package refers to it,
    # and run the suite at 3 lanes: each call must come from the calling
    # thread, while the lanes' numpy work still runs on helper threads
    calls, helper_work = [], set()
    wrappers = {}
    for layer in ("streams", "bodies", "grassmann", "radii", "moments", "sweep"):
        module = importlib.import_module(f"polyradii.{layer}")
        for name, fn in vars(module).items():
            public = not name.startswith("_") and inspect.isfunction(fn)
            if public and fn.__module__ == module.__name__:
                def traced(*args, _fn=fn, **kwargs):
                    calls.append((_fn.__name__, threading.get_ident()))
                    return _fn(*args, **kwargs)
                wrappers[fn] = traced
    for name, module in list(sys.modules.items()):
        if name.startswith("polyradii."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    monkeypatch.setattr(module, attr, wrappers[obj])
    real = radii._sum_segments

    def sum_segments(sq, ks, out):
        helper_work.add(threading.get_ident())
        time.sleep(0.001)
        real(sq, ks, out)

    monkeypatch.setattr(radii, "_sum_segments", sum_segments)
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 3)
    config = SweepConfig(body="cube", n=8, N_list=[64], k_list=[1], M=8, R=1, m=2000)
    results = consistency_checks(config)
    assert len(results) == 9
    caller = threading.get_ident()
    assert {"projected_sq_norms", "grassmann_moment_avg", "centroid_width_check"} <= {
        name for name, _ in calls}
    assert {ident for _, ident in calls} == {caller}
    assert len(helper_work - {caller}) >= 1
