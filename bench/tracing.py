"""Spans around the public functions of the package's layers, and the per-layer
metrics derived from them.

``Tracer.install`` replaces every public function of the layer modules, in every
polyradii module that holds a reference to it, by a wrapper that records a span
(name, start, end, parent span, job id) in memory. Some wrappers also add
operation counts computed from argument shapes. The spans are written out once,
at the end of the run. ``self_times`` derives each span's self time, its
duration minus the part of it that its child spans cover, and ``trace_metrics``
sums those by layer.

This module uses the standard library only, so that run.py can analyse a trace
without importing numpy.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("streams", "bodies", "grassmann", "radii", "moments", "gaussian", "sweep", "cli")


def qr_flops(m: int, n: int) -> int:
    """Computed flops of a Householder QR of an m x n matrix (m >= n) that also
    forms the m x n factor Q: 2mn^2 - 2n^3/3 for geqrf plus as much for orgqr."""
    return (12 * m * n * n - 4 * n**3) // 3


# Operation counts computed from argument shapes. Each hook takes the traced
# function's result followed by its arguments.
def _uniform(res, key, count):
    return {"streams.draws": count}


def _sample_points(res, body, m, key):
    return {"bodies.points": m}


def _haar_flag(res, n, key):
    return {"grassmann.qr_flops": qr_flops(n, n)}


def _haar_subspace(res, n, k, key):
    return {"grassmann.qr_flops": qr_flops(n, k)}


def _radius_profile(res, cloud, M, key, ks=None):
    N, n = cloud.points.shape
    kmax = n if ks is None else int(max(ks))
    return {"radii.gemm_flops": 2 * N * n * kmax * M, "radii.temp_bytes_max": 8 * N * kmax}


def _projected_radius(res, cloud, subspace):
    N, n = cloud.points.shape
    k = subspace.frame.shape[1]
    return {"radii.gemm_flops": 2 * N * n * k, "radii.temp_bytes_max": 8 * N * k}


def _mean_width(res, cloud, M, key):
    N, n = cloud.points.shape
    return {"radii.gemm_flops": 2 * N * n * M, "radii.temp_bytes_max": 8 * N * M}


def _grassmann_moment_avg(res, body, k, q, M, m, key):
    return {"moments.gemm_flops": 2 * m * body.dim * k * M}


def _moment_subspace(res, body, subspace, q, m, key):
    return {"moments.gemm_flops": 2 * m * body.dim * subspace.frame.shape[1]}


def _centroid_width_check(res, body, k, q, M, m, key, directions=64):
    n, d = body.dim, directions
    return {"moments.gemm_flops": M * (2 * m * n * k + 2 * n * k * d + 2 * m * n * d)}


def _rows_to_csv(res, rows):
    return {"sweep.csv_bytes": len(res.encode())}


def add_count(counts: Counter, name: str, value: int) -> None:
    """Counters ending in "_max" keep the largest value, the others add up."""
    counts[name] = max(counts[name], value) if name.endswith("_max") else counts[name] + value


HOOKS = {
    "streams.uniform": _uniform,
    "bodies.sample_points": _sample_points,
    "grassmann.haar_flag": _haar_flag,
    "grassmann.haar_subspace": _haar_subspace,
    "radii.radius_profile": _radius_profile,
    "radii.projected_radius": _projected_radius,
    "radii.mean_width": _mean_width,
    "moments.grassmann_moment_avg": _grassmann_moment_avg,
    "moments.moment_subspace": _moment_subspace,
    "moments.centroid_width_check": _centroid_width_check,
    "sweep.rows_to_csv": _rows_to_csv,
}


class Tracer:
    """Records spans and counts in memory; ``job`` tags what is recorded next."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, job]
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.job = -1
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, hook = self.spans, self._stack, HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                self._count(hook(result, *args, **kwargs))
            return result

        return traced

    def _count(self, counts: dict[str, int]) -> None:
        for name, value in counts.items():
            add_count(self.counts[self.job], name, value)

    def install(self) -> None:
        """Wrap the layers' public functions wherever the package refers to them."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"polyradii.{layer}")
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name == "polyradii" or name.startswith("polyradii."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(module, attr, wrappers[obj])

    def dump(self) -> dict:
        return {"spans": self.spans,
                "counts": {str(job): dict(c) for job, c in self.counts.items()}}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its direct children's intervals."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


# Per-layer metrics and their units. Times are also reported at 2 BLAS threads,
# with the suffix ".t2"; counts do not depend on the thread setting.
COUNT_METRICS = {
    "streams.generator.calls": "count",
    "streams.draws": "count",
    "bodies.points": "count",
    "grassmann.frames": "count",
    "grassmann.qr_flops": "flop",
    "radii.calls": "count",
    "radii.gemm_flops": "flop",
    "radii.temp_bytes_max": "B",
    "moments.calls": "count",
    "moments.gemm_flops": "flop",
    "gaussian.quad.calls": "count",
    "sweep.csv_bytes": "B",
}
# Counts computed from array shapes (hooks above), not measured.
COMPUTED = {"grassmann.qr_flops", "radii.gemm_flops", "radii.temp_bytes_max", "moments.gemm_flops"}
TIME_METRICS = {
    "streams.generator.self_s": "s",
    "streams.self_s": "s",
    "streams.ns_per_draw": "ns",
    "bodies.sample.self_s": "s",
    "grassmann.self_s": "s",
    "grassmann.us_per_frame": "us",
    "radii.self_s": "s",
    "radii.gflops": "GFLOP/s",
    "moments.self_s": "s",
    "gaussian.quad.self_s": "s",
    "gaussian.mc.self_s": "s",
    "sweep.self_s": "s",
    "sweep.csv.self_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.uncovered_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def round_metrics(spans, selfs, counts: Counter, wall: float) -> dict[str, float]:
    """Per-layer metrics of one round, from the spans of that round's jobs."""
    self_by: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    roots = 0.0
    for span, own in zip(spans, selfs):
        self_by[span[0]] += own
        calls[span[0]] += 1
        if span[3] < 0:
            roots += span[2] - span[1]

    def layer(prefix: str) -> float:
        return sum(v for name, v in self_by.items() if name.split(".")[0] == prefix)

    def layer_calls(prefix: str) -> int:
        return sum(v for name, v in calls.items() if name.split(".")[0] == prefix)

    frame_self = self_by["grassmann.haar_flag"] + self_by["grassmann.haar_subspace"]
    frames = calls["grassmann.haar_flag"] + calls["grassmann.haar_subspace"]
    return {
        "streams.generator.calls": calls["streams.generator"],
        "streams.generator.self_s": self_by["streams.generator"],
        "streams.draws": counts["streams.draws"],
        "streams.self_s": layer("streams"),
        "streams.ns_per_draw": _ratio(layer("streams") * 1e9, counts["streams.draws"]),
        "bodies.points": counts["bodies.points"],
        "bodies.sample.self_s": self_by["bodies.sample_points"] + self_by["bodies.sample"],
        "grassmann.frames": frames,
        "grassmann.self_s": layer("grassmann"),
        "grassmann.us_per_frame": _ratio(frame_self * 1e6, frames),
        "grassmann.qr_flops": counts["grassmann.qr_flops"],
        "radii.calls": layer_calls("radii"),
        "radii.self_s": layer("radii"),
        "radii.gemm_flops": counts["radii.gemm_flops"],
        "radii.gflops": _ratio(counts["radii.gemm_flops"] / 1e9, layer("radii")),
        "radii.temp_bytes_max": counts["radii.temp_bytes_max"],
        "moments.calls": layer_calls("moments"),
        "moments.self_s": layer("moments"),
        "moments.gemm_flops": counts["moments.gemm_flops"],
        "gaussian.quad.calls": calls["gaussian.expected_max_chi"],
        "gaussian.quad.self_s": self_by["gaussian.expected_max_chi"],
        "gaussian.mc.self_s": self_by["gaussian.projected_max_mc"],
        "sweep.self_s": layer("sweep"),
        "sweep.csv.self_s": self_by["sweep.rows_to_csv"] + self_by["sweep.write_csv"],
        "sweep.csv_bytes": counts["sweep.csv_bytes"],
        "cli.self_s": layer("cli"),
        "trace.wall_s": wall,
        "trace.uncovered_s": wall - roots,
    }


def trace_metrics(trace: dict, jobs: list[dict]) -> dict[str, float]:
    """Median over timed rounds of each per-layer metric of one traced process.

    ``jobs`` is the process's job list; a span's job id indexes into it.
    """
    spans = trace["spans"]
    selfs = self_times(spans)
    rounds: dict[int, list[int]] = defaultdict(list)
    for job_id, job in enumerate(jobs):
        if job["round"] >= 0:
            rounds[job["round"]].append(job_id)
    per_round = []
    for ids in rounds.values():
        mine = set(ids)
        picked = [i for i, span in enumerate(spans) if span[4] in mine]
        counts: Counter = Counter()
        for job_id in ids:
            for name, value in trace["counts"].get(str(job_id), {}).items():
                add_count(counts, name, value)
        per_round.append(round_metrics(
            [spans[i] for i in picked], [selfs[i] for i in picked], counts,
            sum(jobs[j]["wall"] for j in ids)))
    # median_low keeps counts whole: they repeat exactly from round to round.
    return {name: (statistics.median_low if name in COUNT_METRICS else statistics.median)(
        r[name] for r in per_round) for name in per_round[0]}
