"""Benchmark of the polyradii command line, end to end and layer by layer.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

It benchmarks the checkout it sits in; the workloads are defined in
workloads.py and explained in BENCHMARK.json. Each run starts fresh worker
processes (worker.py). When a run has several, they run their rounds in turn,
so only one computes at any time and all of them see the same stretch of host
speed.

On a shared host the speed of a core drifts by up to 2x over minutes, which
shows in every raw timing. Each worker therefore times a fixed reference kernel
(worker.ReferenceKernel) around every round, and the bounded timings are
reported at reference speed: a round's wall time is multiplied by
REFERENCE_S / (reference kernel time around that round). The raw timings are
printed too.

With ``--trace 0`` (tracing off, 1 BLAS thread) it reports the end-to-end metrics:
  setup_s      median over five processes of the time from process start until
               polyradii is imported and a small warm-up job has run, each scaled
               by the reference time its own process measured next; four of them
               are probes started between timed rounds
  wall_s       median over timed rounds of a round's wall time
  units_per_s  median over timed rounds of a round's units over its wall time
  peak_rss_mb  peak resident memory of the worker process

With ``--trace 1`` it runs the same rounds untraced and traced, at 1 and at 2
BLAS threads, and reports the per-layer metrics of tracing.py (raw seconds,
suffix ".t2" for 2 threads; the flop and byte counts are computed from array
shapes) and these:
  wall_s.t2          as wall_s, at 2 BLAS threads (untraced)
  process.cpu_s      median CPU seconds of an untraced round, all threads
  trace.overhead_s   traced minus untraced median round wall time, 1 thread, at
                     reference speed
  host.ref_ms        median reference kernel time over the run

Every job's output is checked (workloads.py). The fingerprint round's outputs
must match pins.json, and each job's output must be byte-identical at both
thread settings and with tracing on and off. The last line of standard output
is the JSON result; a host manifest and the raw timings come before it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import COMPUTED, COUNT_METRICS, TIME_METRICS, trace_metrics
from worker import THREAD_VARS
from workloads import DEFAULT_SEED, FINGERPRINT, WORKLOADS

BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 4  # set-up-only processes, on top of the worker
TIME_LIMIT_S = 170.0  # every worker is killed once the run has taken this long
# Reference kernel time that timings are scaled to: about its fastest time on
# the 2-core host the benchmark was written on, so scaled and raw times agree
# when that host is quiet.
REFERENCE_S = 0.010

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "units_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **COUNT_METRICS,
    **TIME_METRICS,
    **{f"{name}.t2": unit for name, unit in TIME_METRICS.items()},
    "wall_s.t2": "s",
    "process.cpu_s": "s",
    "process.cpu_s.t2": "s",
    "trace.overhead_s": "s",
    "host.ref_ms": "ms",
}


class BenchError(Exception):
    """The run cannot produce a result."""


class Worker:
    """A running worker.py process at one BLAS thread setting."""

    def __init__(self, run: "Run", role: str, threads: int, *extra: str) -> None:
        self.role = role
        env = dict(os.environ, **{var: str(threads) for var in THREAD_VARS})
        cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(run.root),
               "--work", str(run.work), "--workload", run.workload, "--seed", str(run.seed),
               *extra, *(["--tiny"] if run.tiny else [])]
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=env)
        run.procs.append(self.proc)
        ready = self.expect("READY")
        self.setup_s = time.perf_counter() - start
        self.warm, self.env = ready["warm"], ready["env"]
        self.jobs: list[dict] = []
        self.refs: dict[int, float] = {}  # reference kernel seconds around each round
        self.result: dict = {}

    def expect(self, tag: str):
        line = self.proc.stdout.readline()
        got, _, payload = line.partition(" ")
        if got != tag:
            raise BenchError(f"{self.role} worker sent {line[:200]!r} instead of {tag}")
        return json.loads(payload)

    def run_round(self, index: int) -> None:
        self.proc.stdin.write(f"round {index}\n")
        self.proc.stdin.flush()
        reply = self.expect("ROUND")
        self.refs[index] = reply["ref_s"]
        self.jobs += reply["jobs"]

    def finish(self, expect_result: bool = True) -> None:
        self.proc.stdin.close()
        if expect_result:
            self.result = self.expect("RESULT")
        if self.proc.wait() != 0:
            raise BenchError(f"{self.role} worker exited with status {self.proc.returncode}")

    def timed_rounds(self) -> dict[int, dict[str, float]]:
        """Wall seconds, CPU seconds and units of each timed round."""
        rounds: dict[int, dict[str, float]] = {}
        for job in self.jobs:
            if job["round"] >= 0:
                total = rounds.setdefault(job["round"], {"wall": 0.0, "cpu": 0.0, "units": 0})
                for key in total:
                    total[key] += job[key]
        return rounds

    def median_wall(self) -> float:
        return statistics.median(r["wall"] for r in self.timed_rounds().values())

    def scaled_walls(self, refs: dict[int, float]) -> dict[int, float]:
        """Round wall times at reference speed, from the reference times ``refs``."""
        return {i: r["wall"] * REFERENCE_S / refs[i] for i, r in self.timed_rounds().items()}


@dataclass
class Run:
    root: Path
    work: Path
    workload: str
    seed: int
    tiny: bool
    workers: list[Worker] = field(default_factory=list)
    procs: list[subprocess.Popen] = field(default_factory=list)

    def start(self, role: str, threads: int, *extra: str) -> Worker:
        worker = Worker(self, role, threads, *extra)
        self.workers.append(worker)
        return worker

    def probe_setup(self) -> tuple[float, float]:
        """Raw and scaled set-up time of one more process that exits once it is ready."""
        probe = self.start("setup probe", 1, "--setup-only")
        ref = probe.expect("REF")
        probe.finish(expect_result=False)
        return probe.setup_s, probe.setup_s * REFERENCE_S / ref

    def rounds(self, workers: list[Worker], seconds: float, between=None) -> None:
        """Run the fingerprint round on each worker, then timed rounds, one worker
        after the other, for as long as the next set still fits in ``seconds``.
        ``between`` runs after each set of timed rounds."""
        for worker in workers:
            worker.run_round(FINGERPRINT)
        start = time.perf_counter()
        index, last = 0, 0.0
        while index == 0 or time.perf_counter() - start + last <= seconds:
            began = time.perf_counter()
            for worker in workers:
                worker.run_round(index)
            if between is not None:
                between()
            index, last = index + 1, time.perf_counter() - began
        for worker in workers:
            worker.finish()

    def kill(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()


def same_outputs(reference: Worker, other: Worker) -> None:
    """Mark the other worker's jobs whose output differs from the same job's in reference."""
    digests = {(job["round"], job["index"]): job["digest"] for job in reference.jobs}
    for job in other.jobs:
        ref = digests.get((job["round"], job["index"]))
        if ref is not None and ref != job["digest"] and job["problem"] is None:
            job["problem"] = f"output differs from the {reference.role} run"


def check_pins(run: Run, pins: dict[str, str]) -> None:
    """Mark jobs whose output digest differs from the one pinned for their inputs."""
    for worker in run.workers:
        for job in worker.jobs:
            pin = pins.get(job["key"])
            if pin is None and job["round"] == FINGERPRINT and not run.tiny:
                job["problem"] = job["problem"] or "no pinned digest for this fingerprint job"
            elif pin is not None and pin != job["digest"] and job["problem"] is None:
                job["problem"] = f"output digest {job['digest'][:12]} differs from pin {pin[:12]}"


def end_to_end(run: Run, seconds: float) -> tuple[dict[str, float], dict[str, float]]:
    """The end-to-end metrics, and the raw timings behind them."""
    worker = run.start("1-thread", 1)
    setups: list[tuple[float, float]] = []

    def probe() -> None:
        if len(setups) < SETUP_PROBES:
            setups.append(run.probe_setup())

    run.rounds([worker], seconds, between=probe)
    while len(setups) < SETUP_PROBES:
        probe()
    setups.append((worker.setup_s, worker.setup_s * REFERENCE_S / worker.refs[FINGERPRINT]))
    rounds = worker.timed_rounds()
    scaled = worker.scaled_walls(worker.refs)
    metrics = {
        "setup_s": statistics.median(s for _, s in setups),
        "wall_s": statistics.median(scaled.values()),
        "units_per_s": statistics.median(r["units"] / scaled[i] for i, r in rounds.items()),
        "peak_rss_mb": worker.result["maxrss_mb"],
    }
    raw = {
        "setup_s": statistics.median(s for s, _ in setups),
        "wall_s": worker.median_wall(),
        "units_per_s": statistics.median(r["units"] / r["wall"] for r in rounds.values()),
        "ref_ms": 1000 * statistics.median(worker.refs.values()),
    }
    return metrics, raw


def per_layer(run: Run, seconds: float) -> tuple[dict[str, float], dict[str, float]]:
    """The per-layer metrics, and the raw timings of the untraced workers."""
    paths = {t: run.work / f"trace-t{t}.json" for t in (1, 2)}
    plain = {t: run.start(f"{t}-thread", t) for t in (1, 2)}
    traced = {t: run.start(f"{t}-thread traced", t, "--trace-out", str(paths[t])) for t in (1, 2)}
    run.rounds([*plain.values(), *traced.values()], seconds)
    for other in (plain[2], traced[1], traced[2]):
        same_outputs(plain[1], other)
    m = {t: trace_metrics(json.loads(paths[t].read_text()), traced[t].jobs) for t in (1, 2)}
    metrics = {name: m[1][name] for name in {**COUNT_METRICS, **TIME_METRICS}}
    metrics.update({f"{name}.t2": m[2][name] for name in TIME_METRICS})
    # The 1-thread worker's reference times bracket the 2-thread worker's rounds.
    metrics["wall_s.t2"] = statistics.median(plain[2].scaled_walls(plain[1].refs).values())
    for t, suffix in ((1, ""), (2, ".t2")):
        cpu = statistics.median(r["cpu"] for r in plain[t].timed_rounds().values())
        metrics[f"process.cpu_s{suffix}"] = cpu
    metrics["trace.overhead_s"] = (
        statistics.median(traced[1].scaled_walls(traced[1].refs).values())
        - statistics.median(plain[1].scaled_walls(plain[1].refs).values()))
    metrics["host.ref_ms"] = 1000 * statistics.median(plain[1].refs.values())
    raw = {"wall_s": plain[1].median_wall(), "wall_s.t2": plain[2].median_wall()}
    return metrics, raw


def manifest(run: Run, load_before: tuple[float, ...]) -> dict:
    ref = next(w for w in run.workers if w.result)
    return {
        "workload": run.workload,
        "seed": run.seed,
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        **{key: ref.result[key] for key in ("python", "numpy", "scipy", "blas_build")},
        "processes": [{"role": w.role, "env": w.env} for w in run.workers],
    }


def layer_ranking(metrics: dict[str, float]) -> str:
    layers = {name.split(".")[0]: metrics[name] for name in (
        "streams.self_s", "bodies.sample.self_s", "grassmann.self_s", "radii.self_s",
        "moments.self_s", "sweep.self_s", "cli.self_s")}
    layers["gaussian"] = metrics["gaussian.quad.self_s"] + metrics["gaussian.mc.self_s"]
    total = metrics["trace.wall_s"]
    return ", ".join(f"{name} {value / total:.0%}"
                     for name, value in sorted(layers.items(), key=lambda kv: -kv[1]))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrink every job (harness smoke test)")
    args = ap.parse_args()

    root = BENCH.parent
    if not (root / "src" / "polyradii" / "__init__.py").is_file():
        print(f"bench: no polyradii package under {root / 'src'}", file=sys.stderr)
        return 2
    pins = json.loads((BENCH / "pins.json").read_text())["digests"]
    load_before = os.getloadavg()
    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=root))
    run = Run(root, work, args.workload, args.seed, args.tiny)
    watchdog = threading.Timer(TIME_LIMIT_S, run.kill)
    watchdog.start()
    try:
        if args.trace:
            metrics, raw = per_layer(run, args.seconds)
        else:
            metrics, raw = end_to_end(run, args.seconds)
    except (BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        watchdog.cancel()
        run.kill()
        for proc in run.procs:
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    check_pins(run, pins)

    jobs = [w.warm for w in run.workers] + [job for w in run.workers for job in w.jobs]
    failed = [job for job in jobs if job["problem"] is not None]
    for job in failed:
        print(f"bench: job {job['key']} failed: {job['problem']}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    print("manifest " + json.dumps(manifest(run, load_before)))
    for worker in run.workers:
        if worker.jobs:
            walls = " ".join(f"{r['wall']:.4g}" for r in worker.timed_rounds().values())
            print(f"raw round wall s, {worker.role}: {walls}")
    print("raw " + json.dumps(raw))
    for name, unit in units.items():
        note = " (computed from array shapes)" if name in COMPUTED else ""
        print(f"{name:<28} {metrics[name]:>14.6g} {unit}{note}")
    error_rate = len(failed) / len(jobs)
    print(f"{'error_rate':<28} {error_rate:>14.6g} ({len(failed)} of {len(jobs)} jobs)")
    if args.trace:
        print(f"self time share at 1 thread: {layer_ranking(metrics)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
