"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END, PER_LAYER  # noqa: E402
from tracing import self_times, trace_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args, "--tiny"],
                          capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted(workload, trace):
    result = _run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = PER_LAYER if trace == "1" else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == names


def test_trace_parses_and_self_times_fit_in_wall(tmp_path):
    trace_file = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--root", str(BENCH.parent),
         "--work", str(tmp_path), "--workload", "check-suite", "--seed", "7",
         "--trace-out", str(trace_file), "--tiny"],
        input="round -1\nround 0\nround 1\n", capture_output=True, text=True, timeout=170,
        check=True)
    tags = [line.partition(" ")[0] for line in proc.stdout.splitlines()]
    assert tags == ["READY", "ROUND", "ROUND", "ROUND", "RESULT"]
    jobs = [job for line in proc.stdout.splitlines() if line.startswith("ROUND ")
            for job in json.loads(line.partition(" ")[2])["jobs"]]
    trace = json.loads(trace_file.read_text())
    spans = trace["spans"]
    assert spans and all(len(span) == 5 and span[1] <= span[2] for span in spans)
    assert all(span[3] < i for i, span in enumerate(spans))  # parents start first
    selfs = self_times(spans)
    assert min(selfs) >= 0.0
    timed = [j for j in jobs if j["round"] >= 0]
    assert sum(selfs) <= sum(j["wall"] for j in timed)
    metrics = trace_metrics(trace, jobs)
    assert metrics["trace.uncovered_s"] >= 0.0
    layer_self = sum(metrics[name] for name in (
        "streams.self_s", "bodies.sample.self_s", "grassmann.self_s", "radii.self_s",
        "moments.self_s", "gaussian.quad.self_s", "gaussian.mc.self_s", "sweep.self_s",
        "cli.self_s"))
    assert layer_self <= metrics["trace.wall_s"]
    assert metrics["moments.calls"] > 0 and metrics["grassmann.frames"] > 0


def test_missing_package_fails_without_result(tmp_path):
    copy = tmp_path / "bench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    (copy / "pins.json").write_text((BENCH / "pins.json").read_text())
    proc = subprocess.run([sys.executable, str(copy / "run.py"), "--workload", "sweep-frames"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
