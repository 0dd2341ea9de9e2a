"""The benchmark's fingerprint jobs reproduce the digests pinned in bench/pins.json.

Each workload's fingerprint round (nine sweeps, one check, one gaussian table at
the default seed) runs through ``polyradii.cli.main`` as the benchmark runs it,
and the sha256 of its output (the CSV for a sweep, stdout otherwise) must equal
its pin. The pins were taken at 1 BLAS thread and hold at 2 as well.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from polyradii import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
_spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

PINS = json.loads((BENCH / "pins.json").read_text())["digests"]
JOBS = [job for w in workloads.WORKLOADS
        for job in workloads.round_jobs(w, workloads.DEFAULT_SEED, workloads.FINGERPRINT)]


@pytest.mark.parametrize("job", JOBS, ids=[job.key for job in JOBS])
def test_fingerprint_output_matches_pin(job, tmp_path, capsys):
    argv = list(job.args)
    if job.config is not None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(job.config))
        argv += ["--config", str(config)]
    out = tmp_path / "out.csv"
    if job.kind == "sweep":
        argv += ["--out", str(out)]
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out
    output = out.read_text() if job.kind == "sweep" else stdout
    assert hashlib.sha256(output.encode()).hexdigest() == PINS[job.key]
