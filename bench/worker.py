"""One benchmark process at one BLAS thread setting.

It imports polyradii from the checkout's ``src``, runs the workload's warm-up
job and prints ``READY {...}``. Then, for each line ``round <index>`` on its
standard input, it runs that round's CLI jobs through ``polyradii.cli.main``
and prints ``ROUND {...}``: one result per job, and the median time of a fixed
reference kernel run twice before and twice after the round. At end of input
it writes its trace, if asked to, and prints ``RESULT {...}``. run.py starts
it with the thread environment already set and decides when each round runs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer
from workloads import check_output, round_jobs, warm_job

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_package(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import polyradii.cli

    if src.resolve() not in Path(polyradii.cli.__file__).resolve().parents:
        sys.exit(f"bench: polyradii was imported from {polyradii.cli.__file__}, not from {src}")
    return polyradii.cli


def run_job(cli, job, work: Path, oracle) -> dict:
    """Run one CLI job, time it, and check its output."""
    argv = list(job.args)
    if job.config is not None:
        config = work / "config.json"
        config.write_text(json.dumps(job.config))
        argv += ["--config", str(config)]
    out = work / "out.csv"
    out.unlink(missing_ok=True)
    if job.kind == "sweep":
        argv += ["--out", str(out)]
    stdout = io.StringIO()
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(argv)
    except Exception:  # a crash in the program is a failed job; the run goes on
        traceback.print_exc()
        rc = "an uncaught exception"
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    csv_text = out.read_text() if out.exists() else None
    problem = check_output(job, rc, stdout.getvalue(), csv_text, str(out), oracle)
    output = csv_text if csv_text is not None else stdout.getvalue()
    return {"key": job.key, "wall": wall, "cpu": cpu, "units": job.units,
            "digest": hashlib.sha256(output.encode()).hexdigest(), "problem": problem}


class ReferenceKernel:
    """A fixed mix of small QRs, a GEMM, inverse-normal draws and interpreted
    Python, the same kinds of work the package does, that never changes. Its
    time tracks the host's speed, which on a shared machine drifts by up to 2x
    over minutes."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.square = rng.standard_normal((64, 64))
        self.tall = rng.standard_normal((4000, 100))
        self.wide = rng.standard_normal((100, 50))
        self.uniforms = rng.random(20000)

    def seconds(self) -> float:
        import numpy as np
        from scipy.special import ndtri

        start = time.perf_counter()
        for _ in range(40):
            np.linalg.qr(self.square)
        for _ in range(4):
            self.tall @ self.wide
        ndtri(self.uniforms)
        total = 0
        for i in range(30000):
            total += i * i
        return time.perf_counter() - start


def _blas_build() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {"blas": deps.get("blas"), "lapack": deps.get("lapack")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=Path, required=True, help="checkout holding src/polyradii")
    ap.add_argument("--work", type=Path, required=True, help="scratch directory for files")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace-out", type=Path, help="trace the timed rounds into this file")
    ap.add_argument("--setup-only", action="store_true",
                    help="time the reference kernel once set-up is done, then exit")
    ap.add_argument("--tiny", action="store_true", help="shrink every job")
    args = ap.parse_args()

    cli = _import_package(args.root)
    from polyradii.gaussian import expected_max_chi  # bound before tracing wraps it

    warm = run_job(cli, warm_job(args.workload), args.work, expected_max_chi)
    env = {var: os.environ.get(var) for var in THREAD_VARS}
    print("READY " + json.dumps({"warm": warm, "env": env}), flush=True)
    reference = ReferenceKernel()
    if args.setup_only:
        print("REF " + json.dumps(statistics.median(reference.seconds() for _ in range(3))))
        return 0

    tracer = None
    jobs_done = 0
    for command in sys.stdin:
        words = command.split()
        if words[:1] != ["round"]:
            break
        index = int(words[1])
        if index >= 0 and args.trace_out is not None and tracer is None:
            tracer = Tracer()
            tracer.install()
        refs = [reference.seconds(), reference.seconds()]
        results = []
        for j, job in enumerate(round_jobs(args.workload, args.seed, index, args.tiny)):
            if tracer is not None:
                tracer.job = jobs_done
            result = run_job(cli, job, args.work, expected_max_chi)
            result.update(round=index, index=j)
            results.append(result)
            jobs_done += 1
        refs += [reference.seconds(), reference.seconds()]
        print("ROUND " + json.dumps({"ref_s": statistics.median(refs), "jobs": results}),
              flush=True)
    if tracer is not None:
        args.trace_out.write_text(json.dumps(tracer.dump()))

    import numpy
    import scipy

    print("RESULT " + json.dumps({
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_build": _blas_build(),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
