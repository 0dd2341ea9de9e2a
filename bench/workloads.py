"""The benchmark's workloads: which CLI jobs each one runs, and how each output is checked.

Every workload is a closed loop: one client runs CLI jobs back to back. Jobs come
in rounds. A round is the fixed set of jobs whose summed wall time is reported as
``wall_s``; its inputs follow from (workload, benchmark seed, round index) alone.
Round ``FINGERPRINT`` runs the default seed, and its outputs are compared with
the digests in ``pins.json``.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 20260809
FINGERPRINT = -1

# The CSV columns as the README documents them, written out here so that the
# check does not take the program's own list on trust.
CSV_COLUMNS = [
    "body", "n", "N", "k", "replica", "seed", "estimate", "stderr",
    "L_K", "normalizer", "ratio", "regime_flag",
]
BODIES = ("cube", "ball", "cross", "simplex")

# `check` and `gaussian` give 3-sigma verdicts, so an arbitrary seed fails one now
# and then without any defect in the program. Their jobs therefore draw the config
# seed from DEFAULT_SEED + 0..POOL-1, whose outputs are pinned in pins.json.
POOL = 8

# The verdict lines `polyradii check` prints, in order.
CHECK_NAMES = (
    "profile_monotone",
    "i2_identity",
    "subspace_moment_identity",
    "subspace_moment_band",
    "positive_moment_band",
    "negative_moment_band",
    "centroid_width_band",
    "grassmann_negative_moment_band",
    "tail_sandwich_grid",
)

WORKLOADS = ("sweep-frames", "sweep-inregime", "check-suite", "gaussian-oracle")


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``polyradii <args> [--config FILE] [--out FILE]``."""

    key: str  # names the inputs; pins.json is keyed by it
    kind: str  # "sweep", "check" or "gaussian"
    args: tuple[str, ...]
    config: dict | None  # written to a file and passed with --config
    units: int  # flags projected, checks run or MC replicas, as units_per_s counts them


def _sweep_job(body: str, n: int, N_list: list[int], k_list: list[int], M: int, R: int,
               seed: int) -> Job:
    config = {"body": body, "n": n, "N_list": N_list, "k_list": k_list, "M": M, "R": R,
              "seed": seed}
    return Job(f"{body}-{n}/s{seed}", "sweep", ("sweep",), config, M * R * len(N_list))


def _frames_cell(body: str, n: int, seed: int, tiny: bool) -> Job:
    ks = sorted({1, math.ceil(math.sqrt(n)), math.ceil(n / 2), n})
    return _sweep_job(body, n, [n, 4 * n], ks, 4 if tiny else 64, 1 if tiny else 5, seed)


def round_jobs(workload: str, seed: int, index: int, tiny: bool = False) -> list[Job]:
    """The jobs of one round, in the order they run.

    ``tiny`` shrinks every size so the harness itself can be smoke-tested in seconds.
    """
    rng = random.Random(f"{workload}/{seed}/{index}")
    fingerprint = index == FINGERPRINT

    def config_seed() -> int:
        return DEFAULT_SEED if fingerprint else rng.randrange(2**32)

    def pool_seed() -> int:
        return DEFAULT_SEED if fingerprint else DEFAULT_SEED + rng.randrange(POOL)

    if workload == "sweep-frames":
        cells = [(body, n) for body in BODIES for n in ((4, 8) if tiny else (16, 64))]
        if not fingerprint:
            rng.shuffle(cells)
        return [_frames_cell(body, n, config_seed(), tiny) for body, n in cells]
    if workload == "sweep-inregime":
        if tiny:
            return [_sweep_job("cube", 8, [64], [1, 2, 4, 8], 4, 1, config_seed())]
        return [_sweep_job("cube", 100, [10_000], [1, 10, 50, 100], 64, 1, config_seed())]
    if workload == "check-suite":
        s = pool_seed()
        if tiny:
            config = {"body": "cube", "n": 8, "N_list": [8], "k_list": [1, 8], "M": 4, "R": 1,
                      "m": 2000, "seed": s}
            return [Job(f"tiny-check/s{s}", "check", ("check",), config, len(CHECK_NAMES))]
        return [Job(f"check/s{s}", "check", ("check", "--seed", str(s)), None, len(CHECK_NAMES))]
    if workload == "gaussian-oracle":
        s = pool_seed()
        ks, Ns, M, n = ((1, 2), (10, 20), 8, 4) if tiny else ((1, 8, 32), (100, 1000), 128, 64)
        args = ("gaussian", "--k", ",".join(map(str, ks)), "--N", ",".join(map(str, Ns)),
                "--n", str(n), "--M", str(M), "--seed", str(s))
        return [Job(f"{'tiny-' if tiny else ''}gaussian/s{s}", "gaussian", args, None,
                    M * len(ks) * len(Ns))]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def warm_job(workload: str) -> Job:
    """The small job each process runs before it reports that set-up is done."""
    return round_jobs(workload, DEFAULT_SEED, FINGERPRINT, tiny=True)[0]


def _check_sweep(job: Job, stdout: str, csv_text: str | None, out: str) -> str | None:
    cfg = job.config
    if csv_text is None:
        return "no CSV written"
    rows = list(csv.reader(io.StringIO(csv_text)))
    if rows[0] != CSV_COLUMNS:
        return f"CSV header {rows[0]} is not the documented one"
    body = rows[1:]
    expected = [(N, k, r) for N in cfg["N_list"] for k in cfg["k_list"] for r in range(cfg["R"])]
    if len(body) != len(expected):
        return f"{len(body)} CSV rows, expected |N|*|k|*R = {len(expected)}"
    if stdout != f"wrote {out} ({len(expected)} rows)\n":
        return f"unexpected stdout {stdout!r}"
    profiles: dict[tuple[int, int], list[tuple[int, float]]] = {}
    for row, (N, k, r) in zip(body, expected):
        rec = dict(zip(CSV_COLUMNS, row))
        if (rec["body"], int(rec["n"]), int(rec["N"]), int(rec["k"]), int(rec["replica"]),
                int(rec["seed"])) != (cfg["body"], cfg["n"], N, k, r, cfg["seed"]):
            return f"row {row} out of grid order"
        estimate, ratio = float(rec["estimate"]), float(rec["ratio"])
        if not (math.isfinite(ratio) and ratio > 0 and math.isfinite(estimate)):
            return f"non-finite or nonpositive ratio in row {row}"
        profiles.setdefault((N, r), []).append((k, estimate))
    for (N, r), prof in profiles.items():
        values = [v for _, v in sorted(prof)]
        if any(b < a for a, b in zip(values, values[1:])):
            return f"estimate decreases in k at N={N} replica={r}"
    return None


def _check_check(stdout: str) -> str | None:
    lines = stdout.splitlines()
    names = [line.split()[0] for line in lines[:-1]]
    if names != list(CHECK_NAMES):
        return f"check printed {names}, expected {list(CHECK_NAMES)}"
    failed = [line for line in lines[:-1] if not line.endswith("-> PASS")]
    if failed:
        return f"checks not passed: {failed}"
    if lines[-1] != f"{len(CHECK_NAMES)}/{len(CHECK_NAMES)} checks passed":
        return f"unexpected summary {lines[-1]!r}"
    return None


def _check_gaussian(job: Job, stdout: str, oracle: Callable[[int, int], float]) -> str | None:
    args = dict(zip(job.args[1::2], job.args[2::2]))
    pairs = [(int(k), int(N)) for k in args["--k"].split(",") for N in args["--N"].split(",")]
    lines = stdout.splitlines()
    if len(lines) != 1 + len(pairs):
        return f"{len(lines) - 1} table rows, expected {len(pairs)}"
    for line, (k, N) in zip(lines[1:], pairs):
        fields = line.split()
        if (int(fields[0]), int(fields[1])) != (k, N):
            return f"row {line!r} is not (k={k}, N={N})"
        mc, se = float(fields[2]), float(fields[3])
        if not (math.isfinite(mc) and mc > 0 and se > 0):
            return f"bad Monte Carlo value in row {line!r}"
        if fields[4] != f"{oracle(k, N):.8f}":
            return f"oracle column {fields[4]} differs from expected_max_chi({k}, {N})"
        if fields[6] != "yes":
            return f"Monte Carlo disagrees with the oracle in row {line!r}"
    return None


def check_output(job: Job, rc, stdout: str, csv_text: str | None, out: str,
                 oracle: Callable[[int, int], float]) -> str | None:
    """None when the job's output is correct, else what is wrong with it."""
    if rc != 0:
        return f"exit status {rc}"
    try:
        if job.kind == "sweep":
            return _check_sweep(job, stdout, csv_text, out)
        if job.kind == "check":
            return _check_check(stdout)
        return _check_gaussian(job, stdout, oracle)
    except (ValueError, IndexError) as exc:  # a field missing or not a number
        return f"malformed output ({exc!r})"
