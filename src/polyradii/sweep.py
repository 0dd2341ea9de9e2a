"""Experiment harness: configs, sweeps, reports, consistency checks, CSV output.

The sweep grid draws fresh clouds per replica, estimates mean outer radii
with flag profiles, and emits one CSV row per (N, k, replica) together with
the normalizer max(sqrt k, sqrt log N) L_K and the ratio the asymptotic
theory bounds.  All rows are reproducible from the config seed alone.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import MISSING, dataclass, fields
from typing import Iterable

import numpy as np

from .bodies import KINDS, Body, isotropic_constant, make_body, sample_points
from .gaussian import expected_max_chi, projected_max_mc, tail_sandwich_check
from .moments import (
    MIN_SAMPLES,
    centroid_width_check,
    grassmann_moment_avg,
    moment,
    negative_moment_ratios,
    positive_moment_ratios,
)
from .radii import PointCloud, radius_profile
from .streams import StreamKey

DEFAULT_M = 64
DEFAULT_R = 5
DEFAULT_POINTS = 10_000
DEFAULT_SEED = 20260809


def _reject_repeats(**lists: list[int]) -> None:
    """Raise on the first list that names a value twice."""
    for name, values in lists.items():
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ValueError(f"{name} repeats {value}")


@dataclass
class SweepConfig:
    """Grid description for one sweep; JSON configs use exactly these names."""

    body: str
    n: int
    N_list: list[int]
    k_list: list[int]
    M: int = DEFAULT_M
    R: int = DEFAULT_R
    m: int = DEFAULT_POINTS
    seed: int = DEFAULT_SEED
    out: str | None = None

    def __post_init__(self) -> None:
        if self.body not in KINDS:
            raise ValueError(
                f"invalid body kind {self.body!r}; valid kinds: {', '.join(KINDS)}"
            )
        # exact JSON types: bool is an int subclass, and 16.7 must not pass as 16
        if not all(type(getattr(self, name)) is int for name in ("n", "M", "R", "m", "seed")):
            raise ValueError("n, M, R, m and seed must be integers")
        lists = (self.N_list, self.k_list)
        if not all(type(v) is list and all(type(x) is int for x in v) for v in lists):
            raise ValueError("N_list and k_list must be lists of integers")
        if not (self.out is None or isinstance(self.out, str)):
            raise ValueError("out must be a path string")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not self.N_list or not self.k_list:
            raise ValueError("N_list and k_list must be nonempty")
        _reject_repeats(N_list=self.N_list, k_list=self.k_list)
        if any(k < 1 or k > self.n for k in self.k_list):
            raise ValueError("k_list entries must lie in 1..n")
        if any(N < self.n for N in self.N_list):
            raise ValueError("N_list entries must be >= n")
        if self.M < 2 or self.R < 1 or self.m < 1:
            raise ValueError("M, R and m must be positive (M >= 2)")


def config_from_dict(data: dict, check: bool = False) -> SweepConfig:
    """The validated config.  With ``check``, the fields the check suite never
    reads (k_list, R, out and the N_list entries past the first) are set to
    values every grid accepts, so only the fields it reads are validated."""
    if not isinstance(data, dict):
        raise ValueError("a config must be a JSON object")
    known = {f.name for f in fields(SweepConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    required = {f.name for f in fields(SweepConfig) if f.default is MISSING}
    missing = required - set(data)
    if missing:
        raise ValueError(f"missing config keys: {', '.join(sorted(missing))}")
    if check:
        N_list = data["N_list"]
        first = N_list[:1] if type(N_list) is list else N_list
        data = {**data, "N_list": first, "k_list": [1], "R": 1, "out": None}
    return SweepConfig(**data)


def load_config(path: str, check: bool = False) -> SweepConfig:
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(json.load(fh), check)


@dataclass(frozen=True)
class SweepRow:
    body: str
    n: int
    N: int
    k: int
    replica: int
    seed: int
    estimate: float
    stderr: float
    L_K: float
    normalizer: float
    ratio: float
    regime_flag: str


CSV_COLUMNS = [f.name for f in fields(SweepRow)]


def normalizer(k: int, N: int, L: float) -> float:
    """max(sqrt k, sqrt log N) times the isotropic constant."""
    return max(math.sqrt(k), math.sqrt(math.log(N))) * L


def regime_flag(n: int, N: int) -> str:
    """Flag rows outside the regime N <= e^sqrt(n); they are kept, not dropped."""
    return "out-of-regime" if math.log(N) > math.sqrt(n) else "in-regime"


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """All grid rows in deterministic (N, k, replica) order."""
    body = make_body(config.body, config.n)
    L = isotropic_constant(body)
    root = StreamKey(config.seed)
    ks = sorted(config.k_list)
    rows = []
    for i, N in enumerate(config.N_list):
        profs = [
            radius_profile(
                PointCloud(sample_points(body, N, root.child(0).child(i).child(r))),
                config.M,
                root.child(1).child(i).child(r),
                ks,
            )
            for r in range(config.R)
        ]
        flag = regime_flag(config.n, N)
        for k in config.k_list:
            norm = normalizer(k, N, L)
            for r, prof in enumerate(profs):
                est = prof.estimate(k)
                rows.append(
                    SweepRow(
                        config.body,
                        config.n,
                        N,
                        k,
                        r,
                        config.seed,
                        est.value,
                        est.stderr,
                        L,
                        norm,
                        est.value / norm,
                        flag,
                    )
                )
    return rows


def _format_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def rows_to_csv(rows: Iterable[SweepRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(
            ",".join(_format_cell(getattr(row, col)) for col in CSV_COLUMNS)
        )
    return "\n".join(lines) + "\n"


def write_csv(rows: Iterable[SweepRow], path: str) -> None:
    """Write the CSV to a temporary file beside path, then rename it over path,
    so a failure part-way leaves any previous file intact."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(rows_to_csv(rows))
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


@dataclass(frozen=True)
class GaussianOracleRow:
    """Gaussian cloud Monte Carlo against the chi-max quadrature oracle."""

    k: int
    N: int
    mc: float
    stderr: float
    oracle: float
    normalizer: float
    agrees: bool


def gaussian_oracle_report(
    k_list: list[int],
    N_list: list[int],
    M: int,
    seed: int,
    n: int | None = None,
) -> list[GaussianOracleRow]:
    """MC mean outer radii of Gaussian clouds vs expected_max_chi vs normalizer.

    The oracle column depends only on (k, N); the MC column replicates cloud
    and subspace M times in ambient dimension n (default: the largest k).
    """
    if not k_list or not N_list:
        raise ValueError("k_list and N_list must be nonempty")
    _reject_repeats(k_list=k_list, N_list=N_list)
    if M < 0 or M == 1:
        raise ValueError(f"M must be 0 (oracle only) or >= 2, got M={M}")
    ambient = n if n is not None else max(k_list)
    for k in k_list:
        if not 1 <= k <= ambient:
            raise ValueError(f"k={k} outside 1..n for n={ambient}")
    if min(N_list) < 1:
        raise ValueError(f"N={min(N_list)} must be >= 1")
    try:
        float(max(N_list))  # as expected_max_chi's N * x converts it
    except OverflowError:
        raise ValueError(f"N={max(N_list)} is above the float range") from None
    root = StreamKey(seed)
    rows = []
    for i, k in enumerate(k_list):
        for j, N in enumerate(N_list):
            oracle = expected_max_chi(k, N)
            norm = normalizer(k, N, 1.0)
            if M > 0:
                est = projected_max_mc(ambient, k, N, M, root.child(i).child(j))
                agrees = abs(est.value - oracle) <= 3.0 * est.stderr
                rows.append(GaussianOracleRow(k, N, est.value, est.stderr, oracle, norm, agrees))
            else:
                rows.append(GaussianOracleRow(k, N, math.nan, math.nan, oracle, norm, True))
    return rows


@dataclass(frozen=True)
class CheckResult:
    name: str
    detail: str
    passed: bool


def default_check_config() -> SweepConfig:
    return SweepConfig(
        body="cube", n=16, N_list=[256], k_list=[1, 4, 8, 16], M=32, R=3, m=20000
    )


def check_i2_identity(body: Body, m: int, key: StreamKey) -> CheckResult:
    """I_2(K) must equal sqrt(n) L_K of the canonical model of same kind/dim.

    Anchoring to the canonical constant (not the instance's own scale) makes
    the check a mutation detector: a corrupted scale shifts I_2 but not the
    target.
    """
    canonical = make_body(body.kind, body.dim)
    target = math.sqrt(body.dim) * isotropic_constant(canonical)
    est = moment(body, 2.0, m, key)
    gap = abs(est.value - target)
    passed = gap <= 3.0 * est.stderr
    detail = f"I_2={est.value:.5f} target={target:.5f} gap={gap:.2e} (3se={3 * est.stderr:.2e})"
    return CheckResult("i2_identity", detail, passed)


def _check_profile_monotone(body: Body, config: SweepConfig, key: StreamKey) -> CheckResult:
    clouds = [
        PointCloud(sample_points(body, config.N_list[0], key.child(0))),
        # adversarial: a single point and a collinear cloud
        PointCloud(np.ones((1, body.dim)) * 0.1),
        PointCloud(np.linspace(-0.3, 0.3, 7)[:, None] * np.ones(body.dim) / math.sqrt(body.dim)),
    ]
    worst = 0.0
    for i, cloud in enumerate(clouds):
        prof = radius_profile(cloud, config.M, key.child(10 + i))
        worst = min(worst, float(np.min(np.diff(prof.values))))
    passed = worst >= 0.0
    return CheckResult(
        "profile_monotone", f"min increment {worst:.3e} (exact, zero tolerance)", passed
    )


def _check_subspace_moments(body: Body, config: SweepConfig, q_main: float, key: StreamKey):
    n = body.dim
    ga = grassmann_moment_avg(body, max(1, n // 2), q_main, 128, config.m, key.child(0))
    gap = abs(ga.estimate.value - ga.reference.value)
    tol = 3.0 * math.hypot(ga.estimate.stderr, ga.reference.stderr)
    yield CheckResult(
        "subspace_moment_identity",
        f"ratio {ga.estimate.value / ga.reference.value:.4f}, gap {gap:.2e} (3se={tol:.2e})",
        gap <= tol,
    )
    ratios = []
    for i, k in enumerate(sorted({1, max(1, n // 2), n})):
        for j, q in enumerate([1.0, 2.0, math.log(config.N_list[0])]):
            ga = grassmann_moment_avg(body, k, q, 100, config.m, key.child(1 + i).child(j))
            ratios.append(ga.estimate.value / (math.sqrt((k + q) / (n + q)) * ga.iq.value))
    yield CheckResult(
        "subspace_moment_band",
        f"ratios vs sqrt((k+q)/(n+q)) I_q span {min(ratios):.3f}..{max(ratios):.3f}, band [1/3, 3]",
        all(1.0 / 3.0 <= r <= 3.0 for r in ratios),
    )


def _check_moment_ratios(body: Body, config: SweepConfig, key: StreamKey):
    pos = positive_moment_ratios(body, config.m, key.child(0))
    ratios = [row.ratio for row in pos]
    in_band = all(0.5 <= x <= 2.0 for x in ratios)
    q2 = next(row for row in pos if row.q == 2.0)
    anchored = abs(q2.ratio - 1.0) <= 3.0 * q2.ratio_stderr
    yield CheckResult(
        "positive_moment_band",
        f"ratios {min(ratios):.3f}..{max(ratios):.3f} in [1/2, 2], q=2 ratio {q2.ratio:.4f}",
        in_band and anchored,
    )
    neg = negative_moment_ratios(body, config.m, key.child(1))
    ratios = [row.ratio for row in neg]
    yield CheckResult(
        "negative_moment_band",
        f"ratios {min(ratios):.3f}..{max(ratios):.3f} in [1/2, 2]",
        all(0.5 <= x <= 2.0 for x in ratios),
    )


def _check_centroid_widths(body: Body, config: SweepConfig, q_main: int, key: StreamKey):
    k = max(q_main * 2 + 2, body.dim // 2)
    report = centroid_width_check(body, k, q_main, 64, config.m, key)
    ratios = report.ratios
    yield CheckResult(
        "centroid_width_band",
        f"k={k} q={q_main}: ratios {ratios.min():.3f}..{ratios.max():.3f} in [1/3, 3]",
        bool(np.all((ratios >= 1.0 / 3.0) & (ratios <= 3.0))),
    )
    yield CheckResult(
        "grassmann_negative_moment_band",
        f"Grassmann negative-moment ratio {report.grassmann_neg_ratio:.4f} in [1/3, 3]",
        1.0 / 3.0 <= report.grassmann_neg_ratio <= 3.0,
    )


def _check_tail_sandwich() -> CheckResult:
    t0 = max(math.sqrt(2.0 * 49.0), 1.0)
    rows = tail_sandwich_check(50, np.array([t0, t0 + 0.5, t0 + 1.0, t0 + 2.0]))
    holds = all(row.holds for row in rows)
    eq_gap = max(
        abs(row.value - row.lower) / row.lower for row in rows if row.k == 1
    )
    return CheckResult(
        "tail_sandwich_grid",
        f"{len(rows)} points hold; k=1 equality gap {eq_gap:.2e}",
        holds and eq_gap <= 1e-12,
    )


def consistency_checks(config: SweepConfig, q: int = 2) -> list[CheckResult]:
    """Run every band and identity verification; one CheckResult per check."""
    # the negative-moment table needs floor(min(sqrt n, (n - 1)/2 - 1)) >= 1, i.e. n >= 5
    if config.n < 5:
        raise ValueError(f"check needs n >= 5, got n={config.n}")
    # the centroid check projects onto k = max(2q + 2, n // 2) <= n dimensions
    q_max = (config.n - 2) // 2
    if not 1 <= q <= q_max:
        raise ValueError(f"check needs 1 <= q <= {q_max} for n={config.n}, got q={q}")
    if config.m < MIN_SAMPLES:
        raise ValueError(f"check needs m >= {MIN_SAMPLES}, got m={config.m}")
    body = make_body(config.body, config.n)
    root = StreamKey(config.seed)
    results = [
        _check_profile_monotone(body, config, root.child(2)),
        check_i2_identity(body, config.m, root.child(3)),
    ]
    results.extend(_check_subspace_moments(body, config, float(q), root.child(4)))
    results.extend(_check_moment_ratios(body, config, root.child(5)))
    results.extend(_check_centroid_widths(body, config, q, root.child(6)))
    results.append(_check_tail_sandwich())
    return results
