"""Command-line interface: estimate, sweep, gaussian, check, plot.

Exit status: 0 success, 1 usage or I/O error or an input too large to
allocate, 2 check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from .bodies import KINDS, isotropic_constant, make_body, sample_points
from .radii import PointCloud, radius_profile
from .streams import StreamKey
from .svgplot import emit_plot
from .sweep import (
    DEFAULT_M,
    DEFAULT_SEED,
    default_check_config,
    consistency_checks,
    load_config,
    normalizer,
    run_sweep,
    gaussian_oracle_report,
    write_csv,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="polyradii", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    est = sub.add_parser("estimate", help="one mean outer radius estimate")
    est.add_argument("--body", required=True, choices=KINDS)
    est.add_argument("--n", type=int, required=True)
    est.add_argument("--N", type=int, required=True)
    est.add_argument("--k", type=int, required=True)
    est.add_argument("--M", type=int, default=DEFAULT_M)
    est.add_argument("--seed", type=int, default=DEFAULT_SEED)

    swp = sub.add_parser("sweep", help="run a config grid and write CSV")
    swp.add_argument("--config", required=True)
    swp.add_argument("--seed", type=int, default=None, help="override config seed")
    swp.add_argument("--R", type=int, default=None, help="override config replica count")
    swp.add_argument("--out", default=None, help="override config output path")

    gau = sub.add_parser("gaussian", help="chi-max oracle table vs Monte Carlo")
    gau.add_argument("--k", type=_int_list, required=True, help="comma-separated k values")
    gau.add_argument("--N", type=_int_list, required=True, help="comma-separated N values")
    gau.add_argument("--n", type=int, default=None, help="ambient dimension (default max k)")
    gau.add_argument("--M", type=int, default=128, help="MC replicas; 0 = oracle only")
    gau.add_argument("--seed", type=int, default=DEFAULT_SEED)

    chk = sub.add_parser("check", help="run the consistency check suite")
    chk.add_argument("--config", default=None)
    chk.add_argument("--seed", type=int, default=None, help="override config seed")
    chk.add_argument("--q", type=int, default=2, help="exponent for the subspace-moment checks")

    plt = sub.add_parser("plot", help="emit an SVG from a sweep CSV")
    plt.add_argument("csv")
    plt.add_argument("--x", required=True)
    plt.add_argument("--y", required=True)
    plt.add_argument("--out", required=True)
    return parser


def _cmd_estimate(args) -> int:
    body = make_body(args.body, args.n)
    root = StreamKey(args.seed)
    cloud = PointCloud(sample_points(body, args.N, root.child(0)))
    est = radius_profile(cloud, args.M, root.child(1), [args.k]).estimate(args.k)
    L = isotropic_constant(body)
    norm = normalizer(args.k, args.N, L)
    print(f"body={args.body} n={args.n} N={args.N} k={args.k} M={args.M} seed={args.seed}")
    print(f"estimate   {est.value:.10g}")
    print(f"stderr     {est.stderr:.4g}")
    print(f"L_K        {L:.10g}")
    print(f"normalizer {norm:.10g}  (max(sqrt k, sqrt log N) L_K)")
    print(f"ratio      {est.value / norm:.10g}")
    return 0


def _override(config, **values):
    """The config with the given non-None values replaced, validated again."""
    return dataclasses.replace(config, **{k: v for k, v in values.items() if v is not None})


def _cmd_sweep(args) -> int:
    config = _override(load_config(args.config), seed=args.seed, R=args.R)
    out = args.out if args.out is not None else config.out
    if out is None:
        raise ValueError("no output path: set 'out' in the config or pass --out")
    rows = run_sweep(config)
    write_csv(rows, out)
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def _cmd_gaussian(args) -> int:
    rows = gaussian_oracle_report(args.k, args.N, M=args.M, seed=args.seed, n=args.n)
    print(f"{'k':>5} {'N':>7} {'mc':>12} {'stderr':>10} {'oracle':>12} {'normalizer':>11} ok")
    failed = False
    for row in rows:
        mc = f"{row.mc:.6f}" if not math.isnan(row.mc) else "-"
        se = f"{row.stderr:.4f}" if not math.isnan(row.stderr) else "-"
        print(
            f"{row.k:>5} {row.N:>7} {mc:>12} {se:>10} {row.oracle:>12.8f} "
            f"{row.normalizer:>11.6f} {'yes' if row.agrees else 'NO'}"
        )
        failed = failed or not row.agrees
    return 2 if failed else 0


def _cmd_check(args) -> int:
    config = load_config(args.config) if args.config else default_check_config()
    config = _override(config, seed=args.seed)
    results = consistency_checks(config, q=args.q)
    failed = False
    for res in results:
        print(f"{res.name:<28} {res.detail}  -> {'PASS' if res.passed else 'FAIL'}")
        failed = failed or not res.passed
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return 2 if failed else 0


def _cmd_plot(args) -> int:
    emit_plot(args.csv, args.x, args.y, args.out)
    print(f"wrote {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "estimate": _cmd_estimate,
        "sweep": _cmd_sweep,
        "gaussian": _cmd_gaussian,
        "check": _cmd_check,
        "plot": _cmd_plot,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:
        sys.stderr.write(f"polyradii: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
