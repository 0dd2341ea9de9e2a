"""Minimal deterministic SVG emitter for sweep CSVs.

Hand-rolled on purpose: the output bytes depend only on the CSV content, so
plots can be diffed like any other artifact.
"""

from __future__ import annotations

import csv
import math

_WIDTH, _HEIGHT = 720, 440
_ML, _MR, _MT, _MB = 64, 170, 36, 48
_PALETTE = [
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
    "#bcbd22",
    "#e377c2",
]


def _escape(text: str) -> str:
    """Text safe inside an XML element: &, < and > as entities, & first."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _number(row: dict, col: str, where: str) -> float:
    try:
        return float(row[col])
    except ValueError:
        raise ValueError(f"{where}: column {col!r} is not a number: {row[col]!r}") from None


def _read_groups(csv_path: str, x: str, y: str):
    with open(csv_path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            names = reader.fieldnames or []
            for col in (x, y):
                if col not in names:
                    raise ValueError(
                        f"unknown column {col!r}; available columns: {', '.join(names)}"
                    )
            groups: dict[str, list[tuple[float, float]]] = {}
            for row in reader:
                label_bits = []
                if "body" in names:
                    label_bits.append(row["body"])
                if "N" in names:
                    label_bits.append(f"N={row['N']}")
                label = " ".join(label_bits) or "data"
                where = f"{csv_path} line {reader.line_num}"
                if row[x] is None or row[y] is None:
                    raise ValueError(f"{where}: missing field")
                point = (_number(row, x, where), _number(row, y, where))
                if not all(map(math.isfinite, point)):
                    raise ValueError(f"{where}: non-finite value")
                groups.setdefault(label, []).append(point)
        except csv.Error as exc:
            # DictReader updates its own line_num only after a row parses
            raise ValueError(f"{csv_path} line {reader.reader.line_num}: {exc}") from None
    if not groups:
        raise ValueError("CSV has no data rows")
    for pts in groups.values():
        pts.sort(key=lambda p: p[0])
    return groups


def _span(values: list[float], col: str) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    if hi == lo:  # from |v| = 2^52 on, v +- 0.5 can round back to v
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    if not math.isfinite(hi - lo):
        raise ValueError(f"column {col!r} spans more than the float range")
    return lo, hi


def emit_plot(csv_path: str, x: str, y: str, out_path: str) -> None:
    """Write a single-panel line/scatter SVG of column y against column x,
    one series per (body, N) group."""
    groups = _read_groups(csv_path, x, y)
    xs = [p[0] for pts in groups.values() for p in pts]
    ys = [p[1] for pts in groups.values() for p in pts]
    x_lo, x_hi = _span(xs, x)
    y_lo, y_hi = _span(ys, y)
    plot_w = _WIDTH - _ML - _MR
    plot_h = _HEIGHT - _MT - _MB

    def sx(v: float) -> float:
        return _ML + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return _MT + (1.0 - (v - y_lo) / (y_hi - y_lo)) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="monospace" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_ML}" y="20">{_escape(y)} vs {_escape(x)}</text>',
        f'<line x1="{_ML}" y1="{_MT + plot_h}" x2="{_ML + plot_w}" y2="{_MT + plot_h}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + plot_h}" stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<text x="{sx(xv):.2f}" y="{_MT + plot_h + 18}" text-anchor="middle">{xv:.4g}</text>'
        )
        parts.append(
            f'<text x="{_ML - 6}" y="{sy(yv):.2f}" text-anchor="end">{yv:.4g}</text>'
        )
    for gi, (label, pts) in enumerate(groups.items()):
        color = _PALETTE[gi % len(_PALETTE)]
        if len(pts) > 1:
            coords = " ".join(f"{sx(px):.2f},{sy(py):.2f}" for px, py in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        for px, py in pts:
            parts.append(
                f'<circle cx="{sx(px):.2f}" cy="{sy(py):.2f}" r="3" fill="{color}"/>'
            )
        ly = _MT + 14 + 16 * gi
        parts.append(
            f'<rect x="{_ML + plot_w + 12}" y="{ly - 9}" width="10" height="10" fill="{color}"/>'
        )
        parts.append(f'<text x="{_ML + plot_w + 27}" y="{ly}">{_escape(label)}</text>')
    parts.append(f'<text x="{_ML + plot_w / 2:.2f}" y="{_HEIGHT - 10}" text-anchor="middle">{_escape(x)}</text>')
    parts.append("</svg>")
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
