"""Random polytopes as point clouds and Monte Carlo mean outer radii.

The projected outer radius of a point hull is max_j |P_F X_j|, so no convex
hull is ever built; everything reduces to inner products with frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimates import Estimate
from .grassmann import haar_frames
from .parallel import lane_count, run_lanes
from .streams import StreamKey

_BLOCK = 1 << 16  # bound on a chunk's product and on a block of frames, in float64s
# np.add.reduceat sums a segment as its first element plus numpy's pairwise sum
# of the rest, and pairwise summation adds fewer than 8 terms left to right: a
# fact about numpy, not a tuning knob.
_PAIRWISE_LINEAR = 8
# Two facts about the OpenBLAS numpy bundles, pinned in tests/test_radii.py: at
# one thread, a chunk of rows of a product has the bits of the same rows of the
# whole product when (a) its GEMM does more than 10^6 multiply-adds, past which
# OpenBLAS leaves its small-matrix kernel, and (b) it starts on OpenBLAS's grid
# of 12-row tiles (at w = 199 or 260, chunks of 329 or 256 rows change entries
# in the last w % 8 columns); 48 rows also fit a grid of 16.
_GEMM_FLOOR = 1 << 20
_ROW_TILE = 48


@dataclass(frozen=True, eq=False)
class PointCloud:
    """N sample points whose convex hull is the random polytope.

    Kept only because the benchmark's radius_profile hook reads cloud.points."""

    points: np.ndarray

    def __post_init__(self) -> None:
        if self.points.ndim != 2 or self.points.shape[0] < 1:
            raise ValueError("points must be a nonempty (N, n) array")


@dataclass(frozen=True, eq=False)
class RadiusProfile:
    """Flag-averaged projected radii over a grid of projection dimensions.

    Built from nested flags, so ``values`` is nondecreasing in k exactly,
    not just on average.
    """

    ks: np.ndarray
    values: np.ndarray
    stderrs: np.ndarray

    def estimate(self, k: int) -> Estimate:
        i = int(np.searchsorted(self.ks, k))
        if i >= self.ks.size or self.ks[i] != k:
            raise KeyError(f"profile has no entry for k={k}")
        return Estimate(float(self.values[i]), float(self.stderrs[i]))


def projected_sq_norms(points: np.ndarray, frames: np.ndarray, ks) -> np.ndarray:
    """(N, len(ks)) squared norms of the points projected onto the first k frame
    columns, for each k of the increasing ``ks``.  Squares are summed by segment
    and the segments accumulated, so every row is nondecreasing in k exactly.
    ``frames`` is one (n, k) frame or a (B, n, k) stack, which gives a
    (B, N, len(ks)) result whose slice b equals the result for frames[b] alone;
    one frame is projected as a stack of one, through _project_stack.

    The sums have the bits of np.cumsum(np.add.reduceat(sq, [0, *ks[:-1]])):
    segments of at most _PAIRWISE_LINEAR columns are summed as column adds in
    reduceat's order (the first column plus the rest added left to right),
    longer ones by reduceat itself, and the prefix sums are column adds.
    """
    N, kmax = points.shape[0], ks[-1]
    stack = frames[..., :kmax].reshape(-1, frames.shape[-2], kmax)
    out = np.empty((len(stack), N, len(ks)))
    _project_stack(points, lambda lo, hi: stack[lo:hi], len(stack), kmax,
                   lambda sq, lo, hi: _sum_segments(sq, ks, out[lo:hi]))
    return out.reshape(frames.shape[:-2] + out.shape[1:])


def _chunk_rule(N: int, n: int, w: int, split_rows: bool) -> tuple[int, list[int]]:
    """How N points are projected onto a (B, n, w) stack: (slices per chunk, row bounds).

    A chunk is as many whole slices as keep its N x w products within _BLOCK
    floats, or one slice when a slice needs more.  With ``split_rows`` such a
    slice is projected in row chunks of R points, the larger of the most
    points within _BLOCK floats and the fewest whose GEMM does _GEMM_FLOOR
    multiply-adds, each rounded to a multiple of _ROW_TILE inside its bound;
    the last chunk also takes the fewer than R points left over, and a slice
    of fewer than R points is one row chunk.
    """
    if N * w <= _BLOCK or not split_rows:
        return max(1, _BLOCK // (N * w)), [0, N]
    rows = max(_BLOCK // w // _ROW_TILE, -(-_GEMM_FLOOR // (n * w * _ROW_TILE))) * _ROW_TILE
    return 1, [*range(0, max(1, N // rows) * rows, rows), N]


def _project_stack(
    points: np.ndarray, frames, count: int, w: int, reduce, split_rows: bool = False
) -> None:
    """Call reduce(points[r0:r1] @ frames(lo, hi), lo, hi) over a stack of
    ``count`` (n, w) slices, frames(lo, hi) being its slices lo..hi: each row
    chunk r0..r1 of each chunk of slices lo..hi.

    A chunk holds the slices per chunk of _chunk_rule, but no more than keep
    the lanes' frames within _BLOCK floats together (one slice when a single
    one needs more); the lanes are counted from _chunk_rule's chunks first.
    Chunks run in parallel.lane_count's lanes through run_lanes, so every
    product runs on one BLAS thread.  A lane calls frames once per chunk it
    takes and runs the chunk's row chunks in order, projecting into its own
    scratch; rows are cut only in chunks of one slice, so no two lanes write
    one slice's slots.  Neither ``frames`` nor ``reduce`` runs lanes; reduce
    may overwrite the product and writes (or accumulates) only lo..hi's slots.
    """
    N, n = points.shape
    per_chunk, bounds = _chunk_rule(N, n, w, split_rows)
    rows = bounds[-1] - bounds[-2]
    lanes = lane_count(-(-count // per_chunk), per_chunk * rows * w)
    per_chunk = min(per_chunk, max(1, _BLOCK // (lanes * n * w)))
    scratch = np.empty((lanes, min(per_chunk, count) * rows * w))

    def block(lane: int, start: int, stop: int):
        for chunk in range(start, stop):
            yield
            lo = chunk * per_chunk
            hi = min(lo + per_chunk, count)
            stack = frames(lo, hi)
            for r0, r1 in zip(bounds[:-1], bounds[1:]):
                product = scratch[lane, : (hi - lo) * (r1 - r0) * w].reshape(hi - lo, r1 - r0, w)
                reduce(np.matmul(points[r0:r1], stack, out=product), lo, hi)

    run_lanes(block, -(-count // per_chunk), lanes)


def _sum_segments(sq: np.ndarray, ks, out: np.ndarray) -> None:
    """Square the projections sq in place and write their segment prefix sums
    to out, an array separate from sq, as projected_sq_norms documents; numpy
    only."""
    np.square(sq, out=sq)
    bounds = [0, *ks]
    segments = list(zip(bounds[:-1], bounds[1:]))
    if max(hi - lo for lo, hi in segments) > _PAIRWISE_LINEAR:
        np.add.reduceat(sq, bounds[:-1], axis=-1, out=out)
    else:
        for j, (lo, hi) in enumerate(segments):
            if hi - lo == 1:
                out[..., j] = sq[..., lo]
            else:
                rest = sq[..., lo + 1]  # a view: sq is this call's own temporary
                for c in range(lo + 2, hi):
                    rest += sq[..., c]
                np.add(sq[..., lo], rest, out=out[..., j])
    for j in range(1, len(ks)):
        out[..., j] += out[..., j - 1]


def _max_sq_norms(sq: np.ndarray, ks, out: np.ndarray) -> None:
    """The max kernel's reduction: _sum_segments of sq, then out raised to its
    max over the points (axis -2); numpy only.  Callers start out at zero."""
    # segment-major, so the max runs over contiguous rows
    sums = np.empty(sq.shape[:-2] + (len(ks), sq.shape[-2]))
    _sum_segments(sq, ks, sums.swapaxes(-1, -2))
    np.maximum(out, np.max(sums, axis=-1), out=out)


def radius_profile(
    cloud: PointCloud, M: int, key: StreamKey, ks: np.ndarray | None = None
) -> RadiusProfile:
    """Monte Carlo k-th mean outer radii from M Haar flags, monotone in k pathwise.

    Flag i is the haar_frames frame drawn from key.child(i), as wide as the
    largest requested k; its first k columns are a Haar k-frame, so each
    per-k column averages max_j |P_F X_j| over M Haar subspaces F, as
    _flag_radii computes it in lanes that each draw the flags they project.
    The per-point radii never decrease with k, and
    neither does their max or the flag average.  ``ks`` restricts the grid
    (default: every k = 1..n).
    """
    N, n = cloud.points.shape
    if ks is None:
        ks = np.arange(1, n + 1)
    # checked as given, before a k too large for a C long reaches np.asarray
    outside = [k for k in ks if not 1 <= k <= n]
    if outside:
        raise ValueError(f"k={outside[0]} outside 1..{n}")
    ks = np.asarray(ks, dtype=int)
    if ks.size == 0 or np.any(np.diff(ks) <= 0):
        raise ValueError(f"k values must be strictly increasing within 1..{n}")
    if M < 2:
        raise ValueError("need at least 2 flags")
    per_flag = _flag_radii(cloud.points, M, key, ks)
    values = np.mean(per_flag, axis=0)
    stderrs = np.std(per_flag, axis=0, ddof=1) / np.sqrt(M)
    return RadiusProfile(ks, values, stderrs)


def _flag_radii(points: np.ndarray, M: int, key: StreamKey, ks: np.ndarray) -> np.ndarray:
    """(M, len(ks)) radii max_j |P_F X_j| of flag i = key.child(i), the max kernel.

    Row i has the bits of np.sqrt(np.max(projected_sq_norms(points, frame_i,
    ks), axis=0)) at any chunk size, lane count and BLAS thread count.  The
    flags are one _project_stack stack, whose lanes draw each chunk's flags
    with haar_frames before they project it.  A flag whose N x max(k)
    product needs more than _BLOCK floats is a chunk of its own, projected
    in row chunks by the lane that drew it, in row order.  Each row chunk
    sums its segments into its own array and raises the flag's running max
    per k, whose zero start changes no max of squared norms; the max is
    exact, so row chunks keep the bits, and the state is M * len(ks) floats.
    """
    n, kmax = points.shape[1], int(ks[-1])
    peaks = np.zeros((M, ks.size))  # squared, over the points projected so far

    def flags(lo: int, hi: int) -> np.ndarray:
        return haar_frames(n, kmax, [key.child(i) for i in range(lo, hi)])

    _project_stack(points, flags, M, kmax,
                   lambda sq, lo, hi: _max_sq_norms(sq, ks, peaks[lo:hi]), True)
    return np.sqrt(peaks)
