"""Random polytopes as point clouds and Monte Carlo mean outer radii.

The projected outer radius of a point hull is max_j |P_F X_j|, so no convex
hull is ever built; everything reduces to inner products with frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimates import Estimate
from .grassmann import haar_frames
from .streams import StreamKey

_BLOCK = 1 << 16  # bound on B * max(N, n) * kmax for a block of B flags, in float64s
# np.add.reduceat sums a segment as its first element plus numpy's pairwise sum
# of the rest, and pairwise summation adds fewer than 8 terms left to right: a
# fact about numpy, not a tuning knob.
_PAIRWISE_LINEAR = 8


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
    (B, N, len(ks)) result whose slice b equals the result for frames[b] alone.

    The sums have the bits of np.cumsum(np.add.reduceat(sq, [0, *ks[:-1]])):
    segments of at most _PAIRWISE_LINEAR columns are summed as column adds in
    reduceat's order (the first column plus the rest added left to right),
    longer ones by reduceat itself, and the prefix sums are column adds.
    """
    sq = points @ frames[..., : ks[-1]]
    np.square(sq, out=sq)
    bounds = [0, *ks]
    segments = list(zip(bounds[:-1], bounds[1:]))
    if max(hi - lo for lo, hi in segments) > _PAIRWISE_LINEAR:
        out = np.add.reduceat(sq, bounds[:-1], axis=-1)
    else:
        out = np.empty(sq.shape[:-1] + (len(ks),))
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
    return out


def radius_profile(
    cloud: PointCloud, M: int, key: StreamKey, ks: np.ndarray | None = None
) -> RadiusProfile:
    """Monte Carlo k-th mean outer radii from M Haar flags, monotone in k pathwise.

    Flag i is the haar_frames frame drawn from key.child(i), as wide as the
    largest requested k; its first k columns are a Haar k-frame, so each
    per-k column averages max_j |P_F X_j| over M Haar subspaces F.  The squared
    projected norms come from projected_sq_norms, so the per-point radii never
    decrease with k and neither does their max or the flag average.  Flags are
    drawn and projected in blocks whose frames and projections each hold at
    most _BLOCK floats (one flag per block when a single flag needs more);
    every flag gets the same bits at any block size.  ``ks`` restricts the grid
    (default: every k = 1..n).
    """
    N, n = cloud.points.shape
    if ks is None:
        ks = np.arange(1, n + 1)
    ks = np.asarray(ks, dtype=int)
    outside = ks[(ks < 1) | (ks > n)]
    if outside.size:
        raise ValueError(f"k={outside[0]} outside 1..{n}")
    if ks.size == 0 or np.any(np.diff(ks) <= 0):
        raise ValueError(f"k values must be strictly increasing within 1..{n}")
    if M < 2:
        raise ValueError("need at least 2 flags")
    kmax = int(ks[-1])
    block = max(1, min(M, _BLOCK // (max(N, n) * kmax)))
    per_flag = np.empty((M, ks.size))
    for start in range(0, M, block):
        keys = [key.child(i) for i in range(start, min(start + block, M))]
        sq = projected_sq_norms(cloud.points, haar_frames(n, kmax, keys), ks)
        per_flag[start : start + len(keys)] = np.sqrt(np.max(sq, axis=-2))
    values = np.mean(per_flag, axis=0)
    stderrs = np.std(per_flag, axis=0, ddof=1) / np.sqrt(M)
    return RadiusProfile(ks, values, stderrs)
