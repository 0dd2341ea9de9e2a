"""Random polytopes as point clouds and Monte Carlo mean outer radii.

The projected outer radius of a point hull is max_j |P_F X_j|, so no convex
hull is ever built; everything reduces to inner products with frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimates import Estimate, mean_and_stderr
from .grassmann import Subspace, haar_subspace, sphere_points
from .streams import StreamKey


@dataclass(frozen=True, eq=False)
class PointCloud:
    """N sample points whose convex hull is the random polytope."""

    points: np.ndarray

    def __post_init__(self) -> None:
        if self.points.ndim != 2 or self.points.shape[0] < 1:
            raise ValueError("points must be a nonempty (N, n) array")

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True, eq=False)
class RadiusProfile:
    """Flag-averaged projected radii over a grid of projection dimensions.

    Built from nested flags, so ``values`` is nondecreasing in k exactly,
    not just on average.
    """

    ks: np.ndarray
    values: np.ndarray
    stderrs: np.ndarray
    flags_used: int
    key: StreamKey

    def estimate(self, k: int) -> Estimate:
        i = int(np.searchsorted(self.ks, k))
        if i >= self.ks.size or self.ks[i] != k:
            raise KeyError(f"profile has no entry for k={k}")
        return Estimate(float(self.values[i]), float(self.stderrs[i]), self.flags_used, self.key)


def symmetrize(cloud: PointCloud) -> PointCloud:
    """The cloud of +-X_j; shares every projected outer radius with the original."""
    return PointCloud(np.vstack([cloud.points, -cloud.points]))


def outer_radius_points(cloud: PointCloud) -> float:
    """R(conv X) = max_j |X_j|."""
    return float(np.max(np.linalg.norm(cloud.points, axis=1)))


def projected_sq_norms(points: np.ndarray, frame: np.ndarray, ks) -> np.ndarray:
    """(N, len(ks)) squared norms of the points projected onto the first k frame
    columns, for each k of the increasing ``ks``.  Squares are summed by segment
    and the segments accumulated, so every row is nondecreasing in k exactly.
    """
    sq = (points @ frame[:, : ks[-1]]) ** 2
    return np.cumsum(np.add.reduceat(sq, [0, *ks[:-1]], axis=1), axis=1)


def projected_radius(cloud: PointCloud, subspace: Subspace) -> float:
    """max_j |P_F X_j|, the outer radius of the projected hull."""
    if cloud.dim != subspace.n:
        raise ValueError("cloud and subspace dimension mismatch")
    sq = projected_sq_norms(cloud.points, subspace.frame, [subspace.k])
    return float(np.sqrt(np.max(sq)))


def radius_profile(
    cloud: PointCloud, M: int, key: StreamKey, ks: np.ndarray | None = None
) -> RadiusProfile:
    """Monte Carlo k-th mean outer radii from M Haar flags, monotone in k pathwise.

    Flag i is haar_subspace(n, max(ks), key.child(i)), as wide as the largest
    requested k; its first k columns are a Haar k-frame, so each per-k column
    averages max_j |P_F X_j| over M Haar subspaces F.  The squared projected
    norms come from projected_sq_norms, so the per-point radii never decrease
    with k and neither does their max or the flag average.  ``ks`` restricts
    the grid (default: every k = 1..n).
    """
    n = cloud.dim
    if ks is None:
        ks = np.arange(1, n + 1)
    ks = np.asarray(ks, dtype=int)
    if ks.size == 0 or np.any(ks < 1) or np.any(ks > n) or np.any(np.diff(ks) <= 0):
        raise ValueError(f"k values must be strictly increasing within 1..{n}")
    if M < 2:
        raise ValueError("need at least 2 flags")
    kmax = int(ks[-1])
    per_flag = np.empty((M, ks.size))
    for i in range(M):
        sq = projected_sq_norms(cloud.points, haar_subspace(n, kmax, key.child(i)), ks)
        per_flag[i] = np.sqrt(np.max(sq, axis=0))
    values = np.mean(per_flag, axis=0)
    stderrs = np.std(per_flag, axis=0, ddof=1) / np.sqrt(M)
    return RadiusProfile(ks, values, stderrs, M, key)


def mean_width(cloud: PointCloud, M: int, key: StreamKey) -> Estimate:
    """Average over M uniform directions of max_j |<X_j, theta>|.

    This is the k = 1 mean outer radius computed without frames.
    """
    if M < 2:
        raise ValueError("need at least 2 directions")
    thetas = sphere_points(cloud.dim, M, key.child(0))
    vals = np.max(np.abs(cloud.points @ thetas.T), axis=0)
    return mean_and_stderr(vals, key)
