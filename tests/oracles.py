"""Reference oracles the tests check the package against.

No command runs these: exact support values, membership tests and outer
radii of the body models, the outer radius and mean width of a point cloud,
and the chi CDF.  They live beside the tests and are imported as
``from oracles import ...``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammainc

from polyradii.bodies import Body
from polyradii.estimates import Estimate, mean_and_stderr
from polyradii.grassmann import sphere_points
from polyradii.radii import PointCloud
from polyradii.streams import StreamKey

_CONTAINS_TOL = 1e-12


def outer_radius_exact(body: Body) -> float:
    """Exact R(K) = max_{x in K} |x|."""
    n = body.dim
    if body.kind == "cube":
        return np.sqrt(n) / 2.0
    if body.kind in ("ball", "cross"):
        return body.scale
    return float(np.max(np.linalg.norm(body.vertices, axis=1)))


def support(body: Body, theta: np.ndarray) -> float:
    """Exact support value h_K(theta) = max_{x in K} <x, theta> for unit theta."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (body.dim,):
        raise ValueError("direction dimension mismatch")
    if abs(np.linalg.norm(theta) - 1.0) > 1e-10:
        raise ValueError("support direction must be a unit vector")
    if body.kind == "cube":
        return float(0.5 * np.sum(np.abs(theta)))
    if body.kind == "ball":
        return body.scale
    if body.kind == "cross":
        return float(body.scale * np.max(np.abs(theta)))
    return float(np.max(body.vertices @ theta))


def contains(body: Body, x: np.ndarray) -> bool | np.ndarray:
    """Exact membership test; accepts one point (n,) or a batch (m, n)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if pts.shape[1] != body.dim:
        raise ValueError("point dimension mismatch")
    if body.kind == "cube":
        ok = np.max(np.abs(pts), axis=1) <= 0.5 + _CONTAINS_TOL
    elif body.kind == "ball":
        ok = np.linalg.norm(pts, axis=1) <= body.scale + _CONTAINS_TOL
    elif body.kind == "cross":
        ok = np.sum(np.abs(pts), axis=1) <= body.scale + _CONTAINS_TOL
    else:
        n = body.dim
        system = np.vstack([body.vertices.T, np.ones((1, n + 1))])
        rhs = np.vstack([pts.T, np.ones((1, pts.shape[0]))])
        bary = np.linalg.solve(system, rhs)
        ok = np.min(bary, axis=0) >= -_CONTAINS_TOL
    return bool(ok[0]) if single else ok


def outer_radius_points(cloud: PointCloud) -> float:
    """R(conv X) = max_j |X_j|."""
    return float(np.max(np.linalg.norm(cloud.points, axis=1)))


def mean_width(cloud: PointCloud, M: int, key: StreamKey) -> Estimate:
    """Average over M uniform directions of max_j |<X_j, theta>|.

    This is the k = 1 mean outer radius computed without frames.
    """
    if M < 2:
        raise ValueError("need at least 2 directions")
    thetas = sphere_points(cloud.points.shape[1], M, key.child(0))
    vals = np.max(np.abs(cloud.points @ thetas.T), axis=0)
    return mean_and_stderr(vals)


def chi_cdf(k: int, t: float | np.ndarray) -> float | np.ndarray:
    """CDF of the chi distribution with k degrees of freedom.

    The regularized lower incomplete gamma P(k/2, t^2/2).
    """
    if k < 1:
        raise ValueError("degrees of freedom must be >= 1")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("chi_cdf needs t >= 0")
    out = gammainc(k / 2.0, 0.5 * t_arr * t_arr)
    return float(out) if np.isscalar(t) else out
