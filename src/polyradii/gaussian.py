"""Exact oracle for the expected maximum norm of Gaussian vectors.

The norm of a standard Gaussian vector in R^k follows the chi distribution,
so E max_j |G_j| over N independent vectors is the integral of 1 - F(t)^N,
computable to quadrature accuracy.  Gaussian point clouds feed the radii
estimators, whose Grassmannian average must reproduce this oracle because
projecting an n-dimensional Gaussian onto any k-dimensional subspace yields
a k-dimensional Gaussian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc, gammaln

from .estimates import Estimate, mean_and_stderr
from .grassmann import haar_frames
from .radii import _BLOCK, projected_sq_norms
from .streams import StreamKey, standard_normal

_ABS_TOL = 1e-9  # absolute error target of expected_max_chi


def expected_max_chi(k: int, N: int) -> float:
    """E max over N independent chi_k variables, by adaptive quadrature.

    Integrates 1 - F(t)^N over [0, t_max] where the truncation point comes
    from the union bound N (1 - F(t)): the discarded tail is below _ABS_TOL.
    F^N is evaluated as exp(N log1p(-sf)) so huge N stays stable.
    """
    # imported here, not at module level: it loads ~290 modules only this oracle needs
    from scipy.integrate import quad

    if k < 1 or N < 1:
        raise ValueError("need k >= 1 and N >= 1")
    a = k / 2.0

    def integrand(t: float) -> float:
        sf = float(gammaincc(a, 0.5 * t * t))
        if sf >= 1.0:
            return 1.0
        return -math.expm1(N * math.log1p(-sf))

    t_max = max(math.sqrt(k), 1.0)
    while N * float(gammaincc(a, 0.5 * t_max * t_max)) > _ABS_TOL / max(t_max, 1.0):
        t_max *= 2.0
    value, _ = quad(integrand, 0.0, t_max, epsabs=0.5 * _ABS_TOL, limit=200)
    return float(value)


def tail_integral(k: int, t: float) -> float:
    """Exact integral of r^k exp(-r^2/2) over [t, infinity).

    Substituting u = r^2/2 gives 2^((k-1)/2) Gamma((k+1)/2, t^2/2) with the
    upper incomplete gamma; evaluated in log space.
    """
    if k < 0 or t < 0:
        raise ValueError("need k >= 0 and t >= 0")
    sf = float(gammaincc((k + 1) / 2.0, 0.5 * t * t))
    if sf == 0.0:
        return 0.0
    log_val = 0.5 * (k - 1) * math.log(2.0) + gammaln((k + 1) / 2.0) + math.log(sf)
    return float(math.exp(log_val))


@dataclass(frozen=True)
class TailSandwichRow:
    """One grid point of the chi tail-integral sandwich check."""

    k: int
    t: float
    lower: float
    value: float
    upper: float
    holds: bool


def tail_sandwich_check(k_max: int, t_grid: np.ndarray) -> list[TailSandwichRow]:
    """Verify t^(k-1) e^(-t^2/2) <= tail_integral(k, t) <= twice that.

    Every (k, t) pair with k <= k_max and t in the grid must satisfy the
    hypothesis t >= max(sqrt(2(k-1)), 1); a violating pair raises.  The
    comparison carries a 1e-9 relative slack because at k = 1 the lower
    bound is an exact equality and roundoff may land on either side.
    """
    if k_max < 1:
        raise ValueError("need k_max >= 1")
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    rows = []
    for k in range(1, k_max + 1):
        threshold = max(math.sqrt(2.0 * (k - 1)), 1.0)
        for t in t_grid:
            if t < threshold:
                raise ValueError(
                    f"hypothesis violated at k={k}, t={t:g}: need t >= {threshold:g}"
                )
            lower = math.exp((k - 1) * math.log(t) - 0.5 * t * t)
            value = tail_integral(k, float(t))
            upper = 2.0 * lower
            holds = lower * (1.0 - 1e-9) <= value <= upper * (1.0 + 1e-9)
            rows.append(TailSandwichRow(k, float(t), lower, value, upper, holds))
    return rows


def gaussian_cloud(n: int, N: int, key: StreamKey) -> np.ndarray:
    """N i.i.d. standard Gaussian points in R^n as an (N, n) array."""
    if n < 1 or N < 1:
        raise ValueError("need n >= 1 and N >= 1")
    return standard_normal(key.child(0), N * n).reshape(N, n)


def projected_max_mc(n: int, k: int, N: int, replicas: int, key: StreamKey) -> Estimate:
    """Monte Carlo of the expected k-th mean outer radius of Gaussian clouds.

    Each replica draws a fresh cloud and a fresh Haar subspace, so the mean
    targets the full expectation over both sources of randomness, which by
    rotation invariance equals expected_max_chi(k, N).  Replica i's cloud comes
    from key.child(i) and its frame from key.child(i).child(1); the frames are
    drawn in blocks of at most radii._BLOCK floats (one replica per block when
    a frame needs more), and every frame has the same bits at any block size.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    block = max(1, min(replicas, _BLOCK // (n * k)))
    vals = np.empty(replicas)
    for start in range(0, replicas, block):
        stop = min(start + block, replicas)
        frames = haar_frames(n, k, [key.child(i).child(1) for i in range(start, stop)])
        for i, frame in enumerate(frames, start):
            pts = gaussian_cloud(n, N, key.child(i))
            vals[i] = np.sqrt(np.max(projected_sq_norms(pts, frame, [k])))
    return mean_and_stderr(vals)
