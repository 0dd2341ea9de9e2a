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
from scipy.special import gammaincc, gammainccinv, gammaln

from .estimates import Estimate, mean_and_stderr
from .grassmann import haar_frames
from .parallel import lane_count, run_lanes
from .radii import _BLOCK, _max_sq_norms
from .streams import StreamKey, standard_normal

_ABS_TOL = 1e-9  # absolute error target of expected_max_chi


def expected_max_chi(k: int, N: int) -> float:
    """E max over N independent chi_k variables, by adaptive quadrature.

    1 - F(t)^N falls from 1 to 0 over a window of width O(1) near
    max(sqrt k, sqrt(2 log N)), which one quadrature from 0 misses once k is
    large.  Two chi quantiles bracket it: below the lower one F^N is under
    _ABS_TOL / (4 hi), above the upper one N (1 - F) is under _ABS_TOL / 4.
    The value is the lower quantile plus the integral of 1 - F^N between
    them, with F^N evaluated as exp(N log1p(-sf)) so huge N stays stable.
    The error is within _ABS_TOL for k up to 10^7 and N up to 10^303.  Above
    that k gammaincc's accuracy bounds it (about 1.2e-7 at k = 10^8, 4e-7 at
    10^9); above that N its survival values are subnormal (at k = 1, -2.0e-9
    at N = 10^304 and -2.1e-8 at 10^305).
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

    def quantile(sf: float) -> float:
        return math.sqrt(2.0 * float(gammainccinv(a, sf)))

    hi = quantile(0.25 * _ABS_TOL / N)
    # 1 - F(lo) = 1 - (tol / 4 hi)^(1/N), exact for huge N
    lo = quantile(-math.expm1(math.log(0.25 * _ABS_TOL / hi) / N))
    value, _ = quad(integrand, lo, hi, epsabs=0.5 * _ABS_TOL, limit=200)
    return lo + float(value)


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
    lower: float
    value: float
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
            holds = lower * (1.0 - 1e-9) <= value <= 2.0 * lower * (1.0 + 1e-9)
            rows.append(TailSandwichRow(k, lower, value, holds))
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
    from key.child(i) and its frame from key.child(i).child(1); its lane
    projects the cloud and raises vals[i] from zero to its max with
    radii._max_sq_norms.  The replicas run in parallel.lane_count lanes, each
    holding one (N, n) cloud at a time, and draw their frames in stacks of at
    most radii._BLOCK floats over all lanes (one frame when a frame needs more).
    A frame has the same bits at any stack size and the mean reduces vals in
    index order, so the result has the same bits at any lane count.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    vals = np.zeros(replicas)
    lanes = lane_count(replicas, N * n)
    stack = max(1, _BLOCK // (lanes * n * k))

    def block(lane: int, start: int, stop: int):
        for first in range(start, stop, stack):
            keys = [key.child(i).child(1) for i in range(first, min(first + stack, stop))]
            for i, frame in enumerate(haar_frames(n, k, keys), first):
                yield
                _max_sq_norms(gaussian_cloud(n, N, key.child(i)) @ frame, [k], vals[i : i + 1])

    run_lanes(block, replicas, lanes)
    return mean_and_stderr(np.sqrt(vals))
