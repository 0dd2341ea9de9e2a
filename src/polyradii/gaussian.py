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
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)  # on [-1, 1], per panel
_PANELS = 4  # panels of expected_max_chi's first sum
_DOUBLINGS = 10  # at most 4 * 2^10 = 4096 panels
_TINY = np.finfo(float).tiny  # survival values below it are taken in log space
_CF_TERMS = 100  # cap on _log_sf's continued fraction terms


def expected_max_chi(k: int, N: int) -> float:
    """E max over N independent chi_k variables, by a composite Gauss-Legendre rule.

    1 - F(t)^N falls from 1 to 0 over a window of width O(1) near
    max(sqrt k, sqrt(2 log N)), which one quadrature from 0 misses once k is
    large.  Two chi quantiles bracket it: below the lower one F^N is under
    _ABS_TOL / (4 hi), above the upper one N (1 - F) is under _ABS_TOL / 4.
    The value is the lower quantile plus the integral of 1 - F^N between
    them, with F^N evaluated as exp(N log1p(-sf)) so huge N stays stable;
    where sf is below the least normal float, and so lost to gammaincc's
    underflow, N log F = -N sf is taken as -exp(log N + _log_sf).
    The integral is a sum over equal panels of the window, each taking
    _GL_NODES' 20-point Gauss-Legendre rule; the panel count starts at
    _PANELS and doubles until two successive sums agree within _ABS_TOL / 4,
    and a window that needs more than _DOUBLINGS doublings raises ValueError.
    Against 50-digit mpmath the error is within _ABS_TOL for k up to 5 10^6
    and every N a float holds: about -3e-11 for N up to 10^9, -7e-12 at
    N = 10^303 and at the largest float N, and 3.4e-10 at k = 5 10^6, N = 1.
    Above that k gammaincc's accuracy bounds it (4.1e-9 at k = 10^7 and
    N = 1, 1.8e-8 at 2 10^7).
    """
    if k < 1 or N < 1:
        raise ValueError("need k >= 1 and N >= 1")
    a = k / 2.0

    def quantile(sf: float) -> float:
        return math.sqrt(2.0 * float(gammainccinv(a, sf)))

    log_n = math.log(N)
    hi = quantile(0.25 * _ABS_TOL / N)
    # 1 - F(lo) = 1 - (tol / 4 hi)^(1/N), exact for huge N
    lo = quantile(-math.expm1(math.log(0.25 * _ABS_TOL / hi) / N))
    panels, previous = _PANELS, math.nan
    for _ in range(_DOUBLINGS + 1):
        half = 0.5 * (hi - lo) / panels
        t = (lo + half * np.arange(1, 2 * panels, 2))[:, None] + half * _GL_NODES
        x = 0.5 * t * t
        sf = gammaincc(a, x)
        # log F(t), with sf >= 1 giving F = 0 and so an integrand of 1
        log_cdf = np.log1p(-sf, out=np.full_like(sf, -np.inf), where=sf < 1.0)
        with np.errstate(over="ignore"):  # N log F below -max float: F^N = 0
            log_cdf_n = N * log_cdf
        tail = sf < _TINY
        if tail.any():
            # gammaincc is subnormal, then 0, here: N log F = -N sf to double precision
            log_cdf_n[tail] = -np.exp(log_n + _log_sf(a, x[tail]))
        value = half * float(np.sum(-np.expm1(log_cdf_n) * _GL_WEIGHTS))
        if abs(value - previous) <= 0.25 * _ABS_TOL:
            return lo + value
        panels, previous = 2 * panels, value
    raise ValueError(f"the chi-max quadrature at k={k}, N={N} did not reach "
                     f"{_ABS_TOL:g} in {panels // 2} panels")


def _log_sf(a: float, x: np.ndarray) -> np.ndarray:
    """log Q(a, x) where Q = gammaincc(a, x) underflows, for x well above a.

    Q(a, x) = x^a e^-x / Gamma(a) times Legendre's continued fraction
    1 / (x + 1 - a - 1 (1 - a) / (x + 3 - a - 2 (2 - a) / ...)), summed by
    the modified Lentz method, so no factor underflows.  The fraction
    converges in a few terms this far above a.
    """
    b = x + 1.0 - a
    c = np.full_like(x, 1e300)
    d = 1.0 / b
    fraction = d.copy()
    for i in range(1, _CF_TERMS + 1):
        an = -i * (i - a)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        fraction *= delta
        if np.all(np.abs(delta - 1.0) <= 1e-16):
            break
    return a * np.log(x) - x - gammaln(a) + np.log(fraction)


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
