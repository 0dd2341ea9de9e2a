"""Moment functionals of the Euclidean norm over isotropic bodies.

Positive and negative moments, their Grassmannian averages, p-mean widths
and centroid-body support values, with the variance guards plain Monte Carlo
needs for negative exponents (the projected norm has density ~ t^(k-1) near
zero, so |P_F x|^(-q) keeps finite variance only for q < (k-1)/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bodies import Body, isotropic_constant, sample_points
from .estimates import Estimate, mean_and_stderr, power_estimate, scale_estimate
from .grassmann import Subspace, haar_subspace, sphere_marginal_moment, sphere_points
from .radii import projected_sq_norms
from .streams import StreamKey

_MIN_SAMPLES = 100


def _guard_exponent(q: float, dim: int) -> None:
    if q == 0 or (q < 0 and -q >= (dim - 1) / 2.0):
        raise ValueError("variance-unsafe exponent")


def moment(body: Body, q: float, m: int, key: StreamKey) -> Estimate:
    """I_q(K) = (mean of |X|^q)^(1/q) with delta-method stderr."""
    _guard_exponent(q, body.dim)
    if m < _MIN_SAMPLES:
        raise ValueError(f"need at least {_MIN_SAMPLES} samples")
    r = np.linalg.norm(sample_points(body, m, key.child(0)), axis=1)
    return power_estimate(mean_and_stderr(r**q, key), 1.0 / q)


def moment_subspace(body: Body, subspace: Subspace, q: float, m: int, key: StreamKey) -> Estimate:
    """I_q(K, F): the same estimator applied to |P_F X|."""
    if subspace.n != body.dim:
        raise ValueError("body and subspace dimension mismatch")
    _guard_exponent(q, subspace.k)
    if m < _MIN_SAMPLES:
        raise ValueError(f"need at least {_MIN_SAMPLES} samples")
    pts = sample_points(body, m, key.child(0))
    r = np.sqrt(projected_sq_norms(pts, subspace.frame, [subspace.k])[:, 0])
    return power_estimate(mean_and_stderr(r**q, key), 1.0 / q)


def ball_moment_exact(body: Body, q: float) -> float:
    """Closed form I_q for the ball: r (n/(n+q))^(1/q), valid for q > -n."""
    if body.kind != "ball":
        raise ValueError("closed form only applies to the ball")
    n = body.dim
    if q == 0 or q <= -n:
        raise ValueError("exponent out of range for the ball moment")
    return float(body.scale * (n / (n + q)) ** (1.0 / q))


@dataclass(frozen=True)
class GrassmannMomentAvg:
    """Double Monte Carlo of (avg over F of I_q(K,F)^q)^(1/q) plus its
    exact-identity reference (m_{n,q}/m_{k,q})^(1/q) I_q(K)."""

    estimate: Estimate
    reference: Estimate
    iq: Estimate

    @property
    def ratio(self) -> float:
        return self.estimate.value / self.reference.value


def grassmann_moment_avg(
    body: Body, k: int, q: float, M: int, m: int, key: StreamKey
) -> GrassmannMomentAvg:
    """Average I_q(K,F)^q over M Haar subspaces with a shared point sample.

    Sharing the m points across subspaces (common random numbers) suppresses
    between-subspace noise; the reported stderr splits the variance into a
    subspace component and a point component and adds them, which slightly
    overcounts and is therefore conservative.  The reference I_q(K) is exact
    for the ball and an independent Monte Carlo estimate otherwise.
    """
    n = body.dim
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if q < 1:
        raise ValueError("Grassmannian moment average needs q >= 1")
    if M < _MIN_SAMPLES or m < _MIN_SAMPLES:
        raise ValueError(f"need at least {_MIN_SAMPLES} subspaces and samples")
    pts = sample_points(body, m, key.child(0))
    powers = np.empty((M, m))
    for i in range(M):
        frame = haar_subspace(n, k, key.child(1).child(i))
        powers[i] = np.sqrt(projected_sq_norms(pts, frame, [k])[:, 0]) ** q
    total = float(np.mean(powers))
    per_subspace = np.mean(powers, axis=1)
    per_point = np.mean(powers, axis=0)
    var = np.var(per_subspace, ddof=1) / M + np.var(per_point, ddof=1) / m
    estimate = power_estimate(Estimate(total, float(np.sqrt(var)), M * m, key), 1.0 / q)

    mratio = (sphere_marginal_moment(n, q) / sphere_marginal_moment(k, q)) ** (1.0 / q)
    if body.kind == "ball":
        iq = Estimate(ball_moment_exact(body, q), 0.0, 1, key.child(2))
    else:
        iq = moment(body, q, m, key.child(2))
    return GrassmannMomentAvg(estimate, scale_estimate(iq, mratio), iq)


def p_mean_width(
    support_fn: Callable[[np.ndarray], float], n: int, p: float, M: int, key: StreamKey
) -> Estimate:
    """w_p = (mean over uniform directions of h(theta)^p)^(1/p)."""
    if p == 0:
        raise ValueError("p must be nonzero")
    if M < 2:
        raise ValueError("need at least 2 directions")
    thetas = sphere_points(n, M, key.child(0))
    h = np.array([float(support_fn(theta)) for theta in thetas])
    if p < 0 and np.any(h <= 0.0):
        raise ValueError("degenerate body for negative width")
    return power_estimate(mean_and_stderr(h**p, key), 1.0 / p)


def zq_support(body: Body, q: float, theta: np.ndarray, m: int, key: StreamKey) -> Estimate:
    """Support value of the L_q centroid body: (mean |<X, theta>|^q)^(1/q)."""
    if q < 1:
        raise ValueError("centroid bodies need q >= 1")
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (body.dim,):
        raise ValueError("direction dimension mismatch")
    if abs(np.linalg.norm(theta) - 1.0) > 1e-10:
        raise ValueError("direction must be a unit vector")
    if m < _MIN_SAMPLES:
        raise ValueError(f"need at least {_MIN_SAMPLES} samples")
    dots = np.abs(sample_points(body, m, key.child(0)) @ theta)
    return power_estimate(mean_and_stderr(dots**q, key), 1.0 / q)


@dataclass(frozen=True)
class MomentRatio:
    """One entry of a reverse-Hoelder table: I_q(K) against sqrt(n) L_K."""

    q: float
    estimate: Estimate
    ratio: float
    ratio_stderr: float


def _ratio_table(body: Body, qs: list[float], m: int, key: StreamKey) -> list[MomentRatio]:
    denom = np.sqrt(body.dim) * isotropic_constant(body)
    rows = []
    for i, q in enumerate(qs):
        est = moment(body, q, m, key.child(i))
        rows.append(MomentRatio(q, est, est.value / denom, est.stderr / denom))
    return rows


def positive_moment_ratios(body: Body, m: int, key: StreamKey) -> list[MomentRatio]:
    """Ratios I_q(K) / (sqrt(n) L_K) for q = 1, 2, 4, ... up to sqrt(n).

    In the reverse-Hoelder range all entries stay comparable to 1, and q = 2
    is exactly 1 up to Monte Carlo error.
    """
    n = body.dim
    if n < 4:
        raise ValueError("need dimension >= 4")
    qs: list[float] = [1.0]
    p = 2.0
    while p <= np.floor(np.sqrt(n)):
        qs.append(p)
        p *= 2.0
    return _ratio_table(body, qs, m, key)


def negative_moment_ratios(body: Body, m: int, key: StreamKey) -> list[MomentRatio]:
    """Ratios I_{-q}(K) / (sqrt(n) L_K) for integer q = 1, 2, ... within both
    the reverse-Hoelder range sqrt(n) and the Monte Carlo variance guard."""
    n = body.dim
    q_max = int(np.floor(min(np.sqrt(n), (n - 1) / 2.0 - 1.0)))
    if q_max < 1:
        raise ValueError("no variance-safe negative exponent in this dimension")
    return _ratio_table(body, [-float(q) for q in range(1, q_max + 1)], m, key)


@dataclass(frozen=True)
class CentroidWidthReport:
    """Per-subspace comparison of I_{-q}(K,F) with sqrt(k/q) w_{-q}(P_F Z_q(K)).

    ``grassmann_neg_ratio`` additionally compares the Grassmannian negative-moment
    average against sqrt(k/n) I_{-q}(K).
    """

    k: int
    q: int
    lhs: np.ndarray
    rhs: np.ndarray
    grassmann_neg_ratio: float

    @property
    def ratios(self) -> np.ndarray:
        return self.lhs / self.rhs


def centroid_width_check(
    body: Body,
    k: int,
    q: int,
    M: int,
    m: int,
    key: StreamKey,
    directions: int = 64,
) -> CentroidWidthReport:
    """Check the negative-moment / centroid-body width equivalence.

    For each of M Haar subspaces F the left side is the Monte Carlo
    I_{-q}(K,F); the right side integrates h_{Z_q(K)} over directions inside
    F (the projection of Z_q onto F has exactly that support restriction).
    """
    n = body.dim
    if int(q) != q or q < 1:
        raise ValueError("the proposition needs a positive integer exponent")
    q = int(q)
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if q >= k:
        raise ValueError("proposition hypothesis violated")
    if q >= (k - 1) / 2.0:
        raise ValueError("variance-unsafe exponent")
    if M < 2 or m < _MIN_SAMPLES or directions < 2:
        raise ValueError("insufficient sample counts")
    pts = sample_points(body, m, key.child(0))
    lhs = np.empty(M)
    rhs = np.empty(M)
    for i in range(M):
        frame = haar_subspace(n, k, key.child(1).child(i))
        nrm = np.sqrt(projected_sq_norms(pts, frame, [k])[:, 0])
        lhs[i] = np.mean(nrm ** (-q)) ** (-1.0 / q)
        inner = sphere_points(k, directions, key.child(2).child(i))
        dirs = frame @ inner.T
        hq = np.mean(np.abs(pts @ dirs) ** q, axis=0)
        width_neg = np.mean(1.0 / hq) ** (-1.0 / q)
        rhs[i] = np.sqrt(k / q) * width_neg
    avg_neg = float(np.mean(lhs ** (-q)) ** (-1.0 / q))
    iq_neg = moment(body, -float(q), m, key.child(3)).value
    grassmann_neg_ratio = avg_neg / (np.sqrt(k / n) * iq_neg)
    return CentroidWidthReport(k, q, lhs, rhs, grassmann_neg_ratio)
