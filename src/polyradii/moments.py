"""Moment functionals of the Euclidean norm over isotropic bodies.

Positive and negative moments, their Grassmannian averages and the
centroid-body width check, with the variance guards plain Monte Carlo needs
for negative exponents (the projected norm has density ~ t^(k-1) near zero,
so |P_F x|^(-q) keeps finite variance only for q < (k-1)/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies import Body, isotropic_constant, sample_points
from .estimates import Estimate, mean_and_stderr, power_estimate
from .grassmann import haar_frames, haar_subspace, sphere_marginal_moment, sphere_points
from .parallel import one_blas_thread
from .radii import _project_stack, projected_sq_norms
from .streams import StreamKey

MIN_SAMPLES = 100  # fewest points (and subspaces) a moment estimate takes
_DIRECTIONS = 64  # directions inside F per -q mean width
# directions per slice of the projected stack: a 16-column product has the bits
# of those columns of the full product (checked at n = 16..128), a gemv would not
_DIRECTION_CHUNK = 16


def moment(body: Body, q: float, m: int, key: StreamKey) -> Estimate:
    """I_q(K) = (mean of |X|^q)^(1/q) with delta-method stderr."""
    if q == 0 or (q < 0 and -q >= (body.dim - 1) / 2.0):
        raise ValueError("variance-unsafe exponent")
    if m < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    r = np.linalg.norm(sample_points(body, m, key.child(0)), axis=1)
    return power_estimate(mean_and_stderr(r**q), 1.0 / q)


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


def grassmann_moment_avg(
    body: Body, k: int, q: float, M: int, m: int, key: StreamKey
) -> GrassmannMomentAvg:
    """Average I_q(K,F)^q over M Haar subspaces with a shared point sample.

    Sharing the m points across subspaces (common random numbers) suppresses
    between-subspace noise; the reported stderr splits the variance into a
    subspace component and a point component and adds them, which slightly
    overcounts and is therefore conservative.  The reference I_q(K) is exact
    for the ball and an independent Monte Carlo estimate otherwise.  The M
    frames are projected as one stack, which projected_sq_norms runs in lanes;
    each subspace's row has the bits of its own projection.
    """
    n = body.dim
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if q < 1:
        raise ValueError("Grassmannian moment average needs q >= 1")
    if M < MIN_SAMPLES or m < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} subspaces and samples")
    pts = sample_points(body, m, key.child(0))
    frames = haar_frames(n, k, [key.child(1).child(i) for i in range(M)])
    if body.kind == "ball":
        iq = Estimate(ball_moment_exact(body, q), 0.0)
    else:
        iq = moment(body, q, m, key.child(2))
    # in place on the stack's own (M, m) result: the same ** dispatch as per frame
    powers = projected_sq_norms(pts, frames, [k])[..., 0]
    np.sqrt(powers, out=powers)
    powers **= q
    total = float(np.mean(powers))
    per_subspace = np.mean(powers, axis=1)
    per_point = np.mean(powers, axis=0)
    var = np.var(per_subspace, ddof=1) / M + np.var(per_point, ddof=1) / m
    estimate = power_estimate(Estimate(total, float(np.sqrt(var))), 1.0 / q)

    mratio = (sphere_marginal_moment(n, q) / sphere_marginal_moment(k, q)) ** (1.0 / q)
    return GrassmannMomentAvg(estimate, Estimate(iq.value * mratio, iq.stderr * mratio), iq)


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
    """Per-subspace ratios I_{-q}(K,F) / (sqrt(k/q) w_{-q}(P_F Z_q(K))).

    ``grassmann_neg_ratio`` additionally compares the Grassmannian negative-moment
    average against sqrt(k/n) I_{-q}(K).
    """

    ratios: np.ndarray
    grassmann_neg_ratio: float


def centroid_width_check(
    body: Body, k: int, q: int, M: int, m: int, key: StreamKey
) -> CentroidWidthReport:
    """Check the negative-moment / centroid-body width equivalence.

    For each of M Haar subspaces F the left side is the Monte Carlo
    I_{-q}(K,F); the right side integrates h_{Z_q(K)} over directions inside
    F (the projection of Z_q onto F has exactly that support restriction).
    Frames and directions are drawn in the calling thread, the directions as
    one product on one BLAS thread; both sides project the points through
    radii, the right side onto a stack of _DIRECTION_CHUNK directions a slice.
    Every ratio has the bits of a loop over the subspaces.
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
    if M < 2 or m < MIN_SAMPLES:
        raise ValueError("insufficient sample counts")
    # drawn first, so its sample is freed before pts is drawn
    iq_neg = moment(body, -float(q), m, key.child(3)).value
    pts = sample_points(body, m, key.child(0))
    frames = np.stack([haar_subspace(n, k, key.child(1).child(i)) for i in range(M)])
    inner = np.stack([sphere_points(k, _DIRECTIONS, key.child(2).child(i)) for i in range(M)])
    # in place on the stack's own (M, m) result: the same ** dispatch as per frame
    powers = projected_sq_norms(pts, frames, [k])[..., 0]
    np.sqrt(powers, out=powers)
    powers **= -q
    lhs = np.array([np.mean(row) ** (-1.0 / q) for row in powers])
    del powers
    # subspace i's directions c..c+16 are slice i * 64 / 16 + c / 16
    with one_blas_thread():
        dirs = frames @ inner.swapaxes(1, 2)
    dirs = dirs.reshape(M, n, -1, _DIRECTION_CHUNK).swapaxes(1, 2)
    hq = np.empty((M, _DIRECTIONS))

    def mean_powers(proj: np.ndarray, lo: int, hi: int) -> None:
        np.abs(proj, out=proj)
        proj **= q
        # np.mean's bits: its row-by-row sum, then one division by m; einsum
        # adds the rows in the same order, at about a third of the time
        mean = hq.reshape(-1, _DIRECTION_CHUNK)[lo:hi]
        np.einsum("...ij->...j", proj, out=mean)
        mean /= m

    slices = dirs.reshape(-1, n, _DIRECTION_CHUNK)
    _project_stack(pts, lambda lo, hi: slices[lo:hi], len(slices), _DIRECTION_CHUNK, mean_powers)
    rhs = np.sqrt(k / q) * np.array([np.mean(1.0 / row) ** (-1.0 / q) for row in hq])
    avg_neg = float(np.mean(lhs ** (-q)) ** (-1.0 / q))
    grassmann_neg_ratio = avg_neg / (np.sqrt(k / n) * iq_neg)
    return CentroidWidthReport(lhs / rhs, grassmann_neg_ratio)
