"""Haar frames (subspaces and nested flags), uniform sphere points and sphere marginal moments."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from scipy.special import gammaln, ndtri

from .streams import StreamKey, standard_normal, uniform


def haar_frames(n: int, k: int, keys: Sequence[StreamKey]) -> np.ndarray:
    """(len(keys), n, k) stack of orthonormal frames of Haar-distributed
    k-dimensional subspaces of R^n; frame i is drawn from keys[i] alone.

    Sign-fixed QR, diag(R) > 0: deterministic and Haar-correct.  With k = n
    each frame is a nested flag: every prefix of k columns is Haar on G_{n,k}.
    Each key makes its own uniform draw; one inverse-normal transform and one
    batched QR then cover the whole stack, so frame i has the same bits
    whatever the other keys are.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    g = np.empty((len(keys), n * k))
    for row, key in zip(g, keys):
        row[:] = uniform(key, n * k)
    ndtri(g, out=g)  # streams.standard_normal, applied to the whole stack
    q, r = np.linalg.qr(g.reshape(len(keys), n, k))
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    q *= np.where(d == 0.0, 1.0, d)[:, None, :]
    return q


def haar_subspace(n: int, k: int, key: StreamKey) -> np.ndarray:
    """One (n, k) Haar frame, haar_frames(n, k, [key])[0].

    centroid_width_check is its only caller in the package; the benchmark's
    frame counters hook this function, so it stays until they count
    haar_frames draws."""
    return haar_frames(n, k, [key])[0]


def sphere_points(n: int, count: int, key: StreamKey) -> np.ndarray:
    """count i.i.d. uniform points on S^{n-1} as a (count, n) array."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    z = standard_normal(key, count * n).reshape(count, n)
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def sphere_marginal_moment(k: int, q: float) -> float:
    """Exact m_{k,q} = integral of |theta_1|^q over S^{k-1}.

    m_{k,q} = Gamma((q+1)/2) Gamma(k/2) / (sqrt(pi) Gamma((k+q)/2)), finite
    for q > -1; evaluated in log space so real q and large k are safe.
    For k = 1 the value is 1 for every q.
    """
    if k < 1:
        raise ValueError("dimension must be >= 1")
    if q <= -1.0:
        raise ValueError("divergent marginal moment")
    log_m = gammaln((q + 1.0) / 2.0) + gammaln(k / 2.0) - gammaln((k + q) / 2.0)
    return float(np.exp(log_m) / np.sqrt(np.pi))
