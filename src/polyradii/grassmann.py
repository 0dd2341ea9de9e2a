"""Haar frames (subspaces and nested flags), projections and sphere marginal moments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .streams import StreamKey, standard_normal

_ORTHO_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Subspace:
    """A k-dimensional subspace of R^n given by a checked orthonormal (n, k) frame."""

    frame: np.ndarray

    @property
    def n(self) -> int:
        return self.frame.shape[0]

    @property
    def k(self) -> int:
        return self.frame.shape[1]

    def __post_init__(self) -> None:
        n, k = self.frame.shape
        if not 1 <= k <= n:
            raise ValueError("need 1 <= k <= n")
        gram = self.frame.T @ self.frame
        if np.max(np.abs(gram - np.eye(k))) > _ORTHO_TOL:
            raise ValueError("frame columns are not orthonormal")


def haar_subspace(n: int, k: int, key: StreamKey) -> np.ndarray:
    """Orthonormal (n, k) frame of a Haar-distributed k-dimensional subspace of R^n.

    Sign-fixed QR, diag(R) > 0: deterministic and Haar-correct.  With k = n it
    is a nested flag: every prefix of k columns is Haar on G_{n,k}.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    g = standard_normal(key, n * k).reshape(n, k)
    q, r = np.linalg.qr(g)
    d = np.sign(np.diagonal(r))
    return q * np.where(d == 0.0, 1.0, d)


def project(subspace: Subspace, x: np.ndarray) -> np.ndarray:
    """Coordinates of the orthogonal projection onto the subspace.

    Returns frame^T x, whose Euclidean norm is |P_F x|.  Accepts a single
    vector (n,) or a batch (m, n).
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != subspace.n:
        raise ValueError("vector dimension mismatch")
    return x @ subspace.frame


def sphere_points(n: int, count: int, key: StreamKey) -> np.ndarray:
    """count i.i.d. uniform points on S^{n-1} as a (count, n) array."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    z = standard_normal(key, count * n).reshape(count, n)
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def sphere_sample(n: int, key: StreamKey) -> np.ndarray:
    """One uniform point on S^{n-1}."""
    return sphere_points(n, 1, key)[0]


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
