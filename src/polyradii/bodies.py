"""Exact volume-one isotropic models: cube, ball, cross-polytope, simplex.

Every body is an affine normalization with closed-form scale and isotropic
constant.  Samplers are inversion-based (rejection-free) so a stream key pins
the output exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .streams import StreamKey, standard_exponential, standard_normal, uniform

KINDS = ("cube", "ball", "cross", "simplex")


@dataclass(frozen=True, eq=False)
class Body:
    """One of the four exact isotropic models, |K| = 1 and centroid 0.

    ``scale`` is the affine normalization: cube side is 1 (scale unused but
    kept at 1), ball radius, cross-polytope vertex distance, simplex vertex
    scaling.  ``vertices`` holds the (n+1, n) simplex vertex rows, else None.
    """

    kind: str
    dim: int
    scale: float
    vertices: np.ndarray | None = None


def ball_radius(n: int) -> float:
    """Radius making the Euclidean ball have volume one: |B_2^n|^(-1/n)."""
    log_vol = (n / 2.0) * np.log(np.pi) - gammaln(n / 2.0 + 1.0)
    return float(np.exp(-log_vol / n))


def cross_scale(n: int) -> float:
    """Vertex distance making the l1 ball have volume one: (n!)^(1/n) / 2."""
    return float(np.exp(gammaln(n + 1.0) / n) / 2.0)


def simplex_scale(n: int) -> float:
    """Vertex scaling making the regular simplex have volume one.

    The unit construction (Helmert columns) spans a simplex of volume
    sqrt(n+1)/n!, so the factor is (n!/sqrt(n+1))^(1/n).
    """
    return float(np.exp((gammaln(n + 1.0) - 0.5 * np.log(n + 1.0)) / n))


def _simplex_vertices(n: int) -> np.ndarray:
    # Columns of the Helmert submatrix are the n+1 vertices of a regular
    # simplex in R^n with centroid 0 and sum of outer products = identity.
    h = np.zeros((n, n + 1))
    for j in range(1, n + 1):
        norm = np.sqrt(j * (j + 1.0))
        h[j - 1, :j] = 1.0 / norm
        h[j - 1, j] = -j / norm
    v = simplex_scale(n) * h.T
    v.setflags(write=False)
    return v


def make_body(kind: str, n: int) -> Body:
    """Build the volume-one isotropic model of the given kind in R^n."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if kind == "cube":
        return Body("cube", n, 1.0)
    if kind == "ball":
        return Body("ball", n, ball_radius(n))
    if kind == "cross":
        return Body("cross", n, cross_scale(n))
    if kind == "simplex":
        return Body("simplex", n, simplex_scale(n), _simplex_vertices(n))
    raise ValueError(f"unknown body kind {kind!r}; valid kinds: {', '.join(KINDS)}")


def isotropic_constant(body: Body) -> float:
    """Exact L_K, the common directional second moment sqrt(E<x,theta>^2)."""
    n = body.dim
    if body.kind == "cube":
        return 1.0 / np.sqrt(12.0)
    if body.kind == "ball":
        return body.scale / np.sqrt(n + 2.0)
    if body.kind == "cross":
        return body.scale * np.sqrt(2.0 / ((n + 1.0) * (n + 2.0)))
    # Simplex: covariance is (sum of vertex outer products)/((n+1)(n+2)),
    # and the Helmert construction makes that sum equal scale^2 * identity.
    return body.scale / np.sqrt((n + 1.0) * (n + 2.0))


def sample_points(body: Body, m: int, key: StreamKey) -> np.ndarray:
    """m i.i.d. uniform points in the body as an (m, n) array."""
    if m < 1:
        raise ValueError("sample count must be >= 1")
    n = body.dim
    if body.kind == "cube":
        return uniform(key.child(0), m * n).reshape(m, n) - 0.5
    if body.kind == "ball":
        z = standard_normal(key.child(0), m * n).reshape(m, n)
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        radii = body.scale * uniform(key.child(1), m) ** (1.0 / n)
        return z * radii[:, None]
    if body.kind == "cross":
        # n exponentials plus one slack, normalized, with random signs: the
        # classical Dirichlet representation of the uniform l1-ball law.
        e = standard_exponential(key.child(0), m * (n + 1)).reshape(m, n + 1)
        signs = np.where(uniform(key.child(1), m * n).reshape(m, n) < 0.5, -1.0, 1.0)
        return body.scale * signs * e[:, :n] / np.sum(e, axis=1, keepdims=True)
    e = standard_exponential(key.child(0), m * (n + 1)).reshape(m, n + 1)
    weights = e / np.sum(e, axis=1, keepdims=True)
    return weights @ body.vertices
