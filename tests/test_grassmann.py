import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

from polyradii.grassmann import (
    Subspace,
    haar_subspace,
    project,
    sphere_marginal_moment,
    sphere_points,
    sphere_sample,
)
from polyradii.streams import standard_normal


def test_subspace_orthonormality(key):
    for i, (n, k) in enumerate([(3, 1), (5, 3), (8, 8)]):
        frame = haar_subspace(n, k, key.child(i))
        assert np.max(np.abs(frame.T @ frame - np.eye(k))) < 1e-10
    with pytest.raises(ValueError):
        haar_subspace(3, 4, key)
    with pytest.raises(ValueError):
        haar_subspace(3, 0, key)
    # user-built frames are validated by Subspace
    with pytest.raises(ValueError, match="not orthonormal"):
        Subspace(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="not orthonormal"):
        Subspace(2.0 * np.eye(3)[:, :1])
    with pytest.raises(ValueError, match="1 <= k <= n"):
        Subspace(np.eye(3)[:, :0])
    with pytest.raises(ValueError, match="1 <= k <= n"):
        Subspace(np.eye(2, 3))


def test_full_subspace_preserves_norms(key):
    F = Subspace(haar_subspace(6, 6, key.child(1)))
    x = standard_normal(key.child(2), 6)
    assert np.linalg.norm(project(F, x)) == pytest.approx(np.linalg.norm(x), rel=1e-12)


def test_projection_examples():
    F = Subspace(np.array([[1.0], [0.0]]))
    assert np.linalg.norm(project(F, np.array([3.0, 4.0]))) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        project(F, np.zeros(3))


def test_projection_contracts(key):
    F = Subspace(haar_subspace(7, 3, key.child(3)))
    xs = standard_normal(key.child(4), 70).reshape(10, 7)
    assert np.all(
        np.linalg.norm(project(F, xs), axis=1) <= np.linalg.norm(xs, axis=1) + 1e-12
    )


def test_projected_squared_norm_mean(key):
    # E |P_F x|^2 = (k/n) |x|^2 for Haar F
    x = np.eye(2)[0]
    vals = np.empty(10**5)
    for i in range(vals.size):
        F = Subspace(haar_subspace(2, 1, key.child(5).child(i)))
        vals[i] = np.sum(project(F, x) ** 2)
    stderr = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - 0.5) <= 3 * stderr

    x = sphere_sample(10, key.child(6))
    vals = np.empty(3 * 10**4)
    for i in range(vals.size):
        F = Subspace(haar_subspace(10, 3, key.child(7).child(i)))
        vals[i] = np.sum(project(F, x) ** 2)
    stderr = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - 0.3) <= 3 * stderr


def test_projected_moment_identity(key):
    # E |P_F x|^q = |x|^q m(n, q) / m(k, q) for every q, here q = 1.5 and 3
    n, k = 6, 2
    x = sphere_sample(n, key.child(8)) * 2.0
    norms = np.empty(2 * 10**4)
    for i in range(norms.size):
        F = Subspace(haar_subspace(n, k, key.child(9).child(i)))
        norms[i] = np.linalg.norm(project(F, x))
    for q in (1.5, 3.0):
        target = (
            np.linalg.norm(x) ** q
            * sphere_marginal_moment(n, q)
            / sphere_marginal_moment(k, q)
        )
        vals = norms**q
        stderr = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - target) <= 3 * stderr


def test_flag_prefixes(key):
    frame = haar_subspace(7, 7, key.child(10))
    for k in (1, 3, 7):
        F = Subspace(frame[:, :k])
        assert F.k == k
        assert np.max(np.abs(F.frame.T @ F.frame - np.eye(k))) < 1e-10


def test_flag_projections_monotone(key):
    frame = haar_subspace(6, 6, key.child(11))
    xs = standard_normal(key.child(12), 60).reshape(10, 6)
    prev = np.zeros(10)
    for k in range(1, 7):
        cur = np.linalg.norm(project(Subspace(frame[:, :k]), xs), axis=1)
        assert np.all(cur >= prev)
        prev = cur


def test_flag_prefix_matches_haar_subspace(key):
    # |P_F e_1| for flag prefixes vs direct Haar subspaces: same distribution
    n, reps = 5, 2000
    e1 = np.eye(n)[0]
    a = np.empty(reps)
    b = np.empty(reps)
    for i in range(reps):
        prefix = Subspace(haar_subspace(n, n, key.child(13).child(i))[:, :1])
        a[i] = np.linalg.norm(project(prefix, e1))
        b[i] = np.linalg.norm(project(Subspace(haar_subspace(n, 1, key.child(14).child(i))), e1))
    assert ks_2samp(a, b).pvalue > 0.01


def test_haar_rotation_invariance(key):
    # |P_F (U x)| and |P_F x| agree in distribution for a fixed rotation U
    n, k_dim, reps = 6, 2, 10**4
    x = sphere_sample(n, key.child(15))
    u_mat = haar_subspace(n, n, key.child(16))
    a = np.empty(reps)
    b = np.empty(reps)
    for i in range(reps):
        F = Subspace(haar_subspace(n, k_dim, key.child(17).child(i)))
        a[i] = np.linalg.norm(project(F, x))
        F = Subspace(haar_subspace(n, k_dim, key.child(18).child(i)))
        b[i] = np.linalg.norm(project(F, u_mat @ x))
    assert ks_2samp(a, b).pvalue > 0.01


def test_sphere_sample_basics(key):
    theta = sphere_sample(9, key.child(19))
    assert abs(np.linalg.norm(theta) - 1.0) < 1e-12
    pts = sphere_points(5, 10**5, key.child(20))
    stderr = pts.std(axis=0, ddof=1) / math.sqrt(pts.shape[0])
    assert np.all(np.abs(pts.mean(axis=0)) <= 3 * stderr)
    sq = pts[:, 0] ** 2
    assert abs(sq.mean() - 0.2) <= 3 * sq.std(ddof=1) / math.sqrt(sq.size)


def test_marginal_moment_exact_values():
    for k in range(1, 21):
        assert sphere_marginal_moment(k, 2.0) == pytest.approx(1.0 / k, rel=1e-12)
    assert sphere_marginal_moment(3, 1.0) == pytest.approx(0.5, rel=1e-12)
    assert sphere_marginal_moment(2, 2.0) == pytest.approx(0.5, rel=1e-12)
    for q in (0.5, 1.0, 2.5, 7.0):
        assert sphere_marginal_moment(1, q) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError, match="divergent"):
        sphere_marginal_moment(4, -1.0)


def test_marginal_moment_against_quadrature():
    # m_{3,q} via the explicit surface integral: the first coordinate of a
    # uniform point on S^2 is uniform on [-1, 1]
    for q in (0.5, 1.0, 2.0, 3.7):
        exact, _ = quad(lambda t: 0.5 * abs(t) ** q, -1.0, 1.0)
        assert sphere_marginal_moment(3, q) == pytest.approx(exact, rel=1e-10)


def test_marginal_moment_against_mc(key):
    pts = sphere_points(7, 2 * 10**5, key.child(21))
    for q in (1.0, 2.5):
        vals = np.abs(pts[:, 0]) ** q
        stderr = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - sphere_marginal_moment(7, q)) <= 3 * stderr


def test_orientation_fix_is_deterministic(key):
    a = haar_subspace(5, 5, key.child(22))
    b = haar_subspace(5, 5, key.child(22))
    assert a.tobytes() == b.tobytes()
