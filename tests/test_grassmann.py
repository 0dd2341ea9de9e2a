import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

from polyradii import parallel
from polyradii.grassmann import haar_frames, haar_subspace, sphere_marginal_moment, sphere_points
from polyradii.streams import standard_normal


def _reference_frame(n, k, key):
    """One frame on its own: a normal draw, one QR and the sign fix.  Every
    frame of a haar_frames stack must have exactly these bits."""
    g = standard_normal(key, n * k).reshape(n, k)
    q, r = np.linalg.qr(g)
    d = np.sign(np.diagonal(r))
    return q * np.where(d == 0.0, 1.0, d)


@pytest.mark.parametrize("n,k", [(16, 16), (64, 32), (64, 64), (100, 50), (100, 100),
                                 (1, 1), (2, 1), (16, 1), (100, 1)])
@pytest.mark.parametrize("M", [1, 7])
def test_stacked_frames_equal_the_reference_loop(key, n, k, M):
    keys = [key.child(40).child(n).child(k).child(i) for i in range(M)]
    frames = haar_frames(n, k, keys)
    assert frames.shape == (M, n, k)
    for frame, frame_key in zip(frames, keys):
        reference = _reference_frame(n, k, frame_key)
        assert np.array_equal(frame, reference)
        assert np.array_equal(haar_subspace(n, k, frame_key), reference)


def test_subspace_orthonormality(key):
    for i, (n, k) in enumerate([(3, 1), (5, 3), (8, 8)]):
        frame = haar_frames(n, k, [key.child(i)])[0]
        assert np.max(np.abs(frame.T @ frame - np.eye(k))) < 1e-10
    with pytest.raises(ValueError):
        haar_frames(3, 4, [key])[0]
    with pytest.raises(ValueError):
        haar_frames(3, 0, [key])[0]


def test_full_subspace_preserves_norms(key):
    F = haar_frames(6, 6, [key.child(1)])[0]
    x = standard_normal(key.child(2), 6)
    assert np.linalg.norm(x @ F) == pytest.approx(np.linalg.norm(x), rel=1e-12)


def test_projection_examples():
    F = np.array([[1.0], [0.0]])
    assert np.linalg.norm(np.array([3.0, 4.0]) @ F) == pytest.approx(3.0)


def test_projection_contracts(key):
    F = haar_frames(7, 3, [key.child(3)])[0]
    xs = standard_normal(key.child(4), 70).reshape(10, 7)
    assert np.all(
        np.linalg.norm(xs @ F, axis=1) <= np.linalg.norm(xs, axis=1) + 1e-12
    )


def test_projected_squared_norm_mean(key):
    # E |P_F x|^2 = (k/n) |x|^2 for Haar F
    x = np.eye(2)[0]
    vals = np.empty(10**5)
    for i in range(vals.size):
        F = haar_frames(2, 1, [key.child(5).child(i)])[0]
        vals[i] = np.sum((x @ F) ** 2)
    stderr = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - 0.5) <= 3 * stderr

    x = sphere_points(10, 1, key.child(6))[0]
    vals = np.empty(3 * 10**4)
    for i in range(vals.size):
        F = haar_frames(10, 3, [key.child(7).child(i)])[0]
        vals[i] = np.sum((x @ F) ** 2)
    stderr = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - 0.3) <= 3 * stderr


def test_projected_moment_identity(key):
    # E |P_F x|^q = |x|^q m(n, q) / m(k, q) for every q, here q = 1.5 and 3
    n, k = 6, 2
    x = sphere_points(n, 1, key.child(8))[0] * 2.0
    norms = np.empty(2 * 10**4)
    for i in range(norms.size):
        F = haar_frames(n, k, [key.child(9).child(i)])[0]
        norms[i] = np.linalg.norm(x @ F)
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
    frame = haar_frames(7, 7, [key.child(10)])[0]
    for k in (1, 3, 7):
        F = frame[:, :k]
        assert F.shape[1] == k
        assert np.max(np.abs(F.T @ F - np.eye(k))) < 1e-10


def test_flag_projections_monotone(key):
    frame = haar_frames(6, 6, [key.child(11)])[0]
    xs = standard_normal(key.child(12), 60).reshape(10, 6)
    prev = np.zeros(10)
    for k in range(1, 7):
        cur = np.linalg.norm(xs @ frame[:, :k], axis=1)
        assert np.all(cur >= prev)
        prev = cur


def test_flag_prefix_matches_haar_subspace(key):
    # |P_F e_1| for flag prefixes vs direct Haar subspaces: same distribution
    n, reps = 5, 2000
    e1 = np.eye(n)[0]
    a = np.empty(reps)
    b = np.empty(reps)
    for i in range(reps):
        prefix = haar_frames(n, n, [key.child(13).child(i)])[0][:, :1]
        a[i] = np.linalg.norm(e1 @ prefix)
        b[i] = np.linalg.norm(e1 @ haar_frames(n, 1, [key.child(14).child(i)])[0])
    assert ks_2samp(a, b).pvalue > 0.01


def test_haar_rotation_invariance(key):
    # |P_F (U x)| and |P_F x| agree in distribution for a fixed rotation U
    n, k_dim, reps = 6, 2, 10**4
    x = sphere_points(n, 1, key.child(15))[0]
    u_mat = haar_frames(n, n, [key.child(16)])[0]
    a = np.empty(reps)
    b = np.empty(reps)
    for i in range(reps):
        F = haar_frames(n, k_dim, [key.child(17).child(i)])[0]
        a[i] = np.linalg.norm(x @ F)
        F = haar_frames(n, k_dim, [key.child(18).child(i)])[0]
        b[i] = np.linalg.norm((u_mat @ x) @ F)
    assert ks_2samp(a, b).pvalue > 0.01


def test_sphere_sample_basics(key):
    theta = sphere_points(9, 1, key.child(19))[0]
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
    a = haar_frames(5, 5, [key.child(22)])[0]
    b = haar_frames(5, 5, [key.child(22)])[0]
    assert a.tobytes() == b.tobytes()


def test_frames_have_the_same_bits_at_any_blas_thread_count(key):
    # OpenBLAS's 260 x 260 QR has other bits at 1 and 2 threads (about 41 000
    # entries differ); haar_frames runs its QR on one thread and restores the
    # count after it
    blas = parallel._openblas()
    if not blas:
        pytest.skip("numpy's BLAS exposes no thread count")
    get, set_threads = blas
    keys = [key.child(50).child(i) for i in range(2)]
    old = get()
    frames = []
    try:
        for threads in (1, 2):
            set_threads(threads)
            frames.append(haar_frames(260, 260, keys))
            assert get() == threads
    finally:
        set_threads(old)
    assert np.array_equal(frames[0], frames[1])
