import math

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import contains, outer_radius_exact, support
from polyradii import parallel
from polyradii.bodies import (
    KINDS,
    Body,
    ball_radius,
    isotropic_constant,
    make_body,
    sample_points,
)
from polyradii.grassmann import sphere_points
from polyradii.streams import uniform


def test_dimension_one_models_coincide(key):
    # cube, cross (and simplex) in dimension 1 are all the segment [-1/2, 1/2]
    for kind in ("cube", "cross", "simplex"):
        body = make_body(kind, 1)
        pts = sample_points(body, 5000, key.child(0))
        assert np.all(np.abs(pts) <= 0.5)
        assert outer_radius_exact(body) == pytest.approx(0.5)
        assert isotropic_constant(body) == pytest.approx(1 / math.sqrt(12))


def test_scales():
    assert make_body("ball", 2).scale == pytest.approx(math.pi**-0.5)
    assert make_body("cross", 2).scale == pytest.approx(math.sqrt(2) / 2)
    assert make_body("ball", 1).scale == pytest.approx(0.5)
    # log-gamma keeps large dimensions finite
    assert np.isfinite(make_body("cross", 1024).scale)
    assert np.isfinite(make_body("ball", 1024).scale)


def test_make_body_errors():
    with pytest.raises(ValueError):
        make_body("cube", 0)
    with pytest.raises(ValueError, match="cube, ball, cross, simplex"):
        make_body("octahedron", 3)


def test_isotropic_constants():
    # cube: the exact 1-D integral of x^2 on [-1/2, 1/2]
    second_moment, _ = quad(lambda x: x * x, -0.5, 0.5)
    assert isotropic_constant(make_body("cube", 7)) == pytest.approx(
        math.sqrt(second_moment)
    )
    assert isotropic_constant(make_body("ball", 2)) == pytest.approx(
        1 / (2 * math.sqrt(math.pi))
    )
    assert isotropic_constant(make_body("cross", 1)) == pytest.approx(
        1 / math.sqrt(12)
    )


@pytest.mark.parametrize("kind", KINDS)
def test_samples_lie_inside(kind, key):
    body = make_body(kind, 5)
    pts = sample_points(body, 20000, key.child(1))
    assert bool(np.all(contains(body, pts)))


def test_sample_determinism(key):
    body = make_body("simplex", 6)
    a = sample_points(body, 1000, key.child(2))
    b = sample_points(body, 1000, key.child(2))
    assert a.tobytes() == b.tobytes()


def test_ball_radial_law(key):
    # P(|x| <= t r) = t^3 in dimension 3, so E (|x|/r)^3 = 1/2
    expected, _ = quad(lambda t: t**3 * 3 * t**2, 0.0, 1.0)
    body = make_body("ball", 3)
    ratios = (
        np.linalg.norm(sample_points(body, 10**6, key.child(3)), axis=1) / body.scale
    ) ** 3
    stderr = ratios.std(ddof=1) / math.sqrt(ratios.size)
    assert abs(ratios.mean() - expected) <= 3 * stderr
    assert expected == pytest.approx(0.5)


def test_cube_coordinates_uncorrelated(key):
    pts = sample_points(make_body("cube", 5), 200000, key.child(4))
    for i in range(5):
        for j in range(i + 1, 5):
            prod = pts[:, i] * pts[:, j]
            stderr = prod.std(ddof=1) / math.sqrt(prod.size)
            assert abs(prod.mean()) <= 3 * stderr


def test_support_values():
    assert support(make_body("ball", 7), np.eye(7)[2]) == pytest.approx(ball_radius(7))
    assert support(make_body("cube", 2), np.array([1.0, 0.0])) == pytest.approx(0.5)
    diag = np.array([1.0, 1.0]) / math.sqrt(2)
    assert support(make_body("cube", 2), diag) == pytest.approx(math.sqrt(2) / 2)
    cross = make_body("cross", 3)
    assert support(cross, diag := np.array([0.6, 0.8, 0.0])) == pytest.approx(
        cross.scale * 0.8
    )
    with pytest.raises(ValueError, match="unit"):
        support(make_body("cube", 2), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="dimension"):
        support(make_body("cube", 2), np.array([1.0, 0.0, 0.0]))


def test_outer_radius():
    assert outer_radius_exact(make_body("cube", 4)) == pytest.approx(1.0)
    assert outer_radius_exact(make_body("ball", 2)) == pytest.approx(math.pi**-0.5)
    cross = make_body("cross", 6)
    assert outer_radius_exact(cross) == pytest.approx(cross.scale)


@pytest.mark.parametrize("kind", KINDS)
def test_outer_radius_isotropic_bound(kind):
    # R(K) <= (n+1) L_K for isotropic bodies
    for n in (1, 2, 3, 4, 8, 16, 32, 64):
        body = make_body(kind, n)
        assert outer_radius_exact(body) <= (n + 1) * isotropic_constant(body)


def test_contains_examples():
    cube = make_body("cube", 3)
    assert contains(cube, np.array([0.49, 0.0, 0.0]))
    assert not contains(cube, np.array([0.51, 0.0, 0.0]))
    ball = make_body("ball", 2)
    assert not contains(ball, np.array([ball.scale + 1e-9, 0.0]))
    assert contains(ball, np.array([ball.scale - 1e-9, 0.0]))
    with pytest.raises(ValueError, match="dimension"):
        contains(cube, np.zeros(4))


@pytest.mark.parametrize("kind", KINDS)
def test_centroid_and_directional_isotropy(kind, key):
    # light version of the acceptance isotropy suite (n in {2, 8}, 2e5 draws)
    for n in (2, 8):
        body = make_body(kind, n)
        L = isotropic_constant(body)
        pts = sample_points(body, 200000, key.child(5).child(n))
        stderr = pts.std(axis=0, ddof=1) / math.sqrt(pts.shape[0])
        assert np.all(np.abs(pts.mean(axis=0)) <= 3 * stderr)
        thetas = sphere_points(n, 10, key.child(6).child(n))
        proj_sq = (pts @ thetas.T) ** 2
        gaps = np.abs(proj_sq.mean(axis=0) - L * L)
        limits = 3 * proj_sq.std(axis=0, ddof=1) / math.sqrt(pts.shape[0])
        assert np.all(gaps <= limits)


@pytest.mark.parametrize(
    "kind,n,box_pad",
    [("cube", 8, 0.625), ("ball", 8, None), ("cross", 4, None), ("simplex", 3, None)],
)
def test_volume_one_by_hit_rate(kind, n, box_pad, key):
    body = make_body(kind, n)
    half = box_pad if box_pad is not None else outer_radius_exact(body)
    m = 400000
    box_pts = (uniform(key.child(7), m * n).reshape(m, n) - 0.5) * (2 * half)
    hits = np.asarray(contains(body, box_pts), dtype=float)
    box_vol = (2 * half) ** n
    vol = box_vol * hits.mean()
    stderr = box_vol * hits.std(ddof=1) / math.sqrt(m)
    assert abs(vol - 1.0) <= 3 * stderr


@pytest.mark.parametrize("kind", KINDS)
def test_support_dominates_samples(kind, key):
    body = make_body(kind, 6)
    pts = sample_points(body, 10**4, key.child(8))
    thetas = sphere_points(6, 100, key.child(9))
    h = np.array([support(body, theta) for theta in thetas])
    assert np.all(pts @ thetas.T <= h[None, :] + 1e-12)


def test_i2_matches_sqrt_n_times_lk(key):
    # trace of the isotropic covariance: E|x|^2 = n L_K^2
    for kind in KINDS:
        body = make_body(kind, 8)
        sq = np.sum(sample_points(body, 300000, key.child(10)) ** 2, axis=1)
        stderr = sq.std(ddof=1) / math.sqrt(sq.size)
        target = 8 * isotropic_constant(body) ** 2
        assert abs(sq.mean() - target) <= 3 * stderr


def test_simplex_geometry():
    body = make_body("simplex", 5)
    v = body.vertices
    assert v.shape == (6, 5)
    assert np.allclose(v.sum(axis=0), 0.0, atol=1e-12)
    # sum of vertex outer products is scale^2 I, which pins L_K exactly
    assert np.allclose(v.T @ v, body.scale**2 * np.eye(5), atol=1e-12)
    norms = np.linalg.norm(v, axis=1)
    assert np.allclose(norms, norms[0])
    assert outer_radius_exact(body) == pytest.approx(
        body.scale * math.sqrt(5.0 / 6.0)
    )
    # all edges have equal length: a regular simplex
    dists = np.linalg.norm(v[:, None, :] - v[None, :, :], axis=2)
    off = dists[~np.eye(6, dtype=bool)]
    assert np.allclose(off, off[0])


def test_simplex_covariance_formula(key):
    body = make_body("simplex", 3)
    pts = sample_points(body, 10**6, key.child(11))
    cov = pts.T @ pts / pts.shape[0]
    expected = (body.vertices.T @ body.vertices) / (4 * 5)
    assert np.allclose(cov, expected, atol=4e-4)


def test_sample_points_shape(key):
    body = make_body("cube", 4)
    assert sample_points(body, 50, key.child(12)).shape == (50, 4)


def test_samples_have_the_same_bits_at_any_blas_thread_count(key):
    # at n = 260 OpenBLAS's product of the simplex weights with the vertices
    # has other bits at 1 and 2 threads (129 of these 1000 x 260 entries
    # differ); sample_points holds it at one thread and restores the count
    blas = parallel._openblas()
    if not blas:
        pytest.skip("numpy's BLAS exposes no thread count")
    get, set_threads = blas
    old = get()
    try:
        for i, kind in enumerate(KINDS):
            body = make_body(kind, 260)
            samples = []
            for threads in (1, 2):
                set_threads(threads)
                samples.append(sample_points(body, 1000, key.child(60).child(i)))
                assert get() == threads
            assert np.array_equal(samples[0], samples[1]), kind
    finally:
        set_threads(old)
