import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

from polyradii.bodies import Body, isotropic_constant, make_body, support
from polyradii.grassmann import Subspace, haar_subspace, sphere_marginal_moment
from polyradii.moments import (
    ball_moment_exact,
    grassmann_moment_avg,
    moment,
    moment_subspace,
    p_mean_width,
    negative_moment_ratios,
    positive_moment_ratios,
    centroid_width_check,
    zq_support,
)

UNIT_BALL_2 = Body("ball", 2, 1.0)
UNIT_BALL_3 = Body("ball", 3, 1.0)


def test_ball_moment_closed_form():
    # polar integration: E |X|^q on the unit ball = integral of q-th radial
    # moment against density n t^(n-1)
    for n, q in [(2, 2.0), (3, -1.0), (5, 3.5)]:
        expected = (quad(lambda t: t**q * n * t ** (n - 1), 0.0, 1.0)[0]) ** (1.0 / q)
        assert ball_moment_exact(Body("ball", n, 1.0), q) == pytest.approx(expected)
    assert ball_moment_exact(UNIT_BALL_2, 2.0) == pytest.approx(1 / math.sqrt(2))
    assert ball_moment_exact(UNIT_BALL_3, -1.0) == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError):
        ball_moment_exact(make_body("cube", 3), 2.0)


def test_moment_matches_ball_closed_form(key):
    est = moment(UNIT_BALL_2, 2.0, 200000, key.child(0))
    assert abs(est.value - 1 / math.sqrt(2)) <= 3 * est.stderr
    # negative exponent: q = -1 needs n >= 4 under the variance guard
    ball5 = Body("ball", 5, 1.0)
    est = moment(ball5, -1.0, 200000, key.child(1))
    assert abs(est.value - ball_moment_exact(ball5, -1.0)) <= 3 * est.stderr


def test_moment_i2_identity(key):
    body = make_body("cube", 8)
    est = moment(body, 2.0, 200000, key.child(2))
    assert abs(est.value - math.sqrt(8) * isotropic_constant(body)) <= 3 * est.stderr


def test_moment_guards(key):
    body = make_body("cube", 8)
    with pytest.raises(ValueError, match="variance-unsafe"):
        moment(body, 0.0, 1000, key)
    with pytest.raises(ValueError, match="variance-unsafe"):
        moment(body, -3.5, 1000, key)  # (n-1)/2 = 3.5
    with pytest.raises(ValueError, match="samples"):
        moment(body, 2.0, 99, key)
    # just inside the guard is fine
    moment(body, -3.4, 1000, key)


def test_moment_subspace(key):
    body = make_body("cross", 6)
    full = Subspace(np.eye(6))
    a = moment_subspace(body, full, 2.0, 100000, key.child(3))
    b = moment(body, 2.0, 100000, key.child(4))
    assert abs(a.value - b.value) <= 3 * math.hypot(a.stderr, b.stderr)
    # negative-q guard uses the subspace dimension
    F = Subspace(haar_subspace(6, 2, key.child(5)))
    with pytest.raises(ValueError, match="variance-unsafe"):
        moment_subspace(body, F, -0.5, 1000, key.child(6))


def test_moment_holder_monotone(key):
    body = make_body("simplex", 6)
    est1 = moment(body, 1.0, 100000, key.child(7))
    est4 = moment(body, 4.0, 100000, key.child(8))
    assert est1.value <= est4.value + 3 * math.hypot(est1.stderr, est4.stderr)


def test_grassmann_moment_avg_exact_identity(key):
    body = make_body("ball", 8)
    ga = grassmann_moment_avg(body, 3, 2.0, 200, 20000, key.child(9))
    assert ga.reference.stderr == 0.0  # ball reference is the closed form
    assert abs(ga.estimate.value - ga.reference.value) <= 3 * ga.estimate.stderr
    # reference = (m_{n,q}/m_{k,q})^(1/q) I_q
    mr = (sphere_marginal_moment(8, 2.0) / sphere_marginal_moment(3, 2.0)) ** 0.5
    assert ga.reference.value == pytest.approx(mr * ball_moment_exact(body, 2.0))


def test_grassmann_moment_avg_full_dimension(key):
    body = make_body("cube", 6)
    ga = grassmann_moment_avg(body, 6, 2.0, 100, 20000, key.child(10))
    combined = math.hypot(ga.estimate.stderr, ga.iq.stderr)
    assert abs(ga.estimate.value - ga.iq.value) <= 3 * combined
    with pytest.raises(ValueError):
        grassmann_moment_avg(body, 2, 0.5, 100, 20000, key.child(11))


def test_p_mean_width_ball_constant(key):
    body = make_body("ball", 5)
    for p in (-2.0, 1.0, 3.0):
        est = p_mean_width(lambda theta: support(body, theta), 5, p, 500, key.child(12))
        assert est.value == pytest.approx(body.scale, rel=1e-12)


def test_p_mean_width_cube(key):
    # (1/2) E(|t1| + |t2|) on the circle = E|t1| = 2/pi
    expected, _ = quad(lambda t: abs(math.cos(t)) / (2 * math.pi), 0.0, 2 * math.pi)
    assert expected == pytest.approx(2 / math.pi)
    body = make_body("cube", 2)
    est = p_mean_width(lambda theta: support(body, theta), 2, 1.0, 20000, key.child(13))
    assert abs(est.value - expected) <= 3 * est.stderr


def test_p_mean_width_holder_and_errors(key):
    body = make_body("cross", 4)
    w_neg = p_mean_width(lambda t: support(body, t), 4, -2.0, 4000, key.child(14))
    w_pos = p_mean_width(lambda t: support(body, t), 4, 2.0, 4000, key.child(15))
    assert w_neg.value <= w_pos.value + 3 * math.hypot(w_neg.stderr, w_pos.stderr)
    with pytest.raises(ValueError):
        p_mean_width(lambda t: 1.0, 4, 0.0, 100, key.child(16))
    with pytest.raises(ValueError, match="degenerate"):
        p_mean_width(lambda t: 0.0, 4, -1.0, 100, key.child(17))


def test_zq_support_values(key):
    # q = 2 recovers L_K in every direction; cube q = 1 along e1 is 1/4
    for kind in ("cube", "ball"):
        body = make_body(kind, 5)
        theta = np.eye(5)[0]
        est = zq_support(body, 2.0, theta, 200000, key.child(18))
        assert abs(est.value - isotropic_constant(body)) <= 3 * est.stderr
    cube = make_body("cube", 3)
    expected, _ = quad(lambda t: abs(t), -0.5, 0.5)
    est = zq_support(cube, 1.0, np.eye(3)[0], 200000, key.child(19))
    assert abs(est.value - expected) <= 3 * est.stderr
    est = zq_support(cube, 4.0, np.eye(3)[0], 100000, key.child(20))
    assert est.value <= support(cube, np.eye(3)[0]) + 3 * est.stderr
    with pytest.raises(ValueError):
        zq_support(cube, 0.5, np.eye(3)[0], 1000, key.child(21))


def test_positive_moment_table(key):
    body = make_body("cube", 16)
    rows = positive_moment_ratios(body, 50000, key.child(22))
    assert [row.q for row in rows] == [1.0, 2.0, 4.0]
    assert all(0.5 <= row.ratio <= 2.0 for row in rows)
    q2 = rows[1]
    assert abs(q2.ratio - 1.0) <= 3 * q2.ratio_stderr
    with pytest.raises(ValueError):
        positive_moment_ratios(make_body("cube", 3), 1000, key)


def test_positive_moment_ball_closed_form(key):
    body = make_body("ball", 16)
    rows = positive_moment_ratios(body, 100000, key.child(23))
    for row in rows:
        expected = ball_moment_exact(body, row.q) / (16**0.5 * isotropic_constant(body))
        assert abs(row.ratio - expected) <= 3 * row.ratio_stderr
    # frozen oracle value for (n, q) = (16, 4): (16/20)^(1/4) sqrt(18/16)
    assert (16 / 20) ** 0.25 * math.sqrt(18 / 16) == pytest.approx(1.0031104574)


def test_negative_moment_table(key):
    body = make_body("ball", 16)
    rows = negative_moment_ratios(body, 100000, key.child(24))
    assert [row.q for row in rows] == [-1.0, -2.0, -3.0, -4.0]
    assert all(0.5 <= row.ratio <= 2.0 for row in rows)
    q2 = rows[1]
    expected = (16 / 14) ** -0.5 * math.sqrt(18 / 16)
    assert expected == pytest.approx(0.9921567416)
    assert abs(q2.ratio - expected) <= 3 * q2.ratio_stderr
    with pytest.raises(ValueError):
        negative_moment_ratios(make_body("cube", 4), 1000, key)


def test_negative_moments_below_i2(key):
    body = make_body("cross", 16)
    rows = negative_moment_ratios(body, 50000, key.child(25))
    i2 = moment(body, 2.0, 50000, key.child(26))
    for row in rows:
        combined = math.hypot(row.estimate.stderr, i2.stderr)
        assert row.estimate.value <= i2.value + 3 * combined


def test_centroid_width_band_and_guards(key):
    body = make_body("cube", 16)
    report = centroid_width_check(body, 8, 2, 64, 20000, key.child(27))
    assert np.all((report.ratios >= 1 / 3) & (report.ratios <= 3.0))
    assert 1 / 3 <= report.grassmann_neg_ratio <= 3.0
    with pytest.raises(ValueError, match="hypothesis violated"):
        centroid_width_check(body, 8, 8, 16, 1000, key)
    with pytest.raises(ValueError, match="variance-unsafe"):
        centroid_width_check(body, 8, 4, 16, 1000, key)  # (k-1)/2 = 3.5
    with pytest.raises(ValueError):
        centroid_width_check(body, 8, 2.5, 16, 1000, key)


def test_centroid_width_ratio_distribution_stable(key):
    # Haar invariance: two independent draws of the per-subspace ratios are
    # samples of one distribution
    body = make_body("cube", 12)
    a = centroid_width_check(body, 6, 2, 48, 10000, key.child(28)).ratios
    b = centroid_width_check(body, 6, 2, 48, 10000, key.child(29)).ratios
    assert ks_2samp(a, b).pvalue > 0.01
