import math

import numpy as np
import pytest

from semiflow.vecspace import (
    HARD_DIM_CAP,
    Ball,
    Box,
    _norm,
    _row_norms,
    as_point,
    combine,
    dist,
    max_dim,
    sym_eigendecompose,
)


def test_as_point_promotes_scalars_and_is_read_only():
    p = as_point(3.0)
    assert p.shape == (1,)
    assert p[0] == 3.0
    with pytest.raises(ValueError):
        p[0] = 1.0


def test_as_point_rejects_bad_input():
    with pytest.raises(ValueError):
        as_point([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_point([])
    with pytest.raises(ValueError):
        as_point([1.0, np.nan])
    with pytest.raises(ValueError):
        as_point(np.zeros(HARD_DIM_CAP + 1))
    as_point(np.zeros(HARD_DIM_CAP))  # the cap itself is fine


def test_env_var_lowers_but_never_raises_cap(monkeypatch):
    monkeypatch.setenv("SEMIFLOW_MAX_DIM", "4")
    assert max_dim() == 4
    with pytest.raises(ValueError):
        as_point(np.zeros(5))
    monkeypatch.setenv("SEMIFLOW_MAX_DIM", "500")
    assert max_dim() == HARD_DIM_CAP
    monkeypatch.setenv("SEMIFLOW_MAX_DIM", "zero")
    with pytest.raises(ValueError):
        max_dim()
    monkeypatch.setenv("SEMIFLOW_MAX_DIM", "0")
    with pytest.raises(ValueError):
        max_dim()


def test_combine_frozen_example():
    out = combine([0.25, 0.25, 0.5], [[4.0, 0.0], [0.0, 4.0], [1.0, 1.0]])
    assert np.allclose(out, [1.5, 1.5], atol=0, rtol=0)


def test_combine_validates_weights_and_shapes():
    with pytest.raises(ValueError):
        combine([0.5, 0.6], [[1.0], [2.0]])  # sums to 1.1
    with pytest.raises(ValueError):
        combine([1.0], [[1.0], [2.0]])  # one weight, two points
    with pytest.raises(ValueError):
        combine([0.5, 0.5], [[1.0], [2.0, 3.0]])  # dimension mismatch
    # tiny slack around 1 is allowed
    combine([0.5, 0.5 + 5e-13], [[1.0], [2.0]])


def test_dist_examples_and_triangle_inequality():
    assert dist([0.0, 0.0], [3.0, 4.0]) == 5.0
    rng = np.random.default_rng(11)
    for _ in range(200):
        d = int(rng.integers(1, 9))
        a, b, c = rng.normal(size=(3, d))
        assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-12


def test_row_norms_are_the_row_norms_bit_for_bit():
    rng = np.random.default_rng(8)
    for d in (1, 2, 3, 4, 6, 16, 64):
        ys = rng.normal(scale=10.0 ** rng.integers(-8, 8, size=(300, 1)), size=(300, d))
        assert _row_norms(ys).tolist() == [_norm(y) for y in ys], d


def test_ball_membership_and_projection():
    ball = Ball([1.0, 0.0], 2.0)
    assert ball.contains([2.9, 0.0])
    assert not ball.contains([3.1, 0.0])
    assert ball.contains([3.1, 0.0], slack=0.2)
    assert ball.exterior_distance([4.0, 0.0]) == pytest.approx(1.0)
    # an interior point is returned itself
    inside = np.array([1.7, -0.3])
    assert ball.project(inside) is inside
    out = ball.project([5.0, 0.0])
    assert np.allclose(out, [3.0, 0.0])
    # points so far out that the sum of squares of their offset overflows, as
    # points and as rows: numpy warns of the overflow, and each norm is taken
    # again rescaled, so they land on the sphere at their true distance
    far = np.array([[1e200, 0.0], [0.0, -3e300], [2.0, 1.0]])
    with pytest.warns(RuntimeWarning, match="overflow"):
        points = [ball.project(x) for x in far]
        assert [ball.exterior_distance(x) for x in far] == [1e200, 3e300, 0.0]
        assert ball.exterior_distance(far).tolist() == [1e200, 3e300, 0.0]
        rows = ball.project(far.copy())
    assert np.allclose(points, [[3.0, 0.0], [1.0, -2.0], [2.0, 1.0]], rtol=1e-15, atol=0.0)
    assert rows.tobytes() == np.array(points).tobytes()
    with pytest.raises(ValueError):
        Ball([0.0], 0.0)


def test_box_membership_and_projection():
    box = Box([0.0, 0.0], [1.0, 2.0])
    assert box.contains([0.5, 1.5])
    assert box.exterior_distance([2.0, 3.0]) == pytest.approx(np.hypot(1.0, 1.0))
    assert np.allclose(box.project([-1.0, 5.0]), [0.0, 2.0])
    with pytest.raises(ValueError):
        Box([0.0, 0.0], [1.0, 0.0])


def test_projection_is_nonexpansive():
    rng = np.random.default_rng(5)
    ball = Ball(rng.normal(size=3), 1.5)
    box = Box([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
    for domain in (ball, box):
        for _ in range(200):
            x, y = rng.normal(scale=3.0, size=(2, 3))
            assert dist(domain.project(x), domain.project(y)) <= dist(x, y) + 1e-12


def test_projection_of_rows_is_each_rows_projection_in_place():
    # project takes a point or a (B, d) array of rows: each row is projected
    # in place, with the bits that projecting it alone as a point gives;
    # rows inside, moved, on the shells R(1 + k eps), |k| <= 8, and NaN
    rng = np.random.default_rng(37)
    eps = np.finfo(float).eps
    for d in (1, 2, 3, 16, 64):
        center, radius = rng.normal(size=d), 0.37
        k = rng.integers(-8, 9, size=(300, 1)) * eps
        scales = np.concatenate([rng.uniform(0.0, 1.0, (100, 1)), rng.uniform(1.0, 3.0, (100, 1)), 1.0 + k])
        g = rng.normal(size=(scales.size, d))
        ball_rows = center + radius * scales * g / np.linalg.norm(g, axis=1, keepdims=True)
        # a box's rows: inside, anywhere, and on its faces, each coordinate at a bound times (1 + k eps)
        lower, upper = center - radius, center + radius
        u = np.concatenate([rng.uniform(0.0, 1.0, (100, d)), rng.uniform(-0.5, 1.5, (100, d))])
        faces = np.where(rng.uniform(size=(300, d)) < 0.5, lower, upper)
        box_rows = np.concatenate([lower + u * (upper - lower), faces * (1.0 + rng.integers(-8, 9, (300, d)) * eps)])
        for dom, rows in ((Ball(center, radius), ball_rows), (Box(lower, upper), box_rows)):
            rows[0, -1] = math.nan
            before = rows.copy()
            points = [dom.project(row) for row in rows]
            assert rows.tobytes() == before.tobytes()  # a point is never written to
            moved = sum(not np.array_equal(p, row) for p, row in zip(points[1:], rows[1:]))
            assert 0 < moved < len(rows) - 1, (type(dom).__name__, d)
            ys = rows.copy()
            assert dom.project(ys) is ys
            assert ys.tobytes() == np.array(points).tobytes(), (type(dom).__name__, d)
            assert np.isnan(ys[0]).all() if isinstance(dom, Ball) else np.isnan(ys[0, -1])
        # a ball returns an inside point itself, and any other as a new array
        ball = Ball(center, radius)
        for row in ball_rows:
            assert (ball.project(row) is row) == (_norm(row - center) <= radius)


# ---- symmetric eigensolver -----------------------------------------------------

def test_eigendecompose_frozen_2x2():
    w, v = sym_eigendecompose([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(w, [1.0, 3.0], atol=1e-12)
    # eigenvector of eigenvalue 3 is (1,1)/sqrt(2) up to sign
    assert abs(abs(v[:, 1] @ (np.ones(2) / np.sqrt(2))) - 1.0) < 1e-12


def test_eigendecompose_diagonal_is_exact():
    w, v = sym_eigendecompose(np.diag([0.0, 1.0]))
    assert w.tolist() == [0.0, 1.0]
    assert np.array_equal(v, np.eye(2))


def test_eigendecompose_matches_lapack_oracle():
    rng = np.random.default_rng(17)
    for d in (1, 2, 3, 5, 8, 13, 21, 34):
        g = rng.normal(size=(d, d))
        a = 0.5 * (g + g.T)
        w, v = sym_eigendecompose(a)
        w_ref = np.linalg.eigvalsh(a)
        assert np.allclose(w, w_ref, atol=1e-10 * max(1.0, np.abs(a).max()))
        # ascending order, orthonormal columns, and A V = V diag(w)
        assert np.all(np.diff(w) >= -1e-12)
        assert np.allclose(v.T @ v, np.eye(d), atol=1e-12)
        assert np.abs(a @ v - v * w).max() <= 1e-10 * max(1.0, np.abs(a).max())


def test_eigendecompose_rejects_bad_matrices():
    with pytest.raises(ValueError):
        sym_eigendecompose([[0.0, 1.0], [0.0, 0.0]])  # not symmetric
    with pytest.raises(ValueError):
        sym_eigendecompose(np.ones((2, 3)))
    with pytest.raises(ValueError):
        sym_eigendecompose(np.zeros((HARD_DIM_CAP + 1, HARD_DIM_CAP + 1)))
    with pytest.raises(ValueError):
        sym_eigendecompose([[np.inf]])
