import math
import re
import warnings

import numpy as np
import pytest

from semiflow.semigroups import (
    ORBIT_BLOCK,
    _checker,
    _compile,
    _interior_radius,
    _kernel,
    _pair_kernel,
    analytic_fixed_set,
    decay,
    evaluate,
    fixed_set_distance,
    from_descriptor,
    heat,
    operator,
    orbit,
    orbit_operator,
    pair_operator,
    rotation,
)
from semiflow import vecspace
from semiflow.characterize import default_profile_grid

SQRT2 = math.sqrt(2.0)


def builtin_specs():
    """One representative of each flow family, at small dimension."""
    return [
        rotation(center=(0.0, 0.0), period=1.0),
        decay(dim=2),
        heat(np.diag([0.0, 1.0])),
    ]


def sample_inside(spec, rng, n):
    dom = spec.domain
    if hasattr(dom, "radius"):
        g = rng.normal(size=(n, dom.dim))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        r = dom.radius * rng.uniform(size=(n, 1)) ** (1.0 / dom.dim)
        return dom.center + r * g
    return rng.uniform(dom.lower, dom.upper, size=(n, dom.dim))


# ---- frozen single-step values ---------------------------------------------------

def test_rotation_quarter_turn():
    spec = rotation(center=(0.0, 0.0), period=1.0)
    out = evaluate(spec, 0.25, np.array([1.0, 0.0]))
    assert np.allclose(out, [0.0, 1.0], atol=1e-15)


def test_rotation_offcenter_and_embedded_dims():
    spec = rotation(center=(1.0, 1.0), period=2.0, dim=3)
    out = evaluate(spec, 1.0, np.array([2.0, 1.0, 0.5]))  # half turn about (1,1)
    assert np.allclose(out, [0.0, 1.0, 0.5], atol=1e-15)


def test_decay_shifts_toward_zero():
    spec = decay(dim=1)
    assert evaluate(spec, 1.5, np.array([2.0]))[0] == 0.5
    assert evaluate(spec, 3.0, np.array([2.0]))[0] == 0.0


def test_heat_diag_halves_in_log2_time():
    spec = heat(np.diag([0.0, 1.0]))
    out = evaluate(spec, math.log(2.0), np.array([1.0, 1.0]))
    assert out[0] == pytest.approx(1.0, abs=1e-15)
    assert out[1] == pytest.approx(0.5, rel=1e-15)


def test_time_zero_is_identity_bitwise():
    rng = np.random.default_rng(0)
    for spec in builtin_specs():
        for x in sample_inside(spec, rng, 20):
            assert np.array_equal(evaluate(spec, 0.0, x), x)


@pytest.mark.parametrize("spec", builtin_specs(), ids=lambda s: s.kind)
def test_time_zero_returns_a_new_array(spec):
    identity = operator(spec, 0.0)
    for x in (sample_inside(spec, np.random.default_rng(8), 3), np.array([0.5, 0.25])):
        before = x.copy()
        y = identity(x)
        assert y is not x and not np.shares_memory(y, x)
        y[...] = 7.0
        assert np.array_equal(x, before)


# ---- family laws ------------------------------------------------------------------

def law_specs():
    """builtin_specs(), then an off-center d=3 rotation, decay:dim=3 and the
    heat flow of the 4-node path Laplacian."""
    path4 = np.diag([1.0, 2.0, 2.0, 1.0]) - np.eye(4, k=1) - np.eye(4, k=-1)
    return [
        *builtin_specs(),
        rotation(center=(0.5, -0.25), period=1.3, dim=3, radius=5.0),
        decay(dim=3),
        heat(path4),
    ]


def test_composition_law():
    rng = np.random.default_rng(1)
    for spec in law_specs():
        pts = sample_inside(spec, rng, 200)
        ts = rng.uniform(0.0, 3.0, size=(200, 2))
        for x, (s, t) in zip(pts, ts):
            once = evaluate(spec, s + t, x)
            twice = evaluate(spec, s, evaluate(spec, t, x))
            assert np.linalg.norm(once - twice) <= 1e-9
        # the rows form: all 200 points as one (B, d) array per pair of times
        for s, t in ts[:20]:
            once = operator(spec, s + t)(pts)
            twice = operator(spec, s)(operator(spec, t)(pts))
            assert np.linalg.norm(once - twice, axis=1).max() <= 1e-9, spec.kind


def test_nonexpansiveness():
    rng = np.random.default_rng(2)
    for spec in law_specs():
        pts = sample_inside(spec, rng, 400).reshape(200, 2, -1)
        ts = rng.uniform(0.0, 5.0, size=200)
        for (x, y), t in zip(pts, ts):
            lhs = np.linalg.norm(evaluate(spec, t, x) - evaluate(spec, t, y))
            assert lhs <= np.linalg.norm(x - y) + 1e-9
        # the rows form: the 200 first and the 200 second points as two (B, d) arrays
        xs, ys = pts[:, 0], pts[:, 1]
        for t in ts[:20]:
            apply = operator(spec, t)
            lhs = np.linalg.norm(apply(xs) - apply(ys), axis=1)
            assert (lhs <= np.linalg.norm(xs - ys, axis=1) + 1e-9).all(), spec.kind


def test_time_continuity_small_increments():
    # ||T(t+h)x - T(t)x|| is O(h) with an explicit per-family constant:
    # rotation 2*pi*r/period, decay sqrt(d), heat lambda_max * radius
    h = 1e-4
    rng = np.random.default_rng(3)
    bounds = [2.0 * math.pi * 10.0, math.sqrt(2.0), 1.0 * 10.0]
    for spec, lip in zip(builtin_specs(), bounds):
        for x in sample_inside(spec, rng, 50):
            t = float(rng.uniform(0.0, 3.0))
            gap = np.linalg.norm(evaluate(spec, t + h, x) - evaluate(spec, t, x))
            assert gap <= lip * h * (1.0 + 1e-6) + 1e-12


def test_iterates_stay_in_domain():
    rng = np.random.default_rng(4)
    for spec in builtin_specs():
        for x in sample_inside(spec, rng, 20):
            y = x
            for _ in range(10):
                y = evaluate(spec, 0.7, y)
                assert spec.domain.contains(y, slack=1e-12)


def test_evaluate_rejects_bad_input():
    spec = decay(dim=2)
    with pytest.raises(ValueError):
        evaluate(spec, -0.1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        evaluate(spec, math.nan, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        evaluate(spec, 1.0, np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        evaluate(spec, 1.0, np.array([20.0, 1.0]))  # far outside the box


def evaluate_per_call(spec, t, x):
    """T(t)x with every t-dependent value recomputed and numpy.linalg.norm
    in the membership check and the projection: the bitwise reference for
    the compiled operators."""
    dom = spec.domain
    x = np.asarray(x, dtype=float)
    if hasattr(dom, "radius"):
        outside = max(0.0, float(np.linalg.norm(x - dom.center)) - dom.radius)
    else:
        outside = float(np.linalg.norm(np.clip(x, dom.lower, dom.upper) - x))
    assert outside <= 1e-9
    if t == 0.0:
        y = x
    elif spec.kind == "rotation":
        angle = 2.0 * math.pi * t / spec.period
        c, s = math.cos(angle), math.sin(angle)
        dx, dy = x[0] - spec.center[0], x[1] - spec.center[1]
        y = x.copy()
        y[0] = spec.center[0] + c * dx - s * dy
        y[1] = spec.center[1] + s * dx + c * dy
    elif spec.kind == "decay":
        y = np.maximum(x - t, 0.0)
    else:
        y = spec.eigvecs @ (np.exp(-t * spec.eigvals) * (spec.eigvecs.T @ x))
    if hasattr(dom, "radius"):
        nrm = float(np.linalg.norm(y - dom.center))
        return y if nrm <= dom.radius else dom.center + (y - dom.center) * (dom.radius / nrm)
    return np.clip(y, dom.lower, dom.upper)


def compiled_operator_specs():
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    return [
        rotation(center=(0.5, -0.25), period=1.0),
        rotation(center=(0.0, 1.0), period=1.7, dim=3),
        decay(dim=3),
        heat((q * [0.0, 0.4, 1.3, 2.2]) @ q.T),  # non-diagonal, one-dimensional kernel
    ]


def test_operator_is_bitwise_the_per_call_evaluator():
    rng = np.random.default_rng(5)
    for spec in compiled_operator_specs():
        dom = spec.domain
        points = list(sample_inside(spec, rng, 8))
        # just outside the domain, within the membership slack
        if hasattr(dom, "radius"):
            for g in rng.normal(size=(3, dom.dim)):
                points.append(dom.center + (dom.radius + 5e-10) * g / np.linalg.norm(g))
        else:
            for i in range(dom.dim):
                points.append(np.where(np.arange(dom.dim) == i, dom.upper + 5e-10, 0.5 * dom.upper))
            points.append(dom.lower - 3e-10)
        for t in (0.0, 1.0, SQRT2, 7.3):
            apply = operator(spec, t)
            for x in points:
                expected = evaluate_per_call(spec, t, x)
                assert np.array_equal(apply(x), expected), (spec.kind, t)
                assert np.array_equal(evaluate(spec, t, x), expected), (spec.kind, t)


def test_rotation_point_step_is_the_numpy_scalar_formula():
    # rows steps a (d,) point on Python floats, the same IEEE
    # operations as the formula on numpy float64 scalars
    rng = np.random.default_rng(13)
    for spec in (rotation(center=(0.5, -0.25), period=1.0), rotation(center=(-3.1, 7.7), period=1.7, dim=3)):
        cx, cy = spec.center
        for t in (1.0, SQRT2, 7.3):
            angle = 2.0 * math.pi * t / spec.period
            c, s = math.cos(angle), math.sin(angle)
            rows = _compile(spec, t)[1]
            for x in rng.uniform(-40.0, 40.0, size=(5000, spec.dim)):
                dx, dy = x[0] - cx, x[1] - cy
                expected = np.array([cx + c * dx - s * dy, cy + s * dx + c * dy, *x[2:]])
                y = rows(x)
                assert y.shape == x.shape and y.tobytes() == expected.tobytes(), (t, x)


def test_operator_keeps_the_evaluate_errors():
    for spec in (decay(dim=2), rotation(period=1.0)):
        inside, far = np.array([1.0, 1.0]), np.array([20.0, 1.0])
        for t in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"^time must be finite and nonnegative, got"):
                operator(spec, t)
            with pytest.raises(ValueError, match=r"^time must be finite and nonnegative, got"):
                evaluate(spec, t, inside)
            with pytest.raises(ValueError, match=rf"^time must be finite and nonnegative, got {t}$"):
                orbit(spec, [0.0, 1.0, t, 2.0], inside)
        for apply in (operator(spec, 1.0), lambda x: evaluate(spec, 1.0, x), lambda x: orbit(spec, [0.0, 1.0], x)):
            with pytest.raises(ValueError, match=r"^point has shape \(3,\), semigroup expects \(2,\)$"):
                apply(np.array([1.0, 1.0, 1.0]))
            with pytest.raises(ValueError, match=r"^point lies outside the domain beyond the membership slack$"):
                apply(far)
            # a NaN coordinate has no distance to the domain and is never inside it
            for bad in (np.array([math.nan, 1.0]), np.array([1.0, math.nan])):
                with pytest.raises(ValueError, match=r"^point lies outside the domain beyond the membership slack$"):
                    apply(bad)


def orbit_points(spec, rng):
    """Interior points, points on the boundary, and points just outside
    the domain within the membership slack."""
    dom = spec.domain
    points = list(sample_inside(spec, rng, 4))
    if hasattr(dom, "radius"):
        for gap in (0.0, 0.0, 5e-10, 5e-10):
            g = rng.normal(size=dom.dim)
            points.append(dom.center + (dom.radius + gap) * g / np.linalg.norm(g))
    else:
        points.append(np.where(np.arange(dom.dim) == 0, dom.upper, 0.5 * dom.upper))
        points.append(dom.lower.copy())
        points.append(np.where(np.arange(dom.dim) == 1, dom.upper + 5e-10, 0.5 * dom.upper))
        points.append(dom.lower - 3e-10)
    return points


def test_orbit_rows_match_the_compiled_operator():
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.normal(size=(64, 64)))
    w = np.concatenate([np.zeros(4), rng.uniform(0.5, 4.0, 60)])
    specs = compiled_operator_specs() + [heat((q * w) @ q.T)]  # non-diagonal d=64, 4-D kernel
    times = np.concatenate([default_profile_grid(1.0, SQRT2), [0.0, 7.3]])
    zero = times == 0.0
    for spec in specs:
        for i, x in enumerate(orbit_points(spec, rng)):
            rows = orbit(spec, times, x)
            assert rows.shape == (times.size, spec.dim)
            assert rows.tobytes() == orbit(spec, times, x).tobytes()
            expected = np.array([operator(spec, t)(x) for t in times])
            if spec.kind == "decay":
                assert np.array_equal(rows, expected)
            else:
                assert np.abs(rows - expected).max() <= 1e-12, spec.kind
            assert np.array_equal(rows[zero], expected[zero])
            if i < 4:  # interior points: T(0)x is x itself
                assert np.array_equal(rows[zero], np.tile(x, (2, 1)))


def non_diagonal_heat(rng, w):
    q, _ = np.linalg.qr(rng.normal(size=(len(w), len(w))))
    return heat((q * w) @ q.T)


def test_operator_rows_match_the_single_point_operator():
    rng = np.random.default_rng(21)
    specs = [
        rotation(center=(0.5, -0.25), period=1.0),
        rotation(center=(0.0, 1.0), period=1.7, dim=3),
        decay(dim=3),
        non_diagonal_heat(rng, [0.0, 0.0, 0.4, 1.3, 2.2, 3.0]),
        non_diagonal_heat(rng, np.concatenate([np.zeros(4), rng.uniform(0.5, 4.0, 60)])),
    ]
    for spec in specs:
        xs = np.array(orbit_points(spec, rng))
        before = xs.tobytes()
        for t in (0.0, 1.0, SQRT2, 7.3):
            apply = operator(spec, t)
            rows = apply(xs)
            assert rows.shape == xs.shape and not np.shares_memory(rows, xs)
            assert xs.tobytes() == before, (spec.kind, t)
            expected = np.array([apply(x) for x in xs])
            if spec.kind == "heat" and t > 0.0:
                assert np.abs(rows - expected).max() <= 1e-12, t
            else:
                assert np.array_equal(rows, expected), (spec.kind, t)
            assert rows.tobytes() == apply(xs).tobytes()
        # T(0) of interior rows is a copy of them
        assert np.array_equal(operator(spec, 0.0)(xs[:4]), xs[:4])


def test_operator_rows_keep_the_point_errors():
    for spec in (decay(dim=2), rotation(period=1.0)):
        inside, far = [1.0, 1.0], [20.0, 1.0]
        for t in (0.0, 1.0):
            apply = operator(spec, t)
            with pytest.raises(ValueError, match=r"^point has shape \(3,\), semigroup expects \(2,\)$"):
                apply(np.ones((2, 3)))
            with pytest.raises(ValueError, match=r"^point has shape \(1, 2, 2\), semigroup expects \(2,\)$"):
                apply(np.ones((1, 2, 2)))
            for bad in (far, [math.nan, 1.0], [1.0, math.nan]):
                xs = np.array([inside, bad, inside])
                with pytest.raises(ValueError, match=r"^point lies outside the domain beyond the membership slack$"):
                    apply(xs)
    # orbit() takes one point, never rows
    with pytest.raises(ValueError, match=r"^point has shape \(2, 2\), semigroup expects \(2,\)$"):
        orbit(decay(dim=2), [0.0, 1.0], np.ones((2, 2)))


def test_exterior_distance_of_rows_is_each_point_distance():
    rng = np.random.default_rng(29)
    for spec in (rotation(center=(0.5, -0.25), period=1.0, dim=3, radius=2.0), decay(dim=3, box_max=2.0)):
        dom = spec.domain
        xs = rng.uniform(-4.0, 4.0, size=(64, 3))  # inside and outside
        if hasattr(dom, "radius"):
            by_point = [max(vecspace._norm(x - dom.center) - dom.radius, 0.0) for x in xs]
        else:
            by_point = [vecspace._norm(np.clip(x, dom.lower, dom.upper) - x) for x in xs]
        assert dom.exterior_distance(xs).tobytes() == np.array(by_point).tobytes(), spec.kind
        assert [float(dom.exterior_distance(x)) for x in xs] == by_point, spec.kind
        # a NaN row has a NaN distance, which the check rejects
        check = _checker(spec)
        inside = np.full((3, 3), 0.5)
        check(inside)
        inside[1, 2] = math.nan
        assert np.isnan(dom.exterior_distance(inside)[1])
        with pytest.raises(ValueError, match=r"^point lies outside the domain beyond the membership slack$"):
            check(inside)


def test_pair_operator_is_two_operator_calls_checked_once(monkeypatch):
    rng = np.random.default_rng(17)
    specs = [
        rotation(center=(0.5, -0.25), period=1.0),
        rotation(center=(0.0, 1.0), period=1.7, dim=3),
        decay(dim=3),
        non_diagonal_heat(rng, [0.0, 0.0, 0.4, 1.3, 2.2, 3.0]),  # 2-D kernel
    ]
    for spec in specs:
        points = orbit_points(spec, rng)
        xs = np.array(points)
        before = xs.tobytes()
        for alpha, beta in ((1.0, SQRT2), (0.3, 7.3)):
            op_pair, op_alpha, op_beta = pair_operator(spec, alpha, beta), operator(spec, alpha), operator(spec, beta)
            for x in [*points, xs]:
                ta, tb = op_pair(x)
                assert ta.tobytes() == op_alpha(x).tobytes(), (spec.kind, alpha, x.shape)
                assert tb.tobytes() == op_beta(x).tobytes(), (spec.kind, beta, x.shape)
            assert xs.tobytes() == before, spec.kind
    # every image is projected through the domain's project, looked up at call time
    calls = []
    project = vecspace.Ball.project

    def counted(self, x):
        calls.append(x.shape)
        return project(self, x)

    spec = rotation(period=1.0)
    op_pair = pair_operator(spec, 1.0, SQRT2)
    monkeypatch.setattr(vecspace.Ball, "project", counted)
    for n in range(1, 4):
        op_pair(np.array([1.0, 2.0]))
        assert calls == [(2,)] * (2 * n)


def test_pair_operator_keeps_the_operator_errors():
    for spec in (decay(dim=2), rotation(period=1.0)):
        op_pair, apply = pair_operator(spec, 1.0, SQRT2), operator(spec, 1.0)
        bad = (
            np.array([1.0, 1.0, 1.0]),
            np.array([20.0, 1.0]),
            np.array([math.nan, 1.0]),
            np.ones((2, 3)),
            np.array([[1.0, 1.0], [1.0, math.nan]]),
        )
        for x in bad:
            with pytest.raises(ValueError) as expected:
                apply(x)
            with pytest.raises(ValueError, match=rf"^{re.escape(str(expected.value))}$"):
                op_pair(x)
        for t in (0.0, -0.5, math.nan, math.inf):
            for alpha, beta in ((t, SQRT2), (1.0, t)):
                with pytest.raises(ValueError, match=r"^time must be positive and finite, got"):
                    pair_operator(spec, alpha, beta)


def test_a_rotation_time_whose_angle_overflows_is_rejected_by_name():
    # 2 pi t / period overflows from t = 2.87e307 at period 1, and from t = 1 at
    # period 1e-320; the check comes before any product, so numpy warns of nothing
    spec, tiny = rotation(period=1.0), rotation(period=1e-320)
    x = np.array([1.0, 0.0])
    times = np.r_[np.ones(3000), 5e307, 1e308]  # the first bad time is in the second block
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build, t, period in ((lambda: operator(spec, 1e308), "1e+308", "1.0"),
                                 (lambda: pair_operator(spec, 1.0, 1e308), "1e+308", "1.0"),
                                 (lambda: pair_operator(tiny, 1.0, SQRT2), "1.0", "1e-320"),
                                 (lambda: orbit(spec, times, x), "5e+307", "1.0"),
                                 (lambda: orbit(tiny, [0.0, 2.0], x), "2.0", "1e-320")):
            with pytest.raises(ValueError, match=rf"^rotation time {re.escape(t)}: .* period={re.escape(period)}$"):
                build()
        # the largest time whose angle is finite still turns the point
        top = math.nextafter(math.inf, 0.0) / (2.0 * math.pi)
        while math.isinf(2.0 * math.pi * top):
            top = math.nextafter(top, 0.0)
        assert np.isfinite(operator(spec, top)(x)).all()
        assert np.isfinite(orbit(spec, [0.0, top], x)).all()


def test_kernels_are_the_public_callables_without_the_check(monkeypatch):
    rng = np.random.default_rng(23)
    for spec in compiled_operator_specs():
        points = orbit_points(spec, rng)
        xs = np.array(points)
        before = xs.tobytes()
        for t in (0.0, 0.3, 1.0, SQRT2, 7.3):
            kernel, apply = _kernel(spec, t), operator(spec, t)
            for x in [*points, xs]:
                assert kernel(x).tobytes() == apply(x).tobytes(), (spec.kind, t, x.shape)
            assert not np.shares_memory(kernel(xs), xs)
        for alpha, beta in ((1.0, SQRT2), (0.3, 7.3)):
            kernel, apply = _pair_kernel(spec, alpha, beta), pair_operator(spec, alpha, beta)
            for x in [*points, xs]:
                got, expected = kernel(x), apply(x)
                assert [y.tobytes() for y in got] == [y.tobytes() for y in expected], (spec.kind, x.shape)
        assert xs.tobytes() == before, spec.kind
        # every image is projected through the domain object, looked up at call time
        calls = []
        original = type(spec.domain).project

        def counted(self, y, original=original):
            calls.append(y.ndim)
            return original(self, y)

        monkeypatch.setattr(type(spec.domain), "project", counted)
        kernel, pair = _kernel(spec, 1.0), _pair_kernel(spec, 1.0, SQRT2)
        for x in (points[0], xs):
            kernel(x)
            pair(x)
        assert calls == [1] * 3 + [2] * 3, spec.kind
        monkeypatch.undo()


def test_a_wide_ball_takes_norms_that_overflow_rescaled():
    # on a ball of radius 1e160 the sum of squares of an offset of 1e155
    # overflows: the point is still inside, its image is not projected, and no
    # overflow is warned of; far outside, a projection lands on the sphere
    spec = rotation(radius=1e160)
    x = np.array([1e155, 0.0])
    image = _compile(spec, 0.25)[1](x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert evaluate(spec, 0.25, x).tobytes() == image.tobytes()
        assert _kernel(spec, 0.25)(x).tobytes() == image.tobytes()
        ball = spec.domain
        assert ball.exterior_distance(x) == 0.0
        assert ball.exterior_distance(np.array([[0.0, 3e160], [1.0, 2.0], x])).tolist() == [3e160 - 1e160, 0.0, 0.0]
        assert np.allclose(ball.project(np.array([3e160, -4e160])), [6e159, -8e159], rtol=1e-15, atol=0.0)
        rows = ball.project(np.array([[3e160, -4e160], x, [0.0, 0.0]]))
        assert np.allclose(rows[0], [6e159, -8e159], rtol=1e-15, atol=0.0)
        assert rows[1:].tolist() == [[1e155, 0.0], [0.0, 0.0]]
    # a finite sum of squares keeps its bits
    offsets = 1e150 * np.random.default_rng(60).normal(size=(50, 2))
    assert ball._norms(offsets).tolist() == vecspace._row_norms(offsets).tolist()
    assert [ball._norms(o) for o in offsets] == [vecspace._norm(o) for o in offsets]


def test_a_ball_has_an_interior_test_by_radius_exactly_when_it_is_not_wide():
    # _interior_radius gives a ball a test for 2^-500 <= R <= vecspace.WIDE_RADIUS = 2^500:
    # finite at both bounds, NaN one double past either, and wide one double above 2^500
    top = vecspace.WIDE_RADIUS
    for radius, inside in ((top, True), (math.nextafter(top, math.inf), False),
                           (2.0 ** -500, True), (math.nextafter(2.0 ** -500, 0.0), False)):
        ball = rotation(radius=radius).domain
        assert math.isfinite(_interior_radius(ball)) == inside, radius
        assert ball.wide == (radius > top), radius
    assert top == 2.0 ** 500


def one_pass_orbit(spec, times, x):
    """orbit() as a single pass that compiles each block of times where it
    applies it: the form that orbit_operator() splits into compile and
    apply."""
    t = np.asarray(times, dtype=float).ravel()
    out = np.empty((t.size, spec.dim))
    step = ORBIT_BLOCK // spec.dim
    lifted = None
    for lo in range(0, t.size, step):
        lift, rows, _ = _compile(spec, t[lo:lo + step, None])
        if lifted is None:
            lifted = lift(x)
        spec.domain.project(rows(lifted, out=out[lo:lo + step]))
    out[t == 0.0] = operator(spec, 0.0)(x)
    return out


def test_orbit_operator_is_the_one_pass_orbit_and_checks_every_point():
    rng = np.random.default_rng(9)
    specs = compiled_operator_specs() + [
        non_diagonal_heat(rng, np.concatenate([np.zeros(4), rng.uniform(0.5, 4.0, 60)]))
    ]
    times = np.concatenate([default_profile_grid(1.0, SQRT2), [0.0, 7.3]])
    for spec in specs:
        given = times.copy()
        apply = orbit_operator(spec, given)
        given[:] = 1.0  # the times were copied when compiled
        inside = np.full(spec.dim, 0.5)
        for x in orbit_points(spec, rng) + [inside]:
            rows = apply(x)
            assert rows.tobytes() == one_pass_orbit(spec, times, x).tobytes(), spec.kind
            assert rows.tobytes() == orbit(spec, times, x).tobytes(), spec.kind
        # a later call is checked as the first one was
        for bad in (np.where(np.arange(spec.dim) == 0, math.nan, 0.5), np.full(spec.dim, 20.0)):
            with pytest.raises(ValueError, match=r"^point lies outside the domain beyond the membership slack$"):
                apply(bad)
        with pytest.raises(ValueError, match=rf"^point has shape \(2, {spec.dim}\), semigroup expects \({spec.dim},\)$"):
            apply(np.tile(inside, (2, 1)))
        assert apply(inside).tobytes() == one_pass_orbit(spec, times, inside).tobytes()
    with pytest.raises(ValueError, match=r"^time must be finite and nonnegative, got -1.0$"):
        orbit_operator(decay(dim=2), [0.0, -1.0])
    assert orbit_operator(decay(dim=2), [])(np.ones(2)).shape == (0, 2)


# ---- analytic fixed sets ----------------------------------------------------------

def test_fixed_sets_have_zero_residual_on_a_time_grid():
    grid = np.arange(0.0, 5.0 + 1e-9, 0.1)
    rng = np.random.default_rng(5)
    for spec in builtin_specs():
        fs = analytic_fixed_set(spec)
        # pick concrete members of the described set
        if fs.kind == "singleton":
            members = [fs.point]
        else:
            coeffs = rng.uniform(-1.0, 1.0, size=(5, fs.basis.shape[1]))
            members = [fs.basepoint + fs.basis @ c for c in coeffs]
        for z in members:
            for t in grid:
                assert np.linalg.norm(evaluate(spec, t, z) - z) <= 1e-10


def test_rotation_fixed_set_shapes():
    assert analytic_fixed_set(rotation()).kind == "singleton"
    fs = analytic_fixed_set(rotation(center=(2.0, 0.0), dim=4))
    assert fs.kind == "affine_subspace"
    assert fs.basis.shape == (4, 2)
    assert np.allclose(fs.basepoint, [2.0, 0.0, 0.0, 0.0])


def test_heat_fixed_set_is_kernel():
    fs = analytic_fixed_set(heat(np.diag([0.0, 0.0, 3.0])))
    assert fs.kind == "affine_subspace"
    assert fs.basis.shape == (3, 2)


def fixed_set_specs():
    """Fixed sets of every built-in shape: points, a line, a plane, heat kernels of 1, 2 and 0 columns."""
    rng = np.random.default_rng(6)
    return builtin_specs() + [
        rotation(center=(0.5, -0.25), dim=3),
        rotation(dim=4),
        non_diagonal_heat(rng, [0.0, 0.0, 0.5, 1.0]),
        heat(np.array([[2.0, -1.0], [-1.0, 2.0]])),
    ]


def test_fixed_set_bases_are_orthonormal_columns():
    for spec in fixed_set_specs():
        fs = analytic_fixed_set(spec)
        d, k = fs.basis.shape
        assert fs.basepoint.shape == (d,) and d == spec.dim
        assert np.abs(fs.basis.T @ fs.basis - np.eye(k)).max(initial=0.0) <= 1e-12
        assert fs.kind == ("affine_subspace" if k else "singleton")


def test_a_heat_flow_without_kernel_fixes_one_point():
    fs = analytic_fixed_set(heat(np.array([[2.0, -1.0], [-1.0, 2.0]])))
    assert fs.kind == "singleton" and fs.basis.shape == (2, 0)
    assert fs.point is fs.basepoint
    assert np.array_equal(fs.point, [0.0, 0.0])


def test_fixed_set_distance_is_the_residual_of_the_projection():
    rng = np.random.default_rng(7)
    for spec in fixed_set_specs():
        fs = analytic_fixed_set(spec)
        xs = sample_inside(spec, rng, 6)
        r = xs - fs.basepoint
        want = np.linalg.norm(r - (r @ fs.basis) @ fs.basis.T, axis=1)
        assert np.abs(fixed_set_distance(fs, xs) - want).max() <= 1e-12
        for x, w in zip(xs, want):
            assert abs(fixed_set_distance(fs, x) - w) <= 1e-12


def test_fixed_set_distance_values():
    fs = analytic_fixed_set(decay(dim=2))
    assert fixed_set_distance(fs, np.array([3.0, 4.0])) == pytest.approx(5.0)
    fs = analytic_fixed_set(heat(np.diag([0.0, 1.0])))
    # distance to the x-axis
    assert fixed_set_distance(fs, np.array([7.0, -2.0])) == pytest.approx(2.0)
    # rows give one distance each
    rng = np.random.default_rng(4)
    for spec in builtin_specs() + [rotation(dim=3), non_diagonal_heat(rng, [0.0, 0.0, 0.5, 1.0, 2.0, 3.0])]:
        fs = analytic_fixed_set(spec)
        xs = sample_inside(spec, rng, 5)
        dists = fixed_set_distance(fs, xs)
        assert dists.shape == (5,)
        assert np.abs(dists - [fixed_set_distance(fs, x) for x in xs]).max() <= 1e-12


def test_heat_spectrum_is_read_only():
    # compiled operators and cached profile plans hold on to these arrays
    spec = heat(np.diag([0.0, 1.0]))
    for array in (spec.eigvals, spec.eigvecs):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 2.0


def test_heat_rejects_indefinite_generator():
    with pytest.raises(ValueError):
        heat(np.diag([1.0, -0.5]))
    # tiny negative roundoff is clamped, not rejected
    spec = heat(np.diag([0.0, 1e-13]))
    assert spec.eigvals.min() == 0.0


# ---- descriptors ------------------------------------------------------------------

def test_descriptor_round_trips():
    spec = from_descriptor("rotation:period=2,center=1,1,radius=5,dim=3")
    assert spec.kind == "rotation"
    assert spec.period == 2.0
    assert spec.domain.radius == 5.0
    assert spec.dim == 3
    spec = from_descriptor("decay:dim=3,M=7")
    assert spec.domain.upper.tolist() == [7.0, 7.0, 7.0]


def test_descriptor_heat_reads_matrix(tmp_path):
    path = tmp_path / "gen.txt"
    np.savetxt(path, np.diag([0.0, 1.0]))
    spec = from_descriptor(f"heat:matrix={path},radius=3")
    assert spec.kind == "heat"
    assert spec.domain.radius == 3.0
    assert np.allclose(np.sort(spec.eigvals), [0.0, 1.0], atol=1e-12)


def test_descriptor_keys_left_out_take_the_constructor_defaults(tmp_path):
    spec, ref = from_descriptor("rotation:"), rotation()
    assert spec.center.tolist() == ref.center.tolist() and spec.period == ref.period
    assert spec.domain.radius == ref.domain.radius and spec.dim == ref.dim
    spec, ref = from_descriptor("decay:"), decay()
    assert spec.domain.lower.tolist() == ref.domain.lower.tolist()
    assert spec.domain.upper.tolist() == ref.domain.upper.tolist()
    path = tmp_path / "gen.txt"
    np.savetxt(path, np.diag([0.0, 1.0]))
    spec, ref = from_descriptor(f"heat:matrix={path}"), heat(np.diag([0.0, 1.0]))
    assert spec.domain.radius == ref.domain.radius


def test_descriptor_errors():
    with pytest.raises(ValueError):
        from_descriptor("swirl:period=1")
    with pytest.raises(ValueError):
        from_descriptor("rotation:period=1,bogus=2")
    with pytest.raises(ValueError):
        from_descriptor("rotation:period=1,period=2")
    with pytest.raises(ValueError):
        from_descriptor("heat:")  # matrix path is required
    with pytest.raises(ValueError):
        from_descriptor("decay:3")  # stray value without a key
    # an unknown key is reported before any value is read or found missing
    for text in ("rotation:period=abc,bogus=2", "decay:M=x,dim=2.5,spin=1", "heat:matrix=missing.txt,bogus=2",
                 "heat:bogus=2"):
        with pytest.raises(ValueError, match=r"^unknown semigroup parameters: \['(bogus|spin)'\]$"):
            from_descriptor(text)


def test_descriptor_heat_path_may_hold_a_comma_and_a_space(tmp_path):
    path = tmp_path / "m, 1.txt"
    np.savetxt(path, np.diag([0.0, 1.0]))
    spec = from_descriptor(f"heat:matrix={path},radius=3")
    assert spec.domain.radius == 3.0
    assert np.allclose(np.sort(spec.eigvals), [0.0, 1.0], atol=1e-12)
