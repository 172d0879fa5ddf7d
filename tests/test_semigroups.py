import math

import numpy as np
import pytest

from semiflow.semigroups import (
    analytic_fixed_set,
    decay,
    evaluate,
    fixed_set_distance,
    from_descriptor,
    heat,
    operator,
    rotation,
)

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


# ---- family laws ------------------------------------------------------------------

def test_composition_law():
    rng = np.random.default_rng(1)
    for spec in builtin_specs():
        pts = sample_inside(spec, rng, 200)
        ts = rng.uniform(0.0, 3.0, size=(200, 2))
        for x, (s, t) in zip(pts, ts):
            once = evaluate(spec, s + t, x)
            twice = evaluate(spec, s, evaluate(spec, t, x))
            assert np.linalg.norm(once - twice) <= 1e-9


def test_nonexpansiveness():
    rng = np.random.default_rng(2)
    for spec in builtin_specs():
        pts = sample_inside(spec, rng, 400).reshape(200, 2, -1)
        ts = rng.uniform(0.0, 5.0, size=200)
        for (x, y), t in zip(pts, ts):
            lhs = np.linalg.norm(evaluate(spec, t, x) - evaluate(spec, t, y))
            assert lhs <= np.linalg.norm(x - y) + 1e-9


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


def test_operator_keeps_the_evaluate_errors():
    for spec in (decay(dim=2), rotation(period=1.0)):
        inside, far = np.array([1.0, 1.0]), np.array([20.0, 1.0])
        for t in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"^time must be finite and nonnegative, got"):
                operator(spec, t)
            with pytest.raises(ValueError, match=r"^time must be finite and nonnegative, got"):
                evaluate(spec, t, inside)
        for apply in (operator(spec, 1.0), lambda x: evaluate(spec, 1.0, x)):
            with pytest.raises(ValueError, match=r"^point has shape \(3,\), semigroup expects \(2,\)$"):
                apply(np.array([1.0, 1.0, 1.0]))
            with pytest.raises(ValueError, match=r"^point lies outside the domain beyond the membership slack$"):
                apply(far)


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


def test_fixed_set_distance_values():
    fs = analytic_fixed_set(decay(dim=2))
    assert fixed_set_distance(fs, np.array([3.0, 4.0])) == pytest.approx(5.0)
    fs = analytic_fixed_set(heat(np.diag([0.0, 1.0])))
    # distance to the x-axis
    assert fixed_set_distance(fs, np.array([7.0, -2.0])) == pytest.approx(2.0)


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
