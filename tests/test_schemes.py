import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from semiflow import characterize, schemes, semigroups, vecspace
from semiflow.characterize import NearRationalWarning, certify_common_fixed, residual_pair, residual_profile
from semiflow.schemes import (
    DEFAULT_MAX_ITER,
    DRIVE_BLOCK,
    FLOAT_BLOCK,
    IterationConfig,
    ROW_SCHEMES,
    SCHEME_TAGS,
    _Recorder,
    _Rule,
    _banach_solve,
    _double_block_average,
    _float_blocks,
    baillon_double,
    baillon_power_average,
    browder_implicit,
    halpern,
    ishikawa_composed,
    make_schedule,
    mann,
    parse_schedule,
    run_rows,
    run_scheme,
    suzuki_averaged_mann,
)
from semiflow.semigroups import (
    INTERIOR_MARGIN,
    MEMBERSHIP_SLACK,
    _kernel,
    _pair_kernel,
    analytic_fixed_set,
    decay,
    evaluate,
    heat,
    operator,
    pair_operator,
    rotation,
)
from semiflow.stepseq import geometric, greedy_decompose, replay_action
from semiflow.vecspace import Ball

from .oracles import (
    heat_diag_coordinate_factor,
    mann_decay_orbit,
    midpoint_rotation_matrix,
    per_step_drive,
    per_step_rows,
)

SQRT2 = math.sqrt(2.0)


def cfg(**kw):
    kw.setdefault("alpha", 1.0)
    kw.setdefault("beta", SQRT2)
    for key in ("start", "u"):
        if key in kw and kw[key] is not None:
            kw[key] = np.asarray(kw[key], dtype=float)
    return IterationConfig(**kw)


# ---- schedules --------------------------------------------------------------------

def test_harmonic_schedule_values():
    s = make_schedule("harmonic", 1)
    assert s(1) == 0.5
    assert s(2) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert s.descriptor() == "harmonic:1"


def test_power_schedule_values():
    s = make_schedule("power", 1, p=0.5)
    assert s(4) == pytest.approx(1.0 / math.sqrt(5.0), rel=1e-15)
    assert s.descriptor() == "power:0.5,1"


def test_schedule_rejects_divergence_violations():
    with pytest.raises(ValueError):
        make_schedule("power", 1, p=1.5)  # summable weights stall the anchor
    with pytest.raises(ValueError):
        make_schedule("power", 1, p=0.0)
    with pytest.raises(ValueError):
        make_schedule("harmonic", 0)
    with pytest.raises(ValueError):
        make_schedule("fibonacci", 1)


def test_schedule_weights_decrease_in_unit_interval():
    for s in (make_schedule("harmonic", 5), make_schedule("power", 2, p=0.7)):
        vals = [s(n) for n in range(1, 200)]
        assert all(0.0 < v < 1.0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_parse_schedule_round_trip():
    for text in ("harmonic:1", "harmonic:7", "power:0.5,1", "power:0.25,3"):
        assert parse_schedule(text).descriptor() == text
    assert parse_schedule("power:1").p == 1.0
    with pytest.raises(ValueError):
        parse_schedule("power:0.5,2,9")
    with pytest.raises(ValueError):
        parse_schedule("geometric:0.5")


def test_schedule_block_is_the_per_call_weights_bit_for_bit():
    # the float path takes a block's weights in one call, and the array path
    # one at a time; both must be the bits of the closed form 1/(m + offset)**p,
    # on both branches and for large n
    rng = np.random.default_rng(25)
    schedules = [make_schedule("harmonic", offset) for offset in (1, 3, 7)]
    schedules += [make_schedule("power", offset, p=p) for p in (0.3, 0.5, 0.75, 1.0) for offset in (1, 4)]
    starts = [1, 2, 3, 92, 99, 100, 101, 2**53 - 300, 2**53 - 1, 2**53, 2**53 + 1]
    starts += rng.integers(1, 2**53, 5).tolist()
    for sched in schedules:
        for n in starts:
            for size in (1, 8, 9, 256):
                block = sched.block(n, size)
                assert len(block) == size
                closed = [1.0 / (m + sched.offset) if sched.p == 1.0 else (m + sched.offset) ** -sched.p
                          for m in range(n, n + size)]
                assert [w.hex() for w in block] == [w.hex() for w in closed], (sched, n, size)
                assert sched(n).hex() == closed[0].hex(), (sched, n)


# ---- config validation -------------------------------------------------------------

def test_config_validates_pair_and_tol():
    with pytest.raises(ValueError):
        cfg(alpha=2.0, beta=2.0)
    with pytest.raises(ValueError):
        cfg(tol=0.0)
    with pytest.raises(ValueError):
        cfg(max_iter=0)
    with pytest.raises(ValueError, match="max_iter"):
        cfg(max_iter=1.5)
    with pytest.raises(ValueError, match="inner_tol"):
        cfg(inner_tol=0.0)
    with pytest.raises(ValueError, match="inner_tol"):
        cfg(inner_tol=-1e-10)
    with pytest.raises(ValueError, match="inner_tol"):
        cfg(inner_tol=float("nan"))
    with pytest.raises(ValueError, match="inner_cap"):
        cfg(inner_cap=0)


@pytest.mark.parametrize("name", ["max_iter", "inner_cap"])
@pytest.mark.parametrize("value", [True, False])
def test_config_budgets_reject_bools(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be a positive integer, got {value}$"):
        cfg(start=[1.0, 0.0], **{name: value})


def test_numpy_scalar_weights_run_as_python_floats():
    # float32 times a Python float stays float32 (NEP 50), so the config
    # converts kappa and lam, and mann's float iteration of a d=2 rotation
    # gives the bits of the same run with Python floats
    spec = rotation(period=1.0, center=(0.5, -0.25))
    kappa, lam = np.float32(0.3), np.float32(0.2)
    reports = [
        mann(spec, cfg(start=[2.0, 1.0], kappa=k, lam=l, max_iter=300, tol=1e-12))
        for k, l in ((kappa, lam), (float(kappa), float(lam)))
    ]
    assert type(cfg(kappa=kappa, lam=lam).kappa) is float
    assert report_bits(reports[0]) == report_bits(reports[1])


def test_mann_weight_preconditions():
    spec = decay(dim=1)
    with pytest.raises(ValueError):
        mann(spec, cfg(kappa=0.6, lam=0.5, start=[1.0]))
    with pytest.raises(ValueError):
        mann(spec, cfg(kappa=0.0, lam=0.5, start=[1.0]))
    with pytest.raises(ValueError):
        suzuki_averaged_mann(spec, cfg(lam=1.0, start=[1.0]))
    with pytest.raises(ValueError):
        ishikawa_composed(spec, cfg(kappa=1.0, lam=0.5, start=[1.0]))


def count_applications(monkeypatch, shapes=False):
    """Count every application of the kernels the scheme driver compiles.

    A call of a compiled pair counts as two applications, one at alpha and
    one at beta, and a float block of a d=2 rotation's iterates, which
    calls no kernel per iterate, as two per iterate.  A float block also
    recomputes its iterates' images with the pair kernel, which it is given
    uncounted, so that those images are not counted twice.  Returns the
    list of times applied, or of (time, argument shape) pairs with
    ``shapes`` (a float block's iterates have shape (2,)).
    """
    calls = []

    def counting_kernel(spec, t):
        apply = _kernel(spec, t)

        def counted(x):
            calls.append((t, x.shape) if shapes else t)
            return apply(x)

        return counted

    def counting_pair_kernel(spec, alpha, beta):
        apply = _pair_kernel(spec, alpha, beta)

        def counted(x):
            calls.extend([(alpha, x.shape), (beta, x.shape)] if shapes else [alpha, beta])
            return apply(x)

        return counted

    def counting_float_blocks(spec, c, rule, x, _):
        take = _float_blocks(spec, c, rule, x, _pair_kernel(spec, c.alpha, c.beta))
        if take is None:
            return None

        def counted(size):
            calls.extend(([(c.alpha, (2,)), (c.beta, (2,))] if shapes else [c.alpha, c.beta]) * size)
            return take(size)

        return counted

    monkeypatch.setattr(schemes, "_kernel", counting_kernel)
    monkeypatch.setattr(schemes, "_pair_kernel", counting_pair_kernel)
    monkeypatch.setattr(schemes, "_float_blocks", counting_float_blocks)
    return calls


def test_driver_reuses_the_pair_images(monkeypatch):
    # the driver applies T(alpha) and T(beta) once per iterate; mann and
    # halpern build their update from those two images, and the power
    # average adds one midpoint stage (two more applications)
    calls = count_applications(monkeypatch)
    spec = rotation(period=1.0)
    n = 30
    for scheme, per_iter in ((mann, 2), (halpern, 2), (baillon_power_average, 4)):
        calls.clear()
        report = scheme(spec, cfg(start=[1.0, 0.0], u=[1.0, 0.0], max_iter=n, tol=1e-14))
        assert report.termination == "max_iter" and report.n_used == n
        assert len(calls) == per_iter * n


def row_specs():
    """Rotation d=2 off-centre, decay d=3 and a non-diagonal heat d=6 with a 2-D kernel."""
    q, _ = np.linalg.qr(np.random.default_rng(6).normal(size=(6, 6)))
    return [
        rotation(period=1.0, center=(0.5, -0.25)),
        decay(dim=3),
        heat((q * [0.0, 0.0, 0.3, 0.9, 1.7, 2.5]) @ q.T),
    ]


def row_starts(spec, rng, b):
    """b starts inside the domain; the first is a common fixed point."""
    dom = spec.domain
    fs = analytic_fixed_set(spec)
    first = fs.point if fs.kind == "singleton" else fs.basepoint + fs.basis @ np.ones(fs.basis.shape[1])
    if hasattr(dom, "radius"):
        rest = dom.center + rng.uniform(-3.0, 3.0, size=(b - 1, dom.dim))
    else:
        rest = rng.uniform(dom.lower, 0.4 * dom.upper, size=(b - 1, dom.dim))
    return np.vstack([first, rest])


def assert_reports_match(batched, serial, bound):
    assert batched.termination == serial.termination
    assert batched.n_used == serial.n_used
    assert batched.fejer_violations == serial.fejer_violations
    assert [r.n for r in batched.iterates_recorded] == [r.n for r in serial.iterates_recorded]
    for rec, ref in zip(batched.iterates_recorded, serial.iterates_recorded):
        for name in ("pair_residual", "step_norm", "fixed_set_distance"):
            assert abs(getattr(rec, name) - getattr(ref, name)) <= bound, name
        assert np.abs(rec.point - ref.point).max() <= bound
    assert np.abs(batched.final_point - serial.final_point).max() <= bound


def test_rows_match_their_serial_runs():
    rng = np.random.default_rng(31)
    for spec in row_specs():
        starts = row_starts(spec, rng, 5)
        u = starts[-1]
        for tag, budget in (("mann", 400), ("halpern", 300), ("baillon_power_average", 300)):
            c = cfg(start=starts, u=u, max_iter=budget, tol=1e-9)
            reports = run_rows(tag, spec, c)
            assert len(reports) == len(starts)
            for x0, report in zip(starts, reports):
                serial = run_scheme(tag, spec, cfg(start=x0, u=u, max_iter=budget, tol=1e-9))
                # heat blocks go through matrix products, which round differently
                assert_reports_match(report, serial, 1e-12 if spec.kind == "heat" else 0.0)
            # rows end on their own: the fixed start at once, the others later
            assert reports[0].n_used == 1 and reports[0].termination == "converged"
            assert max(r.n_used for r in reports) > 1
            again = run_rows(tag, spec, c)
            for report, repeat in zip(reports, again):
                assert report.to_dict() == repeat.to_dict()
                assert all(a.point.tobytes() == b.point.tobytes()
                           for a, b in zip(report.iterates_recorded, repeat.iterates_recorded))


def test_rows_apply_each_operator_once_per_step_to_the_block(monkeypatch):
    calls = count_applications(monkeypatch, shapes=True)
    spec = rotation(period=1.0, center=(0.5, -0.25))
    starts = np.array([[1.0, 0.0], [0.0, 2.0], [-1.0, -1.0]])
    n = 30
    for tag, per_iter in (("mann", 2), ("halpern", 2), ("baillon_power_average", 4)):
        calls.clear()
        reports = run_rows(tag, spec, cfg(start=starts, u=[1.0, 0.0], max_iter=n, tol=1e-14))
        assert [r.n_used for r in reports] == [n] * 3
        assert len(calls) == per_iter * n
        assert {shape for _, shape in calls} == {(3, 2)}


def test_one_start_is_iterated_as_a_point(monkeypatch):
    # rows and one start share the driver's loop, but one start is iterated
    # as a (d,) point, or on floats for mann and halpern on a d=2 rotation:
    # as a (1, d) row it would cost several times more per iterate
    calls = count_applications(monkeypatch, shapes=True)
    float_path = []
    counted = schemes._float_blocks

    def float_blocks(*args):
        take = counted(*args)
        if take is not None:
            float_path.append(1)
        return take

    monkeypatch.setattr(schemes, "_float_blocks", float_blocks)
    rng = np.random.default_rng(7)
    for spec in (rotation(period=1.0, center=(0.5, -0.25)), decay(dim=3), heat(_path_laplacian(4))):
        _, start, u = row_starts(spec, rng, 3)
        for tag in ROW_SCHEMES:
            calls.clear()
            float_path.clear()
            report = run_scheme(tag, spec, cfg(start=start, u=u, max_iter=40, tol=1e-15))
            assert report.n_used > 8  # more than one block
            assert calls and {shape for _, shape in calls} == {(spec.dim,)}, (tag, spec.kind)
            assert bool(float_path) == (spec.kind == "rotation" and tag != "baillon_power_average"), (tag, spec.kind)


def report_bits(report):
    """A report's JSON text and the bytes of every point it holds."""
    points = [r.point.tobytes() for r in report.iterates_recorded]
    return json.dumps(report.to_dict(), sort_keys=True), points, report.final_point.tobytes()


def test_unchecked_driver_is_bitwise_the_checked_operators(monkeypatch):
    # the driver applies unchecked kernels, and iterates one d=2 rotation
    # start on floats; the same runs replayed through the public, checked
    # callables, with the float loop disabled, must give the same bits
    rng = np.random.default_rng(41)
    runs = []
    for spec in row_specs():
        starts = row_starts(spec, rng, 4)
        for tag in ("halpern", "mann"):
            runs.append((tag, spec, dict(u=starts[-1], max_iter=300, tol=1e-9), starts))

    def run_all():
        out = []
        for tag, spec, kw, starts in runs:
            out.append(report_bits(run_scheme(tag, spec, cfg(start=starts[1], **kw))))
            out.extend(report_bits(r) for r in run_rows(tag, spec, cfg(start=starts, **kw)))
        return out

    unchecked = run_all()
    checked = []

    def checked_pair(spec, alpha, beta):
        checked.append(spec.kind)
        return pair_operator(spec, alpha, beta)

    monkeypatch.setattr(schemes, "_kernel", operator)
    monkeypatch.setattr(schemes, "_pair_kernel", checked_pair)
    monkeypatch.setattr(schemes, "_float_blocks", lambda *_: None)
    assert run_all() == unchecked
    assert checked == [spec.kind for _, spec, _, _ in runs for _ in range(2)]


def test_float_loop_is_the_pair_kernel_bit_for_bit(monkeypatch):
    # the float loop leaves an image unprojected only where a margin proves
    # that Ball.project would return it unchanged; points inside, on shells
    # at R(1 + k eps), |k| <= 8, around the boundary and around the guard's
    # threshold, and with a NaN coordinate.  Each image is read as the second
    # iterate of mann's rule with all its weight on that image, and compared
    # with the same rule's array form applied to the pair kernel's images
    rng = np.random.default_rng(29)
    k = rng.integers(-8, 9, 3000) * np.finfo(float).eps
    scales = np.concatenate([np.sqrt(rng.uniform(0.0, 1.0, 4000)), 1.0 + k, (1.0 - INTERIOR_MARGIN) * (1.0 + k)])
    original = vecspace.Ball.project
    mixes = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    moved = []

    def counted(self, y):
        out = original(self, y)
        if y.ndim == 1:  # the pair kernel's, and the loop's fallback
            moved.append(out is not y)
        return out

    def unread_images(xs, inside):
        # stand-ins for the pair kernel and _block_norms, which would spend most of
        # this test's time on a block's images, residuals and steps: the block
        # driver tests hold those, and the loop's iterates read here depend on none
        return xs, xs

    def unread_norms(before, block, ta, tb):
        return None, None

    def loop_and_kernel(spec, alpha, beta, points):
        """Both images of each point from the float loop and from the pair kernel,
        and whether Ball.project moved each image the loop projected for x_1."""
        c = IterationConfig(alpha=alpha, beta=beta)
        kernel = _pair_kernel(spec, alpha, beta)
        rules = [_Rule(mix=mix) for mix in mixes]
        expected, got, first = [], [], []
        for x in points:
            images = kernel(x)
            for rule in rules:
                update = rule(x)
                next(update)
                expected.append(update.send(images).tobytes())
            take = _float_blocks(spec, c, rules[0], x, unread_images)
            del moved[:]
            take(1)  # x_1 = x, whose images the loop projects if x fails the interior test
            first.extend(moved)
            got.append(take(1)[0][0].tobytes())
            got.append(_float_blocks(spec, c, rules[1], x, unread_images)(2)[0][1].tobytes())
        return got, expected, first

    monkeypatch.setattr(vecspace.Ball, "project", counted)
    monkeypatch.setattr(schemes, "_block_norms", unread_norms)
    # radii where, without the margin, q <= R**2 holds for some images that
    # Ball.project moves; and a center at 2^19 R, where the interior test still holds
    for spec in (rotation(period=1.0, radius=3.7), rotation(period=1.7, center=(0.5, -0.25), radius=0.37),
                 rotation(period=1.3, center=(0.6 * 2.0 ** 19 * 0.37, -0.8 * 2.0 ** 19 * 0.37), radius=0.37)):
        dom = spec.domain
        g = rng.normal(size=(scales.size, 2))
        points = dom.center + (dom.radius * scales / np.linalg.norm(g, axis=1))[:, None] * g
        points[:2] = [[math.nan, 0.0], [0.0, math.nan]]
        assert len(points) >= 10_000
        for alpha, beta in ((1.0, SQRT2), (0.3, 7.3)):
            got, expected, first = loop_and_kernel(spec, alpha, beta, points)
            assert got == expected, (spec.domain.radius, alpha, beta)
            # the exact projection ran, moved some images and left others, and was skipped for most
            assert 0 < sum(first) < len(first) < len(points), (spec.domain.radius, alpha, beta)
    # a center at 2^24 R, where no point passes the interior test, and radii outside
    # [2^-500, 2^500], whose balls have no test: every image is projected, and
    # the inside ones come out unchanged, also at 1e160, where an offset's sum
    # of squares overflows
    for spec in (rotation(period=1.3, center=(0.6 * 2.0 ** 24 * 0.37, -0.8 * 2.0 ** 24 * 0.37), radius=0.37),
                 rotation(radius=1e-160), rotation(radius=1e160)):
        g = rng.normal(size=(scales.size, 2))
        points = spec.domain.center + (spec.domain.radius * scales / np.linalg.norm(g, axis=1))[:, None] * g
        got, expected, first = loop_and_kernel(spec, 1.0, SQRT2, points)
        assert got == expected, spec.domain.radius
        assert len(first) == 2 * len(points), spec.domain.radius
        assert 0 < sum(first) < len(first), spec.domain.radius
    # the loop runs on a d=2 rotation alone
    for spec in (decay(dim=2), heat(np.eye(2)), rotation(dim=3)):
        assert _float_blocks(spec, cfg(), _Rule(mix=mixes[0]), np.zeros(spec.dim), unread_images) is None


def block_specs():
    """Rotation d=2 and d=3 off-centre, decay d=3 and the path-Laplacian heat d=4."""
    return [
        rotation(period=1.0, center=(0.5, -0.25)),
        rotation(period=1.0, center=(0.5, -0.25), dim=3, radius=5.0),
        decay(dim=3),
        heat(_path_laplacian(4)),
    ]


def block_flows():
    """(spec, starts, anchor) for every block_specs() flow, and for two small rotations.

    starts has three rows: a common fixed point, the start block_cases()
    runs alone, and the anchor.  The radius-1 rotation's start lies on
    its boundary, so its first images go through the exact projection on
    the float path.  The other, of radius 2^-10, has its center 2^21 radii
    from the origin, where its ball has no interior test, so every iterate
    on the float path projects its images in the loop's fallback;
    its start lies just outside the ball, within the membership slack, so
    that those projections move its first images.
    """
    rng = np.random.default_rng(18)
    flows = []
    for spec in block_specs():
        starts = row_starts(spec, rng, 3)
        flows.append((spec, starts, starts[2]))
    small = rotation(period=1.0, center=(0.5, -0.25), radius=1.0)
    flows.append((small, np.array([[0.5, -0.25], [1.5, -0.25], [0.5, 0.75]]), np.array([0.5, 0.75])))
    far = rotation(period=1.0, center=(0.6 * 2.0 ** 11, 0.8 * 2.0 ** 11), radius=2.0 ** -10)
    starts = far.center + 2.0 ** -10 * np.array([[0.0, 0.0], [0.6 + 2.0 ** -24, -0.8 - 2.0 ** -24], [-0.3, 0.6]])
    flows.append((far, starts, starts[2]))
    return flows


def block_cases():
    """(tag, spec, start, anchor) for every tag of ROW_SCHEMES on every block_flows() flow."""
    return [(tag, spec, starts[1], u) for spec, starts, u in block_flows() for tag in ROW_SCHEMES]


def run_per_step(monkeypatch, tag, spec, c):
    """run_scheme's report from the per-step reference driver."""
    with monkeypatch.context() as m:
        m.setattr(schemes, "_drive", per_step_drive)
        return run_scheme(tag, spec, c)


def rows_checked_per_step(monkeypatch, tag, spec, c):
    """run_rows' reports, each checked against the per-step drivers'.

    Bit for bit against the per-step driver of rows, and on a rotation or
    on decay also against the per-step driver's run from the row alone.  A
    heat flow's rows go through matrix products, which round differently
    from one point's, so a row whose residual reaches the tolerance by
    rounding may stop an iterate earlier or later than its run alone.
    """
    reports = run_rows(tag, spec, c)
    with monkeypatch.context() as m:
        m.setattr(schemes, "_drive", per_step_rows)
        assert [report_bits(r) for r in reports] == [report_bits(r) for r in run_rows(tag, spec, c)], (
            tag, spec.kind, spec.dim)
    if spec.kind != "heat":
        for x0, report in zip(c.start, reports):
            alone = run_per_step(monkeypatch, tag, spec, replace(c, start=x0))
            assert report_bits(report) == report_bits(alone), (tag, spec.kind, spec.dim, x0)
    return reports


def block_bounds(n_max):
    """The (first, last) iterate of each block _drive takes on a ROW_SCHEMES run."""
    bounds, n = [], 0
    while n < n_max:
        size = min(n_max - n, DRIVE_BLOCK, max(8, n // 8))
        bounds.append((n + 1, n + size))
        n += size
    return bounds


@pytest.mark.parametrize("budget", [1, 7, 8, 9, 255, 256, 257, 2049])
def test_block_driver_equals_the_per_step_driver_at_every_budget(monkeypatch, budget):
    for tag, spec, start, u in block_cases():
        c = cfg(start=start, u=u, max_iter=budget, tol=1e-15)
        assert report_bits(run_scheme(tag, spec, c)) == report_bits(run_per_step(monkeypatch, tag, spec, c)), (
            tag, spec.kind, spec.dim)
    for spec, starts, u in block_flows():
        for tag in ROW_SCHEMES:
            rows_checked_per_step(monkeypatch, tag, spec, cfg(start=starts, u=u, max_iter=budget, tol=1e-15))


def test_float_blocks_past_their_cap_equal_the_per_step_driver(monkeypatch):
    # a d=2 rotation's mann and halpern from one start take blocks that
    # double up to FLOAT_BLOCK iterates, a size that blocks of max(8, n // 8)
    # reach only at n = 8 * FLOAT_BLOCK; small weights keep mann short of the
    # tolerance, so both runs take capped blocks to the budget
    sizes = []

    def float_blocks(*args):
        take = _float_blocks(*args)

        def sized(size):
            sizes.append(size)
            return take(size)
        return sized

    budget = 10 * FLOAT_BLOCK + 500
    for spec, starts, u in block_flows():
        if spec.kind != "rotation" or spec.dim != 2:
            continue
        for tag in ("mann", "halpern"):
            c = cfg(start=starts[1], u=u, kappa=1e-3, lam=1e-3, max_iter=budget, tol=1e-15)
            sizes.clear()
            with monkeypatch.context() as m:
                m.setattr(schemes, "_float_blocks", float_blocks)
                report = run_scheme(tag, spec, c)
            assert report.n_used == budget, (tag, spec.domain.radius)
            assert max(sizes) == FLOAT_BLOCK and sizes.count(FLOAT_BLOCK) >= 2, (tag, spec.domain.radius)
            assert report_bits(report) == report_bits(run_per_step(monkeypatch, tag, spec, c)), (
                tag, spec.domain.radius)


def test_blocks_of_one_equal_the_per_step_driver(monkeypatch):
    # the schemes outside ROW_SCHEMES take blocks of one point, which go
    # through the same concatenate and block norms as longer blocks; each
    # report, with every iterate recorded, must be the per-step driver's,
    # whose norms are 1-D, also where the implicit scheme's inner solver fails
    budgets = {"baillon_double": 12, "suzuki_averaged_mann": 10, "ishikawa_composed": 30, "browder_implicit": 30}
    for spec, starts, u in block_flows():
        cases = [(tag, cfg(start=starts[1], u=u, max_iter=n, tol=1e-15, record_all=True)) for tag, n in budgets.items()]
        cases.append(("browder_implicit", replace(cases[-1][1], inner_cap=3)))
        for tag, c in cases:
            report = run_scheme(tag, spec, c)
            assert report_bits(report) == report_bits(run_per_step(monkeypatch, tag, spec, c)), (
                tag, spec.kind, spec.dim, c.inner_cap)
            assert (report.termination == "inner_solver_failure") == (c.inner_cap == 3), (tag, spec.kind)


def test_a_block_of_one_stops_at_a_residual_equal_to_the_tolerance(monkeypatch):
    # a block of one iterate is tested with two float comparisons, which, as
    # _stops, take a pair residual and a step equal to tol for converged
    spec, starts, u = block_flows()[0]
    for tag, n_max in (("baillon_double", 12), ("suzuki_averaged_mann", 10), ("ishikawa_composed", 30),
                       ("browder_implicit", 30)):
        c = cfg(start=starts[1], u=u, max_iter=n_max, tol=1e-15, record_all=True)
        worst = [max(r.pair_residual, r.step_norm) for r in run_scheme(tag, spec, c).iterates_recorded]
        tol = min(worst[1:])
        report = run_scheme(tag, spec, replace(c, tol=tol))
        assert report.termination == "converged" and report.n_used == worst.index(tol) + 1, tag
        assert report_bits(report) == report_bits(run_per_step(monkeypatch, tag, spec, replace(c, tol=tol))), tag


def test_block_driver_stops_where_the_per_step_driver_does(monkeypatch):
    # tolerances read off the per-step run stop it on a block's first or
    # last iterate or inside it, and the block driver must stop there too,
    # on one start and on rows of starts
    budget = 300
    blocks = block_bounds(budget)
    firsts = {first for first, _ in blocks}
    lasts = {last for _, last in blocks}
    targets = sorted({n for b in (blocks[0], blocks[1], blocks[12]) for n in (b[0], (b[0] + b[1]) // 2, b[1])})

    def where(n):
        return "first" if n in firsts else "last" if n in lasts else "inside"

    hit, row_hit, apart = set(), set(), 0
    for spec, starts, u in block_flows():
        for tag in ROW_SCHEMES:
            trace = run_per_step(monkeypatch, tag, spec,
                                 cfg(start=starts[1], u=u, max_iter=budget, tol=1e-15, record_all=True))
            worst = [max(r.pair_residual, r.step_norm) for r in trace.iterates_recorded]
            for n in targets:
                if n > len(worst):
                    continue
                c = cfg(start=starts[1], u=u, max_iter=budget, tol=max(worst[n - 1], 5e-324))
                report = run_scheme(tag, spec, c)
                assert report_bits(report) == report_bits(run_per_step(monkeypatch, tag, spec, c)), (
                    tag, spec.kind, spec.dim, n)
                assert report.termination == "converged"
                hit.add(where(report.n_used))
                # the same tolerance on rows: the fixed point ends at once, the others elsewhere
                reports = rows_checked_per_step(monkeypatch, tag, spec, replace(c, start=starts))
                row_hit.update(where(r.n_used) for r in reports if r.termination == "converged")
                ends = {next(k for k, (first, last) in enumerate(blocks) if first <= r.n_used <= last) for r in reports}
                apart += len(ends) > 1
    assert hit == {"first", "last", "inside"}
    assert row_hit == {"first", "last", "inside"}
    assert apart  # some runs' rows end in different blocks


def test_a_heat_row_may_stop_one_iterate_from_its_run_alone():
    # the path-Laplacian heat flow's third start: the row's matrix products
    # round differently, so it may stop an iterate later or earlier than the
    # run alone (at n=114 against 113 with OpenBLAS 0.3.31)
    spec, starts, u = next(flow for flow in block_flows() if flow[0].kind == "heat")
    row = run_rows("mann", spec, cfg(start=starts, u=u, max_iter=255, tol=1e-15))[2]
    alone = run_scheme("mann", spec, cfg(start=starts[2], u=u, max_iter=255, tol=1e-15))
    assert row.termination == alone.termination == "converged"
    assert abs(row.n_used - alone.n_used) <= 1
    by_n = {rec.n: rec for rec in alone.iterates_recorded}
    shared = [(rec, by_n[rec.n]) for rec in row.iterates_recorded if rec.n in by_n]
    assert len(shared) >= 100
    for rec, ref in shared:
        for name in ("pair_residual", "step_norm", "fixed_set_distance"):
            assert abs(getattr(rec, name) - getattr(ref, name)) <= 1e-12, (rec.n, name)
        assert np.abs(rec.point - ref.point).max() <= 1e-12, rec.n


def test_block_driver_records_every_iterate_as_the_per_step_driver(monkeypatch):
    for tag, spec, start, u in block_cases():
        for tol in (1e-15, 1e-2):
            c = cfg(start=start, u=u, max_iter=257, tol=tol, record_all=True)
            report = run_scheme(tag, spec, c)
            assert [r.n for r in report.iterates_recorded] == list(range(1, report.n_used + 1))
            assert report_bits(report) == report_bits(run_per_step(monkeypatch, tag, spec, c)), (
                tag, spec.kind, spec.dim, tol)


def float_path_cases():
    """(spec, start, anchor) for the float iteration of a d=2 rotation: both far
    inside; within 2^-36, 2^-40 and 2^-45 of the interior test's radius r, where
    a block's proof passes or fails with its size; on the circle; and on a
    rotation whose center lies 2^21 radii from the origin, with no test."""
    spec = rotation(period=1.0, center=(0.5, -0.25))
    c, r = spec.domain.center, spec.domain.radius * (1.0 - INTERIOR_MARGIN)
    unit = np.array([0.6, -0.8])
    cases = [(spec, c + [1.0, 2.0], c + [-3.0, 0.5])]
    for k in (36, 40, 45):
        near = c + r * (1.0 - 2.0 ** -k) * unit
        cases += [(spec, near, c + [-3.0, 0.5]), (spec, c + [1.0, 2.0], c + r * (1.0 - 2.0 ** -k) * unit[::-1])]
    cases.append((spec, c + 10.0 * unit, c + 10.0 * unit[::-1]))
    far = rotation(period=1.0, center=(0.6 * 2.0 ** 21, 0.8 * 2.0 ** 21), radius=1.0)
    cases.append((far, far.center + [0.3, 0.4], far.center + [-0.5, 0.1]))
    return cases


def assert_float_path_is_one_row(tag, spec, c):
    """run_scheme from c.start, on floats, against run_rows from it as a (1, 2) row, on arrays."""
    (row,) = run_rows(tag, spec, replace(c, start=c.start[None]))
    assert report_bits(run_scheme(tag, spec, c)) == report_bits(row), (tag, spec.domain.radius, c.start, c.u)
    return row


@pytest.mark.parametrize("budget", [7, 8, 9, 1023, 1024, 1025, 2049, 4095, 4096, 4097, 8193])
def test_float_blocks_equal_the_array_path_of_one_row(budget):
    # the float iteration's doubled blocks, its interior proofs and its norm screen
    # change no bit of a report: the rows path, which has none, gives the same
    for spec, start, u in float_path_cases():
        for tag in ("halpern", "mann"):
            for record_all in (False, True):
                assert_float_path_is_one_row(tag, spec, cfg(start=start, u=u, max_iter=budget, tol=1e-15,
                                                            record_all=record_all))


def test_float_blocks_stop_where_the_array_path_of_one_row_does():
    # tolerances read off a full trace stop each run inside a doubled float block
    # (n = 65 to 128, 129 to 256, ..., 2049 to 4096) or inside the first block of
    # FLOAT_BLOCK iterates (4097 to 8192), where a block's norm screen can fail
    budget, inside = 8193, set()
    for spec, start, u in float_path_cases():
        for tag in ("halpern", "mann"):
            c = cfg(start=start, u=u, kappa=0.01, lam=0.01, max_iter=budget, tol=1e-15, record_all=True)
            worst = [max(r.pair_residual, r.step_norm) for r in run_scheme(tag, spec, c).iterates_recorded]
            for n, record_all in ((100, True), (200, False), (300, True), (700, False), (1500, False),
                                  (3000, False), (6000, False)):
                row = assert_float_path_is_one_row(tag, spec, replace(c, tol=worst[n - 1], record_all=record_all))
                if row.termination == "converged" and row.n_used & (row.n_used - 1) and row.n_used > 64:
                    inside.add(row.n_used.bit_length())
    assert inside >= {7, 8, 9, 10, 11, 12, 13}  # some run stops inside each doubled block past n = 64


def test_a_screened_float_block_is_nan_but_at_its_kept_and_last_rows_and_never_stops(monkeypatch):
    # a float block whose norm screen passed takes pair residuals and step norms only
    # for its kept iterates (KEPT) and its last; every other entry is NaN, and
    # _stops finds no stop in it, as the screen proved that none of its iterates stops
    blocks = []

    def float_blocks(*args):
        take = _float_blocks(*args)

        def kept(size):
            blocks.append((size, take(size)))
            return blocks[-1][1]
        return kept

    monkeypatch.setattr(schemes, "_float_blocks", float_blocks)
    screened = 0
    for spec, start, u in float_path_cases():
        for tag in ("mann", "halpern"):
            blocks.clear()
            c = cfg(start=start, u=u, kappa=0.01, lam=0.01, max_iter=9000, tol=1e-12)
            run_scheme(tag, spec, c)
            first = 1
            for size, block in blocks:
                assert len(block) == 3, tag
                _, pair, step = block
                if np.isnan(pair).any() or np.isnan(step).any():
                    rows = np.zeros(size, dtype=bool)
                    rows[[m - first for m in schemes.KEPT if first <= m < first + size]] = True
                    rows[-1] = True
                    assert (np.isfinite(pair) == rows).all() and (np.isfinite(step) == rows).all(), (tag, first)
                    assert schemes._stops(pair, step, c.tol) == [0], (tag, first)
                    screened += 1
                first += size
    assert screened >= 20


def test_thinned_float_records_keep_no_block_alive():
    # a thinned record of the float path holds a copy of its row, not a view that
    # would keep its block's whole array (up to FLOAT_BLOCK rows) alive for the run
    spec, start, u = float_path_cases()[0]
    for tag in ("halpern", "mann"):
        report = run_scheme(tag, spec, cfg(start=start, u=u, kappa=1e-3, lam=1e-3, max_iter=20000, tol=1e-15))
        assert report.n_used == 20000 and len(report.iterates_recorded) > 100, tag
        assert all(rec.point.base is None for rec in report.iterates_recorded[:-1]), tag


def test_only_blocks_near_the_boundary_test_their_iterates(monkeypatch):
    # a run far inside proves each block inside and makes no interior test and no
    # projection; one anchored on the circle tests every iterate, and from a start
    # on the circle projects the start's images
    tests, projections = [], []

    class Limit(float):
        def __ge__(self, other):  # the loop's test, sum <= limit, reflected
            tests.append(1)
            return float(self) >= other

    class Radius(float):
        def __pow__(self, k):
            return Limit(float(self) ** k)

    original = vecspace.Ball.project

    def counted(self, y):
        projections.append(1)
        return original(self, y)

    monkeypatch.setattr(schemes, "_interior_radius", lambda domain: Radius(semigroups._interior_radius(domain)))
    monkeypatch.setattr(vecspace.Ball, "project", counted)
    spec = rotation(period=1.0, center=(0.5, -0.25))
    for tag in ("halpern", "mann"):
        report = run_scheme(tag, spec, cfg(start=[1.0, 2.0], u=[-2.5, 0.25], kappa=0.01, lam=0.01, max_iter=5000,
                                           tol=1e-15))
        assert report.n_used > 1000 and tests == [] and projections == [], tag
    report = run_scheme("halpern", spec, cfg(start=[10.5, -0.25], u=[10.5, -0.25], max_iter=5000, tol=1e-15))
    assert len(tests) == report.n_used == 5000
    assert projections


def test_the_norm_screen_never_passes_an_iterate_that_could_stop():
    # _float_blocks skips a block's norms when g (1 - 2^-48) e > tol + 2^-48 (|c| + R) + 2^-530
    # for the block's least computed e = |x - c|; for tol = an iterate's own computed
    # pair residual, at which it would stop, that must fail.  Points near c, at tiny and
    # huge scales, off-center, and for pairs whose turns are large and small
    rng = np.random.default_rng(83)
    specs = (rotation(period=1.0, center=(0.5, -0.25)), rotation(period=1.7, radius=2.0 ** -490,
             center=(2.0 ** -475, -(2.0 ** -476))), rotation(period=0.9, radius=2.0 ** 490,
             center=(2.0 ** 505, 2.0 ** 504)), rotation(period=1.0, radius=1.0))
    passed = passed_columns = 0
    for spec in specs:
        dom = spec.domain
        g = rng.normal(size=(6000, 2))
        scales = dom.radius * 10.0 ** -rng.uniform(0.0, 16.0, 6000)
        xs = dom.center + (scales / np.linalg.norm(g, axis=1))[:, None] * g
        xs[:1000] = dom.center + rng.integers(-4, 5, size=(1000, 2)) * np.spacing(np.abs(dom.center) + dom.radius)
        for alpha, beta in ((1.0, SQRT2), (0.3, 7.3), (1e-3, 1e-3 * SQRT2)):
            turns = [semigroups._compile(spec, t)[2] for t in (alpha, beta)]
            gain = max(math.hypot(cos - 1.0, sin) for cos, sin in turns) * (1.0 - 2.0 ** -48)
            drift = 2.0 ** -48 * (math.hypot(*dom.center) + dom.radius)
            pair, _ = schemes._block_norms(xs, xs, *_pair_kernel(spec, alpha, beta)(xs, inside=True))
            screened = gain * vecspace._row_norms(xs - dom.center) > pair + drift + 2.0 ** -530
            assert not screened.any(), (dom.radius, alpha, beta)
            passed += (gain * vecspace._row_norms(xs - dom.center) > 0.5 * pair + drift + 2.0 ** -530).sum()
            # the screen's own offset, the square root of the two columns' sum of squares
            dx, dy = xs[:, 0] - dom.center[0], xs[:, 1] - dom.center[1]
            e = np.sqrt(dx * dx + dy * dy)
            assert not (gain * e > pair + drift + 2.0 ** -530).any(), (dom.radius, alpha, beta)
            passed_columns += (gain * e > 0.5 * pair + drift + 2.0 ** -530).sum()
    assert passed > 10_000  # the bound is not vacuous: at half the residual, most points pass
    assert passed_columns > 10_000


def test_converged_runs_discard_a_bounded_overshoot(monkeypatch):
    # a run that converges inside a block has computed the rest of the block:
    # after m < n iterates a block holds at most max(8, m // 8) more on arrays,
    # and at most max(8, m) more on floats (mann and halpern from one d=2 start)
    calls = count_applications(monkeypatch)
    spec = rotation(period=1.0, center=(0.5, -0.25))
    used = []
    for tag, per_iter in (("mann", 2), ("halpern", 2), ("baillon_power_average", 4)):
        for tol in (1e-1, 1e-2, 3e-3):
            calls.clear()
            report = run_scheme(tag, spec, cfg(start=[1.0, 0.0], u=[1.0, 0.0], max_iter=5000, tol=tol))
            assert report.termination == "converged"
            n = report.n_used
            ahead = max(8, n // 8) if tag == "baillon_power_average" else max(8, n - 1)
            assert per_iter * n <= len(calls) <= per_iter * (n + ahead), (tag, tol)
            used.append(n)
    assert min(used) < 64 < max(used)


def test_driver_checks_only_the_start_and_the_anchor(monkeypatch):
    # every check is made by a semigroups._checker; it takes a point that
    # passes the interior test with that test's one norm, and calls
    # Ball.exterior_distance only for rows and for any other point
    checks, calls = [], []
    make_checker, original = semigroups._checker, Ball.exterior_distance

    def counted_checker(*args, **kwargs):
        check = make_checker(*args, **kwargs)

        def counted_check(x):
            checks.append(x.shape)
            return check(x)
        return counted_check

    def counted(self, x):
        calls.append(x.shape)
        return original(self, x)

    for module in (semigroups, schemes, characterize):
        monkeypatch.setattr(module, "_checker", counted_checker)
    monkeypatch.setattr(Ball, "exterior_distance", counted)
    spec = rotation(period=1.0, center=(0.5, -0.25))
    kw = dict(u=[1.0, 0.0], max_iter=500, tol=1e-14)
    report = halpern(spec, cfg(start=[0.0, 2.0], **kw))
    assert report.n_used == 500
    assert (checks, calls) == ([(2,)] * 2, [])
    checks.clear()
    # a start on the boundary fails the interior test, and takes the exterior distance
    assert halpern(spec, cfg(start=[10.5, -0.25], **kw)).n_used == 500
    assert (checks, calls) == ([(2,)] * 2, [(2,)])
    checks.clear()
    calls.clear()
    reports = run_rows("halpern", spec, cfg(start=[[0.0, 2.0], [-1.0, 1.0], [3.0, 0.0]], **kw))
    assert [r.n_used for r in reports] == [500] * 3
    assert (checks, calls) == ([(2,), (3, 2)], [(3, 2)])
    # a certificate checks its point once, in its orbit, and a replay once, on entry
    certify_common_fixed(spec, [0.5, -0.25], 1.0, SQRT2)  # warms the plan
    checks.clear()
    calls.clear()
    assert certify_common_fixed(spec, [0.5, -0.25], 1.0, SQRT2).verdict == "certified"
    assert (checks, calls) == ([(2,)], [])
    checks.clear()
    decomp = greedy_decompose(2.0 * math.pi, geometric(0.5), 6)
    assert sum(decomp.ks) >= 10
    replay_action(spec, np.array([1.0, 2.0]), decomp)
    assert (checks, calls) == ([(2,)], [])
    # the public callables still check every argument, once per call
    checks.clear()
    apply, op_pair = operator(spec, 1.0), pair_operator(spec, 1.0, SQRT2)
    for n in range(1, 4):
        apply(np.array([1.0, 2.0]))
        op_pair(np.array([1.0, 2.0]))
        assert (checks, calls) == ([(2,)] * (2 * n), [])
    for f in (apply, op_pair):
        with pytest.raises(ValueError, match=r"^point lies outside the domain beyond the membership slack$"):
            f(np.array([50.0, 0.0]))


def test_rows_are_only_for_row_independent_schemes():
    spec = rotation(period=1.0)
    starts = [[1.0, 0.0], [0.0, 1.0]]
    assert set(ROW_SCHEMES) == {"mann", "halpern", "baillon_power_average"}
    for tag in set(SCHEME_TAGS) - set(ROW_SCHEMES):
        with pytest.raises(ValueError, match="cannot run rows"):
            run_rows(tag, spec, cfg(start=starts, u=[1.0, 0.0]))
        with pytest.raises(ValueError, match=r"^start has shape \(2, 2\), the semigroup expects \(2,\)$"):
            SCHEME_TAGS[tag](spec, cfg(start=starts, u=[1.0, 0.0]))
    with pytest.raises(ValueError, match="run_rows takes"):
        run_scheme("mann", spec, cfg(start=starts))
    with pytest.raises(ValueError, match=r"run_rows needs start as a \(B, d\) array"):
        run_rows("mann", spec, cfg(start=[1.0, 0.0]))
    # every row is checked before the first iteration, naming the field
    with pytest.raises(ValueError, match=r"^start lies outside the domain"):
        run_rows("mann", spec, cfg(start=[[1.0, 0.0], [50.0, 0.0]]))
    with pytest.raises(ValueError, match="finite"):
        cfg(start=[[1.0, 0.0], [math.nan, 0.0]])


def test_run_scheme_dispatch():
    assert set(SCHEME_TAGS) == {
        "baillon_double",
        "baillon_power_average",
        "mann",
        "suzuki_averaged_mann",
        "ishikawa_composed",
        "browder_implicit",
        "halpern",
    }
    with pytest.raises(ValueError):
        run_scheme("bogus", decay(dim=1), cfg(start=[1.0]))


# ---- stationarity at common fixed points -------------------------------------------

def fixed_start_cases():
    return [
        (rotation(period=1.0), np.zeros(2)),
        (decay(dim=2), np.zeros(2)),
        (heat(np.diag([0.0, 1.0])), np.array([1.5, 0.0])),
    ]


def test_every_scheme_is_stationary_at_common_fixed_points():
    for spec, z in fixed_start_cases():
        for tag, fn in SCHEME_TAGS.items():
            c = cfg(start=z, u=z, schedule=make_schedule("harmonic", 1))
            report = fn(spec, c)
            assert report.termination == "converged", tag
            assert report.n_used == 1, tag
            assert np.array_equal(report.final_point, z), tag
            assert report.final_record.pair_residual <= 1e-12
            assert report.final_record.step_norm == 0.0


# ---- baillon double average ---------------------------------------------------------

def test_baillon_double_decay_closed_form():
    # only the (k,l) = (1,1) grid entry is nonzero: max(3 - 1 - sqrt2, 0);
    # the double average is therefore exactly (2 - sqrt2) / n^2
    spec = decay(dim=1, box_max=10.0)
    report = baillon_double(spec, cfg(start=[3.0], max_iter=50, record_all=True))
    assert report.termination == "max_iter"
    for rec in report.iterates_recorded:
        assert rec.point[0] == pytest.approx((2.0 - SQRT2) / rec.n**2, rel=1e-12)
    assert report.final_point[0] <= 0.1


def test_baillon_double_rotation_rate_bound():
    spec = rotation(period=1.0)
    report = baillon_double(spec, cfg(start=[1.0, 0.0], max_iter=200, record_all=True))
    for rec in report.iterates_recorded:
        if 10 <= rec.n <= 200:
            assert np.linalg.norm(rec.point) <= 1.1 / rec.n


def test_baillon_double_matches_block_average_oracle():
    spec = rotation(period=1.0)
    x0 = np.array([0.8, -0.3])
    report = baillon_double(spec, cfg(start=x0, max_iter=7, record_all=True))
    for rec in report.iterates_recorded:
        direct = _double_block_average(operator(spec, 1.0), operator(spec, SQRT2), x0, rec.n)
        assert np.linalg.norm(rec.point - direct) <= 1e-10


def test_baillon_double_memory_is_linear_in_the_budget():
    # the run converges at n = 1 from the rotation centre, so the peak is
    # what the budget makes it allocate, where the full (4097, 4097, 2) grid
    # of times would take 268 MB, and arrays sized by a budget of 10^11
    # rings 1.6 TB: the arrays grow only with the rings run
    spec = rotation(period=1.0, center=(0.5, -0.25))
    for budget in (4096, 10**11):
        tracemalloc.start()
        try:
            report = baillon_double(spec, cfg(start=[0.5, -0.25], max_iter=budget))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.termination == "converged" and report.n_used == 1
        assert peak < 1_000_000


def _double_average_point_by_point(t_alpha, t_beta, x, n):
    """(1/n^2) sum_{k,l=1..n} T(alpha)^k T(beta)^l x, one point at a time."""
    total = np.zeros(x.size)
    y_l = x
    for _ in range(n):
        y_l = t_beta(y_l)
        y = y_l
        for _ in range(n):
            y = t_alpha(y)
            total += y
    return total / (n * n)


def _path_laplacian(d):
    return np.diag(np.r_[1.0, np.full(d - 2, 2.0), 1.0]) - np.eye(d, k=1) - np.eye(d, k=-1)


def test_double_averages_apply_blocks_as_points():
    # heat rows go through one matrix product per block, whose rounding may
    # differ from that of one point at a time
    spec = heat(_path_laplacian(16))
    t_alpha, t_beta = operator(spec, 1.0), operator(spec, SQRT2)
    x0 = np.random.default_rng(4).uniform(-1.0, 1.0, 16)
    report = baillon_double(spec, cfg(start=x0, max_iter=12, tol=1e-15, record_all=True))
    assert [rec.n for rec in report.iterates_recorded] == list(range(1, 13))
    for rec in report.iterates_recorded:
        want = _double_average_point_by_point(t_alpha, t_beta, x0, rec.n)
        assert np.max(np.abs(rec.point - want)) <= 1e-12
    report = suzuki_averaged_mann(spec, cfg(start=x0, lam=0.5, max_iter=8, tol=1e-15, record_all=True))
    x = x0
    for rec in report.iterates_recorded:
        assert np.max(np.abs(rec.point - x)) <= 1e-12
        x = 0.5 * _double_average_point_by_point(t_alpha, t_beta, x, rec.n) + 0.5 * x
    assert rec.n == 8


# ---- baillon power average ----------------------------------------------------------

def test_power_average_heat_geometric_sum():
    spec = heat(np.diag([0.0, 1.0]))
    c = (math.exp(-1.0) + math.exp(-SQRT2)) / 2.0
    report = baillon_power_average(spec, cfg(start=[1.0, 1.0], max_iter=50, record_all=True))
    for rec in report.iterates_recorded:
        expected = sum(c**k for k in range(1, rec.n + 1)) / rec.n
        assert rec.point[1] == pytest.approx(expected, rel=1e-12)
        assert rec.point[0] == 1.0
    assert report.final_point[1] <= 0.0088


def test_power_average_rotation_matches_matrix_powers():
    spec = rotation(period=1.0)
    x0 = np.array([1.0, 0.0])
    report = baillon_power_average(spec, cfg(start=x0, max_iter=40, record_all=True))
    m = midpoint_rotation_matrix(1.0, SQRT2, 1.0)
    z = x0.copy()
    total = np.zeros(2)
    for rec in report.iterates_recorded:
        z = m @ z
        total += z
        assert np.linalg.norm(rec.point - total / rec.n) <= 1e-12
    # O(1/n) approach to the center
    assert np.linalg.norm(report.final_point) <= 2.0 / 40


# ---- mann --------------------------------------------------------------------------

def test_mann_scalar_decay_matches_recursion_oracle():
    spec = decay(dim=1, box_max=10.0)
    report = mann(spec, cfg(start=[3.0], kappa=0.25, lam=0.25, max_iter=80, record_all=True))
    oracle = mann_decay_orbit(3.0, 1.0, SQRT2, 0.25, 0.25, 80)
    for rec in report.iterates_recorded:
        assert rec.point[0] == pytest.approx(oracle[rec.n - 1], abs=1e-12)
    assert all(b <= a for a, b in zip(oracle, oracle[1:]))  # monotone decrease


def test_mann_decay_converges_within_budget():
    spec = decay(dim=1, box_max=10.0)
    report = mann(spec, cfg(start=[3.0], max_iter=10_000))
    assert report.termination == "converged"
    assert report.final_record.pair_residual <= 1e-8
    assert report.fejer_violations == 0


def test_mann_heat_kernel_projection_and_factor():
    spec = heat(np.diag([0.0, 1.0]))
    report = mann(spec, cfg(start=[2.0, 3.0], kappa=0.25, lam=0.25, max_iter=10_000, record_all=True))
    assert report.termination == "converged"
    assert np.linalg.norm(report.final_point - [2.0, 0.0]) <= 1e-8
    factor = heat_diag_coordinate_factor(1.0, 1.0, SQRT2, 0.25, 0.25)
    recs = report.iterates_recorded
    for prev, nxt in zip(recs[:20], recs[1:21]):
        assert nxt.point[1] / prev.point[1] == pytest.approx(factor, abs=1e-12)
        assert nxt.point[0] == 2.0


# ---- suzuki averaged mann -----------------------------------------------------------

def test_suzuki_decay_example():
    spec = decay(dim=1, box_max=10.0)
    report = suzuki_averaged_mann(spec, cfg(start=[3.0], lam=0.5, max_iter=30, tol=1e-14))
    assert report.final_point[0] <= 0.01


def test_suzuki_rotation_example():
    spec = rotation(period=1.0)
    report = suzuki_averaged_mann(spec, cfg(start=[1.0, 0.0], lam=0.5, max_iter=60, tol=1e-14))
    assert np.linalg.norm(report.final_point) <= 0.05


# ---- ishikawa ----------------------------------------------------------------------

def test_ishikawa_decay_example():
    spec = decay(dim=1, box_max=10.0)
    report = ishikawa_composed(spec, cfg(start=[3.0], kappa=0.5, lam=0.5, max_iter=60, tol=1e-14))
    assert report.final_point[0] <= 1e-6


def test_ishikawa_heat_per_step_factors():
    # second coordinate shrinks by ((1+e^{-1})/2) * ((1+e^{-sqrt2})/2)^n at
    # outer step n; the first (kernel) coordinate never moves
    spec = heat(np.diag([0.0, 1.0]))
    report = ishikawa_composed(
        spec, cfg(start=[1.0, 4.0], kappa=0.5, lam=0.5, max_iter=9, tol=1e-300, record_all=True)
    )
    a_inner = (1.0 + math.exp(-SQRT2)) / 2.0
    a_outer = (1.0 + math.exp(-1.0)) / 2.0
    v = 4.0
    for rec in report.iterates_recorded:
        assert rec.point[1] == pytest.approx(v, rel=1e-12)
        assert rec.point[0] == 1.0
        v *= a_outer * a_inner**rec.n
    report = ishikawa_composed(
        spec, cfg(start=[1.0, 4.0], kappa=0.5, lam=0.5, max_iter=60, tol=1e-14)
    )
    assert np.linalg.norm(report.final_point - [1.0, 0.0]) <= 1e-6


# ---- browder implicit ---------------------------------------------------------------

def test_browder_scalar_damped_solution():
    # at lam_1 = 1/2 the implicit equation on the scalar decay flow reads
    # x = 0.25(max(x-1,0) + max(x-sqrt2,0)) + 0.5, solved by x = 0.5
    spec = decay(dim=1, box_max=10.0)
    report = browder_implicit(
        spec, cfg(u=[1.0], start=[1.0], schedule=make_schedule("harmonic", 1), max_iter=1)
    )
    assert report.final_point[0] == pytest.approx(0.5, abs=1e-9)
    assert report.inner_residuals[0] <= 1e-10


def test_browder_inner_residual_contraction_bound():
    spec = heat(np.diag([0.0, 1.0]))
    u = np.array([3.0, 4.0])
    lam = 0.1

    trace = []  # the residual ||step(z) - z|| of every sweep, as the solver computes it

    def step(z):
        fz = 0.5 * (1 - lam) * (evaluate(spec, 1.0, z) + evaluate(spec, SQRT2, z)) + lam * u
        trace.append(np.linalg.norm(fz - z))
        return fz

    _, sweeps, r, ok = _banach_solve(step, np.zeros(2), 1e-12, 10**5, 1.0 - lam)
    assert ok and r <= 1e-12
    for m, res in enumerate(trace):
        assert res <= (1.0 - lam) ** m * trace[0] + 1e-12


def test_browder_inner_failure_is_reported():
    spec = decay(dim=1, box_max=10.0)
    report = browder_implicit(
        spec,
        cfg(u=[5.0], start=[5.0], schedule=make_schedule("power", 1, p=0.5), inner_cap=2, max_iter=50),
    )
    assert report.termination == "inner_solver_failure"
    assert report.inner_residuals[-1] > 1e-10  # the unmet inner_tol
    assert len(report.inner_steps) == report.n_used


def test_browder_heat_tracks_closed_form():
    spec = heat(np.diag([0.0, 1.0]))
    c = (math.exp(-1.0) + math.exp(-SQRT2)) / 2.0
    sched = make_schedule("harmonic", 1)
    report = browder_implicit(
        spec,
        cfg(u=[3.0, 4.0], schedule=sched, max_iter=25, inner_tol=1e-12, record_all=True),
    )
    for rec in report.iterates_recorded:
        lam_n = sched(rec.n)
        expected = lam_n * 4.0 / (1.0 - (1.0 - lam_n) * c)
        assert rec.point[0] == pytest.approx(3.0, abs=1e-10)
        assert rec.point[1] == pytest.approx(expected, abs=1e-8)


# ---- halpern ------------------------------------------------------------------------

def test_halpern_rational_pair_discriminator():
    # T(1) = T(2) = identity collapses the iteration onto the anchor, which
    # converges instantly but is no common fixed point of the family
    spec = rotation(period=1.0)
    with pytest.warns(NearRationalWarning):
        report = halpern(
            spec,
            cfg(alpha=1.0, beta=2.0, u=[1.0, 0.0], start=[1.0, 0.0], schedule=make_schedule("harmonic", 1)),
        )
    assert report.termination == "converged"
    assert np.linalg.norm(report.final_point - [1.0, 0.0]) <= 1e-6
    assert report.final_record.pair_residual <= 1e-10
    prof = residual_profile(spec, report.final_point, [0.5], 1.0, SQRT2)
    assert prof.residuals[0] >= 1.0


def test_rational_pair_warns_on_the_scheme_path():
    spec = rotation(period=1.0)
    anchored = dict(u=[1.0, 0.0], start=[1.0, 0.0], max_iter=5)
    with pytest.warns(NearRationalWarning):
        halpern(spec, cfg(alpha=1.0, beta=2.0, **anchored))
    with warnings.catch_warnings():
        warnings.simplefilter("error", NearRationalWarning)
        halpern(spec, cfg(**anchored))


def test_near_rational_warning_points_at_the_caller():
    spec = rotation(period=1.0)
    x = np.array([1.0, 0.0])
    anchored = dict(alpha=1.0, beta=2.0, u=x, max_iter=3)
    calls = {
        "residual_pair": lambda: residual_pair(spec, x, 1.0, 2.0),
        "certify_common_fixed": lambda: certify_common_fixed(spec, x, 1.0, 2.0),
        "halpern": lambda: halpern(spec, cfg(start=x, **anchored)),
        "run_scheme": lambda: run_scheme("halpern", spec, cfg(start=x, **anchored)),
        "run_rows": lambda: run_rows("halpern", spec, cfg(start=[x, 0.5 * x], **anchored)),
    }
    for name, call in calls.items():
        with pytest.warns(NearRationalWarning) as caught:
            call()
        assert [w.filename for w in caught] == [__file__], name


def test_halpern_irrational_pair_reaches_the_center():
    spec = rotation(period=1.0)
    report = halpern(
        spec,
        cfg(u=[1.0, 0.0], start=[1.0, 0.0], schedule=make_schedule("harmonic", 1), tol=1e-6, max_iter=50_000),
    )
    assert np.linalg.norm(report.final_point) <= 1e-4


# ---- cross-scheme properties --------------------------------------------------------

def monotone_scheme_runs():
    rng = np.random.default_rng(77)
    runs = []
    for spec in (rotation(period=1.0), decay(dim=2), heat(np.diag([0.0, 1.0]))):
        if hasattr(spec.domain, "radius"):
            x0 = spec.domain.center + rng.uniform(-2.0, 2.0, size=spec.dim)
        else:
            x0 = rng.uniform(spec.domain.lower, spec.domain.upper)
        runs.append((mann, spec, cfg(start=x0, max_iter=300, tol=1e-13, record_all=True)))
        runs.append((suzuki_averaged_mann, spec, cfg(start=x0, lam=0.5, max_iter=40, tol=1e-13, record_all=True)))
        runs.append((ishikawa_composed, spec, cfg(start=x0, kappa=0.5, lam=0.5, max_iter=80, tol=1e-13, record_all=True)))
    return runs


def test_fejer_monotonicity_and_domain_confinement():
    for fn, spec, c in monotone_scheme_runs():
        report = fn(spec, c)
        assert report.fejer_violations == 0, fn.__name__
        for rec in report.iterates_recorded:
            assert spec.domain.contains(rec.point, slack=1e-9)
        # distance to the analytic set is nonincreasing along the trace too
        fsd = [rec.fixed_set_distance for rec in report.iterates_recorded]
        assert all(b <= a + 1e-10 for a, b in zip(fsd, fsd[1:]))


def boundary_point(domain, rng):
    """A point just inside the domain: on a ball, at radius * (1 - 1e-15) from
    the center; on a box, between 0.9 and 1.0 of its upper corner."""
    if isinstance(domain, Ball):
        g = rng.standard_normal(domain.dim)
        return domain.center + domain.radius * (1.0 - 1e-15) / np.linalg.norm(g) * g
    return rng.uniform(0.9, 1.0, size=domain.dim) * domain.upper


def test_every_scheme_keeps_boundary_starts_in_the_domain():
    rng = np.random.default_rng(22)
    flows = [*row_specs(), rotation(period=1.0, center=(0.5, -0.25), dim=3, radius=5.0)]
    for spec in flows:
        start, u = boundary_point(spec.domain, rng), boundary_point(spec.domain, rng)
        for tag in SCHEME_TAGS:
            report = run_scheme(tag, spec, cfg(start=start, u=u, max_iter=25, tol=1e-15, record_all=True))
            assert report.iterates_recorded, (tag, spec.kind, spec.dim)
            for rec in report.iterates_recorded:
                assert spec.domain.exterior_distance(rec.point) <= MEMBERSHIP_SLACK, (tag, spec.kind, spec.dim, rec.n)


def test_anchored_iterates_stay_in_domain():
    spec = rotation(period=1.0)
    c = cfg(u=[1.0, 0.0], start=[0.0, -1.0], schedule=make_schedule("harmonic", 1), max_iter=500, record_all=True)
    report = halpern(spec, c)
    for rec in report.iterates_recorded:
        assert spec.domain.contains(rec.point, slack=1e-9)


def test_converged_runs_certify():
    cases = [
        (mann, decay(dim=2), cfg(start=[3.0, 5.0], max_iter=10_000)),
        (mann, heat(np.diag([0.0, 1.0])), cfg(start=[2.0, 3.0], max_iter=10_000)),
        (suzuki_averaged_mann, decay(dim=1), cfg(start=[3.0], lam=0.5, max_iter=100)),
        (ishikawa_composed, decay(dim=1), cfg(start=[3.0], kappa=0.5, lam=0.5, max_iter=200)),
        (halpern, decay(dim=2), cfg(start=[3.0, 1.0], u=[0.0, 0.0], schedule=make_schedule("harmonic", 1), max_iter=2_000)),
        (browder_implicit, decay(dim=2), cfg(start=[1.0, 1.0], u=[0.0, 0.0], schedule=make_schedule("harmonic", 1), max_iter=10)),
    ]
    for fn, spec, c in cases:
        report = fn(spec, c)
        assert report.termination == "converged", fn.__name__
        assert report.final_record.pair_residual <= c.tol
        assert report.final_record.step_norm <= c.tol
        cert = certify_common_fixed(spec, report.final_point, c.alpha, c.beta, tol=c.tol)
        assert cert.verdict == "certified", fn.__name__


# ---- recording cadence --------------------------------------------------------------

def test_recording_thins_geometrically_after_100():
    spec = rotation(period=1.0)
    c = cfg(u=[1.0, 0.0], start=[1.0, 0.0], schedule=make_schedule("harmonic", 1), tol=1e-15, max_iter=3000)
    report = halpern(spec, c)
    assert report.termination == "max_iter"
    ns = [rec.n for rec in report.iterates_recorded]
    expected = list(range(1, 101)) + [128, 181, 256, 362, 512, 724, 1024, 1448, 2048, 2896, 3000]
    assert ns == expected


def test_record_all_keeps_every_iterate():
    spec = rotation(period=1.0)
    c = cfg(u=[1.0, 0.0], start=[1.0, 0.0], schedule=make_schedule("harmonic", 1), tol=1e-15, max_iter=150, record_all=True)
    report = halpern(spec, c)
    assert [rec.n for rec in report.iterates_recorded] == list(range(1, 151))


def test_thinned_records_equal_the_record_all_records():
    # the recorder builds a record only for the iterates it keeps; each
    # kept record, the final one included, must match the full trace
    rotation_spec = rotation(period=1.0, center=(0.5, 0.0))
    runs = (
        (halpern, cfg(u=[1.0, 0.0], start=[2.0, 1.0], tol=1e-15, max_iter=1500)),
        (mann, cfg(start=[2.0, 1.0], kappa=0.02, lam=0.01, tol=1e-15, max_iter=1500)),
    )
    for scheme, c in runs:
        thinned = scheme(rotation_spec, c)
        c.record_all = True
        full = scheme(rotation_spec, c)
        assert thinned.n_used == full.n_used > 362
        by_n = {rec.n: rec for rec in full.iterates_recorded}
        assert len(thinned.iterates_recorded) < len(by_n)
        assert thinned.iterates_recorded[-1].n == thinned.n_used
        for rec in thinned.iterates_recorded:
            ref = by_n[rec.n]
            assert rec.pair_residual == ref.pair_residual
            assert rec.step_norm == ref.step_norm
            assert rec.fixed_set_distance == ref.fixed_set_distance
            assert np.array_equal(rec.point, ref.point)
        assert np.array_equal(thinned.final_point, full.final_point)
        assert thinned.fejer_violations == full.fejer_violations
    assert thinned.fejer_violations == 0
    # Fejer counting must see the iterates that are not kept: distance 1, 2,
    # 1, 2, ... to the fixed set {0} rises on every even n
    rec = _Recorder(decay(dim=1), track_fejer=True)
    for n in range(1, 301):
        rec.add_block(n, [np.array([2.0 - n % 2])], [0.0], [0.0])
    report = rec.finish("mann", "max_iter")
    assert report.fejer_violations == 150
    assert report.iterates_recorded[-1].fixed_set_distance == 2.0


def recorder_reports(spec, points, pair, step, ends, tol=-math.inf, record_all=False, fsd=None):
    """The reports of two _Recorders fed the same iterates and stopped at the first with
    pair and step at most tol: one iterate at a time, and a block at a time, through
    _stops and add_block, the blocks ending after the iterates in ``ends``.  fsd holds
    the distances to pass, or None."""
    track = {"track_fejer": True, "record_all": record_all}
    one, blocked = _Recorder(spec, **track), _Recorder(spec, **track)
    for n, (x, p, s) in enumerate(zip(points, pair, step), start=1):
        one.add_block(n, [x], [p], [s], None if fsd is None else [fsd[n - 1]])
        if p <= tol and s <= tol:
            break
    edges = [0] + [e for e in ends if e < len(points)] + [len(points)]
    for lo, hi in zip(edges, edges[1:]):
        stop = schemes._stops(np.array(pair[lo:hi]), np.array(step[lo:hi]), tol)[0]
        blocked.add_block(lo + 1, points[lo:hi], pair[lo:hi], step[lo:hi], None if fsd is None else fsd[lo:hi], stop)
        if stop:
            break
    return one.finish("halpern", "max_iter"), blocked.finish("halpern", "max_iter")


def test_block_recording_equals_recording_each_iterate():
    # blocks whose edges fall at the kept iterates 100/101, 128 and 181 and
    # beside them, with runs that stop at a block's first iterate, inside a
    # block, at its last or not at all; thinned and recording every iterate
    rng = np.random.default_rng(26)
    spec = rotation(period=1.0, center=(0.5, -0.25))
    size = 400
    points = spec.domain.center + rng.uniform(-3.0, 3.0, size=(size, 2))
    pair, step = rng.uniform(1e-3, 1.0, size).tolist(), rng.uniform(1e-3, 1.0, size).tolist()
    step[0] = 0.0
    fsd_all = [schemes.fixed_set_distance(analytic_fixed_set(spec), x) for x in points]
    rises = sum(b > a + schemes.FEJER_SLACK for a, b in zip(fsd_all, fsd_all[1:]))
    assert rises > 100
    for ends in ([100, 128, 181, 300], [99, 101, 127, 129, 180, 182], [50, 200, 399]):
        for stop in (None, 101, 129, 150, 181, 399):
            tol = -math.inf
            if stop is not None:
                tol = 1e-4
                pair[stop - 1], step[stop - 1] = 1e-5, 1e-5
            for record_all in (False, True):
                for fsd in (None, fsd_all):
                    one, blocked = recorder_reports(spec, points, pair, step, ends, tol, record_all, fsd)
                    assert report_bits(blocked) == report_bits(one), (ends, stop, record_all)
                    assert blocked.fejer_violations == one.fejer_violations
                    n_used = stop or size
                    assert blocked.n_used == n_used
                    kept = [n for n in range(1, n_used + 1) if record_all or n in schemes.KEPT or n == n_used]
                    assert [r.n for r in blocked.iterates_recorded] == kept
                    assert blocked.fejer_violations == sum(
                        b > a + schemes.FEJER_SLACK for a, b in zip(fsd_all[: n_used - 1], fsd_all[1:n_used]))
            if stop is not None:
                pair[stop - 1], step[stop - 1] = 0.5, 0.5


def test_block_recording_counts_a_rise_on_a_blocks_first_iterate():
    # distances to {0} on decay(dim=1): the rise from 1 to 2 falls between
    # the first block's last iterate and the second block's first
    spec = decay(dim=1)
    points = np.array([[3.0], [2.0], [1.0], [2.0], [1.5], [1.0], [1.0 + 1e-11], [3.0]])
    pair, step = [1.0] * 8, [1.0] * 8
    for ends in ([3], [3, 6], [1, 2, 3, 4, 5, 6, 7]):
        one, blocked = recorder_reports(spec, points, pair, step, ends)
        assert one.fejer_violations == blocked.fejer_violations == 2, ends  # at n=4 and n=8, not at n=7
        assert report_bits(blocked) == report_bits(one)


def test_block_recording_of_a_nan_distance():
    # a NaN distance never counts as a rise, neither against the one before
    # it nor for the one after it, and is recorded as it is
    spec = decay(dim=1)
    points = np.array([[1.0], [2.0], [3.0], [1.0], [4.0], [5.0]])
    fsd = [1.0, math.nan, 3.0, 1.0, 4.0, math.nan]
    pair, step = [1.0] * 6, [1.0] * 6
    for ends in ([], [1], [2], [1, 2, 3, 4, 5]):
        one, blocked = recorder_reports(spec, points, pair, step, ends, fsd=fsd)
        assert one.fejer_violations == blocked.fejer_violations == 1, ends  # at n=5 only
        assert report_bits(blocked) == report_bits(one)
        assert math.isnan(blocked.iterates_recorded[1].fixed_set_distance)
        assert math.isnan(blocked.final_record.fixed_set_distance)


def test_report_dict_shape():
    spec = decay(dim=1)
    report = mann(spec, cfg(start=[1.0], max_iter=50))
    d = report.to_dict()
    assert d["scheme_tag"] == "mann"
    assert d["termination"] == "converged"
    assert d["fejer_violations"] == 0
    assert len(d["final_point"]) == 1
    assert d["iterates_recorded"][0] == {
        "n": 1,
        "pair_residual": report.iterates_recorded[0].pair_residual,
        "step_norm": 0.0,
        "fixed_set_distance": report.iterates_recorded[0].fixed_set_distance,
    }
    assert DEFAULT_MAX_ITER["halpern"] == 50_000


def test_anchored_schemes_require_anchor():
    spec = decay(dim=1)
    with pytest.raises(ValueError, match="^halpern needs a value for u$"):
        halpern(spec, cfg(start=[1.0]))
    with pytest.raises(ValueError, match="^browder_implicit needs a value for u$"):
        browder_implicit(spec, cfg(start=[1.0]))
    with pytest.raises(ValueError):
        mann(spec, cfg())  # no start point


def test_start_and_anchor_are_checked_before_iterating(monkeypatch):
    # radius-10 rotation disc in the plane: (1, 0) is inside, (50, 0) is
    # outside, and a 3-vector has the wrong dimension; every scheme checks
    # an anchor it is given, and only the anchored ones use it
    calls = count_applications(monkeypatch)
    spec = rotation(period=1.0)
    good = [1.0, 0.0]
    bad = (
        ([1.0, 0.0, 0.0], r"has shape \(3,\), the semigroup expects \(2,\)"),
        ([50.0, 0.0], "lies outside the domain"),
    )
    for tag in SCHEME_TAGS:
        for name in ("start", "u"):
            for point, message in bad:
                kw = {"start": good, "u": good, name: point}
                with pytest.raises(ValueError, match=rf"^{name} {message}"):
                    run_scheme(tag, spec, cfg(max_iter=5, **kw))
    assert calls == []
    for tag in sorted(set(SCHEME_TAGS) - {"browder_implicit", "halpern"}):
        anchored = run_scheme(tag, spec, cfg(start=good, u=[0.0, 3.0], max_iter=5))
        assert anchored.to_dict() == run_scheme(tag, spec, cfg(start=good, max_iter=5)).to_dict()


def test_a_wide_ball_takes_every_norm_of_a_run_rescaled():
    # on a ball wider than 2^500 the squares of the differences of its points may
    # overflow: a run's pair residuals, steps and distances, from one start and as
    # rows, are finite, and no overflow is warned of.  A rotation about the origin
    # scaled by 2^530 scales each iterate exactly, and each norm within rounding
    scale = 2.0 ** 530
    narrow, wide = rotation(period=1.0, radius=2.0), rotation(period=1.0, radius=2.0 * scale)
    x0, u = np.array([1.2, -0.8]), np.array([0.5, 0.0])
    for tag in SCHEME_TAGS:
        c = cfg(start=x0, u=u, max_iter=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_scheme(tag, wide, replace(c, start=scale * x0, u=scale * u))
            rows = run_rows(tag, wide, replace(c, start=scale * np.array([x0, -x0]), u=scale * u)) if (
                tag in ROW_SCHEMES) else [report]
        for rec in report.iterates_recorded + rows[-1].iterates_recorded:
            assert all(math.isfinite(v) and v > 0.0 for v in (rec.pair_residual, rec.fixed_set_distance)), tag
        if tag == "browder_implicit":
            continue  # its inner tolerance is absolute, so its sweeps do not scale
        for rec, ref in zip(report.iterates_recorded, run_scheme(tag, narrow, c).iterates_recorded, strict=True):
            assert rec.point.tobytes() == (scale * ref.point).tobytes(), (tag, rec.n)
            for name in ("pair_residual", "step_norm", "fixed_set_distance"):
                assert getattr(rec, name) == pytest.approx(scale * getattr(ref, name), rel=1e-14, abs=0.0), (tag, name)


def test_a_wide_box_takes_every_norm_of_a_run_rescaled():
    # a decay box whose bound exceeds 2^500 may hold points whose squares overflow: a
    # run's pair residuals, steps and distances, from one start and as rows, are
    # finite, and no overflow is warned of.  The flow, its times and points scaled by
    # 2^600 scale each iterate exactly, and each norm within rounding
    scale = 2.0 ** 600
    narrow, wide = decay(dim=2, box_max=10.0), decay(dim=2, box_max=10.0 * scale)
    assert wide.domain.wide and not narrow.domain.wide
    x0, u = np.array([9.0, 3.0]), np.array([5.0, 0.5])
    for tag in SCHEME_TAGS:
        c = cfg(start=x0, u=u, max_iter=3)
        big = replace(c, alpha=scale * c.alpha, beta=scale * c.beta, start=scale * x0, u=scale * u)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_scheme(tag, wide, big)
            rows = run_rows(tag, wide, replace(big, start=scale * np.array([x0, 0.5 * x0]))) if (
                tag in ROW_SCHEMES) else [report]
        for rec in report.iterates_recorded + rows[-1].iterates_recorded:
            assert all(math.isfinite(v) and v > 0.0 for v in (rec.pair_residual, rec.fixed_set_distance)), tag
        if tag == "browder_implicit":
            continue  # its inner tolerance is absolute, so its sweeps do not scale
        for rec, ref in zip(report.iterates_recorded, run_scheme(tag, narrow, c).iterates_recorded, strict=True):
            assert rec.point.tobytes() == (scale * ref.point).tobytes(), (tag, rec.n)
            for name in ("pair_residual", "step_norm", "fixed_set_distance"):
                assert getattr(rec, name) == pytest.approx(scale * getattr(ref, name), rel=1e-14, abs=0.0), (tag, name)


def test_every_scheme_honours_its_default_budget(monkeypatch):
    # max_iter None takes DEFAULT_MAX_ITER[tag], read at call time; every
    # other tag gets 4, so a budget read under the wrong tag shows
    def budgets(tag):
        for other in DEFAULT_MAX_ITER:
            monkeypatch.setitem(DEFAULT_MAX_ITER, other, 3 if other == tag else 4)

    spec = rotation(period=1.0, center=(0.5, -0.25))
    kw = dict(u=[1.0, 0.0], tol=1e-14)
    for tag in SCHEME_TAGS:
        budgets(tag)
        report = run_scheme(tag, spec, cfg(start=[0.0, 2.0], **kw))
        assert (report.termination, report.n_used) == ("max_iter", 3), tag
    for tag in ROW_SCHEMES:
        budgets(tag)
        reports = run_rows(tag, spec, cfg(start=[[0.0, 2.0], [-1.0, 1.0]], **kw))
        assert [(r.termination, r.n_used) for r in reports] == [("max_iter", 3)] * 2, tag


def test_a_vanishing_power_exponent_is_a_named_error():
    # 2**-1e-16 and 3**-1e-16 round to the same weight just below 1
    with pytest.raises(ValueError, match=r"exponent 1e-16"):
        make_schedule("power", 1, p=1e-16)
    with pytest.raises(ValueError, match=r"exponent 1e-16"):
        parse_schedule("power:1e-16,1")


def test_a_config_without_schedule_runs_harmonic_1():
    assert cfg().schedule == make_schedule("harmonic", offset=1)
    spec = rotation(period=1.0, center=(0.5, -0.25))
    for scheme in (halpern, browder_implicit):
        reports = [
            scheme(spec, cfg(start=[0.0, 2.0], u=[1.0, 0.0], max_iter=60, schedule=schedule))
            for schedule in (None, parse_schedule("harmonic:1"))
        ]
        texts = [json.dumps(r.to_dict(), sort_keys=True) for r in reports]
        assert texts[0] == texts[1], scheme.__name__
        assert reports[0].final_point.tobytes() == reports[1].final_point.tobytes()
