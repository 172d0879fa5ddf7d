import math
import warnings

import numpy as np
import pytest

from semiflow import schemes
from semiflow.characterize import NearRationalWarning, certify_common_fixed, residual_profile
from semiflow.schemes import (
    BAILLON_GRID_CAP,
    DEFAULT_MAX_ITER,
    IterationConfig,
    SCHEME_TAGS,
    _Recorder,
    _banach_solve,
    _double_block_average,
    baillon_double,
    baillon_power_average,
    browder_implicit,
    halpern,
    ishikawa_composed,
    make_schedule,
    mann,
    parse_schedule,
    run_scheme,
    suzuki_averaged_mann,
)
from semiflow.semigroups import analytic_fixed_set, decay, evaluate, heat, operator, rotation

from .oracles import (
    heat_diag_coordinate_factor,
    mann_decay_orbit,
    midpoint_rotation_matrix,
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


def count_applications(monkeypatch):
    """Count every application of the operators the schemes compile; returns the list of times."""
    calls = []

    def counting_operator(spec, t):
        apply = operator(spec, t)

        def counted(x):
            calls.append(t)
            return apply(x)

        return counted

    monkeypatch.setattr(schemes, "operator", counting_operator)
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


def test_baillon_double_grid_cap():
    spec = decay(dim=1)
    with pytest.raises(ValueError):
        baillon_double(spec, cfg(start=[1.0], max_iter=BAILLON_GRID_CAP + 1))


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

    def step(z):
        return 0.5 * (1 - lam) * (evaluate(spec, 1.0, z) + evaluate(spec, SQRT2, z)) + lam * u

    trace = []
    _, sweeps, r, ok = _banach_solve(step, np.zeros(2), 1e-12, 10**5, 1.0 - lam, trace=trace)
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
        rec.add(n, 0.0, 0.0, np.array([2.0 - n % 2]))
    report = rec.finish("mann", "max_iter")
    assert report.fejer_violations == 150
    assert report.iterates_recorded[-1].fixed_set_distance == 2.0


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
    with pytest.raises(ValueError):
        halpern(spec, cfg(start=[1.0]))
    with pytest.raises(ValueError):
        browder_implicit(spec, cfg(start=[1.0]))
    with pytest.raises(ValueError):
        mann(spec, cfg())  # no start point


def test_start_and_anchor_are_checked_before_iterating(monkeypatch):
    # radius-10 rotation disc in the plane: (1, 0) is inside, (50, 0) is
    # outside, and a 3-vector has the wrong dimension
    calls = count_applications(monkeypatch)
    spec = rotation(period=1.0)
    good = [1.0, 0.0]
    bad = (
        ([1.0, 0.0, 0.0], r"has shape \(3,\), the semigroup expects \(2,\)"),
        ([50.0, 0.0], "lies outside the domain"),
    )
    for scheme, fields in ((halpern, ("start", "u")), (browder_implicit, ("start", "u")), (mann, ("start",))):
        for name in fields:
            for point, message in bad:
                kw = {"start": good, "u": good, name: point}
                with pytest.raises(ValueError, match=rf"^{name} {message}"):
                    scheme(spec, cfg(**kw))
    assert calls == []
