import contextlib
import math
import re
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from semiflow import characterize, schemes, semigroups
from semiflow.characterize import (
    PLAN_CACHE_SIZE,
    Certificate,
    NearRationalWarning,
    bruck_map,
    certify_common_fixed,
    default_profile_grid,
    profile_tolerance,
    residual_pair,
    residual_profile,
)
from semiflow.schemes import IterationConfig, _float_blocks, _Rule
from semiflow.semigroups import (
    INTERIOR_MARGIN,
    MEMBERSHIP_SLACK,
    _checker,
    _pair_kernel,
    analytic_fixed_set,
    decay,
    evaluate,
    fixed_set_distance,
    heat,
    orbit,
    rotation,
)

SQRT2 = math.sqrt(2.0)
BENCH_DIR = str(Path(__file__).resolve().parent.parent / "bench")


def builtin_specs():
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


def fixed_members(spec, rng, n):
    """Concrete points of the analytic common fixed set."""
    fs = analytic_fixed_set(spec)
    if fs.kind == "singleton":
        return np.tile(fs.point, (n, 1))
    coeffs = rng.uniform(-1.0, 1.0, size=(n, fs.basis.shape[1]))
    return fs.basepoint + coeffs @ fs.basis.T


# ---- pair residual -----------------------------------------------------------------

def test_pair_residual_zero_at_center():
    spec = rotation(period=1.0)
    assert residual_pair(spec, np.zeros(2), 1.0, SQRT2) == 0.0


def test_pair_residual_blind_to_rational_pairs():
    spec = rotation(period=1.0)
    with pytest.warns(NearRationalWarning):
        r = residual_pair(spec, np.array([1.0, 0.0]), 1.0, 2.0)
    assert r <= 1e-12


def test_pair_residual_chord_value():
    # T(sqrt2) moves (1,0) by the chord 2|sin(pi*sqrt2)| on the unit circle;
    # T(1) is the identity, so the pair residual is that chord
    spec = rotation(period=1.0)
    r = residual_pair(spec, np.array([1.0, 0.0]), 1.0, SQRT2)
    assert r == pytest.approx(2.0 * abs(math.sin(math.pi * SQRT2)), rel=1e-12)


# ---- near-rational probe -----------------------------------------------------------

def test_rational_pair_warns():
    spec = rotation(period=1.0)
    with pytest.warns(NearRationalWarning):
        residual_pair(spec, np.zeros(2), 1.0, 2.0)


def test_near_rational_pair_warns():
    spec = rotation(period=1.0)
    with pytest.warns(NearRationalWarning):
        residual_pair(spec, np.zeros(2), 1.0, 2.0 + 1e-9)


def test_irrational_pair_is_silent():
    spec = rotation(period=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", NearRationalWarning)
        residual_pair(spec, np.zeros(2), 1.0, SQRT2)
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        residual_pair(spec, np.zeros(2), 1.0, golden)


# ---- residual profile --------------------------------------------------------------

def test_default_grid_contains_pair_times():
    grid = default_profile_grid(1.0, SQRT2)
    for t in (1.0, SQRT2, 1.0 + SQRT2, SQRT2 - 1.0):
        assert np.min(np.abs(grid - t)) == 0.0
    assert grid[0] == 0.0
    assert grid.max() <= 5.0 + 1e-12
    assert np.all(np.diff(grid) > 0)
    # the sorted, deduplicated union of the uniform grid and the pair times
    for alpha, beta, stop, step in ((1.0, SQRT2, 5.0, 0.01), (1.0, 2.0, 5.0, 0.01), (0.37, 4.2, 3.0, 0.37)):
        base = np.arange(0.0, stop + 0.5 * step, step)
        reference = np.unique(np.concatenate([base, [alpha, beta, alpha + beta, abs(alpha - beta)]]))
        assert np.array_equal(default_profile_grid(alpha, beta, stop=stop, step=step), reference)


def test_profile_zero_at_time_zero_and_on_fixed_points():
    rng = np.random.default_rng(21)
    for spec in builtin_specs():
        for z in fixed_members(spec, rng, 5):
            prof = residual_profile(spec, z, np.arange(0.0, 5.01, 0.5), 1.0, SQRT2)
            assert prof.residuals[0] <= 1e-12
            assert prof.max_residual <= 1e-10


def test_profile_rational_counterexample():
    spec = rotation(period=1.0)
    with pytest.warns(NearRationalWarning):
        prof = residual_profile(spec, np.array([1.0, 0.0]), [0.5], 1.0, 2.0)
    assert prof.pair_residual <= 1e-12
    assert prof.residuals[0] == pytest.approx(2.0, rel=1e-12)
    assert prof.argmax_t == 0.5


def test_profile_validates_grid():
    spec = decay(dim=1)
    with pytest.raises(ValueError):
        residual_profile(spec, np.array([1.0]), [], 1.0, SQRT2)
    with pytest.raises(ValueError):
        residual_profile(spec, np.array([1.0]), [-0.5], 1.0, SQRT2)
    with pytest.raises(ValueError):
        residual_profile(spec, np.array([1.0]), [math.inf], 1.0, SQRT2)


def serial_profile(spec, x, grid, alpha, beta):
    """Grid times, residuals and pair residual, one evaluate() per time:
    the reference for the batched profile."""
    x = np.asarray(x, dtype=float)
    times = [float(t) for t in np.asarray(grid, dtype=float).ravel()]
    residuals = [float(np.linalg.norm(evaluate(spec, t, x) - x)) for t in times]
    ra = float(np.linalg.norm(evaluate(spec, alpha, x) - x))
    rb = float(np.linalg.norm(evaluate(spec, beta, x) - x))
    return times, residuals, max(ra, rb)


def assert_profile_matches_serial(spec, x, alpha, beta, grid=None):
    """The certificate's pair residual equals the serial one bit for bit,
    its profile residuals lie within 1e-12 of the serial ones, and its
    verdict is the one the serial numbers give."""
    if grid is None:
        grid = default_profile_grid(alpha, beta)
    times, residuals, pair = serial_profile(spec, x, grid, alpha, beta)
    prof = residual_profile(spec, x, grid, alpha, beta)
    assert prof.grid == tuple(times)
    assert prof.pair_residual == pair
    assert np.abs(np.array(prof.residuals) - residuals).max() <= 1e-12
    cert = certify_common_fixed(spec, x, alpha, beta, grid=grid)
    assert cert.pair_residual == pair
    serial_certified = pair <= cert.tol and max(residuals) <= cert.profile_tol
    assert (cert.verdict == "certified") == serial_certified
    return cert


def test_profile_matches_the_serial_loop():
    rng = np.random.default_rng(44)
    q, _ = np.linalg.qr(rng.normal(size=(64, 64)))
    w = np.concatenate([np.zeros(4), rng.uniform(0.5, 4.0, 60)])
    specs = builtin_specs() + [
        rotation(center=(0.5, -0.25), period=1.0),
        rotation(center=(0.0, 1.0), period=1.7, dim=3),
        decay(dim=3),
        heat((q * w) @ q.T),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NearRationalWarning)
        for spec in specs:
            points = list(sample_inside(spec, rng, 3)) + list(fixed_members(spec, rng, 2))
            for x in points:
                for alpha, beta in ((1.0, SQRT2), (1.0, 2.0)):
                    assert_profile_matches_serial(spec, x, alpha, beta)
            assert_profile_matches_serial(spec, points[0], 1.0, SQRT2, grid=[0.5, 0.0, 3.25, 0.5])


def test_benchmark_certificates_match_the_serial_loop(monkeypatch):
    # every distinct (flow, point, pair) of the certify_mixed benchmark
    # schedule, seeds 1-3, keeps the verdict the benchmark expects: true
    # fixed points are certified on every pair, the others on none
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NearRationalWarning)
        for seed in (1, 2, 3):
            w = workloads.CertifyMixed(seed=seed, workdir=None)
            w.setup()
            seen = set()
            for spec, x, is_fixed, alpha, beta, _ in w.schedule:
                key = (id(spec), id(x), alpha, beta)
                if key in seen:
                    continue
                seen.add(key)
                cert = assert_profile_matches_serial(spec, x, alpha, beta)
                assert (cert.verdict == "certified") == is_fixed


# ---- profile plans -----------------------------------------------------------------

def plan_results(cases):
    """Certificate and profile of each (spec, x, pair, grid) case, as text
    that tells every float apart bit for bit (repr round-trips doubles)."""
    out = []
    for spec, x, (alpha, beta), grid in cases:
        cert = certify_common_fixed(spec, x, alpha, beta, grid=grid)
        prof = residual_profile(spec, x, grid, alpha, beta)
        out.append(repr((cert, prof)))
    return out


def test_plans_give_the_same_bits_on_a_miss_a_hit_and_after_a_clear():
    rng = np.random.default_rng(61)
    q, _ = np.linalg.qr(rng.normal(size=(64, 64)))
    specs = [heat((q * np.concatenate([np.zeros(4), rng.uniform(0.5, 4.0, 60)])) @ q.T), rotation(center=(0.5, -0.25))]
    cases = []
    for spec in specs:
        for pair in ((1.0, SQRT2), (1.0, 2.0)):
            for grid in (None, [0.5, 0.0, 3.25, 0.5]):
                cases += [(spec, x, pair, grid) for x in list(sample_inside(spec, rng, 2)) + list(fixed_members(spec, rng, 1))]
    n_plans = len(specs) * 2 * 2
    assert n_plans <= PLAN_CACHE_SIZE
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NearRationalWarning)
        characterize._plan.cache_clear()
        first = plan_results(cases)
        assert characterize._plan.cache_info().misses == n_plans
        second = plan_results(cases)
        assert characterize._plan.cache_info().misses == n_plans
        characterize._plan.cache_clear()
        characterize._near_rational.cache_clear()
        third = plan_results(cases)
    assert first == second == third
    # and the profile is the uncached orbit's, bit for bit
    for (spec, x, (alpha, beta), grid), text in zip(cases, first):
        moved = orbit(spec, default_profile_grid(alpha, beta) if grid is None else grid, x) - x
        assert repr(tuple(np.sqrt(np.einsum("ij,ij->i", moved, moved)).tolist())) in text


def test_specs_from_different_matrices_never_share_a_plan():
    x = np.full(3, 0.5)
    grid = default_profile_grid(1.0, SQRT2)
    seen = set()
    for k in range(2 * PLAN_CACHE_SIZE):
        # the spec is dropped after each call, so a plan keyed on a bare id
        # could be picked up by the next spec
        spec = heat(np.diag([0.0, 1.0, 0.05 * (k + 1)]))
        moved = orbit(spec, grid, x) - x
        expected = tuple(np.sqrt(np.einsum("ij,ij->i", moved, moved)).tolist())
        cert = certify_common_fixed(spec, x, 1.0, SQRT2)
        assert cert.max_profile_residual == max(expected), k
        assert residual_profile(spec, x, None, 1.0, SQRT2).residuals == expected, k
        seen.add(expected)
    assert len(seen) == 2 * PLAN_CACHE_SIZE


def test_a_cached_probe_still_warns_on_every_call_at_the_caller():
    spec = rotation(period=1.0)
    x = np.array([1.0, 0.0])
    before = characterize._near_rational.cache_info().hits
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(2):
            certify_common_fixed(spec, x, 1.0, 2.0)
    assert [(w.category, w.filename) for w in caught] == [(NearRationalWarning, __file__)] * 2
    assert characterize._near_rational.cache_info().hits > before


def test_an_explicit_grid_reuses_its_plan_by_its_bytes():
    spec = decay(dim=2)
    x = np.array([2.5, 0.25])
    characterize._plan.cache_clear()
    first = residual_profile(spec, x, [0.5, 0.0, 3.25], 1.0, SQRT2)
    again = residual_profile(spec, x, np.array([[0.5], [0.0], [3.25]]), 1.0, SQRT2)
    assert repr(again) == repr(first)
    assert characterize._plan.cache_info()[:2] == (1, 1)  # hits, misses
    residual_profile(spec, x, [0.5, 0.0, 3.5], 1.0, SQRT2)
    assert characterize._plan.cache_info()[:2] == (1, 2)
    # None is the default grid, under a key of its own
    assert repr(residual_profile(spec, x, None, 1.0, SQRT2)) == repr(
        residual_profile(spec, x, default_profile_grid(1.0, SQRT2), 1.0, SQRT2)
    )
    # an empty grid raises on every call: nothing is cached for it
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^the profile grid must contain at least one time$"):
            residual_profile(spec, x, [], 1.0, SQRT2)
    assert characterize._plan.cache_info().currsize == 4


# ---- certificates from the orbit blocks that can hold the maximum -----------------

def heat_flow(rng, d, kernel_dim, scale):
    """A d=dim heat flow with a kernel of kernel_dim dimensions and its
    other eigenvalues uniform on scale * [0.5, 4]."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    w = np.concatenate([np.zeros(kernel_dim), scale * rng.uniform(0.5, 4.0, d - kernel_dim)])
    a = (q * w) @ q.T
    return heat(0.5 * (a + a.T))


def certificate_from_profile(spec, x, alpha, beta, grid, tol=1e-8):
    """The certificate that residual_profile's maximum and first argmax,
    taken over every orbit block, give."""
    prof = residual_profile(spec, x, grid, alpha, beta)
    ptol = profile_tolerance(tol)
    certified = prof.pair_residual <= tol and prof.max_residual <= ptol
    verdict = "certified" if certified else "not_certified"
    return Certificate(prof.pair_residual, prof.max_residual, prof.argmax_t, verdict, tol, ptol)


def counted_blocks(monkeypatch):
    """The row counts of the orbit blocks computed from here on: a profile
    or a certificate computes the blocks it keeps with one _stacked call."""
    rows = []
    original = characterize._stacked

    def counted(blocks, *args):
        rows.extend(at.stop - at.start for at, _ in blocks)
        return original(blocks, *args)

    monkeypatch.setattr(characterize, "_stacked", counted)
    return rows


def at_norm(rng, d, norm):
    g = rng.normal(size=d)
    return g * (norm / np.linalg.norm(g))


def test_a_certificate_is_its_profiles_maximum_and_first_argmax_bit_for_bit(monkeypatch):
    # a heat certificate computes only the blocks that the spectrum cannot
    # rule out; its numbers must still be the ones every block gives
    rng = np.random.default_rng(71)
    rows = counted_blocks(monkeypatch)
    # unsorted, with duplicates and t = 0 twice, and one that spans more than one block at every d
    unsorted = rng.permutation(np.concatenate([np.linspace(0.0, 6.0, 301), [0.0, 2.5, 2.5, 6.0]]))
    long_grid = np.linspace(0.0, 20.0, 4500)
    # (d, kernel dimension, eigenvalue scale): scale 250 puts w up to 1e3, whose
    # profiles saturate into near-ties after t of about 0.3
    flows = [(1, 0, 1.0), (1, 1, 1.0), (3, 1, 1.0), (9, 2, 1.0), (16, 2, 1.0), (64, 4, 1.0),
             (3, 0, 250.0), (9, 1, 250.0), (64, 1, 250.0), (16, 2, 2.5e-4)]
    n_screened = n_cases = 0
    for d, kernel_dim, scale in flows:
        spec = heat_flow(rng, d, kernel_dim, scale)
        radius = spec.domain.radius
        kernel = spec.eigvecs[:, spec.eigvals <= 1e-10]
        moved = [at_norm(rng, d, radius * u) for u in rng.uniform(0.05, 0.95, 2)]
        # ||x|| = R(1 - 2 INTERIOR_MARGIN) still proves every projection inactive
        moved.append(at_norm(rng, d, radius * (1.0 - 2.0 * INTERIOR_MARGIN)))
        fixed = [kernel @ at_norm(rng, kernel.shape[1], 3.0)] if kernel.size else []
        # within INTERIOR_MARGIN * R of the boundary, and outside it within the slack: every block
        unscreened = [at_norm(rng, d, radius * (1.0 - 0.5 * INTERIOR_MARGIN)),
                      at_norm(rng, d, radius + 0.5 * MEMBERSHIP_SLACK)]
        for grid in (None, unsorted) + ((long_grid,) if d <= 16 else ()):
            for x in moved + fixed + unscreened:
                for alpha, beta in ((1.0, SQRT2), (1.0, 2.0)):
                    with pytest.warns(NearRationalWarning) if beta == 2.0 else contextlib.nullcontext():
                        rows.clear()
                        expected = certificate_from_profile(spec, x, alpha, beta, grid)
                        every_block = list(rows)
                        rows.clear()
                        cert = certify_common_fixed(spec, x, alpha, beta, grid=grid)
                    assert repr(cert) == repr(expected), (d, scale, grid is None, x)
                    assert type(cert.max_profile_residual) is float and type(cert.argmax_t) is float
                    # never more blocks than the profile's
                    assert sum(rows) <= sum(every_block) and set(rows) <= set(every_block)
                    # a kernel point's residuals are rounding noise far below the margin
                    if not any(x is y for y in moved):
                        assert rows == every_block, (d, scale, x)
                    elif len(every_block) > 1:
                        n_screened += rows != every_block
                        n_cases += 1
    # saturated profiles keep their near-tied blocks; 60 of the 108 moved cases drop some
    assert n_screened >= n_cases // 4, (n_screened, n_cases)


def test_orbit_and_spectral_residuals_agree_far_inside_the_screen_margin():
    # on heat, r(t)^2 = sum_k (1 - e^{-t w_k})^2 y_k^2 with y = V^T x; the
    # screen allows the orbit's and its own residuals INTERIOR_MARGIN ||x|| =
    # 2^-30 ||x|| each, and both sit within 2^-40 ||x|| of each other
    rng = np.random.default_rng(73)
    grid = default_profile_grid(1.0, SQRT2)
    worst = 0.0
    for d in (1, 2, 3, 5, 8, 16, 33, 64):
        for scale in (2.5e-4, 1.0, 250.0):
            spec = heat_flow(rng, d, d // 4, scale)
            times, _, blocks, _, screen = characterize._plan(spec, 1.0, SQRT2, None)
            for x in sample_inside(spec, rng, 3):
                residuals = np.array(residual_profile(spec, x, None, 1.0, SQRT2).residuals)
                y = x @ spec.eigvecs
                spectral = np.sqrt(np.square(np.expm1(-np.outer(grid, spec.eigvals))) @ (y * y))
                norm = np.linalg.norm(x)
                worst = max(worst, np.abs(residuals - spectral).max() / norm)
                if screen is not None:
                    # the plan's bound of each block is r at that block's largest time
                    tops = [at.start + int(np.argmax(grid[at])) for at, _ in blocks]
                    bounds = np.sqrt(screen @ (y * y))
                    worst = max(worst, np.abs(residuals[tops] - bounds).max() / norm)
    assert worst <= 2.0 ** -40, math.log2(worst)


def test_a_moved_benchmark_heat_point_computes_one_block_and_a_kernel_point_all_eight(monkeypatch):
    # certify_mixed's d=64 heat flow at seed 1, on the default grid's eight blocks
    monkeypatch.syspath_prepend(BENCH_DIR)
    import inputs

    data = inputs.certify_inputs(1)
    spec = heat(data["heat_matrix"])
    rows = counted_blocks(monkeypatch)
    for x, is_fixed in data["heat_points"]:
        # the benchmark's pairs, the rational one included
        for alpha, beta in ((1.0, SQRT2), (1.0, inputs.GOLDEN), (1.0, 2.0)):
            every_block = [64] * 7 + [len(default_profile_grid(alpha, beta)) - 7 * 64]
            with pytest.warns(NearRationalWarning) if beta == 2.0 else contextlib.nullcontext():
                certify_common_fixed(spec, x, alpha, beta)  # warms the plan
                rows.clear()
                cert = certify_common_fixed(spec, x, alpha, beta)
                assert (cert.verdict == "certified") == is_fixed
                assert rows == (every_block if is_fixed else every_block[-1:]), (is_fixed, rows)
                # a profile computes every block
                rows.clear()
                residual_profile(spec, x, None, alpha, beta)
                assert rows == every_block
    # a rotation has no screen: a moved point of a d=64 rotation computes every block too
    spec = rotation(center=(0.5, -0.25), dim=64)
    x = spec.domain.center + at_norm(np.random.default_rng(5), 64, 3.0)
    rows.clear()
    assert certify_common_fixed(spec, x, 1.0, SQRT2).verdict == "not_certified"
    assert rows == [64] * 7 + [len(default_profile_grid(1.0, SQRT2)) - 7 * 64]


def test_a_wide_ball_certifies_with_rescaled_residuals():
    # on a ball of radius 1e160 the squares of a point's residuals overflow:
    # the certificate's are finite, no overflow is warned of, and its maximum is
    # the profile's true one, 2|x| at t = 0.5, where the rotation turns x by pi
    spec = rotation(period=1.0, radius=1e160)
    x = np.array([3e159, -2e159])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = certify_common_fixed(spec, x, 1.0, SQRT2)
        profile = residual_profile(spec, x, None, 1.0, SQRT2)
        pair = residual_pair(spec, x, 1.0, SQRT2)
    assert cert.argmax_t == 0.5
    assert cert.max_profile_residual == max(profile.residuals) == pytest.approx(2.0 * math.hypot(*x), rel=1e-15)
    moved = (evaluate(spec, SQRT2, x) - x) / 1e160
    assert cert.pair_residual == profile.pair_residual == pair == pytest.approx(1e160 * np.linalg.norm(moved))
    assert cert.verdict == "not_certified"


def test_skipped_projections_change_no_bit(monkeypatch):
    # a point that passes the interior test skips every projection of its
    # profile, certificate and float loop; with the test forced to fail,
    # every image is projected, and not one bit may change.  Points on
    # shells R(1 + k eps) and R(1 - INTERIOR_MARGIN)(1 + k eps), |k| <= 8,
    # with the ball's center at 2^19 R (the test still holds) and 2^24 R
    # (no point passes it)
    rng = np.random.default_rng(83)
    eps = np.finfo(float).eps
    radius = 0.37
    specs = [heat_flow(rng, d, d // 3, 1.0) for d in (1, 3, 16, 64)]
    for d in (2, 3, 64):
        for far in (0.0, 2.0 ** 19, 2.0 ** 24):
            specs.append(rotation(center=(0.6 * far * radius, -0.8 * far * radius), radius=radius, dim=d))

    def results(spec, points):
        kernel = _pair_kernel(spec, 1.0, SQRT2)
        out = []
        for x in points:
            out.append(repr(certify_common_fixed(spec, x, 1.0, SQRT2)))
            out.append(repr(residual_profile(spec, x, None, 1.0, SQRT2)))
            # T(1)x and T(sqrt 2)x from the scheme driver's float loop, as the second
            # iterate of mann's rule with all its weight on one image
            for mix in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)):
                take = _float_blocks(spec, IterationConfig(1.0, SQRT2), _Rule(mix=mix), x, kernel)
                if take is not None:
                    out.append(take(2)[0][1].tobytes())
        return out

    for spec in specs:
        dom = spec.domain
        k = rng.integers(-8, 9, 12) * eps
        scales = np.concatenate([rng.uniform(0.0, 1.0, 4), 1.0 + k, (1.0 - INTERIOR_MARGIN) * (1.0 + k)])
        points = [x for x in (dom.center + at_norm(rng, dom.dim, dom.radius * s) for s in scales)
                  if dom.exterior_distance(x) <= MEMBERSHIP_SLACK]
        assert len(points) >= 20, (spec.kind, spec.dim)
        passed = sum(_checker(spec, rows=False)(x) for x in points)
        if np.linalg.norm(dom.center) > 2.0 ** 20 * dom.radius:
            assert passed == 0, spec.dim
        else:
            assert 0 < passed < len(points), (spec.kind, spec.dim)
        characterize._plan.cache_clear()
        expected = results(spec, points)
        with monkeypatch.context() as m:
            m.setattr(semigroups, "_interior_radius", lambda domain: math.nan)
            m.setattr(schemes, "_interior_radius", lambda domain: math.nan)
            characterize._plan.cache_clear()
            assert not any(_checker(spec, rows=False)(x) for x in points)
            assert results(spec, points) == expected, (spec.kind, spec.dim, dom.center[:2])
    characterize._plan.cache_clear()


# ---- two-generator equivalence (the main characterization, sampled) ----------------

def test_equivalence_of_pair_and_profile_residuals():
    # With an irrational pair, a tiny pair residual must force a tiny
    # residual at EVERY time, and conversely.  Exercised from both sides:
    # exact fixed points (both small) and generic points (both large).
    rng = np.random.default_rng(42)
    grid = default_profile_grid(1.0, SQRT2)
    for spec in builtin_specs():
        points = list(sample_inside(spec, rng, 400)) + list(fixed_members(spec, rng, 100))
        for x in points:
            prof = residual_profile(spec, x, grid, 1.0, SQRT2)
            assert (prof.pair_residual <= 1e-9) == (prof.max_residual <= 1e-6)


def test_equivalence_fails_for_rational_pair():
    # sharpness: pair (1,2) on the unit-period rotation fixes everything,
    # while T(0.5) moves every off-center point by twice its distance
    spec = rotation(period=1.0)
    rng = np.random.default_rng(43)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NearRationalWarning)
        for _ in range(20):
            x = rng.uniform(-5.0, 5.0, size=2)
            if np.linalg.norm(x) < 1e-3:
                continue
            prof = residual_profile(spec, x, [0.5], 1.0, 2.0)
            assert prof.pair_residual <= 1e-12
            assert prof.residuals[0] == pytest.approx(2.0 * np.linalg.norm(x), rel=1e-9)


# ---- Bruck averaged operator -------------------------------------------------------

def test_bruck_rejects_degenerate_weights():
    spec = rotation(period=1.0)
    for lam in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            bruck_map(spec, 1.0, SQRT2, lam)


def test_bruck_fixes_center():
    spec = rotation(period=1.0)
    u = bruck_map(spec, 1.0, SQRT2, 0.5)
    assert np.linalg.norm(u(np.zeros(2)) - np.zeros(2)) == 0.0


def test_bruck_heat_contraction_factor():
    # on diag(0,1) the map acts on the second coordinate as multiplication
    # by lam*e^{-1} + (1-lam)*e^{-sqrt2}
    spec = heat(np.diag([0.0, 1.0]))
    u = bruck_map(spec, 1.0, SQRT2, 0.3)
    x = np.array([0.7, 1.0])
    out = u(x)
    factor = 0.3 * math.exp(-1.0) + 0.7 * math.exp(-SQRT2)
    assert out[0] == pytest.approx(0.7, abs=1e-15)
    assert out[1] == pytest.approx(factor, rel=1e-12)
    assert factor == pytest.approx(0.280546, abs=1e-6)


def test_bruck_nonexpansive():
    rng = np.random.default_rng(31)
    for spec in builtin_specs():
        for lam in (0.1, 0.5, 0.9):
            u = bruck_map(spec, 1.0, SQRT2, lam)
            pts = sample_inside(spec, rng, 80).reshape(40, 2, -1)
            for x, y in pts:
                assert np.linalg.norm(u(x) - u(y)) <= np.linalg.norm(x - y) + 1e-12


def test_bruck_fixed_set_agreement():
    rng = np.random.default_rng(32)
    for spec in builtin_specs():
        fs = analytic_fixed_set(spec)
        for lam in (0.1, 0.5, 0.9):
            u = bruck_map(spec, 1.0, SQRT2, lam)
            for z in fixed_members(spec, rng, 10):
                assert np.linalg.norm(u(z) - z) <= 1e-10
            kept = 0
            while kept < 100:
                x = sample_inside(spec, rng, 1)[0]
                if fixed_set_distance(fs, x) <= 1e-2:
                    continue
                kept += 1
                assert np.linalg.norm(u(x) - x) > 1e-4


# ---- certification -----------------------------------------------------------------

def test_certify_kernel_point():
    spec = heat(np.diag([0.0, 1.0]))
    cert = certify_common_fixed(spec, np.array([2.0, 0.0]), 1.0, SQRT2, tol=1e-8)
    assert cert.verdict == "certified"
    assert cert.pair_residual <= 1e-10
    assert cert.max_profile_residual <= 1e-10
    assert cert.profile_tol == pytest.approx(1e-5)


def test_certify_flags_rational_counterexample():
    spec = rotation(period=1.0)
    with pytest.warns(NearRationalWarning):
        cert = certify_common_fixed(spec, np.array([1.0, 0.0]), 1.0, 2.0, tol=1e-8)
    assert cert.verdict == "not_certified"
    assert cert.pair_residual <= 1e-12
    assert cert.max_profile_residual == pytest.approx(2.0, rel=1e-9)
    assert cert.argmax_t == 0.5


def test_certify_near_origin_decay_point():
    spec = decay(dim=2)
    cert = certify_common_fixed(spec, np.array([1e-9, 0.0]), 1.0, SQRT2, tol=1e-8)
    assert cert.verdict == "certified"


def test_a_decay_box_too_wide_for_the_pair_raises():
    # where 2 max(alpha, beta) is at most the spacing of the doubles below M,
    # x - t rounds back to x near M for both times, and a point there would
    # pass for a common fixed point; every path to the pair kernel rejects it
    for box_max in (1e17, 2.0 ** 54 + 4):
        spec, corner = decay(dim=2, box_max=box_max), np.full(2, box_max)
        message = rf"^decay box M={re.escape(repr(box_max))} is too wide for the time 1\.4142135623730951:"
        for call in (lambda: certify_common_fixed(spec, corner, 1.0, SQRT2),
                     lambda: residual_pair(spec, corner, SQRT2, 1.0),
                     lambda: semigroups.pair_operator(spec, 1.0, SQRT2)):
            with pytest.raises(ValueError, match=message):
                call()
    # at 2^54 and 1e15 the larger time still moves the corner
    for box_max in (2.0 ** 54, 1e15):
        spec, corner = decay(dim=2, box_max=box_max), np.full(2, box_max)
        assert residual_pair(spec, corner, 1.0, SQRT2) > 1.0
        assert certify_common_fixed(spec, corner, 1.0, SQRT2).verdict == "not_certified"


def test_certify_reports_numbers_even_when_failing():
    spec = rotation(period=1.0)
    cert = certify_common_fixed(spec, np.array([1.0, 0.0]), 1.0, SQRT2, tol=1e-8)
    assert cert.verdict == "not_certified"
    assert cert.pair_residual > 1.0
    d = cert.to_dict()
    assert set(d) == {"pair_residual", "max_profile_residual", "argmax_t", "verdict", "tol", "profile_tol"}


def test_certify_rejects_bad_tol():
    spec = decay(dim=1)
    with pytest.raises(ValueError):
        certify_common_fixed(spec, np.array([0.0]), 1.0, SQRT2, tol=0.0)


def test_evaluate_matches_bruck_on_fixed_points_of_both():
    # the averaged map agrees with each operator exactly on common fixed
    # points, a direct restatement of the convex-combination identity
    spec = decay(dim=2)
    u = bruck_map(spec, 1.0, SQRT2, 0.25)
    z = np.zeros(2)
    assert np.array_equal(u(z), evaluate(spec, 1.0, z))


# ---- near-rational rule ------------------------------------------------------------

@pytest.mark.parametrize("alpha, beta", [(1.0, 7.0 / 3.0), (0.1, 0.3), (1.0, 1.000000000000001)])
def test_pairs_within_rounding_of_a_rational_warn(alpha, beta):
    # each probe ends on a remainder far below the one before it
    with pytest.warns(NearRationalWarning):
        residual_pair(rotation(period=1.0), np.zeros(2), alpha, beta)


@pytest.mark.parametrize("lo, hi", [(1e3, 1e4), (1e4, 1e5)])
def test_generic_large_ratios_are_rarely_flagged(lo, hi):
    # a float ratio is an exact dyadic rational, but with a denominator far
    # beyond the last q the rule checks; a generic ratio near 1e5 comes within
    # max(1e-8/q^2, 4 ulp) of some checked p/q about 4 times in 10^7
    near_rational = characterize._near_rational.__wrapped__
    ratios = np.exp(np.random.default_rng(7).uniform(math.log(lo), math.log(hi), 2000))
    assert sum(near_rational(1.0, r) for r in ratios.tolist()) <= 2


def test_every_small_rational_ratio_is_flagged_at_every_scale():
    near_rational = characterize._near_rational.__wrapped__
    missed = [
        (s, p, q)
        for s in (1.0, 0.1, 0.7, 3.0)
        for q in range(1, 20)
        for p in range(1, 40 * q)
        if p != q and math.gcd(p, q) == 1 and not near_rational(s * p, s * q)
    ]
    assert missed == []


def test_bruck_map_warns_before_it_checks_the_weight():
    with pytest.warns(NearRationalWarning), pytest.raises(ValueError, match="averaging weight"):
        bruck_map(rotation(period=1.0), 1.0, 2.0, 1.5)


def test_a_remainder_below_the_ratios_rounding_counts_as_that_rounding():
    # this ratio's remainders end on 1.86e-09 and then an exact 0 from
    # rounding; against the ratio's ulp (1.1e-13), 1.86e-09 is no large quotient
    with warnings.catch_warnings():
        warnings.simplefilter("error", NearRationalWarning)
        residual_pair(rotation(period=1.0), np.zeros(2), 1.0, 531.8069904018193)
    near_rational = characterize._near_rational.__wrapped__
    ratios = np.exp(np.random.default_rng(11).uniform(math.log(1e3), math.log(1e5), 20000))
    assert [r for r in ratios.tolist() if near_rational(1.0, r)] == []


@pytest.mark.parametrize("alpha,beta", [(1.0, 20000.0), (1.0, 12345.5), (3.0, 40000.0)])
def test_rational_pairs_with_a_large_numerator_warn(alpha, beta):
    # the last nonzero remainder of p/q is 1/q, far above the ratio's ulp,
    # however large p is
    with pytest.warns(NearRationalWarning):
        residual_pair(rotation(period=1.0), np.zeros(2), alpha, beta)


def _flagged_by_definition(alpha, beta):
    """_near_rational's stated inequality, tried at every q up to its bound."""
    small, large = sorted((alpha, beta))
    if large >= 1e8 * small:
        return True
    x = Fraction(large) / Fraction(small)
    n, d = x.numerator, x.denominator
    u_num, u_den = (4 * Fraction(math.ulp(large / small))).as_integer_ratio()
    k = 10**8
    for q in range(1, max(100, math.isqrt(u_den // (u_num * k))) + 1):
        p = (2 * n * q + d) // (2 * d)  # the p nearest x*q
        e = abs(n * q - p * d)  # |x - p/q| = e / (d*q)
        if e * k * q <= d or e * u_den <= u_num * d * q:
            return True
    return False


def test_the_rule_is_its_inequality():
    # rationals s*p/q nudged by a relative 1e-17 up to 1e-9, 1e-13 or 1e-14 in
    # turn: q < 3000 near ratio 10, q < 100 with ratios up to 1e5 (where the
    # ulp term decides) and q < 1000 with ratios up to 1e4 (where it must not)
    rng = np.random.default_rng(2)
    verdicts = []
    for i in range(120):
        q_hi, ratio_hi, rel_hi = ((3000, 20, -9), (100, 10**5, -13), (1000, 10**4, -14))[i % 3]
        q = int(rng.integers(1, q_hi))
        p = int(rng.integers(q + 1, ratio_hi * q))
        rel = float(10.0 ** rng.uniform(-17, rel_hi)) * float(rng.choice([-1, 1]))
        s = float(rng.uniform(0.1, 10.0))
        alpha, beta = s * q, s * p * (1.0 + rel)
        verdicts.append((characterize._near_rational.__wrapped__(alpha, beta), _flagged_by_definition(alpha, beta)))
    assert [got for got, want in verdicts if got != want] == []
    assert 20 <= sum(want for _, want in verdicts) <= 100


@pytest.mark.parametrize("alpha, beta", [
    (4.800000000000001, 99092.5), (5.300000000000001, 94206.8), (37.099999999999994, 659447.6),
    (35.0, 576349.8999999999), (5.300000000000001, 99323.0), (37.099999999999994, 659158.5),
    (35.0, 636479.8999999999), (5.300000000000001, 96803.8), (37.099999999999994, 677626.6),
])
def test_rationals_with_a_six_figure_numerator_warn(alpha, beta):
    # s*(q, p) with q < 60 and p < 1e6, rounded to floats: each ratio lies
    # within 1e-8/q^2 of p/q, a margin that remainders computed in floats lose
    with pytest.warns(NearRationalWarning):
        residual_pair(rotation(period=1.0), np.zeros(2), alpha, beta)
