"""Every validation rule at the package's boundary, site by site.

Each scalar site is fed the same values; a site either accepts a value or
raises ValueError with a message that names the field.  The other sites
reject one fixed bad input each.
"""

import math
import re

import numpy as np
import pytest

from semiflow.characterize import MAX_GRID_TIMES, certify_common_fixed, default_profile_grid
from semiflow.cli import ExperimentConfig, main
from semiflow.schemes import IterationConfig, make_schedule, parse_schedule
from semiflow.semigroups import (
    decay,
    from_descriptor,
    heat,
    operator,
    orbit_operator,
    pair_operator,
    rotation,
)
from semiflow.stepseq import BELOW_TOL, check_pair, euclid_sequence, greedy_decompose
from semiflow.vecspace import HARD_DIM_CAP, Ball, Box, combine, dist

SQRT2 = math.sqrt(2.0)

VALUES = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -1.5e-7, 1.0)


def positive(v):
    return 0.0 < v < math.inf


def nonnegative(v):
    return 0.0 <= v < math.inf


# (site, rule, pattern naming the field, call with the value)
SCALAR_SITES = (
    ("operator time", nonnegative, r"^time must", lambda v: operator(rotation(), v)),
    ("pair_operator alpha", positive, r"^time must", lambda v: pair_operator(rotation(), v, SQRT2)),
    ("pair_operator beta", positive, r"^time must", lambda v: pair_operator(rotation(), 1.0, v)),
    ("orbit_operator time", nonnegative, r"^time must", lambda v: orbit_operator(rotation(), [0.0, v])),
    ("check_pair alpha", positive, r"^(alpha|sample times) must", lambda v: check_pair(v, SQRT2)),
    ("check_pair beta", positive, r"^(beta|sample times) must", lambda v: check_pair(SQRT2, v)),
    ("greedy_decompose t", nonnegative, r"^t must", lambda v: greedy_decompose(v, [0.5], 1)),
    # at t = 0: with t = 1 a modulus of 5e-324 overflows the quotient
    ("greedy_decompose modulus", positive, r"^modulus 1 must", lambda v: greedy_decompose(0.0, [v], 1)),
    ("euclid_sequence tol", positive, r"^tol must", lambda v: euclid_sequence(1.0, SQRT2, tol=v)),
    ("certify_common_fixed tol", positive, r"^tol must",
     lambda v: certify_common_fixed(rotation(), np.zeros(2), 1.0, SQRT2, tol=v)),
    ("IterationConfig tol", positive, r"^tol must", lambda v: IterationConfig(1.0, SQRT2, tol=v)),
    ("IterationConfig inner_tol", positive, r"^inner_tol must", lambda v: IterationConfig(1.0, SQRT2, inner_tol=v)),
    ("rotation period", positive, r"period must", lambda v: rotation(period=v)),
    ("decay box_max", positive, r"^box_max must", lambda v: decay(box_max=v)),
    ("Ball radius", positive, r"radius must", lambda v: Ball(np.zeros(2), v)),
)

# (site, pattern naming the field, call with a bad input)
OTHER_SITES = (
    ("rotation center", r"center", lambda: rotation(center=(0.0, 0.0, 0.0))),
    ("rotation dim", r"dimension >= 2", lambda: rotation(dim=1)),
    ("rotation cap", r"dimension 65", lambda: rotation(dim=HARD_DIM_CAP + 1)),
    ("decay dim", r"dimension 0", lambda: decay(dim=0)),
    ("heat square", r"square matrix", lambda: heat(np.ones((2, 3)))),
    ("heat cap", r"dimension 65", lambda: heat(np.eye(HARD_DIM_CAP + 1))),
    ("descriptor empty key", r"empty parameter name", lambda: from_descriptor("rotation:=1")),
    ("experiment seed", r"seed must be nonnegative",
     lambda: ExperimentConfig("mann", "rotation", 1.0, SQRT2, seed=-1)),
    ("harmonic exponent", r"fixed exponent of 1", lambda: make_schedule("harmonic", 1, p=0.5)),
    ("combine empty", r"at least one point", lambda: combine([], [])),
    ("combine weights", r"weights must be finite", lambda: combine([math.nan, 1.0], [[0.0], [1.0]])),
    ("dist dimension", r"dimension mismatch", lambda: dist([0, 0], [0, 0, 0])),
    ("Box bounds", r"equal dimension", lambda: Box([0, 0], [1, 1, 1])),
    ("partial_sum n", r"n must lie in", lambda: greedy_decompose(1.0, [0.5], 1).partial_sum(2)),
)

CASES = [
    pytest.param(call, v, pattern if not rule(v) else None, id=f"{site}={v!r}")
    for site, rule, pattern, call in SCALAR_SITES
    for v in VALUES
] + [pytest.param(call, None, pattern, id=site) for site, pattern, call in OTHER_SITES]


@pytest.mark.parametrize("call, value, rejection", CASES)
def test_each_site_accepts_or_names_the_field(call, value, rejection):
    args = () if value is None else (value,)
    if rejection is None:
        call(*args)
    else:
        with pytest.raises(ValueError, match=rejection):
            call(*args)


def test_heat_cap_follows_the_environment(monkeypatch):
    monkeypatch.setenv("SEMIFLOW_MAX_DIM", "2")
    with pytest.raises(ValueError, match=r"dimension 3"):
        heat(np.eye(3))
    assert heat(np.eye(2)).dim == 2


def test_euclid_stops_before_any_quotient_below_tol():
    seq = euclid_sequence(1.0, 1e-10, tol=1e-9)
    assert (seq.alphas, seq.ks, seq.termination) == ((1.0, 1e-10), (), BELOW_TOL)


VERIFY = ("verify", "--semigroup", "rotation", "--alpha", "1", "--beta", "1.5")
SWEEP = ("sweep", "--scheme", "mann", "--semigroup", "rotation", "--alpha", "1", "--beta", "1.5", "--out-dir", "x")


@pytest.mark.parametrize("argv, flag", [
    pytest.param((*VERIFY, "--point", "1,a"), "--point", id="point not floats"),
    pytest.param((*VERIFY, "--point", ""), "--point", id="point empty"),
    pytest.param((*VERIFY, "--point", "0,0", "--grid", "0:1"), "--grid", id="grid parts"),
    pytest.param((*VERIFY, "--point", "0,0", "--grid", "0:a:1"), "--grid", id="grid not floats"),
    pytest.param((*VERIFY, "--point", "0,0", "--grid", "2:1:0.1"), "--grid", id="grid order"),
    pytest.param((*VERIFY, "--point", "0,0", "--grid", "0:1:0"), "--grid", id="grid step"),
    pytest.param((*SWEEP, "--seeds", "1,a"), "--seeds", id="seeds not integers"),
    pytest.param((*SWEEP, "--seeds=1,-1"), "--seeds", id="seeds negative"),
    pytest.param((*SWEEP, "--seeds", "1,2,1"), "--seeds", id="seeds repeated"),
])
def test_cli_argument_errors_exit_64(capsys, tmp_path, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flag, value, field", [
    pytest.param("--semigroup", "rotation:period=abc", "semigroup parameter period=abc", id="period"),
    pytest.param("--semigroup", "rotation:center=a,b", "semigroup parameter center=a,b", id="center"),
    pytest.param("--semigroup", "decay:dim=2.5", "semigroup parameter dim=2.5", id="dim"),
    pytest.param("--semigroup", "heat:matrix=bad.txt", "semigroup parameter matrix=bad.txt", id="matrix file"),
    pytest.param("--semigroup", "heat:matrix=nonexistent.txt", "semigroup parameter matrix=nonexistent.txt",
                 id="matrix file missing"),
    pytest.param("--schedule", "harmonic:x", "schedule offset=x", id="harmonic offset"),
    pytest.param("--schedule", "power:abc", "schedule exponent=abc", id="power exponent"),
    pytest.param("--schedule", "power:0.5,x", "schedule offset=x", id="power offset"),
])
def test_a_value_that_is_not_a_number_names_its_field(capsys, monkeypatch, tmp_path, flag, value, field):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.txt").write_text("1 a\n2 3\n")
    parse = from_descriptor if flag == "--semigroup" else parse_schedule
    with pytest.raises(ValueError, match=f"^{re.escape(field)}: "):
        parse(value)
    argv = ["run", "--scheme", "halpern", "--semigroup", "rotation", "--alpha", "1", "--beta", str(SQRT2), "--u=1,0"]
    assert main([*argv, flag, value]) == 64
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(f"error: {field}: ")


@pytest.mark.parametrize("spec", [rotation(period=1.0), decay(dim=2), heat(np.diag([0.0, 1.0]))], ids=lambda s: s.kind)
def test_integer_arguments_are_read_as_floats(spec):
    point, rows = np.array([2, 1]), np.array([[2, 1], [0, 3], [1, 1]])
    for compiled in (operator(spec, 0.125), pair_operator(spec, 0.125, SQRT2)):
        for x in (point, rows):
            before = x.copy()
            got, want = compiled(x), compiled(x.astype(float))
            assert np.array_equal(x, before) and x.dtype == before.dtype
            if isinstance(got, np.ndarray):  # one image, not a pair
                got, want = (got,), (want,)
            for g, w in zip(got, want):
                assert g.dtype == np.float64
                assert g.tobytes() == w.tobytes(), spec.kind


@pytest.mark.parametrize("argv, call, field", [
    pytest.param(("decompose", "--t", "1", "--ratio", "5e-324", "--n", "2"),
                 lambda: greedy_decompose(1.0, [5e-324], 1), "modulus 1", id="decompose"),
    pytest.param(("euclid", "--alpha", "1", "--beta", "5e-324", "--tol", "5e-324"),
                 lambda: euclid_sequence(1.0, 5e-324, tol=5e-324), "tol", id="euclid"),
])
def test_an_overflowing_quotient_names_the_field(capsys, argv, call, field):
    # 1 / 5e-324 is inf, which math.floor cannot turn into an integer
    with pytest.raises(ValueError, match=field):
        call()
    assert main(list(argv)) == 64
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and field in out.err


@pytest.mark.parametrize("grid", ["0:inf:1", "0:5:inf"])
def test_a_grid_that_is_not_finite_names_the_flag(capsys, grid):
    assert main([*VERIFY, "--point", "0,0", "--grid", grid]) == 64
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: argument --grid: ")


@pytest.mark.parametrize("grid", ["0:1e300:1e-300", "0:1e12:1"])
def test_a_grid_too_long_names_the_grid_before_allocating(capsys, monkeypatch, grid):
    def arange(*args, **kwargs):
        raise AssertionError("np.arange was called")

    monkeypatch.setattr(np, "arange", arange)
    assert main([*VERIFY, "--point", "0,0", "--grid", grid]) == 64
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: grid 0.0:") and "MAX_GRID_TIMES" in out.err


def test_the_grid_cap_counts_the_uniform_times():
    grid = default_profile_grid(1.0, 1.5, stop=MAX_GRID_TIMES - 1.0, step=1.0)
    assert grid.size == MAX_GRID_TIMES + 3  # 0.5, 1.5 and 2.5 join the integers 0 .. MAX_GRID_TIMES - 1
    with pytest.raises(ValueError, match="^grid 0.0:100000.0:1.0 has more than MAX_GRID_TIMES"):
        default_profile_grid(1.0, 1.5, stop=float(MAX_GRID_TIMES), step=1.0)


@pytest.mark.parametrize("step", [0.0, -0.0, -1.0, math.nan, math.inf])
def test_a_bad_grid_step_is_named(step):
    with pytest.raises(ValueError, match="^step must be positive and finite"):
        default_profile_grid(1.0, SQRT2, step=step)
