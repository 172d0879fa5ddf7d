import argparse
import contextlib
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import semiflow
from semiflow import cli
from semiflow.characterize import NearRationalWarning
from semiflow.cli import ExperimentConfig, _build_parser, _experiment_from_args, main
from semiflow.schemes import IterationConfig, SCHEME_TAGS

SQRT2_STR = "1.4142135623730951"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---- stdout subcommands ------------------------------------------------------------

def test_euclid_json_on_stdout(capsys):
    code, out, _ = run_cli(capsys, "euclid", "--alpha", SQRT2_STR, "--beta", "1", "--tol", "1e-3")
    assert code == 0
    payload = json.loads(out)
    assert payload["spec_version"] == "1"
    assert payload["ks"] == [1, 2, 2, 2, 2, 2, 2, 2]
    assert payload["termination"] == "below_tol"
    assert payload["alphas"][-1] < 1e-3


def test_euclid_precision_floor_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "euclid", "--alpha", "1156.7840825739597", "--beta", "3.1646011798144544e-14",
                           "--tol", "1e-300")
    assert code == 0
    payload = json.loads(out)
    assert payload["ks"] == [36553866248693736]
    assert payload["alphas"] == [1156.7840825739597, 3.1646011798144544e-14, 2.2737367544323206e-13]
    assert payload["termination"] == "precision_floor"


def test_decompose_json_on_stdout(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--t", "3.141592653589793", "--ratio", "0.5", "--n", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["ks"] == [6, 0, 1, 0, 0, 1]
    assert payload["n_terms"] == 6
    assert len(payload["deltas"]) == 7


def test_decompose_negative_time_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "decompose", "--t", "-1", "--ratio", "0.5", "--n", "6")
    assert code == 64
    assert "nonnegative" in err


def test_verify_certified_and_not(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "verify", "--semigroup", "rotation:period=1,center=0,0",
        "--alpha", "1", "--beta", SQRT2_STR, "--point", "0,0",
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "certified"

    with pytest.warns(NearRationalWarning):
        code, out, _ = run_cli(
            capsys, "verify", "--semigroup", "rotation:period=1,center=0,0",
            "--alpha", "1", "--beta", "2", "--point", "1,0",
        )
    assert code == 4
    payload = json.loads(out)
    assert payload["verdict"] == "not_certified"
    assert payload["pair_residual"] <= 1e-12
    assert payload["max_profile_residual"] == pytest.approx(2.0, rel=1e-9)


def test_verify_explicit_grid(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--semigroup", "decay:dim=2",
        "--alpha", "1", "--beta", SQRT2_STR, "--point", "0,0", "--grid", "0:2:0.5",
    )
    assert code == 0
    assert json.loads(out)["max_profile_residual"] == 0.0
    code, _, _ = run_cli(
        capsys, "verify", "--semigroup", "decay:dim=2",
        "--alpha", "1", "--beta", SQRT2_STR, "--point", "0,0", "--grid", "5:1:0.5",
    )
    assert code == 64


# ---- usage errors ------------------------------------------------------------------

def test_verify_rejects_a_nonfinite_point(capsys):
    for point in ("nan,0", "0,inf"):
        code, out, err = run_cli(
            capsys, "verify", "--semigroup", "rotation:period=1",
            "--alpha", "1", "--beta", SQRT2_STR, "--point", point,
        )
        assert code == 64
        assert out == ""
        assert err == "error: point coordinates must be finite\n"


def test_mann_weight_violation_message(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "run", "--scheme", "mann", "--semigroup", "decay:dim=1",
        "--alpha", "1", "--beta", SQRT2_STR, "--kappa", "0.6", "--lambda", "0.5",
        "--x0", "3", "--csv", str(tmp_path / "m.csv"),
    )
    assert code == 64
    assert "kappa + lambda must be < 1" in err


def test_unknown_flag_and_subcommand(capsys):
    assert run_cli(capsys, "run", "--bogus")[0] == 64
    assert run_cli(capsys, "nope")[0] == 64
    assert run_cli(capsys)[0] == 64
    assert run_cli(capsys, "--help")[0] == 0


def test_malformed_descriptor(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "run", "--scheme", "mann", "--semigroup", "swirl:x=1",
        "--alpha", "1", "--beta", SQRT2_STR, "--csv", str(tmp_path / "x.csv"),
    )
    assert code == 64
    assert "swirl" in err


def test_env_var_lowers_dimension_cap(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("SEMIFLOW_MAX_DIM", "4")
    code, _, err = run_cli(
        capsys, "run", "--scheme", "mann", "--semigroup", "decay:dim=8",
        "--alpha", "1", "--beta", SQRT2_STR, "--csv", str(tmp_path / "x.csv"),
    )
    assert code == 64
    assert "dimension" in err


def test_negative_point_values(capsys, tmp_path, monkeypatch):
    # "-4,1" is a value, not an option name: same artifacts as "--u=-4,1"
    argv = [
        "run", "--scheme", "halpern", "--semigroup", "rotation:period=1,center=0,0",
        "--alpha", "1", "--beta", SQRT2_STR, "--max-iter", "50",
        "--csv", "out.csv", "--json", "out.json",
    ]
    for sub, values in (("split", ["--u", "-4,1", "--x0", "-1,0"]), ("joined", ["--u=-4,1", "--x0=-1,0"])):
        (tmp_path / sub).mkdir()
        monkeypatch.chdir(tmp_path / sub)
        assert run_cli(capsys, *argv, *values)[0] == 2
    for name in ("out.csv", "out.json"):
        assert (tmp_path / "split" / name).read_bytes() == (tmp_path / "joined" / name).read_bytes()
    assert json.loads((tmp_path / "split" / "out.json").read_text())["config"]["u"] == [-4.0, 1.0]

    code, _, _ = run_cli(
        capsys, "sweep", "--scheme", "halpern", "--semigroup", "rotation:period=1,center=0,0",
        "--alpha", "1", "--beta", SQRT2_STR, "--u", "-4,1", "--seeds", "0",
        "--max-iter", "50", "--out-dir", str(tmp_path / "sw"),
    )
    assert code == 2
    assert json.loads((tmp_path / "sw" / "halpern_seed0.json").read_text())["config"]["u"] == [-4.0, 1.0]

    code, out, _ = run_cli(
        capsys, "verify", "--semigroup", "rotation:period=1,center=-1,0",
        "--alpha", "1", "--beta", SQRT2_STR, "--point", "-1,0",
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "certified"

    # an option name where a value belongs is still a usage error
    code, _, err = run_cli(capsys, *argv, "--u", "--x0", "1,0")
    assert code == 64
    assert "expected one argument" in err


def test_python_dash_m_entry_point(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(semiflow.__file__).resolve().parents[1]), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, "-m", "semiflow.cli"]
    proc = subprocess.run(
        cmd + ["euclid", "--alpha", "1", "--beta", SQRT2_STR],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["spec_version"] == "1"
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 64
    # a rational pair runs as before but warns on stderr (pytest would
    # intercept the warning in-process)
    proc = subprocess.run(
        cmd + ["run", "--scheme", "halpern", "--semigroup", "rotation:period=1,center=0,0",
               "--alpha", "1", "--beta", "2", "--u", "1,0", "--x0", "1,0"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0
    assert "NearRationalWarning" in proc.stderr
    assert json.loads(proc.stdout)["report"]["termination"] == "converged"


def test_console_warning_names_no_interpreter_frame(tmp_path):
    # every frame of a CLI run is inside the package, so the console entry
    # point prints the warning without a source location; main() itself
    # leaves warnings to the caller (test_verify_certified_and_not)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(semiflow.__file__).resolve().parents[1]), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "semiflow.cli", "verify", "--semigroup", "rotation:period=1,center=0,0",
         "--alpha", "1", "--beta", "2", "--point", "0,0"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "certified"
    assert "runpy" not in proc.stderr
    assert proc.stderr == (
        "NearRationalWarning: sample times 1.0 and 2.0 have a (near-)rational ratio; "
        "pair residuals alone cannot certify a common fixed point\n"
    )


def test_run_rejects_bad_inner_solver_settings(capsys, tmp_path):
    argv = [
        "run", "--scheme", "browder_implicit", "--semigroup", "decay:dim=1",
        "--alpha", "1", "--beta", SQRT2_STR, "--u", "5", "--x0", "5",
        "--csv", str(tmp_path / "b.csv"),
    ]
    for flags, field in ((["--inner-tol", "0"], "inner_tol"), (["--inner-tol", "nan"], "inner_tol"),
                         (["--inner-cap", "0"], "inner_cap")):
        code, _, err = run_cli(capsys, *argv, *flags)
        assert code == 64
        assert field in err
    assert not (tmp_path / "b.csv").exists()


def test_run_names_a_bad_start_or_anchor(capsys, tmp_path):
    # (50, 0) lies outside the radius-10 rotation disc, and (1, 2, 3) has the
    # wrong dimension; every scheme checks an anchor it is given
    argv = [
        "--semigroup", "rotation:period=1,center=0,0", "--alpha", "1", "--beta", SQRT2_STR,
        "--csv", str(tmp_path / "h.csv"), "--json", str(tmp_path / "h.json"),
    ]
    bad = (
        (["--u=50,0", "--x0", "1,0"], "u lies outside"),
        (["--u=1,2,3", "--x0", "1,0"], r"u has shape \(3,\)"),
        (["--u", "1,0", "--x0", "50,0"], "start lies outside"),
    )
    for scheme in sorted(SCHEME_TAGS):
        for flags, message in bad:
            code, out, err = run_cli(capsys, "run", "--scheme", scheme, *argv, *flags)
            assert (code, out) == (64, "")
            assert re.fullmatch(rf"error: {message}.*\n", err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("scheme, flags", [
    pytest.param("mann", ["--semigroup", "decay:dim=2,M=1e17"], id="decay box too wide"),
    pytest.param("mann", ["--semigroup", "decay:dim=2", "--u=50,0"], id="rows, anchor outside"),
    pytest.param("baillon_double", ["--semigroup", "decay:dim=2", "--u=1,2,3"], id="one by one, anchor shape"),
])
def test_a_rejected_sweep_leaves_no_directory(capsys, tmp_path, scheme, flags):
    code, _, err = run_cli(
        capsys, "sweep", "--scheme", scheme, *flags, "--alpha", "1", "--beta", SQRT2_STR,
        "--seeds", "0,1", "--out-dir", str(tmp_path / "swx" / "deep"),
    )
    assert code == 64 and err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_a_rotation_time_whose_angle_overflows_is_a_usage_error(capsys, tmp_path):
    pair = ["--alpha", "1", "--beta", SQRT2_STR]
    out_files = ["--csv", str(tmp_path / "h.csv"), "--json", str(tmp_path / "h.json")]
    cases = (
        (["run", "--scheme", "halpern", "--semigroup", "rotation:period=1,center=0,0", "--alpha", "1e308",
          "--beta", SQRT2_STR, "--u=1,0", "--max-iter", "5", *out_files], "1e+308", "1.0"),
        (["run", "--scheme", "halpern", "--semigroup", "rotation:period=1e-320,center=0,0", *pair, "--u=1,0",
          "--max-iter", "5", *out_files], "1.0", "1e-320"),
        (["verify", "--semigroup", "rotation:period=1", *pair, "--point", "1,0", "--grid", "0:1e308:1e305"],
         "2.87e+307", "1.0"),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for argv, t, period in cases:
            # the pair (1e308, sqrt 2) is also rational to the probe
            with pytest.warns(NearRationalWarning) if "1e308" in argv else contextlib.nullcontext():
                code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (64, "")
            assert err == f"error: rotation time {t}: the angle 2 pi t / period overflows for period={period}\n"
    assert list(tmp_path.iterdir()) == []


# ---- run ---------------------------------------------------------------------------

def test_run_writes_csv_and_json(capsys, tmp_path):
    csv_path = tmp_path / "trace.csv"
    code, _, err = run_cli(
        capsys, "run", "--scheme", "mann", "--semigroup", "decay:dim=2",
        "--alpha", "1", "--beta", SQRT2_STR, "--x0", "3,5",
        "--csv", str(csv_path),
    )
    assert code == 0
    assert "converged" in err
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n,pair_residual,step_norm,fixed_set_distance,x0,x1"
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[4]) == 3.0 and float(first[5]) == 5.0
    # every numeric field round-trips through repr exactly
    for line in lines[1:]:
        for field in line.split(",")[1:]:
            assert repr(float(field)) == field

    summary = json.loads((tmp_path / "trace.json").read_text())
    assert summary["spec_version"] == "1"
    assert summary["report"]["termination"] == "converged"
    assert summary["config"]["scheme"] == "mann"
    assert summary["config"]["x0"] == [3.0, 5.0]


def test_trace_csv_is_what_the_csv_module_writes(tmp_path):
    # the trace CSV is joined by hand; csv.writer is the reference for its bytes
    import csv

    from semiflow import IterationConfig, heat, rotation, run_scheme

    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    runs = [
        (rotation(center=(0.5, -0.25), dim=3), (1.0, 2.0, 3.0)),
        (heat((q * [0.0, 0.3, 1.0, 2.0, 3.5]) @ q.T), tuple(rng.uniform(-2.0, 2.0, 5))),
    ]
    for k, (spec, start) in enumerate(runs):
        report = run_scheme("mann", spec, IterationConfig(alpha=1.0, beta=math.sqrt(2.0), start=start, max_iter=40))
        path = tmp_path / f"t{k}.csv"
        cli._write_trace_csv(path, report, cli._cells(report.to_dict()["iterates_recorded"]))
        reference = tmp_path / f"r{k}.csv"
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["n", "pair_residual", "step_norm", "fixed_set_distance"] + [f"x{i}" for i in range(spec.dim)])
            for rec in report.iterates_recorded:
                writer.writerow([rec.n, repr(rec.pair_residual), repr(rec.step_norm), repr(rec.fixed_set_distance)]
                                + [repr(float(v)) for v in rec.point])
        assert path.read_bytes() == reference.read_bytes()


def summary_payload(cfg, report):
    """A run's summary as _write_run hands it, through _emit, to _json_text."""
    return {"spec_version": cli.SPEC_VERSION, "config": cfg.to_dict(), "report": report.to_dict()}


def test_json_text_is_what_the_json_module_writes():
    # a run's records are dumped by the C encoder and indented by hand;
    # json.dumps with indent is the reference for the whole text
    from semiflow import IterationConfig, browder_implicit, heat, rotation, run_rows

    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.normal(size=(16, 16)))
    spec = heat((q * np.concatenate([[0.0], rng.uniform(0.2, 3.0, 15)])) @ q.T)
    base = ExperimentConfig(scheme="mann", semigroup="heat:matrix=m.txt", alpha=1.0, beta=math.sqrt(2.0), seed=0)
    starts = np.array([cli._sample_point(spec.domain, seed) for seed in range(16)])
    reports = run_rows("mann", spec, IterationConfig(alpha=1.0, beta=math.sqrt(2.0), start=starts, max_iter=400))
    payloads = [summary_payload(dataclasses.replace(base, seed=k), r) for k, r in enumerate(reports)]
    # values the float encoders must agree on
    special = summary_payload(base, reports[0])
    odd = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 2**70, 1e300, -1.5e-7)
    for rec, value in zip(special["report"]["iterates_recorded"], odd):
        rec["pair_residual"] = rec["step_norm"] = value
        rec["n"] = value if isinstance(value, int) else rec["n"]
    payloads.append(special)
    # a browder_implicit report carries its inner sweeps too
    browder = browder_implicit(rotation(period=1.0), IterationConfig(
        alpha=1.0, beta=math.sqrt(2.0), start=[1.0, 2.0], u=[3.0, 0.0], max_iter=12))
    payloads.append(summary_payload(dataclasses.replace(base, scheme="browder_implicit"), browder))
    # a one-record report
    one = run_rows("mann", spec, IterationConfig(alpha=1.0, beta=math.sqrt(2.0), start=starts[:2], max_iter=1))[0]
    assert len(one.iterates_recorded) == 1
    payloads.append(summary_payload(base, one))
    for payload in payloads:
        assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    # payloads without records go through json.dumps unchanged
    for payload in ({"spec_version": "1", "ks": [1, 2], "alphas": [0.5, math.nan]}, {"report": {"x": []}}, {}):
        assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_a_wide_decay_box_writes_finite_norms(tmp_path, capsys):
    # a box whose points' offsets square past the largest double: every norm is
    # taken rescaled, with no overflow warning, and the budget still ends the run
    path = tmp_path / "w.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, _ = run_cli(capsys, "run", "--scheme", "mann", "--semigroup", "decay:dim=2,M=1e200",
                             "--alpha", "1e190", "--beta", "1.4142135623730951e190", "--x0=1e200,1e199",
                             "--max-iter", "3", "--csv", str(path))
    assert code == 2
    rows = [[float(v) for v in line.split(",")] for line in path.read_text().splitlines()[1:]]
    assert len(rows) == 3 and all(math.isfinite(v) for row in rows for v in row)
    assert all(row[1] > 1e190 and row[3] > 1e200 for row in rows)


def test_run_without_csv_prints_summary(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--scheme", "mann", "--semigroup", "decay:dim=1",
        "--alpha", "1", "--beta", SQRT2_STR, "--x0", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["termination"] == "converged"


def test_run_exit_codes_for_budget_and_inner_failure(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys, "run", "--scheme", "halpern", "--semigroup", "rotation:period=1,center=0,0",
        "--alpha", "1", "--beta", SQRT2_STR, "--u", "1,0", "--x0", "1,0",
        "--schedule", "harmonic:1", "--max-iter", "200", "--tol", "1e-10",
        "--csv", str(tmp_path / "h.csv"),
    )
    assert code == 2
    code, _, _ = run_cli(
        capsys, "run", "--scheme", "browder_implicit", "--semigroup", "decay:dim=1",
        "--alpha", "1", "--beta", SQRT2_STR, "--u", "5", "--x0", "5",
        "--schedule", "power:0.5,1", "--inner-cap", "2", "--max-iter", "50",
        "--csv", str(tmp_path / "b.csv"),
    )
    assert code == 3
    summary = json.loads((tmp_path / "b.json").read_text())
    assert summary["report"]["termination"] == "inner_solver_failure"


def test_run_is_deterministic_for_a_seed(capsys, tmp_path, monkeypatch):
    # same config and seed, sampled start: byte-identical artifacts
    argv = [
        "run", "--scheme", "mann", "--semigroup", "decay:dim=3",
        "--alpha", "1", "--beta", SQRT2_STR, "--seed", "7",
        "--csv", "out.csv", "--json", "out.json",
    ]
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        monkeypatch.chdir(d)
        assert main(list(argv)) == 0
    capsys.readouterr()
    assert (tmp_path / "a" / "out.csv").read_bytes() == (tmp_path / "b" / "out.csv").read_bytes()
    assert (tmp_path / "a" / "out.json").read_bytes() == (tmp_path / "b" / "out.json").read_bytes()


def test_different_seeds_sample_different_starts(capsys, tmp_path, monkeypatch):
    starts = []
    for seed in ("1", "2"):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(
            capsys, "run", "--scheme", "mann", "--semigroup", "decay:dim=2",
            "--alpha", "1", "--beta", SQRT2_STR, "--seed", seed, "--csv", f"s{seed}.csv",
        )
        assert code == 0
        row = (tmp_path / f"s{seed}.csv").read_text().splitlines()[1].split(",")
        starts.append((float(row[4]), float(row[5])))
    assert starts[0] != starts[1]


def test_config_round_trip():
    parser = _build_parser()
    argv = [
        "run", "--scheme", "halpern", "--semigroup", "rotation:period=1,center=0,0",
        "--alpha", "1", "--beta", SQRT2_STR, "--u", "1,0", "--x0", "1,0",
        "--schedule", "harmonic:1", "--max-iter", "50000", "--tol", "1e-6",
        "--csv", "out.csv",
    ]
    cfg = _experiment_from_args(parser.parse_args(argv))
    assert cfg == _experiment_from_args(parser.parse_args(cfg.to_argv()))
    assert cfg.u == (1.0, 0.0)
    assert cfg.lam == 0.25  # default survives the round trip

    full = ExperimentConfig(
        scheme="browder_implicit", semigroup="rotation:period=2,center=-1,0", alpha=0.5, beta=float(SQRT2_STR),
        kappa=0.125, lam=0.375, schedule="power:0.5,3", max_iter=77, tol=1e-7, inner_tol=1e-12,
        inner_cap=500, u=(-4.0, 1.5), x0=(-1e-3, 2.0), seed=9, record_all=True, csv="t.csv", json="t.json",
    )
    assert all(getattr(full, f.name) != f.default for f in dataclasses.fields(ExperimentConfig))
    assert full == _experiment_from_args(parser.parse_args(full.to_argv()))
    assert any(arg.startswith("--u=") for arg in full.to_argv())

    minimal = ["run", "--scheme", "mann", "--semigroup", "decay:dim=2", "--alpha", "1", "--beta", SQRT2_STR]
    expected = ExperimentConfig("mann", "decay:dim=2", 1.0, float(SQRT2_STR))
    assert _experiment_from_args(parser.parse_args(minimal)) == expected
    with pytest.raises(ValueError):
        ExperimentConfig(scheme="bogus", semigroup="decay:dim=1", alpha=1.0, beta=2.0)


def test_run_defaults_are_the_iteration_defaults():
    run = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    shared = [f for f in dataclasses.fields(IterationConfig) if f.name in run]
    assert {f.name for f in shared} >= {"kappa", "lam", "max_iter", "tol", "inner_tol", "inner_cap", "record_all"}
    for f in shared:
        assert run[f.name] == f.default and type(run[f.name]) is type(f.default), f.name


# ---- sweep -------------------------------------------------------------------------

def test_sweep_aggregates_seeds(capsys, tmp_path):
    out_dir = tmp_path / "sw"
    code, _, _ = run_cli(
        capsys, "sweep", "--scheme", "mann", "--semigroup", "decay:dim=2",
        "--alpha", "1", "--beta", SQRT2_STR, "--seeds", "0,1,2",
        "--out-dir", str(out_dir),
    )
    assert code == 0
    agg = json.loads((out_dir / "sweep.json").read_text())
    assert agg["seeds"] == [0, 1, 2]
    assert len(agg["results"]) == 3
    assert agg["final_distance_max"] >= agg["final_distance_mean"] >= 0.0
    for seed in (0, 1, 2):
        assert (out_dir / f"mann_seed{seed}.csv").exists()
        assert (out_dir / f"mann_seed{seed}.json").exists()
    assert all(r["termination"] == "converged" for r in agg["results"])
    n_used = sorted(r["n_used"] for r in agg["results"])
    assert agg["termination_counts"] == {"converged": 3, "max_iter": 0, "inner_solver_failure": 0}
    assert (agg["n_used_min"], agg["n_used_median"], agg["n_used_max"]) == (n_used[0], float(n_used[1]), n_used[2])


def test_sweep_rejects_repeated_seeds(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "sweep", "--scheme", "mann", "--semigroup", "decay:dim=2",
        "--alpha", "1", "--beta", SQRT2_STR, "--seeds", "1,3,2,3",
        "--out-dir", str(tmp_path / "sw"),
    )
    assert code == 64
    assert "seed 3 is repeated" in err
    assert not (tmp_path / "sw").exists()


def test_a_long_seed_list_names_its_first_repeated_seed():
    seeds = list(range(20000))
    assert cli._seeds_arg(",".join(map(str, seeds))) == tuple(seeds)
    with pytest.raises(argparse.ArgumentTypeError, match=r"^seed 19999 is repeated$"):
        cli._seeds_arg(",".join(map(str, seeds + [19999, 7])))


def row_sweep_semigroups(tmp_path):
    """(descriptor, dimension): rotation d=2 off-centre, decay d=3, non-diagonal heat d=6."""
    q, _ = np.linalg.qr(np.random.default_rng(6).normal(size=(6, 6)))
    gen = tmp_path / "heat6.txt"
    np.savetxt(gen, (q * [0.0, 0.0, 0.3, 0.9, 1.7, 2.5]) @ q.T)
    return [("rotation:period=1,center=0.5,-0.25", 2), ("decay:dim=3", 3), (f"heat:matrix={gen}", 6)]


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [[float(v) for v in line.split(",")] for line in lines[1:]]


def test_sweep_rows_match_run_per_seed(capsys, tmp_path):
    seeds = (4, 9, 2)
    for semigroup, dim in row_sweep_semigroups(tmp_path):
        anchor = "--u=" + ",".join(["0.5"] * dim)
        for scheme in ("mann", "halpern", "baillon_power_average"):
            flags = [
                "--scheme", scheme, "--semigroup", semigroup, "--alpha", "1", "--beta", SQRT2_STR,
                anchor, "--max-iter", "300", "--tol", "1e-9",
            ]
            out_dir = tmp_path / "sw"
            code = main(["sweep", *flags, "--seeds", ",".join(map(str, seeds)), "--out-dir", str(out_dir)])
            for seed in seeds:
                serial = tmp_path / f"run{seed}.csv"
                assert main(["run", *flags, "--seed", str(seed), "--csv", str(serial)]) in (0, 2)
                header, rows = read_csv_rows(out_dir / f"{scheme}_seed{seed}.csv")
                ref_header, ref_rows = read_csv_rows(serial)
                assert header == ref_header and len(rows) == len(ref_rows)
                assert [r[0] for r in rows] == [r[0] for r in ref_rows]
                assert np.abs(np.array(rows) - np.array(ref_rows)).max() <= 1e-12
                batched = json.loads((out_dir / f"{scheme}_seed{seed}.json").read_text())
                ref = json.loads(serial.with_suffix(".json").read_text())
                for key in ("termination", "n_used", "fejer_violations", "scheme_tag"):
                    assert batched["report"].get(key) == ref["report"].get(key), (semigroup, scheme, key)
                assert np.abs(np.subtract(batched["report"]["final_point"], ref["report"]["final_point"])).max() <= 1e-12
                assert {k: v for k, v in batched["config"].items() if k not in ("csv", "json")} == {
                    k: v for k, v in ref["config"].items() if k not in ("csv", "json")
                }
            results = json.loads((out_dir / "sweep.json").read_text())["results"]
            assert code == max(cli.TERMINATION_EXIT[r["termination"]] for r in results)
    capsys.readouterr()


def test_sweep_repeats_byte_for_byte_and_batches_only_row_schemes(capsys, tmp_path, monkeypatch):
    batched = []

    def counting_run_rows(tag, spec, cfg):
        batched.append((tag, len(cfg.start)))
        return run_rows(tag, spec, cfg)

    run_rows = cli.run_rows
    monkeypatch.setattr(cli, "run_rows", counting_run_rows)
    for scheme, seeds, expected in (
        ("mann", "0,1,2", [("mann", 3)]),
        ("halpern", "0,1,2", [("halpern", 3)]),
        ("baillon_power_average", "0,1,2", [("baillon_power_average", 3)]),
        ("mann", "5", []),
        ("ishikawa_composed", "0,1", []),
    ):
        argv = [
            "sweep", "--scheme", scheme, "--semigroup", "rotation:period=1,center=0.5,-0.25",
            "--alpha", "1", "--beta", SQRT2_STR, "--u=1,0", "--max-iter", "200",
            "--seeds", seeds, "--out-dir", "sw",
        ]
        trees = []
        for sub in ("first", "second"):
            d = tmp_path / scheme / seeds / sub
            d.mkdir(parents=True)
            monkeypatch.chdir(d)
            batched.clear()
            main(list(argv))
            assert batched == expected
            trees.append({p.name: p.read_bytes() for p in sorted((d / "sw").iterdir())})
        assert trees[0] == trees[1]
        assert len(trees[0]) == 2 * len(seeds.split(",")) + 1
    capsys.readouterr()


def test_sweep_parses_the_semigroup_once(capsys, tmp_path, monkeypatch):
    calls = []

    def counting(text):
        calls.append(text)
        return semiflow.from_descriptor(text)

    monkeypatch.setattr(cli, "from_descriptor", counting)
    code, _, _ = run_cli(
        capsys, "sweep", "--scheme", "mann", "--semigroup", "decay:dim=2",
        "--alpha", "1", "--beta", SQRT2_STR, "--seeds", "0,1,2", "--out-dir", str(tmp_path / "sw"),
    )
    assert code == 0
    assert calls == ["decay:dim=2"]


def test_sweep_rejects_seed(capsys, tmp_path):
    # each sweep run takes its seed from --seeds, so --seed would be ignored
    code, _, err = run_cli(
        capsys, "sweep", "--scheme", "mann", "--semigroup", "decay:dim=2",
        "--alpha", "1", "--beta", SQRT2_STR, "--seeds", "1", "--seed", "5",
        "--out-dir", str(tmp_path / "sw"),
    )
    assert code == 64
    assert "--seed" in err
    assert not (tmp_path / "sw").exists()


def test_sweep_propagates_worst_exit(capsys, tmp_path):
    out_dir = tmp_path / "sw2"
    code, _, _ = run_cli(
        capsys, "sweep", "--scheme", "halpern", "--semigroup", "rotation:period=1,center=0,0",
        "--alpha", "1", "--beta", SQRT2_STR, "--u", "1,0", "--seeds", "0,1",
        "--schedule", "harmonic:1", "--max-iter", "100", "--tol", "1e-12",
        "--out-dir", str(out_dir),
    )
    assert code == 2


def test_every_json_artifact_is_stamped_once_and_sweep_results_copy_their_reports(capsys, tmp_path):
    pair = ["--alpha", "1", "--beta", SQRT2_STR]
    texts = []
    for argv in (["euclid", *pair], ["decompose", "--t", "3.141592653589793", "--ratio", "0.5"],
                 ["verify", "--semigroup", "decay:dim=2", *pair, "--point", "0,0"],
                 ["run", "--scheme", "mann", "--semigroup", "decay:dim=2", *pair, "--x0", "3,5"]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        texts.append(out)
    out_dir = tmp_path / "sw"
    code, _, _ = run_cli(capsys, "sweep", "--scheme", "mann", "--semigroup", "rotation:period=1,center=0.5,-0.25",
                         *pair, "--seeds", "0,1,2", "--max-iter", "20", "--out-dir", str(out_dir))
    assert code == 2
    agg = json.loads((out_dir / "sweep.json").read_text())
    seed_texts = [Path(r["json"]).read_text() for r in agg["results"]]
    texts += [(out_dir / "sweep.json").read_text(), *seed_texts]
    assert len(texts) == 8
    for text in texts:
        assert text.count('"spec_version"') == 1 and json.loads(text)["spec_version"] == "1", text[:80]
    copied = ("termination", "n_used", "final_pair_residual", "final_fixed_set_distance")
    for result, text in zip(agg["results"], seed_texts):
        report = json.loads(text)["report"]
        assert set(result) == {"seed", "csv", "json", *copied}
        assert [result[k] for k in copied] == [report[k] for k in copied]


def test_a_decay_box_too_wide_for_the_pair_is_a_usage_error(capsys, tmp_path):
    # near M = 1e17, x - sqrt2 rounds back to x, so a run from the corner would
    # converge at once, 1.4e17 from the fixed set, and verify would certify it
    pair = ["--alpha", "1", "--beta", SQRT2_STR]
    for argv in (["run", "--scheme", "mann", "--semigroup", "decay:dim=2,M=1e17", *pair, "--x0=1e17,1e17",
                  "--csv", str(tmp_path / "wide.csv")],
                 ["verify", "--semigroup", "decay:dim=2,M=1e17", *pair, "--point=1e17,1e17"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (64, "")
        assert err == f"error: decay box M=1e+17 is too wide for the time {SQRT2_STR}: near M, x - {SQRT2_STR} rounds to x\n"
    assert not (tmp_path / "wide.csv").exists()
    # at 2^54 and 1e15 each step still moves the point, and the budget runs out
    for top in (str(2 ** 54), "1e15"):
        argv = ["--semigroup", f"decay:dim=2,M={top}", *pair]
        code, out, _ = run_cli(capsys, "run", "--scheme", "mann", *argv, f"--x0={top},{top}", "--max-iter", "5")
        assert code == 2
        assert json.loads(out)["report"]["final_pair_residual"] > 1.0
        code, out, _ = run_cli(capsys, "verify", *argv, f"--point={top},{top}")
        assert (code, json.loads(out)["verdict"]) == (4, "not_certified")


def test_heat_descriptor_through_cli(capsys, tmp_path):
    gen = tmp_path / "gen.txt"
    np.savetxt(gen, np.diag([0.0, 1.0]))
    code, _, _ = run_cli(
        capsys, "run", "--scheme", "mann", "--semigroup", f"heat:matrix={gen}",
        "--alpha", "1", "--beta", SQRT2_STR, "--x0", "2,3",
        "--csv", str(tmp_path / "heat.csv"),
    )
    assert code == 0
    summary = json.loads((tmp_path / "heat.json").read_text())
    final = summary["report"]["final_point"]
    assert abs(final[0] - 2.0) < 1e-8 and abs(final[1]) < 1e-8


@pytest.mark.parametrize("alpha, beta", [("1e-13", "2e-13"), ("1", "1e-13")])
def test_a_pair_of_tiny_times_warns(capsys, alpha, beta):
    # the probe scales with the pair: both ratios are rational (2, and 1e13 >= 1e8)
    argv = ["run", "--scheme", "mann", "--semigroup", "rotation:period=1,center=0,0",
            "--alpha", alpha, "--beta", beta, "--seed", "3", "--max-iter", "3"]
    with pytest.warns(NearRationalWarning):
        assert main(argv) == 0
    assert "converged" in capsys.readouterr().err


def test_serialized_keys_are_the_dataclass_fields(capsys):
    from semiflow.stepseq import EuclidSequence, GreedyDecomposition

    code, out, _ = run_cli(capsys, "euclid", "--alpha", "1", "--beta", SQRT2_STR)
    assert code == 0
    fields = {f.name for f in dataclasses.fields(EuclidSequence)}
    assert set(json.loads(out)) == fields | {"spec_version"}
    code, out, _ = run_cli(capsys, "decompose", "--t", "3.141592653589793", "--ratio", "0.5")
    assert code == 0
    fields = {f.name for f in dataclasses.fields(GreedyDecomposition)}
    assert set(json.loads(out)) == fields | {"n_terms", "spec_version"}


def test_a_run_on_a_pair_within_rounding_of_a_rational_warns(capsys):
    argv = ["run", "--scheme", "mann", "--semigroup", "rotation:period=1,center=0,0",
            "--alpha", "1", "--beta", "1.000000000000001", "--seed", "3", "--max-iter", "3"]
    with pytest.warns(NearRationalWarning):
        main(argv)
    capsys.readouterr()


def test_a_vanishing_schedule_exponent_is_a_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "run", "--scheme", "halpern", "--semigroup", "rotation:period=1,center=0,0",
        "--alpha", "1", "--beta", SQRT2_STR, "--u=1,0", "--x0=0,2", "--schedule", "power:1e-16,1",
    )
    assert code == 64
    assert "exponent 1e-16" in err


def test_the_package_exports_every_module_all():
    from semiflow import characterize, schemes, semigroups, stepseq, vecspace

    missing = [
        f"{module.__name__}.{name}"
        for module in (vecspace, semigroups, stepseq, characterize, schemes)
        for name in module.__all__
        if getattr(semiflow, name, None) is not getattr(module, name)
    ]
    assert missing == []
