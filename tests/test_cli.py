import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semiflow
from semiflow import cli
from semiflow.cli import ExperimentConfig, _build_parser, _experiment_from_args, main

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
    # (50, 0) lies outside the radius-10 rotation disc
    argv = [
        "run", "--scheme", "halpern", "--semigroup", "rotation:period=1,center=0,0",
        "--alpha", "1", "--beta", SQRT2_STR, "--csv", str(tmp_path / "h.csv"),
    ]
    for flags, field in ((["--u=50,0", "--x0", "1,0"], "u"), (["--u", "1,0", "--x0", "50,0"], "start")):
        code, _, err = run_cli(capsys, *argv, *flags)
        assert code == 64
        assert re.search(rf"\b{field}\b", err)
    assert not (tmp_path / "h.csv").exists()


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
