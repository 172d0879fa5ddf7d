"""Self-tests of the benchmark's checks and tracer.

    python3 -m pytest bench/test_bench.py

Each test feeds a workload a deliberately wrong package output and asserts
that the operation registers as failed, so a broken program cannot pass
the benchmark's correctness gate.
"""

import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from semiflow import characterize, cli  # noqa: E402


def untimed(fn):
    return fn()


@pytest.fixture(scope="module")
def certify():
    w = workloads.CertifyMixed(seed=7, workdir=None)
    w.setup()
    return w


def test_certify_ops_pass_on_the_package(certify):
    for i in range(certify.CYCLE):
        assert certify.op(i, untimed).failures == []


def test_wrong_verdict_fails(certify, monkeypatch):
    original = characterize.certify_common_fixed

    def flipped(*args, **kwargs):
        cert = original(*args, **kwargs)
        wrong = "not_certified" if cert.verdict == "certified" else "certified"
        return replace(cert, verdict=wrong)

    monkeypatch.setattr(characterize, "certify_common_fixed", flipped)
    outcome = certify.op(0, untimed)
    assert any("verdict" in f for f in outcome.failures)


def test_missing_warning_fails(certify, monkeypatch):
    original = characterize.certify_common_fixed

    def silent(*args, **kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return original(*args, **kwargs)

    monkeypatch.setattr(characterize, "certify_common_fixed", silent)
    rational_op = certify.RATIONAL[0]
    assert certify.schedule[rational_op][5]
    outcome = certify.op(rational_op, untimed)
    assert outcome.failures == ["no NearRationalWarning on a rational pair"]


def test_changed_artifact_fails(tmp_path, monkeypatch):
    w = workloads.HalpernRotation(seed=7, workdir=tmp_path)
    w.MAX_ITER = 2000  # same checks, shorter run
    w.setup()
    assert w.op(0, untimed).failures == []
    original = cli.main

    def tampered(argv):
        code = original(argv)
        csv = Path(argv[argv.index("--csv") + 1])
        csv.write_bytes(csv.read_bytes() + b"\n")
        return code

    monkeypatch.setattr(cli, "main", tampered)
    outcome = w.op(len(w.configs), untimed)  # same configuration as op 0
    assert any("changed between runs" in f for f in outcome.failures)


def test_unconverged_sweep_fails():
    payload = {
        "results": [{"seed": 1, "termination": "max_iter"}],
        "final_distance_max": 1e-9,
    }
    failures = checks.sweep_run(2, payload, 1, bound=1e-8)
    assert len(failures) == 2


def test_traced_self_times_sum_to_op_wall(certify):
    tracer = spans.Tracer()
    total = 0.0
    for i in range(4):
        with tracer:
            outcome, dur = tracer.span("op", "bench", certify.op, i, untimed)
        assert outcome.failures == []
        total += dur
    assert sum(tracer.layer_self_s.values()) == pytest.approx(total, rel=1e-9)
    assert tracer.calls["certify_common_fixed"] == 4
    assert characterize.certify_common_fixed.__module__ == "semiflow.characterize"


def test_percentile_leaves_the_stated_samples_beyond():
    values = list(range(1, 201))
    assert run.percentile(values, 95.0) == (190, 10)
    assert run.percentile(values, 100.0) == (200, 0)
