"""Benchmark driver for the semiflow package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` next
to this directory, never from an installed copy.  One process, one thread,
one caller in a closed loop: each operation starts after the previous one
returned.  Inputs come from ``--seed``; every output is checked.

``--trace 0`` times the untraced operations and reports the end-to-end
metrics.  ``--trace 1`` runs every input twice, untraced and then traced,
and reports the per-layer metrics; the paired untraced run gives the
tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("halpern_rotation", "certify_mixed", "sweep_heat16")

# Set-up is repeated this many times and the median is reported.
SETUP_REPS = 3

# Tail percentile of the operation latency, fixed per workload so that it
# stays comparable between commits.  sweep_heat16 (55 to 75 operations in
# 30 s) uses p75, the highest percentile with ten samples beyond it.
# certify_mixed (about 2500) uses p90: its p99 is set by interference from
# other tenants of the host and spread by 35 % between runs in a trial.
# A halpern_rotation operation takes about 2 s, so a run holds about 14
# and no percentile has ten samples beyond it.  Its p90 is the second
# slowest operation: the slowest one spread by 16 % between runs.
TAIL_PERCENTILE = {"halpern_rotation": 90.0, "certify_mixed": 90.0, "sweep_heat16": 75.0}


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def percentile(values, p):
    """Nearest-rank percentile; returns (value, samples beyond it)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


REF_ROTATION = np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])


def reference():
    """Fixed reference work, shaped like the package's hot loops.

    200 steps of a 2x2 rotation, a clip (a domain projection), a norm and
    a recorded tuple: small-array numpy calls and interpreter overhead.
    When the host slows down, this loop slows down in the same proportion
    as the workloads (within 1 % in a 120 s trial), which a plain integer
    loop does not (18 % apart).  About 2.5 ms on the baseline machine.
    """
    x = np.array([1.0, 0.5])
    steps = []
    for n in range(200):
        y = REF_ROTATION @ x
        z = np.clip(y, -10.0, 10.0)
        steps.append((n, float(np.linalg.norm(z - x))))
        x = 0.5 * (y + z)
    return steps


def timed_reference(reps):
    """Median duration of ``reps`` back-to-back reference loops."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Samples:
    """Everything the closed loop measured."""

    lat: list = field(default_factory=list)        # untraced operation latencies, s
    rel: list = field(default_factory=list)        # the same, in reference-loop durations
    refs: list = field(default_factory=list)       # reference-loop durations, s
    outcomes: list = field(default_factory=list)
    traced_lat: list = field(default_factory=list)
    traced_outcomes: list = field(default_factory=list)


def measure(workload, seconds, tracer=None):
    """Closed loop over workload.op until ``seconds`` have passed.

    A bracket of ``workload.REF_REPS`` reference loops runs before every
    operation and once after the last, and each untraced latency is also
    expressed in units of the mean of the two bracket medians around it.
    The machine's speed drifts by tens of percent over seconds on a shared
    host; the operation and its neighbouring brackets drift together, so
    the ratio is steady.  With a tracer every input runs untraced and then
    traced.
    """
    from workloads import Outcome

    got = Samples()
    deadline = time.perf_counter() + seconds
    ref_before = timed_reference(workload.REF_REPS)
    got.refs.append(ref_before)
    i = 0
    while True:
        for traced in ((False, True) if tracer else (False,)):
            box = []

            def timed(fn):
                if traced:
                    with tracer:
                        result, dur = tracer.span("op", "bench", fn)
                else:
                    t0 = time.perf_counter()
                    result = fn()
                    dur = time.perf_counter() - t0
                box.append(dur)
                return result

            try:
                outcome = workload.op(i, timed)
            except Exception as exc:  # the package failed: count it and go on
                outcome = Outcome(failures=[f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"])
            ref_after = timed_reference(workload.REF_REPS)
            got.refs.append(ref_after)
            if traced:
                got.traced_outcomes.append(outcome)
                got.traced_lat += box
            else:
                got.outcomes.append(outcome)
                got.lat += box
                got.rel += [dur / (0.5 * (ref_before + ref_after)) for dur in box]
            ref_before = ref_after
        i += 1
        if time.perf_counter() >= deadline:
            return got


def end_to_end(name, setup_s, got):
    """The gated metrics, then the ones that are printed only."""
    p = TAIL_PERCENTILE[name]
    tail_rel, beyond = percentile(got.rel, p)
    tail, _ = percentile(got.lat, p)
    wall = sum(got.lat)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_ref": (statistics.median(got.rel), "ref"),
        "op_tail_ref": (tail_rel, "ref"),
        "ops_per_kref": (1e3 * len(got.rel) / sum(got.rel), "1/kref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    outcomes = got.outcomes
    failed = sum(bool(o.failures) for o in outcomes)
    extra = {
        "op_p50_ms": (statistics.median(got.lat) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "ops_per_s": (len(got.lat) / wall, "1/s"),
        "ref_ms": (statistics.median(got.refs) * 1e3, "ms"),  # one reference loop
        "failed_frac": (failed / len(outcomes), "frac"),
        "op_tail_percentile": (p, "pct"),
        "op_samples": (len(got.lat), "count"),
        "op_tail_beyond": (beyond, "count"),
    }
    iters = sum(o.iters for o in outcomes)
    if iters:
        extra["iters_per_s"] = (iters / wall, "1/s")
    n_used = [n for o in outcomes for n in o.n_used]
    if n_used:
        extra["iters_to_tol"] = (statistics.median(n_used), "count")
    fsd = [d for o in outcomes for d in o.fsd]
    if fsd:
        extra["final_fsd"] = (statistics.median(fsd), "dist")
    return metrics, extra


def per_layer(tracer, setup_tracer, got):
    """Per-layer metrics of the traced operations, per operation unless named otherwise."""
    n = len(got.traced_lat)
    calls, self_s, total_s, counts = tracer.calls, tracer.self_s, tracer.total_s, tracer.counts
    layer = tracer.layer_self_s

    def ratio(a, b):
        return a / b if b else 0.0

    def hot_calls(spans, child):
        return sum(s["hot_children"].get(child, {}).get("calls", 0) for s in spans)

    scheme_spans = [s for s in tracer.spans if s["name"] == "run_scheme"]
    char_spans = [s for s in tracer.spans if s["layer"] == "characterize"]
    iters = counts["scheme_iters"]
    ev = calls["evaluate"]
    certs = calls["certify_common_fixed"]
    op_wall = sum(got.traced_lat)
    return {
        "semigroups.evaluate_calls": (ev / n, "count"),
        "semigroups.evaluate_us": (ratio(self_s["evaluate"], ev) * 1e6, "us"),
        "semigroups.fixed_set_distance_calls": (calls["fixed_set_distance"] / n, "count"),
        "semigroups.from_descriptor_calls": (calls["from_descriptor"] / n, "count"),
        "semigroups.from_descriptor_self_s": (self_s["from_descriptor"] / n, "s"),
        "semigroups.self_s": (layer["semigroups"] / n, "s"),
        "schemes.self_s": (layer["schemes"] / n, "s"),
        "schemes.iters": (iters / n, "count"),
        "schemes.evaluate_per_iter": (ratio(hot_calls(scheme_spans, "evaluate"), iters), "count"),
        "schemes.us_per_iter": (ratio(total_s["run_scheme"], iters) * 1e6, "us"),
        "schemes.records_kept_frac": (ratio(counts["records_kept"], iters), "frac"),
        "characterize.certify_calls": (certs / n, "count"),
        "characterize.self_s": (layer["characterize"] / n, "s"),
        "characterize.evaluate_per_cert": (ratio(hot_calls(char_spans, "evaluate"), certs), "count"),
        "stepseq.euclid_calls": (calls["euclid_sequence"] / n, "count"),
        "stepseq.euclid_self_s": (self_s["euclid_sequence"] / n, "s"),
        "vecspace.eigendecompose_calls": (calls["sym_eigendecompose"] / n, "count"),
        "vecspace.eigendecompose_s": (total_s["sym_eigendecompose"] / n, "s"),
        "vecspace.setup_eigendecompose_calls": (setup_tracer.calls["sym_eigendecompose"], "count"),
        "vecspace.setup_eigendecompose_s": (setup_tracer.total_s["sym_eigendecompose"], "s"),
        "vecspace.project_calls": (calls["project"] / n, "count"),
        "vecspace.project_moved": (counts["project_moved"] / n, "count"),
        "vecspace.self_s": (layer["vecspace"] / n, "s"),
        "cli.main_calls": (calls["cli.main"] / n, "count"),
        "cli.self_s": (layer["cli"] / n, "s"),
        "cli.files_written": (sum(o.files_written for o in got.traced_outcomes) / n, "count"),
        "cli.bytes_written": (sum(o.bytes_written for o in got.traced_outcomes) / n, "B"),
        "bench.self_s": (layer["bench"] / n, "s"),
        "trace.op_wall_s": (op_wall / n, "s"),
        "trace.self_sum_frac": (ratio(sum(layer.values()), op_wall), "frac"),
        "trace.overhead_frac": (ratio(op_wall, sum(got.lat)) - 1.0, "frac"),
        "trace.ops": (n, "count"),
    }


def run(args):
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import semiflow
    except ImportError as exc:
        print(f"error: cannot import semiflow from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 1
    if not Path(semiflow.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: semiflow was imported from {semiflow.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 1
    import spans
    import workloads

    import_s = time.perf_counter() - T_START
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_tracer = spans.Tracer()
        setup_times = []
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            if args.trace and rep == SETUP_REPS - 1:
                with setup_tracer:
                    workload.setup()
            else:
                workload.setup()
            setup_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setup_times)

        tracer = spans.Tracer() if args.trace else None
        # the CLI's status lines go to a log file, so that this process's
        # standard output stays machine-readable
        with open(workdir / "cli.log", "w") as log, \
                contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            workload.warmup()
            got = measure(workload, args.seconds, tracer)

        all_outcomes = got.outcomes + got.traced_outcomes
        failed = [o for o in all_outcomes if o.failures]
        for o in failed[:5]:
            print(f"failed: {'; '.join(o.failures)}", file=sys.stderr)
        if not got.lat or (tracer and not got.traced_lat):
            print("error: no operation completed", file=sys.stderr)
            return 1
        if tracer:
            metrics = per_layer(tracer, setup_tracer, got)
            tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
            extra = {}
        else:
            metrics, extra = end_to_end(args.workload, setup_s, got)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"metric {name} {value:.6g} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(all_outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
