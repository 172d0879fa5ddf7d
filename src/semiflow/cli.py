"""Command-line harness for the library.

Subcommands mirror the modules one-to-one:

  euclid     two-time remainder recursion, JSON on stdout
  decompose  greedy step decomposition of a time, JSON on stdout
  verify     certify a point as a common fixed point, JSON on stdout
  run        one iteration scheme, CSV trace plus JSON summary
  sweep      one scheme over several seeds, per-seed artifacts + aggregate

Exit codes: 0 converged/certified, 2 iteration budget exhausted, 3 inner
solver failure, 4 not certified, 64 usage or configuration error.

Output discipline: numbers are serialized with repr(), i.e. the shortest
decimal string that round-trips the double ('.' decimal point, no
separators), and JSON objects are written with sorted keys, so a given
configuration and seed reproduce their outputs byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from semiflow.characterize import certify_common_fixed, default_profile_grid
from semiflow.schemes import (
    CONVERGED,
    INNER_SOLVER_FAILURE,
    MAX_ITER,
    IterationConfig,
    parse_schedule,
    run_scheme,
    SCHEME_TAGS,
)
from semiflow.semigroups import from_descriptor
from semiflow.stepseq import euclid_sequence, geometric, greedy_decompose
from semiflow.vecspace import Ball

__all__ = ["ExperimentConfig", "main", "console_main"]

SPEC_VERSION = "1"
EX_USAGE = 64
EX_NOT_CERTIFIED = 4

TERMINATION_EXIT = {CONVERGED: 0, MAX_ITER: 2, INNER_SOLVER_FAILURE: 3}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads an argument that starts with "-" as an option name
        # unless it matches this; its own pattern misses "-4,1" and "-1e-3"
        self._negative_number_matcher = re.compile(r"^-[\d.][\d.,eE+-]*$")

    # argparse exits with status 2 on bad flags; the exit-code contract
    # reserves 2 for budget exhaustion, so parse failures are rethrown
    # and mapped to 64 in main()
    def error(self, message):
        raise _UsageError(message)


def _point_arg(text):
    try:
        values = tuple(float(part) for part in str(text).split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one coordinate")
    return values


def _seeds_arg(text):
    try:
        seeds = tuple(int(part) for part in str(text).split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if any(s < 0 for s in seeds):
        raise argparse.ArgumentTypeError("seeds must be nonnegative")
    return seeds


def _grid_arg(text):
    parts = str(text).split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected start:stop:step floats, got {text!r}")
    if not (start >= 0.0 and stop >= start and step > 0.0):
        raise argparse.ArgumentTypeError("grid needs 0 <= start <= stop and step > 0")
    return {"start": start, "stop": stop, "step": step}


# ---- experiment configuration --------------------------------------------------

@dataclass
class ExperimentConfig:
    """Everything a `run` needs, in serializable form.

    The fields are the `run` options (`sweep` takes all but x0, seed, csv
    and json, and sets the seed of each run from --seeds): each is the
    flag ``--<name>`` with ``_`` written ``-`` (``lam`` is ``--lambda``),
    and the field defaults are the CLI defaults.  The seed (unsigned)
    drives the start-point sample when --x0 is not given; together with
    the flags it fully determines all outputs.  to_argv() emits an argv
    that parses back to an equal config.
    """

    scheme: str
    semigroup: str
    alpha: float
    beta: float
    kappa: float = 0.25
    lam: float = 0.25
    schedule: str | None = None
    max_iter: int | None = None
    tol: float = 1e-8
    inner_tol: float = 1e-10
    inner_cap: int = 100_000
    u: tuple | None = None
    x0: tuple | None = None
    seed: int = 0
    record_all: bool = False
    csv: str | None = None
    json: str | None = None

    def __post_init__(self):
        if self.scheme not in SCHEME_TAGS:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {sorted(SCHEME_TAGS)}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def to_argv(self):
        # "--flag=value" throughout, so a value starting with "-" is never
        # read as an option name; str() of a float is its shortest repr
        argv = ["run"]
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            flag = "--lambda" if f.name == "lam" else "--" + f.name.replace("_", "-")
            if value is True:
                argv.append(flag)
            elif value is not None and value is not False:
                text = ",".join(map(str, value)) if isinstance(value, (tuple, list, np.ndarray)) else str(value)
                argv.append(f"{flag}={text}")
        return argv

    def to_dict(self):
        out = dataclasses.asdict(self)
        for key in ("u", "x0"):
            if out[key] is not None:
                out[key] = list(out[key])
        return out


def _experiment_from_args(args):
    # the run/sweep parsers suppress defaults: flags left out, and those
    # sweep does not have, take the field defaults
    given = vars(args)
    names = (f.name for f in dataclasses.fields(ExperimentConfig))
    return ExperimentConfig(**{name: given[name] for name in names if name in given})


def _sample_point(domain, seed):
    """Uniform sample from the domain, fully determined by the seed."""
    rng = np.random.default_rng(seed)
    if isinstance(domain, Ball):
        d = domain.center.size
        g = rng.standard_normal(d)
        norm = float(np.linalg.norm(g))
        if norm == 0.0:
            return domain.center.copy()
        r = domain.radius * float(rng.uniform()) ** (1.0 / d)
        return domain.center + (r / norm) * g
    return rng.uniform(domain.lower, domain.upper)


def _iteration_config(spec, cfg):
    # every IterationConfig field but start has a namesake in ExperimentConfig
    shared = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(IterationConfig) if f.name != "start"}
    shared["schedule"] = None if cfg.schedule is None else parse_schedule(cfg.schedule)
    start = cfg.x0 if cfg.x0 is not None else _sample_point(spec.domain, cfg.seed)
    return IterationConfig(**shared, start=start)


# ---- output writers -------------------------------------------------------------

def _json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_trace_csv(path, report):
    d = report.final_point.size
    header = ["n", "pair_residual", "step_norm", "fixed_set_distance"]
    header += [f"x{i}" for i in range(d)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for rec in report.iterates_recorded:
            row = [rec.n, repr(rec.pair_residual), repr(rec.step_norm), repr(rec.fixed_set_distance)]
            row += [repr(float(v)) for v in rec.point]
            writer.writerow(row)


def _summary_payload(cfg, report):
    return {
        "spec_version": SPEC_VERSION,
        "config": cfg.to_dict(),
        "report": report.to_dict(),
    }


def _execute_run(cfg, spec):
    report = run_scheme(cfg.scheme, spec, _iteration_config(spec, cfg))
    if cfg.csv is not None:
        _write_trace_csv(cfg.csv, report)
    summary = _json_text(_summary_payload(cfg, report))
    json_path = cfg.json
    if json_path is None and cfg.csv is not None:
        json_path = str(Path(cfg.csv).with_suffix(".json"))
    if json_path is not None:
        Path(json_path).write_text(summary)
    else:
        sys.stdout.write(summary)
    rec = report.final_record
    print(
        f"{cfg.scheme}: {report.termination} at n={report.n_used} "
        f"(pair_residual={rec.pair_residual:.3e}, fixed_set_distance={rec.fixed_set_distance:.3e})",
        file=sys.stderr,
    )
    return TERMINATION_EXIT[report.termination], report


# ---- subcommand handlers ---------------------------------------------------------

def _cmd_euclid(args):
    seq = euclid_sequence(args.alpha, args.beta, tol=args.tol, max_terms=args.max_terms)
    sys.stdout.write(_json_text({"spec_version": SPEC_VERSION, **seq.to_dict()}))
    return 0


def _cmd_decompose(args):
    dec = greedy_decompose(args.t, geometric(args.ratio), args.n)
    sys.stdout.write(_json_text({"spec_version": SPEC_VERSION, **dec.to_dict()}))
    return 0


def _cmd_verify(args):
    spec = from_descriptor(args.semigroup)
    x = np.array(args.point, dtype=float)
    grid = None if args.grid is None else default_profile_grid(args.alpha, args.beta, **args.grid)
    cert = certify_common_fixed(spec, x, args.alpha, args.beta, grid=grid, tol=args.tol)
    sys.stdout.write(_json_text({"spec_version": SPEC_VERSION, **cert.to_dict()}))
    return 0 if cert.verdict == "certified" else EX_NOT_CERTIFIED


def _cmd_run(args):
    cfg = _experiment_from_args(args)
    code, _ = _execute_run(cfg, from_descriptor(cfg.semigroup))
    return code


def _cmd_sweep(args):
    base = _experiment_from_args(args)
    spec = from_descriptor(base.semigroup)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    worst = 0
    for seed in args.seeds:
        stem = out_dir / f"{base.scheme}_seed{seed}"
        cfg = dataclasses.replace(
            base, seed=seed, csv=str(stem.with_suffix(".csv")), json=str(stem.with_suffix(".json"))
        )
        code, report = _execute_run(cfg, spec)
        worst = max(worst, code)
        rec = report.final_record
        results.append(
            {
                "seed": seed,
                "termination": report.termination,
                "n_used": report.n_used,
                "final_pair_residual": rec.pair_residual,
                "final_fixed_set_distance": rec.fixed_set_distance,
                "csv": cfg.csv,
                "json": cfg.json,
            }
        )
    distances = [r["final_fixed_set_distance"] for r in results]
    aggregate = {
        "spec_version": SPEC_VERSION,
        "scheme": base.scheme,
        "semigroup": base.semigroup,
        "alpha": base.alpha,
        "beta": base.beta,
        "seeds": list(args.seeds),
        "results": results,
        "final_distance_mean": float(np.mean(distances)),
        "final_distance_max": float(np.max(distances)),
    }
    (out_dir / "sweep.json").write_text(_json_text(aggregate))
    return worst


# ---- parser ----------------------------------------------------------------------

def _add_pair_flags(parser):
    parser.add_argument("--alpha", type=float, required=True, help="first sample time")
    parser.add_argument("--beta", type=float, required=True, help="second sample time")


def _add_run_flags(parser, with_start):
    parser.add_argument("--scheme", required=True, choices=sorted(SCHEME_TAGS))
    parser.add_argument("--semigroup", required=True, help="descriptor, e.g. rotation:period=1,center=0,0")
    _add_pair_flags(parser)
    parser.add_argument("--kappa", type=float, help="first averaging weight")
    parser.add_argument("--lambda", dest="lam", type=float, help="second averaging weight")
    parser.add_argument("--schedule", help="harmonic:<offset> or power:<p>[,<offset>]")
    parser.add_argument("--max-iter", type=int, help="outer budget (scheme default if omitted)")
    parser.add_argument("--tol", type=float, help="convergence tolerance")
    parser.add_argument("--inner-tol", type=float, help="implicit-solver residual target")
    parser.add_argument("--inner-cap", type=int, help="implicit-solver iteration cap")
    parser.add_argument("--u", type=_point_arg, help="anchor point (comma-separated)")
    if with_start:
        parser.add_argument("--x0", type=_point_arg, help="start point; sampled by seed if omitted")
        parser.add_argument("--seed", type=int, help="seed for the sampled start point")
    parser.add_argument("--record-all", action="store_true", help="record every iterate (no thinning)")


def _build_parser():
    parser = _Parser(prog="semiflow", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("euclid", help="two-time remainder recursion")
    _add_pair_flags(p)
    p.add_argument("--tol", type=float, default=1e-9, help="stop once the remainder drops below this")
    p.add_argument("--max-terms", type=int, default=200, help="remainder budget")
    p.set_defaults(func=_cmd_euclid)

    p = sub.add_parser("decompose", help="greedy step decomposition of a time")
    p.add_argument("--t", type=float, required=True, help="time to decompose (nonnegative)")
    p.add_argument("--ratio", type=float, required=True, help="geometric modulus ratio in (0,1)")
    p.add_argument("--n", type=int, default=60, help="number of stages")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("verify", help="certify a point as a common fixed point")
    p.add_argument("--semigroup", required=True)
    _add_pair_flags(p)
    p.add_argument("--point", type=_point_arg, required=True, help="candidate point (comma-separated)")
    p.add_argument("--tol", type=float, default=1e-8, help="pair-residual tolerance")
    p.add_argument("--grid", type=_grid_arg, default=None, help="profile grid start:stop:step")
    p.set_defaults(func=_cmd_verify)

    # run and sweep declare no defaults: ExperimentConfig holds them
    p = sub.add_parser("run", help="run one iteration scheme", argument_default=argparse.SUPPRESS)
    _add_run_flags(p, with_start=True)
    p.add_argument("--csv", help="trajectory CSV path")
    p.add_argument("--json", help="summary JSON path (derived from --csv if omitted)")
    p.set_defaults(func=_cmd_run)

    # no abbreviations here: argparse would otherwise read --seed as --seeds
    p = sub.add_parser(
        "sweep", help="run one scheme over several seeds", argument_default=argparse.SUPPRESS, allow_abbrev=False
    )
    _add_run_flags(p, with_start=False)
    p.add_argument("--seeds", type=_seeds_arg, required=True, help="comma-separated seed list")
    p.add_argument("--out-dir", required=True, help="directory for per-seed artifacts and sweep.json")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code is None else int(exc.code)


def console_main():
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
