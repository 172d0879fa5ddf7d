"""Command-line harness for the library.

Subcommands mirror the modules one-to-one:

  euclid     two-time remainder recursion, JSON on stdout
  decompose  greedy step decomposition of a time, JSON on stdout
  verify     certify a point as a common fixed point, JSON on stdout
  run        one iteration scheme, CSV trace plus JSON summary
  sweep      one scheme over several seeds, per-seed artifacts + aggregate

Exit codes: 0 converged/certified, 2 iteration budget exhausted, 3 inner
solver failure, 4 not certified, 64 usage or configuration error.

Output discipline: one emitter (_emit) stamps spec_version on every JSON
artifact, a run's summary, each sweep seed's and sweep.json, and the
stdout of euclid, decompose and verify, and writes it.  Numbers are
serialized with repr(), i.e. the shortest decimal string that round-trips
the double ('.' decimal point, no separators), and JSON objects are
written with sorted keys, so a given configuration and seed reproduce
their outputs byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from semiflow.characterize import certify_common_fixed, default_profile_grid
from semiflow.schemes import (
    CONVERGED,
    INNER_SOLVER_FAILURE,
    MAX_ITER,
    IterationConfig,
    ROW_SCHEMES,
    parse_schedule,
    run_rows,
    run_scheme,
    SCHEME_TAGS,
    _scheme,
)
from semiflow.semigroups import from_descriptor
from semiflow.stepseq import euclid_sequence, geometric, greedy_decompose
from semiflow.vecspace import Ball, as_point

__all__ = ["ExperimentConfig", "main", "console_main"]

SPEC_VERSION = "1"
EX_USAGE = 64
EX_NOT_CERTIFIED = 4

TERMINATION_EXIT = {CONVERGED: 0, MAX_ITER: 2, INNER_SOLVER_FAILURE: 3}

# the fields of a run's report that sweep.json copies into each seed's result
_RESULT_KEYS = ("termination", "n_used", "final_pair_residual", "final_fixed_set_distance")


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
    return values


def _seeds_arg(text):
    try:
        seeds = tuple(int(part) for part in str(text).split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if any(s < 0 for s in seeds):
        raise argparse.ArgumentTypeError("seeds must be nonnegative")
    # a repeated seed would write the same files twice and count twice in sweep.json
    seen = set()
    for seed in seeds:
        if seed in seen:
            raise argparse.ArgumentTypeError(f"seed {seed} is repeated")
        seen.add(seed)
    return seeds


def _grid_arg(text):
    parts = str(text).split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected start:stop:step floats, got {text!r}")
    if not (0.0 <= start <= stop < math.inf and 0.0 < step < math.inf):
        raise argparse.ArgumentTypeError("grid needs finite 0 <= start <= stop and step > 0")
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
    kappa: float = IterationConfig.kappa
    lam: float = IterationConfig.lam
    schedule: str | None = None
    max_iter: int | None = IterationConfig.max_iter
    tol: float = IterationConfig.tol
    inner_tol: float = IterationConfig.inner_tol
    inner_cap: int = IterationConfig.inner_cap
    u: tuple | None = None
    x0: tuple | None = None
    seed: int = 0
    record_all: bool = IterationConfig.record_all
    csv: str | None = None
    json: str | None = None

    def __post_init__(self):
        _scheme(self.scheme)
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
        return dataclasses.asdict(self)


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
        r = domain.radius * float(rng.uniform()) ** (1.0 / d)
        return domain.center + (r / norm) * g
    return rng.uniform(domain.lower, domain.upper)


def _iteration_config(spec, cfg, start=None):
    # every IterationConfig field but start has a namesake in ExperimentConfig
    shared = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(IterationConfig) if f.name != "start"}
    shared["schedule"] = None if cfg.schedule is None else parse_schedule(cfg.schedule)
    if start is None:
        start = cfg.x0 if cfg.x0 is not None else _sample_point(spec.domain, cfg.seed)
    return IterationConfig(**shared, start=start)


# ---- output writers -------------------------------------------------------------

def _json_text(payload):
    """json.dumps(payload, indent=2, sort_keys=True) plus a newline, byte for byte.

    A run's records (payload["report"]["iterates_recorded"], flat dicts of
    numbers) are most of its text.  json.dumps takes its C encoder only
    without indent, so they are dumped that way and indented here: with
    numbers for values, every ", " between items and every "}, {" between
    records is a separator.
    """
    report = payload.get("report")
    records = report.get("iterates_recorded") if isinstance(report, dict) else None
    if not records:
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    rest = {**payload, "report": {**report, "iterates_recorded": None}}
    flat = json.dumps(records, sort_keys=True)[2:-2]  # without the outer "[{" and "}]"
    items = flat.replace(', "', ',\n        "').replace("}, {", "\n      },\n      {\n        ")
    key = '\n    "iterates_recorded": '
    listed = key + "[\n      {\n        " + items + "\n      }\n    ]"
    return json.dumps(rest, indent=2, sort_keys=True).replace(key + "null", listed, 1) + "\n"


def _write_trace_csv(path, report):
    # plain joins: no field (an int, a float repr or a column name) can hold
    # a comma, quote or newline, so csv quoting would never apply
    d = report.final_point.size
    header = ["n", "pair_residual", "step_norm", "fixed_set_distance"]
    header += [f"x{i}" for i in range(d)]
    lines = [",".join(header)]
    for rec in report.iterates_recorded:
        lines.append(",".join([
            str(rec.n), repr(rec.pair_residual), repr(rec.step_norm), repr(rec.fixed_set_distance),
            *map(repr, rec.point.tolist()),
        ]))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _emit(payload, path=None):
    """Write payload, stamped with SPEC_VERSION, as _json_text to path or to stdout."""
    text = _json_text({"spec_version": SPEC_VERSION, **payload})
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _write_run(cfg, report):
    """Write one run's artifacts and status line; return its exit code and report.to_dict()."""
    if cfg.csv is not None:
        _write_trace_csv(cfg.csv, report)
    json_path = cfg.json
    if json_path is None and cfg.csv is not None:
        json_path = Path(cfg.csv).with_suffix(".json")
    summary = report.to_dict()
    _emit({"config": cfg.to_dict(), "report": summary}, json_path)
    rec = report.final_record
    print(
        f"{cfg.scheme}: {report.termination} at n={report.n_used} "
        f"(pair_residual={rec.pair_residual:.3e}, fixed_set_distance={rec.fixed_set_distance:.3e})",
        file=sys.stderr,
    )
    return TERMINATION_EXIT[report.termination], summary


# ---- subcommand handlers ---------------------------------------------------------

def _cmd_euclid(args):
    seq = euclid_sequence(args.alpha, args.beta, tol=args.tol, max_terms=args.max_terms)
    _emit(seq.to_dict())
    return 0


def _cmd_decompose(args):
    dec = greedy_decompose(args.t, geometric(args.ratio), args.n)
    _emit(dec.to_dict())
    return 0


def _cmd_verify(args):
    spec = from_descriptor(args.semigroup)
    x = as_point(args.point)
    grid = None if args.grid is None else default_profile_grid(args.alpha, args.beta, **args.grid)
    cert = certify_common_fixed(spec, x, args.alpha, args.beta, grid=grid, tol=args.tol)
    _emit(cert.to_dict())
    return 0 if cert.verdict == "certified" else EX_NOT_CERTIFIED


def _cmd_run(args):
    cfg = _experiment_from_args(args)
    spec = from_descriptor(cfg.semigroup)
    return _write_run(cfg, run_scheme(cfg.scheme, spec, _iteration_config(spec, cfg)))[0]


def _cmd_sweep(args):
    base = _experiment_from_args(args)
    spec = from_descriptor(base.semigroup)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = str(out_dir / base.scheme)
    cfgs = [dataclasses.replace(base, seed=s, csv=f"{stem}_seed{s}.csv", json=f"{stem}_seed{s}.json")
            for s in args.seeds]
    if base.scheme in ROW_SCHEMES and len(cfgs) > 1:
        # every seed at once, as the rows of one array; each report equals
        # that seed's own run, except that a heat row rounds differently
        # and may stop one iterate away
        starts = np.array([_sample_point(spec.domain, cfg.seed) for cfg in cfgs])
        reports = run_rows(base.scheme, spec, _iteration_config(spec, base, start=starts))
    else:
        reports = (run_scheme(cfg.scheme, spec, _iteration_config(spec, cfg)) for cfg in cfgs)
    results = []
    worst = 0
    for cfg, report in zip(cfgs, reports):
        code, summary = _write_run(cfg, report)
        worst = max(worst, code)
        results.append({"seed": cfg.seed, **{k: summary[k] for k in _RESULT_KEYS}, "csv": cfg.csv, "json": cfg.json})
    distances = [r["final_fixed_set_distance"] for r in results]
    n_used = [r["n_used"] for r in results]
    aggregate = {
        "scheme": base.scheme,
        "semigroup": base.semigroup,
        "alpha": base.alpha,
        "beta": base.beta,
        "seeds": list(args.seeds),
        "results": results,
        "final_distance_mean": float(np.mean(distances)),
        "final_distance_max": float(np.max(distances)),
        "termination_counts": {t: sum(r["termination"] == t for r in results) for t in TERMINATION_EXIT},
        "n_used_min": min(n_used),
        "n_used_median": float(np.median(n_used)),
        "n_used_max": max(n_used),
    }
    _emit(aggregate, out_dir / "sweep.json")
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


@functools.cache  # built once per process: parsing never changes it
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


def _format_warning(message, category, filename, lineno, line=None):
    # every frame of a CLI run is in the package or in the interpreter's
    # start-up code, so a source location would name no line of the user's
    return f"{category.__name__}: {message}\n"


def console_main():
    warnings.formatwarning = _format_warning
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
