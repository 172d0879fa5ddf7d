"""The three benchmark workloads.

A workload builds its inputs in ``setup`` (timed as set-up), warms the
code path once in ``warmup`` (not timed), and then performs one operation
per ``op`` call.  ``op`` receives ``timed``, which runs a zero-argument
callable as the timed operation and returns its result; everything else
``op`` does (building argv, reading files back, checking) is outside the
timed region.  The callable looks the package function up at call time,
so the traced run's wrappers apply to it.

See README.md for why each workload exists and which layers it stresses.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs
from semiflow import characterize, cli, semigroups


@dataclass
class Outcome:
    """What one operation did, for the checks and the metrics."""

    failures: list
    iters: int = 0                              # outer scheme iterations (sum of n_used)
    n_used: list = field(default_factory=list)  # n_used of each converged seed
    fsd: list = field(default_factory=list)     # final distances to the analytic fixed set
    files_written: int = 0                      # files the CLI wrote
    bytes_written: int = 0                      # their total size


class HalpernRotation:
    """Acceptance-10 Halpern run on the plane rotation, through cli.main."""

    name = "halpern_rotation"
    DESCRIPTOR = "rotation:period=1,center=0,0"
    CENTER = (0.0, 0.0)
    PERIOD = 1.0
    ALPHA, BETA = 1.0, inputs.SQRT2
    MAX_ITER = 50_000
    TOL = 1e-6
    CONFIGS = 3  # distinct (u, seed) pairs, cycled so that every one repeats
    REF_REPS = 16  # reference loops per bracket, about 2 % of an operation

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.seen = {}

    def setup(self):
        self.configs = inputs.halpern_configs(self.seed, self.CONFIGS)

    def _argv(self, u, run_seed, max_iter, stem):
        return [
            "run", "--scheme", "halpern", "--semigroup", self.DESCRIPTOR,
            "--alpha", repr(self.ALPHA), "--beta", repr(self.BETA),
            # "--u=" form: argparse would read a leading "-" as an option
            "--u=" + ",".join(repr(v) for v in u), "--seed", str(run_seed),
            "--max-iter", str(max_iter), "--tol", repr(self.TOL),
            "--csv", str(stem.with_suffix(".csv")), "--json", str(stem.with_suffix(".json")),
        ]

    def warmup(self):
        u, run_seed = self.configs[0]
        cli.main(self._argv(u, run_seed, 200, self.workdir / "warmup"))

    def op(self, i, timed):
        k = i % len(self.configs)
        u, run_seed = self.configs[k]
        stem = self.workdir / f"halpern{k}"
        argv = self._argv(u, run_seed, self.MAX_ITER, stem)
        code = timed(lambda: cli.main(argv))
        files = [stem.with_suffix(".csv"), stem.with_suffix(".json")]
        blobs = [f.read_bytes() for f in files]
        payload = json.loads(blobs[1])
        failures = checks.halpern_run(
            code, payload, u, self.CENTER, self.ALPHA, self.BETA, self.PERIOD, self.MAX_ITER
        )
        failures += checks.artifacts_repeat(k, blobs, self.seen)
        final = np.asarray(payload["report"]["final_point"])
        return Outcome(
            failures=failures,
            iters=payload["report"]["n_used"],
            fsd=[float(np.linalg.norm(final - np.asarray(self.CENTER)))],
            files_written=len(blobs),
            bytes_written=sum(map(len, blobs)),
        )


class CertifyMixed:
    """certify_common_fixed on a d=64 heat flow and a d=2 rotation."""

    name = "certify_mixed"
    CYCLE = 16             # ops 0-4 and 8-12 of each cycle use heat, the rest rotation
    RATIONAL = (3, 13)     # cycle positions that use the rational pair (1, 2)
    IRRATIONAL = ((1.0, inputs.SQRT2), (1.0, inputs.GOLDEN))
    REF_REPS = 1           # one reference loop already takes a quarter of an operation

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        data = inputs.certify_inputs(self.seed)
        heat = semigroups.heat(data["heat_matrix"])
        rot = semigroups.rotation(center=data["center"], period=1.0)
        pools = {"heat": (heat, data["heat_points"]), "rotation": (rot, data["rotation_points"])}
        used = {"heat": 0, "rotation": 0}
        self.schedule = []
        for j in range(8 * self.CYCLE):
            pos = j % self.CYCLE
            kind = "heat" if pos % 8 < 5 else "rotation"
            spec, pool = pools[kind]
            x, is_fixed = pool[used[kind] % len(pool)]
            used[kind] += 1
            rational = pos in self.RATIONAL
            alpha, beta = (1.0, 2.0) if rational else self.IRRATIONAL[(j // self.CYCLE) % 2]
            self.schedule.append((spec, x, is_fixed, alpha, beta, rational))

    def warmup(self):
        seen = set()
        for spec, x, _, alpha, beta, _ in self.schedule:
            if spec.kind not in seen:
                seen.add(spec.kind)
                characterize.certify_common_fixed(spec, x, alpha, beta)

    def op(self, i, timed):
        spec, x, is_fixed, alpha, beta, rational = self.schedule[i % len(self.schedule)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", characterize.NearRationalWarning)
            cert = timed(lambda: characterize.certify_common_fixed(spec, x, alpha, beta))
        n_warn = sum(issubclass(w.category, characterize.NearRationalWarning) for w in caught)
        failures = checks.verdict(cert.verdict, is_fixed)
        failures += checks.near_rational_warning(n_warn, rational)
        return Outcome(failures=failures)


class SweepHeat16:
    """16-seed Mann sweeps on a generated d=16 heat flow, through cli.main."""

    name = "sweep_heat16"
    SEEDS = 16
    REF_REPS = 4  # reference loops per bracket, about 2.5 % of an operation
    ALPHA, BETA = 1.0, inputs.SQRT2
    TOL = 1e-8

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)

    def setup(self):
        data = inputs.sweep_inputs(self.seed)
        self.matrix_path = self.workdir / "heat16.txt"
        inputs.write_matrix(self.matrix_path, data["heat_matrix"])
        self.seed_base = data["seed_base"]
        self.bound = checks.heat_distance_bound(self.TOL, self.ALPHA, self.BETA, data["w_min"])

    def _argv(self, seeds, out_dir):
        return [
            "sweep", "--scheme", "mann", "--semigroup", f"heat:matrix={self.matrix_path}",
            "--alpha", repr(self.ALPHA), "--beta", repr(self.BETA), "--tol", repr(self.TOL),
            "--seeds", ",".join(str(s) for s in seeds), "--out-dir", str(out_dir),
        ]

    def warmup(self):
        cli.main(self._argv([self.seed_base], self.workdir / "warmup"))

    def op(self, i, timed):
        seeds = range(self.seed_base + self.SEEDS * i, self.seed_base + self.SEEDS * (i + 1))
        out_dir = self.workdir / "sweep"
        argv = self._argv(seeds, out_dir)
        code = timed(lambda: cli.main(argv))
        summary = out_dir / "sweep.json"
        payload = json.loads(summary.read_text())
        failures = checks.sweep_run(code, payload, self.SEEDS, self.bound)
        results = payload["results"]
        files = [Path(r[key]) for r in results for key in ("csv", "json")] + [summary]
        return Outcome(
            failures=failures,
            iters=sum(r["n_used"] for r in results),
            n_used=[r["n_used"] for r in results if r["termination"] == "converged"],
            fsd=[r["final_fixed_set_distance"] for r in results],
            files_written=len(files),
            bytes_written=sum(f.stat().st_size for f in files),
        )


WORKLOADS = {w.name: w for w in (HalpernRotation, CertifyMixed, SweepHeat16)}
