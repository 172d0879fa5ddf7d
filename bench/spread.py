"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 1-10 [--workloads a,b] [--trace 0|1] [--out FILE]

Runs ``bench/run.py`` once per (workload, seed), one run at a time, with
the ``run_seconds`` of BENCHMARK.json.  For every metric it prints the
median over the seeds and the spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median.  For the end-to-end metrics it also prints the bound from
BENCHMARK.json and whether the spread is within it.  ``--out`` writes the
medians, spreads, every run's values and the environment as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0].split(" ", 1)[1])
    extra = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ")
            extra[name] = float(value)
    return json.loads(lines[-1]), extra, env


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / abs(med) if med else 0.0


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report = {"run_seconds": bench["run_seconds"], "trace": args.trace, "seeds": seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result, printed, env = run_once(workload, seed, bench["run_seconds"], args.trace)
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
            runs.append(printed)
        report["env"] = env
        summary = {}
        print(f"\n{workload} ({len(seeds)} seeds, {bench['run_seconds']} s each)")
        for name in runs[0]:
            values = [r[name] for r in runs]
            med, spr = spread(values)
            summary[name] = {"median": med, "spread": spr, "values": values}
            line = f"  {name:40s} median {med:<14.6g} spread {spr:7.2%}"
            if name in bounds:
                within = name == "setup_s" or spr <= bounds[name]
                ok &= within
                line += f"  bound {bounds[name]:.0%}  {'ok' if within else 'TOO WIDE'}"
                line += "" if spr <= bounds[name] / 3 else "  (above a third of the bound)"
            print(line)
        report["workloads"][workload] = summary
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
