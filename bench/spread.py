"""Run the benchmark several times per workload and report each metric's spread.

    python3 bench/spread.py --runs 10 --first-seed 1 --out baseline.json

Each run uses its own seed (first-seed, first-seed + 1, ...) and the
``run_seconds`` of ``BENCHMARK.json``. For every end-to-end metric the script
prints the median, the quartiles as ``statistics.quantiles(values, n=4)``
gives them, and the spread (q3 - q1) / median next to the metric's bound.
``--trace-runs`` adds traced runs whose per-layer figures are kept as given.
``--out`` writes everything, with the run environment, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}{proc.stderr}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = [args.first_seed, args.first_seed + args.runs - 1]
    report = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            env, result = run_once(workload, seed, seconds, 0)
            report["env"] = {k: v for k, v in env.items() if k != "seed"}
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        figures = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            figures[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            print(f"{workload:<14} {name:<15} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f} (bound {bounds[name]})", flush=True)
        traced = [
            run_once(workload, args.first_seed + i, seconds, 1)[1]["metrics"]
            for i in range(args.trace_runs)
        ]
        report["workloads"][workload] = {"end_to_end": figures, "per_layer": traced}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
