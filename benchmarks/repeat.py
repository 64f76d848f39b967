"""Reruns the whole benchmark and reports each metric's spread over seeds.

    python3 benchmarks/repeat.py                     # seeds 1..10
    python3 benchmarks/repeat.py --first-seed 101    # seeds 101..110

For every workload it makes 10 untraced runs, one per seed, then one traced
run on the first seed.

Run from the root of a checkout.  Reads the workloads, run length and bounds
from BENCHMARK.json.  For each end-to-end metric it prints the median of the
runs and the spread (third minus first quartile, as a share of the median)
next to a third of the metric's bound, which is the steadiness target.
The summary, with every raw value, goes to
``.bench_runs/repeat-seed<first seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from worker import OUT

RUN = Path(__file__).resolve().parent / "run.py"
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          stdout=subprocess.PIPE, text=True, timeout=240)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} operations failed")
    return result


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + RUNS):
            result = run_once(workload, seed, spec["run_seconds"], 0)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[metric["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                    "target": metric["bound"] / 3, "values": vals}
            flag = "" if spread < metric["bound"] / 3 else "  <-- above a third of the bound"
            print(f"{workload:12s} {metric['name']:14s} median {med:10.5g} {metric['unit']:6s}"
                  f" spread {spread:7.4f} (target < {metric['bound'] / 3:.4f}){flag}")
        traced = run_once(workload, args.first_seed, spec["run_seconds"], 1)
        per_layer = {k: m["value"] for k, m in traced["metrics"].items()}
        summary[workload] = {"end_to_end": rows, "per_layer": per_layer}
        for name, value in per_layer.items():
            print(f"{workload:12s}   {name:42s} {value:.6g}")
        sys.stdout.flush()
    OUT.mkdir(exist_ok=True)
    (OUT / f"repeat-seed{args.first_seed}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
