"""twinbeam benchmark: one workload per call, run from the root of a checkout.

    python3 benchmarks/run.py --workload run_fig5 --seed 1 --seconds 45 --trace 0

Builds nothing: the program is imported from ``src``.  Set-up is measured in
``SETUP_REPEATS`` fresh processes (the last of which goes on to run the timed
loop) and reported as their median.  With ``--trace 0`` the result holds the
end-to-end metrics, measured untraced; with ``--trace 1`` it holds the
per-layer metrics of one extra traced round.  The last line of standard
output is the JSON result; a full record, with the environment and every
operation, goes to ``.bench_runs/``.

A run must end within ``TIME_LIMIT_S``.  If the timed loop has to stop
before ``--seconds`` have passed to keep to it, the run is truncated and its
result is marked not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import OUT

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0
# One thread per workload: pin the pools numpy could start (pocketfft itself
# is single-threaded and the hot path calls no BLAS).
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    for name, value in PINNED_ENV.items():
        env.setdefault(name, value)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def run_worker(args: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py to completion within the deadline; its last line is JSON."""
    proc = subprocess.run([sys.executable, str(WORKER), *args], env=env,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(result: dict, setup_samples: list[float]) -> dict:
    records = result["records"]
    ok = sum(1 for r in records if not r["problems"] and "refused" not in r)
    return {
        "setup_s": statistics.median(setup_samples),
        "op_s_p50": statistics.median(r["s"] for r in records),
        "ops_per_s": len(records) / result["loop_s"],
        "ops_ok_frac": ok / len(records),
        "peak_rss_mib": result["peak_rss_mib"],
    }


def refusals(records: list[dict]) -> dict:
    """Refused operations by error class and row, with the safe distance."""
    out: dict = {}
    for r in records:
        if "refused" in r:
            row = out.setdefault(r["refused"], {}).setdefault(r["row"], {"count": 0})
            row["count"] += 1
            row["max_safe_distance_m"] = r["max_safe_distance"]
    return out


def main(argv=None) -> int:
    started = time.monotonic()
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (root / "src" / "twinbeam" / "__init__.py").is_file():
        print("benchmark: run from the root of a twinbeam checkout (no src/twinbeam here)",
              file=sys.stderr)
        return 2
    out = root / OUT
    out.mkdir(exist_ok=True)
    env = child_env(root)
    deadline = started + TIME_LIMIT_S

    setup_samples = [run_worker(["--workload", args.workload, "setup"], env,
                                deadline)["setup_s"]
                     for _ in range(SETUP_REPEATS - 1)]
    budget = deadline - time.monotonic()
    result = run_worker(["--workload", args.workload, "run", "--seed", str(args.seed),
                         "--seconds", str(args.seconds), "--trace", str(args.trace),
                         "--budget", f"{budget:.3f}"], env, deadline)
    setup_samples.append(result["setup_s"])

    records = result["records"] + result.get("traced_records", [])
    failed = [r for r in records if r["problems"]]
    values = result["layers"] if args.trace else end_to_end(result, setup_samples)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metrics": metrics, "setup_samples_s": setup_samples,
        "loop_s": result["loop_s"], "truncated": result["truncated"],
        "refusals": refusals(records), "failed_ops": failed,
        "environment": result["environment"], "operations": records,
        "spans": result.get("spans"),
    }
    record_path = out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations {len(records)}  failed {len(failed)}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    for cls, rows in record["refusals"].items():
        for row, info in rows.items():
            print(f"  refused {cls} at {row}: {info['count']}x, "
                  f"max safe distance {info['max_safe_distance_m']:.6g} m")
    for r in failed:
        print(f"  FAILED op {r['op']}: {'; '.join(r['problems'])}")
    if result["truncated"]:
        print(f"  TRUNCATED: the timed loop stopped after {result['loop_s']:.1f} s of "
              f"{args.seconds} s to end within {TIME_LIMIT_S:g} s")
    print(f"  environment {json.dumps(result['environment'], sort_keys=True)}")
    print(f"  record {record_path}")
    print(json.dumps({"correct": not failed and not result["truncated"], "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
