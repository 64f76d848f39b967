"""Runs one benchmark workload in its own process and prints a JSON result.

Started by ``run.py`` from the root of a checkout, with ``src`` on
``PYTHONPATH``.  Set-up (importing twinbeam, loading and validating the
preset, and for ``sweep_fig4b`` resolving kappa) is timed from the first
line of this file, so import cost lands in ``setup_s``.  The timed loop runs
whole rounds of operations, one at a time, until ``--seconds`` have passed;
every operation's output is checked against ``refs.json``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs.json"
# Records, spans and scratch artifacts, under the root of the checkout (the
# working directory).
OUT = Path(".bench_runs")

WORKLOAD_PRESETS = {
    "run_fig5": "fig5",
    "sweep_fig4b": "fig4b",
}
# Counting seeds a run operation may draw; refs.json holds counts for each.
COUNT_SEEDS = (0, 1, 2, 3)
# The README's free and collimated sweeps on fig4b, one row per operation.
SWEEP_ROWS = (("free", 0.5), ("free", 1.0), ("free", 2.0), ("free", 3.0),
              ("collimated", 1.1), ("collimated", 2.0), ("collimated", 3.0))
# The ROADMAP's simplification tolerance, relative to the reference value
# (for profile rates, relative to the reference profile's peak).
REL_TOL = 1e-12
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def row_key(kind, z):
    return f"{kind}:{z:g}"


def setup(workload):
    """Import twinbeam and load the workload's preset; returns the context."""
    import twinbeam

    scenario = twinbeam.load_scenario(WORKLOAD_PRESETS[workload])
    kappa = twinbeam.resolve_kappa(scenario) if workload == "sweep_fig4b" else None
    return twinbeam, scenario, kappa, time.perf_counter() - T_START


class Round:
    """The seeded order of operations; one round is the unit a run repeats."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.rng = random.Random(seed)

    def next(self):
        if self.workload == "run_fig5":
            return [("run", "fig5", self.rng.choice(COUNT_SEEDS))]
        rows = list(SWEEP_ROWS)
        self.rng.shuffle(rows)
        return [("sweep", kind, z) for kind, z in rows]


def close(got, want):
    if want is None or got is None:
        return got is None and want is None
    return abs(float(got) - want) <= REL_TOL * abs(want)


def check_run(report, out_dir, ref, count_seed):
    import numpy as np

    problems = []
    rates = np.asarray(report.profile.rates)
    want = np.asarray(ref["rates"])
    # Written as "not <=" so that a NaN fails the check.
    if rates.shape != want.shape or not np.max(np.abs(rates - want)) <= REL_TOL * want.max():
        problems.append("profile rates differ from the reference")
    coords = np.asarray(report.profile.coordinates)
    want_coords = np.asarray(ref["coordinates"])
    if (coords.shape != want_coords.shape
            or not np.max(np.abs(coords - want_coords)) <= REL_TOL * np.abs(want_coords).max()):
        problems.append("profile coordinates differ from the reference")
    seeded = ref["seeds"][str(count_seed)]
    if report.counted.counts.tolist() != seeded["counts"]:
        problems.append(f"Poisson counts for seed {count_seed} differ from the reference")
    for key, value in seeded["metrics"].items():
        if not close(report.metrics.get(key), value):
            problems.append(f"metric {key}={report.metrics.get(key)!r}, reference {value!r}")
    if sorted(report.manifest) != ref["artifacts"]:
        problems.append(f"artifacts {sorted(report.manifest)} differ from the reference")
    if not (out_dir / "report.json").is_file():
        problems.append("report.json was not written")
    return problems


def check_row(rows, z, ref):
    if ref["refused"]:
        return [f"row {z:g} m completed, the reference refuses it"]
    if len(rows) != 1 or rows[0].distance_m != z:
        return [f"expected one row at {z:g} m, got {rows!r}"]
    return [f"{name}={getattr(rows[0], name)!r}, reference {ref[name]!r}"
            for name in ("peak_rate", "snr") if not close(getattr(rows[0], name), ref[name])]


def execute(ctx, desc, index, work_dir):
    """Run and check one operation; returns its record (wall time in ``s``)."""
    twinbeam, scenario, kappa, refs = ctx
    kind, a, b = desc
    record = {"op": index, "kind": kind}
    out_dir = work_dir / f"op{index}"
    t0 = time.perf_counter()
    try:
        if kind == "run":
            record.update(preset=a, count_seed=b)
            report = twinbeam.run(scenario, out_dir, seed=b)
            record["s"] = time.perf_counter() - t0
            record["bytes"] = sum(p.stat().st_size for p in out_dir.iterdir())
            problems = check_run(report, out_dir, refs["presets"][a], b)
        else:
            record.update(row=row_key(a, b))
            ref = refs["sweep_rows"][row_key(a, b)]
            try:
                rows = twinbeam.sweep_distance(scenario, [b], collimated=(a == "collimated"),
                                               kappa=kappa)
            except twinbeam.AliasingRiskError as exc:
                record["s"] = time.perf_counter() - t0
                record.update(refused="AliasingRiskError", max_safe_distance=exc.max_safe_distance)
                problems = ([] if ref["refused"] and exc.max_safe_distance < b
                            and close(exc.max_safe_distance, ref["max_safe_distance"]) else
                            [f"refusal with max safe distance {exc.max_safe_distance!r}, reference "
                             f"{ref.get('max_safe_distance')!r}"])
            else:
                record["s"] = time.perf_counter() - t0
                problems = check_row(rows, b, ref)
    except Exception as exc:  # an operation boundary: record it and keep running
        record.setdefault("s", time.perf_counter() - t0)
        record["error"] = type(exc).__name__
        problems = [traceback.format_exc(limit=3)]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    record["problems"] = problems
    return record


def timed_loop(ctx, rounds, seconds, budget, work_dir, reserve_rounds):
    """Run whole rounds until ``seconds`` pass; stop early if the next round
    (plus ``reserve_rounds`` more) would overrun ``budget`` seconds.  Returns
    the records and the loop's duration, which is below ``seconds`` only if
    the loop stopped early."""
    records = []
    t0 = time.perf_counter()
    longest = 0.0
    while True:
        r0 = time.perf_counter()
        for desc in rounds.next():
            records.append(execute(ctx, desc, len(records), work_dir))
        longest = max(longest, time.perf_counter() - r0)
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds or elapsed + (1 + reserve_rounds) * longest > budget:
            return records, elapsed


def traced_round(ctx, rounds, work_dir, spans_path):
    """One round under the tracer; per-operation layer metrics."""
    from tracer import Tracer, layer_metrics

    twinbeam = ctx[0]
    tracer = Tracer()
    records = []
    with tracer:
        for desc in rounds.next():
            tracer.op_id = len(records)
            records.append(execute(ctx, desc, len(records), work_dir))
    digest = twinbeam.runner.scenario_digest
    metrics = layer_metrics(tracer.spans, len(records), digest)
    metrics["fileio.bytes"] = sum(r.get("bytes", 0) for r in records) / len(records)
    with open(spans_path, "w") as fh:
        for op, name, start, end, parent, error, info in tracer.spans:
            if isinstance(info, tuple):
                info = [digest(info[0]), info[1]]
            fh.write(json.dumps({"op": op, "name": name, "start": start, "end": end,
                                 "parent": parent, "error": error, "info": info}) + "\n")
    return records, metrics


def l3_size():
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
        except OSError:
            continue
    return None


def git_commit(root):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy as np

    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l3_cache": l3_size(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": ("numpy.fft (pocketfft)" if hasattr(np.fft, "_pocketfft")
                        else "numpy.fft"),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_commit": git_commit(Path.cwd()),
        "workload_seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_PRESETS))
    modes = parser.add_subparsers(dest="mode", required=True)
    modes.add_parser("setup", help="time set-up only")
    run = modes.add_parser("run", help="set up, then run the timed loop")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), required=True)
    run.add_argument("--budget", type=float, required=True,
                     help="seconds this process may run in all")
    args = parser.parse_args(argv)

    twinbeam, scenario, kappa, setup_s = setup(args.workload)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ctx = (twinbeam, scenario, kappa, json.loads(REFS.read_text()))
    rounds = Round(args.workload, args.seed)
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        budget = args.budget - (time.perf_counter() - T_START)
        records, loop_s = timed_loop(ctx, rounds, args.seconds, budget, work_dir,
                                     reserve_rounds=args.trace)
        result = {
            "setup_s": setup_s,
            "loop_s": loop_s,
            "truncated": loop_s < args.seconds,
            "records": records,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "environment": environment(args.seed),
        }
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            traced, layers = traced_round(ctx, rounds, work_dir, spans_path)
            untraced = statistics.median(r["s"] for r in records)
            layers["trace.overhead_frac"] = statistics.median(r["s"] for r in traced) / untraced - 1
            result.update(traced_records=traced, layers=layers, spans=str(spans_path))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
