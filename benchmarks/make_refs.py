"""Writes refs.json: the outputs every benchmark operation is checked against.

Run from the repository root:

    PYTHONPATH=src python3 benchmarks/make_refs.py

For the fig5 preset it records the profile, the artifact names, and the Poisson
counts and metrics of a run at every counting seed the benchmark may draw;
for each sweep row, its peak rate and SNR, or that it is refused.  Rerun it
only for a change that is meant to alter these outputs, and say so.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from worker import COUNT_SEEDS, OUT, REFS, SWEEP_ROWS, row_key

import twinbeam


def preset_refs(name: str, tmp: Path) -> dict:
    scenario = twinbeam.load_scenario(name)
    ref: dict = {"seeds": {}}
    for seed in COUNT_SEEDS:
        report = twinbeam.run(scenario, tmp / f"{name}-{seed}", seed=seed)
        rates = report.profile.rates.tolist()
        if ref.setdefault("rates", rates) != rates:
            raise SystemExit(f"{name}: profile rates depend on the counting seed")
        ref["coordinates"] = report.profile.coordinates.tolist()
        ref["artifacts"] = sorted(report.manifest)
        ref["seeds"][str(seed)] = {
            "counts": report.counted.counts.tolist(),
            "metrics": {k: None if v is None else float(v) for k, v in report.metrics.items()},
        }
    return ref


def sweep_refs() -> dict:
    fig4b = twinbeam.load_scenario("fig4b")
    kappa = twinbeam.resolve_kappa(fig4b)
    refs = {}
    for kind, z in SWEEP_ROWS:
        try:
            (row,) = twinbeam.sweep_distance(fig4b, [z], collimated=(kind == "collimated"),
                                             kappa=kappa)
        except twinbeam.AliasingRiskError as exc:
            refs[row_key(kind, z)] = {"refused": True,
                                      "max_safe_distance": exc.max_safe_distance}
        else:
            refs[row_key(kind, z)] = {"refused": False, "peak_rate": row.peak_rate,
                                      "snr": float(row.snr)}
    return refs


def main() -> int:
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        presets = {"fig5": preset_refs("fig5", Path(tmp))}
    doc = {"presets": presets, "sweep_rows": sweep_refs()}
    REFS.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {REFS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
