"""Command-line interface.

Subcommands map one-to-one onto the package operations:

* ``run`` executes a scenario (preset name or JSON path) and writes artifacts;
* ``scan`` computes just the deterministic profile CSV;
* ``sweep`` tabulates peak rate and SNR versus distance, free or collimated;
* ``design-telescope`` synthesizes a collimating relay from a catalog;
* ``compare`` reports shape agreement between two profile CSVs.

Exit codes: 0 success, 2 validation/configuration error, 3 physics or
infeasibility error.  TWINBEAM_OUT_DIR sets the default output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import fileio
from .biphoton import scan_detector
from .counting import sweep_distance
from .errors import TwinbeamError, ValidationError
from .paraxial import design_telescope
from .runner import resolve_kappa, run
from .scenario import compare_profiles, load_scenario, telescope_scenario_fragment

EXIT_VALIDATION = 2
EXIT_PHYSICS = 3


def _out_dir(args) -> Path:
    if args.out_dir:
        return Path(args.out_dir)
    return Path(os.environ.get("TWINBEAM_OUT_DIR", "out"))


def _floats(text: str, flag: str) -> list:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ValidationError(f"{flag} takes comma-separated numbers, got {text!r}") from None


def _load(args):
    scenario = load_scenario(args.scenario)
    overrides = {}
    if args.grid_n is not None:
        overrides["n"] = args.grid_n
    if args.pitch_um is not None:
        overrides["pitch_m"] = args.pitch_um * 1e-6
    if overrides:
        scenario = dataclasses.replace(
            scenario, grid=dataclasses.replace(scenario.grid, **overrides)
        )
    return scenario


def _cmd_run(args) -> int:
    scenario = _load(args)
    report = run(scenario, _out_dir(args) / scenario.name,
                 kappa=args.kappa, seed=args.seed)
    print(f"scenario {report.scenario_name} (digest {report.scenario_digest[:12]})")
    for key, value in report.metrics.items():
        print(f"  {key}: {value}")
    print(f"  artifacts: {', '.join(report.manifest)}")
    return 0


def _cmd_scan(args) -> int:
    scenario = _load(args)
    kappa = args.kappa if args.kappa is not None else resolve_kappa(scenario)
    flags = {"moving": args.moving, "axis": args.axis}
    scan = dataclasses.replace(scenario.scan, **{k: v for k, v in flags.items() if v})
    profile = scan_detector(dataclasses.replace(scenario, scan=scan), kappa=kappa)
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{scenario.name}_scan.csv"
    path.write_text(fileio.profile_to_csv(profile.coordinates, profile.rates))
    print(f"wrote {path} ({profile.coordinates.size} points, "
          f"peak {profile.peak_rate:.6g} pairs/s)")
    return 0


def _cmd_sweep(args) -> int:
    scenario = _load(args)
    distances = _floats(args.distances, "--distances")
    kappa = args.kappa if args.kappa is not None else resolve_kappa(scenario)
    rows = sweep_distance(scenario, distances, collimated=args.collimated,
                          kappa=kappa)
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    mode = "collimated" if args.collimated else "free"
    path = out / f"{scenario.name}_sweep_{mode}.csv"
    path.write_text(fileio.sweep_to_csv(rows))
    print(f"wrote {path}")
    for row in rows:
        peak = "infeasible" if row.peak_rate is None else f"{row.peak_rate:.6g}"
        snr_s = "infeasible" if row.snr is None else f"{row.snr:.3f}"
        print(f"  Z={row.distance_m:g} m  peak={peak}  snr={snr_s}")
    return 0


def _cmd_design(args) -> int:
    catalog = _floats(args.catalog, "--catalog")
    plan = design_telescope(args.total, args.magnification, catalog)
    fragment = telescope_scenario_fragment(plan)
    text = json.dumps(fragment, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    print(text)
    return 0


def _cmd_compare(args) -> int:
    profiles = []
    for path in (args.profile_a, args.profile_b):
        try:
            profiles += fileio.read_profile_csv(path)
        except (OSError, ValueError) as exc:
            raise ValidationError(f"cannot read profile {path}: {exc}") from None
    result = compare_profiles(*profiles)
    print(f"ncc: {result['ncc']:.6f}")
    print(f"width_ratio: {result['width_ratio']:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinbeam",
        description="Twin-beam coincidence-imaging simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_scenario=True):
        if with_scenario:
            p.add_argument("scenario", help="preset name (fig4a, fig4b, fig5) or JSON path")
        p.add_argument("--out-dir", default=None, help="output directory")
        p.add_argument("--grid-n", type=int, default=None, help="override grid size")
        p.add_argument("--pitch-um", type=float, default=None, help="override pitch (micrometers)")
        p.add_argument("--kappa", type=float, default=None, help="explicit calibration constant")

    p_run = sub.add_parser("run", help="full pipeline: profile, counts, metrics, artifacts")
    add_common(p_run)
    p_run.add_argument("--seed", type=int, default=None, help="override counting seed")
    p_run.set_defaults(func=_cmd_run)

    p_scan = sub.add_parser("scan", help="deterministic coincidence profile only")
    add_common(p_scan)
    p_scan.add_argument("--moving", choices=["signal", "idler"], default=None)
    p_scan.add_argument("--axis", choices=["x", "y"], default=None)
    p_scan.set_defaults(func=_cmd_scan)

    p_sweep = sub.add_parser("sweep", help="peak rate and SNR versus distance")
    add_common(p_sweep)
    group = p_sweep.add_mutually_exclusive_group(required=True)
    group.add_argument("--collimated", action="store_true")
    group.add_argument("--free", dest="collimated", action="store_false")
    p_sweep.add_argument("--distances", default="0.5,1.0,1.5,2.0,2.5,3.0",
                         help="comma-separated distances in meters")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_design = sub.add_parser("design-telescope", help="synthesize a collimating relay")
    p_design.add_argument("--total", type=float, required=True,
                          help="source-to-detector distance in meters")
    p_design.add_argument("--magnification", type=float, default=-1.0,
                          help="net magnification target (negative for an inverting relay)")
    p_design.add_argument("--catalog", default="0.1,0.15,0.25,0.5",
                          help="comma-separated focal lengths in meters")
    p_design.add_argument("--out", default=None, help="write the plan fragment to a file")
    p_design.set_defaults(func=_cmd_design)

    p_cmp = sub.add_parser("compare", help="shape comparison of two profile CSVs")
    p_cmp.add_argument("profile_a")
    p_cmp.add_argument("profile_b")
    p_cmp.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except TwinbeamError as exc:  # every other package error is a PhysicsError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS


if __name__ == "__main__":
    sys.exit(main())
