"""Config-driven experiment runs: profile, counts, metrics, artifacts.

A run propagates the unfolded train once, also when it calibrates kappa on
its own scan, and reads from it one patch of the detector field: the rows
and columns its scan and its scan-region crop reach.  The profile, Poisson
counts and dip/peak metrics come from the scan's two lines of the rate map,
the map artifacts from the crop's map, each convolved on its own patch
within the read (:func:`twinbeam.biphoton._map_patch`), and
``detector_field.pgm`` is |u|^2 on that crop.  The CSV/PGM artifacts and a
JSON report are written, byte-identical for an identical scenario and seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fileio
from .biphoton import (
    CoincidenceProfile,
    _rate_scale,
    _scan_stage,
    divergence_loss_distance,
    scan_detector,
)
from .field import axis_coords
from .counting import CountedProfile, sample_counts, snr
from .errors import PhysicsError, ValidationError
from .scenario import (
    Scenario,
    calibration_source,
    contrast,
    emit_scenario,
    feature_width,
    load_scenario,
    scenario_to_dict,
)


@dataclass(frozen=True)
class RunReport:
    scenario_name: str
    scenario_digest: str
    kappa: float
    kappa_source: str | dict
    profile: CoincidenceProfile
    counted: CountedProfile
    metrics: dict
    manifest: dict
    assumptions: tuple

    def to_json(self) -> str:
        doc = {
            "scenario_name": self.scenario_name,
            "scenario_digest": self.scenario_digest,
            "kappa": self.kappa,
            "kappa_source": self.kappa_source,
            "metrics": self.metrics,
            "assumed_parameters": list(self.assumptions),
            "artifacts": self.manifest,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def scenario_digest(scenario: Scenario) -> str:
    canonical = json.dumps(scenario_to_dict(scenario), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def resolve_kappa(scenario: Scenario) -> float:
    """Calibration constant making the end of the reference chain peak at
    its configured pairs/s; 1.0 when no calibration is declared."""
    reference = _calibration_reference(scenario)
    if reference is None:
        return 1.0
    return _calibrated_kappa(reference, scan_detector(reference, kappa=1.0).peak_rate)


def _calibration_reference(scenario: Scenario) -> Scenario | None:
    """The scenario at the end of the reference chain, the first that declares
    its pairs/s, as it was loaded (a run's grid override does not reach it);
    None when the chain ends without one."""
    seen = set()
    while scenario.calibration.pairs_per_s is None:
        reference = calibration_source(scenario)
        if reference is None:
            return None
        if reference in seen:
            raise ValidationError(f"calibration references form a cycle at {reference!r}")
        seen.add(reference)
        scenario = load_scenario(reference)
    return scenario


def _calibrated_kappa(scenario: Scenario, raw_peak: float) -> float:
    """Kappa that lifts a kappa = 1 peak to the scenario's configured pairs/s."""
    if raw_peak <= 0:
        raise PhysicsError("cannot calibrate: raw peak rate is zero")
    return scenario.calibration.pairs_per_s / raw_peak


def _write_atomic(path: Path, raw: bytes) -> None:
    """Write under a temporary name beside ``path``, then rename it into place,
    so ``path`` never holds a partial file and a failed write leaves nothing."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(raw)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def profile_metrics(profile: CoincidenceProfile, counted: CountedProfile) -> dict:
    metrics = {
        "peak_rate_pairs_per_s": profile.peak_rate,
        "contrast": contrast(profile.rates),
        "snr": None,
        "feature_width_m": None,
    }
    try:
        metrics["feature_width_m"] = feature_width(profile.coordinates, profile.rates)
    except ValidationError:
        pass
    try:
        metrics["snr"] = snr(counted)
    except PhysicsError:
        pass
    return metrics


def run(scenario: Scenario, out_dir: str | Path, kappa: float | None = None,
        seed: int | None = None) -> RunReport:
    """Execute a scenario end to end and write artifacts into ``out_dir``."""
    if seed is not None:
        scenario = dataclasses.replace(
            scenario, counting=dataclasses.replace(scenario.counting, seed=seed)
        )
    # Where kappa comes from, for the report: given, this scenario's own scan,
    # or the reference it names, whose name, digest and grid are recorded.
    source = "given" if kappa is not None else "own scan"
    if kappa is None and scenario.calibration.pairs_per_s is None:
        reference = _calibration_reference(scenario)
        kappa = 1.0 if reference is None else resolve_kappa(reference)
        source = "none" if reference is None else {
            "reference": reference.name, "scenario_digest": scenario_digest(reference),
            "grid_n": reference.grid.n}

    # The scan region: the rows and columns within 1 mm of the scan range,
    # thinned to at most ~256 per axis.  The scan reads the patch they reach.
    pitch = scenario.grid.pitch_m
    coords = axis_coords(scenario.grid.n, pitch)
    margin = 1e-3
    keep = np.flatnonzero((coords >= scenario.scan.start_m - margin)
                          & (coords <= scenario.scan.stop_m + margin))
    keep = keep[::max(1, int(np.ceil(keep.size / 256)))]
    scale = None if kappa is None else _rate_scale(scenario, kappa)
    scan_coords, raw, (crop, intensity) = _scan_stage(scenario, keep)
    if scale is None:
        # The scenario is its own calibration reference: its scan at
        # kappa = 1 calibrates it, so the train is made once.
        kappa = _calibrated_kappa(scenario, _rate_scale(scenario, 1.0) * raw.max())
        scale = _rate_scale(scenario, kappa)
    profile = CoincidenceProfile(scan_coords, scale * raw)
    counted = sample_counts(profile, scenario.counting)
    metrics = profile_metrics(profile, counted)
    metrics["divergence_loss_distance_m"] = divergence_loss_distance(scenario)

    # |u|^2 and the rate map on the scan region (a y scan read the transpose's
    # patch), each written as PGM normalised to its own peak, the map as CSV.
    if scenario.scan.axis == "y":
        crop, intensity = crop.T, intensity.T

    # The output directory is made only once every number is computed, so a
    # run refused on the way writes nothing.
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = {}

    def emit(name: str, data: bytes | str):
        raw = data.encode() if isinstance(data, str) else data
        _write_atomic(out / name, raw)
        artifacts[name] = hashlib.sha256(raw).hexdigest()

    emit("scenario.json", emit_scenario(scenario))
    emit("profile.csv", fileio.profile_to_csv(profile.coordinates, profile.rates))
    emit("counts.csv", fileio.counted_to_csv(counted.coordinates, counted.expected_rates,
                                             counted.counts, counted.accidental_rates))
    emit("detector_field.pgm", fileio.intensity_to_pgm(intensity))
    emit("rate_map.pgm", fileio.intensity_to_pgm(crop))
    emit("rate_map.csv", fileio.map_to_csv(coords[keep], coords[keep], scale * crop))

    report = RunReport(
        scenario_name=scenario.name,
        scenario_digest=scenario_digest(scenario),
        kappa=kappa,
        kappa_source=source,
        profile=profile,
        counted=counted,
        metrics=metrics,
        manifest=artifacts,
        assumptions=scenario.assumptions,
    )
    _write_atomic(out / "report.json", report.to_json().encode())
    return report
