"""Config-driven experiment runs: profile, counts, metrics, artifacts.

A run propagates the unfolded train once and builds one aperture-integrated
rate map; the profile, Poisson counts, dip/peak metrics and CSV/PGM
artifacts all come from that field and map, plus a JSON report.  Identical
scenario and seed give byte-identical artifacts.
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
    coincidence_rate_map,
    divergence_loss_distance,
    effective_detector_field,
    read_profile,
    scan_detector,
    scan_points,
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
    seen = set()
    while scenario.calibration.pairs_per_s is None:
        reference = calibration_source(scenario)
        if reference is None:
            return 1.0
        if reference in seen:
            raise ValidationError(f"calibration references form a cycle at {reference!r}")
        seen.add(reference)
        scenario = load_scenario(reference)
    return _calibrated_kappa(scenario, scan_detector(scenario, kappa=1.0).peak_rate)


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
    if kappa is None and scenario.calibration.pairs_per_s is None:
        kappa = resolve_kappa(scenario)

    scan_coords, points, apertures = scan_points(scenario)
    w_eff = effective_detector_field(scenario)
    if kappa is None:
        # The scenario is its own calibration reference: calibrate on the
        # field of this run, so the train propagates once.
        raw_map, pitch = coincidence_rate_map(scenario, w_eff, apertures, 1.0)
        raw_peak = read_profile(raw_map, pitch, scan_coords, points).peak_rate
        kappa = _calibrated_kappa(scenario, raw_peak)
    rate_map, pitch = coincidence_rate_map(scenario, w_eff, apertures, kappa)
    profile = read_profile(rate_map, pitch, scan_coords, points)
    counted = sample_counts(profile, scenario.counting)
    metrics = profile_metrics(profile, counted)
    metrics["divergence_loss_distance_m"] = divergence_loss_distance(scenario)

    # 2D coincidence map: full resolution as PGM, cropped to the scan region
    # and thinned to at most ~256 points per axis for the CSV
    coords = axis_coords(rate_map.shape[0], pitch)
    margin = 1e-3
    keep = np.flatnonzero((coords >= scenario.scan.start_m - margin)
                          & (coords <= scenario.scan.stop_m + margin))
    keep = keep[::max(1, int(np.ceil(keep.size / 256)))]
    cropped = rate_map[np.ix_(keep, keep)]

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
    emit("detector_field.pgm", fileio.intensity_to_pgm(w_eff.intensity()))
    emit("rate_map.pgm", fileio.intensity_to_pgm(rate_map))
    emit("rate_map.csv", fileio.map_to_csv(coords[keep], coords[keep], cropped))

    report = RunReport(
        scenario_name=scenario.name,
        scenario_digest=scenario_digest(scenario),
        kappa=kappa,
        profile=profile,
        counted=counted,
        metrics=metrics,
        manifest=artifacts,
        assumptions=scenario.assumptions,
    )
    _write_atomic(out / "report.json", report.to_json().encode())
    return report
