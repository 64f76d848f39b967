"""Scenario configuration: parsing, validation, emission, presets.

Scenarios are JSON documents with SI-unit key suffixes (``wavelength_m``,
``acquisition_time_s``).  Structure is checked against the shipped JSON
schema (unknown keys are rejected with the offending path), then semantic
constraints are enforced in the frozen dataclasses' ``__post_init__``, so
parsed, derived and directly built scenarios are all checked when built.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from .biphoton import DetectorSpec
from .counting import CountingConfig
from .errors import ValidationError
from .field import MIN_GRID
from .paraxial import TelescopePlan

PRESET_NAMES = ("fig4a", "fig4b", "fig5")


@dataclass(frozen=True)
class PumpSpec:
    wavelength_m: float
    waist_m: float

    def __post_init__(self):
        if self.wavelength_m <= 0:
            raise ValidationError("pump.wavelength_m must be positive")
        if self.waist_m <= 0:
            raise ValidationError("pump.waist_m must be positive")


@dataclass(frozen=True)
class TwinWavelengths:
    signal_m: float
    idler_m: float

    def __post_init__(self):
        if self.signal_m <= 0 or self.idler_m <= 0:
            raise ValidationError("twin wavelengths must be positive")


@dataclass(frozen=True)
class GridSpec:
    n: int = 512
    pitch_m: float = 20e-6

    def __post_init__(self):
        if self.n < MIN_GRID:
            raise ValidationError(f"grid.n must be >= {MIN_GRID}")
        if self.pitch_m <= 0:
            raise ValidationError("grid.pitch_m must be positive")


@dataclass(frozen=True)
class MaskSpec:
    type: str = "none"  # "wire" | "none"
    width_m: float | None = None
    distance_to_crystal_m: float = 0.0

    def __post_init__(self):
        if self.type not in ("wire", "none"):
            raise ValidationError(f"mask.type must be wire or none, got {self.type!r}")
        if self.type == "wire" and (self.width_m is None or self.width_m <= 0):
            raise ValidationError("mask.width_m must be positive for a wire mask")
        if self.distance_to_crystal_m < 0:
            raise ValidationError("mask.distance_to_crystal_m must be >= 0")


@dataclass(frozen=True)
class LensElement:
    focal_m: float
    position_m: float  # from the input plane (pump side) or crystal (twin side)
    aperture_radius_m: float | None = None

    def __post_init__(self):
        if self.focal_m == 0:
            raise ValidationError("lens focal_m must be nonzero")
        if self.position_m < 0:
            raise ValidationError("lens position must be >= 0")
        if self.aperture_radius_m is not None and self.aperture_radius_m <= 0:
            raise ValidationError("lens aperture_radius_m must be positive when given")


@dataclass(frozen=True)
class DetectorsSpec:
    distance_from_crystal_m: float
    signal: DetectorSpec
    idler: DetectorSpec

    def __post_init__(self):
        if self.distance_from_crystal_m < 0:
            raise ValidationError("detectors.distance_from_crystal_m must be >= 0")
        if self.signal.role != "signal" or self.idler.role != "idler":
            raise ValidationError("detectors must be one signal and one idler")


@dataclass(frozen=True)
class ScanSpec:
    moving: str = "signal"
    axis: str = "x"
    start_m: float = -2.5e-3
    stop_m: float = 2.5e-3
    step_m: float = 5e-5

    def __post_init__(self):
        if self.moving not in ("signal", "idler"):
            raise ValidationError("scan.moving must be signal or idler")
        if self.axis not in ("x", "y"):
            raise ValidationError("scan.axis must be x or y")
        if self.step_m <= 0:
            raise ValidationError("scan.step_m must be positive")
        if self.stop_m <= self.start_m:
            raise ValidationError("scan.stop_m must exceed scan.start_m")


@dataclass(frozen=True)
class CalibrationSpec:
    pairs_per_s: float | None = None
    reference: str | None = None

    def __post_init__(self):
        if self.pairs_per_s is not None and self.pairs_per_s <= 0:
            raise ValidationError("calibration.pairs_per_s must be positive")
        if self.pairs_per_s is not None and self.reference is not None:
            raise ValidationError("calibration takes pairs_per_s or reference, not both")


def _check_leg(key: str, lenses: tuple, leg_key: str, leg: float) -> None:
    """The lenses of one leg must be ordered by position and lie within it."""
    positions = [lens.position_m for lens in lenses]
    if positions != sorted(positions):
        raise ValidationError(f"{key}: lenses must be ordered by position")
    if positions and positions[-1] > leg:
        raise ValidationError(f"{key}: lens at {positions[-1]:g} m exceeds {leg_key} = {leg:g} m")


@dataclass(frozen=True)
class Scenario:
    name: str
    pump: PumpSpec
    mask: MaskSpec
    detectors: DetectorsSpec
    twin_wavelengths: TwinWavelengths
    grid: GridSpec = field(default_factory=GridSpec)
    pump_side_elements: tuple = ()
    twin_side_elements: tuple = ()  # one train, which both twin arms share
    scan: ScanSpec = field(default_factory=ScanSpec)
    counting: CountingConfig = field(default_factory=CountingConfig)
    calibration: CalibrationSpec = field(default_factory=CalibrationSpec)
    include_divergence_prefactor: bool = True
    assumptions: tuple = ()
    # Directory of the file the scenario was loaded from, against which a
    # relative calibration.reference resolves.  It is where the document
    # came from, not part of it: emission, digests and equality leave it out.
    source_dir: str | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "pump_side_elements", tuple(self.pump_side_elements))
        object.__setattr__(self, "twin_side_elements", tuple(self.twin_side_elements))
        object.__setattr__(self, "assumptions", tuple(self.assumptions))
        _check_leg("pump_side_elements", self.pump_side_elements,
                   "mask.distance_to_crystal_m", self.mask.distance_to_crystal_m)
        _check_leg("twin_side_elements", self.twin_side_elements,
                   "detectors.distance_from_crystal_m", self.detectors.distance_from_crystal_m)
        window = self.grid.n * self.grid.pitch_m
        if 6 * self.pump.waist_m >= window:
            raise ValidationError(
                f"grid window {window:g} m cannot hold pump waist {self.pump.waist_m:g} m "
                "with a 6-waist guard band"
            )


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _schema() -> dict:
    text = resources.files("twinbeam").joinpath("schemas/scenario.schema.json").read_text()
    return json.loads(text)


def _lens_list(entries, position_key) -> tuple:
    return tuple(
        LensElement(
            focal_m=e["focal_m"],
            position_m=e[position_key],
            aperture_radius_m=e.get("aperture_radius_m"),
        )
        for e in entries
    )


def scenario_from_dict(doc: dict) -> Scenario:
    """Validate a parsed JSON document and build a Scenario."""
    validator = jsonschema.Draft202012Validator(_schema())
    errors = sorted(validator.iter_errors(doc),
                    key=lambda e: (list(map(str, e.absolute_path)), e.message))
    if errors:
        parts = []
        for err in errors[:8]:
            path = ".".join(str(p) for p in err.absolute_path) or "<root>"
            parts.append(f"{path}: {err.message}")
        raise ValidationError("scenario schema violation at " + "; ".join(parts))

    pump = PumpSpec(**doc["pump"])
    twin_defaults = {
        "signal_m": 2.0 * doc["pump"]["wavelength_m"],
        "idler_m": 2.0 * doc["pump"]["wavelength_m"],
    }
    twins = TwinWavelengths(**{**twin_defaults, **doc.get("twin_wavelengths", {})})
    grid = GridSpec(**doc.get("grid", {}))
    mask = MaskSpec(**doc.get("mask", {"type": "none"}))

    det_doc = doc["detectors"]
    detectors = DetectorsSpec(
        distance_from_crystal_m=det_doc["distance_from_crystal_m"],
        signal=DetectorSpec(role="signal", **det_doc.get("signal", {})),
        idler=DetectorSpec(role="idler", **det_doc.get("idler", {})),
    )

    return Scenario(
        name=doc["name"],
        pump=pump,
        twin_wavelengths=twins,
        grid=grid,
        mask=mask,
        pump_side_elements=_lens_list(doc.get("pump_side_elements", []), "distance_from_mask_m"),
        twin_side_elements=_lens_list(doc.get("twin_side_elements", []),
                                      "distance_from_crystal_m"),
        detectors=detectors,
        scan=ScanSpec(**doc.get("scan", {})),
        counting=CountingConfig(**doc.get("counting", {})),
        calibration=CalibrationSpec(**doc.get("calibration", {})),
        include_divergence_prefactor=doc.get("include_divergence_prefactor", True),
        assumptions=tuple(doc.get("assumptions", [])),
    )


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario JSON document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("scenario document must be a JSON object")
    return scenario_from_dict(doc)


def load_scenario(source: str | Path) -> Scenario:
    """Load a scenario from a preset name or a JSON file path."""
    name = str(source)
    if name in PRESET_NAMES:
        return parse_scenario(preset_text(name))
    path = Path(source)
    if not path.exists():
        raise ValidationError(
            f"scenario {source!r} is neither a preset ({', '.join(PRESET_NAMES)}) "
            "nor an existing file"
        )
    return dataclasses.replace(parse_scenario(path.read_text()),
                               source_dir=str(path.resolve().parent))


def calibration_source(scenario: Scenario) -> str | None:
    """Where ``calibration.reference`` points: a preset name, or a file path
    resolved against the directory of the file that names it (the working
    directory for a scenario not loaded from a file); None without one."""
    reference = scenario.calibration.reference
    if reference is None or reference in PRESET_NAMES or scenario.source_dir is None:
        return reference
    return str((Path(scenario.source_dir) / reference).resolve())


def preset_text(name: str) -> str:
    if name not in PRESET_NAMES:
        raise ValidationError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return resources.files("twinbeam").joinpath(f"presets/{name}.json").read_text()


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _prune(obj):
    if isinstance(obj, dict):
        return {k: _prune(v) for k, v in obj.items() if v is not None}
    return obj


def scenario_to_dict(scenario: Scenario) -> dict:
    def lens_entry(lens: LensElement, position_key: str) -> dict:
        entry = {"focal_m": lens.focal_m, position_key: lens.position_m}
        if lens.aperture_radius_m is not None:
            entry["aperture_radius_m"] = lens.aperture_radius_m
        return entry

    doc = {
        "name": scenario.name,
        "pump": {"wavelength_m": scenario.pump.wavelength_m,
                 "waist_m": scenario.pump.waist_m},
        "twin_wavelengths": {"signal_m": scenario.twin_wavelengths.signal_m,
                             "idler_m": scenario.twin_wavelengths.idler_m},
        "grid": {"n": scenario.grid.n, "pitch_m": scenario.grid.pitch_m},
        "mask": _prune({
            "type": scenario.mask.type,
            "width_m": scenario.mask.width_m,
            "distance_to_crystal_m": scenario.mask.distance_to_crystal_m,
        }),
        "pump_side_elements": [lens_entry(l, "distance_from_mask_m")
                               for l in scenario.pump_side_elements],
        "detectors": {
            "distance_from_crystal_m": scenario.detectors.distance_from_crystal_m,
            "signal": {"x_m": scenario.detectors.signal.x_m,
                       "y_m": scenario.detectors.signal.y_m,
                       "aperture_radius_m": scenario.detectors.signal.aperture_radius_m},
            "idler": {"x_m": scenario.detectors.idler.x_m,
                      "y_m": scenario.detectors.idler.y_m,
                      "aperture_radius_m": scenario.detectors.idler.aperture_radius_m},
        },
        "scan": {"moving": scenario.scan.moving, "axis": scenario.scan.axis,
                 "start_m": scenario.scan.start_m, "stop_m": scenario.scan.stop_m,
                 "step_m": scenario.scan.step_m},
        "counting": {
            "acquisition_time_s": scenario.counting.acquisition_time_s,
            "singles_signal_per_s": scenario.counting.singles_signal_per_s,
            "singles_idler_per_s": scenario.counting.singles_idler_per_s,
            "coincidence_window_s": scenario.counting.coincidence_window_s,
            "seed": scenario.counting.seed,
        },
        "include_divergence_prefactor": scenario.include_divergence_prefactor,
        "assumptions": list(scenario.assumptions),
        "twin_side_elements": [lens_entry(l, "distance_from_crystal_m")
                               for l in scenario.twin_side_elements],
    }
    calib = _prune({"pairs_per_s": scenario.calibration.pairs_per_s,
                    "reference": scenario.calibration.reference})
    if calib:
        doc["calibration"] = calib
    return doc


def emit_scenario(scenario: Scenario) -> str:
    return json.dumps(scenario_to_dict(scenario), indent=2) + "\n"


# ---------------------------------------------------------------------------
# Derived scenarios
# ---------------------------------------------------------------------------

def with_free_twin_side(scenario: Scenario, detector_distance_m: float,
                        aperture_radius_m: float | None = None) -> Scenario:
    """Strip twin-side optics and move the detector plane."""
    detectors = _detectors_at(scenario, detector_distance_m, aperture_radius_m)
    return dataclasses.replace(scenario, twin_side_elements=(), detectors=detectors)


def with_telescope(scenario: Scenario, plan: TelescopePlan,
                   aperture_radius_m: float | None = None) -> Scenario:
    """Install a designed relay on both twin arms and move the detectors."""
    lenses = (
        LensElement(focal_m=plan.first_focal, position_m=plan.station_positions[0]),
        LensElement(focal_m=plan.second_focal, position_m=plan.station_positions[1]),
    )
    detectors = _detectors_at(scenario, plan.total_distance, aperture_radius_m)
    return dataclasses.replace(scenario, twin_side_elements=lenses, detectors=detectors)


def telescope_scenario_fragment(plan: TelescopePlan) -> dict:
    """Scenario-config fragment for a designed relay (mergeable into JSON)."""
    return {
        "twin_side_elements": [
            {"focal_m": plan.first_focal,
             "distance_from_crystal_m": plan.station_positions[0]},
            {"focal_m": plan.second_focal,
             "distance_from_crystal_m": plan.station_positions[1]},
        ],
        "detectors": {"distance_from_crystal_m": plan.total_distance},
        "predicted_magnification": plan.magnification,
    }


def _detectors_at(scenario: Scenario, distance_m: float,
                  aperture_radius_m: float | None) -> DetectorsSpec:
    signal = scenario.detectors.signal
    idler = scenario.detectors.idler
    if aperture_radius_m is not None:
        signal = dataclasses.replace(signal, aperture_radius_m=aperture_radius_m)
        idler = dataclasses.replace(idler, aperture_radius_m=aperture_radius_m)
    return DetectorsSpec(distance_from_crystal_m=distance_m, signal=signal, idler=idler)


# ---------------------------------------------------------------------------
# Profile comparison
# ---------------------------------------------------------------------------

def compare_profiles(coords_a, rates_a, coords_b, rates_b) -> dict:
    """Shape comparison of two profiles on their overlapping range.

    Returns the normalized cross-correlation of the mean-subtracted rates
    and the ratio of the dominant features' full widths at half contrast.
    """
    coords_a = np.asarray(coords_a, dtype=np.float64)
    coords_b = np.asarray(coords_b, dtype=np.float64)
    rates_a = np.asarray(rates_a, dtype=np.float64)
    rates_b = np.asarray(rates_b, dtype=np.float64)
    lo = max(coords_a[0], coords_b[0])
    hi = min(coords_a[-1], coords_b[-1])
    if hi <= lo:
        raise ValidationError("profiles do not overlap in scan coordinate")
    step = min(np.diff(coords_a).min(), np.diff(coords_b).min())
    common = np.linspace(lo, hi, max(int(round((hi - lo) / step)) + 1, 8))
    a = np.interp(common, coords_a, rates_a)
    b = np.interp(common, coords_b, rates_b)
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt((a**2).sum() * (b**2).sum())
    if denom == 0:
        raise ValidationError("profiles are flat; correlation undefined")
    ncc = float((a * b).sum() / denom)
    width_a = feature_width(coords_a, rates_a)
    width_b = feature_width(coords_b, rates_b)
    return {"ncc": ncc, "width_ratio": width_a / width_b}


def _half_level_runs(rates: np.ndarray, half: float, kind: str):
    """Maximal interior runs beyond the half level, as feature candidates.

    Runs touching the scan boundary are not bracketed and are dropped.
    Each candidate carries its prominence past the half level and its
    index span.
    """
    inside = rates <= half if kind == "dip" else rates >= half
    runs = []
    i = 0
    n = rates.size
    while i < n:
        if not inside[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and inside[j + 1]:
            j += 1
        if i > 0 and j < n - 1:
            seg = rates[i:j + 1]
            prominence = half - seg.min() if kind == "dip" else seg.max() - half
            runs.append({"kind": kind, "start": i, "stop": j, "prominence": prominence})
        i = j + 1
    return runs


def feature_width(coords, rates) -> float:
    """Full width at half contrast of the dominant feature.

    The half level is midway between the profile extremes; candidate
    features are interior runs beyond that level (runs touching the scan
    boundary are unbracketed).  An interior dip, which is necessarily
    flanked by bright shoulders, takes precedence over peaks: in a masked
    scan the dip is the image feature while bright regions are just the
    beam envelope.  Among several runs of a kind the most prominent, then
    widest, wins.
    """
    coords = np.asarray(coords, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    r_max = rates.max()
    r_min = rates.min()
    if r_max <= r_min:
        raise ValidationError("flat profile: feature width undefined")
    half = 0.5 * (r_max + r_min)
    candidates = _half_level_runs(rates, half, "dip")
    if not candidates:
        candidates = _half_level_runs(rates, half, "peak")
    if not candidates:
        raise ValidationError("feature is not bracketed by the scan range")

    def crossing(i_in, i_out):
        r_in, r_out = rates[i_in], rates[i_out]
        if r_out == r_in:
            return coords[i_in]
        t = (half - r_in) / (r_out - r_in)
        return coords[i_in] + t * (coords[i_out] - coords[i_in])

    for cand in candidates:
        cand["width"] = float(crossing(cand["stop"], cand["stop"] + 1)
                              - crossing(cand["start"], cand["start"] - 1))
    dominant = max(candidates, key=lambda c: (c["prominence"], c["width"]))
    return dominant["width"]


def contrast(rates) -> float:
    """(max - min) / (max + min) of a rate profile."""
    rates = np.asarray(rates, dtype=np.float64)
    r_max, r_min = rates.max(), rates.min()
    if r_max + r_min == 0:
        return 0.0
    return float((r_max - r_min) / (r_max + r_min))
