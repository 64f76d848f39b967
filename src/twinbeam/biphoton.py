"""Two-photon coincidence-rate engine.

The observable is the coincidence rate between a signal and an idler
detector.  For a pump field W prepared before the crystal it depends on the
detector coordinates only through their sum:

* free propagation over a distance Z:  rate = kappa * P * |W(rho_s + rho_i)|^2
  with W propagated to Z at the pump wavenumber, and an optional divergence
  prefactor P = (k_p / Z)^2;
* with an imaging lens (object distance O, image distance I, part of O may
  lie in the pump path and part in the twin path):
  rate = kappa * |W_mask[(O/I) (rho_s + rho_i)]|^2.

For full layouts the engine unfolds the two-arm system into a single
equivalent train acting on the pump: pump-side elements first, then one
twin arm's elements, all free-space distances kept as declared.  This
picture needs identical arms, so a scenario holds one twin-side train that
both arms share.  Twin-side legs propagate at the pump wavenumber: for
identical arms the sum-coordinate amplitude composes the two arm kernels
into exactly the pump-wavenumber kernel over the plain geometry, which is
what makes O = (mask-to-crystal) + (crystal-to-lens) behave as one object
distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import SamplingError, ValidationError
from .field import ScalarField, WaveContext, bilinear_sample, gaussian_beam, wire_mask
from .propagation import (FreeSpace, Mask, OpticalTrain, ThinLens, _fft2_inplace,
                          propagate_train)

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import Scenario

MIN_APERTURE_SAMPLES = 5  # samples across the diameter


@dataclass(frozen=True)
class DetectorSpec:
    """One detector: transverse position, aperture radius (0 = point)."""

    role: str  # "signal" | "idler"
    x_m: float = 0.0
    y_m: float = 0.0
    aperture_radius_m: float = 0.0

    def __post_init__(self):
        if self.role not in ("signal", "idler"):
            raise ValidationError(f"detector role must be signal or idler, got {self.role!r}")
        if self.aperture_radius_m < 0:
            raise ValidationError("aperture radius must be >= 0")


def divergence_prefactor(pump_wavenumber: float, distance: float) -> float:
    """Free-propagation divergence loss factor (k_p / Z)^2."""
    if distance <= 0:
        raise ValidationError("divergence prefactor needs a positive distance")
    return (pump_wavenumber / distance) ** 2


# ---------------------------------------------------------------------------
# Scenario unfolding
# ---------------------------------------------------------------------------

def pump_input_field(scenario: "Scenario") -> ScalarField:
    """Pump Gaussian at the input (mask) plane."""
    return gaussian_beam(scenario.pump.waist_m, scenario.grid.n, scenario.grid.pitch_m)


def _leg(lenses: tuple, length: float) -> list:
    """Free-space hops and thin lenses along one leg, whose lenses Scenario has checked."""
    elements = []
    cursor = 0.0
    for lens in lenses:
        if lens.position_m > cursor:
            elements.append(FreeSpace(lens.position_m - cursor))
            cursor = lens.position_m
        elements.append(ThinLens(lens.focal_m, lens.aperture_radius_m))
    if length > cursor:
        elements.append(FreeSpace(length - cursor))
    return elements


def unfolded_pump_train(scenario: "Scenario") -> OpticalTrain:
    """Single equivalent train: pump-side elements then one twin arm.

    All distances are kept exactly as declared.
    """
    elements = []
    if scenario.mask.type == "wire":
        elements.append(Mask(wire_mask(scenario.mask.width_m,
                                       scenario.grid.n, scenario.grid.pitch_m)))
    elements += _leg(scenario.pump_side_elements, scenario.mask.distance_to_crystal_m)
    elements += _leg(scenario.twin_side_elements, scenario.detectors.distance_from_crystal_m)
    return OpticalTrain(tuple(elements))


def divergence_loss_distance(scenario: "Scenario") -> float:
    """Distance over which the twins diverge unchecked.

    Free divergence accrues from the crystal until the first twin-side
    lens; without twin-side lenses it runs the full crystal-to-detector
    distance.
    """
    if scenario.twin_side_elements:
        return scenario.twin_side_elements[0].position_m
    return scenario.detectors.distance_from_crystal_m


def effective_detector_field(scenario: "Scenario") -> ScalarField:
    """Pump field propagated through the unfolded train to the detectors."""
    ctx = WaveContext.from_wavelength(scenario.pump.wavelength_m)
    return propagate_train(pump_input_field(scenario), ctx, unfolded_pump_train(scenario))


# ---------------------------------------------------------------------------
# Detector scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoincidenceProfile:
    """Coincidence rate versus the scanned detector coordinate."""

    coordinates: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coordinates, dtype=np.float64)
        rates = np.asarray(self.rates, dtype=np.float64)
        coords.setflags(write=False)
        rates.setflags(write=False)
        object.__setattr__(self, "coordinates", coords)
        object.__setattr__(self, "rates", rates)
        if coords.shape != rates.shape or coords.ndim != 1:
            raise ValidationError("profile coordinates and rates must be matching 1D arrays")
        if coords.size >= 2 and not np.all(np.diff(coords) > 0):
            raise ValidationError("profile coordinates must be strictly increasing")
        if rates.size and rates.min() < 0:
            raise ValidationError("profile rates must be non-negative")

    @property
    def peak_rate(self) -> float:
        return float(self.rates.max())


def _disk_kernel_spectrum(n: int, pitch: float, radius: float) -> np.ndarray:
    """FFT of a centered disk indicator times the pixel area (midpoint rule).

    The disk is written straight into FFT order: offset d from the axis
    lands at index d mod n.  Only the offsets within the radius, clipped
    to the grid, are evaluated.
    """
    reach = int(np.ceil(radius / pitch)) + 1
    d = np.arange(-min(reach, n // 2), min(reach, n - 1 - n // 2) + 1)
    x2 = (d * pitch) ** 2
    idx = d % n
    kernel = np.zeros((n, n), np.complex128)
    kernel[np.ix_(idx, idx)] = (x2[None, :] + x2[:, None] <= radius**2) * pitch**2
    return _fft2_inplace(kernel)


def aperture_integrated_map(intensity: np.ndarray, pitch: float,
                            radius_signal: float, radius_idler: float) -> np.ndarray:
    """Convolve the point-rate map with both detector aperture disks.

    Because the rate depends only on the detector coordinate sum, the
    double aperture integral is a convolution of the sum-coordinate map
    with the two disk indicators.  Equal radii share one kernel.
    """
    radii = [r for r in (radius_signal, radius_idler) if r > 0]
    for radius in radii:
        if 2.0 * radius / pitch < MIN_APERTURE_SAMPLES:
            raise SamplingError(
                f"aperture radius {radius:g} m under-resolved: need at least "
                f"{MIN_APERTURE_SAMPLES} samples across the diameter at pitch {pitch:g} m"
            )
    if not radii:
        return intensity
    kernels = {r: _disk_kernel_spectrum(intensity.shape[0], pitch, r) for r in set(radii)}
    # One complex array holds the map, its transform, both products
    # (kernel * spec, the order that rounds as the formula does) and the
    # inverse, each transform written in place by the propagation module's
    # split FFT.  Assigning the real map first spares the full-size cast a
    # real-input transform makes.
    spec = np.empty(intensity.shape, np.complex128)
    spec[...] = intensity
    _fft2_inplace(spec)
    for radius in radii:
        np.multiply(kernels[radius], spec, out=spec)
    # Freed before the real map is allocated, the kernels (one complex field
    # each) are not part of the run's peak memory.
    del kernels
    _fft2_inplace(spec, inverse=True)
    return np.maximum(spec.real, 0.0)


def coincidence_rate_map(scenario: "Scenario", detector_field: ScalarField,
                         apertures: tuple[float, float],
                         kappa: float = 1.0) -> tuple[np.ndarray, float]:
    """Aperture-integrated coincidence rate over the sum-coordinate grid.

    ``detector_field`` comes from :func:`effective_detector_field`;
    ``apertures`` are the moving and the fixed detector radii, in that
    order.  Returns the 2D rate map and its pitch.
    """
    if not (kappa > 0 and np.isfinite(kappa)):
        raise ValidationError(f"kappa must be positive and finite, got {kappa}")
    prefactor = 1.0
    if scenario.include_divergence_prefactor:
        k_p = 2.0 * np.pi / scenario.pump.wavelength_m
        prefactor = divergence_prefactor(k_p, divergence_loss_distance(scenario))
    point_map = kappa * prefactor * detector_field.intensity()
    pitch = detector_field.pitch
    return aperture_integrated_map(point_map, pitch, *apertures), pitch


def scan_points(scenario: "Scenario"):
    """Scan geometry of the scenario's scan block, which ScanSpec has checked.

    Returns the scanned coordinates, the sum-coordinate sample points
    ``(ux, uy)`` and the aperture radii ``(moving, fixed)``.
    """
    scan = scenario.scan
    moving_spec, fixed = scenario.detectors.signal, scenario.detectors.idler
    if scan.moving == "idler":
        moving_spec, fixed = fixed, moving_spec
    n_steps = int(np.floor((scan.stop_m - scan.start_m) / scan.step_m + 1e-9))
    coords = scan.start_m + scan.step_m * np.arange(n_steps + 1)
    if scan.axis == "x":
        points = (coords + fixed.x_m, moving_spec.y_m + fixed.y_m)
    else:
        points = (moving_spec.x_m + fixed.x_m, coords + fixed.y_m)
    return coords, points, (moving_spec.aperture_radius_m, fixed.aperture_radius_m)


def read_profile(rate_map: np.ndarray, pitch: float, coords: np.ndarray,
                 points: tuple) -> CoincidenceProfile:
    """Profile of one scan: the rate map read at every scan point at once."""
    return CoincidenceProfile(coords, np.maximum(bilinear_sample(rate_map, pitch, *points), 0.0))


def scan_detector(scenario: "Scenario", kappa: float = 1.0) -> CoincidenceProfile:
    """Scan one detector and integrate the rate over both apertures.

    The scan is the scenario's: to scan differently, ``dataclasses.replace``
    its ``scan`` or ``detectors``.  The detector field and the rate map are
    computed once; every scan point is a pure read of that map, so
    evaluation order cannot change the result.
    """
    coords, points, apertures = scan_points(scenario)
    w = effective_detector_field(scenario)
    rate_map, pitch = coincidence_rate_map(scenario, w, apertures, kappa)
    return read_profile(rate_map, pitch, coords, points)
