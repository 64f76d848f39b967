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

The pump enters that train as the two 1-D factors of its Gaussian
(:func:`pump_input_field`), and the train's first element, the wire mask,
multiplies only the row factor.  The first hop then writes the spectrum
from the factors' 1-D transforms, so no 2-D pump is built and the first
stretch of hops makes no forward 2-D transform: fig5's train makes 5 2-D
transforms and fig4b's 3 (see :mod:`twinbeam.propagation`).

kappa and P are scalars, so the aperture-integrated rate map carries
neither: it is |W|^2 convolved with the two aperture disks.  kappa * P is
applied to what is read from the map, the scan's rates (and, in
:mod:`twinbeam.runner`, the map excerpt written as CSV), by one function
that also validates kappa.  A run that calibrates on its own scan takes
kappa from the same map, so the map is made once per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import SamplingError, ValidationError
from .field import (ScalarField, SeparableField, WaveContext, _each_block, bilinear_sample,
                    separable_gaussian, wire_mask)
from .propagation import FreeSpace, Mask, OpticalTrain, ThinLens, _column_pass, propagate_train

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

def pump_input_field(scenario: "Scenario") -> SeparableField:
    """Pump Gaussian at the input (mask) plane, as its two 1-D factors."""
    return separable_gaussian(scenario.pump.waist_m, scenario.grid.n, scenario.grid.pitch_m)


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
    """Pump field propagated through the unfolded train to the detectors;
    it equals the train of :func:`~twinbeam.field.gaussian_beam` to rounding."""
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
    """Real-input FFT (``rfft2``) of a centered disk indicator times the pixel
    area (midpoint rule), n x (n//2 + 1).

    The disk is written straight into FFT order: offset d from the axis
    lands at index d mod n.  Only the offsets within the radius, clipped
    to the grid, are evaluated, and only their rows are transformed.  Every
    other row is a copy of the transform of a zero row, which is not all
    +0.0: pocketfft gives some of its parts as -0.0.
    """
    reach = int(np.ceil(radius / pitch)) + 1
    d = np.arange(-min(reach, n // 2), min(reach, n - 1 - n // 2) + 1)
    x2 = (d * pitch) ** 2
    idx = d % n
    rows = np.zeros((d.size, n))
    rows[:, idx] = (x2[None, :] + x2[:, None] <= radius**2) * pitch**2
    kernel = np.empty((n, n // 2 + 1), np.complex128)
    zero_row = np.fft.rfft(np.zeros(n))
    _each_block(lambda r: np.copyto(kernel[r], zero_row), n, n * n)
    kernel[idx] = np.fft.rfft(rows, axis=-1)
    _column_pass(np.fft.fft, kernel, n * n)
    return kernel


def aperture_integrated_map(intensity: np.ndarray, pitch: float,
                            radius_signal: float, radius_idler: float) -> np.ndarray:
    """Convolve the point-rate map with both detector aperture disks.

    Because the rate depends only on the detector coordinate sum, the
    double aperture integral is a convolution of the sum-coordinate map
    with the two disk indicators.  Equal radii share one kernel; with two
    point detectors the map is ``intensity`` itself.

    The map is real, so it is convolved with real-input transforms:
    ``np.maximum(irfft2(k2 * (k1 * rfft2(I)), s), 0)``.  One n x (n//2 + 1)
    complex array holds the half spectrum, read by the row ``rfft`` straight
    from ``intensity``, and all its products (kernel * spec, the order that
    rounds as the formula does).  After the column ``ifft`` the row
    ``irfft`` writes into the real result, which the clamp then updates in
    place.  Each pass is split across the cores, so no full-size copy of
    the map is made.
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
    n = intensity.shape[0]
    kernels = {r: _disk_kernel_spectrum(n, pitch, r) for r in set(radii)}
    spec = np.empty((n, n // 2 + 1), np.complex128)
    _each_block(lambda r: np.fft.rfft(intensity[r], axis=-1, out=spec[r]), n, intensity.size)
    _column_pass(np.fft.fft, spec, intensity.size)

    def products(r):
        for radius in radii:
            np.multiply(kernels[radius][r], spec[r], out=spec[r])

    _each_block(products, n, intensity.size)
    # Freed before the real map is allocated, the kernels (half a complex
    # field each) are not part of the run's peak memory.
    del kernels
    _column_pass(np.fft.ifft, spec, intensity.size)
    rates = np.empty(intensity.shape)

    def inverse_rows(r):
        np.fft.irfft(spec[r], n, axis=-1, out=rates[r])
        np.maximum(rates[r], 0.0, out=rates[r])

    _each_block(inverse_rows, n, rates.size)
    return rates


def _rate_scale(scenario: "Scenario", kappa: float) -> float:
    """kappa * P, the factor from the kappa-free rate map to pairs/s."""
    if not (kappa > 0 and np.isfinite(kappa)):
        raise ValidationError(f"kappa must be positive and finite, got {kappa}")
    if not scenario.include_divergence_prefactor:
        return kappa
    k_p = 2.0 * np.pi / scenario.pump.wavelength_m
    return kappa * divergence_prefactor(k_p, divergence_loss_distance(scenario))


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


def _scan_stage(scenario: "Scenario"):
    """The one path from a scenario to its scan, before kappa and P: the scanned
    coordinates, the detector field, its rate map and that map read at every
    scan point at once."""
    coords, points, apertures = scan_points(scenario)
    w = effective_detector_field(scenario)
    rate_map = aperture_integrated_map(w.intensity(), w.pitch, *apertures)
    return coords, w, rate_map, bilinear_sample(rate_map, w.pitch, *points)


def scan_detector(scenario: "Scenario", kappa: float = 1.0) -> CoincidenceProfile:
    """Scan one detector and integrate the rate over both apertures.

    The scan is the scenario's: to scan differently, ``dataclasses.replace``
    its ``scan`` or ``detectors``.  The detector field and the rate map are
    computed once; every scan point is a pure read of that map, so
    evaluation order cannot change the result.
    """
    scale = _rate_scale(scenario, kappa)
    coords, _, _, raw = _scan_stage(scenario)
    return CoincidenceProfile(coords, scale * raw)
