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
(:func:`pump_input_field`), and the whole train runs on low-rank factors
``a @ b.T`` (see :mod:`twinbeam.propagation`): the wire mask multiplies the
row factor, each lens both, and each hop multiplies the factors' 1-D spectra
by the factors of its transfer.  Ranks are cut at 1e-13 of the largest
singular value (``propagation.RANK_TOLERANCE``), and the presets' detector
fields have rank 7 or less.  A hop that would need more than
``propagation.RANK_CAP`` terms raises PhysicsError, and one whose cone
reaches evanescent frequencies raises SamplingError, naming the pitch.

The train, :func:`effective_detector_field`, returns the detector field as
those factors, and a scan reads a patch of it, not the field: it works out
the cells of its points first, then runs the train once
(:func:`_detector_rows`) and reads the rows and columns its two map lines
reach, ``a[rows] @ b[cols].T``; a y scan, a patch of the transpose
``b @ a.T``, whose map is the map's transpose.  A run reads once, the patch
that holds its scan's and its map crop's, and reads each map from its own
patch within it, so its profile equals the scan's byte for byte.

kappa and P are scalars, so the aperture-integrated rate map carries
neither: it is |W|^2 convolved with the two aperture disks, that is with
their composite kernel K = disk(a_s) * disk(a_i), built from exact integer
overlap counts.  The map is never built whole: one function,
:func:`_map_patch`, convolves a patch by one linear 2-D FFT convolution
with K's spectrum, cached per grid, radii and padded shape, and keeps the
map points whose reach the patch holds.  Rows and columns are taken modulo
n, so the map stays circular.  A scan samples its two neighbouring lines
and gathers its bilinear reads from them; a run's map artifacts read the
scan region's crop (:mod:`twinbeam.runner`).  kappa * P is applied to what
is read, the scan's rates (and, in :mod:`twinbeam.runner`, the map excerpt
written as CSV), by one function that also validates kappa.  A run that
calibrates on its own scan takes kappa from the same read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import OutOfWindowError, SamplingError, ValidationError
from .field import (SeparableField, WaveContext, _abs_square, _all_finite, _bilinear_cells,
                    _bilinear_gather, separable_gaussian, wire_mask)
from .propagation import FreeSpace, Mask, OpticalTrain, ThinLens, propagate_train

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
        elements.append(ThinLens(lens.focal_m))
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


def effective_detector_field(scenario: "Scenario") -> SeparableField:
    """Pump field propagated through the unfolded train to the detectors, as
    its factors."""
    ctx = WaveContext.from_wavelength(scenario.pump.wavelength_m)
    return propagate_train(pump_input_field(scenario), ctx, unfolded_pump_train(scenario))


def _detector_rows(scenario: "Scenario", rows=slice(None), cols=slice(None),
                   transposed: bool = False) -> np.ndarray:
    """The patch ``rows`` x ``cols`` (all by default) of the detector field's
    samples ``a @ b.T``, or of their transpose ``b @ a.T``, checked for
    finiteness: ``a[rows] @ b[cols].T``."""
    fld = effective_detector_field(scenario)
    a, b = (fld.row, fld.column) if transposed else (fld.column, fld.row)
    patch = np.einsum("jr,ir->ji", a[rows], b[cols], optimize=False)
    if not _all_finite(patch):
        raise ValidationError("field samples must all be finite")
    return patch


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


def _disk_offsets(n: int, pitch: float, radius: float) -> np.ndarray:
    """The offsets d from the axis (clipped to the grid) that the lattice
    disk of ``radius`` reaches: those with (d pitch)^2 <= radius^2."""
    reach = int(np.ceil(radius / pitch)) + 1
    d = np.arange(-min(reach, n // 2), min(reach, n - 1 - n // 2) + 1)
    return d[(d * pitch) ** 2 <= radius**2]


def _lattice_disk(n: int, pitch: float, radius: float):
    """The lattice disk of ``radius`` on an n-sample grid: its offsets d
    (:func:`_disk_offsets`) and the (d.size, d.size) indicator of the
    offsets (a, b) with (a pitch)^2 + (b pitch)^2 <= radius^2."""
    d = _disk_offsets(n, pitch, radius)
    x2 = (d * pitch) ** 2
    return d, x2[None, :] + x2[:, None] <= radius**2


def _kernel_offsets(n: int, pitch: float, radii: tuple) -> np.ndarray:
    """The offsets e of the composite kernel of one or two positive
    ``radii`` on each axis: from the sum of its disks' first offsets to the
    sum of their last.  A scan reads them without counting the kernel."""
    first, last = np.sum([_disk_offsets(n, pitch, r)[[0, -1]] for r in radii], axis=0)
    return np.arange(first, last + 1)


def _overlap_counts(n: int, pitch: float, radii: tuple):
    """Offsets e (:func:`_kernel_offsets`) and integer counts of the
    composite kernel of one or two positive ``radii``, on both axes: for
    two, count[a, b] is the number of pairs of lattice points, one in each
    :func:`_lattice_disk`, whose offsets sum to (e[a], e[b]), rounded from a
    small FFT convolution; for one, the disk's indicator."""
    (_, counts), *rest = (_lattice_disk(n, pitch, r) for r in radii)
    for _, inside in rest:
        s = (counts.shape[0] + inside.shape[0] - 1,) * 2
        spectrum = np.fft.rfft2(counts, s) * np.fft.rfft2(inside, s)
        counts = np.rint(np.fft.irfft2(spectrum, s))
    return _kernel_offsets(n, pitch, radii), counts.astype(np.int64)


@functools.lru_cache(maxsize=4)
def _kernel_spectrum(n: int, pitch: float, radii: tuple, shape: tuple) -> np.ndarray:
    """The ``rfft2`` at the padded ``shape`` of the composite kernel K =
    disk(a_s) * disk(a_i) pitch^4 (one disk times pitch^2 for one radius),
    its offset e[0] at index 0, read-only.  A run reads three shapes: its
    scan's, its crop's and its calibration scan's."""
    _, counts = _overlap_counts(n, pitch, radii)
    spectrum = np.fft.rfft2(counts * pitch ** (2 * len(radii)), shape)
    spectrum.setflags(write=False)
    return spectrum


def _resolved_radii(pitch: float, radii: tuple) -> tuple:
    """The positive aperture radii, each checked to span MIN_APERTURE_SAMPLES samples."""
    radii = tuple(r for r in radii if r > 0)
    for radius in radii:
        if 2.0 * radius / pitch < MIN_APERTURE_SAMPLES:
            raise SamplingError(
                f"aperture radius {radius:g} m under-resolved: need at least "
                f"{MIN_APERTURE_SAMPLES} samples across the diameter at pitch {pitch:g} m"
            )
    return radii


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


def _patch(n: int, pitch: float, radii: tuple, rows, cols) -> tuple:
    """The patch of the field that the map points ``rows`` x ``cols`` read,
    as two slices of indices taken modulo n: K reaches offsets e[0] to e[-1]
    from each point (the point itself without radii).

    It builds no kernel: a scan asks for this patch before its train runs,
    and K's cached spectra, built first, left a fig5 run's peak RSS 6-10 MiB
    higher (C heap that a later free could not return).
    """
    first, last = _kernel_offsets(n, pitch, radii)[[0, -1]] if radii else (0, 0)
    return tuple(slice(int(np.min(x)) - last, int(np.max(x)) - first + 1) for x in (rows, cols))


def _map_patch(patch: np.ndarray, n: int, pitch: float, radii: tuple) -> np.ndarray:
    """The aperture-integrated rate map on ``patch``, rows x columns of the
    n x n field's samples, at the points whose kernel reach the patch holds:
    the patch :func:`_patch` names for some map points gives those points.
    ``radii`` are positive and checked.

    The map is I = |patch|^2 convolved with the composite kernel K, by one
    linear 2-D FFT convolution ``irfft2(rfft2(I, s) * rfft2(K, s), s)``,
    each side of s the patch's rounded up to a multiple of 64; its valid
    region is kept and clamped at 0.  Taken modulo n, the patch's rows and
    columns make the map circular, as the whole grid's map is.  Without
    radii the map is I itself.
    """
    intensity = _abs_square(patch)
    if not radii:
        return intensity
    shape = tuple(-(-size // 64) * 64 for size in patch.shape)
    spectrum = np.fft.rfft2(intensity, shape)
    spectrum *= _kernel_spectrum(n, pitch, radii, shape)
    reach = _kernel_offsets(n, pitch, radii).size - 1
    return np.maximum(np.fft.irfft2(spectrum, shape)[reach:patch.shape[0], reach:patch.shape[1]],
                      0.0)


def _scan_stage(scenario: "Scenario", keep=None):
    """The one path from a scenario to its scan, before kappa and P: the
    scanned coordinates, the rates at every scan point and, for the map
    rows and columns ``keep``, the map and |u|^2 on ``keep`` x ``keep``
    (else None).

    The cells of the scan points come first.  They share one row of cells,
    so the scan reads two map lines over the span of its cells' columns.
    The train is then asked once for the patch (:func:`_patch`) that those
    points and ``keep`` x ``keep`` reach, ``a[rows] @ b[cols].T``; a y scan's
    is the transpose's, read on the transposed cells.  The scan's map comes
    from its own patch within it, so a run's profile is a scan's byte for
    byte.  A point whose apertures reach R = ceil((a_s + a_i) / pitch) + 1
    samples around its cell past the grid raises OutOfWindowError: the map is
    circular, so its rate would hold intensity from the opposite edge.
    """
    coords, (x, y), apertures = scan_points(scenario)
    n, pitch, transposed = scenario.grid.n, scenario.grid.pitch_m, scenario.scan.axis == "y"
    radii = _resolved_radii(pitch, apertures)
    cells = _bilinear_cells(n, pitch, x, y)
    if radii:
        reach = int(np.ceil(sum(radii) / pitch)) + 1
        corners = np.stack(cells[:2])
        outside = np.flatnonzero(((corners < reach) | (corners > n - 2 - reach)).any(axis=0))
        if outside.size:
            k = outside[0]
            x, y = np.broadcast_arrays(x, y)
            raise OutOfWindowError(
                f"sample point ({x[k]:g}, {y[k]:g}) m: the apertures reach {reach * pitch:g} m "
                f"around it, past the grid window [{-(n // 2) * pitch:g}, "
                f"{(n - 1 - n // 2) * pitch:g}] m, where the rate map wraps"
            )
    i0, j0, tx, ty = (cells[1], cells[0], cells[3], cells[2]) if transposed else cells
    line, column = int(j0.flat[0]), int(np.min(i0))
    patches = [_patch(n, pitch, radii, [line, line + 1], [column, np.max(i0) + 1])]
    if keep is not None:
        patches.append(_patch(n, pitch, radii, keep, keep))
    read = [slice(min(p[k].start for p in patches), max(p[k].stop for p in patches))
            for k in (0, 1)]
    samples = _detector_rows(scenario, *(np.arange(r.start, r.stop) % n for r in read),
                             transposed)

    def map_of(patch):
        view = tuple(slice(p.start - r.start, p.stop - r.start) for p, r in zip(patch, read))
        return _map_patch(samples[view], n, pitch, radii)

    raw = _bilinear_gather(map_of(patches[0]), i0 - column, j0 - line, tx, ty)
    if keep is None:
        return coords, raw, None
    crop = map_of(patches[1])[np.ix_(keep - np.min(keep), keep - np.min(keep))]
    return coords, raw, (crop, _abs_square(samples[np.ix_(keep - read[0].start,
                                                           keep - read[1].start)]))


def scan_detector(scenario: "Scenario", kappa: float = 1.0) -> CoincidenceProfile:
    """Scan one detector and integrate the rate over both apertures.

    The scan is the scenario's: to scan differently, ``dataclasses.replace``
    its ``scan`` or ``detectors``.  The detector field is computed once and
    every scan point is read from the same two lines of its rate map, so
    evaluation order cannot change the result.
    """
    scale = _rate_scale(scenario, kappa)
    coords, raw, _ = _scan_stage(scenario)
    return CoincidenceProfile(coords, scale * raw)
