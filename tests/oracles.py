"""Reference implementations the tests check the model against.

None of them is part of the model, and each shares no code path with what
it checks:

* :func:`oracle_fresnel_direct` sums the Fresnel integral directly; it calls
  neither ``propagate`` nor the split FFT;
* :func:`resample_scaled` and :func:`rate_from_intensity` interpolate with
  their own bilinear core, not the scan's ``field._bilinear_gather``;
* :func:`coincidence_imaged` is the closed-form imaged law
  |W_mask[(O/I)(rho_s + rho_i)]|^2 of acceptance criterion 6, read
  straight off the field at the mask, with no propagation;
* :func:`find_image_plane` locates the image plane by wave optics, one of
  the model's trains per candidate plane, which checks the ABCD design of a
  relay;
* :func:`read_pgm` decodes the PGM files the writer encodes;
* :func:`full_grid_transfer`, :func:`lens_phase`, :func:`disk_stop` and
  :func:`disk_kernel` build the transfer function, the lens phase and the
  disks on the whole grid in one numpy call each, where the model factors the transfer and the
  phase;
* :func:`oracle_angular_spectrum_train` runs a train on the whole grid, one
  ``fft2``, transfer product and ``ifft2`` per hop, where the model runs it
  on low-rank 1-D factors (exact kz, square cone, no clip check);
* :func:`composite_kernel` counts the aperture kernel pair by pair of
  lattice points, where the model counts it by a small FFT convolution;
  :func:`aperture_map_formula` convolves with it on the whole grid, and
  :func:`aperture_map_per_disk` with each disk in turn.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import numpy as np

from twinbeam import (FreeSpace, OpticalTrain, OutOfWindowError, SeparableField, ThinLens,
                      ValidationError, WaveContext, propagate_train, safe_frequency_limit)
from twinbeam.field import axis_coords


def radius_squared(n: int, pitch: float) -> np.ndarray:
    """Squared distance x^2 + y^2 from the optical axis at every grid sample."""
    x2 = axis_coords(n, pitch) ** 2
    return x2[None, :] + x2[:, None]

# ---------------------------------------------------------------------------
# Direct-quadrature Fresnel propagation
# ---------------------------------------------------------------------------

ORACLE_MAX_GRID = 128


def oracle_fresnel_direct(samples: np.ndarray, pitch: float, ctx: WaveContext,
                          distance: float) -> np.ndarray:
    """Fresnel diffraction integral evaluated by direct double summation.

    The paraxial convolution kernel exp(i k (r2 - r1)^2 / (2 z)) is summed
    over every source sample for every output sample (organized as two
    separable matrix products, which computes the identical double sum).
    Cost grows fast with N, so grids are capped at 128.  Like ``propagate``,
    the result is carrier-referenced (no overall exp(i k z) factor); it
    agrees with ``propagate`` to better than 1e-6 relative RMS in the
    paraxial regime.
    """
    n = samples.shape[0]
    if n > ORACLE_MAX_GRID:
        raise ValidationError(
            f"oracle grid capped at {ORACLE_MAX_GRID}, got {n}; "
            "the direct quadrature is O(N^4)"
        )
    wavelength = ctx.wavelength
    if distance <= 10 * wavelength:
        raise ValidationError(
            f"oracle needs distance > 10 wavelengths ({10 * wavelength:g} m), "
            f"got {distance:g} m"
        )
    k = ctx.wavenumber
    x = axis_coords(n, pitch)
    # Separable 1D chirp factors: kernel(x2-x1) * kernel(y2-y1).
    diff = x[:, None] - x[None, :]
    chirp = np.exp(1j * k * diff**2 / (2.0 * distance))
    prefac = pitch**2 / (1j * wavelength * distance)
    return chirp @ samples @ chirp.T * prefac


# ---------------------------------------------------------------------------
# Full-grid formulas
# ---------------------------------------------------------------------------

def full_grid_transfer(n: int, pitch: float, ctx: WaveContext, distance: float,
                       f_limit: float | None = None) -> np.ndarray:
    """Band-limited angular-spectrum transfer function on every FFT-ordered sample,
    zero beyond ``f_limit`` (by default the distance's own safe frequency limit)."""
    k = ctx.wavenumber
    f = np.fft.fftfreq(n, d=pitch)
    fx, fy = f[None, :], f[:, None]
    kx = 2.0 * np.pi * fx
    ky = 2.0 * np.pi * fy
    if f_limit is None:
        f_limit = safe_frequency_limit(n * pitch, ctx.wavelength, distance)
    kz_sq = k**2 - kx**2 - ky**2
    propagating = kz_sq > 0.0
    in_cone = propagating & (np.abs(fx) <= f_limit) & (np.abs(fy) <= f_limit)
    kz = np.sqrt(np.where(propagating, kz_sq, 0.0))
    kz_rel = np.where(propagating, -(kx**2 + ky**2) / (kz + k), 0.0)
    return np.where(in_cone, np.exp(1j * distance * kz_rel), 0.0)


def lens_phase(n: int, pitch: float, ctx: WaveContext, focal: float) -> np.ndarray:
    """Thin-lens phase exp(-i k rho^2 / 2f) as the outer product of its 1-D
    chirp exp(-i k x^2 / 2f) on the centred axis with itself, rows first."""
    p = np.exp(-1j * ctx.wavenumber * axis_coords(n, pitch) ** 2 / (2.0 * focal))
    return p[:, None] * p[None, :]


def disk_stop(n: int, pitch: float, radius: float) -> np.ndarray:
    """Centred disk of ``radius`` on the whole grid: transmission 1 inside, 0
    outside.  A lens stop, which has no 1-D profile and no low-rank form."""
    return (radius_squared(n, pitch) <= radius**2).astype(np.float64)


def oracle_angular_spectrum_train(samples: np.ndarray, pitch: float, ctx: WaveContext,
                                  elements) -> np.ndarray:
    """A train's elements on the whole n x n grid, out of place: a hop is
    ``ifft2(fft2(u) * full_grid_transfer)`` (exact kz on its square cone), a
    lens ``u * lens_phase``, a mask ``u * profile``, each row times the
    mask's profile."""
    u = np.asarray(samples, dtype=np.complex128)
    n = u.shape[0]
    for el in elements:
        if isinstance(el, FreeSpace):
            u = np.fft.ifft2(np.fft.fft2(u) * full_grid_transfer(n, pitch, ctx, el.distance))
        elif isinstance(el, ThinLens):
            u = u * lens_phase(n, pitch, ctx, el.focal)
        else:
            u = u * el.transmission.samples
    return u


def disk_kernel(n: int, pitch: float, radius: float) -> np.ndarray:
    """Centred disk indicator times the pixel area, shifted into FFT order."""
    return np.fft.ifftshift((radius_squared(n, pitch) <= radius**2).astype(np.float64)
                            * pitch**2)


def composite_kernel(n: int, pitch: float, radii: tuple) -> np.ndarray:
    """The composite kernel disk(a_s) * disk(a_i) pitch^4 of two radii (one
    disk times pitch^2 for one radius) on the whole grid, in FFT order.

    The lattice points of each disk, clipped to the grid, are listed one by
    one, and each pair of points, one in each disk, adds one count at the
    sum of their offsets modulo n, as the circular convolution wraps it.
    """
    disks = []
    for radius in radii:
        reach = int(radius / pitch) + 1
        axis = range(max(-reach, -(n // 2)), min(reach, n - 1 - n // 2) + 1)
        disks.append([(a, b) for a in axis for b in axis
                      if (a * pitch) ** 2 + (b * pitch) ** 2 <= radius**2])
    pairs = Counter(disks[0]) if len(disks) == 1 else Counter(
        (a + c, b + d) for a, b in disks[0] for c, d in disks[1])
    counts = np.zeros((n, n), np.int64)
    for (a, b), count in pairs.items():
        counts[a % n, b % n] += count
    return counts * pitch ** (2 * len(radii))


def aperture_map_formula(point_map: np.ndarray, pitch: float, radii: tuple,
                         real_input: bool = True) -> np.ndarray:
    """``np.maximum(irfft2(rfft2(K) * rfft2(I), s), 0)``, out of place, with
    K the :func:`composite_kernel` of one or two radii.

    K's spectrum is the first operand, so that numpy can elide the product
    only into an in-place one of the same order.  With ``real_input=False`` it
    is the complex-transform formula ``np.maximum(ifft2(fft2(K) * fft2(I)).real, 0)``.
    """
    n = point_map.shape[0]
    fft2 = np.fft.rfft2 if real_input else np.fft.fft2
    spec = fft2(composite_kernel(n, pitch, radii)) * fft2(point_map)
    if real_input:
        return np.maximum(np.fft.irfft2(spec, s=point_map.shape), 0.0)
    return np.maximum(np.fft.ifft2(spec).real, 0.0)


def circular_rate_map(samples: np.ndarray, pitch: float, radii: tuple) -> np.ndarray:
    """The aperture-integrated rate map of the field ``samples`` on the whole
    n x n grid, circular: ``max(ifft2(fft2(|u|^2) * fft2(K)).real, 0)`` with K
    the :func:`composite_kernel` of the positive ``radii`` on the grid, and
    |u|^2 itself without radii."""
    intensity = np.abs(samples) ** 2
    if not radii:
        return intensity
    kernel = composite_kernel(samples.shape[0], pitch, radii)
    return np.maximum(np.fft.ifft2(np.fft.fft2(intensity) * np.fft.fft2(kernel)).real, 0.0)


def aperture_map_per_disk(point_map: np.ndarray, pitch: float, radii: tuple) -> np.ndarray:
    """``np.maximum(irfft2(k2 * (k1 * rfft2(I)), s), 0)``: the map convolved
    with each aperture's :func:`disk_kernel` in turn, one spectrum product
    per radius."""
    spec = np.fft.rfft2(point_map)
    for radius in radii:
        spec = np.fft.rfft2(disk_kernel(point_map.shape[0], pitch, radius)) * spec
    return np.maximum(np.fft.irfft2(spec, s=point_map.shape), 0.0)


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------

def _bilinear(values: np.ndarray, fi: np.ndarray, fj: np.ndarray) -> np.ndarray:
    """Bilinear blend at fractional column/row indices, cell corner clamped to [0, N-2]."""
    n = values.shape[0]
    i0 = np.clip(fi.astype(int), 0, n - 2)
    j0 = np.clip(fj.astype(int), 0, n - 2)
    tx = fi - i0
    ty = fj - j0
    return (values[j0, i0] * (1 - tx) * (1 - ty)
            + values[j0, i0 + 1] * tx * (1 - ty)
            + values[j0 + 1, i0] * (1 - tx) * ty
            + values[j0 + 1, i0 + 1] * tx * ty)


def resample_scaled(samples: np.ndarray, pitch: float, magnification: float) -> np.ndarray:
    """Field samples resampled at coordinates scaled by a magnification.

    Output sample at position r takes the input value at r / magnification
    (bilinear; zero outside the window).  Negative magnifications invert
    the image, as a real imaging system does.
    """
    if magnification == 0:
        raise ValidationError("magnification must be nonzero")
    n = samples.shape[0]
    fi = axis_coords(n, pitch) / magnification / pitch + n // 2
    fi_x, fi_y = fi[None, :], fi[:, None]
    inside = (fi_x >= 0) & (fi_x <= n - 1) & (fi_y >= 0) & (fi_y <= n - 1)
    return np.where(inside, _bilinear(samples, fi_x, fi_y), 0.0)


# ---------------------------------------------------------------------------
# Point and imaged coincidence laws
# ---------------------------------------------------------------------------

def rate_from_intensity(intensity: np.ndarray, pitch: float,
                        sum_coordinate: tuple[float, float],
                        kappa: float = 1.0, prefactor: float = 1.0) -> float:
    """Point coincidence rate from a |W|^2 map, read at the detector sum coordinate.

    Coordinates outside the hull of sample centers raise OutOfWindowError.
    """
    n = intensity.shape[0]
    fi = np.float64(sum_coordinate[0] / pitch + n // 2)
    fj = np.float64(sum_coordinate[1] / pitch + n // 2)
    if not (0.0 <= fi <= n - 1 and 0.0 <= fj <= n - 1):
        raise OutOfWindowError(f"sum coordinate {sum_coordinate} m outside the grid window")
    return kappa * prefactor * float(_bilinear(intensity, fi, fj))


def coincidence_imaged(intensity_at_mask: np.ndarray, pitch: float,
                       object_distance: float, image_distance: float,
                       rho_s: tuple[float, float], rho_i: tuple[float, float],
                       kappa: float = 1.0) -> float:
    """Closed-form imaged coincidence rate |W_mask[(O/I)(rho_s + rho_i)]|^2,
    read from the grid ``intensity_at_mask`` = |W_mask|^2.

    O is the mask-to-lens distance (pump plus twin legs) and I the
    lens-to-detector distance.
    """
    if object_distance <= 0 or image_distance <= 0:
        raise ValidationError("object and image distances must be positive")
    scale = object_distance / image_distance
    u = (scale * (rho_s[0] + rho_i[0]), scale * (rho_s[1] + rho_i[1]))
    return rate_from_intensity(intensity_at_mask, pitch, u, kappa)


# ---------------------------------------------------------------------------
# Image-plane search
# ---------------------------------------------------------------------------

def find_image_plane(obj: SeparableField, ctx: WaveContext, train: OpticalTrain,
                     magnification: float, curvature: float,
                     predicted: float, halfwidth: float,
                     step: float | None = None) -> tuple[float, float]:
    """Locate the plane after ``train`` where the object's field best
    matches the scaled object.  Each candidate plane at a distance dz past
    the train is the train and a hop of dz, run from the object's factors.

    The metric is the normalized complex inner product between the
    propagated field and the object resampled by the magnification, with
    the image-plane curvature phase exp(i k C rho^2 / (2 A)) of the
    composed system applied.  Phase matching decorrelates much faster with
    defocus than intensity sharpness does, so the maximum localizes the
    image plane to grid-pitch precision.

    Returns (best distance, correlation at the best distance).
    """
    if step is None:
        step = obj.pitch
    ref = resample_scaled(obj.column @ obj.row.T, obj.pitch, magnification)
    if abs(curvature) > 1e-12:
        x2 = axis_coords(obj.n, obj.pitch) ** 2
        ref = ref * np.exp(1j * ctx.wavenumber * curvature * (x2[None, :] + x2[:, None])
                           / (2.0 * magnification))
    ref_norm = np.sqrt(np.sum(np.abs(ref) ** 2))
    steps = int(round(halfwidth / step))
    best = (-1.0, predicted)
    for i in range(-steps, steps + 1):
        dz = predicted + i * step
        if dz < 0:
            continue
        hop = OpticalTrain(train.elements + (FreeSpace(dz),))
        out = propagate_train(obj, ctx, hop)
        u = out.column @ out.row.T
        c = abs(np.sum(np.conj(ref) * u)) / (ref_norm * np.sqrt(np.sum(np.abs(u) ** 2)))
        if c > best[0]:
            best = (c, dz)
    return best[1], best[0]


# ---------------------------------------------------------------------------
# PGM decoding
# ---------------------------------------------------------------------------

def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary 16-bit P5 file back into a uint16 array."""
    data = Path(path).read_bytes()
    parts = data.split(b"\n", 3)
    if parts[0] != b"P5" or len(parts) < 4:
        raise ValidationError(f"{path} is not a binary PGM file")
    width, height = (int(v) for v in parts[1].split())
    if parts[2] != b"65535":
        raise ValidationError("only 16-bit PGM is supported")
    return np.frombuffer(parts[3], dtype=">u2").reshape(height, width).astype(np.uint16)
