"""Reference implementations the tests check the model against.

None of them is part of the model, and each shares no code path with what
it checks:

* :func:`oracle_fresnel_direct` sums the Fresnel integral directly; it calls
  neither ``propagate`` nor the split FFT;
* :func:`resample_scaled` and :func:`rate_from_intensity` interpolate with
  their own bilinear core, not ``field.bilinear_sample``;
* :func:`coincidence_imaged` is the closed-form imaged law
  |W_mask[(O/I)(rho_s + rho_i)]|^2 of acceptance criterion 6, read
  straight off the field at the mask, with no propagation;
* :func:`find_image_plane` locates the image plane by wave optics, which
  checks the ABCD design of a relay;
* :func:`read_pgm` decodes the PGM files the writer encodes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from twinbeam import OutOfWindowError, ScalarField, ValidationError, WaveContext, propagate

# ---------------------------------------------------------------------------
# Direct-quadrature Fresnel propagation
# ---------------------------------------------------------------------------

ORACLE_MAX_GRID = 128


def oracle_fresnel_direct(fld: ScalarField, ctx: WaveContext, distance: float) -> ScalarField:
    """Fresnel diffraction integral evaluated by direct double summation.

    The paraxial convolution kernel exp(i k (r2 - r1)^2 / (2 z)) is summed
    over every source sample for every output sample (organized as two
    separable matrix products, which computes the identical double sum).
    Cost grows fast with N, so grids are capped at 128.  Like ``propagate``,
    the result is carrier-referenced (no overall exp(i k z) factor); it
    agrees with ``propagate`` to better than 1e-6 relative RMS in the
    paraxial regime.
    """
    if fld.n > ORACLE_MAX_GRID:
        raise ValidationError(
            f"oracle grid capped at {ORACLE_MAX_GRID}, got {fld.n}; "
            "the direct quadrature is O(N^4)"
        )
    wavelength = ctx.wavelength
    if distance <= 10 * wavelength:
        raise ValidationError(
            f"oracle needs distance > 10 wavelengths ({10 * wavelength:g} m), "
            f"got {distance:g} m"
        )
    k = ctx.wavenumber
    x = fld.coords
    # Separable 1D chirp factors: kernel(x2-x1) * kernel(y2-y1).
    diff = x[:, None] - x[None, :]
    chirp = np.exp(1j * k * diff**2 / (2.0 * distance))
    prefac = fld.pitch**2 / (1j * wavelength * distance)
    out = chirp @ fld.samples @ chirp.T * prefac
    return fld.with_samples(out)


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


def resample_scaled(fld: ScalarField, magnification: float) -> ScalarField:
    """Field resampled at coordinates scaled by a magnification.

    Output sample at position r takes the input value at r / magnification
    (bilinear; zero outside the window).  Negative magnifications invert
    the image, as a real imaging system does.
    """
    if magnification == 0:
        raise ValidationError("magnification must be nonzero")
    n = fld.n
    x = fld.coords / magnification
    fi = x / fld.pitch + n // 2
    fi_x, fi_y = fi[None, :], fi[:, None]
    inside = (fi_x >= 0) & (fi_x <= n - 1) & (fi_y >= 0) & (fi_y <= n - 1)
    return fld.with_samples(np.where(inside, _bilinear(fld.samples, fi_x, fi_y), 0.0))


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


def coincidence_imaged(w_at_mask: ScalarField,
                       object_distance: float, image_distance: float,
                       rho_s: tuple[float, float], rho_i: tuple[float, float],
                       kappa: float = 1.0) -> float:
    """Closed-form imaged coincidence rate |W_mask[(O/I)(rho_s + rho_i)]|^2.

    O is the mask-to-lens distance (pump plus twin legs) and I the
    lens-to-detector distance.
    """
    if object_distance <= 0 or image_distance <= 0:
        raise ValidationError("object and image distances must be positive")
    scale = object_distance / image_distance
    u = (scale * (rho_s[0] + rho_i[0]), scale * (rho_s[1] + rho_i[1]))
    return rate_from_intensity(w_at_mask.intensity(), w_at_mask.pitch, u, kappa)


# ---------------------------------------------------------------------------
# Image-plane search
# ---------------------------------------------------------------------------

def find_image_plane(fld: ScalarField, ctx: WaveContext, obj: ScalarField,
                     magnification: float, curvature: float,
                     predicted: float, halfwidth: float,
                     step: float | None = None) -> tuple[float, float]:
    """Locate the plane where the field best matches the scaled object.

    The metric is the normalized complex inner product between the
    propagated field and the object resampled by the magnification, with
    the image-plane curvature phase exp(i k C rho^2 / (2 A)) of the
    composed system applied.  Phase matching decorrelates much faster with
    defocus than intensity sharpness does, so the maximum localizes the
    image plane to grid-pitch precision.

    Returns (best distance, correlation at the best distance).
    """
    if step is None:
        step = fld.pitch
    ref = resample_scaled(obj, magnification).samples
    if abs(curvature) > 1e-12:
        x2 = fld.coords**2
        ref = ref * np.exp(1j * ctx.wavenumber * curvature * (x2[None, :] + x2[:, None])
                           / (2.0 * magnification))
    ref_norm = np.sqrt(np.sum(np.abs(ref) ** 2))
    steps = int(round(halfwidth / step))
    best = (-1.0, predicted)
    for i in range(-steps, steps + 1):
        dz = predicted + i * step
        if dz < 0:
            continue
        u = propagate(fld, ctx, dz).samples
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
