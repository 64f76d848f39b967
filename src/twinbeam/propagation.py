"""Free-space propagation, thin lenses, masks, and ordered optical trains.

The workhorse propagator is the angular-spectrum method with the exact
(non-paraxial) transfer function.  Spatial frequencies outside the
aliasing-safe cone for the requested distance are zeroed, which keeps long
paths free of wraparound ghosts; if that clipping would remove more than a
small configurable fraction of the field power, propagation refuses and
reports the largest safe distance instead.

A slow direct-quadrature Fresnel propagator is provided purely as an
independent cross-check for the FFT path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import AliasingRiskError, ValidationError
from .field import ScalarField, TransmissionMask, WaveContext, radius_squared, resample_scaled

# Fraction of field power the band-limit clip may silently remove. Hard-edged
# masks carry percent-level spectral tails, so this is deliberately loose;
# grossly under-sampled propagation still errors out.
DEFAULT_MAX_CLIP_FRACTION = 0.05


# ---------------------------------------------------------------------------
# Band-limit bookkeeping
# ---------------------------------------------------------------------------

def safe_frequency_limit(window: float, wavelength: float, distance: float) -> float:
    """Highest spatial frequency (cycles/m) the grid propagates alias-free.

    Standard band-limited angular-spectrum criterion for a square window:
    the transfer-function phase must stay adequately sampled, which bounds
    each frequency axis at 1 / (lambda * sqrt((2 z / L)^2 + 1)).
    """
    if distance == 0.0:
        return 1.0 / wavelength
    ratio = 2.0 * distance / window
    return 1.0 / (wavelength * np.hypot(ratio, 1.0))


def _freq_grids(n: int, pitch: float):
    """Spatial frequencies as a row (fx) and a column (fy) that broadcast to the grid."""
    f = np.fft.fftfreq(n, d=pitch)
    return f[None, :], f[:, None]


def _clipped_fraction(spectrum_sq: np.ndarray, fx: np.ndarray, fy: np.ndarray,
                      f_limit: float) -> float:
    total = spectrum_sq.sum()
    if total == 0.0:
        return 0.0
    outside = (np.abs(fx) > f_limit) | (np.abs(fy) > f_limit)
    return float(spectrum_sq[outside].sum() / total)


def max_safe_distance(fld: ScalarField, ctx: WaveContext,
                      max_clip_fraction: float = DEFAULT_MAX_CLIP_FRACTION) -> float:
    """Largest distance this field can be propagated within the clip budget.

    Monotone in distance (the safe cone only shrinks), so a bisection on the
    clipped power fraction suffices.
    """
    spectrum_sq = np.abs(np.fft.fft2(fld.samples)) ** 2
    fx, fy = _freq_grids(fld.n, fld.pitch)
    wavelength = ctx.wavelength

    def frac(z):
        return _clipped_fraction(spectrum_sq, fx, fy,
                                 safe_frequency_limit(fld.window, wavelength, z))

    lo, hi = 0.0, fld.window * 4.0
    if frac(hi) <= max_clip_fraction:
        while frac(hi) <= max_clip_fraction and hi < 1e6:
            hi *= 4.0
        if hi >= 1e6:
            return float("inf")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if frac(mid) <= max_clip_fraction:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# Angular-spectrum propagation
# ---------------------------------------------------------------------------

def propagate(fld: ScalarField, ctx: WaveContext, distance: float,
              max_clip_fraction: float = DEFAULT_MAX_CLIP_FRACTION) -> ScalarField:
    """Propagate a field through free space by the angular-spectrum method.

    Parameters
    ----------
    fld : ScalarField
        Input field.
    ctx : WaveContext
        Wavenumber of the light being propagated.
    distance : float
        Propagation distance in meters, >= 0.
    max_clip_fraction : float
        Power fraction the band-limit clip may remove before the call is
        rejected as aliasing-prone.

    Returns
    -------
    ScalarField
        The propagated field.  Power is conserved to better than 1e-9
        (relative) whenever the input has no evanescent or out-of-cone
        content.

    Raises
    ------
    AliasingRiskError
        If the requested distance lies beyond the band-limited range for
        this grid; the error names the maximum safe distance.
    """
    if distance < 0:
        raise ValidationError(f"propagation distance must be >= 0, got {distance}")
    if distance == 0.0:
        return fld.with_samples(fld.samples.copy())

    k = ctx.wavenumber
    n = fld.n
    fx, fy = _freq_grids(n, fld.pitch)
    kx = 2.0 * np.pi * fx
    ky = 2.0 * np.pi * fy

    spectrum = np.fft.fft2(fld.samples)
    f_limit = safe_frequency_limit(fld.window, ctx.wavelength, distance)
    spectrum_sq = np.abs(spectrum) ** 2
    clipped = _clipped_fraction(spectrum_sq, fx, fy, f_limit)
    if clipped > max_clip_fraction:
        z_max = max_safe_distance(fld, ctx, max_clip_fraction)
        raise AliasingRiskError(
            f"distance {distance:g} m would clip {clipped:.2%} of the power "
            f"(budget {max_clip_fraction:.2%}); max safe distance for this "
            f"field is {z_max:.4g} m",
            max_safe_distance=z_max,
        )

    kz_sq = k**2 - kx**2 - ky**2
    propagating = kz_sq > 0.0
    in_cone = propagating & (np.abs(fx) <= f_limit) & (np.abs(fy) <= f_limit)
    kz = np.sqrt(np.where(propagating, kz_sq, 0.0))
    # Carrier-referenced transfer: the plane-wave phase k z is dropped so
    # composed short hops agree with one long hop to full precision (k z is
    # ~1e7 rad over a meter, where float64 rounding alone would break the
    # semigroup property at the 1e-10 level).  kz - k is evaluated in its
    # cancellation-free form.
    kz_rel = np.where(propagating, -(kx**2 + ky**2) / (kz + k), 0.0)
    transfer = np.where(in_cone, np.exp(1j * distance * kz_rel), 0.0)
    return fld.with_samples(np.fft.ifft2(spectrum * transfer))


def apply_thin_lens(fld: ScalarField, ctx: WaveContext, focal: float) -> ScalarField:
    """Multiply by the thin-lens phase exp(-i k rho^2 / (2 f)).

    Positive focal lengths converge.  An infinite focal length is the
    identity.  Power is unchanged (the lens is unbounded; clip with a mask
    element if an aperture matters).
    """
    if focal == 0 or np.isnan(focal):
        raise ValidationError(f"focal length must be nonzero, got {focal}")
    if np.isinf(focal):
        return fld.with_samples(fld.samples.copy())
    phase = np.exp(-1j * ctx.wavenumber * radius_squared(fld.n, fld.pitch) / (2.0 * focal))
    return fld.with_samples(fld.samples * phase)


# ---------------------------------------------------------------------------
# Optical elements and trains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreeSpace:
    distance: float

    def __post_init__(self):
        if self.distance < 0:
            raise ValidationError(f"free-space distance must be >= 0, got {self.distance}")

    def describe(self) -> str:
        return f"FreeSpace({self.distance:g} m)"


@dataclass(frozen=True)
class ThinLens:
    focal: float
    aperture_radius: float | None = None  # None = unbounded

    def __post_init__(self):
        if self.focal == 0:
            raise ValidationError("thin-lens focal length must be nonzero")
        if self.aperture_radius is not None and self.aperture_radius <= 0:
            raise ValidationError("bounded lens aperture radius must be > 0")

    def describe(self) -> str:
        return f"ThinLens(f={self.focal:g} m)"


@dataclass(frozen=True)
class Mask:
    transmission: TransmissionMask

    def describe(self) -> str:
        return "Mask"


OpticalElement = Union[FreeSpace, ThinLens, Mask]


@dataclass(frozen=True)
class OpticalTrain:
    """Ordered sequence of optical elements, applied left to right."""

    elements: tuple

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        for el in self.elements:
            if not isinstance(el, (FreeSpace, ThinLens, Mask)):
                raise ValidationError(f"unsupported optical element {el!r}")


def _apply_element(fld: ScalarField, ctx: WaveContext, el: OpticalElement,
                   max_clip_fraction: float) -> ScalarField:
    if isinstance(el, FreeSpace):
        return propagate(fld, ctx, el.distance, max_clip_fraction)
    if isinstance(el, ThinLens):
        out = apply_thin_lens(fld, ctx, el.focal)
        if el.aperture_radius is not None:
            inside = radius_squared(out.n, out.pitch) <= el.aperture_radius**2
            out = out.with_samples(np.where(inside, out.samples, 0.0))
        return out
    return el.transmission.apply(fld)


def propagate_train(fld: ScalarField, ctx: WaveContext, train: OpticalTrain,
                    max_clip_fraction: float = DEFAULT_MAX_CLIP_FRACTION) -> ScalarField:
    """Apply every element of the train in order.

    Element errors are re-raised with the element index prepended so a
    failing stage of a long train is identifiable.
    """
    out = fld
    for i, el in enumerate(train.elements):
        try:
            out = _apply_element(out, ctx, el, max_clip_fraction)
        except AliasingRiskError as exc:
            raise AliasingRiskError(
                f"element {i} ({el.describe()}): {exc}", exc.max_safe_distance
            ) from exc
        except ValidationError as exc:
            raise type(exc)(f"element {i} ({el.describe()}): {exc}") from exc
    return out


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
        ref = ref * np.exp(1j * ctx.wavenumber * curvature * radius_squared(fld.n, fld.pitch)
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
# Direct-quadrature Fresnel oracle
# ---------------------------------------------------------------------------

ORACLE_MAX_GRID = 128


def oracle_fresnel_direct(fld: ScalarField, ctx: WaveContext, distance: float) -> ScalarField:
    """Fresnel diffraction integral evaluated by direct double summation.

    Deliberately independent of the FFT path: the paraxial convolution
    kernel exp(i k (r2 - r1)^2 / (2 z)) is summed over every source sample
    for every output sample (organized as two separable matrix products,
    which computes the identical double sum).  Cost grows fast with N, so
    grids are capped at 128.  Like :func:`propagate`, the result is
    carrier-referenced (no overall exp(i k z) factor).

    Intended for validation only; agrees with :func:`propagate` to better
    than 1e-6 relative RMS in the paraxial regime.
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
