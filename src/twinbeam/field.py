"""Sampled complex scalar fields on uniform square grids.

Grid convention: an N-by-N array with physical pitch (meters per sample),
sample (row j, column i) sits at transverse coordinate
``x = (i - N//2) * pitch``, ``y = (j - N//2) * pitch``, so index N//2 is
the optical axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfWindowError, SamplingError, ValidationError

MIN_GRID = 16


@dataclass(frozen=True)
class WaveContext:
    """Monochromatic propagation context: wavenumber in rad/m."""

    wavenumber: float

    def __post_init__(self):
        if not (self.wavenumber > 0 and np.isfinite(self.wavenumber)):
            raise ValidationError(f"wavenumber must be positive, got {self.wavenumber}")

    @classmethod
    def from_wavelength(cls, wavelength: float) -> "WaveContext":
        if not (wavelength > 0 and np.isfinite(wavelength)):
            raise ValidationError(f"wavelength must be positive, got {wavelength}")
        return cls(2.0 * np.pi / wavelength)

    @property
    def wavelength(self) -> float:
        return 2.0 * np.pi / self.wavenumber


def axis_coords(n: int, pitch: float) -> np.ndarray:
    """Centered sample coordinates along one axis, in meters."""
    return (np.arange(n) - n // 2) * pitch


def radius_squared(n: int, pitch: float) -> np.ndarray:
    """Squared distance x^2 + y^2 from the optical axis at every grid sample."""
    x2 = axis_coords(n, pitch) ** 2
    return x2[None, :] + x2[:, None]


def centred_runs(n: int) -> tuple:
    """(axis slice, half-axis slice) pairs that mirror a half axis onto a centred axis.

    Sample i of a centred axis lies |i - n//2| samples from the optical
    axis, so it takes that entry of the half axis: a descending run, then
    an ascending one.
    """
    c = n // 2
    return ((slice(c, n), slice(0, n - c)), (slice(0, c), slice(c, 0, -1)))


@dataclass(frozen=True)
class ScalarField:
    """Complex transverse amplitude sampled on a centered square grid."""

    samples: np.ndarray
    pitch: float

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.complex128)
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"field must be square 2D, got shape {arr.shape}")
        if arr.shape[0] < MIN_GRID:
            raise ValidationError(f"grid must be at least {MIN_GRID}x{MIN_GRID}, got {arr.shape[0]}")
        if not (self.pitch > 0 and np.isfinite(self.pitch)):
            raise ValidationError(f"pitch must be positive, got {self.pitch}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("field samples must all be finite")

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def window(self) -> float:
        """Physical side length of the grid, in meters."""
        return self.n * self.pitch

    @property
    def coords(self) -> np.ndarray:
        return axis_coords(self.n, self.pitch)

    def intensity(self) -> np.ndarray:
        cached = self.__dict__.get("_intensity")
        if cached is None:
            cached = np.abs(self.samples) ** 2
            cached.setflags(write=False)
            object.__setattr__(self, "_intensity", cached)
        return cached

    def with_samples(self, samples: np.ndarray) -> "ScalarField":
        return ScalarField(samples, self.pitch)


@dataclass(frozen=True)
class TransmissionMask:
    """Real amplitude transmission in [0, 1] on the ScalarField grid."""

    samples: np.ndarray
    pitch: float

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"mask must be square 2D, got shape {arr.shape}")
        if not (self.pitch > 0 and np.isfinite(self.pitch)):
            raise ValidationError(f"pitch must be positive, got {self.pitch}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("mask values must be finite")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValidationError("mask values must lie in [0, 1]")

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    def multiply_into(self, samples: np.ndarray, pitch: float) -> np.ndarray:
        """Multiply a writable field array on this mask's grid in place."""
        if samples.shape != self.samples.shape or pitch != self.pitch:
            raise ValidationError("mask grid does not match field grid")
        return np.multiply(samples, self.samples, out=samples)

    def apply(self, fld: ScalarField) -> ScalarField:
        return fld.with_samples(self.multiply_into(np.array(fld.samples), fld.pitch))


def power(fld: ScalarField) -> float:
    """Total power proxy: sum of |samples|^2 times the pixel area."""
    return float(np.sum(fld.intensity()) * fld.pitch**2)


def gaussian_beam(waist: float, n: int, pitch: float) -> ScalarField:
    """Flat-phase Gaussian beam exp(-rho^2 / waist^2) with unit peak.

    Parameters
    ----------
    waist : float
        1/e amplitude radius in meters.
    n : int
        Grid size (n x n samples).
    pitch : float
        Sample spacing in meters.

    Raises
    ------
    SamplingError
        If the waist is under-resolved, or the window does not leave a
        guard band of at least 6 waists.
    """
    if waist <= 2 * pitch:
        raise SamplingError(
            f"waist {waist:g} m must exceed 2 pitches ({2 * pitch:g} m)"
        )
    if n * pitch <= 6 * waist:
        needed = int(np.ceil(6 * waist / pitch)) + 1
        raise SamplingError(
            f"window {n * pitch:g} m too small for waist {waist:g} m; "
            f"need N > {needed} at pitch {pitch:g} m"
        )
    # exp(-rho^2 / waist^2) on the quadrant of distances |i - n//2| from the
    # axis, mirrored onto the grid
    x2 = (np.arange(n // 2 + 1) * pitch) ** 2
    quadrant = x2[None, :] + x2[:, None]
    np.negative(quadrant, out=quadrant)
    np.divide(quadrant, waist**2, out=quadrant)
    np.exp(quadrant, out=quadrant)
    samples = np.empty((n, n), np.complex128)
    runs = centred_runs(n)
    for rows, q_rows in runs:
        for cols, q_cols in runs:
            samples[rows, cols] = quadrant[q_rows, q_cols]
    return ScalarField(samples, pitch)


def wire_mask(width: float, n: int, pitch: float) -> TransmissionMask:
    """Opaque vertical wire: transmission 0 on the band of the given width.

    The blocked band is the half-open interval -width/2 <= x < width/2 of
    column centers, which makes a width of exactly k pitches block exactly
    k columns.
    """
    if width < 2 * pitch:
        raise SamplingError(
            f"wire width {width:g} m is below 2 pitches ({2 * pitch:g} m)"
        )
    x = axis_coords(n, pitch)
    blocked = (x >= -width / 2) & (x < width / 2)
    mask = np.ones((n, n), dtype=np.float64)
    mask[:, blocked] = 0.0
    return TransmissionMask(mask, pitch)


def bilinear_sample(values: np.ndarray, pitch: float, x, y):
    """Bilinearly interpolate a centered grid of real values at (x, y) meters.

    Scalar coordinates give a float, broadcast arrays an array of the same
    values.  Raises OutOfWindowError when any point falls outside the hull
    of sample centers; scans that leave the window are configuration bugs,
    not zeros.
    """
    n = values.shape[0]
    x, y = np.broadcast_arrays(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))
    fi = x / pitch + n // 2
    fj = y / pitch + n // 2
    inside = (0.0 <= fi) & (fi <= n - 1) & (0.0 <= fj) & (fj <= n - 1)
    if not inside.all():
        k = np.flatnonzero(~inside)[0]
        half = (n // 2) * pitch
        raise OutOfWindowError(
            f"sample point ({x.flat[k]:g}, {y.flat[k]:g}) m outside grid window "
            f"[{-half:g}, {(n - 1 - n // 2) * pitch:g}] m"
        )
    # bilinear blend in the cell whose lower corner is clamped to [0, N-2]
    i0 = np.clip(fi.astype(int), 0, n - 2)
    j0 = np.clip(fj.astype(int), 0, n - 2)
    tx = fi - i0
    ty = fj - j0
    out = (values[j0, i0] * (1 - tx) * (1 - ty)
           + values[j0, i0 + 1] * tx * (1 - ty)
           + values[j0 + 1, i0] * (1 - tx) * ty
           + values[j0 + 1, i0 + 1] * tx * ty)
    return float(out) if out.ndim == 0 else out
