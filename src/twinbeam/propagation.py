"""Free-space propagation, thin lenses, masks, and ordered optical trains.

The workhorse propagator is the angular-spectrum method with the exact
(non-paraxial) transfer function.  Spatial frequencies outside the
aliasing-safe cone for the requested distance are zeroed, which keeps long
paths free of wraparound ghosts; if that clipping would remove more than a
small configurable fraction of the field power, propagation refuses and
reports the largest safe distance instead.

Every train runs on one working array, held either as samples or as their
angular spectrum.  Free propagation is diagonal in the spectrum, so a hop
transforms the array forward only if it holds samples, multiplies it by the
transfer function and leaves it a spectrum; the next hop starts from that
spectrum.  A lens, a lens stop, a mask and the end of the train transform
it back first, and only if it is a spectrum.  So each stretch of
consecutive hops costs one forward and one inverse FFT: fig5's train (mask,
0.005 m, 0.25 m, lens, 2.25 m, lens, 0.5 m) makes 6 transforms and fig4b's
makes 4, and a lone :func:`propagate` makes 2.  Each hop still has its own
band-limit cone, its own clip check and refusal distance, and its own
finiteness check (on the spectrum; the train's last element is checked
once, on the samples it ends with).  This is the standard composition of
angular-spectrum steps (Schmidt, *Numerical Simulation of Optical Wave
Propagation*, SPIE 2010, ch. 7); the hops are not merged into one.

:func:`propagate_train` copies the input field once; each element then
writes into the complex array it reads, and the array is wrapped in a
ScalarField only at the end.  A hop's transfer function and a lens's phase
depend on two half axes only, so each is built on one quadrant of the grid
and the working array is multiplied by it block by block, four slice
products reading the quadrant mirrored; no second full-size array is made.
The transfer is zero outside the band-limit cone, so it is evaluated only
on the cone's block of the quadrant, and the clip table is built only for
a hop whose cone leaves frequencies out.  :func:`propagate` and
:func:`apply_thin_lens` are one copy plus the same in-place kernels.

The results equal the out-of-place formulas byte for byte:
``ifft2(fft2(u) * transfer)`` for a hop,
``ifft2((fft2(u) * transfer_1) * transfer_2)`` for two hops in a row, and
``u * phase`` for a lens.  Three traps break that:

* operand order.  Each product is ``np.multiply(u, factor, out=u)`` in the
  order of the formula: under FMA, a complex product with swapped operands
  rounds differently;
* numpy's temporary elision.  An unnamed temporary of 256 KiB and up that
  enters a commutative operation is overwritten in place with the operands
  swapped, so ``u * quadrant[np.ix_(i, j)]`` computes ``gathered * u``;
* ``np.fft.ifft2`` ignores ``out=`` (numpy 2.4 passes ``out=None`` on), so
  the inverse runs numpy's 1-D ``ifft``, which writes into ``out=``.

``out=`` on the ``numpy.fft`` functions needs numpy 2.0.

From 512 x 512 samples up, every full-grid pass of a train, and of the
aperture convolution in :mod:`twinbeam.biphoton`, is split across the cores
in the process's affinity mask by :func:`twinbeam.field._each_block`, on
one persistent thread pool (numpy's ufuncs and pocketfft release the GIL).
Each 2-D transform, :func:`_fft2_inplace`, runs numpy's 1-D ``fft`` (or
``ifft``) over blocks of rows, then over blocks of columns: what ``fft2``
and ``ifftn`` do themselves, line by line with the same routine, axis
order and 1/n scaling.  Every other pass (the input copy, the transfer and
lens builds, the mirrored and mask products, the lens stop, the clip
table's ``|u|^2`` and rings, the finiteness check) is elementwise: a
worker evaluates the expression, operands in the same order, on a block of
rows and writes it into an array the caller allocated.  The only reduction
split is the finiteness check's sum, which is never kept; ``bincount``
stays serial.  So the result equals the one-call expression byte for byte,
whatever the number of blocks; smaller arrays, and a process allowed one
core, run each pass as one call over the whole array (a transform as one
row call and one column call), on the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import AliasingRiskError, ValidationError
from .field import (ScalarField, TransmissionMask, WaveContext, _abs_square, _all_finite,
                    _each_block, _each_mirrored_block, axis_coords, centred_runs)

# Fraction of field power the band-limit clip may silently remove. Hard-edged
# masks carry percent-level spectral tails, so this is deliberately loose;
# grossly under-sampled propagation still errors out.
DEFAULT_MAX_CLIP_FRACTION = 0.05


# ---------------------------------------------------------------------------
# The 2-D transform, split across the process's cores
# ---------------------------------------------------------------------------

def _column_pass(fft, u: np.ndarray, size: int) -> None:
    """``fft`` (numpy's 1-D ``fft`` or ``ifft``) down every column of ``u``, in
    place, on column blocks split across the cores for a pass over ``size``
    samples."""
    _each_block(lambda c: fft(u[:, c], axis=-2, out=u[:, c]), u.shape[1], size)


def _fft2_inplace(u: np.ndarray, inverse: bool = False) -> np.ndarray:
    """``np.fft.fft2(u)`` (or ``ifftn`` over both axes), written into ``u``.

    The row pass, then the column pass, each split into one block per core
    when :func:`twinbeam.field._splits` says so, else one call (see the
    module docstring for why this is byte-identical either way).
    """
    fft = np.fft.ifft if inverse else np.fft.fft
    _each_block(lambda r: fft(u[r], axis=-1, out=u[r]), u.shape[0], u.size)
    _column_pass(fft, u, u.size)
    return u


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


def _half_freqs(n: int, pitch: float) -> np.ndarray:
    """The n//2 + 1 distinct values of |fftfreq(n, pitch)|, in ascending order."""
    return np.abs(np.fft.fftfreq(n, d=pitch)[: n // 2 + 1])


def _fft_runs(n: int) -> tuple:
    """(axis slice, half-axis slice) pairs that mirror a half axis into FFT order.

    fftfreq gives samples i and n - i exact negatives of each other, so
    sample i takes entry min(i, n - i) of the half axis: an ascending run,
    then a descending one.
    """
    h = n // 2 + 1
    return ((slice(0, h), slice(0, h)), (slice(h, n), slice(n - h, 0, -1)))


def _multiply_mirrored(u: np.ndarray, quadrant: np.ndarray, runs: tuple) -> None:
    """Multiply ``u[i, j]`` by ``quadrant[m(i), m(j)]`` in place, block by block,
    for the index map ``m`` that ``runs`` spells out."""
    _each_mirrored_block(lambda ub, qb: np.multiply(ub, qb, out=ub), u, quadrant, runs)


def _chebyshev_rings(n: int) -> np.ndarray:
    """Flattened ring max(min(i, n - i), min(j, n - j)) of each FFT-ordered sample."""
    i = np.arange(n)
    ring = np.minimum(i, n - i)
    rings = np.empty((n, n), ring.dtype)
    _each_block(lambda r: np.maximum(ring[None, :], ring[r, None], out=rings[r]), n, rings.size)
    return rings.ravel()


def _clip_curve(spectrum: np.ndarray, rings: np.ndarray, ring_f: np.ndarray,
                window: float, wavelength: float):
    """Clipped power fraction as a function of distance, from one ring table.

    The clip at f_limit removes the samples whose Chebyshev ring (``rings``,
    from :func:`_chebyshev_rings`) has a frequency ``ring_f[r]`` above
    f_limit.  The table holds the power on and beyond each ring, summed in
    reverse so a small tail suffers no cancellation, with a trailing 0.
    """
    sample_power = _abs_square(spectrum)  # one float array
    power = np.bincount(rings, weights=sample_power.ravel(), minlength=ring_f.size)
    tail = np.append(np.cumsum(power[::-1])[::-1], 0.0)

    def clipped(z):
        if tail[0] == 0.0:
            return 0.0
        f_limit = safe_frequency_limit(window, wavelength, z)
        return float(tail[np.searchsorted(ring_f, f_limit, side="right")] / tail[0])

    return clipped


def _bisect_safe_distance(frac, window: float, max_clip_fraction: float) -> float:
    lo, hi = 0.0, window * 4.0
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


def max_safe_distance(fld: ScalarField, ctx: WaveContext,
                      max_clip_fraction: float = DEFAULT_MAX_CLIP_FRACTION) -> float:
    """Largest distance this field can be propagated within the clip budget.

    Monotone in distance (the safe cone only shrinks), so a bisection on the
    clipped power fraction suffices.
    """
    clipped = _clip_curve(np.fft.fft2(fld.samples), _chebyshev_rings(fld.n),
                          _half_freqs(fld.n, fld.pitch), fld.window, ctx.wavelength)
    return _bisect_safe_distance(clipped, fld.window, max_clip_fraction)


def _transfer_quadrant(f: np.ndarray, k: float, f_limit: float, distance: float) -> np.ndarray:
    """Band-limited transfer function on the quadrant of half axes ``f``.

    It is zero outside the cone ``f <= f_limit``, so only the leading m x m
    block of the quadrant, m = searchsorted(f, f_limit, "right"), is
    evaluated; within it the cone is the propagating samples.
    """
    quadrant = np.zeros((f.size, f.size), np.complex128)
    m = np.searchsorted(f, f_limit, side="right")
    k_sq = (2.0 * np.pi * f[:m]) ** 2

    def build(r):
        kx_sq, ky_sq = k_sq[None, :], k_sq[r, None]
        kz = k**2 - kx_sq - ky_sq  # kz^2 until the square root
        propagating = kz > 0.0
        np.sqrt(np.maximum(kz, 0.0, out=kz), out=kz)
        # Carrier-referenced transfer: the plane-wave phase k z is dropped so
        # composed short hops agree with one long hop to full precision (k z
        # is ~1e7 rad over a meter, where float64 rounding alone would break
        # the semigroup property at the 1e-10 level).  kz - k is evaluated in
        # its cancellation-free form, -(kx^2 + ky^2) / (kz + k).
        kz_rel = kx_sq + ky_sq
        np.negative(kz_rel, out=kz_rel)
        np.divide(kz_rel, np.add(kz, k, out=kz), out=kz_rel)
        block = quadrant[r, :m]
        np.exp(np.multiply(1j * distance, kz_rel, out=block), out=block)
        block[~propagating] = 0.0

    _each_block(build, m, m * m)
    return quadrant


# ---------------------------------------------------------------------------
# The working array and its in-place kernels
# ---------------------------------------------------------------------------

class _Workspace:
    """One copy of a field, written in place by each element applied to it.

    The copy is held either as samples or as their spectrum (``spectral``).
    A hop transforms it forward only if it holds samples and leaves it a
    spectrum, so consecutive hops share one transform; every other element,
    and :meth:`field`, transforms it back first.  ``rings`` (the ring index
    of the clip table) is built on the first hop whose cone clips and reused
    by every later one.
    """

    def __init__(self, fld: ScalarField, ctx: WaveContext):
        self.samples = np.empty_like(fld.samples)
        _each_block(lambda r: np.copyto(self.samples[r], fld.samples[r]), fld.n, fld.samples.size)
        self.pitch = fld.pitch
        self.ctx = ctx
        self.spectral = False
        self._rings = None

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    def rings(self) -> np.ndarray:
        if self._rings is None:
            self._rings = _chebyshev_rings(self.n)
        return self._rings

    def _to_samples(self) -> np.ndarray:
        if self.spectral:
            _fft2_inplace(self.samples, inverse=True)
            self.spectral = False
        return self.samples

    def hop(self, distance: float, max_clip_fraction: float) -> None:
        if distance < 0:
            raise ValidationError(f"propagation distance must be >= 0, got {distance}")
        if distance == 0.0:
            return
        u, n = self.samples, self.n
        window, wavelength = n * self.pitch, self.ctx.wavelength
        f = _half_freqs(n, self.pitch)
        f_limit = safe_frequency_limit(window, wavelength, distance)
        if not self.spectral:
            _fft2_inplace(u)
            self.spectral = True
        # A cone that holds every frequency clips nothing: no table to build.
        if f_limit < f[-1]:
            clipped_at = _clip_curve(u, self.rings(), f, window, wavelength)
            clipped = clipped_at(distance)
            if clipped > max_clip_fraction:
                z_max = _bisect_safe_distance(clipped_at, window, max_clip_fraction)
                raise AliasingRiskError(
                    f"distance {distance:g} m would clip {clipped:.2%} of the power "
                    f"(budget {max_clip_fraction:.2%}); max safe distance for this "
                    f"field is {z_max:.4g} m",
                    max_safe_distance=z_max,
                )
        quadrant = _transfer_quadrant(f, self.ctx.wavenumber, f_limit, distance)
        _multiply_mirrored(u, quadrant, _fft_runs(n))

    def lens(self, focal: float) -> None:
        if focal == 0 or np.isnan(focal):
            raise ValidationError(f"focal length must be nonzero, got {focal}")
        if np.isinf(focal):
            return
        # exp(-i k rho^2 / 2f) on the quadrant of distances |i - n//2| from the axis
        h = self.n // 2 + 1
        x2 = (np.arange(h) * self.pitch) ** 2
        quadrant = np.empty((h, h), np.complex128)

        def build(r):
            q = np.multiply(-1j * self.ctx.wavenumber, x2[None, :] + x2[r, None], out=quadrant[r])
            np.divide(q, 2.0 * focal, out=q)
            np.exp(q, out=q)

        _each_block(build, h, quadrant.size)
        _multiply_mirrored(self._to_samples(), quadrant, centred_runs(self.n))

    def stop(self, radius: float) -> None:
        """Zero the samples outside a centred disk: a bounded lens's aperture."""
        u = self._to_samples()
        x2 = axis_coords(self.n, self.pitch) ** 2

        def clear(r):
            u[r][x2[None, :] + x2[r, None] > radius**2] = 0.0

        _each_block(clear, self.n, u.size)

    def mask(self, transmission: TransmissionMask) -> None:
        transmission.multiply_into(self._to_samples(), self.pitch)

    def check_finite(self) -> None:
        # On a spectrum too: a non-finite sample spreads to every frequency.
        if not _all_finite(self.samples):
            raise ValidationError("field samples must all be finite")

    def field(self) -> ScalarField:
        return ScalarField(self._to_samples(), self.pitch)


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
    ws = _Workspace(fld, ctx)
    ws.hop(distance, max_clip_fraction)
    return ws.field()


def apply_thin_lens(fld: ScalarField, ctx: WaveContext, focal: float) -> ScalarField:
    """Multiply by the thin-lens phase exp(-i k rho^2 / (2 f)).

    Positive focal lengths converge.  An infinite focal length is the
    identity.  Power is unchanged (the lens is unbounded; clip with a mask
    element if an aperture matters).
    """
    ws = _Workspace(fld, ctx)
    ws.lens(focal)
    return ws.field()


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


def _apply_element(ws: _Workspace, el: OpticalElement, max_clip_fraction: float) -> None:
    if isinstance(el, FreeSpace):
        ws.hop(el.distance, max_clip_fraction)
    elif isinstance(el, ThinLens):
        ws.lens(el.focal)
        if el.aperture_radius is not None:
            ws.stop(el.aperture_radius)
    else:
        ws.mask(el.transmission)


def propagate_train(fld: ScalarField, ctx: WaveContext, train: OpticalTrain,
                    max_clip_fraction: float = DEFAULT_MAX_CLIP_FRACTION) -> ScalarField:
    """Apply every element of the train in order, on one copy of the field.

    Element errors are re-raised with the element index prepended so a
    failing stage of a long train is identifiable.  Each element's output is
    checked for finiteness once: the last one's by the ScalarField it becomes.
    """
    ws = _Workspace(fld, ctx)
    last = len(train.elements) - 1
    for i, el in enumerate(train.elements):
        try:
            _apply_element(ws, el, max_clip_fraction)
            if i == last:
                return ws.field()
            ws.check_finite()
        except AliasingRiskError as exc:
            raise AliasingRiskError(
                f"element {i} ({el.describe()}): {exc}", exc.max_safe_distance
            ) from exc
        except ValidationError as exc:
            raise type(exc)(f"element {i} ({el.describe()}): {exc}") from exc
    return ws.field()

