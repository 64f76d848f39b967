"""Free-space propagation, thin lenses, masks, and ordered optical trains.

The propagator is the angular-spectrum method with the exact (non-paraxial)
transfer function, carrier-referenced.  Each hop zeroes the spatial
frequencies outside its band-limit cone, the square of the first m rings of
the spectrum that keeps the transfer's phase sampled (Matsushima and
Shimobaba, Opt. Express 17, 19662 (2009)).  If that clip would remove more
than a small configurable fraction of the field power, the hop refuses and
names the largest safe distance.

Every train runs on a :class:`~twinbeam.field.SeparableField`, the form the
pump takes, as low-rank factors: the field is ``a @ b.T``, where a and b are
(n, R) arrays of 1-D fields, held as samples or as their 1-D spectra
(``fft2(a @ b.T) = fft(a) @ fft(b).T``, column by column), and every train
returns its factors, in samples, as a SeparableField.  No element makes an
n x n array:

* a thin lens multiplies both factors by its 1-D chirp
  ``p = exp(-i k x^2 / 2f)``, since ``exp(-i k rho^2 / 2f) = outer(p, p)``;
* a mask, the 1-D profile of its column transmissions (``wire_mask``),
  multiplies b;
* a hop transforms the factors forward if they hold samples and leaves them
  spectra, so consecutive hops share one transform.  Its clip check reads
  the power on each ring of ``a @ b.T`` from R x R Gram matrices, in
  O(n R^2) (:func:`_gram_ring_table`).  The exact transfer on the cone's
  m x m quadrant is the Fresnel factor ``exp(-i z (kx^2 + ky^2) / 2k)``, the
  outer product of one 1-D factor with itself, times a smooth correction
  whose phase is a few radians.  Adaptive cross approximation (ACA with
  partial pivoting; Bebendorf, Numer. Math. 86, 565 (2000)) writes the
  correction as ``u @ v.T`` from a few of its rows and columns, stopping
  when a term falls below RANK_TOLERANCE of the running Frobenius norm, and
  u and v are multiplied by the 1-D Fresnel factor
  (:func:`_transfer_factors`).  On the cone's rows, the hop multiplies the
  column pairs, ``a[:, r] * u[:, k]`` and ``b[:, r] * v[:, k]``, then
  recompresses them (:func:`_recompress`): each factor is orthonormalised by
  a two-level tree QR (:func:`_tree_qr`), the small core between them is
  split by an SVD, and the singular values below RANK_TOLERANCE of the
  largest are dropped, with them the pairs that depend on others.  The rows
  outside the cone stay zero.

The presets' hops take 5 to 8 ACA terms and their fields stay at rank 7 or
less.  Their detector fields agree with the plain 2-D train within 1e-13 of
its peak for fig4a and fig4b, and within 3e-13 for fig5's seven elements
(measured 1.2e-14, 6.4e-15 and 2.2e-13).  Two guards refuse what the
factors cannot hold: a hop whose transfer or field would need more than
RANK_CAP terms raises :class:`~twinbeam.errors.PhysicsError`, naming the
rank, and a hop whose cone reaches evanescent frequencies (only at a pitch
of at most lambda / sqrt(2)), where the transfer's zeros make a step of high
rank, raises :class:`~twinbeam.errors.SamplingError`, naming the pitch.

Only the recompression reaches LAPACK and BLAS: the tree QR of at most 8
leaves, each a multiple of 64 cone rows by the R K column pairs, the
products that apply its Q, and the SVD of the core.  Every other operation
on an n- or m-long array is elementwise, a 1-D FFT or an ``einsum`` without
BLAS, the core included.  The tests check that every pass gives the same
bytes under 1, 2 and 3 OpenBLAS threads, up to 32 pairs on 256-row leaves,
the presets' and the sweeps' widest block and tallest leaves; no larger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import AliasingRiskError, PhysicsError, SamplingError, ValidationError
from .field import (SeparableField, TransmissionMask, WaveContext, _abs_square, _all_finite,
                    axis_coords)

# Fraction of field power the band-limit clip may silently remove. Hard-edged
# masks carry percent-level spectral tails, so this is deliberately loose;
# grossly under-sampled propagation still errors out.
DEFAULT_MAX_CLIP_FRACTION = 0.05

# A transfer's ACA stops, and a recompressed field drops its singular values,
# at this fraction of the largest.  At 1e-15 and below the factors keep
# rounding noise and their rank grows without bound.
RANK_TOLERANCE = 1e-13

# The most terms an ACA transfer or a recompressed field may hold.
RANK_CAP = 32


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


def _fold(n: int) -> np.ndarray:
    """The half-axis entry min(i, n - i) of each FFT-ordered sample i: fftfreq
    gives samples i and n - i exact negatives of each other."""
    i = np.arange(n)
    return np.minimum(i, n - i)


def _cone(n: int, pitch: float, wavelength: float, distance: float) -> tuple:
    """The half axis of frequencies and the number m of its entries that the
    band-limit cone of a hop keeps."""
    f = _half_freqs(n, pitch)
    limit = safe_frequency_limit(n * pitch, wavelength, distance)
    return f, int(np.searchsorted(f, limit, side="right"))


def _folded_grams(x: np.ndarray) -> np.ndarray:
    """The R x R Gram matrix ``sum outer(x[i], conj(x[i]))`` of the rows i of
    an (n, R) factor folded onto each half-axis entry, shape (n//2 + 1, R, R)."""
    n = x.shape[0]
    h = n // 2 + 1
    g = np.einsum("ir,is->irs", x, x.conj(), optimize=False)
    folded = g[:h].copy()
    folded[1:n - h + 1] += g[n - 1:h - 1:-1]
    return folded


def _gram_ring_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Power of the FFT-ordered spectrum ``a @ b.T`` on each of its n//2 + 1
    Chebyshev rings (ring r holds the samples whose larger fold is r), from
    its factors, in O(n R^2).

    With ``ga`` and ``gb`` the folded Gram matrices of the factors, the
    power of the samples folded onto (s, t) is ``sum(ga[s] * gb[t])``.  Ring
    r holds (r, t) for t <= r and (s, r) for s < r, so its power is
    ``sum(ga[r] * cumsum(gb)[r]) + sum(cumsum(ga)[r - 1] * gb[r])``.
    """
    ga, gb = _folded_grams(a), _folded_grams(b)
    below = np.cumsum(ga, axis=0)
    below[1:], below[0] = below[:-1], 0.0
    power = np.einsum("hrs,hrs->h", ga, np.cumsum(gb, axis=0), optimize=False).real
    return power + np.einsum("hrs,hrs->h", below, gb, optimize=False).real


def _clip_curve(power: np.ndarray, ring_f: np.ndarray, window: float, wavelength: float):
    """Clipped power fraction as a function of distance, from one ring table.

    The clip at f_limit removes the rings whose frequency ``ring_f[r]`` lies
    above f_limit.  The table ``power`` (from :func:`_gram_ring_table`) is
    summed in reverse, into the power on and beyond each ring, so a small
    tail suffers no cancellation.
    """
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


def _check_clip(power: np.ndarray, f: np.ndarray, window: float, wavelength: float,
                distance: float, max_clip_fraction: float) -> None:
    """Refuse a hop whose clip of the ring table ``power`` is over budget,
    naming the largest safe distance."""
    clipped = _clip_curve(power, f, window, wavelength)
    if clipped(distance) > max_clip_fraction:
        z_max = _bisect_safe_distance(clipped, window, max_clip_fraction)
        raise AliasingRiskError(
            f"distance {distance:g} m would clip {clipped(distance):.2%} of the "
            f"power (budget {max_clip_fraction:.2%}); max safe distance for this "
            f"field is {z_max:.4g} m",
            max_safe_distance=z_max,
        )


def max_safe_distance(fld: SeparableField, ctx: WaveContext,
                      max_clip_fraction: float = DEFAULT_MAX_CLIP_FRACTION) -> float:
    """Largest distance this field can be propagated within the clip budget.

    Monotone in distance (the safe cone only shrinks), so a bisection on the
    clipped power fraction suffices.
    """
    state = _Factors(fld, ctx)
    state._domain(True)
    clipped = _clip_curve(_gram_ring_table(state.a, state.b), _half_freqs(fld.n, fld.pitch),
                          fld.n * fld.pitch, ctx.wavelength)
    return _bisect_safe_distance(clipped, fld.n * fld.pitch, max_clip_fraction)


# ---------------------------------------------------------------------------
# The transfer function and the lens chirp
# ---------------------------------------------------------------------------

def _propagates(k: float, f: np.ndarray, m: int) -> bool:
    """Whether every sample of the cone's m x m quadrant of half axes ``f``
    propagates: its corner, the sample with the smallest kz^2, is not
    evanescent."""
    k_sq = (2.0 * np.pi * f[m - 1]) ** 2
    return bool(k**2 - k_sq - k_sq > 0.0)


def _aca(row, column, m: int) -> tuple:
    """Factors (u, v), each (m, K), of an m x m matrix with ``u @ v.T`` equal
    to it within about RANK_TOLERANCE of its Frobenius norm, by adaptive cross
    approximation with partial pivoting.

    ``row(i)`` and ``column(j)`` return the matrix's row i and column j.  Each
    step takes the residual of one row, pivots on its largest entry, takes the
    residual of that column, and moves to the row where the new column is
    largest.  It stops when the new term's norm falls below RANK_TOLERANCE of
    the running estimate of the approximant's Frobenius norm (Bebendorf 2000).
    """
    u, v = np.zeros((2, m, 8), np.complex128)
    used = np.zeros(m, bool)
    norm_sq, i = 0.0, 0
    for t in range(min(m, RANK_CAP)):
        if t == u.shape[1]:  # the arrays grow with the terms, not to RANK_CAP
            u, v = (np.concatenate([x, np.zeros_like(x)], axis=1) for x in (u, v))
        residual = row(i) - np.einsum("l,jl->j", u[i, :t], v[:, :t], optimize=False)
        used[i] = True
        j = int(np.argmax(np.abs(residual)))
        if residual[j] == 0.0:  # the row is exact: so is the approximant
            return u[:, :t], v[:, :t]
        v[:, t] = residual / residual[j]
        u[:, t] = column(j) - np.einsum("il,l->i", u[:, :t], v[j, :t], optimize=False)
        uu, vv = (float(np.sum(_abs_square(x[:, t]))) for x in (u, v))
        cross = (np.einsum("il,i->l", u[:, :t].conj(), u[:, t], optimize=False)
                 * np.einsum("jl,j->l", v[:, :t].conj(), v[:, t], optimize=False))
        norm_sq += uu * vv + 2.0 * float(np.sum(cross.real))
        if np.sqrt(uu * vv) <= RANK_TOLERANCE * np.sqrt(norm_sq):
            return u[:, :t + 1], v[:, :t + 1]
        i = int(np.argmax(np.where(used, -1.0, np.abs(u[:, t]))))
    if m <= RANK_CAP:
        return u[:, :m], v[:, :m]
    raise PhysicsError(f"the transfer needs more than {RANK_CAP} terms at tolerance "
                       f"{RANK_TOLERANCE:g}; the factor path holds at most {RANK_CAP}")


def _transfer_factors(n: int, f: np.ndarray, k: float, m: int, distance: float) -> tuple:
    """Factors (u, v), each (rows, K), of the hop's exact transfer
    ``exp(i z (kz - k))`` on the cone's rows and columns: the FFT-ordered
    samples i with ``_fold(n)[i] < m``, in order.

    Carrier-referenced: the plane-wave phase k z (~1e7 rad over a meter) is
    dropped, so composed short hops agree with one long hop.  The identity
    ``kz - k = -kp2 / 2k - kp2^2 / (2k (kz + k)^2)``, with ``kp2 = kx^2 +
    ky^2``, splits the transfer into the Fresnel factor ``exp(-i z kp2 / 2k)``,
    exactly ``outer(p, p)`` with ``p = exp(-i z kx^2 / 2k)``, times a
    correction whose phase is a few radians: ACA factors only the correction
    on the cone's m x m quadrant, and the factors, times p, are mirrored into
    FFT order.
    """
    k_sq = (2.0 * np.pi * f[:m]) ** 2

    def correction(ky_sq, kx_sq):
        kp2 = kx_sq + ky_sq
        return np.exp(-1j * distance * kp2**2 / (2.0 * k * (np.sqrt(k**2 - kp2) + k) ** 2))

    u, v = _aca(lambda i: correction(k_sq[i], k_sq), lambda j: correction(k_sq, k_sq[j]), m)
    fresnel = np.exp(-1j * distance * k_sq / (2.0 * k))[:, None]
    fold = _fold(n)
    half = fold[fold < m]  # each cone row's half-axis entry
    return tuple((x * fresnel)[half] for x in (u, v))


def _chirp(n: int, pitch: float, ctx: WaveContext, focal: float) -> np.ndarray | None:
    """The lens's 1-D chirp exp(-i k x^2 / 2f) on the centred axis, or None for
    an infinite focal length (the identity)."""
    if focal == 0 or np.isnan(focal):
        raise ValidationError(f"focal length must be nonzero, got {focal}")
    if np.isinf(focal):
        return None
    return np.exp(-1j * ctx.wavenumber * axis_coords(n, pitch) ** 2 / (2.0 * focal))


def _check_distance(distance: float) -> None:
    if distance < 0:
        raise ValidationError(f"propagation distance must be >= 0, got {distance}")


# ---------------------------------------------------------------------------
# Low-rank factors
# ---------------------------------------------------------------------------

def _tree_qr(x: np.ndarray, y: np.ndarray) -> tuple:
    """``(r, apply)`` with ``Q @ r`` the (rows, p) block of the column pairs
    ``x[:, r] * y[:, k]`` of two (rows, .) arrays, Q's columns orthonormal
    and ``apply(w) = Q @ w``, by a two-level tree QR (TSQR; Demmel, Grigori,
    Hoemmen and Langou, SIAM J. Sci. Comput. 34, A206 (2012)).  The pairs
    are written into at most 8 zero-padded leaves, each a multiple of 64 rows
    and at least p tall, factored by one batched QR; the leaves' stacked R
    factors take one QR more.  ``apply`` runs the tree from the top down with
    batched products."""
    rows, p = x.shape[0], x.shape[1] * y.shape[1]
    height = 64 * -(-max(p, -(-rows // 8)) // 64)
    leaves = -(-rows // height)
    block = np.zeros((leaves * height, x.shape[1], y.shape[1]), np.complex128)
    np.multiply(x[:, :, None], y[:, None, :], out=block[:rows])
    q, r = np.linalg.qr(block.reshape(leaves, height, p))
    top, r = np.linalg.qr(r.reshape(leaves * p, p))

    def apply(w):
        return np.matmul(q, (top @ w).reshape(leaves, p, -1)).reshape(-1, w.shape[1])[:rows]

    return r, apply


def _recompress(a: np.ndarray, u: np.ndarray, b: np.ndarray, v: np.ndarray) -> tuple:
    """Factors at its numerical rank of ``x @ y.T``, where x and y hold the
    column pairs ``a[:, r] * u[:, k]`` and ``b[:, r] * v[:, k]``: ``qa @ core
    @ qb.T`` with orthonormal qa and qb from :func:`_tree_qr`, the core's SVD
    ``U s Vh`` cut at RANK_TOLERANCE of its largest singular value, which
    also drops the pairs that depend on others, and the factors ``qa @ U``
    and ``qb @ (Vh.T s)``.  The core is formed by ``einsum``: OpenBLAS rounds
    a complex product of some core sizes differently on different thread
    counts."""
    ra, qa = _tree_qr(a, u)
    rb, qb = _tree_qr(b, v)
    left, s, right = np.linalg.svd(np.einsum("pr,qr->pq", ra, rb, optimize=False))
    rank = int(np.count_nonzero(s > RANK_TOLERANCE * s[0])) if s[0] > 0.0 else 1
    if rank > RANK_CAP:
        raise PhysicsError(f"the field's rank would be {rank}, past the cap of {RANK_CAP} "
                           f"at tolerance {RANK_TOLERANCE:g}")
    return qa(left[:, :rank]), qb(right[:rank].T * s[:rank])


class _Factors:
    """A train's field held as factors ``a @ b.T``, as samples or, after a
    hop, as their 1-D spectra.  The factors are copied on entry, so the
    caller's arrays are never written and the result never shares them."""

    def __init__(self, fld: SeparableField, ctx: WaveContext):
        if not isinstance(fld, SeparableField):
            raise ValidationError(f"propagation takes a SeparableField (factors whose samples "
                                  f"are column @ row.T), got a {type(fld).__name__}")
        self.a, self.b, self.pitch, self.ctx = fld.column.copy(), fld.row.copy(), fld.pitch, ctx
        self.n, self.spectral = fld.n, False

    def _domain(self, spectral: bool) -> None:
        if self.spectral != spectral:
            transform = np.fft.fft if spectral else np.fft.ifft
            self.a, self.b = (transform(x, axis=0) for x in (self.a, self.b))
            self.spectral = spectral

    def hop(self, distance: float, max_clip_fraction: float) -> None:
        _check_distance(distance)
        if distance == 0.0:
            return
        n, ctx = self.n, self.ctx
        f, m = _cone(n, self.pitch, ctx.wavelength, distance)
        if not _propagates(ctx.wavenumber, f, m):
            raise SamplingError(
                f"pitch {self.pitch:g} m is at most lambda / sqrt(2) "
                f"({ctx.wavelength / np.sqrt(2.0):g} m): the hop's cone reaches evanescent "
                f"frequencies, which the factor path cannot hold; use a coarser pitch")
        self._domain(True)
        # A cone that holds every frequency clips nothing.
        if m < f.size:
            _check_clip(_gram_ring_table(self.a, self.b), f, n * self.pitch, ctx.wavelength,
                        distance, max_clip_fraction)
        # The recompression runs on the cone's rows; the rest are zero.
        inside = _fold(n) < m
        u, v = _transfer_factors(n, f, ctx.wavenumber, m, distance)
        pairs = _recompress(self.a[inside], u, self.b[inside], v)
        self.a, self.b = (np.zeros((n, x.shape[1]), np.complex128) for x in pairs)
        self.a[inside], self.b[inside] = pairs

    def lens(self, focal: float) -> None:
        p = _chirp(self.n, self.pitch, self.ctx, focal)
        if p is not None:
            self._domain(False)
            self.a, self.b = self.a * p[:, None], self.b * p[:, None]

    def mask(self, transmission: TransmissionMask) -> None:
        transmission.check_grid(self.n, self.pitch)
        self._domain(False)
        self.b = self.b * transmission.samples[:, None]

    def check_finite(self) -> None:
        if not (_all_finite(self.a) and _all_finite(self.b)):
            raise ValidationError("field samples must all be finite")

    def field(self) -> SeparableField:
        """The factors, in samples.  SeparableField checks them for
        finiteness again; a train's own check_finite stays so that its
        error names the element."""
        self._domain(False)
        return SeparableField(self.a, self.b, self.pitch)


# ---------------------------------------------------------------------------
# Angular-spectrum propagation
# ---------------------------------------------------------------------------

def propagate(fld: SeparableField, ctx: WaveContext, distance: float,
              max_clip_fraction: float = DEFAULT_MAX_CLIP_FRACTION) -> SeparableField:
    """Propagate a field through free space by the angular-spectrum method.

    Parameters
    ----------
    fld : SeparableField
        Input field, low-rank factors, run as the module docstring describes.
    ctx : WaveContext
        Wavenumber of the light being propagated.
    distance : float
        Propagation distance in meters, >= 0.
    max_clip_fraction : float
        Power fraction the band-limit clip may remove before the call is
        rejected as aliasing-prone.

    Returns
    -------
    SeparableField
        The propagated field's factors.  Power is conserved to better than
        1e-9 (relative) whenever the input has no evanescent or out-of-cone
        content.

    Raises
    ------
    AliasingRiskError
        If the requested distance lies beyond the band-limited range for
        this grid; the error names the maximum safe distance.
    ValidationError
        If ``fld`` is not a SeparableField.
    """
    state = _Factors(fld, ctx)
    state.hop(distance, max_clip_fraction)
    return state.field()


def apply_thin_lens(fld: SeparableField, ctx: WaveContext, focal: float) -> SeparableField:
    """Multiply by the thin-lens phase exp(-i k rho^2 / (2 f)).

    Positive focal lengths converge.  An infinite focal length is the
    identity.  Power is unchanged: the lens is unbounded.
    """
    state = _Factors(fld, ctx)
    state.lens(focal)
    return state.field()


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

    def __post_init__(self):
        if self.focal == 0:
            raise ValidationError("thin-lens focal length must be nonzero")

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


def _apply_element(state, el: OpticalElement, max_clip_fraction: float) -> None:
    if isinstance(el, FreeSpace):
        state.hop(el.distance, max_clip_fraction)
    elif isinstance(el, ThinLens):
        state.lens(el.focal)
    else:
        state.mask(el.transmission)


def propagate_train(fld: SeparableField, ctx: WaveContext, train: OpticalTrain,
                    max_clip_fraction: float = DEFAULT_MAX_CLIP_FRACTION) -> SeparableField:
    """Apply every element of the train in order and return the field's factors.

    The train runs on the factors, as the module docstring describes.  Each
    element's output is checked for finiteness, on the factors in O(n R).
    Element errors are re-raised with the element index prepended so a
    failing stage of a long train is identifiable.
    """
    state = _Factors(fld, ctx)
    for i, el in enumerate(train.elements):
        try:
            _apply_element(state, el, max_clip_fraction)
            state.check_finite()
        except AliasingRiskError as exc:
            raise AliasingRiskError(
                f"element {i} ({el.describe()}): {exc}", exc.max_safe_distance
            ) from exc
        except (ValidationError, PhysicsError) as exc:
            raise type(exc)(f"element {i} ({el.describe()}): {exc}") from exc
    return state.field()
