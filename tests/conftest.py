"""Shared builders and measurement helpers for the test suite."""

import contextlib
import ctypes
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from twinbeam import (
    DetectorSpec,
    SeparableField,
    TransmissionMask,
    safe_frequency_limit,
    wire_mask,
)
from twinbeam.field import axis_coords, separable_gaussian
from twinbeam.counting import CountingConfig
from twinbeam.scenario import (
    DetectorsSpec,
    GridSpec,
    MaskSpec,
    PumpSpec,
    ScanSpec,
    Scenario,
    TwinWavelengths,
)

pytest_plugins = ["pytester"]

PUMP_WAVELENGTH = 425e-9


def random_band_limited_field(rng, n=256, pitch=20e-6, wavelength=PUMP_WAVELENGTH,
                              max_distance=3.0, fill=0.8) -> SeparableField:
    """Random complex field whose spectrum S fits the safe cone for
    ``max_distance``, as exact factors.  S is zero outside the cone's square
    I x I, so ``ifft2(S) = A @ B.T``, with A the inverse transforms of the
    unit columns on I and ``B = A @ S[I, I].T``: a field of rank |I|."""
    window = n * pitch
    f_cap = fill * safe_frequency_limit(window, wavelength, max_distance)
    f = np.fft.fftfreq(n, d=pitch)
    fx, fy = np.meshgrid(f, f)
    inside = (np.abs(fx) <= f_cap) & (np.abs(fy) <= f_cap)
    spec = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * inside
    cone = np.flatnonzero(np.abs(f) <= f_cap)
    a = np.fft.ifft(np.eye(n)[:, cone], axis=0)
    return SeparableField(a, a @ spec[np.ix_(cone, cone)].T, pitch)


def as_grid(fld: SeparableField) -> np.ndarray:
    """The factors' samples ``column @ row.T``, the n x n array that the
    oracles and the brute-force checks read."""
    return fld.column @ fld.row.T


def masked(fld: SeparableField, mask: TransmissionMask) -> SeparableField:
    """The field with each row multiplied by the mask's profile: its row
    factor times the profile."""
    return SeparableField(fld.column, fld.row * mask.samples[:, None], fld.pitch)


def traced_peak(fn) -> int:
    """Peak bytes allocated while ``fn()`` runs, numpy buffers included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def count_inverse_lines(monkeypatch):
    """The lines numpy's 1-D ``ifft`` transforms while it is set, one
    ("columns" or "rows", count) entry per run of passes of one kind."""
    passes = []
    ifft = np.fft.ifft

    def counting(a, *args, axis=-1, **kwargs):
        kind, lines = ("columns", a.shape[1]) if axis == 0 else ("rows", a.shape[0])
        if passes and passes[-1][0] == kind:
            passes[-1] = (kind, passes[-1][1] + lines)
        else:
            passes.append((kind, lines))
        return ifft(a, *args, axis=axis, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", counting)
    return passes


def patch_map(samples: np.ndarray, pitch: float, radii: tuple, rows, cols) -> np.ndarray:
    """``biphoton._map_patch`` of the field ``samples`` at the map points
    ``rows[0]..rows[-1]`` x ``cols[0]..cols[-1]`` (ascending, and taken
    modulo n), from the patch ``biphoton._patch`` names for them."""
    from twinbeam import biphoton

    n = samples.shape[0]
    spans = biphoton._patch(n, pitch, radii, rows, cols)
    patch = samples[np.ix_(*(np.arange(s.start, s.stop) % n for s in spans))]
    return biphoton._map_patch(patch, n, pitch, radii)


def count_transforms(monkeypatch):
    """The domain changes of the trains run while it is set: False for a
    forward transform, True for an inverse.  The 1-D transforms of a factor
    pair, one after the other, count as one change; a 2-D transform as one."""
    calls = []
    for name, inverse in (("fft", False), ("ifft", True), ("fft2", False), ("ifft2", True)):
        def counting(*args, transform=getattr(np.fft, name), inverse=inverse, two_d=name[-1] == "2",
                     **kwargs):
            if two_d or not calls or calls[-1] != inverse:
                calls.append(inverse)
            return transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    return calls


def _openblas_threads():
    """The (set, get) thread-count functions of numpy's OpenBLAS, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if setter is not None and getter is not None:
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    return setter, getter
    return None


@contextlib.contextmanager
def blas_threads(count: int):
    """Run the block with numpy's OpenBLAS limited to ``count`` threads; skip
    the test where numpy's OpenBLAS cannot be found."""
    functions = _openblas_threads()
    if functions is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be set here")
    setter, getter = functions
    before = getter()
    setter(count)
    try:
        assert getter() == count
        yield
    finally:
        setter(before)


def run_child(code: str, **env) -> bytes:
    """Standard output of ``python -c code`` in a new process, with the
    checkout's ``src`` first on its path and ``env`` added to its environment."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], check=True, timeout=300,
                          capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path, **env)).stdout


def rel_rms(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.abs(a - b) ** 2)) / np.sqrt(np.mean(np.abs(b) ** 2)))


def intensity_ncc(a: np.ndarray, b: np.ndarray) -> float:
    x = a - a.mean()
    y = b - b.mean()
    return float((x * y).sum() / np.sqrt((x * x).sum() * (y * y).sum()))


def second_moment_radius(samples: np.ndarray, pitch: float) -> float:
    """1/e^2 intensity radius of a Gaussian beam via second moments."""
    intensity = np.abs(samples) ** 2
    x = axis_coords(samples.shape[0], pitch)
    xx, _ = np.meshgrid(x, x)
    return float(2.0 * np.sqrt((intensity * xx**2).sum() / intensity.sum()))


def make_scenario(name="test", waist=1e-3, wire=0.2e-3, z_m1=0.05,
                  pump_lenses=(), twin_lenses=(), z_det=0.5,
                  aperture=0.0, n=512, pitch=20e-6,
                  scan=(-1.5e-3, 1.5e-3, 2e-5), seed=1,
                  mask_type="wire", include_prefactor=True) -> Scenario:
    return Scenario(
        name=name,
        pump=PumpSpec(wavelength_m=PUMP_WAVELENGTH, waist_m=waist),
        twin_wavelengths=TwinWavelengths(2 * PUMP_WAVELENGTH, 2 * PUMP_WAVELENGTH),
        grid=GridSpec(n=n, pitch_m=pitch),
        mask=MaskSpec(type=mask_type, width_m=wire if mask_type == "wire" else None,
                      distance_to_crystal_m=z_m1),
        pump_side_elements=tuple(pump_lenses),
        twin_side_elements=tuple(twin_lenses),
        detectors=DetectorsSpec(
            distance_from_crystal_m=z_det,
            signal=DetectorSpec("signal", aperture_radius_m=aperture),
            idler=DetectorSpec("idler", aperture_radius_m=aperture),
        ),
        scan=ScanSpec("signal", "x", scan[0], scan[1], scan[2]),
        counting=CountingConfig(acquisition_time_s=10.0, seed=seed),
        include_divergence_prefactor=include_prefactor,
    )


@pytest.fixture
def masked_beam():
    """The 1 mm pump behind the 0.2 mm wire, as factors."""
    return masked(separable_gaussian(1e-3, 512, 20e-6), wire_mask(0.2e-3, 512, 20e-6))
