"""Shared builders and measurement helpers for the test suite."""

import tracemalloc

import numpy as np
import pytest

from twinbeam import (
    DetectorSpec,
    ScalarField,
    gaussian_beam,
    safe_frequency_limit,
    wire_mask,
)
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
                              max_distance=3.0, fill=0.8) -> ScalarField:
    """Random complex field whose spectrum fits the safe cone for ``max_distance``."""
    window = n * pitch
    f_cap = fill * safe_frequency_limit(window, wavelength, max_distance)
    f = np.fft.fftfreq(n, d=pitch)
    fx, fy = np.meshgrid(f, f)
    inside = (np.abs(fx) <= f_cap) & (np.abs(fy) <= f_cap)
    spec = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * inside
    return ScalarField(np.fft.ifft2(spec), pitch)


def traced_peak(fn) -> int:
    """Peak bytes allocated while ``fn()`` runs, numpy buffers included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def rel_rms(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.abs(a - b) ** 2)) / np.sqrt(np.mean(np.abs(b) ** 2)))


def intensity_ncc(a: np.ndarray, b: np.ndarray) -> float:
    x = a - a.mean()
    y = b - b.mean()
    return float((x * y).sum() / np.sqrt((x * x).sum() * (y * y).sum()))


def second_moment_radius(fld: ScalarField) -> float:
    """1/e^2 intensity radius of a Gaussian beam via second moments."""
    intensity = fld.intensity()
    x = fld.coords
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
    return wire_mask(0.2e-3, 512, 20e-6).apply(gaussian_beam(1e-3, 512, 20e-6))
