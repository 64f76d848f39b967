"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import time

import numpy as np
import pytest

from conftest import (
    PUMP_WAVELENGTH,
    as_grid,
    make_scenario,
    masked,
    random_band_limited_field,
    rel_rms,
    second_moment_radius,
)
from oracles import (coincidence_imaged, find_image_plane, oracle_fresnel_direct,
                     rate_from_intensity)
from twinbeam import (
    WaveContext,
    compare_profiles,
    compose,
    contrast,
    design_telescope,
    divergence_prefactor,
    effective_detector_field,
    feature_width,
    propagate,
    scan_detector,
    wire_mask,
)
from twinbeam.biphoton import CoincidenceProfile
from twinbeam.counting import CountingConfig, sample_counts, snr
from twinbeam.field import _bilinear_cells, _bilinear_gather, separable_gaussian
from twinbeam.propagation import FreeSpace, OpticalTrain, ThinLens
from twinbeam.scenario import LensElement, load_scenario

CTX = WaveContext.from_wavelength(PUMP_WAVELENGTH)


def report(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {name}: {verdict} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


@pytest.fixture(scope="module")
def preset_profiles():
    profiles = {}
    for name in ("fig4a", "fig4b", "fig5"):
        profiles[name] = scan_detector(load_scenario(name), kappa=1.0)
    return profiles


def test_criterion_01_propagator_unitarity():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(20):
        fld = random_band_limited_field(rng, n=256, pitch=20e-6, max_distance=3.0)
        norm_in = np.linalg.norm(as_grid(fld))
        z = 0.1 + 2.9 * i / 19.0
        worst = max(worst, abs((np.linalg.norm(as_grid(propagate(fld, CTX, z))) / norm_in) ** 2
                               - 1.0))
    elapsed = time.time() - start
    report(1, "propagator unitarity", worst < 1e-9 and elapsed < 10.0,
           f"max |dP|/P = {worst:.3e}, {elapsed:.1f} s")


def test_criterion_02_gaussian_width_oracle():
    w0 = 0.5e-3
    z_r = np.pi * w0**2 / CTX.wavelength
    fld = separable_gaussian(w0, 512, 20e-6)
    worst = 0.0
    for frac in (0.5, 1.0, 2.0):
        measured = second_moment_radius(as_grid(propagate(fld, CTX, frac * z_r)), fld.pitch)
        expected = w0 * np.sqrt(1.0 + frac**2)
        worst = max(worst, abs(measured / expected - 1.0))
    report(2, "analytic Gaussian width law", worst < 5e-3,
           f"max width error = {worst:.2e} at z in (0.5, 1, 2) z_R")


def test_criterion_03_quadrature_oracle_equivalence():
    start = time.time()
    geometries = [
        (0.2e-3, 60e-6, 425e-9, 0.5),
        (0.25e-3, 70e-6, 890e-9, 0.35),
        (0.3e-3, 80e-6, 800e-9, 0.5),
    ]
    worst = 0.0
    for w0, pitch, lam, z in geometries:
        ctx = WaveContext.from_wavelength(lam)
        beam = separable_gaussian(w0, 64, pitch)
        fft_out = as_grid(propagate(beam, ctx, z))
        direct = oracle_fresnel_direct(as_grid(beam), pitch, ctx, z)
        worst = max(worst, rel_rms(fft_out, direct), rel_rms(direct, fft_out))
    elapsed = time.time() - start
    report(3, "quadrature-oracle equivalence", worst < 1e-6 and elapsed < 60.0,
           f"max rel RMS = {worst:.3e} over 3 geometries, {elapsed:.1f} s")


def test_criterion_04_sum_coordinate_symmetry():
    # point detectors read the main-path rate map, |W|^2 itself, at rho_s + rho_i
    scenario = make_scenario(z_m1=0.02, z_det=0.5, n=512)
    w = effective_detector_field(scenario)
    rate_map = np.abs(as_grid(w)) ** 2
    rng = np.random.default_rng(4)
    worst = 0.0

    for _ in range(100):
        rho_s = rng.uniform(-1e-3, 1e-3, 2)
        rho_i = rng.uniform(-1e-3, 1e-3, 2)
        delta = rng.uniform(-5e-4, 5e-4, 2)
        r1, r2 = (_bilinear_gather(rate_map, *_bilinear_cells(w.n, w.pitch, *u))
                  for u in (rho_s + rho_i, (rho_s + delta) + (rho_i - delta)))
        if r1 > 0:
            worst = max(worst, abs(r2 - r1) / r1)
    report(4, "sum-coordinate symmetry", worst < 1e-6,
           f"max relative change = {worst:.3e} over 100 random shifts")


def test_criterion_05_inverse_square_law():
    fld = propagate(separable_gaussian(1e-3, 512, 20e-6), CTX, 0.5)
    intensity = np.abs(as_grid(fld)) ** 2
    k_p = CTX.wavenumber
    distances = np.linspace(0.5, 3.0, 11)
    peaks = [rate_from_intensity(intensity, fld.pitch, (0.0, 0.0),
                                 prefactor=divergence_prefactor(k_p, z))
             for z in distances]
    slope = np.polyfit(np.log(distances), np.log(peaks), 1)[0]
    report(5, "inverse-square prefactor law", abs(slope + 2.0) < 0.02,
           f"fitted log-log slope = {slope:.4f}")


def test_criterion_06_imaged_law_vs_wave_optics():
    wire_w = 0.79e-3
    results = []
    for tag, (z_m1, z_l, focal, z_d) in {
        "O=I": (0.05, 0.27, 0.16, 0.32),
        "O=2I": (0.05, 0.43, 0.16, 0.24),
    }.items():
        scenario = make_scenario(
            waist=1e-3, wire=wire_w, z_m1=z_m1,
            twin_lenses=(LensElement(focal, z_l),), z_det=z_l + z_d,
            n=2048, pitch=10e-6, scan=(-2.0e-3, 2.0e-3, 5e-6))
        profile = scan_detector(scenario, kappa=1.0)
        w_mask = as_grid(masked(separable_gaussian(1e-3, 2048, 10e-6),
                                wire_mask(wire_w, 2048, 10e-6)))
        intensity = np.abs(w_mask) ** 2
        obj_dist, img_dist = z_m1 + z_l, z_d
        closed = np.array([
            coincidence_imaged(intensity, 10e-6, obj_dist, img_dist, (x, 0.0), (0.0, 0.0))
            for x in profile.coordinates])
        res = compare_profiles(profile.coordinates, profile.rates,
                               profile.coordinates, closed)
        # at unit magnification the dip spans exactly the wire width
        geometric = wire_w * img_dist / obj_dist
        miss = abs(feature_width(profile.coordinates, profile.rates)
                   - geometric) * obj_dist / img_dist
        results.append((tag, res["ncc"], res["width_ratio"], miss))
    pitch = 10e-6
    ok = all(ncc >= 0.99 and 0.98 <= wr <= 1.02 and miss <= pitch
             for _, ncc, wr, miss in results)
    detail = "; ".join(f"{tag}: ncc={ncc:.4f}, width={wr:.4f}, "
                       f"|width-wire|={miss * 1e6:.1f}um"
                       for tag, ncc, wr, miss in results)
    report(6, "imaged closed form vs wave optics", ok, detail)


def test_criterion_07_collimation_throughput_gain(preset_profiles):
    start = time.time()
    peak_a = preset_profiles["fig4a"].peak_rate
    peak_b = preset_profiles["fig4b"].peak_rate
    ratio = peak_b / peak_a
    elapsed = time.time() - start
    dip_ok = contrast(preset_profiles["fig4a"].rates) > 0.5
    report(7, "collimated throughput gain", ratio >= 5.0 and dip_ok and elapsed < 120.0,
           f"fig4b/fig4a peak ratio = {ratio:.2f} (claimed about 10), "
           f"fig4a dip contrast = {contrast(preset_profiles['fig4a'].rates):.3f}")


def test_preset_profiles_share_shape(preset_profiles):
    # same image, different throughput: the two short-range presets must agree
    res = compare_profiles(
        preset_profiles["fig4a"].coordinates, preset_profiles["fig4a"].rates,
        preset_profiles["fig4b"].coordinates, preset_profiles["fig4b"].rates)
    assert res["ncc"] >= 0.95


def test_criterion_08_image_preserved_at_three_meters(preset_profiles):
    res = compare_profiles(
        preset_profiles["fig5"].coordinates, preset_profiles["fig5"].rates,
        preset_profiles["fig4b"].coordinates, preset_profiles["fig4b"].rates)
    ok = abs(res["width_ratio"] - 1.0) <= 0.10 and res["ncc"] >= 0.95
    report(8, "quantum image preserved at 3 m", ok,
           f"fig5/fig4b width ratio = {res['width_ratio']:.4f}, ncc = {res['ncc']:.4f}")


def test_criterion_09_abcd_wave_agreement():
    n, pitch = 512, 20e-6
    obj = masked(separable_gaussian(0.4e-3, n, pitch), wire_mask(0.15e-3, n, pitch))
    plans = [
        design_telescope(0.6, -1.0, [0.15]),
        design_telescope(0.8, -5.0 / 3.0, [0.15, 0.25]),
        design_telescope(1.5, -2.0, [0.25, 0.5]),
    ]
    details = []
    ok = True
    for plan in plans:
        z1, z2 = plan.station_positions
        relay = OpticalTrain((FreeSpace(z1), ThinLens(plan.first_focal),
                              FreeSpace(z2 - z1), ThinLens(plan.second_focal)))
        predicted = plan.total_distance - z2
        system = compose(plan.matrices())
        best, corr = find_image_plane(obj, CTX, relay, system.a, system.c,
                                      predicted, halfwidth=0.6e-3, step=pitch)
        miss = abs(best - predicted)
        ok = ok and miss <= pitch + 1e-12
        details.append(f"f=({plan.first_focal:g},{plan.second_focal:g}): "
                       f"|miss|={miss * 1e6:.0f}um corr={corr:.4f}")
    report(9, "ABCD vs wave image plane", ok,
           f"tolerance one pitch = {pitch * 1e6:.0f}um; " + "; ".join(details))


def test_criterion_10_counting_statistics():
    # Poisson moments over 1e4 draws
    n = 10_000
    prof = CoincidenceProfile(np.arange(n) * 1e-6, np.full(n, 100.0))
    quiet = CountingConfig(10.0, 0.0, 0.0, 0.0, seed=42)
    counted = sample_counts(prof, quiet)
    lam = 1000.0
    mean = counted.counts.mean()
    mean_ok = abs(mean - lam) < 4 * np.sqrt(lam / n) * np.sqrt(lam)
    fano = counted.counts.var() / mean
    fano_ok = 0.9 < fano < 1.1

    # SNR scales as sqrt(T) within 5% over 100 trials
    coords = np.arange(41) * 1e-5
    bell = CoincidenceProfile(coords, 800.0 * np.exp(-(((np.arange(41) - 20) / 8.0) ** 2)))
    snr_t = [snr(sample_counts(bell, CountingConfig(1.0, 5e4, 5e4, 5e-9, seed=s)))
             for s in range(100)]
    snr_2t = [snr(sample_counts(bell, CountingConfig(2.0, 5e4, 5e4, 5e-9, seed=10_000 + s)))
              for s in range(100)]
    ratio = np.mean(snr_2t) / np.mean(snr_t)
    sqrt_ok = abs(ratio / np.sqrt(2.0) - 1.0) < 0.05

    # byte-exact determinism
    from twinbeam import fileio
    cfg = CountingConfig(10.0, 5e4, 5e4, 5e-9, seed=123)
    c1 = sample_counts(bell, cfg)
    c2 = sample_counts(bell, cfg)
    bytes1 = fileio.counted_to_csv(c1.coordinates, c1.expected_rates,
                                   c1.counts, c1.accidental_rates).encode()
    bytes2 = fileio.counted_to_csv(c2.coordinates, c2.expected_rates,
                                   c2.counts, c2.accidental_rates).encode()
    det_ok = bytes1 == bytes2

    report(10, "counting statistics",
           mean_ok and fano_ok and sqrt_ok and det_ok,
           f"mean={mean:.1f} (target 1000), var/mean={fano:.3f}, "
           f"SNR(2T)/SNR(T)={ratio:.4f} (target {np.sqrt(2):.4f}), "
           f"seed determinism={'byte-exact' if det_ok else 'BROKEN'}")
