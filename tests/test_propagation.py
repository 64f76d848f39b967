import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (intensity_ncc, random_band_limited_field, rel_rms,
                      second_moment_radius, traced_peak)
from oracles import oracle_fresnel_direct, resample_scaled
from twinbeam import (
    AliasingRiskError,
    FreeSpace,
    Mask,
    OpticalTrain,
    ScalarField,
    ThinLens,
    TransmissionMask,
    ValidationError,
    WaveContext,
    apply_thin_lens,
    gaussian_beam,
    max_safe_distance,
    power,
    propagate,
    propagate_train,
    safe_frequency_limit,
    wire_mask,
)
from twinbeam import propagation
from twinbeam.field import radius_squared

CTX = WaveContext.from_wavelength(425e-9)


class TestPropagate:
    def test_zero_distance_identity(self):
        f = gaussian_beam(0.15e-3, 64, 20e-6)
        out = propagate(f, CTX, 0.0)
        assert np.array_equal(out.samples, f.samples)

    def test_negative_distance_rejected(self):
        f = gaussian_beam(0.15e-3, 64, 20e-6)
        with pytest.raises(ValidationError):
            propagate(f, CTX, -0.1)

    def test_power_conserved_at_one_meter(self):
        f = gaussian_beam(0.5e-3, 512, 20e-6)
        out = propagate(f, CTX, 1.0)
        assert abs(power(out) / power(f) - 1.0) < 1e-9

    @pytest.mark.parametrize("frac", [0.5, 1.0, 2.0])
    def test_gaussian_width_law(self, frac):
        w0 = 0.5e-3
        z_r = np.pi * w0**2 / CTX.wavelength
        f = gaussian_beam(w0, 512, 20e-6)
        out = propagate(f, CTX, frac * z_r)
        expected = w0 * np.sqrt(1 + frac**2)
        assert second_moment_radius(out) == pytest.approx(expected, rel=5e-3)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(min_value=0.01, max_value=1.0),
           st.floats(min_value=0.01, max_value=1.0))
    def test_semigroup(self, a, b):
        rng = np.random.default_rng(7)
        f = random_band_limited_field(rng, n=64, pitch=40e-6, max_distance=2.5)
        two_step = propagate(propagate(f, CTX, a), CTX, b)
        one_step = propagate(f, CTX, a + b)
        assert rel_rms(two_step.samples, one_step.samples) < 1e-10

    def test_aliasing_error_names_safe_distance(self):
        # sharp field on a tiny window: spectrum far exceeds the long-haul cone
        f = gaussian_beam(60e-6, 64, 20e-6)
        with pytest.raises(AliasingRiskError) as err:
            propagate(f, CTX, 2.0)
        assert err.value.max_safe_distance < 2.0
        assert f"{err.value.max_safe_distance:.4g}" in str(err.value)
        # the reported distance itself must be safe
        propagate(f, CTX, err.value.max_safe_distance * 0.99)

    def test_max_safe_distance_monotone_in_budget(self):
        f = gaussian_beam(60e-6, 64, 20e-6)
        loose = max_safe_distance(f, CTX, max_clip_fraction=0.10)
        tight = max_safe_distance(f, CTX, max_clip_fraction=0.01)
        assert tight < loose

    def test_power_non_increasing_when_cone_clips(self):
        # propagate just inside the clip budget: some spectral tail is
        # zeroed, so power must drop, and never grow
        f = gaussian_beam(60e-6, 64, 20e-6)
        z = max_safe_distance(f, CTX, max_clip_fraction=0.03)
        out = propagate(f, CTX, 0.999 * z, max_clip_fraction=0.03)
        ratio = power(out) / power(f)
        assert 0.96 < ratio < 1.0


def _full_grid_propagate(samples, pitch, ctx, distance):
    """Angular-spectrum hop with the transfer built on every FFT-ordered sample."""
    n = samples.shape[0]
    k = ctx.wavenumber
    f = np.fft.fftfreq(n, d=pitch)
    fx, fy = f[None, :], f[:, None]
    kx = 2.0 * np.pi * fx
    ky = 2.0 * np.pi * fy
    f_limit = safe_frequency_limit(n * pitch, ctx.wavelength, distance)
    kz_sq = k**2 - kx**2 - ky**2
    propagating = kz_sq > 0.0
    in_cone = propagating & (np.abs(fx) <= f_limit) & (np.abs(fy) <= f_limit)
    kz = np.sqrt(np.where(propagating, kz_sq, 0.0))
    kz_rel = np.where(propagating, -(kx**2 + ky**2) / (kz + k), 0.0)
    transfer = np.where(in_cone, np.exp(1j * distance * kz_rel), 0.0)
    spectrum = np.fft.fft2(samples)
    return np.fft.ifft2(spectrum * transfer)


def _mask_safe_distance(fld, ctx, max_clip_fraction=0.05):
    """Bisection on a boolean mask of the clipped samples, as a brute-force oracle."""
    spectrum_sq = np.abs(np.fft.fft2(fld.samples)) ** 2
    f = np.fft.fftfreq(fld.n, d=fld.pitch)
    fx, fy = f[None, :], f[:, None]
    total = spectrum_sq.sum()

    def frac(z):
        if total == 0.0:
            return 0.0
        f_limit = safe_frequency_limit(fld.window, ctx.wavelength, z)
        outside = (np.abs(fx) > f_limit) | (np.abs(fy) > f_limit)
        return float(spectrum_sq[outside].sum() / total)

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


class TestMirroredBuilds:
    """The transfer and the lens phase, built on one quadrant and mirrored,
    equal the full-grid expressions byte for byte.

    The grids are at least 128 wide so that their complex arrays reach
    numpy's 256 KiB temporary-elision threshold: a mirrored array used
    unnamed in the product is then multiplied in place, which rounds
    differently and fails these tests.
    """

    @pytest.mark.parametrize("n", [128, 129])
    @pytest.mark.parametrize("distance", [0.05, 1.5])  # full band; band-limited
    def test_propagate_matches_full_grid_transfer(self, n, distance):
        pitch = 20e-6
        assert (safe_frequency_limit(n * pitch, CTX.wavelength, distance)
                > 0.5 / pitch) == (distance == 0.05)
        rng = np.random.default_rng(n)
        samples = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        out = propagate(ScalarField(samples, pitch), CTX, distance, max_clip_fraction=1.0)
        ref = _full_grid_propagate(samples, pitch, CTX, distance)
        assert out.samples.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [128, 129])
    def test_propagate_matches_full_grid_transfer_in_a_narrow_cone(self, n):
        # at 2 m the cone keeps only the first four frequencies of each half
        # axis, so the transfer is evaluated on a 4 x 4 block
        pitch, distance = 20e-6, 2.0
        f_limit = safe_frequency_limit(n * pitch, CTX.wavelength, distance)
        assert np.count_nonzero(np.abs(np.fft.fftfreq(n, d=pitch)[: n // 2 + 1]) <= f_limit) == 4
        rng = np.random.default_rng(n)
        samples = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        out = propagate(ScalarField(samples, pitch), CTX, distance, max_clip_fraction=1.0)
        ref = _full_grid_propagate(samples, pitch, CTX, distance)
        assert out.samples.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [128, 129])
    @pytest.mark.parametrize("focal", [0.2, -0.2])
    def test_lens_matches_full_grid_phase(self, n, focal):
        pitch = 20e-6
        rng = np.random.default_rng(n)
        samples = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        out = apply_thin_lens(ScalarField(samples, pitch), CTX, focal)
        phase = np.exp(-1j * CTX.wavenumber * radius_squared(n, pitch) / (2.0 * focal))
        ref = samples * phase
        assert out.samples.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [128, 129])
    def test_train_matches_out_of_place_chain(self, n):
        # mask -> full-band hop -> bounded lens -> band-limited hop, on one
        # working array, against the formulas chained by hand
        pitch, focal, stop = 20e-6, 0.2, 0.8e-3
        rng = np.random.default_rng(n)
        samples = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        transmission = rng.uniform(size=(n, n))
        train = OpticalTrain((Mask(TransmissionMask(transmission, pitch)), FreeSpace(0.05),
                              ThinLens(focal, aperture_radius=stop), FreeSpace(1.5)))
        out = propagate_train(ScalarField(samples, pitch), CTX, train, max_clip_fraction=1.0)
        u = samples * transmission
        u = _full_grid_propagate(u, pitch, CTX, 0.05)
        rho2 = radius_squared(n, pitch)
        phase = np.exp(-1j * CTX.wavenumber * rho2 / (2.0 * focal))
        u = u * phase
        u = np.where(rho2 <= stop**2, u, 0.0)
        u = _full_grid_propagate(u, pitch, CTX, 1.5)
        assert out.samples.tobytes() == u.tobytes()


_WIRE_64 = Mask(wire_mask(0.2e-3, 64, 20e-6))
_CALLS = {
    "propagate": lambda f: propagate(f, CTX, 0.01),
    "lens": lambda f: apply_thin_lens(f, CTX, 0.2),
    "train": lambda f: propagate_train(f, CTX, OpticalTrain(
        (_WIRE_64, FreeSpace(0.01), ThinLens(0.2, aperture_radius=0.3e-3), FreeSpace(0.01)))),
}
_REFUSED_CALLS = {
    "propagate": lambda f: propagate(f, CTX, 2.0),
    "train": lambda f: propagate_train(f, CTX, OpticalTrain((ThinLens(0.2), FreeSpace(2.0)))),
}


class TestCallerField:
    """Every element works on one copy: the caller's field is never written."""

    @pytest.mark.parametrize("call", _CALLS.values(), ids=_CALLS.keys())
    def test_result_is_a_new_read_only_field(self, call):
        f = gaussian_beam(60e-6, 64, 20e-6)
        before = f.samples.tobytes()
        out = call(f)
        assert f.samples.tobytes() == before
        assert not f.samples.flags.writeable
        assert not out.samples.flags.writeable
        assert not np.shares_memory(out.samples, f.samples)

    @pytest.mark.parametrize("call", _REFUSED_CALLS.values(), ids=_REFUSED_CALLS.keys())
    def test_refused_hop_leaves_the_field_unchanged(self, call):
        f = gaussian_beam(60e-6, 64, 20e-6)
        before = f.samples.tobytes()
        with pytest.raises(AliasingRiskError):
            call(f)
        assert f.samples.tobytes() == before
        assert not f.samples.flags.writeable


def test_train_holds_one_working_array():
    # the field's copy, the transfer quadrant (a quarter field) and its
    # cone-sized temporaries: about 1.6 fields; with a mirrored scratch
    # array and full-quadrant temporaries, about 3.4
    n, pitch = 512, 20e-6
    f = gaussian_beam(1e-3, n, pitch)
    train = OpticalTrain((Mask(wire_mask(0.2e-3, n, pitch)), FreeSpace(0.005), FreeSpace(0.05),
                          ThinLens(0.15), FreeSpace(0.1)))
    assert traced_peak(lambda: propagate_train(f, CTX, train)) / f.samples.nbytes < 2.5


class TestSafeDistance:
    def test_ring_table_matches_mask_bisection(self, masked_beam):
        assert max_safe_distance(masked_beam, CTX) == _mask_safe_distance(masked_beam, CTX)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=45e-6, max_value=0.2e-3),
           st.floats(min_value=1e-3, max_value=0.2),
           st.sampled_from([64, 65]))
    def test_ring_table_matches_mask_bisection_on_gaussians(self, waist, budget, n):
        f = gaussian_beam(waist, n, 20e-6)
        assert max_safe_distance(f, CTX, budget) == _mask_safe_distance(f, CTX, budget)

    def test_full_cone_hop_builds_no_clip_table(self, monkeypatch):
        # every frequency of the grid lies in the 0.01 m cone, so nothing can
        # be clipped and the ring table is never built
        f = gaussian_beam(60e-6, 64, 20e-6)
        assert safe_frequency_limit(f.window, CTX.wavelength, 0.01) >= 0.5 / f.pitch

        def fail(*args, **kwargs):
            raise AssertionError("clip table built for a hop that cannot clip")

        monkeypatch.setattr(propagation, "_clip_curve", fail)
        monkeypatch.setattr(propagation, "_chebyshev_rings", fail)
        propagate(f, CTX, 0.01)
        propagate_train(f, CTX, OpticalTrain((FreeSpace(0.005), ThinLens(0.2), FreeSpace(0.01))))

    def test_refusal_transforms_the_field_once(self, monkeypatch):
        f = gaussian_beam(60e-6, 64, 20e-6)
        calls = []
        fft2 = np.fft.fft2

        def counting_fft2(*args, **kwargs):
            calls.append(args[0].shape)
            return fft2(*args, **kwargs)

        monkeypatch.setattr(np.fft, "fft2", counting_fft2)
        with pytest.raises(AliasingRiskError) as err:
            propagate(f, CTX, 2.0)
        assert calls == [(64, 64)]
        assert err.value.max_safe_distance == max_safe_distance(f, CTX)


class TestThinLens:
    def test_infinite_focal_is_identity(self):
        f = gaussian_beam(0.15e-3, 64, 20e-6)
        out = apply_thin_lens(f, CTX, np.inf)
        assert np.array_equal(out.samples, f.samples)

    def test_zero_focal_rejected(self):
        f = gaussian_beam(0.15e-3, 64, 20e-6)
        with pytest.raises(ValidationError):
            apply_thin_lens(f, CTX, 0.0)

    def test_power_unchanged(self):
        f = gaussian_beam(0.15e-3, 64, 20e-6)
        out = apply_thin_lens(f, CTX, 0.25)
        assert power(out) == pytest.approx(power(f), rel=1e-12)

    def test_lens_inverse_pair_is_identity(self):
        f = gaussian_beam(0.15e-3, 64, 20e-6)
        out = apply_thin_lens(apply_thin_lens(f, CTX, 0.2), CTX, -0.2)
        assert np.allclose(out.samples, f.samples, atol=1e-14)

    def test_collimation_of_point_source(self):
        # source in the front focal plane emerges with flat phase;
        # the spherical wave is produced by the independent quadrature oracle
        n, pitch = 64, 20e-6
        window = n * pitch
        waist = 50e-6
        focal = np.pi * waist * window / (2 * CTX.wavelength)
        src = gaussian_beam(waist, n, pitch)
        at_lens = oracle_fresnel_direct(src, CTX, focal)
        out = apply_thin_lens(at_lens, CTX, focal)
        x = out.coords
        xx, yy = np.meshgrid(x, x)
        central = (np.abs(xx) <= window / 4) & (np.abs(yy) <= window / 4)
        phase = np.angle(out.samples * np.exp(-1j * np.angle(out.samples[n // 2, n // 2])))
        assert np.abs(phase[central]).max() < 0.05

    def test_focal_spot_from_plane_wave(self):
        n = 512
        plane = ScalarField(np.ones((n, n), complex), 20e-6)
        focused = propagate(apply_thin_lens(plane, CTX, 0.25), CTX, 0.25)
        intensity = focused.intensity()
        assert intensity[n // 2, n // 2] / intensity.mean() >= 100


class TestTrains:
    def test_non_finite_element_output_names_the_element(self):
        n = 64
        f = ScalarField(np.full((n, n), 1.7e308 * (1 + 1j)), 20e-6)
        train = OpticalTrain((Mask(wire_mask(0.2e-3, n, 20e-6)), ThinLens(0.2)))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValidationError, match=r"element 1 \(ThinLens.*finite"):
            propagate_train(f, CTX, train)

    @pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf],
                                     [complex(0.0, np.nan)]])
    def test_each_non_finite_sample_names_the_element(self, monkeypatch, bad):
        lens = propagation._Workspace.lens

        def spoiling_lens(ws, focal):
            lens(ws, focal)
            ws.samples.flat[[5, 700][:len(bad)]] = bad

        monkeypatch.setattr(propagation._Workspace, "lens", spoiling_lens)
        f = gaussian_beam(0.15e-3, 64, 20e-6)
        train = OpticalTrain((FreeSpace(0.01), ThinLens(0.2), FreeSpace(0.01)))
        with pytest.raises(ValidationError, match=r"element 1 \(ThinLens.*finite"):
            propagate_train(f, CTX, train)

    def test_overflowing_sum_of_finite_samples_passes(self):
        n = 64
        f = ScalarField(np.full((n, n), 1e308 * (1 + 1j)), 20e-6)
        with np.errstate(over="ignore"):
            assert not np.isfinite(f.samples.sum())
        mask = wire_mask(0.2e-3, n, 20e-6)
        out = propagate_train(f, CTX, OpticalTrain((Mask(mask),)))
        assert np.array_equal(out.samples, f.samples * mask.samples)

    def test_empty_train_is_identity(self):
        f = gaussian_beam(0.15e-3, 64, 20e-6)
        out = propagate_train(f, CTX, OpticalTrain(()))
        assert np.array_equal(out.samples, f.samples)

    def test_split_free_space_equals_single_hop(self):
        rng = np.random.default_rng(3)
        f = random_band_limited_field(rng, n=64, pitch=40e-6, max_distance=1.0)
        split = propagate_train(f, CTX, OpticalTrain((FreeSpace(0.3), FreeSpace(0.2))))
        joined = propagate(f, CTX, 0.5)
        assert rel_rms(split.samples, joined.samples) < 1e-10

    def test_4f_relay_images_scaled_and_inverted(self):
        f1, f2 = 0.2, 0.1
        n, pitch = 1024, 10e-6
        obj = wire_mask(0.2e-3, n, pitch).apply(gaussian_beam(0.5e-3, n, pitch))
        train = OpticalTrain((FreeSpace(f1), ThinLens(f1), FreeSpace(f1 + f2),
                              ThinLens(f2), FreeSpace(f2)))
        img = propagate_train(obj, CTX, train)
        ref = resample_scaled(obj, -f2 / f1)
        assert intensity_ncc(img.intensity(), ref.intensity()) >= 0.99

    def test_element_errors_carry_index(self):
        f = gaussian_beam(60e-6, 64, 20e-6)
        train = OpticalTrain((FreeSpace(0.001), FreeSpace(5.0)))
        with pytest.raises(AliasingRiskError, match="element 1"):
            propagate_train(f, CTX, train)

    def test_mask_element_grid_mismatch(self):
        f = gaussian_beam(0.15e-3, 64, 20e-6)
        bad = Mask(wire_mask(0.2e-3, 128, 20e-6))
        with pytest.raises(ValidationError, match="element 0"):
            propagate_train(f, CTX, OpticalTrain((bad,)))

    def test_bounded_lens_aperture_clips_power(self):
        f = gaussian_beam(0.4e-3, 128, 20e-6)
        clipped = propagate_train(
            f, CTX, OpticalTrain((ThinLens(0.5, aperture_radius=0.3e-3),))
        )
        assert power(clipped) < power(f)


def _propagate_in_child(f):
    return propagate(f, CTX, 0.5).samples


class TestSplitTransform:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [128, 129, 257])
    def test_equals_the_numpy_transform(self, monkeypatch, n, workers):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        forward, inverse = np.fft.fft2(a), np.fft.ifftn(a, axes=(-2, -1))
        monkeypatch.setattr(propagation, "_SPLIT_MIN_SIZE", 0)
        monkeypatch.setattr(propagation, "_worker_count", lambda: workers)
        if workers > 1:  # the transform must really be split
            for name in ("fft2", "ifftn"):
                monkeypatch.setattr(np.fft, name, None)
        u = a.copy()
        assert propagation._fft2_inplace(u) is u
        assert np.array_equal(u, forward)
        u = a.copy()
        assert propagation._fft2_inplace(u, inverse=True) is u
        assert np.array_equal(u, inverse)

    def test_pool_starts_on_the_first_split_transform(self):
        code = ("import sys, numpy as np, twinbeam\n"
                "from twinbeam import propagation\n"
                "assert 'concurrent.futures' not in sys.modules\n"
                "propagation._fft2_inplace(np.zeros((64, 64), complex))\n"
                "assert 'concurrent.futures' not in sys.modules and propagation._pool is None\n")
        src = str(Path(propagation.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                       env=dict(os.environ, PYTHONPATH=path))

    # Python 3.12+ warns that forking a process that runs threads may deadlock
    # the child: that hazard is what this test checks the program avoids.
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the platform cannot fork")
    def test_forked_child_starts_its_own_pool(self, monkeypatch):
        monkeypatch.setattr(propagation, "_worker_count", lambda: 2)
        f = gaussian_beam(1e-3, 512, 20e-6)
        want = propagate(f, CTX, 0.5).samples  # the parent's pool is running
        assert propagation._pool is not None
        with multiprocessing.get_context("fork").Pool(1) as pool:
            got = pool.apply_async(_propagate_in_child, (f,)).get(timeout=60)
        assert np.array_equal(got, want)


class TestOracle:
    def test_matches_fft_propagator(self):
        f = gaussian_beam(0.2e-3, 64, 60e-6)
        a = propagate(f, CTX, 0.5)
        b = oracle_fresnel_direct(f, CTX, 0.5)
        assert rel_rms(a.samples, b.samples) < 1e-6
        assert rel_rms(b.samples, a.samples) < 1e-6

    def test_zero_distance_unsupported(self):
        f = gaussian_beam(0.2e-3, 64, 60e-6)
        with pytest.raises(ValidationError):
            oracle_fresnel_direct(f, CTX, 0.0)

    def test_large_grid_rejected(self):
        f = gaussian_beam(1e-3, 256, 60e-6)
        with pytest.raises(ValidationError, match="capped"):
            oracle_fresnel_direct(f, CTX, 0.5)

    def test_on_axis_fresnel_zone_closed_form(self):
        # uniform circular aperture of exactly one Fresnel zone: |U| on axis = 2 U0
        lam, z = CTX.wavelength, 0.5
        radius = np.sqrt(lam * z)
        n, pitch = 128, 30e-6
        x = (np.arange(n) - n // 2) * pitch
        xx, yy = np.meshgrid(x, x)
        sub = np.linspace(-0.5 + 1 / 8, 0.5 - 1 / 8, 4) * pitch
        acc = np.zeros((n, n))
        for dx in sub:
            for dy in sub:
                acc += ((xx + dx) ** 2 + (yy + dy) ** 2 <= radius**2)
        aperture = ScalarField((acc / 16.0).astype(complex), pitch)
        out = oracle_fresnel_direct(aperture, CTX, z)
        assert abs(out.samples[n // 2, n // 2]) == pytest.approx(2.0, rel=0.01)


class TestUnitarity:
    def test_band_limited_fields_conserve_power(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            f = random_band_limited_field(rng, n=128, pitch=40e-6, max_distance=3.0)
            p_in = power(f)
            for z in (0.1, 1.7, 3.0):
                assert abs(power(propagate(f, CTX, z)) / p_in - 1.0) < 1e-9
