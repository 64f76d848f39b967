import multiprocessing
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (as_grid, blas_threads, count_inverse_lines, count_transforms,
                      intensity_ncc, masked, random_band_limited_field, rel_rms, run_child,
                      second_moment_radius, traced_peak)
from oracles import (disk_stop, full_grid_transfer, lens_phase, oracle_angular_spectrum_train,
                     oracle_fresnel_direct, radius_squared, resample_scaled)
from twinbeam import (
    AliasingRiskError,
    PhysicsError,
    SamplingError,
    FreeSpace,
    Mask,
    OpticalTrain,
    SeparableField,
    ThinLens,
    TransmissionMask,
    ValidationError,
    WaveContext,
    apply_thin_lens,
    max_safe_distance,
    propagate,
    propagate_train,
    safe_frequency_limit,
    wire_mask,
)
from twinbeam import (biphoton, design_telescope, effective_detector_field, field, load_scenario,
                      propagation, with_free_twin_side, with_telescope)

CTX = WaveContext.from_wavelength(425e-9)


class TestPropagate:
    def test_zero_distance_identity(self):
        f = field.separable_gaussian(0.15e-3, 64, 20e-6)
        out = propagate(f, CTX, 0.0)
        assert np.array_equal(as_grid(out), as_grid(f))

    def test_negative_distance_rejected(self):
        f = field.separable_gaussian(0.15e-3, 64, 20e-6)
        with pytest.raises(ValidationError):
            propagate(f, CTX, -0.1)

    def test_power_conserved_at_one_meter(self):
        f = field.separable_gaussian(0.5e-3, 512, 20e-6)
        out = propagate(f, CTX, 1.0)
        assert abs((np.linalg.norm(as_grid(out)) / np.linalg.norm(as_grid(f))) ** 2 - 1.0) < 1e-9

    @pytest.mark.parametrize("frac", [0.5, 1.0, 2.0])
    def test_gaussian_width_law(self, frac):
        w0 = 0.5e-3
        z_r = np.pi * w0**2 / CTX.wavelength
        f = field.separable_gaussian(w0, 512, 20e-6)
        out = propagate(f, CTX, frac * z_r)
        expected = w0 * np.sqrt(1 + frac**2)
        assert second_moment_radius(as_grid(out), out.pitch) == pytest.approx(expected, rel=5e-3)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(min_value=0.01, max_value=1.0),
           st.floats(min_value=0.01, max_value=1.0))
    def test_semigroup(self, a, b):
        rng = np.random.default_rng(7)
        f = random_band_limited_field(rng, n=64, pitch=40e-6, max_distance=2.5)
        two_step = propagate_train(f, CTX, OpticalTrain((FreeSpace(a), FreeSpace(b))))
        one_step = propagate(f, CTX, a + b)
        assert rel_rms(as_grid(two_step), as_grid(one_step)) < 1e-10

    def test_aliasing_error_names_safe_distance(self):
        # sharp field on a tiny window: spectrum far exceeds the long-haul cone
        f = field.separable_gaussian(60e-6, 64, 20e-6)
        with pytest.raises(AliasingRiskError) as err:
            propagate(f, CTX, 2.0)
        assert err.value.max_safe_distance < 2.0
        assert f"{err.value.max_safe_distance:.4g}" in str(err.value)
        # the reported distance itself must be safe
        propagate(f, CTX, err.value.max_safe_distance * 0.99)

    def test_max_safe_distance_monotone_in_budget(self):
        f = field.separable_gaussian(60e-6, 64, 20e-6)
        loose = max_safe_distance(f, CTX, max_clip_fraction=0.10)
        tight = max_safe_distance(f, CTX, max_clip_fraction=0.01)
        assert tight < loose

    def test_power_non_increasing_when_cone_clips(self):
        # propagate just inside the clip budget: some spectral tail is
        # zeroed, so power must drop, and never grow
        f = field.separable_gaussian(60e-6, 64, 20e-6)
        z = max_safe_distance(f, CTX, max_clip_fraction=0.03)
        out = propagate(f, CTX, 0.999 * z, max_clip_fraction=0.03)
        ratio = (np.linalg.norm(as_grid(out)) / np.linalg.norm(as_grid(f))) ** 2
        assert 0.96 < ratio < 1.0


def _full_grid_propagate(samples, pitch, ctx, distance):
    """Angular-spectrum hop with the transfer built on every FFT-ordered sample."""
    transfer = full_grid_transfer(samples.shape[0], pitch, ctx, distance)
    spectrum = np.fft.fft2(samples)
    return np.fft.ifft2(spectrum * transfer)


def _mask_safe_distance(samples, pitch, ctx, max_clip_fraction=0.05):
    """Bisection on a boolean mask of the clipped samples, as a brute-force oracle."""
    spectrum_sq = np.abs(np.fft.fft2(samples)) ** 2
    window = samples.shape[0] * pitch
    f = np.fft.fftfreq(samples.shape[0], d=pitch)
    fx, fy = f[None, :], f[:, None]
    total = spectrum_sq.sum()

    def frac(z):
        if total == 0.0:
            return 0.0
        f_limit = safe_frequency_limit(window, ctx.wavelength, z)
        outside = (np.abs(fx) > f_limit) | (np.abs(fy) > f_limit)
        return float(spectrum_sq[outside].sum() / total)

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


def _random_factors(n, rank=None):
    """Two random complex factors: 1-D, or (n, rank)."""
    rng = np.random.default_rng(n)
    shape = n if rank is None else (n, rank)
    return tuple(rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2))


def _close(got, want, bound=1e-13):
    assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))


class TestMirroredBuilds:
    """On rank-3 factors, the hop's transfer, taken by ACA on the cone's
    quadrant and mirrored into FFT order, and the lens's 1-D chirp, read on
    the centred axis, agree with the full-grid expressions within 1e-13 of
    the peak."""

    @pytest.mark.parametrize("n", [128, 129])
    @pytest.mark.parametrize("distance", [0.05, 1.5])  # full band; band-limited
    def test_propagate_matches_full_grid_transfer(self, n, distance):
        pitch = 20e-6
        assert (safe_frequency_limit(n * pitch, CTX.wavelength, distance)
                > 0.5 / pitch) == (distance == 0.05)
        a, b = _random_factors(n, rank=3)
        out = propagate(SeparableField(a, b, pitch), CTX, distance, max_clip_fraction=1.0)
        _close(as_grid(out), _full_grid_propagate(a @ b.T, pitch, CTX, distance))

    @pytest.mark.parametrize("n", [128, 129])
    def test_propagate_matches_full_grid_transfer_in_a_narrow_cone(self, n):
        # at 2 m the cone keeps only the first four frequencies of each half
        # axis, so the transfer is evaluated on a 4 x 4 block
        pitch, distance = 20e-6, 2.0
        f_limit = safe_frequency_limit(n * pitch, CTX.wavelength, distance)
        assert np.count_nonzero(np.abs(np.fft.fftfreq(n, d=pitch)[: n // 2 + 1]) <= f_limit) == 4
        a, b = _random_factors(n, rank=3)
        out = propagate(SeparableField(a, b, pitch), CTX, distance, max_clip_fraction=1.0)
        _close(as_grid(out), _full_grid_propagate(a @ b.T, pitch, CTX, distance))

    @pytest.mark.parametrize("n", [128, 129])
    @pytest.mark.parametrize("focal", [0.2, -0.2])
    def test_lens_matches_full_grid_phase(self, n, focal):
        pitch = 20e-6
        a, b = _random_factors(n, rank=3)
        out = apply_thin_lens(SeparableField(a, b, pitch), CTX, focal)
        _close(as_grid(out), (a @ b.T) * lens_phase(n, pitch, CTX, focal), 1e-14)

    @pytest.mark.parametrize("n, pitch, focal", [(128, 20e-6, 0.2), (129, 20e-6, -0.2),
                                                 (1024, 10e-6, 0.1)])
    def test_lens_phase_is_the_radial_chirp_to_rounding(self, n, pitch, focal):
        # outer(p, p) and exp(-i k rho^2 / 2f) differ by the rounding of their
        # phases: each phase carries a relative error of a few eps, so the
        # gap is bounded by 4 eps times the phase, plus 4 eps for the
        # exponentials and the product
        phi = CTX.wavenumber * radius_squared(n, pitch) / (2.0 * abs(focal))
        direct = np.exp(-1j * CTX.wavenumber * radius_squared(n, pitch) / (2.0 * focal))
        gap = np.abs(lens_phase(n, pitch, CTX, focal) - direct)
        eps = np.finfo(float).eps
        assert phi.max() > 100.0
        assert np.all(gap <= 4.0 * eps * (phi + 1.0))

    @pytest.mark.parametrize("n", [128, 129])
    def test_train_matches_out_of_place_chain(self, n):
        # mask -> full-band hop -> lens -> band-limited hop on the factors,
        # against the full-grid formulas chained by hand
        pitch, focal = 20e-6, 0.2
        a, b = _random_factors(n, rank=3)
        transmission = np.random.default_rng(n + 1).uniform(size=n)
        train = OpticalTrain((Mask(TransmissionMask(transmission, pitch)), FreeSpace(0.05),
                              ThinLens(focal), FreeSpace(1.5)))
        out = propagate_train(SeparableField(a, b, pitch), CTX, train, max_clip_fraction=1.0)
        u = (a @ b.T) * transmission
        u = _full_grid_propagate(u, pitch, CTX, 0.05)
        u = u * lens_phase(n, pitch, CTX, focal)
        u = _full_grid_propagate(u, pitch, CTX, 1.5)
        _close(as_grid(out), u)


_WIRE_64 = Mask(wire_mask(0.2e-3, 64, 20e-6))
_CALLS = {
    "propagate": lambda f: propagate(f, CTX, 0.01),
    "lens": lambda f: apply_thin_lens(f, CTX, 0.2),
    "train": lambda f: propagate_train(f, CTX, OpticalTrain(
        (_WIRE_64, FreeSpace(0.01), ThinLens(0.2), FreeSpace(0.01)))),
    # the identities hand back the factors, never the caller's arrays
    "propagate-zero": lambda f: propagate(f, CTX, 0.0),
    "lens-infinite": lambda f: apply_thin_lens(f, CTX, np.inf),
    "mask-only": lambda f: propagate_train(f, CTX, OpticalTrain((_WIRE_64,))),
}
_REFUSED_CALLS = {
    "propagate": lambda f: propagate(f, CTX, 2.0),
    "train": lambda f: propagate_train(f, CTX, OpticalTrain((ThinLens(0.2), FreeSpace(2.0)))),
}


class TestCallerField:
    """A train copies the factors on entry: the caller's are never written
    and the result never shares them."""

    @pytest.mark.parametrize("call", _CALLS.values(), ids=_CALLS.keys())
    def test_result_is_a_new_read_only_field(self, call):
        f = field.separable_gaussian(60e-6, 64, 20e-6)
        before = f.column.tobytes(), f.row.tobytes()
        out = call(f)
        assert (f.column.tobytes(), f.row.tobytes()) == before
        assert not f.column.flags.writeable and not f.row.flags.writeable
        assert isinstance(out, SeparableField) and (out.n, out.pitch) == (f.n, f.pitch)
        assert not out.column.flags.writeable and not out.row.flags.writeable
        for factor in (out.column, out.row):
            assert not np.shares_memory(factor, f.column)
            assert not np.shares_memory(factor, f.row)

    @pytest.mark.parametrize("call", _REFUSED_CALLS.values(), ids=_REFUSED_CALLS.keys())
    def test_refused_hop_leaves_the_field_unchanged(self, call):
        f = field.separable_gaussian(60e-6, 64, 20e-6)
        before = f.column.tobytes(), f.row.tobytes()
        with pytest.raises(AliasingRiskError):
            call(f)
        assert (f.column.tobytes(), f.row.tobytes()) == before
        assert not f.column.flags.writeable and not f.row.flags.writeable


def test_train_holds_one_working_array():
    # from the pump's factors the train holds only its 1-D factors, and
    # returns them: no n x n array, not even the field's samples.  Measured
    # 0.18 of one, most of it the recompression's blocks of column pairs
    n, pitch = 512, 20e-6
    f = field.separable_gaussian(1e-3, n, pitch)
    train = OpticalTrain((Mask(wire_mask(0.2e-3, n, pitch)), FreeSpace(0.005), FreeSpace(0.05),
                          ThinLens(0.15), FreeSpace(0.1)))
    nbytes = n * n * np.dtype(complex).itemsize
    assert traced_peak(lambda: propagate_train(f, CTX, train)) / nbytes < 0.25


class TestSafeDistance:
    """The factors' Gram ring table bisects to the float that a brute-force
    bisection on a boolean mask of the 2-D spectrum's clipped samples finds."""

    def test_ring_table_matches_mask_bisection(self, masked_beam):
        assert max_safe_distance(masked_beam, CTX) == _mask_safe_distance(
            as_grid(masked_beam), masked_beam.pitch, CTX)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=45e-6, max_value=0.2e-3),
           st.floats(min_value=1e-3, max_value=0.2),
           st.sampled_from([64, 65]))
    def test_ring_table_matches_mask_bisection_on_gaussians(self, waist, budget, n):
        f = field.separable_gaussian(waist, n, 20e-6)
        want = _mask_safe_distance(as_grid(f), 20e-6, CTX, budget)
        assert max_safe_distance(f, CTX, budget) == want

    def test_full_cone_hop_builds_no_clip_table(self, monkeypatch):
        # every frequency of the grid lies in the 0.01 m cone, so nothing can
        # be clipped and no ring table is built
        f = field.separable_gaussian(60e-6, 64, 20e-6)
        assert safe_frequency_limit(f.n * f.pitch, CTX.wavelength, 0.01) >= 0.5 / f.pitch

        def fail(*args, **kwargs):
            raise AssertionError("clip table built for a hop that cannot clip")

        for name in ("_clip_curve", "_gram_ring_table"):
            monkeypatch.setattr(propagation, name, fail)
        train = OpticalTrain((FreeSpace(0.005), ThinLens(0.2), FreeSpace(0.01)))
        propagate(f, CTX, 0.01)
        propagate_train(f, CTX, train)

    def test_clipping_hop_within_budget_builds_no_ring_table(self, monkeypatch, masked_beam):
        # the 2 m cone clips the wire's spectrum, by less than the budget: the
        # clip is read off the factors' Gram table, and no 2-D spectrum or
        # ring table is built
        f_limit = safe_frequency_limit(masked_beam.n * masked_beam.pitch, CTX.wavelength, 2.0)
        assert f_limit < 0.5 / masked_beam.pitch

        def fail(*args, **kwargs):
            raise AssertionError("2-D transform in a factor train")

        for name in ("fft2", "ifft2", "fftn", "ifftn"):
            monkeypatch.setattr(np.fft, name, fail)
        pump = field.separable_gaussian(1e-3, 512, 20e-6)
        wire = Mask(wire_mask(0.2e-3, 512, 20e-6))
        propagate_train(pump, CTX, OpticalTrain((wire, FreeSpace(2.0))))
        propagate_train(pump, CTX, OpticalTrain((wire, FreeSpace(2.0), FreeSpace(1.0))))

    def test_refusal_transforms_the_field_once(self, monkeypatch):
        # the hop's forward transform of the factors, which its refusal reuses
        f = field.separable_gaussian(60e-6, 64, 20e-6)
        calls = count_transforms(monkeypatch)
        with pytest.raises(AliasingRiskError) as err:
            propagate(f, CTX, 2.0)
        assert calls == [False]
        assert err.value.max_safe_distance == max_safe_distance(f, CTX)


class TestThinLens:
    def test_infinite_focal_is_identity(self):
        f = field.separable_gaussian(0.15e-3, 64, 20e-6)
        out = apply_thin_lens(f, CTX, np.inf)
        assert np.array_equal(as_grid(out), as_grid(f))

    def test_zero_focal_rejected(self):
        f = field.separable_gaussian(0.15e-3, 64, 20e-6)
        with pytest.raises(ValidationError):
            apply_thin_lens(f, CTX, 0.0)

    def test_power_unchanged(self):
        f = field.separable_gaussian(0.15e-3, 64, 20e-6)
        out = apply_thin_lens(f, CTX, 0.25)
        assert np.linalg.norm(as_grid(out)) == pytest.approx(np.linalg.norm(as_grid(f)), rel=1e-12)

    def test_lens_inverse_pair_is_identity(self):
        f = field.separable_gaussian(0.15e-3, 64, 20e-6)
        out = propagate_train(f, CTX, OpticalTrain((ThinLens(0.2), ThinLens(-0.2))))
        assert np.allclose(as_grid(out), as_grid(f), atol=1e-14)

    def test_collimation_of_point_source(self):
        # source in the front focal plane emerges with flat phase;
        # the spherical wave is produced by the independent quadrature oracle
        n, pitch = 64, 20e-6
        window = n * pitch
        waist = 50e-6
        focal = np.pi * waist * window / (2 * CTX.wavelength)
        src = as_grid(field.separable_gaussian(waist, n, pitch))
        # the quadrature of a rank-1 field is rank 1: its centre column and
        # its centre row, over their common sample, factor it
        at_lens = oracle_fresnel_direct(src, pitch, CTX, focal)
        column, row = at_lens[:, n // 2], at_lens[n // 2] / at_lens[n // 2, n // 2]
        out = as_grid(apply_thin_lens(SeparableField(column, row, pitch), CTX, focal))
        x = field.axis_coords(n, pitch)
        xx, yy = np.meshgrid(x, x)
        central = (np.abs(xx) <= window / 4) & (np.abs(yy) <= window / 4)
        phase = np.angle(out * np.exp(-1j * np.angle(out[n // 2, n // 2])))
        assert np.abs(phase[central]).max() < 0.05

    def test_focal_spot_from_plane_wave(self):
        n = 512
        plane = SeparableField(np.ones(n), np.ones(n), 20e-6)
        focused = propagate_train(plane, CTX, OpticalTrain((ThinLens(0.25), FreeSpace(0.25))))
        intensity = np.abs(as_grid(focused)) ** 2
        assert intensity[n // 2, n // 2] / intensity.mean() >= 100


class TestTrains:
    def test_non_finite_element_output_names_the_element(self):
        n = 64
        f = SeparableField(np.full(n, 1.7e308 * (1 + 1j)), np.ones(n), 20e-6)
        train = OpticalTrain((Mask(wire_mask(0.2e-3, n, 20e-6)), ThinLens(0.2)))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValidationError, match=r"element 1 \(ThinLens.*finite"):
            propagate_train(f, CTX, train)

    @pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf],
                                     [complex(0.0, np.nan)]])
    def test_each_non_finite_sample_names_the_element(self, monkeypatch, bad):
        lens = propagation._Factors.lens

        def spoiling_lens(ws, focal):
            lens(ws, focal)
            ws.a = ws.a.copy()
            ws.a.flat[[5, 40][:len(bad)]] = bad

        monkeypatch.setattr(propagation._Factors, "lens", spoiling_lens)
        f = field.separable_gaussian(0.15e-3, 64, 20e-6)
        train = OpticalTrain((FreeSpace(0.01), ThinLens(0.2), FreeSpace(0.01)))
        with pytest.raises(ValidationError, match=r"element 1 \(ThinLens.*finite"):
            propagate_train(f, CTX, train)

    def test_overflowing_sum_of_finite_samples_passes(self):
        n = 64
        f = SeparableField(np.full(n, 1e308 * (1 + 1j)), np.ones(n), 20e-6)
        grid = as_grid(f)
        with np.errstate(over="ignore"):
            assert not np.isfinite(grid.sum())
        mask = wire_mask(0.2e-3, n, 20e-6)
        out = propagate_train(f, CTX, OpticalTrain((Mask(mask),)))
        assert np.array_equal(as_grid(out), grid * mask.samples)

    def test_empty_train_is_identity(self):
        f = field.separable_gaussian(0.15e-3, 64, 20e-6)
        out = propagate_train(f, CTX, OpticalTrain(()))
        assert np.array_equal(as_grid(out), as_grid(f))

    def test_split_free_space_equals_single_hop(self):
        rng = np.random.default_rng(3)
        f = random_band_limited_field(rng, n=64, pitch=40e-6, max_distance=1.0)
        split = propagate_train(f, CTX, OpticalTrain((FreeSpace(0.3), FreeSpace(0.2))))
        joined = propagate(f, CTX, 0.5)
        assert rel_rms(as_grid(split), as_grid(joined)) < 1e-10

    def test_4f_relay_images_scaled_and_inverted(self):
        f1, f2 = 0.2, 0.1
        n, pitch = 1024, 10e-6
        obj = masked(field.separable_gaussian(0.5e-3, n, pitch), wire_mask(0.2e-3, n, pitch))
        train = OpticalTrain((FreeSpace(f1), ThinLens(f1), FreeSpace(f1 + f2),
                              ThinLens(f2), FreeSpace(f2)))
        img = as_grid(propagate_train(obj, CTX, train))
        ref = resample_scaled(as_grid(obj), pitch, -f2 / f1)
        assert intensity_ncc(np.abs(img) ** 2, np.abs(ref) ** 2) >= 0.99

    def test_element_errors_carry_index(self):
        f = field.separable_gaussian(60e-6, 64, 20e-6)
        train = OpticalTrain((FreeSpace(0.001), FreeSpace(5.0)))
        with pytest.raises(AliasingRiskError, match="element 1"):
            propagate_train(f, CTX, train)

    def test_mask_element_grid_mismatch(self):
        f = field.separable_gaussian(0.15e-3, 64, 20e-6)
        bad = Mask(wire_mask(0.2e-3, 128, 20e-6))
        with pytest.raises(ValidationError, match="element 0"):
            propagate_train(f, CTX, OpticalTrain((bad,)))

    def test_bounded_lens_aperture_clips_power(self):
        # a lens has no stop of its own, and a disk stop has no 1-D profile,
        # so it is no mask: a lens bounded in x is a lens and a slit
        f = field.separable_gaussian(0.4e-3, 128, 20e-6)
        with pytest.raises(TypeError):
            ThinLens(0.5, aperture_radius=0.3e-3)
        with pytest.raises(ValidationError, match="1D profile"):
            TransmissionMask(disk_stop(128, 20e-6, 0.3e-3), 20e-6)
        slit = (np.abs(field.axis_coords(128, 20e-6)) <= 0.3e-3).astype(float)
        bounded = OpticalTrain((ThinLens(0.5), Mask(TransmissionMask(slit, 20e-6))))
        clipped = propagate_train(f, CTX, bounded)
        assert np.linalg.norm(as_grid(clipped)) < np.linalg.norm(as_grid(f))


class TestSpectralDomain:
    """A factor train transforms only where the domain changes: a hop leaves
    the factors as spectra, and the next hop starts from them."""

    @pytest.mark.parametrize("scenario, want", [
        # mask, 0.005 m, 0.25 m, lens, 2.25 m, lens, 0.5 m
        (lambda: load_scenario("fig5"), [False, True, False, True, False, True]),
        # mask, 0.005 m, 0.22 m, lens, 0.45 m
        (lambda: load_scenario("fig4b"), [False, True, False, True]),
        # a free sweep row: mask, 0.005 m, 0.5 m
        (lambda: with_free_twin_side(load_scenario("fig4b"), 0.5), [False, True]),
        # a collimated sweep row: mask, 0.005 m, 0.1 m, lens, 0.9 m, lens, 0.1 m
        (lambda: with_telescope(load_scenario("fig4b"),
                                design_telescope(1.1, -1.0, (0.1, 0.15, 0.25, 0.5))),
         [False, True, False, True, False, True]),
    ], ids=["fig5", "fig4b", "fig4b-free-0.5m", "fig4b-collimated-1.1m"])
    def test_preset_trains_transform_once_per_stretch_of_hops(self, monkeypatch, scenario, want):
        # the pump enters as its 1-D factors, and each stretch of hops
        # transforms them forward once and back once, with no 2-D transform
        scenario = scenario()
        calls = count_transforms(monkeypatch)
        fft2 = []
        monkeypatch.setattr(np.fft, "fft2", lambda *args, **kwargs: fft2.append(1))
        monkeypatch.setattr(np.fft, "ifft2", lambda *args, **kwargs: fft2.append(1))
        effective_detector_field(scenario)
        assert calls == want and fft2 == []

    def test_non_finite_spectrum_names_the_hop(self, monkeypatch):
        # the hop leaves the factors' spectra, checked before the next hop
        # runs on them
        hop = propagation._Factors.hop

        def spoiling_hop(ws, distance, max_clip_fraction):
            hop(ws, distance, max_clip_fraction)
            if distance == 0.01:
                ws.a = np.where(np.arange(ws.n)[:, None] == 0, np.nan, ws.a)

        monkeypatch.setattr(propagation._Factors, "hop", spoiling_hop)
        train = OpticalTrain((FreeSpace(0.01), FreeSpace(0.02), ThinLens(0.2)))
        with pytest.raises(ValidationError, match=r"element 0 \(FreeSpace\(0.01 m\).*finite"):
            propagate_train(field.separable_gaussian(0.15e-3, 64, 20e-6), CTX, train)

    def test_lone_hop_transforms_twice(self, monkeypatch):
        calls = count_transforms(monkeypatch)
        propagate(field.separable_gaussian(60e-6, 64, 20e-6), CTX, 0.01)
        assert calls == [False, True]

    def test_refusal_on_the_second_of_two_hops_matches_hop_by_hop(self, masked_beam):
        # the first hop's cone clips, so the second hop's clip table is built
        # from a clipped spectrum; the clip moves the safe distance from
        # 5.36 m to 6.49 m.  Hop by hop: the 2-D oracle's field after the
        # first hop, bisected by brute force
        pitch = masked_beam.pitch
        assert safe_frequency_limit(masked_beam.n * pitch, CTX.wavelength, 2.0) < 0.5 / pitch
        after = oracle_angular_spectrum_train(as_grid(masked_beam), pitch, CTX, (FreeSpace(2.0),))
        hop_by_hop = _mask_safe_distance(after, pitch, CTX)
        assert hop_by_hop > max_safe_distance(masked_beam, CTX)
        train = OpticalTrain((FreeSpace(2.0), FreeSpace(20.0)))
        with pytest.raises(AliasingRiskError, match=r"^element 1 \(FreeSpace\(20 m\)\)") as err:
            propagate_train(masked_beam, CTX, train)
        assert err.value.max_safe_distance == hop_by_hop


_N, _PITCH, _WAIST = 128, 20e-6, 0.3e-3
_WIRE = Mask(wire_mask(0.2e-3, _N, _PITCH))
_SEPARABLE_TRAINS = {
    "empty": (),
    "mask": (_WIRE,),
    "mask-hops": (_WIRE, FreeSpace(0.005), FreeSpace(0.1)),
    "lens-first": (ThinLens(0.2), FreeSpace(0.05)),
    "hop-then-mask": (FreeSpace(0.05), _WIRE, FreeSpace(0.05)),
}
_PUBLIC_CALLS = {
    "propagate": lambda f: propagate(f, CTX, 0.01),
    "apply_thin_lens": lambda f: apply_thin_lens(f, CTX, 0.2),
    "propagate_train": lambda f: propagate_train(f, CTX, OpticalTrain(())),
    "max_safe_distance": lambda f: max_safe_distance(f, CTX),
}


class TestSeparableInput:
    """Every train starts from a SeparableField, runs on its factors and
    returns them, which agree with the 2-D oracle; a grid of samples is
    refused."""

    @pytest.mark.parametrize("elements", _SEPARABLE_TRAINS.values(),
                             ids=_SEPARABLE_TRAINS.keys())
    def test_equals_the_train_of_the_2d_beam(self, elements):
        train = OpticalTrain(elements)
        pump = field.separable_gaussian(_WAIST, _N, _PITCH)
        want = oracle_angular_spectrum_train(as_grid(pump), _PITCH, CTX, elements)
        got = as_grid(propagate_train(pump, CTX, train))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("call", _PUBLIC_CALLS.values(), ids=_PUBLIC_CALLS.keys())
    def test_scalar_field_is_refused(self, call):
        # the beam's n x n samples, not its factors
        with pytest.raises(ValidationError, match=r"takes a SeparableField .* got a ndarray"):
            call(as_grid(field.separable_gaussian(0.15e-3, 64, 20e-6)))

    def test_never_writes_the_callers_arrays(self):
        column = np.exp(-field.axis_coords(_N, _PITCH) ** 2 / _WAIST**2).astype(complex)
        row = column.copy()
        before = column.tobytes(), row.tobytes()
        fld = SeparableField(column, row, _PITCH)
        assert np.shares_memory(fld.column, column) and not fld.column.flags.writeable
        for elements in _SEPARABLE_TRAINS.values():
            out = propagate_train(fld, CTX, OpticalTrain(elements))
            assert not out.column.flags.writeable and not out.row.flags.writeable
            for factor in (out.column, out.row):
                assert not np.shares_memory(factor, column)
                assert not np.shares_memory(factor, row)
        assert (column.tobytes(), row.tobytes()) == before
        assert column.flags.writeable and row.flags.writeable

    @pytest.mark.parametrize("column, row, pitch, match", [
        (np.full(64, np.nan), np.ones(64), 20e-6, "column factor samples must all be finite"),
        (np.ones(64), np.r_[np.ones(63), np.inf], 20e-6, "row factor samples must all be finite"),
        (np.ones(64), np.ones(65), 20e-6, "one length"),
        (np.ones((64, 2)), np.ones(64), 20e-6, "one rank"),
        (np.ones(8), np.ones(8), 20e-6, "at least 16x16"),
        (np.ones(64), np.ones(64), 0.0, "pitch must be positive"),
    ], ids=["nan-column", "inf-row", "lengths", "2d", "small", "pitch"])
    def test_factors_are_checked(self, column, row, pitch, match):
        with pytest.raises(ValidationError, match=match):
            SeparableField(column, row, pitch)

    @pytest.mark.parametrize("mask", [wire_mask(0.2e-3, 128, 20e-6), wire_mask(0.2e-3, 64, 10e-6)],
                             ids=["size", "pitch"])
    def test_mask_grid_mismatch_names_the_element(self, mask):
        train = OpticalTrain((Mask(mask), FreeSpace(0.01)))
        with pytest.raises(ValidationError, match=r"element 0 \(Mask\).*mask grid does not match"):
            propagate_train(field.separable_gaussian(0.15e-3, 64, 20e-6), CTX, train)

    def test_non_finite_factor_names_the_element(self, monkeypatch):
        mask = propagation._Factors.mask

        def spoiling_mask(ws, transmission):
            mask(ws, transmission)  # the wire multiplied the row factor
            ws.b = np.where(np.arange(ws.n)[:, None] == 5, np.nan, ws.b)

        monkeypatch.setattr(propagation._Factors, "mask", spoiling_mask)
        train = OpticalTrain((_WIRE, FreeSpace(0.01)))
        with pytest.raises(ValidationError, match=r"element 0 \(Mask\).*finite"):
            propagate_train(field.separable_gaussian(_WAIST, _N, _PITCH), CTX, train)

    def test_hop_from_the_factors_refuses_as_from_the_grid(self, masked_beam):
        # the clip check reads the factors' spectra, and refuses at the float
        # that a brute-force bisection of the 2-D spectrum finds
        pump = field.separable_gaussian(1e-3, 512, 20e-6)
        train = OpticalTrain((Mask(wire_mask(0.2e-3, 512, 20e-6)), FreeSpace(20.0)))
        with pytest.raises(AliasingRiskError, match=r"^element 1 \(FreeSpace\(20 m\)\)") as err:
            propagate_train(pump, CTX, train)
        assert err.value.max_safe_distance == _mask_safe_distance(as_grid(masked_beam),
                                                                  masked_beam.pitch, CTX)


def _free_row(distance):
    """A free fig4b sweep row's separable pump, its train and its context."""
    scenario = with_free_twin_side(load_scenario("fig4b"), distance)
    return (biphoton.pump_input_field(scenario), biphoton.unfolded_pump_train(scenario),
            WaveContext.from_wavelength(scenario.pump.wavelength_m))


class TestFactorHeldStretch:
    """From a SeparableField, every stretch of hops is held as the factors'
    spectra: each hop's clip check and refusal read the ring table of the
    factors' folded Gram matrices, and each hop multiplies the factors by
    those of its transfer."""

    @pytest.mark.parametrize("n", [128, 129, 257])
    @pytest.mark.parametrize("cone", [None, 20], ids=["no-cone", "cone-20"])
    def test_ring_table_from_the_factors(self, n, cone):
        # rank-1 factors, as the pump holds them, and factors of rank 3; a
        # spectrum a hop has clipped is zero outside its cone's square
        i = np.arange(n)
        fold = np.minimum(i, n - i)
        cone = n // 2 + 1 if cone is None else cone
        rings = np.maximum(fold[None, :], fold[:, None]).ravel()
        rng = np.random.default_rng(n)
        for rank in (1, 3):
            a, b = (np.where(fold[:, None] < cone, np.fft.fft(
                rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank)), axis=0), 0.0)
                for _ in range(2))
            spectrum = a @ b.T
            want = np.bincount(rings, weights=(np.abs(spectrum) ** 2).ravel(),
                               minlength=n // 2 + 1)
            got = propagation._gram_ring_table(a, b)
            assert got.shape == want.shape and not got[cone:].any()
            assert np.all(np.abs(got - want) <= 1e-13 * want)

    @pytest.mark.parametrize("make", [
        lambda: (field.separable_gaussian(1e-3, 512, 20e-6),
                 OpticalTrain((Mask(wire_mask(0.2e-3, 512, 20e-6)), FreeSpace(2.0),
                               FreeSpace(20.0))), CTX),
        lambda: _free_row(2.0),
        lambda: _free_row(3.0),
    ], ids=["mask-2m-20m", "fig4b-free-2m", "fig4b-free-3m"])
    def test_refuses_as_the_2d_field(self, make):
        # at the float that a brute-force bisection finds on the 2-D oracle's
        # field before the refusing hop
        pump, train, ctx = make()
        with pytest.raises(AliasingRiskError) as held:
            propagate_train(pump, ctx, train)
        index = int(re.match(r"element (\d+) \(FreeSpace", str(held.value)).group(1))
        before = oracle_angular_spectrum_train(as_grid(pump), pump.pitch, ctx,
                                               train.elements[:index])
        want = _mask_safe_distance(before, pump.pitch, ctx)
        assert held.value.max_safe_distance == want
        assert f"max safe distance for this field is {want:.4g} m" in str(held.value)

    def test_refused_row_builds_no_grid(self, monkeypatch):
        # the free 2 m row refuses at its second hop, from the 1-D spectra:
        # the factors are transformed forward and never back
        pump, train, ctx = _free_row(2.0)
        calls = count_transforms(monkeypatch)

        def refuse():
            with pytest.raises(AliasingRiskError, match=r"^element 2 \(FreeSpace\(2 m\)\)"):
                propagate_train(pump, ctx, train)

        peak = traced_peak(refuse)
        assert calls == [False]
        assert peak < 0.05 * pump.n**2 * np.dtype(complex).itemsize

    @pytest.mark.parametrize("n", [128, 129, 1024])
    @pytest.mark.parametrize("distances", [(0.005, 0.1), (0.01, 0.02, 0.3)],
                             ids=["2-hops", "3-hops"])
    def test_stretch_equals_hop_by_hop(self, monkeypatch, n, distances):
        # the 2-D oracle runs the hops one by one, each transformed forward and
        # back; the factors' stretch is transformed once each way
        pitch = 20e-6
        column, row = _random_factors(n)
        train = OpticalTrain((Mask(wire_mask(0.2e-3, n, pitch)),
                              *(FreeSpace(z) for z in distances)))
        want = oracle_angular_spectrum_train(np.multiply.outer(column, row), pitch, CTX,
                                             train.elements)
        calls = count_transforms(monkeypatch)
        got = as_grid(propagate_train(SeparableField(column, row, pitch), CTX, train,
                                      max_clip_fraction=1.0))
        assert calls == [False, True]
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("distances, element", [
        ((1e-6, 20e-6), 0),  # the first hop's cone holds evanescent samples
        ((20e-6, 1e-6), 1),  # the second's
    ], ids=["first-hop", "second-hop"])
    def test_evanescent_cone_is_refused_naming_the_hop(self, distances, element):
        # at a pitch below lambda / sqrt(2) the cone of a short hop reaches
        # evanescent frequencies, where the transfer's zeros make a step of
        # high rank: the factors refuse that hop, naming the pitch
        n, pitch = 128, 0.2e-6
        assert pitch <= CTX.wavelength / np.sqrt(2.0)
        f = propagation._half_freqs(n, pitch)
        cones = [np.searchsorted(f, safe_frequency_limit(n * pitch, CTX.wavelength, z), "right")
                 for z in distances]
        assert [propagation._propagates(CTX.wavenumber, f, m) for m in cones] \
            == [z > 1e-5 for z in distances]
        column, row = _random_factors(n)
        train = OpticalTrain(tuple(FreeSpace(z) for z in distances))
        with pytest.raises(SamplingError, match=rf"^element {element} \(FreeSpace.*pitch 2e-07 m"):
            propagate_train(SeparableField(column, row, pitch), CTX, train,
                            max_clip_fraction=1.0)


_ROW_SETS = {"wrapped": lambda n: [n - 2, n - 1, 0, 1],
             "scattered": lambda n: [n - 5, 3, n // 2, 7, 0]}
_WORKSPACE_STATES = {
    # (the elements, the domain they leave the factors in)
    "factors": (lambda n: (Mask(wire_mask(0.2e-3, n, 20e-6)),), "factors"),
    "held-stretch": (lambda n: (FreeSpace(0.05), FreeSpace(1.5)), "spectra"),
    "lens-after-hop": (lambda n: (FreeSpace(0.05), ThinLens(0.2)), "factors"),
    "hop-after-lens": (lambda n: (ThinLens(0.2), FreeSpace(1.5)), "spectra"),
}


class TestRowRead:
    """A train's end returns its factors in samples, whichever domain they
    are in, and a patch of rows and columns is read from them as
    ``a[rows] @ b[cols].T`` (``biphoton._detector_rows``), equal to those of
    the whole field byte for byte."""

    @pytest.mark.parametrize("n", [128, 129])
    @pytest.mark.parametrize("state", _WORKSPACE_STATES, ids=_WORKSPACE_STATES.keys())
    @pytest.mark.parametrize("rows", _ROW_SETS.values(), ids=_ROW_SETS.keys())
    def test_rows_are_the_field_rows(self, monkeypatch, n, state, rows):
        elements, want = _WORKSPACE_STATES[state]
        fld, rows = SeparableField(*_random_factors(n), 20e-6), rows(n)
        ws = propagation._Factors(fld, CTX)
        for el in elements(n):
            propagation._apply_element(ws, el, max_clip_fraction=1.0)
        assert ("spectra" if ws.spectral else "factors") == want
        out = ws.field()
        assert not ws.spectral
        _close(as_grid(out), oracle_angular_spectrum_train(as_grid(fld), fld.pitch, CTX,
                                                           elements(n)))
        monkeypatch.setattr(biphoton, "effective_detector_field", lambda scenario: out)
        whole = biphoton._detector_rows(None)
        got = biphoton._detector_rows(None, rows)
        assert got.shape == (len(rows), n) and got.tobytes() == whole[rows].tobytes()
        patch = biphoton._detector_rows(None, rows, rows[::-1])
        assert patch.tobytes() == whole[np.ix_(rows, rows[::-1])].tobytes()

    def test_non_finite_rows_name_the_last_element(self, monkeypatch):
        hop = propagation._Factors.hop

        def spoiling_hop(ws, distance, max_clip_fraction):
            hop(ws, distance, max_clip_fraction)
            ws.b = np.where(np.arange(ws.n)[:, None] == 1, np.nan, ws.b)

        monkeypatch.setattr(propagation._Factors, "hop", spoiling_hop)
        train = OpticalTrain((ThinLens(0.2), FreeSpace(0.01)))
        with pytest.raises(ValidationError, match=r"element 1 \(FreeSpace\(0.01 m\)\).*finite"):
            propagate_train(field.separable_gaussian(0.15e-3, 64, 20e-6), CTX, train)


def _propagate_in_child(f):
    out = propagate(f, CTX, 0.5)
    return out.column, out.row


class TestSplitTransform:
    """A factor train replaces the 2-D transform with 1-D transforms of its
    factors' columns, runs in the calling thread and gives the same bytes on
    any number of BLAS threads and in a forked child."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [128, 129, 257])
    def test_equals_the_numpy_transform(self, monkeypatch, n, workers):
        # forward: fft2(a @ b.T) = fft(a) @ fft(b).T.  Inverse, on the full
        # band and on a cone of 20 rings: rows of ifft2 of the factors'
        # spectra, read as a[rows] @ b.T of their inverses.  Both to rounding,
        # with no 2-D transform, and the bytes of one BLAS thread
        rng = np.random.default_rng(n)
        a, b = (rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3)) for _ in range(2))
        forward = np.fft.fft2(a @ b.T)
        fold = np.minimum(np.arange(n), n - np.arange(n))
        rows = [n - 2, n - 1, 0, 1, n // 3, 5]  # wrapped, unordered
        spectra = {m: tuple(np.where(fold[:, None] < m, x, 0.0) for x in (a, b))
                   for m in (n // 2 + 1, 20)}
        inverses = {m: np.fft.ifft2(sa @ sb.T) for m, (sa, sb) in spectra.items()}

        def run():
            state = propagation._Factors(SeparableField(a, b, 20e-6), CTX)
            state._domain(True)
            out = [state.a @ state.b.T]
            for sa, sb in spectra.values():
                state.a, state.b, state.spectral = sa, sb, True
                fld = state.field()
                out.append(np.einsum("jr,ir->ji", fld.column[rows], fld.row, optimize=False))
            return out

        with blas_threads(1):
            want = run()
        for name in ("fft2", "ifft2", "ifftn"):
            monkeypatch.setattr(np.fft, name, None)
        with blas_threads(workers):
            got = run()
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
        assert np.max(np.abs(got[0] - forward)) <= 1e-13 * np.max(np.abs(forward))
        for g, inverse in zip(got[1:], inverses.values()):
            assert np.max(np.abs(g - inverse[rows])) <= 1e-14 * np.max(np.abs(inverse))

    def test_inverse_transforms_the_cone_columns_and_the_rows_asked_for(self, monkeypatch):
        # after a hop, the inverse transforms the 2R columns of the factors it
        # returns and no row; reading rows from them transforms nothing
        n, pitch = 128, 20e-6
        passes = count_inverse_lines(monkeypatch)
        a, b = _random_factors(n)
        train = OpticalTrain((FreeSpace(1.5),))
        full = propagate_train(SeparableField(a, b, pitch), CTX, train, max_clip_fraction=1.0)
        assert len(passes) == 1 and passes[0][0] == "columns"
        rank = passes[0][1] // 2
        assert passes == [("columns", 2 * rank)] and 1 <= rank <= propagation.RANK_CAP
        assert full.column.shape == full.row.shape == (n, rank)
        passes.clear()
        monkeypatch.setattr(biphoton, "effective_detector_field", lambda scenario: full)
        rows = biphoton._detector_rows(None, [n - 1, 4])
        assert passes == []
        assert rows.tobytes() == biphoton._detector_rows(None)[[n - 1, 4]].tobytes()

    def test_train_starts_no_thread(self):
        # a train at 512 x 512 starts no thread of its own and imports no
        # executor
        code = ("import sys, threading, twinbeam\n"
                "from twinbeam import FreeSpace, OpticalTrain, field\n"
                "before = threading.active_count()\n"
                "pump = field.separable_gaussian(1e-3, 512, 20e-6)\n"
                "twinbeam.propagate_train(pump, twinbeam.WaveContext(1.5e7),\n"
                "                         OpticalTrain((FreeSpace(0.5),)))\n"
                "assert 'concurrent.futures' not in sys.modules\n"
                "assert threading.active_count() == before == 1\n")
        run_child(code)

    # Python 3.12+ warns that forking a process that runs threads may deadlock
    # the child: OpenBLAS keeps threads of its own.
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the platform cannot fork")
    def test_forked_child_gives_the_same_bytes(self):
        # a forked child, which inherits OpenBLAS's state but none of its
        # threads, computes the parent's bytes
        f = field.separable_gaussian(1e-3, 512, 20e-6)
        want = _propagate_in_child(f)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            got = pool.apply_async(_propagate_in_child, (f,)).get(timeout=60)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


class TestFactorGuards:
    """The factor path refuses what its factors cannot hold, naming the hop
    and what it refuses."""

    def test_transfer_rank_cap_names_the_hop_and_the_rank(self, monkeypatch):
        # the 5 mm hop's transfer takes 5 ACA terms at n = 256
        monkeypatch.setattr(propagation, "RANK_CAP", 2)
        pump = field.separable_gaussian(0.3e-3, 256, 20e-6)
        train = OpticalTrain((Mask(wire_mask(0.2e-3, 256, 20e-6)), FreeSpace(0.005)))
        with pytest.raises(PhysicsError,
                           match=r"^element 1 \(FreeSpace\(0.005 m\)\): the transfer needs "
                                 r"more than 2 terms at tolerance 1e-13"):
            propagate_train(pump, CTX, train)

    def test_field_rank_cap_names_the_hop_and_the_rank(self, monkeypatch):
        # a rank-3 field times a 3-term transfer (a 10 um hop) recompresses to
        # rank 6, past a cap of 4
        monkeypatch.setattr(propagation, "RANK_CAP", 4)
        rng = np.random.default_rng(5)
        a, b = (rng.normal(size=(256, 3)) + 1j * rng.normal(size=(256, 3)) for _ in range(2))
        train = OpticalTrain((ThinLens(0.2), FreeSpace(1e-5)))
        with pytest.raises(PhysicsError,
                           match=r"^element 1 \(FreeSpace\(1e-05 m\)\): the field's rank "
                                 r"would be 6, past the cap of 4 at tolerance 1e-13"):
            propagate_train(SeparableField(a, b, 20e-6), CTX, train, max_clip_fraction=1.0)
        monkeypatch.setattr(propagation, "RANK_CAP", 6)  # the cap holds it
        out = propagate_train(SeparableField(a, b, 20e-6), CTX, train, max_clip_fraction=1.0)
        want = oracle_angular_spectrum_train(a @ b.T, 20e-6, CTX, train.elements)
        assert np.max(np.abs(as_grid(out) - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="the reference needs a long double wider than float64")
    def test_fine_long_hop_factors_within_the_cap(self):
        # fig5's 0.25 m hop at half the preset pitch: the transfer's phase
        # reaches ~6.2e3 rad at the cone's corner, whose float64 rounding ACA
        # cannot factor; split off the exact rank-1 Fresnel factor, it takes a
        # few terms.  On 64 of the cone's rows, the corner's among them, it
        # matches the exact transfer with its phase in long double within
        # 4 eps of the largest phase: each axis's Fresnel phase z (2 pi f)^2 /
        # 2k takes at most 3.5 eps of relative rounding (pi, 2 pi f, its
        # square, times z, over 2k), the two sum to at most max|z (kz - k)|,
        # and the rest covers the exps, the products and ACA's tolerance
        scenario = load_scenario("fig5")
        n, pitch, z = 2 * scenario.grid.n, scenario.grid.pitch_m / 2, 0.25
        ctx = WaveContext.from_wavelength(scenario.pump.wavelength_m)
        f, m = propagation._cone(n, pitch, ctx.wavelength, z)
        assert (n, m) == (4096, 1973)
        u, v = propagation._transfer_factors(n, f, ctx.wavenumber, m, z)
        assert u.shape[1] <= propagation.RANK_CAP
        fold = propagation._fold(n)
        half = fold[fold < m]
        rows = np.linspace(0, half.size - 1, 65)[:-1].astype(int)
        assert half[rows].max() == m - 1
        pi = np.longdouble("3.14159265358979323846264338327950288")
        k_sq = (2 * pi * f[half].astype(np.longdouble)) ** 2
        kp2 = k_sq[rows, None] + k_sq[None, :]
        k = np.longdouble(ctx.wavenumber)
        phase = -np.longdouble(z) * kp2 / (np.sqrt(k**2 - kp2) + k)
        want = np.cos(phase).astype(float) + 1j * np.sin(phase).astype(float)
        bound = 4 * np.finfo(float).eps * float(np.max(np.abs(phase)))
        assert np.max(np.abs(u[rows] @ v.T - want)) <= bound

    def test_evanescent_corner_names_the_pitch(self):
        # at 0.25 um, below lambda / sqrt(2) = 0.3 um, a 5 um hop's cone
        # holds every frequency, and its corner is evanescent
        pitch, distance = 0.25e-6, 5e-6
        f, m = propagation._cone(128, pitch, CTX.wavelength, distance)
        assert m == f.size and not propagation._propagates(CTX.wavenumber, f, m)
        pump = field.separable_gaussian(2e-6, 128, pitch)
        with pytest.raises(SamplingError, match=r"^pitch 2.5e-07 m is at most lambda / sqrt\(2\) "
                                                r"\(3.005\d*e-07 m\)"):
            propagate(pump, CTX, distance)


class TestOracle:
    def test_matches_fft_propagator(self):
        f = field.separable_gaussian(0.2e-3, 64, 60e-6)
        a = as_grid(propagate(f, CTX, 0.5))
        b = oracle_fresnel_direct(as_grid(f), f.pitch, CTX, 0.5)
        assert rel_rms(a, b) < 1e-6
        assert rel_rms(b, a) < 1e-6

    def test_zero_distance_unsupported(self):
        f = as_grid(field.separable_gaussian(0.2e-3, 64, 60e-6))
        with pytest.raises(ValidationError):
            oracle_fresnel_direct(f, 60e-6, CTX, 0.0)

    def test_large_grid_rejected(self):
        f = as_grid(field.separable_gaussian(1e-3, 256, 60e-6))
        with pytest.raises(ValidationError, match="capped"):
            oracle_fresnel_direct(f, 60e-6, CTX, 0.5)

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
        out = oracle_fresnel_direct((acc / 16.0).astype(complex), pitch, CTX, z)
        assert abs(out[n // 2, n // 2]) == pytest.approx(2.0, rel=0.01)


class TestUnitarity:
    def test_band_limited_fields_conserve_power(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            f = random_band_limited_field(rng, n=128, pitch=40e-6, max_distance=3.0)
            norm_in = np.linalg.norm(as_grid(f))
            for z in (0.1, 1.7, 3.0):
                assert abs((np.linalg.norm(as_grid(propagate(f, CTX, z))) / norm_in) ** 2
                           - 1.0) < 1e-9
