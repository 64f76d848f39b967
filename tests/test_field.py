import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_grid
from oracles import radius_squared, resample_scaled
from twinbeam import (
    Mask,
    OpticalTrain,
    OutOfWindowError,
    SamplingError,
    SeparableField,
    TransmissionMask,
    ValidationError,
    WaveContext,
    propagate_train,
    wire_mask,
)
from twinbeam import biphoton, field, max_safe_distance, propagation
from twinbeam.field import _bilinear_cells, _bilinear_gather, separable_gaussian

CTX = WaveContext.from_wavelength(425e-9)


class TestWaveContext:
    def test_wavelength_wavenumber_consistency(self):
        ctx = WaveContext.from_wavelength(425e-9)
        assert ctx.wavelength * ctx.wavenumber == pytest.approx(2 * np.pi, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            WaveContext(-1.0)
        with pytest.raises(ValidationError):
            WaveContext.from_wavelength(0.0)


class TestGaussianBeam:
    def test_peak_is_one_at_center(self):
        f = as_grid(separable_gaussian(1e-3, 512, 20e-6))
        assert f[256, 256] == 1.0 + 0.0j

    def test_amplitude_at_waist_radius(self):
        f = as_grid(separable_gaussian(1e-3, 512, 20e-6))
        # rho = waist = 50 pitches along x
        assert abs(f[256, 256 + 50]) == pytest.approx(np.e**-1, rel=1e-12)

    def test_power_matches_analytic_integral(self):
        # closed form: integral of exp(-2 rho^2/w^2) = pi w^2 / 2
        waist, pitch = 1e-3, 20e-6
        f = as_grid(separable_gaussian(waist, 512, pitch))
        assert np.sum(np.abs(f) ** 2) * pitch**2 == pytest.approx(np.pi / 2 * waist**2, rel=1e-3)

    def test_radial_symmetry(self):
        s = as_grid(separable_gaussian(0.7e-3, 128, 40e-6))
        n = 128
        for i, j in [(10, 40), (3, 50), (60, 21)]:
            assert s[n // 2 + i, n // 2 + j] == s[n // 2 + j, n // 2 + i]
            assert s[n // 2 + i, n // 2 + j] == s[n // 2 - i, n // 2 - j]

    @pytest.mark.parametrize("n", [128, 129])
    @pytest.mark.parametrize("waist", [0.3e-3, 0.41e-3])
    def test_mirrored_quadrant_matches_full_grid(self, n, waist):
        # the product of the beam's two equal 1-D factors is within 4 ulp of
        # the unit peak of the 2-D exponential (measured half an ulp;
        # relative to each sample the tails differ by up to 48 ulp, the
        # rounding of the exponent rho^2 / waist^2)
        pitch = 20e-6
        factors = separable_gaussian(waist, n, pitch)
        assert factors.column.tobytes() == factors.row.tobytes()
        beam = as_grid(factors)
        ref = np.exp(-radius_squared(n, pitch) / waist**2)
        assert np.max(np.abs(beam - ref)) <= 4 * np.spacing(1.0)

    def test_underresolved_waist_rejected(self):
        with pytest.raises(SamplingError):
            separable_gaussian(30e-6, 64, 20e-6)

    def test_guard_band_violation_names_required_n(self):
        with pytest.raises(SamplingError, match="need N >"):
            separable_gaussian(1e-3, 128, 20e-6)

    @pytest.mark.parametrize("args, message", [
        ((30e-6, 64, 20e-6), "waist 3e-05 m must exceed 2 pitches (4e-05 m)"),
        ((1e-3, 128, 20e-6),
         "window 0.00256 m too small for waist 0.001 m; need N > 301 at pitch 2e-05 m"),
    ], ids=["waist", "window"])
    def test_refusal_names_the_limit(self, args, message):
        with pytest.raises(SamplingError, match=re.escape(message) + "$"):
            separable_gaussian(*args)


class TestWireMask:
    def test_exact_zero_column_count(self):
        m = wire_mask(0.2e-3, 512, 20e-6)
        assert m.samples.shape == (512,) and np.sum(m.samples == 0.0) == 10

    def test_full_width_blocks_everything(self):
        m = wire_mask(512 * 20e-6, 512, 20e-6)
        assert np.all(m.samples == 0.0)

    def test_power_loss_fraction(self):
        n, pitch, width = 512, 20e-6, 0.2e-3
        uniform = SeparableField(np.ones(n), np.ones(n), pitch)
        wire = OpticalTrain((Mask(wire_mask(width, n, pitch)),))
        masked = as_grid(propagate_train(uniform, CTX, wire))
        loss = 1.0 - np.sum(np.abs(masked) ** 2) / n**2
        assert loss == pytest.approx(width / (n * pitch), abs=pitch / (n * pitch))

    def test_idempotent(self):
        wire = Mask(wire_mask(0.2e-3, 128, 20e-6))
        f = separable_gaussian(0.3e-3, 128, 20e-6)
        once = propagate_train(f, CTX, OpticalTrain((wire,)))
        twice = propagate_train(f, CTX, OpticalTrain((wire, wire)))
        assert np.array_equal(as_grid(once), as_grid(twice))

    def test_too_narrow_rejected(self):
        with pytest.raises(SamplingError):
            wire_mask(30e-6, 128, 20e-6)

    def test_values_outside_unit_interval_rejected(self):
        with pytest.raises(ValidationError):
            TransmissionMask(np.full(16, 1.5), 1e-5)

    @pytest.mark.parametrize("bad, message", [(np.nan, "finite"), (np.inf, "finite"),
                                              (-0.25, r"\[0, 1\]"), (1.5, r"\[0, 1\]")])
    def test_outside_input_is_checked_at_every_sample(self, bad, message):
        for index in (0, 5, 15):
            profile = np.ones(16)
            profile[index] = bad
            with pytest.raises(ValidationError, match=message):
                TransmissionMask(profile, 1e-5)

    @pytest.mark.parametrize("shape", [(16, 16), (16, 1), (1, 16), (), (0,), (8,)])
    def test_anything_but_a_profile_is_refused(self, shape):
        # a mask multiplies every row by one profile: a 2-D mask, such as a
        # lens stop, has no such form
        with pytest.raises(ValidationError, match=r"mask must be the 1D profile .* got shape"):
            TransmissionMask(np.ones(shape), 1e-5)

    def test_checked_on_its_profile(self, monkeypatch):
        checked = []
        all_finite = field._all_finite
        monkeypatch.setattr(field, "_all_finite",
                            lambda a: checked.append(a.shape) or all_finite(a))
        m = wire_mask(0.2e-3, 512, 20e-6)
        assert checked == [(512,)]
        assert m.samples.shape == (512,) and not m.samples.flags.writeable

    def test_applies_its_profile_to_every_row(self):
        # a mask element multiplies the row factor, so every row of the samples
        m = wire_mask(0.2e-3, 128, 20e-6)
        f = separable_gaussian(0.3e-3, 128, 20e-6)
        out = propagate_train(f, CTX, OpticalTrain((Mask(m),)))
        assert np.array_equal(out.row[:, 0], f.row[:, 0] * m.samples)
        assert np.array_equal(as_grid(out), as_grid(f) * m.samples[None, :])
        with pytest.raises(ValidationError, match="mask grid does not match"):
            propagate_train(separable_gaussian(0.3e-3, 129, 20e-6), CTX, OpticalTrain((Mask(m),)))

    def test_leaves_the_callers_array_writable(self):
        samples = np.ones(16)
        m = TransmissionMask(samples, 1e-5)
        samples[0] = 0.0
        assert not m.samples.flags.writeable and np.shares_memory(m.samples, samples)


class TestPower:
    """A field's power, as the library reads it: the ring table of its
    spectrum, from the factors (``propagation._gram_ring_table``), which the
    clip check sums.  By Parseval the table sums to n^2 times the power of
    the samples over the pixel area."""

    def test_zero_field(self):
        zero = SeparableField(np.zeros(16), np.zeros(16), 1e-5)
        assert not propagation._gram_ring_table(zero.column, zero.row).any()
        # no power, so nothing to clip at any distance
        assert max_safe_distance(zero, CTX) == float("inf")

    def test_single_unit_sample(self):
        n = 16
        column, row = np.eye(n)[3], np.eye(n)[4]
        table = propagation._gram_ring_table(*(np.fft.fft(x)[:, None] for x in (column, row)))
        assert table.sum() == pytest.approx(n**2, rel=1e-15)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=-np.pi, max_value=np.pi))
    def test_invariant_under_global_phase(self, phase):
        f = separable_gaussian(0.15e-3, 64, 20e-6)
        a, b = (np.fft.fft(x, axis=0) for x in (f.column, f.row))
        rotated = propagation._gram_ring_table(a * np.exp(1j * phase), b)
        assert np.allclose(rotated, propagation._gram_ring_table(a, b), rtol=1e-12, atol=0.0)


class TestScalarFieldValidation:
    """The scalar field, held as its factors, is checked when it is made."""

    def test_rejects_small_grid(self):
        with pytest.raises(ValidationError, match="at least 16x16"):
            SeparableField(np.ones(8), np.ones(8), 1e-5)

    def test_rejects_non_square(self):
        # factors of two lengths would make an n x m grid
        with pytest.raises(ValidationError, match="one length"):
            SeparableField(np.ones(16), np.ones(32), 1e-5)

    def test_rejects_nonfinite(self):
        column = np.ones(16, complex)
        column[0] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            SeparableField(column, np.ones(16), 1e-5)

    def test_rejects_bad_pitch(self):
        with pytest.raises(ValidationError, match="pitch"):
            SeparableField(np.ones(16), np.ones(16), 0.0)

    def test_samples_frozen(self):
        f = separable_gaussian(0.15e-3, 64, 20e-6)
        for factor in (f.column, f.row):
            with pytest.raises(ValueError):
                factor[0, 0] = 5.0

    def test_leaves_the_callers_array_writable(self):
        column = np.ones(16, complex)
        f = SeparableField(column, np.ones(16), 1e-5)
        column[0] = 0.0
        assert not f.column.flags.writeable and np.shares_memory(f.column, column)


class TestBilinearSample:
    """The scan's bilinear read: the cells of the points
    (``_bilinear_cells``), then the gather from them (``_bilinear_gather``)."""

    def test_exact_at_sample_points(self):
        intensity = np.abs(as_grid(separable_gaussian(0.15e-3, 64, 20e-6))) ** 2
        cells = _bilinear_cells(64, 20e-6, 0.0, 0.0)
        assert _bilinear_gather(intensity, *cells) == intensity[32, 32]

    def test_midpoint_average(self):
        vals = np.zeros((16, 16))
        vals[8, 8] = 1.0
        vals[8, 9] = 3.0
        cells = _bilinear_cells(16, 1e-5, 0.5e-5, 0.0)
        assert _bilinear_gather(vals, *cells) == pytest.approx(2.0)

    def test_out_of_window_raises(self):
        with pytest.raises(OutOfWindowError):
            _bilinear_cells(16, 1e-5, 1.0, 0.0)
        # one point of an array call outside the window fails the whole call
        with pytest.raises(OutOfWindowError):
            _bilinear_cells(16, 1e-5, np.array([0.0, 2e-5, 1.0]), 0.0)

    @pytest.mark.parametrize("n", [128, 129])
    def test_one_cell_rule(self, n):
        # the lower corner of the cell, shared with the scan's line read: on
        # a node, between two nodes, in the last cell, and on the last node,
        # which is read from the last cell
        pitch = 20e-6
        last = n - 1 - n // 2
        x = np.array([3.0, -2.3, last - 0.5, last]) * pitch
        i0, j0, tx, ty = _bilinear_cells(n, pitch, x, 0.0)
        assert i0.tolist() == [n // 2 + 3, n // 2 - 3, n - 2, n - 2]
        assert j0.tolist() == [n // 2] * 4 and tx[-1] == 1.0 and not ty.any()
        assert biphoton._bilinear_cells is field._bilinear_cells
        assert biphoton._bilinear_gather is field._bilinear_gather
        ramp = np.broadcast_to(np.arange(n, dtype=np.float64), (n, n))
        assert _bilinear_gather(ramp, i0, j0, tx, ty) == pytest.approx(x / pitch + n // 2,
                                                                        rel=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=-3e-4, max_value=3e-4),
           st.floats(min_value=-3e-4, max_value=3e-4))
    def test_interpolation_bounded_by_neighbors(self, x, y):
        pitch = 20e-6
        intensity = np.abs(as_grid(separable_gaussian(0.15e-3, 64, pitch))) ** 2
        value = _bilinear_gather(intensity, *_bilinear_cells(64, pitch, x, y))
        i = int(np.floor(x / pitch)) + 32
        j = int(np.floor(y / pitch)) + 32
        cell = intensity[j:j + 2, i:i + 2]
        assert cell.min() - 1e-15 <= value <= cell.max() + 1e-15
        # an array call returns, bit for bit, the scalar call at every point
        xs, ys = np.array([x, 0.0, -x, y]), np.array([y, y, 0.0, x])
        batch = _bilinear_gather(intensity, *_bilinear_cells(64, pitch, xs, ys))
        one_by_one = [_bilinear_gather(intensity, *_bilinear_cells(64, pitch, a, b))
                      for a, b in zip(xs, ys)]
        assert batch.tobytes() == np.array(one_by_one).tobytes()


class TestCircularMaskAndResample:
    def test_resample_unit_magnification_is_identity_inside(self):
        f = as_grid(separable_gaussian(0.15e-3, 64, 20e-6))
        assert np.allclose(resample_scaled(f, 20e-6, 1.0), f)

    def test_resample_inversion(self):
        shifted = np.roll(as_grid(separable_gaussian(0.15e-3, 64, 20e-6)), 5, axis=1)
        r = resample_scaled(shifted, 20e-6, -1.0)
        # peak moves from +5 pitches to -5 pitches
        j = np.argmax(np.abs(r[32, :]))
        assert j == 32 - 5
