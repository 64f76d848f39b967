import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinbeam import (
    InfeasibleDesignError,
    ValidationError,
    check_collimation,
    check_imaging,
    compose,
    design_telescope,
)
from twinbeam.paraxial import RayMatrix, TelescopePlan


class TestRayMatrix:
    def test_free_space_addition(self):
        m = compose([RayMatrix.free(0.3), RayMatrix.free(0.7)])
        assert m == RayMatrix.free(1.0)

    def test_identity_list(self):
        assert compose([RayMatrix.identity()]) == RayMatrix.identity()

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            compose([])

    def test_2f_2f_imaging(self):
        f = 0.15
        m = compose([RayMatrix.free(2 * f), RayMatrix.lens(f), RayMatrix.free(2 * f)])
        is_image, mag = check_imaging(m)
        assert is_image
        assert mag == pytest.approx(-1.0, abs=1e-12)

    def test_determinant_guard(self):
        with pytest.raises(ValidationError):
            RayMatrix(1.0, 1.0, 1.0, 1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["free", "lens"]),
                              st.floats(min_value=0.05, max_value=2.0)),
                    min_size=1, max_size=6))
    def test_composition_preserves_determinant(self, elements):
        ms = [RayMatrix.free(v) if kind == "free" else RayMatrix.lens(v)
              for kind, v in elements]
        m = compose(ms)
        assert abs(m.a * m.d - m.b * m.c - 1.0) <= 1e-12


class TestImagingAndCollimation:
    def test_free_space_alone_not_imaging(self):
        is_image, mag = check_imaging(RayMatrix.free(0.5))
        assert not is_image
        assert np.isnan(mag)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.05, max_value=1.0),
           st.floats(min_value=0.05, max_value=1.0))
    def test_lens_equation_gives_imaging(self, o_dist, i_dist):
        focal = o_dist * i_dist / (o_dist + i_dist)
        m = compose([RayMatrix.free(o_dist), RayMatrix.lens(focal), RayMatrix.free(i_dist)])
        is_image, mag = check_imaging(m)
        assert is_image
        assert mag == pytest.approx(-i_dist / o_dist, rel=1e-9)

    def test_crystal_in_focal_plane_collimates(self):
        f = 0.25
        assert check_collimation(compose([RayMatrix.free(f), RayMatrix.lens(f)]))

    def test_half_focal_distance_does_not_collimate(self):
        f = 0.25
        assert not check_collimation(compose([RayMatrix.free(f / 2), RayMatrix.lens(f)]))

    def test_identity_not_collimating(self):
        assert not check_collimation(RayMatrix.identity())


class TestDesignTelescope:
    def test_canonical_4f_relay(self):
        plan = design_telescope(0.6, -1.0, [0.15])
        assert plan.focal_lengths == (0.15, 0.15, 0.15, 0.15)
        assert plan.station_positions[0] == pytest.approx(0.15)
        assert plan.total_distance - plan.station_positions[1] == pytest.approx(0.15)
        assert plan.magnification == pytest.approx(-1.0)

    def test_three_meter_catalog_plan_verified_independently(self):
        plan = design_telescope(3.0, -1.0, [0.1, 0.15, 0.25, 0.5])
        system = compose(plan.matrices())
        is_image, mag = check_imaging(system)
        assert is_image and abs(system.b) < 1e-6
        assert abs(mag - (-1.0)) / 1.0 < 0.02
        assert check_collimation(plan.long_leg_matrix())

    def test_magnification_target_respected(self):
        plan = design_telescope(3.0, -2.0, [0.1, 0.15, 0.25, 0.5])
        assert plan.first_focal == pytest.approx(0.25)
        assert plan.second_focal == pytest.approx(0.5)
        assert plan.magnification == pytest.approx(-2.0)

    def test_infeasible_reports_closest(self):
        with pytest.raises(InfeasibleDesignError) as err:
            design_telescope(0.5, -1.0, [10.0])
        assert err.value.closest is not None
        assert "closest candidate" in str(err.value)

    def test_unreachable_magnification_infeasible(self):
        with pytest.raises(InfeasibleDesignError):
            design_telescope(3.0, -3.0, [0.1, 0.5])

    def test_target_out_of_contract_rejected(self):
        with pytest.raises(ValidationError):
            design_telescope(3.0, -20.0, [0.1])

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValidationError):
            design_telescope(3.0, -1.0, [])

    def test_tie_break_prefers_smallest_first_focal(self):
        # both (0.1, 0.1) and (0.5, 0.5) give magnification -1
        plan = design_telescope(3.0, -1.0, [0.5, 0.1])
        assert plan.first_focal == pytest.approx(0.1)

    def test_station_order_invariant(self):
        with pytest.raises(ValidationError):
            TelescopePlan((0.1, 0.1, 0.1, 0.1), (0.5, 0.2), 1.0, -1.0)
