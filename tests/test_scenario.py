import dataclasses
import json

import numpy as np
import pytest

from twinbeam import ValidationError, feature_width, compare_profiles, contrast
from twinbeam.scenario import (
    PRESET_NAMES,
    LensElement,
    emit_scenario,
    load_scenario,
    parse_scenario,
    preset_text,
    telescope_scenario_fragment,
    with_free_twin_side,
    with_telescope,
)
from twinbeam import design_telescope


MINIMAL = {
    "name": "minimal",
    "pump": {"wavelength_m": 425e-9, "waist_m": 0.001},
    "detectors": {"distance_from_crystal_m": 0.7},
}


class TestParsing:
    def test_minimal_document(self):
        sc = parse_scenario(json.dumps(MINIMAL))
        assert sc.name == "minimal"
        assert sc.mask.type == "none"
        assert sc.twin_wavelengths.signal_m == pytest.approx(2 * 425e-9)

    def test_empty_document_lists_required_keys(self):
        with pytest.raises(ValidationError) as err:
            parse_scenario("{}")
        msg = str(err.value)
        assert "'name' is a required property" in msg
        assert "'pump' is a required property" in msg
        assert "'detectors' is a required property" in msg

    def test_unknown_key_rejected_with_path(self):
        doc = dict(MINIMAL, pump={"wavelength_m": 425e-9, "waist_m": 1e-3, "color": "blue"})
        with pytest.raises(ValidationError, match="pump"):
            parse_scenario(json.dumps(doc))

    def test_unit_suffix_omission_rejected(self):
        doc = dict(MINIMAL, pump={"wavelength": 425e-9, "waist_m": 1e-3})
        with pytest.raises(ValidationError, match="wavelength"):
            parse_scenario(json.dumps(doc))

    def test_negative_distance_names_key(self):
        doc = dict(MINIMAL, detectors={"distance_from_crystal_m": -0.7})
        with pytest.raises(ValidationError, match="distance_from_crystal_m"):
            parse_scenario(json.dumps(doc))

    def test_not_json_rejected(self):
        with pytest.raises(ValidationError, match="not valid JSON"):
            parse_scenario("pump: 425nm")

    def test_lens_beyond_leg_rejected(self):
        doc = dict(MINIMAL)
        doc["mask"] = {"type": "wire", "width_m": 2e-4, "distance_to_crystal_m": 0.1}
        doc["pump_side_elements"] = [{"focal_m": 0.1, "distance_from_mask_m": 0.5}]
        with pytest.raises(ValidationError, match="exceeds"):
            parse_scenario(json.dumps(doc))

    def test_unordered_pump_lenses_rejected_when_built(self):
        doc = dict(MINIMAL)
        doc["mask"] = {"type": "wire", "width_m": 2e-4, "distance_to_crystal_m": 0.5}
        doc["pump_side_elements"] = [{"focal_m": 0.1, "distance_from_mask_m": 0.3},
                                     {"focal_m": 0.1, "distance_from_mask_m": 0.1}]
        with pytest.raises(ValidationError, match="pump_side_elements.*ordered"):
            parse_scenario(json.dumps(doc))
        sc = load_scenario("fig4a")
        unordered = (LensElement(0.25, 0.3), LensElement(0.25, 0.1))
        with pytest.raises(ValidationError, match="pump_side_elements.*ordered"):
            dataclasses.replace(sc, pump_side_elements=unordered)

    def test_unordered_twin_lenses_rejected_when_built(self):
        doc = dict(MINIMAL)
        doc["twin_side_elements"] = [{"focal_m": 0.1, "distance_from_crystal_m": 0.4},
                                     {"focal_m": 0.1, "distance_from_crystal_m": 0.2}]
        with pytest.raises(ValidationError, match="twin_side_elements.*ordered"):
            parse_scenario(json.dumps(doc))
        sc = load_scenario("fig5")
        with pytest.raises(ValidationError, match="twin_side_elements.*ordered"):
            dataclasses.replace(sc, twin_side_elements=sc.twin_side_elements[::-1])

    @pytest.mark.parametrize("bad", [{"start_m": 1e-3, "stop_m": -1e-3},
                                     {"start_m": 1e-3, "stop_m": 1e-3},
                                     {"step_m": 0.0},
                                     {"step_m": -5e-5}])
    def test_bad_scan_block_rejected_when_built(self, bad):
        with pytest.raises(ValidationError, match=r"scan\.(stop|step)_m"):
            parse_scenario(json.dumps(dict(MINIMAL, scan=bad)))
        sc = load_scenario("fig4b")
        with pytest.raises(ValidationError, match=r"scan\.(stop|step)_m"):
            dataclasses.replace(sc, scan=dataclasses.replace(sc.scan, **bad))


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_parse(self, name):
        sc = load_scenario(name)
        assert sc.name == name
        assert sc.pump.wavelength_m == pytest.approx(425e-9)
        assert sc.assumptions  # every non-published parameter is flagged

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_round_trip(self, name):
        sc = load_scenario(name)
        again = parse_scenario(emit_scenario(sc))
        assert again == sc

    def test_fig4a_has_pump_lens_and_070_plane(self):
        sc = load_scenario("fig4a")
        assert len(sc.pump_side_elements) == 1
        assert not sc.twin_side_elements
        assert sc.detectors.distance_from_crystal_m == pytest.approx(0.70)

    def test_fig4b_has_twin_lens_and_no_pump_lens(self):
        sc = load_scenario("fig4b")
        assert not sc.pump_side_elements
        assert len(sc.twin_side_elements) == 1
        assert sc.calibration.pairs_per_s == 1000.0

    def test_fig5_detector_at_three_meters(self):
        sc = load_scenario("fig5")
        assert sc.detectors.distance_from_crystal_m == pytest.approx(3.0)
        assert len(sc.twin_side_elements) == 2

    def test_unknown_preset(self):
        with pytest.raises(ValidationError):
            preset_text("fig9")

    def test_missing_file(self):
        with pytest.raises(ValidationError, match="neither a preset"):
            load_scenario("/nonexistent/path.json")


class TestDerivedScenarios:
    def test_with_free_twin_side(self):
        sc = load_scenario("fig4b")
        free = with_free_twin_side(sc, 2.5, 4e-4)
        assert free.twin_side_elements == ()
        assert free.detectors.distance_from_crystal_m == 2.5
        assert free.detectors.signal.aperture_radius_m == 4e-4

    def test_with_telescope_installs_plan(self):
        sc = load_scenario("fig4b")
        plan = design_telescope(3.0, -2.0, [0.1, 0.15, 0.25, 0.5])
        derived = with_telescope(sc, plan)
        assert len(derived.twin_side_elements) == 2
        assert derived.detectors.distance_from_crystal_m == 3.0

    def test_plan_fragment_merges_into_scenario(self):
        plan = design_telescope(3.0, -2.0, [0.1, 0.15, 0.25, 0.5])
        fragment = telescope_scenario_fragment(plan)
        doc = json.loads(preset_text("fig4b"))
        doc["twin_side_elements"] = fragment["twin_side_elements"]
        doc["detectors"]["distance_from_crystal_m"] = (
            fragment["detectors"]["distance_from_crystal_m"])
        sc = parse_scenario(json.dumps(doc))
        assert sc.detectors.distance_from_crystal_m == 3.0


class TestCompareProfiles:
    def test_self_comparison(self):
        x = np.linspace(-1, 1, 101)
        r = 1.0 - 0.8 * np.exp(-(x / 0.1) ** 2)
        res = compare_profiles(x, r, x, r)
        assert res["ncc"] == pytest.approx(1.0)
        assert res["width_ratio"] == pytest.approx(1.0)

    def test_flipped_copy_gives_minus_one(self):
        x = np.linspace(-1, 1, 101)
        r = 1.0 - 0.8 * np.exp(-(x / 0.1) ** 2)
        flipped = r.max() + r.min() - r  # stays non-negative, negates after mean removal
        res = compare_profiles(x, r, x, flipped)
        assert res["ncc"] == pytest.approx(-1.0)

    def test_no_overlap_rejected(self):
        x = np.linspace(0, 1, 11)
        with pytest.raises(ValidationError, match="overlap"):
            compare_profiles(x, np.ones(11), x + 5.0, np.ones(11))

    def test_flat_profile_rejected(self):
        x = np.linspace(0, 1, 11)
        with pytest.raises(ValidationError, match="flat"):
            compare_profiles(x, np.ones(11), x, np.ones(11))

    def test_resampling_handles_different_grids(self):
        x1 = np.linspace(-1, 1, 201)
        x2 = np.linspace(-1.2, 1.2, 97)
        r1 = 1.0 - 0.8 * np.exp(-(x1 / 0.2) ** 2)
        r2 = 1.0 - 0.8 * np.exp(-(x2 / 0.2) ** 2)
        res = compare_profiles(x1, r1, x2, r2)
        assert res["ncc"] > 0.999
        assert res["width_ratio"] == pytest.approx(1.0, abs=0.01)


class TestFeatureWidth:
    def test_dip_width_half_contrast(self):
        x = np.linspace(-1, 1, 2001)
        r = 1.0 - np.where(np.abs(x) < 0.2, 1.0, 0.0)
        assert feature_width(x, r) == pytest.approx(0.4, abs=2e-3)

    def test_peak_profile(self):
        x = np.linspace(-1, 1, 2001)
        r = np.exp(-(x / 0.3) ** 2)
        # FWHM of exp(-(x/w)^2) is 2 w sqrt(ln 2)
        assert feature_width(x, r) == pytest.approx(2 * 0.3 * np.sqrt(np.log(2)), rel=1e-2)

    def test_dip_in_bell_prefers_dip(self):
        x = np.linspace(-1, 1, 2001)
        bell = np.exp(-(x / 0.5) ** 2)
        dip = np.where(np.abs(x) < 0.05, 0.0, 1.0)
        width = feature_width(x, bell * dip)
        assert width == pytest.approx(0.1, abs=5e-3)

    def test_unbracketed_feature_rejected(self):
        x = np.linspace(0, 1, 101)
        r = np.exp(-x)  # monotone: no interior feature
        with pytest.raises(ValidationError):
            feature_width(x, r)

    def test_contrast(self):
        assert contrast(np.array([1.0, 3.0])) == pytest.approx(0.5)
        assert contrast(np.zeros(3)) == 0.0
