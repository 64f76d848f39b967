import json

import numpy as np
import pytest

from conftest import make_scenario
from twinbeam import ValidationError, fileio
from twinbeam.biphoton import nondegenerate_distance_scale
from twinbeam.runner import resolve_kappa, run, scenario_digest
from twinbeam.scenario import load_scenario


@pytest.fixture(scope="module")
def fig4a_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig4a")
    return out, run(load_scenario("fig4a"), out)


def test_kappa_inherited_from_reference(fig4a_report):
    _, report = fig4a_report
    kappa_ref = resolve_kappa(load_scenario("fig4b"))
    assert report.kappa == pytest.approx(kappa_ref, rel=1e-12)


def test_reference_peak_calibrates_to_configured_rate(tmp_path):
    report = run(load_scenario("fig4b"), tmp_path)
    assert report.metrics["peak_rate_pairs_per_s"] == pytest.approx(1000.0, rel=1e-9)


def test_assumed_parameters_flagged_in_report(fig4a_report):
    out, report = fig4a_report
    doc = json.loads((out / "report.json").read_text())
    assert "pump.waist_m" in doc["assumed_parameters"]
    assert "mask.width_m" in doc["assumed_parameters"]


def test_metrics_recomputable_from_emitted_csv(fig4a_report):
    out, report = fig4a_report
    x, rates = fileio.read_profile_csv(out / "profile.csv")
    assert rates.max() == pytest.approx(report.metrics["peak_rate_pairs_per_s"], rel=1e-12)
    from twinbeam import contrast, feature_width

    assert contrast(rates) == pytest.approx(report.metrics["contrast"], rel=1e-12)
    assert feature_width(x, rates) == pytest.approx(
        report.metrics["feature_width_m"], rel=1e-9)


def test_digest_stable_under_round_trip(fig4a_report):
    _, report = fig4a_report
    from twinbeam.scenario import emit_scenario, parse_scenario

    again = parse_scenario(emit_scenario(load_scenario("fig4a")))
    assert scenario_digest(again) == report.scenario_digest


def test_seed_override_changes_counts_only(tmp_path):
    scenario = load_scenario("fig4b")
    a = run(scenario, tmp_path / "a", kappa=1.0, seed=5)
    b = run(scenario, tmp_path / "b", kappa=1.0, seed=6)
    assert np.array_equal(a.profile.rates, b.profile.rates)
    assert not np.array_equal(a.counted.counts, b.counted.counts)


def test_nondegenerate_distance_scales():
    scenario = load_scenario("fig4b")
    # 850 nm degenerate twins against the 890/800 nm stored pair
    assert nondegenerate_distance_scale(scenario, "signal") == pytest.approx(850 / 890, rel=1e-12)
    assert nondegenerate_distance_scale(scenario, "idler") == pytest.approx(850 / 800, rel=1e-12)
    # the probe barely moves the profile: degenerate approximation is mild
    from twinbeam import scan_detector

    base = scan_detector(scenario, kappa=1.0)
    probed = scan_detector(scenario, kappa=1.0,
                           twin_distance_scale=nondegenerate_distance_scale(scenario, "signal"))
    from twinbeam import compare_profiles

    res = compare_profiles(base.coordinates, base.rates, probed.coordinates, probed.rates)
    assert res["ncc"] > 0.98


def test_run_propagates_the_train_once(tmp_path, monkeypatch):
    from twinbeam import biphoton

    calls = []

    def counting_train(*args, **kwargs):
        calls.append(args[2])
        return propagate_train(*args, **kwargs)

    propagate_train = biphoton.propagate_train
    monkeypatch.setattr(biphoton, "propagate_train", counting_train)
    scenario = make_scenario(waist=0.5e-3, n=256, aperture=1e-4, scan=(-1e-3, 1e-3, 1e-4))
    report = run(scenario, tmp_path, kappa=1.0)
    assert len(calls) == 1
    assert "rate_map.csv" in report.manifest


def _write_chain(tmp_path, names, last_calibration):
    """Scenario files in which each one's calibration references the next."""
    paths = [tmp_path / f"{name}.json" for name in names]
    for i, path in enumerate(paths):
        calibration = ({"reference": str(paths[i + 1])} if i + 1 < len(paths)
                       else last_calibration)
        path.write_text(json.dumps({
            "name": names[i],
            "pump": {"wavelength_m": 425e-9, "waist_m": 0.5e-3},
            "grid": {"n": 128, "pitch_m": 40e-6},
            "detectors": {"distance_from_crystal_m": 0.3},
            "scan": {"start_m": -1e-3, "stop_m": 1e-3, "step_m": 5e-5},
            "calibration": calibration,
        }))
    return paths


def test_kappa_follows_a_three_hop_reference_chain(tmp_path):
    a, _, _, d = _write_chain(tmp_path, "abcd", {"pairs_per_s": 500.0})
    kappa_d = resolve_kappa(load_scenario(d))
    assert kappa_d != 1.0
    assert resolve_kappa(load_scenario(a)) == kappa_d


def test_kappa_reference_cycle_rejected(tmp_path):
    a, b = _write_chain(tmp_path, "ab", {"reference": str(tmp_path / "a.json")})
    with pytest.raises(ValidationError, match="cycle"):
        resolve_kappa(load_scenario(a))
