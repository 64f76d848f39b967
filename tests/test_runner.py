import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from conftest import make_scenario
from twinbeam import PhysicsError, ValidationError, fileio, propagation
from twinbeam.runner import resolve_kappa, run, scenario_digest
from twinbeam.scenario import CalibrationSpec, emit_scenario, load_scenario, parse_scenario


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
    again = parse_scenario(emit_scenario(load_scenario("fig4a")))
    assert scenario_digest(again) == report.scenario_digest


def test_one_core_run_writes_the_same_artifacts(fig4a_report, tmp_path, monkeypatch):
    # every 2-D transform of the run is split across the cores, or not split
    # at all on one, and the artifacts are the same byte for byte
    monkeypatch.setattr(propagation, "_worker_count", lambda: 1)
    _, report = fig4a_report
    assert run(load_scenario("fig4a"), tmp_path).manifest == report.manifest


def test_seed_override_changes_counts_only(tmp_path):
    scenario = load_scenario("fig4b")
    a = run(scenario, tmp_path / "a", kappa=1.0, seed=5)
    b = run(scenario, tmp_path / "b", kappa=1.0, seed=6)
    assert np.array_equal(a.profile.rates, b.profile.rates)
    assert not np.array_equal(a.counted.counts, b.counted.counts)


def test_nondegenerate_distance_scales():
    scenario = load_scenario("fig4b")
    k_half = np.pi / scenario.pump.wavelength_m
    scale = 2 * np.pi / scenario.twin_wavelengths.signal_m / k_half
    # 850 nm degenerate twins against the 890 nm stored signal
    assert scale == pytest.approx(850 / 890, rel=1e-12)
    # twin legs rescaled by k_s / (k_p / 2) barely move the profile: the
    # degenerate approximation is mild
    lenses = tuple(dataclasses.replace(lens, position_m=lens.position_m * scale)
                   for lens in scenario.twin_side_elements)
    detectors = dataclasses.replace(
        scenario.detectors,
        distance_from_crystal_m=scenario.detectors.distance_from_crystal_m * scale)
    scaled = dataclasses.replace(scenario, twin_side_elements=lenses, detectors=detectors)
    from twinbeam import compare_profiles, scan_detector

    base = scan_detector(scenario, kappa=1.0)
    probed = scan_detector(scaled, kappa=1.0)

    res = compare_profiles(base.coordinates, base.rates, probed.coordinates, probed.rates)
    assert res["ncc"] > 0.98


@pytest.fixture
def train_calls(monkeypatch):
    """The trains ``biphoton.propagate_train`` is called with, in order."""
    from twinbeam import biphoton

    calls = []
    propagate_train = biphoton.propagate_train

    def counting_train(*args, **kwargs):
        calls.append(args[2])
        return propagate_train(*args, **kwargs)

    monkeypatch.setattr(biphoton, "propagate_train", counting_train)
    return calls


def test_run_propagates_the_train_once(tmp_path, train_calls):
    scenario = make_scenario(waist=0.5e-3, n=256, aperture=1e-4, scan=(-1e-3, 1e-3, 1e-4))
    report = run(scenario, tmp_path, kappa=1.0)
    assert len(train_calls) == 1
    assert "rate_map.csv" in report.manifest


def test_self_calibrating_run_propagates_the_train_once(tmp_path, train_calls):
    # fig4b is its own calibration reference: the run takes kappa from its
    # own detector field, with the value resolve_kappa computes
    scenario = load_scenario("fig4b")
    kappa = resolve_kappa(scenario)
    train_calls.clear()
    report = run(scenario, tmp_path)
    assert len(train_calls) == 1
    assert report.kappa == kappa


def test_self_calibrating_run_rejects_a_zero_peak(tmp_path):
    # a wire as wide as the window blocks the whole pump
    scenario = make_scenario(waist=0.5e-3, wire=256 * 20e-6, n=256, scan=(-1e-3, 1e-3, 1e-4))
    scenario = dataclasses.replace(scenario, calibration=CalibrationSpec(pairs_per_s=1000.0))
    with pytest.raises(PhysicsError, match="raw peak rate is zero"):
        run(scenario, tmp_path)
    with pytest.raises(PhysicsError, match="raw peak rate is zero"):
        resolve_kappa(scenario)


def _write_scenario(path, calibration):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "name": path.stem,
        "pump": {"wavelength_m": 425e-9, "waist_m": 0.5e-3},
        "grid": {"n": 128, "pitch_m": 40e-6},
        "detectors": {"distance_from_crystal_m": 0.3},
        "scan": {"start_m": -1e-3, "stop_m": 1e-3, "step_m": 5e-5},
        "calibration": calibration,
    }))
    return path


def _write_chain(tmp_path, names, last_calibration):
    """Scenario files in which each one's calibration references the next."""
    paths = [tmp_path / f"{name}.json" for name in names]
    for i, path in enumerate(paths):
        _write_scenario(path, {"reference": str(paths[i + 1])} if i + 1 < len(paths)
                        else last_calibration)
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


def test_relative_reference_resolves_beside_the_naming_file(tmp_path, monkeypatch):
    _write_scenario(tmp_path / "refdir" / "a.json", {"reference": "b.json"})
    b = _write_scenario(tmp_path / "refdir" / "b.json", {"pairs_per_s": 500.0})
    monkeypatch.chdir(tmp_path)
    kappa_b = resolve_kappa(load_scenario(b))
    assert kappa_b != 1.0
    assert resolve_kappa(load_scenario("refdir/a.json")) == kappa_b


def test_relative_references_resolve_at_every_hop(tmp_path, monkeypatch):
    a = _write_scenario(tmp_path / "x" / "a.json", {"reference": "../y/b.json"})
    _write_scenario(tmp_path / "y" / "b.json", {"reference": "z/c.json"})
    c = _write_scenario(tmp_path / "y" / "z" / "c.json", {"pairs_per_s": 500.0})
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert resolve_kappa(load_scenario(os.path.relpath(a))) == resolve_kappa(load_scenario(c))


def test_source_directory_stays_out_of_the_document(tmp_path):
    a = _write_scenario(tmp_path / "a.json", {"reference": "fig4b"})
    loaded = load_scenario(a)
    assert loaded.source_dir == str(tmp_path.resolve())
    again = parse_scenario(emit_scenario(loaded))
    assert again.source_dir is None
    assert again == loaded
    assert scenario_digest(again) == scenario_digest(loaded)


def _small_scenario():
    return make_scenario(waist=0.5e-3, n=256, aperture=1e-4, scan=(-1e-3, 1e-3, 1e-4))


def test_manifest_hashes_match_files_on_disk(tmp_path):
    report = run(_small_scenario(), tmp_path, kappa=1.0)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*report.manifest, "report.json"])
    for name, digest in report.manifest.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
    assert json.loads((tmp_path / "report.json").read_text())["artifacts"] == report.manifest


@pytest.mark.parametrize("failing", ["encoder", "rename"])
def test_failed_fourth_artifact_leaves_no_report_and_no_temporary(tmp_path, monkeypatch,
                                                                  failing):
    if failing == "encoder":
        def intensity_to_pgm(*args):
            raise RuntimeError("encoder failed")

        monkeypatch.setattr(fileio, "intensity_to_pgm", intensity_to_pgm)
    else:
        renames = []
        replace = os.replace

        def failing_replace(src, dst):
            renames.append(dst)
            if len(renames) == 4:
                raise RuntimeError("rename failed")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(RuntimeError, match="failed"):
        run(_small_scenario(), tmp_path, kappa=1.0)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["counts.csv", "profile.csv",
                                                           "scenario.json"]
