import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from conftest import make_scenario, run_child, traced_peak
from twinbeam import PhysicsError, ValidationError, biphoton, fileio
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


def test_report_names_where_kappa_came_from(fig4a_report, tmp_path):
    # fig4a calibrates on fig4b as loaded; fig4b on its own scan; a given
    # kappa is recorded as given
    out, report = fig4a_report
    fig4b = load_scenario("fig4b")
    want = {"reference": "fig4b", "scenario_digest": scenario_digest(fig4b), "grid_n": 1024}
    assert report.kappa_source == want
    assert json.loads((out / "report.json").read_text())["kappa_source"] == want
    assert run(fig4b, tmp_path / "own").kappa_source == "own scan"
    assert run(fig4b, tmp_path / "given", kappa=2.0).kappa_source == "given"
    uncalibrated = dataclasses.replace(
        make_scenario(waist=0.5e-3, n=256, scan=(-1e-3, 1e-3, 1e-4)),
        calibration=CalibrationSpec())
    assert run(uncalibrated, tmp_path / "none").kappa_source == "none"


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


def test_one_core_run_writes_the_same_artifacts(fig4a_report, tmp_path):
    # a run in a process held to one core, with OpenBLAS on one thread,
    # writes the same artifacts byte for byte as this process
    _, report = fig4a_report
    code = ("import json, os, twinbeam\n"
            "if hasattr(os, 'sched_setaffinity'):\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            f"report = twinbeam.run(twinbeam.load_scenario('fig4a'), {str(tmp_path)!r})\n"
            "print(json.dumps(report.manifest))\n")
    out = run_child(code, OPENBLAS_NUM_THREADS="1")
    assert json.loads(out) == report.manifest


def test_fig5_scan_is_the_same_bytes_on_one_and_two_blas_threads():
    # fig5's profile in two processes, OpenBLAS on one thread and on two
    code = ("import sys, twinbeam\n"
            "profile = twinbeam.scan_detector(twinbeam.load_scenario('fig5'))\n"
            "sys.stdout.buffer.write(profile.rates.tobytes())\n")
    one, two = (run_child(code, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2"))
    assert len(one) == 121 * 8 and one == two


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
    """The trains, in order, that ``biphoton.effective_detector_field``, the
    scans' and runs' one way to the detector field, runs through
    ``propagate_train``."""
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


@pytest.mark.parametrize("preset, maps", [("fig4b", 1), ("fig5", 1)])
def test_a_run_convolves_once_per_scenario(tmp_path, monkeypatch, preset, maps):
    # fig4b calibrates on its own scan, fig5 on fig4b's; each scan convolves
    # the 42 x 342 patch of its two map lines, and the run's map artifacts
    # the 541 x 541 patch of the scan region, from the same read.  K's
    # spectrum is counted once per grid and padded shape, and the cache
    # holds the three of a fig5 run, so a second run counts none
    calls = []
    map_patch = biphoton._map_patch

    def counting_map(patch, *args):
        calls.append(patch.shape)
        return map_patch(patch, *args)

    monkeypatch.setattr(biphoton, "_map_patch", counting_map)
    count = biphoton._overlap_counts
    monkeypatch.setattr(biphoton, "_overlap_counts",
                        lambda *args: calls.append("_overlap_counts") or count(*args))
    biphoton._kernel_spectrum.cache_clear()
    run(load_scenario(preset), tmp_path)
    scans = 1 if preset == "fig4b" else 2
    patches = [c for c in calls if c != "_overlap_counts"]
    assert sorted(patches) == [(42, 342)] * scans + [(541, 541)] * maps
    assert calls.count("_overlap_counts") == scans + maps
    calls.clear()
    run(load_scenario(preset), tmp_path)
    assert "_overlap_counts" not in calls and len(calls) == scans + maps


@pytest.mark.parametrize("preset", ["fig4a", "fig4b", "fig5"])
def test_map_artifacts_are_the_scan_region_crop(tmp_path, preset):
    # both map artifacts and the detector field's image hold the 251 x 251
    # kept samples of the scan region, not the n x n grid
    run(load_scenario(preset), tmp_path, seed=0)
    for name in ("rate_map.pgm", "detector_field.pgm"):
        assert (tmp_path / name).read_bytes().startswith(b"P5\n251 251\n65535\n")
    rows = (tmp_path / "rate_map.csv").read_text().splitlines()
    assert rows[0] == "x_m,y_m,rate_pairs_per_s" and len(rows) == 1 + 251 ** 2


def _y_scan(scenario):
    return dataclasses.replace(scenario, scan=dataclasses.replace(scenario.scan, axis="y"))


@pytest.mark.parametrize("scan", [lambda s: s, _y_scan], ids=["x", "y"])
def test_detector_field_image_is_the_intensity_on_the_crop(tmp_path, scan):
    # detector_field.pgm is |u|^2 on the kept rows and columns of rate_map.csv,
    # normalised to the crop's peak; a y scan's run reads the field's columns
    # and writes the same image, and the same map within 1e-13 of its peak
    scenario = scan(load_scenario("fig4a"))
    run(scenario, tmp_path, seed=0)
    raw = (tmp_path / "detector_field.pgm").read_bytes()
    header = b"P5\n251 251\n65535\n"
    assert raw.startswith(header)
    pixels = np.frombuffer(raw[len(header):], ">u2").reshape(251, 251)
    table = np.loadtxt(tmp_path / "rate_map.csv", delimiter=",", skiprows=1)
    pitch, n = scenario.grid.pitch_m, scenario.grid.n
    keep = np.rint(table[:251, 0] / pitch).astype(int) + n // 2
    assert np.array_equal(np.rint(table[::251, 1] / pitch).astype(int) + n // 2, keep)
    intensity = np.abs(biphoton._detector_rows(scenario)[np.ix_(keep, keep)]) ** 2
    assert np.array_equal(pixels, np.round(intensity / intensity.max() * 65535.0))
    x_scan = run(load_scenario("fig4a"), tmp_path / "x", seed=0)
    assert x_scan.manifest["detector_field.pgm"] == hashlib.sha256(raw).hexdigest()
    x_table = np.loadtxt(tmp_path / "x" / "rate_map.csv", delimiter=",", skiprows=1)
    assert np.array_equal(x_table[:, :2], table[:, :2])
    assert np.max(np.abs(x_table[:, 2] - table[:, 2])) <= 1e-13 * x_table[:, 2].max()


def test_a_run_holds_no_grid(tmp_path):
    # fig5 at n = 2048, with fig4b's calibration at 1024, reads 541 rows of
    # its detector field and peaks below one n x n complex array (64 MiB;
    # measured 14.4 MiB, 42.5 MiB when the run read full-width rows, and
    # 152.5 MiB when it read every row)
    scenario = load_scenario("fig5")
    rows = []
    detector_rows = biphoton._detector_rows

    def counting(scenario, r, c, transposed):
        rows.append(len(r))
        return detector_rows(scenario, r, c, transposed)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(biphoton, "_detector_rows", counting)
        run(scenario, tmp_path / "warm")
    assert rows == [42, 541]
    peak = traced_peak(lambda: run(scenario, tmp_path / "traced"))
    assert peak < scenario.grid.n ** 2 * np.dtype(np.complex128).itemsize


def test_a_y_scan_run_holds_no_grid(tmp_path):
    # a y scan's run reads the columns it reaches as rows of the transpose:
    # at n = 1024 it peaks below one n x n complex array (16 MiB; measured
    # 12.5 MiB, most of it the map's CSV text, and 38.3 MiB when the run
    # read every row)
    scenario = _y_scan(make_scenario(n=1024, aperture=1e-4, waist=0.5e-3,
                                     scan=(-1e-3, 1e-3, 1e-4)))
    run(scenario, tmp_path / "warm")
    peak = traced_peak(lambda: run(scenario, tmp_path / "traced"))
    assert peak < scenario.grid.n ** 2 * np.dtype(np.complex128).itemsize


def test_a_run_reads_one_patch_per_train(tmp_path, monkeypatch):
    # no read of a train is wider than its patch: a fig5 run reads one
    # 541 x 541 patch of its field, after 42 x 342 for fig4b's calibration
    # scan, and a fig4b scan reads the same 42 x 342
    from twinbeam import scan_detector

    shapes = []
    detector_rows = biphoton._detector_rows

    def recording(scenario, rows, cols, transposed):
        out = detector_rows(scenario, rows, cols, transposed)
        shapes.append((scenario.name, out.shape))
        return out

    monkeypatch.setattr(biphoton, "_detector_rows", recording)
    run(load_scenario("fig5"), tmp_path)
    assert shapes == [("fig4b", (42, 342)), ("fig5", (541, 541))]
    shapes.clear()
    scan_detector(load_scenario("fig4b"))
    assert shapes == [("fig4b", (42, 342))]


@pytest.mark.parametrize("scan", [lambda s: s, _y_scan], ids=["x", "y"])
def test_run_profile_is_the_scan_profile(tmp_path, scan):
    # a run's profile is read from the scan's own patch within the run's
    # read, so it equals scan_detector's byte for byte, also for a y scan
    from twinbeam import scan_detector

    for preset in ("fig4a", "fig4b"):
        scenario = scan(load_scenario(preset))
        report = run(scenario, tmp_path / preset)
        profile = scan_detector(scenario, kappa=report.kappa)
        assert report.profile.coordinates.tobytes() == profile.coordinates.tobytes()
        assert report.profile.rates.tobytes() == profile.rates.tobytes()


@pytest.mark.parametrize("kappa", [0.0, -1.0, np.nan])
def test_run_kappa_must_be_positive_and_finite(tmp_path, train_calls, kappa):
    with pytest.raises(ValidationError, match="kappa must be positive and finite"):
        run(_small_scenario(), tmp_path, kappa=kappa)
    assert train_calls == [] and not any(tmp_path.iterdir())  # refused before the train


def test_kappa_scales_what_is_read_from_the_map(tmp_path):
    one = run(_small_scenario(), tmp_path / "one", kappa=1.0)
    seven = run(_small_scenario(), tmp_path / "seven", kappa=7.0)
    assert np.allclose(seven.profile.rates, 7.0 * one.profile.rates, rtol=1e-12, atol=0.0)
    maps = [np.loadtxt(tmp_path / d / "rate_map.csv", delimiter=",", skiprows=1)[:, 2]
            for d in ("one", "seven")]
    assert maps[0].max() > 0 and np.allclose(maps[1], 7.0 * maps[0], rtol=1e-12, atol=0.0)
    # the PGMs are normalised to their own peak
    for name in ("rate_map.pgm", "detector_field.pgm"):
        assert seven.manifest[name] == one.manifest[name]


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
