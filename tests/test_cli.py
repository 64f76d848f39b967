import dataclasses
import json

import numpy as np
import pytest

from twinbeam import fileio, scan_detector
from twinbeam.cli import main
from twinbeam.runner import resolve_kappa, run
from twinbeam.scenario import load_scenario


@pytest.fixture(scope="module")
def fast_scenario_path(tmp_path_factory):
    # small free-propagation layout so CLI tests stay quick
    doc = {
        "name": "cli-fast",
        "pump": {"wavelength_m": 425e-9, "waist_m": 0.0005},
        "grid": {"n": 256, "pitch_m": 2e-5},
        "mask": {"type": "wire", "width_m": 2e-4, "distance_to_crystal_m": 0.01},
        "detectors": {
            "distance_from_crystal_m": 0.4,
            "signal": {"aperture_radius_m": 0.0},
            "idler": {"aperture_radius_m": 0.0},
        },
        "scan": {"moving": "signal", "axis": "x",
                 "start_m": -1e-3, "stop_m": 1e-3, "step_m": 5e-5},
        "counting": {"acquisition_time_s": 1.0, "seed": 9},
        "calibration": {"pairs_per_s": 500.0},
    }
    path = tmp_path_factory.mktemp("cli") / "fast.json"
    path.write_text(json.dumps(doc))
    return path


def test_run_writes_artifacts_and_report(fast_scenario_path, tmp_path, capsys):
    code = main(["run", str(fast_scenario_path), "--out-dir", str(tmp_path)])
    assert code == 0
    out_dir = tmp_path / "cli-fast"
    for name in ("scenario.json", "profile.csv", "counts.csv",
                 "detector_field.pgm", "rate_map.pgm", "rate_map.csv", "report.json"):
        assert (out_dir / name).exists(), name
    report = json.loads((out_dir / "report.json").read_text())
    assert report["metrics"]["peak_rate_pairs_per_s"] == pytest.approx(500.0)
    assert "profile.csv" in report["artifacts"]


def test_run_is_byte_deterministic(fast_scenario_path, tmp_path):
    scenario = load_scenario(fast_scenario_path)
    rep1 = run(scenario, tmp_path / "a")
    rep2 = run(scenario, tmp_path / "b")
    assert rep1.manifest == rep2.manifest
    for name in rep1.manifest:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_scan_subcommand(fast_scenario_path, tmp_path, capsys):
    code = main(["scan", str(fast_scenario_path), "--out-dir", str(tmp_path),
                 "--kappa", "1.0"])
    assert code == 0
    x, r = fileio.read_profile_csv(tmp_path / "cli-fast_scan.csv")
    assert x.size == 41
    assert np.all(r >= 0)


def test_scan_flags_replace_the_scan_block(fast_scenario_path, tmp_path):
    code = main(["scan", str(fast_scenario_path), "--out-dir", str(tmp_path),
                 "--axis", "y", "--moving", "idler"])
    assert code == 0
    loaded = load_scenario(fast_scenario_path)
    kappa = resolve_kappa(loaded)  # calibrated on the scan as loaded
    moved = dataclasses.replace(
        loaded, scan=dataclasses.replace(loaded.scan, axis="y", moving="idler"))
    expected = scan_detector(moved, kappa=kappa)
    x, r = fileio.read_profile_csv(tmp_path / "cli-fast_scan.csv")
    assert np.array_equal(x, expected.coordinates)
    assert np.array_equal(r, expected.rates)
    # the y scan runs along the wire, so it misses the dip of the loaded x scan
    assert not np.allclose(r, scan_detector(loaded, kappa=kappa).rates)


def test_grid_override(fast_scenario_path, tmp_path):
    code = main(["scan", str(fast_scenario_path), "--out-dir", str(tmp_path),
                 "--kappa", "1.0", "--grid-n", "128", "--pitch-um", "40"])
    assert code == 0


def test_schema_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["run", str(bad), "--out-dir", str(tmp_path)]) == 2
    assert "required" in capsys.readouterr().err


# One twin-side train serves both arms: the schema has no per-arm form.
_PER_ARM = {"signal": [{"focal_m": 0.1, "distance_from_crystal_m": 0.2}],
            "idler": [{"focal_m": 0.1, "distance_from_crystal_m": 0.2}]}


@pytest.mark.parametrize("argv, message", [
    (["scan", "fig4a", "--grid-n", "0"], "grid.n"),
    (["scan", "fig4a", "--pitch-um", "0"], "grid.pitch_m"),
    (["sweep", "fig4b", "--free", "--distances", "1,abc"], "--distances"),
    (["design-telescope", "--total", "3.0", "--catalog", "0.1,x"], "--catalog"),
    (["compare", "{tmp}/missing.csv", "{tmp}/missing.csv"], "missing.csv"),
    (["scan", "{per_arm}"], "twin_side_elements"),
    (["run", "{fast}", "--kappa", "0"], "kappa"),
    (["run", "{fast}", "--kappa", "-1"], "kappa"),
    (["scan", "{fast}", "--kappa", "nan"], "kappa"),
    (["sweep", "{fast}", "--free", "--distances", "0.3", "--kappa", "-1"], "kappa"),
], ids=["grid-n-0", "pitch-um-0", "distances", "catalog", "compare-missing",
        "per-arm-twin-sides", "run-kappa-0", "run-kappa-negative", "scan-kappa-nan",
        "sweep-kappa-negative"])
def test_bad_input_exits_2_with_one_error_line(argv, message, fast_scenario_path, tmp_path,
                                               capsys):
    per_arm = tmp_path / "per_arm.json"
    doc = json.loads(fast_scenario_path.read_text())
    per_arm.write_text(json.dumps(dict(doc, twin_side_elements=_PER_ARM)))
    out = tmp_path / "out"
    argv = [a.format(tmp=tmp_path, fast=fast_scenario_path, per_arm=per_arm) for a in argv]
    if argv[0] in ("run", "scan", "sweep"):
        argv += ["--out-dir", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert message in err
    assert not out.exists()


def test_infeasible_design_exit_code(capsys):
    assert main(["design-telescope", "--total", "0.5", "--magnification", "-1",
                 "--catalog", "10.0"]) == 3
    assert "closest candidate" in capsys.readouterr().err


def test_design_telescope_emits_fragment(tmp_path, capsys):
    out = tmp_path / "plan.json"
    code = main(["design-telescope", "--total", "3.0", "--magnification", "-2",
                 "--catalog", "0.1,0.15,0.25,0.5", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["predicted_magnification"] == pytest.approx(-2.0)
    assert len(doc["twin_side_elements"]) == 2


def test_compare_subcommand(tmp_path, capsys):
    x = np.linspace(-1e-3, 1e-3, 81)
    r = 1.0 - 0.9 * np.exp(-(x / 2e-4) ** 2)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text(fileio.profile_to_csv(x, r))
    b.write_text(fileio.profile_to_csv(x, r * 2.0))
    assert main(["compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "ncc: 1.000000" in out
    assert "width_ratio: 1.000000" in out


def test_sweep_subcommand(fast_scenario_path, tmp_path):
    code = main(["sweep", str(fast_scenario_path), "--free",
                 "--distances", "0.3,0.6", "--out-dir", str(tmp_path),
                 "--kappa", "1.0"])
    assert code == 0
    path = tmp_path / "cli-fast_sweep_free.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "Z_m,peak_rate,snr,collimated_flag"
    assert len(lines) == 3
    assert lines[1].endswith(",0")


def test_out_dir_env_var(fast_scenario_path, tmp_path, monkeypatch):
    monkeypatch.setenv("TWINBEAM_OUT_DIR", str(tmp_path / "envout"))
    assert main(["scan", str(fast_scenario_path), "--kappa", "1.0"]) == 0
    assert (tmp_path / "envout" / "cli-fast_scan.csv").exists()


def test_out_of_window_scan_exit_code(tmp_path, fast_scenario_path):
    doc = json.loads(fast_scenario_path.read_text())
    doc["scan"]["start_m"] = -0.1
    doc["scan"]["stop_m"] = 0.1
    doc["scan"]["step_m"] = 0.01
    bad = tmp_path / "oow.json"
    bad.write_text(json.dumps(doc))
    assert main(["scan", str(bad), "--out-dir", str(tmp_path), "--kappa", "1.0"]) == 3
