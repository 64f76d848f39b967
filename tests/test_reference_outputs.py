"""The benchmark's reference outputs, checked by the benchmark's own rule.

``benchmarks/worker.py`` runs every benchmark operation and compares it with
``benchmarks/refs.json``: profile rates within 1e-12 of the reference peak,
equal Poisson counts, metrics within 1e-12 relative, and refused sweep rows
refused with the recorded safe distance.  These tests call that same check
on a fig5 run at counting seed 0 and on each of the seven fig4b sweep rows,
so a drift the benchmark would refuse fails the test suite first.  The file
is read, never written.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import twinbeam


def _load_worker():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "worker.py"
    spec = importlib.util.spec_from_file_location("benchmark_worker", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKER = _load_worker()


@pytest.fixture(scope="module")
def refs():
    return json.loads(WORKER.REFS.read_text())


@pytest.fixture(scope="module")
def fig4b():
    scenario = twinbeam.load_scenario("fig4b")
    return scenario, twinbeam.resolve_kappa(scenario)


def test_fig5_run(refs, tmp_path):
    ctx = (twinbeam, twinbeam.load_scenario("fig5"), None, refs)
    record = WORKER.execute(ctx, ("run", "fig5", 0), 0, tmp_path)
    assert record["problems"] == []


@pytest.mark.parametrize("kind, z", WORKER.SWEEP_ROWS,
                         ids=[WORKER.row_key(*row) for row in WORKER.SWEEP_ROWS])
def test_fig4b_sweep_row(refs, fig4b, tmp_path, kind, z):
    scenario, kappa = fig4b
    record = WORKER.execute((twinbeam, scenario, kappa, refs), ("sweep", kind, z), 0, tmp_path)
    assert record["problems"] == []
    assert ("refused" in record) == refs["sweep_rows"][WORKER.row_key(kind, z)]["refused"]
