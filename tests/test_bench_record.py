"""scripts/bench_record.py on two tiny synthetic runs directories."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def bench_record():
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "scripts" / "bench_record.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(workload, threads, walls, scale):
    samples = [
        {
            "wall_s": wall,
            "cpu_s": wall * 1.5,
            "reference_s": 0.6e-3 * scale,
            "ops": [{"name": "sweep", "checks": 7, "s": wall, "ok": True}],
        }
        for wall in walls
    ]
    metrics = {
        m["name"]: {"value": scale * sum(walls), "unit": m["unit"]}
        for m in BENCHMARK["end_to_end"]
    }
    return {
        "workload": workload, "seed": 1, "trace": 0,
        "pita_threads": [threads], "loadavg_before": [0.5, 0.5, 0.5],
        "source_sha256": f"sha-{threads}", "commit": f"c{threads}",
        "nproc": 2, "cpu_model": "test cpu", "python": "3", "numpy": "2",
        "samples": samples,
        "result": {
            "correct": True, "attempted": len(walls), "failed": 0,
            "metrics": metrics,
        },
    }


def _write_runs(directory, threads, walls, scale):
    directory.mkdir()
    for w in BENCHMARK["workloads"]:
        name = w["name"]
        record = _record(name, threads, walls, scale)
        (directory / f"{name}-seed1-trace0-1.json").write_text(
            json.dumps(record)
        )


def test_each_run_keeps_its_threads_and_raw_medians(bench_record, tmp_path):
    _write_runs(tmp_path / "parent", 1, [3.0, 1.0, 2.0], 1.0)
    _write_runs(tmp_path / "change", 2, [1.5, 0.5, 4.0], 1.25)
    out = tmp_path / "BENCH.json"
    assert bench_record.main([
        "--parent", str(tmp_path / "parent"),
        "--change", str(tmp_path / "change"), "--out", str(out),
    ]) == 0
    record = json.loads(out.read_text())
    universe = record["workloads"]["universe-b4"]
    (parent,) = universe["parent"]["runs"]
    (change,) = universe["change"]["runs"]
    assert parent["pita_threads"] == [1]
    assert change["pita_threads"] == [2]
    # medians over the run's samples, not scaled by the meter
    assert (parent["wall_s"], parent["cpu_s"]) == (2.0, 3.0)
    assert (change["wall_s"], change["cpu_s"]) == (1.5, 2.25)
    assert parent["reference_s"] == pytest.approx(0.6e-3)
    assert change["reference_s"] == pytest.approx(0.75e-3)
    # each side's spread of those medians over its runs
    assert universe["change"]["raw"]["wall_s"]["median"] == 1.5
    assert universe["parent"]["raw"]["cpu_s"]["values"] == [3.0]
    # the adjusted metrics sit beside them as before
    assert universe["metrics"]["wall_s"]["parent"]["median"] == 6.0
    assert universe["metrics"]["wall_s"]["change"]["median"] == 7.5
