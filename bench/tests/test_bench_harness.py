"""Tests of the benchmark harness itself: tiny runs of every workload pass
their oracles and produce every named metric, a perturbed result is
counted as failed, and a traced run leaves no library function patched."""

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench import run, tracer, worker, workloads  # noqa: E402

# jobs per pass in the tiny runs: enough for one job of every kind
LIMITS = {"tables": 4, "verify": 1, "extend": 1, "inverse": 1}


def tiny(name, tmp_path, trace=False):
    return worker.measure(name, 7, 0, trace, spawned_at=time.monotonic(),
                          limit=LIMITS[name], workdir=str(tmp_path))


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_passes_oracles_and_reports_every_metric(name, tmp_path):
    result = tiny(name, tmp_path)
    assert result["failed"] == 0, result["notes"]
    assert result["attempted"] >= LIMITS[name]
    metrics = run.end_to_end([result])
    assert set(metrics) == {key for key, _ in run.END_TO_END}
    assert all(math.isfinite(v) and v > 0 for v in metrics.values()), metrics


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_reaches_mapped_layers_and_restores(name, tmp_path):
    result = tiny(name, tmp_path, trace=True)
    tracer.assert_restored()
    assert result["failed"] == 0, result["notes"]
    assert result["missing_calls"] == []
    layers = run.per_layer([result])
    for key, unit in run.PER_LAYER:
        value, got_unit = layers[key]
        assert got_unit == unit and value > 0, key


def test_tracer_patches_every_binding_and_restores():
    from abeltrace import geometry, radon, reconstruct, residues

    originals = (residues.solve_fiber, radon.evaluate_chart, geometry.poly_roots,
                 reconstruct.trace_table, residues.TraceTable.value)
    t = tracer.Tracer()
    t.install()
    try:
        patched = (residues.solve_fiber, radon.evaluate_chart, geometry.poly_roots,
                   reconstruct.trace_table, residues.TraceTable.value)
        assert all(hasattr(fn, "_bench_span") for fn in patched)
        assert geometry.solve_fiber is residues.solve_fiber
    finally:
        t.uninstall()
    tracer.assert_restored()
    assert (residues.solve_fiber, radon.evaluate_chart, geometry.poly_roots,
            reconstruct.trace_table, residues.TraceTable.value) == originals


def test_perturbed_trace_fails_its_oracle(tmp_path):
    job = workloads.make_pass("tables", 3, 0, str(tmp_path))[0]
    table = job.run()
    assert job.check(table).ok
    table.entries[(3,)][5] *= 1 + 1e-6
    verdict = job.check(table)
    assert not verdict.ok
    assert verdict.digits < -math.log10(workloads.TOL_TRACE)


def test_perturbed_result_counts_as_failed(tmp_path, monkeypatch):
    original = workloads.residues.trace_table

    def perturbed(*args, **kwargs):
        table = original(*args, **kwargs)
        table.entries[(1,)][0] *= 1 + 1e-6
        return table

    monkeypatch.setattr(workloads.residues, "trace_table", perturbed)
    result = worker.measure("tables", 7, 0, False, limit=1, workdir=str(tmp_path))
    assert result["failed"] == result["attempted"] >= 1


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_result_line_with_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "inverse",
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={**os.environ, "PYTHONPATH": ""},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
