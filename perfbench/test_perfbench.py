"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from poissonmesh import bench as suite_module
from poissonmesh import evaluate as ev
from poissonmesh import geometry

from perfbench import harness, metrics, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent
SMALL_K = 200


def _small(name: str, seed: int) -> workloads.Workload:
    """The workload with every mesh cut to at most SMALL_K points."""
    w = workloads.build(name, seed)
    return replace(w, ops=tuple(replace(op, k=min(op.k, SMALL_K)) for op in w.ops))


def _runner(name: str, seed: int, work_dir: Path) -> harness.Runner:
    work_dir.mkdir(parents=True, exist_ok=True)
    runner = harness.Runner(_small(name, seed), str(work_dir))
    runner.write_inputs()
    runner.prepare_all()
    return runner


def test_metric_names_follow_the_rule_and_carry_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section, expected in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[section]}
        assert listed == expected
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert metrics.NAME_RE.match(m["name"]), m["name"]
        assert metrics.UNIT_RE.match(m["unit"]), m
    assert {w["name"] for w in spec["workloads"]} == set(workloads.BUILDERS)


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_same_seed_generates_the_same_inputs(name):
    a = _small(name, 7)
    b = _small(name, 7)
    other = _small(name, 8)
    assert a == b
    for op_a, op_b, op_o in zip(a.ops, b.ops, other.ops):
        assert np.array_equal(workloads.mesh_points(a, op_a), workloads.mesh_points(b, op_b))
        assert np.array_equal(workloads.sample_rows(a, op_a), workloads.sample_rows(b, op_b))
        assert not np.array_equal(
            workloads.mesh_points(a, op_a), workloads.mesh_points(other, op_o)
        )
    if name == "symbolic_many":
        assert a.cases != other.cases


def test_workload_inputs_are_the_benchmark_suite_inputs():
    suite = suite_module.benchmark_suite()
    workload = workloads.build("dense_npy", 0)
    for case in workload.cases:
        mesh = geometry.random_mesh(50, case.dim, seed=3)
        options = ev.EvalOptions(mode="dense")
        ours = workloads.prepare(case, options)(mesh)
        theirs = suite[case.method].factory(options)(mesh)
        assert np.array_equal(ours.data, theirs.data, equal_nan=True), case.method


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_every_operation_passes_the_check(name, tmp_path):
    runner = _runner(name, 5, tmp_path)
    runner.untraced_pass()
    assert runner.failures == []
    assert runner.attempted == len(runner.workload.ops)


def test_an_operation_built_to_fail_raises_failed_frac(tmp_path):
    runner = _runner("dense_npy", 5, tmp_path)
    by_method = {c.method: c.case_id for c in runner.workload.cases}
    matrix = by_method["num_bivector_to_matrix"]
    gauge = by_method["num_gauge_transformation"]
    good_matrix = runner.evaluators[matrix]

    def off_by_a_little(mesh):
        result = good_matrix(mesh)
        return replace(result, data=result.data * (1.0 + 1e-6))

    def raises(mesh):
        raise RuntimeError("deliberate failure")

    runner.evaluators[matrix] = off_by_a_little
    runner.evaluators[gauge] = raises
    runner.untraced_pass()
    assert runner.attempted == 12
    assert runner.failed == 2
    assert 1.0 - runner.failed / runner.attempted == pytest.approx(10 / 12)


def _traced(name: str, work_dir: Path):
    runner = _runner(name, 9, work_dir)
    prep = tracing.Tracer()
    replays = runner.traced_prepare(prep)
    tracer = tracing.Tracer()
    _, counts = runner.traced_pass(tracer, replays)
    return runner, (prep, tracer), counts


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_per_layer_counts_repeat_across_traced_runs(name, tmp_path):
    first, tracers, counts_a = _traced(name, tmp_path / "a")
    _, _, counts_b = _traced(name, tmp_path / "b")
    assert counts_a == counts_b
    assert counts_a["evaluate.calls"] == len(first.workload.ops)
    assert counts_a["evaluate.rows"] == sum(op.k for op in first.workload.ops)
    assert first.failed == 0

    cases = {c.case_id: c for c in first.workload.cases}
    ops = {op.op_id: op for op in first.workload.ops}
    parts = [harness.layer_times(t.spans, cases, ops) for t in tracers]
    layers = {key: sum(p[key] for p in parts) for key in parts[0]}
    assert harness.self_sum(layers) + layers["trace.gap_s"] == pytest.approx(
        layers["trace.wall_s"], rel=1e-9
    )
    assert all(layers[f"evaluate.call_s.{m}"] > 0 for m in workloads.METHODS)


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense_npy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
