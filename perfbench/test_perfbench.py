"""Tests for the benchmark's own code.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import run  # noqa: E402
import suite  # noqa: E402
import tracer as tracing  # noqa: E402


def _inputs(workload) -> object:
    """Everything a workload generates from its seed, in comparable form."""
    if isinstance(workload, suite.ExtractWorkload):
        return [unit.label for unit in workload.sequence]
    if isinstance(workload, suite.RefreshWorkload):
        return workload.sequence, workload.batches
    catalogs = {app: make() for app, make in suite._CATALOGS.items()}
    databases = suite._build_databases(workload.seed, catalogs)
    return workload.sequence, {
        app: {name: db.rows(name) for name in db.table_names()}
        for app, db in databases.items()
    }


def test_seed_determines_op_sequence_and_inputs():
    for make in suite.WORKLOADS.values():
        assert _inputs(make(3)) == _inputs(make(3))
        assert _inputs(make(3)) != _inputs(make(4))


def _refresh_ready():
    workload = suite.RefreshWorkload(1)
    expected = workload.oracle()
    workload.setup()
    return workload, expected


def test_corrupted_output_is_a_failed_op():
    workload, expected = _refresh_ready()
    clean = run.run_phase(workload, expected, 0)
    assert clean.ops == len(workload.sequence) and clean.failed == 0

    honest = workload.observe

    def corrupt(op, raw):
        output, counts = honest(op, raw)
        if op is workload.sequence[0]:
            output = (output[0], ["corrupted"])
        return output, counts

    workload.observe = corrupt
    phase = run.run_phase(workload, expected, 0)
    assert phase.failed == 1
    assert phase.failed / phase.ops > 0


def test_raising_op_is_counted_not_raised():
    workload, expected = _refresh_ready()
    honest = workload.run

    def flaky(op):
        if op is workload.sequence[1]:
            raise RuntimeError("injected")
        return honest(op)

    workload.run = flaky
    phase = run.run_phase(workload, expected, 0)
    assert phase.failed == 1
    assert "injected" in phase.mismatches[0][1]


def test_self_time_on_synthetic_nested_spans():
    spans = [
        [tracing.OP, 0, 100, -1, 0],
        ["interp", 10, 60, 0, 0],
        ["sqlparse", 20, 30, 1, 0],
        ["db.execute", 25, 50, 1, 0],  # overlaps its sibling: counted once
        ["db.write", 70, 90, 0, 0],
        ["db.stats", 80, 120, 4, 0],  # runs past its parent: clipped
    ]
    assert tracing.self_times(spans) == [30, 20, 10, 25, 10, 40]

    metrics = tracing.layer_metrics(spans, ops=2)
    assert metrics["interp.calls"] == 0.5
    assert metrics["interp.self_ms"] == 20 / 2 / 1e6
    assert metrics["interp.share"] == 20 / 100
    assert metrics["rules.calls"] == 0 and metrics["rules.share"] == 0


def test_times_scale_with_host_speed():
    latencies = list(range(1_000_000, 3_000_000, 1000))
    phase = run.Phase(latencies_ns=latencies, elapsed_s=4.0)
    setups = [1.0, 3.0, 2.0]
    raw = run.end_to_end(phase, setups, [1.0] * 3, [1.0] * phase.ops)
    assert raw["op_p50_ms"] == pytest.approx(2.0, rel=1e-3)
    assert raw["setup_s"] == 2.0 and raw["ops_per_s"] == 500

    # A host twice as fast as the reference: its times are doubled.
    fast = run.end_to_end(phase, setups, [2.0, 2.0, 0.5], [2.0] * phase.ops)
    assert fast["op_p50_ms"] == 2 * raw["op_p50_ms"]
    assert fast["op_p99_ms"] == 2 * raw["op_p99_ms"]
    assert fast["ops_per_s"] == raw["ops_per_s"] / 2
    assert fast["setup_s"] == 2.0  # median of 2.0, 6.0 and 1.0
    assert fast["peak_rss_mb"] >= raw["peak_rss_mb"]


def test_each_op_takes_the_speed_measured_around_it():
    cal = int(calibration.REFERENCE_MS * 1e6)
    # 40 calibrations, one per second: the host runs at half the reference
    # speed for the first 20 seconds and at the reference speed after.
    phase = run.Phase(
        latencies_ns=[1_000_000] * 3,
        started_ns=[int(1e9), int(30e9), int(39.5e9)],
        calibration_ns=[2 * cal] * 20 + [cal] * 20,
        calibrated_at_ns=[int(i * 1e9) for i in range(40)],
    )
    assert phase.op_speeds() == [0.5, 1.0, 1.0]


def test_calibration_leaves_the_collector_as_it_was():
    samples: list = []
    calibration.time_calibration(samples)
    assert gc.isenabled()
    gc.disable()
    try:
        calibration.time_calibration(samples)
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert len(samples) == 2 and all(ns > 0 for ns in samples)
    assert calibration.host_speed([calibration.REFERENCE_MS * 2e6]) == 0.5


def _bindings() -> dict:
    """Every binding in a ``repro`` module or traced class → its object."""
    import importlib

    found = {}
    for module in tracing._repro_modules():
        for attr, value in vars(module).items():
            if callable(value):
                found[(module.__name__, attr)] = value
    for _, targets, _ in tracing.LAYERS:
        for module_name, qualname in targets:
            if "." in qualname:
                class_name, attr = qualname.split(".")
                owner = getattr(importlib.import_module(module_name), class_name)
                found[(module_name, qualname)] = owner.__dict__[attr]
    return found


def test_untraced_run_calls_originals_after_traced_run():
    workload, expected = _refresh_ready()
    extract = suite.ExtractWorkload(0)
    before = _bindings()

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert _bindings() != before
        traced = run.run_phase(workload, expected, 0, tracer)
        extract.run(extract.units[0])
    finally:
        tracer.uninstall()
    recorded = {span[0] for span in tracer.spans}
    assert {"interp", "db.write", "db.index", "frontends", "rules"} <= recorded
    assert traced.failed == 0

    assert _bindings() == before
    count = len(tracer.spans)
    run.run_phase(workload, expected, 0)
    extract.run(extract.units[0])
    assert len(tracer.spans) == count


def test_benchmark_json_matches_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(suite.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", "refresh", "--seed", "2",
                         "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
