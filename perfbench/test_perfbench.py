"""Tests of the benchmark itself: statistics, tracer wrappers, inputs, output.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert workloads.tail_percentile(99) is None
    assert workloads.tail_percentile(100) == 90.0
    assert workloads.tail_percentile(999) == 90.0
    assert workloads.tail_percentile(1000) == 99.0


def test_latency_line_reports_median_tail_and_count():
    samples = [i / 1000.0 for i in range(1, 201)]  # 1..200 ms
    line = workloads.latency_line("probe read", samples)
    assert line == (f"probe read: p50 {np.percentile(np.arange(1, 201), 50):.4f} ms, "
                    f"p90 {np.percentile(np.arange(1, 201), 90):.4f} ms (n=200)")
    assert workloads.latency_line("few", [0.002, 0.004]) == "few: p50 3.0000 ms (n=2)"


def test_result_json_has_exactly_the_contract_keys():
    out = workloads.Outcome(attempted=3)
    out.metric("setup_s", 0.25, "s", 5)
    result = json.loads(run.result_json(out))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["metrics"] == {"setup_s": {"value": 0.25, "unit": "s"}}
    assert result["correct"] is True
    out.op_failed("op0", ["bits differ", "header"])
    result = json.loads(run.result_json(out))
    assert (result["correct"], result["failed"]) == (False, 1)
    assert out.errors == ["op0: bits differ (+1 more)"]


def _bound_functions():
    """Every library attribute and method a tracer wrapper may replace."""
    import importlib
    seen = {}
    for module_name, path in tracer.LAYERS.values():
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            seen[(cls, attr)] = cls.__dict__[attr]
        else:
            original = getattr(module, path)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("srampuf") and mod is not None:
                    for attr, value in vars(mod).items():
                        if value is original:
                            seen[(mod, attr)] = value
    return seen


def test_tracer_wraps_every_binding_and_restores_the_originals():
    import srampuf.analyze as analyze
    import srampuf.metrics as metrics
    before = _bound_functions()
    t = tracer.Tracer()
    with t:
        for (owner, attr), original in before.items():
            assert getattr(owner, attr) is not original, (owner, attr)
        # analyze imported wchd by name; the copy must be wrapped too
        assert analyze.wchd(np.array([0, 1, 1, 0]), np.array([0, 1, 0, 0])) == 0.25
    assert [s[0] for s in t.spans] == ["metrics.wchd"]
    assert _bound_functions() == before
    assert analyze.wchd is metrics.wchd


def test_tracer_restores_the_originals_when_the_body_raises():
    before = _bound_functions()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    assert _bound_functions() == before


def test_spans_nest_and_self_time_excludes_children():
    import srampuf.biasdetect as biasdetect
    t = tracer.Tracer()
    with t:
        profile = np.tile([0.0] * 16 + [1.0] * 16, 16)
        r = biasdetect.autocorrelation(profile)
        biasdetect.dominant_period(r, profile.size)
    records = t.records()
    assert {r["name"] for r in records} == {"biasdetect.autocorrelation",
                                             "biasdetect.dominant_period"}
    assert all(r["parent"] is None and r["thread"] == f"{os.getpid()}:{threading.get_ident()}"
               for r in records)

    synthetic = [
        {"id": 0, "name": "a", "start": 0.0, "end": 10.0, "parent": None, "thread": "1:1"},
        {"id": 1, "name": "b", "start": 1.0, "end": 4.0, "parent": 0, "thread": "1:1"},
        {"id": 2, "name": "a", "start": 5.0, "end": 7.0, "parent": 0, "thread": "1:1"},
        {"id": 3, "name": "b", "start": 2.0, "end": 3.0, "parent": None, "thread": "1:2"},
    ]
    totals = tracer.layer_totals(synthetic)
    assert totals["a"] == {"calls": 2, "busy_s": 10.0, "self_s": 5.0 + 2.0}
    assert totals["b"] == {"calls": 2, "busy_s": 4.0, "self_s": 4.0}
    assert tracer.covered_seconds(synthetic, "1:1", 8.0, 12.0) == 2.0
    assert tracer.covered_seconds(synthetic, "1:2", 0.0, 12.0) == 1.0


def test_probe_sequence_follows_the_seed():
    designs = workloads.floorplan.DEFAULT_DESIGNS

    def plan(seed):
        return [(s.chip, s.reads) for s in
                workloads.plan_sessions(np.random.default_rng(seed), designs, 50)]

    assert plan(1) == plan(1)
    assert plan(1) != plan(2)
    chips = [chip for chip, _ in plan(3)]
    assert len(set(chips)) > 10 and all(0 <= c < workloads.PROBE_CHIP_IDS for c in chips)
    for _, reads in plan(3):
        assert len(reads) == workloads.PROBE_READS
        for select, addr in reads:
            assert 0 <= addr < designs[select].geometry.depth


def test_per_layer_names_match_the_benchmark_file():
    emitted = {f"{layer}.{key}" for layer, keys in workloads.PER_LAYER.items() for key in keys}
    emitted |= {"simchip.device_reuse_ratio", "trace_overhead_ratio",
                "trace.unattributed_s", "trace.unattributed_ratio"}
    assert emitted == {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(workloads.WORKLOADS) == {w["name"] for w in BENCHMARK["workloads"]}


def test_collect_bank_emits_every_end_to_end_metric(tmp_path):
    out = workloads.collect_bank(seed=5, seconds=0.01, trace=False, work=tmp_path)
    assert (out.attempted, out.failed, out.errors) == (1, 0, [])
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: unit for name, (_, unit, _) in out.metrics.items()} == units
    assert all(value > 0 for value, _, _ in out.metrics.values())
