"""Smoke test of the benchmark: every workload at a tiny size.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_smoke.py -q

Each run checks its results exactly as a full run does; only the window
is short and fewer set-ups are measured.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time

import hostspeed
import pytest
import run as bench
import workloads

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Every runnable workload, including synthetic-2k, which BENCHMARK.json
# leaves out as too unsteady on the 2-core host (see the README).
WORKLOAD_NAMES = sorted(bench.WORKLOADS)


def units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def emitted(result: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def test_benchmark_json_workloads_are_runnable():
    assert {workload["name"] for workload in SPEC["workloads"]} <= set(bench.WORKLOADS)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_end_to_end_metrics(name):
    # The job run also measures one set-up in a probe process.
    setups = 2 if name == "job" else 1
    result, replay = bench.run(name, 1, 1.0, False, setups=setups)
    assert result["correct"], replay["errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert emitted(result) == units("end_to_end")
    for metric, entry in result["metrics"].items():
        assert math.isfinite(entry["value"]) and entry["value"] > 0, metric
    assert result["metrics"]["ok_ratio"]["value"] == 1.0
    assert len(replay["setup_samples"]) == setups
    assert replay["tune_tail"]["samples"] >= 1


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_run_emits_every_layer_metric(name):
    result, replay = bench.run(name, 2, 2.0, True, setups=1)
    assert result["correct"], replay["errors"]
    assert emitted(result) == units("per_layer")
    assert result["metrics"]["scheduler.orders"]["value"] > 0
    layers_only_served = ("cache.fetches", "session.appends", "service.busy_ratio")
    for metric in layers_only_served:
        value = result["metrics"][metric]["value"]
        assert (value > 0) == (name == "served-tpch"), metric


@pytest.mark.parametrize("name", ["job", "served-tpch"])
def test_tampered_fingerprint_lowers_ok_ratio(name, monkeypatch):
    calls = []

    def tampered(result):
        # The first two identities stay true (the pinned reference and,
        # on the served workload, its check); every later one is unique,
        # so no re-run or warm repeat can match its original.
        calls.append(1)
        identity = result.fingerprint()
        if len(calls) > 2:
            identity = dict(identity, best_time=f"tampered-{len(calls)}")
        return identity

    monkeypatch.setattr(workloads, "fingerprint", tampered)
    result, _ = bench.run(name, 3, 1.0, False, setups=1)
    assert result["failed"] >= 1
    assert not result["correct"]
    assert result["metrics"]["ok_ratio"]["value"] < 1.0


def test_fails_without_program_source(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / bench.HERE.name)
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    command = [sys.executable, *SPEC["command"][1:]]
    proc = subprocess.run(
        [*command, "--workload", "job", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("kind", [workloads.Stream, workloads.Served])
def test_probes_run_while_no_request_is_in_flight(kind, tmp_path, monkeypatch):
    probed = []
    real_probe = hostspeed.probe

    def probe():
        start = time.perf_counter()
        seconds = real_probe()
        probed.append((start, time.perf_counter()))
        return seconds

    monkeypatch.setattr(hostspeed, "probe", probe)
    bench_workload = kind("tpch-sf1", tmp_path, 4)
    try:
        bench_workload.set_up()
        window = bench_workload.window(2.5, "timed")
    finally:
        bench_workload.close()
    assert all(sample.ok for sample in window.samples)
    assert len(window.probes) == len(probed) >= 3
    assert window.speed > 0
    for sent, returned in bench_workload.sent.values():
        for start, end in probed:
            assert end <= sent or start >= returned


def test_tail_leaves_ten_samples_beyond():
    values = [float(n) for n in range(1, 41)]
    value, percentile, beyond = bench.tail(values)
    assert (value, percentile, beyond) == (30.0, 75.0, 10)
    assert sum(1 for v in values if v > value) == 10
    assert bench.tail([2.0, 1.0]) == (2.0, 100.0, 0)


def test_layer_self_time_excludes_children():
    from tracing import layer_metrics

    spans = [
        ["evaluate", 0.0, 1.0, None, "r", None],
        ["index_map", 0.25, 0.5, 0, "r", None],
        ["execute", 0.5, 0.9, 0, "r", (10, 5)],
        ["planner", 0.6, 0.7, 2, "r", 3],
        ["evaluate", 0.0, 9.0, None, "other", None],
    ]
    metrics = layer_metrics(spans, {"r"})
    assert metrics["evaluator.s"][0] == pytest.approx(0.35)
    assert metrics["engine.s"][0] == pytest.approx(0.3)
    assert metrics["planner.s"][0] == pytest.approx(0.1)
    assert metrics["engine.completed_ratio"][0] == 0.5
    assert metrics["planner.queries"][0] == 3
    assert metrics["evaluator.calls"][0] == 1


def test_worker_spans_merge_with_parents_rebased(tmp_path):
    from tracing import Tracer

    worker = Tracer(tmp_path)
    worker.spans = [["run_job", 0.0, 1.0, None, "j", None], ["dp", 0.1, 0.2, 0, "j", None]]
    worker.spill()
    worker.spans = [["run_job", 2.0, 3.0, None, "k", None], ["dp", 2.1, 2.2, 0, "k", None]]
    worker.spill()
    parent = Tracer(tmp_path)
    parent.spans = [["acquire", 0.0, 0.0, None, None, "j"]]
    merged = parent.collect()
    assert [span[3] for span in merged] == [None, None, 1, None, 3]
