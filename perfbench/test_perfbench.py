"""Self-test of the benchmark: every declared metric is emitted.

Runs each workload briefly, in process, untraced and traced, and checks
the result line against ``BENCHMARK.json``.  The two simulators are
shrunk for speed; the live workload runs at full size, one episode
untraced and one pair traced.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json

import pytest

from perfbench import cloudsim_5k, mc_mle, run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

#: Per-layer metrics that must be non-zero on each workload's traced run.
LAYERS_RUN = {
    "live-flood": [
        "service.loop.lag_p50_ms", "service.loop.lag_p99_ms",
        "service.backend.replies_per_s", "service.backend.throttled_frac",
        "service.tokens.calls", "service.tokens.busy_s",
        "service.coordinator.detect_s", "service.coordinator.gap_p50_s",
        "service.coordinator.shuffle_p50_ms",
        "service.coordinator.shuffle_max_ms",
        "service.coordinator.assign_calls",
        "service.coordinator.assign_busy_s",
        "service.pool.spawns", "service.pool.spawn_p50_ms",
        "service.pool.retire_p50_ms", "service.loadgen.benign_rate",
        "service.loadgen.ok_samples", "core.estimate.calls",
        "core.plan.calls", "trace.accounted_frac",
    ],
    "cloudsim-5k": [
        "cloudsim.engine.events", "cloudsim.engine.self_s",
        "cloudsim.replica.requests", "cloudsim.replica.self_s",
        "detect.record.calls", "detect.record.busy_s",
        "cloudsim.clients.busy_s", "cloudsim.coordinator.busy_s",
        "cloudsim.other_s", "cloudsim.report.shuffles",
        "core.estimate.calls", "core.plan.calls", "trace.accounted_frac",
    ],
    "mc-mle": [
        "core.estimate.calls", "core.estimate.busy_s",
        "core.estimate.p50_ms", "core.estimate.p99_ms",
        "core.plan.calls", "core.plan.busy_s", "sim.other_s",
    ],
}


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(cloudsim_5k, "N_BENIGN", 300)
    monkeypatch.setattr(cloudsim_5k, "N_BOTS", 15)
    monkeypatch.setattr(cloudsim_5k, "HORIZON_S", 15.0)
    monkeypatch.setattr(mc_mle, "SCENARIO", {
        **mc_mle.SCENARIO, "benign": 1_000, "bots": 50, "n_replicas": 20,
    })
    monkeypatch.setattr(mc_mle, "REPETITIONS", 2)
    monkeypatch.setattr(mc_mle, "SETUP_REPEATS", 5)
    monkeypatch.setattr(cloudsim_5k, "SETUP_BUILDS", 2)


def _result(capsys, workload: str, trace: int, seed: int = 3) -> dict:
    code = run.main([
        "--workload", workload, "--seed", str(seed),
        "--seconds", "1", "--trace", str(trace),
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"workload {workload} seed {seed} trace {trace}"
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(small, capsys, workload):
    result = _result(capsys, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    if workload != "live-flood":
        # Simulated outputs repeat exactly; the live defense may fail
        # its own checks on some seeds, which the result then reports.
        assert result["correct"] and result["failed"] == 0
    expected = {e["name"]: e["unit"] for e in SPEC["end_to_end"]}
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(small, capsys, workload):
    result = _result(capsys, workload, trace=1)
    expected = {e["name"]: e["unit"] for e in SPEC["per_layer"]}
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
    for name in LAYERS_RUN[workload]:
        assert result["metrics"][name]["value"] > 0, name
    if workload != "live-flood":
        # Tracing must not change a simulated output.
        assert result["failed"] == 0


def test_cloudsim_trace_accounts_for_the_horizon(small, capsys):
    result = _result(capsys, "cloudsim-5k", trace=1)
    accounted = result["metrics"]["trace.accounted_frac"]["value"]
    assert 0.9 <= accounted <= 1.0


def test_without_sources_it_fails_without_a_result(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main([
        "--workload", "mc-mle", "--seed", "1", "--seconds", "1",
        "--trace", "0",
    ])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_every_declared_workload_runs():
    declared = {workload["name"] for workload in SPEC["workloads"]}
    assert declared <= set(run.WORKLOADS)
