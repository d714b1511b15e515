"""Workload ``cloudsim-5k``: the discrete-event model at 5,000 clients.

``CloudDefenseSystem(CloudConfig(), seed)`` with 5,000 benign clients
and 250 persistent network bots, simulated for 60 seconds.  No sockets;
host time goes to the event heap, replica request handling, sketch
accounting and the client request loops.  The simulated outputs are a
pure function of the seed, so every repeat of a seed, traced or not,
must report them identically.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

import numpy as np

from repro.cloudsim import (
    BenignClient,
    CloudConfig,
    CloudDefenseSystem,
    Coordinator,
    ReplicaServer,
    Simulator,
)
from repro.cloudsim import coordinator as cloud_coordinator
from repro.detect import SketchWindow

from .trace import Tracer, core_layers, patched_with

N_BENIGN = 5_000
N_BOTS = 250
HORIZON_S = 60.0
#: Builds timed per set-up sample.
SETUP_BUILDS = 10


@dataclass
class SimRun:
    """One build + simulate of the seed."""

    wall_s: float
    fingerprint: dict
    values: dict[str, float]


def sim_seed(seed: int) -> int:
    """The system seed derived from the benchmark's ``--seed``."""
    return int(np.random.SeedSequence([seed]).generate_state(1)[0])


def build(seed: int) -> tuple[CloudDefenseSystem, float]:
    """Build the architecture and admit the population; time both."""
    started = time.perf_counter()
    system = CloudDefenseSystem(CloudConfig(), seed=sim_seed(seed))
    system.build()
    system.add_benign_clients(N_BENIGN)
    system.add_persistent_bots(N_BOTS)
    return system, time.perf_counter() - started


def time_setup(seed: int) -> float:
    """Mean seconds of ``SETUP_BUILDS`` builds.

    One build takes some 45 ms, and the host's speed holds one of two
    levels some 1.6x apart for a few hundred ms at a time, so a sample
    averages several builds.
    """
    samples = []
    for _ in range(SETUP_BUILDS):
        system, took = build(seed)
        samples.append(took)
        del system
        gc.collect()
    return statistics.fmean(samples)


def simulate(seed: int) -> SimRun:
    """Build, simulate the horizon, and read the report."""
    system, _ = build(seed)
    started = time.perf_counter()
    report = system.run(HORIZON_S)
    wall_s = time.perf_counter() - started
    ctx = system.ctx
    calm = {
        r.endpoint.address for r in ctx.active_replicas()
        if not r.overloaded()
    }
    unattacked = sum(
        1 for c in system.benign
        if c.replica_endpoint is not None
        and c.replica_endpoint.address in calm
    )
    latencies = np.asarray([
        c.stats.mean_latency for c in system.benign
        if c.stats.requests_ok > 0
    ]) * 1000.0
    fingerprint = {
        "events": ctx.sim.events_processed,
        "shuffles": report.shuffles,
        "shuffle_starts": [r.started_at for r in ctx.coordinator.shuffles],
        "benign_success_overall": report.benign_success_overall,
        "benign_success_last_quarter": report.benign_success_last_quarter,
        "benign_mean_latency": report.benign_mean_latency,
        "benign_migrations": report.benign_migrations,
        "bots_colocated_benign": report.bots_colocated_benign,
        "unattacked": unattacked,
    }
    values = {
        "mitigate_s": wall_s,
        "benign_ok_frac": report.benign_success_overall,
        "benign_p50_ms": float(np.percentile(latencies, 50)),
        "benign_p99_ms": float(np.percentile(latencies, 99)),
        "shuffles": report.benign_migrations,
        "clean_frac": unattacked / N_BENIGN,
        "sim_s_per_wall_s": HORIZON_S / wall_s,
        "rounds_per_s": HORIZON_S / CloudConfig().detection_interval / wall_s,
    }
    return SimRun(wall_s, fingerprint, values)


def end_to_end(runs: list[SimRun]) -> dict[str, float]:
    """Median of every end-to-end reading over the runs."""
    return {
        name: statistics.median(run.values[name] for run in runs)
        for name in runs[0].values
    }


def bot_free_frac(run: SimRun) -> float:
    """Share of benign clients sharing no replica with a bot at the end."""
    return 1.0 - run.fingerprint["bots_colocated_benign"] / N_BENIGN


def traced_simulate(seed: int, tracer: Tracer) -> SimRun:
    """``simulate`` with every layer timed, each event action included."""
    schedule = Simulator.__dict__["schedule"]

    def timed_schedule(sim, delay, action, label=""):
        return schedule(
            sim, delay, tracer.timed("cloudsim.engine.action", action), label
        )

    targets = [
        (Simulator, "run_until", "cloudsim.engine.run_until", False),
        (ReplicaServer, "handle_request", "cloudsim.replica", False),
        (SketchWindow, "record", "detect.record", False),
        (SketchWindow, "record_batch", "detect.record", False),
        (BenignClient, "send_request", "cloudsim.clients", False),
        (Coordinator, "attacked_replicas", "cloudsim.coordinator", False),
        (Coordinator, "_start_shuffle", "cloudsim.coordinator", False),
        (Coordinator, "_finish_shuffle", "cloudsim.coordinator", False),
        (cloud_coordinator, "estimate_bots", "core.estimate", True),
        (cloud_coordinator, "greedy_sizes", "core.plan", False),
    ]
    with tracer.patched(targets), patched_with(
        Simulator, "schedule", timed_schedule
    ):
        return simulate(seed)


def per_layer(run: SimRun, tracer: Tracer) -> dict[str, float]:
    s = tracer.stats
    run_until = s["cloudsim.engine.run_until"]
    action = s["cloudsim.engine.action"]
    layers = ("cloudsim.replica", "detect.record", "cloudsim.clients",
              "cloudsim.coordinator", "core.estimate", "core.plan")
    return {
        "cloudsim.engine.events": float(action.calls),
        "cloudsim.engine.self_s": run_until.busy - action.busy,
        "cloudsim.replica.requests": float(s["cloudsim.replica"].calls),
        "cloudsim.replica.self_s": s["cloudsim.replica"].self_time,
        "detect.record.calls": float(s["detect.record"].calls),
        "detect.record.busy_s": s["detect.record"].busy,
        "cloudsim.clients.busy_s": s["cloudsim.clients"].self_time,
        "cloudsim.coordinator.busy_s": s["cloudsim.coordinator"].self_time,
        "cloudsim.other_s": action.self_time,
        "cloudsim.report.bot_free_frac": bot_free_frac(run),
        "cloudsim.report.shuffles": float(run.fingerprint["shuffles"]),
        **core_layers(tracer),
        "trace.accounted_frac": (
            run_until.self_time
            + sum(s[name].self_time for name in layers)
            + action.self_time
        ) / run.wall_s,
    }
