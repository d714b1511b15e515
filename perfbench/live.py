"""Workload ``live-flood``: the live service under an unpaced bot flood.

One asyncio event loop drives everything: the coordinator, its replica
backends, the load generator's 200 closed-loop benign clients (think
0.5 s +-50% after each reply, nominally 400 req/s in total) and its 20
open-loop flood bots, which start 1 s in and are held back only by TCP
backpressure.  Each simulated client has its own loopback connection
because the defense keys its whitelists on client identity.  An
episode runs until the coordinator declares quarantine (or exhausts its
shuffle budget), then 2 s more, capped at 120 s.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import api as core_api
from repro.core import shuffler as core_shuffler
from repro.service import (
    LoadConfig,
    LoadGenerator,
    ReplicaPool,
    SaturationMonitor,
    ServiceConfig,
    ServiceCoordinator,
    TokenBucket,
    shuffle_budget,
)
from repro.service import coordinator as service_coordinator

from .trace import Tracer, core_layers, percentile_ms

N_BENIGN = 200
N_BOTS = 20
TARGET_FRACTION = 0.95
EPISODE_CAP_S = 120.0
SETTLE_S = 2.0
#: A benign request counts as served only when answered OK within this.
OK_DEADLINE_S = 0.2
#: Period of the benchmark's event-loop lag probe.
PROBE_S = 0.01
#: Minimum clean share of benign clients for an episode to pass.
MIN_CLEAN = 0.95
#: Cold coordinator boots timed per run, on top of each episode's own.
EXTRA_BOOTS = 4


class RecordingLoadGenerator(LoadGenerator):
    """Load generator that also keeps every benign outcome.

    Each entry is ``(finished_at, ok, latency)`` on the monotonic clock;
    ``latency`` is ``None`` for requests that never got a reply.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.outcomes: list[tuple[float, bool, float | None]] = []

    def _record(self, ok: bool, latency: float | None) -> None:
        super()._record(ok, latency)
        self.outcomes.append((time.monotonic(), ok, latency))


class LoopProbe:
    """Sleeps ``PROBE_S`` in a loop and records how late each wake-up was."""

    def __init__(self) -> None:
        self.wakes: list[tuple[float, float]] = []  # (woke_at, overshoot)
        self._task: asyncio.Task | None = None

    async def _run(self) -> None:
        while True:
            before = time.monotonic()
            await asyncio.sleep(PROBE_S)
            now = time.monotonic()
            self.wakes.append((now, now - before - PROBE_S))

    def start(self) -> None:
        self._task = asyncio.create_task(self._run())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            await asyncio.gather(self._task, return_exceptions=True)
            self._task = None

    def between(self, start: float, end: float) -> list[float]:
        return [lag for woke, lag in self.wakes if start <= woke <= end]


@dataclass
class Episode:
    """Outcome of one live-flood episode."""

    setup_s: float
    budget: int | None
    shuffles: int
    clean_frac: float
    mitigate_s: float
    benign_attempted: int
    benign_ok: int
    ok_latencies: list[float]
    loop_rate: float
    lags: list[float]
    load_s: float
    benign_records: int
    detect_s: float
    shuffle_s: list[float]
    gaps_s: list[float]
    backend_replies: int
    backend_throttled: int
    failures: list[str] = field(default_factory=list)


def _seeds(seed: int, episode: int) -> tuple[int, int]:
    state = np.random.SeedSequence([seed, episode]).generate_state(2)
    return int(state[0]), int(state[1])


def _clean_fraction(
    coordinator: ServiceCoordinator, load: LoadGenerator
) -> float:
    dirty = {
        coordinator.assignments[bot]
        for bot in load.bot_ids
        if bot in coordinator.assignments
    }
    clean = sum(
        1 for cid in load.benign_ids
        if coordinator.assignments.get(cid) not in dirty
    )
    return clean / len(load.benign_ids)


async def boot_once(seed: int) -> float:
    """Time one cold ``ServiceCoordinator.start()`` and shut it down."""
    coordinator = ServiceCoordinator(
        ServiceConfig(telemetry_port=None, seed=seed)
    )
    started = time.perf_counter()
    await coordinator.start()
    elapsed = time.perf_counter() - started
    await coordinator.stop()
    return elapsed


async def run_episode(seed: int, episode: int, backends: list) -> Episode:
    """Boot the defense, flood it until quarantine, and measure."""
    service_seed, load_seed = _seeds(seed, episode)
    service_config = ServiceConfig(telemetry_port=None, seed=service_seed)
    load_config = LoadConfig(
        n_benign=N_BENIGN,
        n_bots=N_BOTS,
        bot_profile="flood",
        seed=load_seed,
    )
    budget = shuffle_budget(
        benign=N_BENIGN,
        bots=N_BOTS,
        n_replicas=service_config.n_replicas,
        target_fraction=TARGET_FRACTION,
    )
    coordinator = ServiceCoordinator(service_config, max_shuffles=budget)
    booted = time.perf_counter()
    await coordinator.start()
    setup_s = time.perf_counter() - booted
    probe = LoopProbe()
    try:
        load = RecordingLoadGenerator(
            load_config,
            control_host=service_config.host,
            control_port=coordinator.control_port,
        )
        probe.start()
        load_start = time.monotonic()
        await load.run(
            EPISODE_CAP_S,
            until=lambda: coordinator.quarantined
            or coordinator.budget_exhausted,
            settle=SETTLE_S,
        )
        load_s = time.monotonic() - load_start
        await probe.stop()
        records = list(coordinator.shuffles)
        clean = _clean_fraction(coordinator, load)
        quarantined = coordinator.quarantined
        exhausted = coordinator.budget_exhausted
        shuffles = coordinator.shuffles_completed
    finally:
        await probe.stop()
        await coordinator.stop()

    onset = load_start + load_config.bot_start_delay
    if records and records[-1].completed_at is not None:
        mitigated_at = records[-1].completed_at
    else:
        mitigated_at = load_start + load_s
    timeout = load_config.request_timeout
    attempted = ok = 0
    ok_latencies: list[float] = []
    for finished, served, latency in load.outcomes:
        began = finished - (latency if latency is not None else timeout)
        if not onset <= began <= mitigated_at:
            continue
        attempted += 1
        if served and latency is not None:
            ok_latencies.append(latency)
            if latency <= OK_DEADLINE_S:
                ok += 1
    lags = probe.between(onset, mitigated_at)
    loop_rate = (
        len(lags) * PROBE_S / sum(PROBE_S + lag for lag in lags)
        if lags else 1.0
    )
    replies = throttled = 0
    for backend in backends:
        stats = backend.stats
        replies += stats.served + stats.throttled + stats.denied + stats.moved
        throttled += stats.throttled
    backends.clear()

    failures = []
    if not quarantined:
        failures.append("not quarantined")
    if exhausted:
        failures.append("shuffle budget exhausted")
    if budget is None or shuffles > budget:
        failures.append(f"{shuffles} shuffles over budget {budget}")
    if clean < MIN_CLEAN:
        failures.append(f"clean_frac {clean:.3f} < {MIN_CLEAN}")
    if not records or attempted == 0 or not ok_latencies:
        failures.append("no shuffle or no benign traffic in the attack")

    starts = [r.started_at for r in records]
    ends = [
        r.completed_at if r.completed_at is not None else r.started_at
        for r in records
    ]
    return Episode(
        setup_s=setup_s,
        budget=budget,
        shuffles=shuffles,
        clean_frac=clean,
        mitigate_s=mitigated_at - onset,
        benign_attempted=attempted,
        benign_ok=ok,
        ok_latencies=ok_latencies,
        loop_rate=loop_rate,
        lags=lags,
        load_s=load_s,
        benign_records=len(load.outcomes),
        detect_s=(starts[0] - onset) if starts else 0.0,
        shuffle_s=[e - s for s, e in zip(starts, ends)],
        gaps_s=[s - e for s, e in zip(starts[1:], ends[:-1])],
        backend_replies=replies,
        backend_throttled=throttled,
        failures=failures,
    )


def end_to_end(episodes: list[Episode]) -> dict[str, float]:
    """Medians over episodes; benign requests are pooled across them."""
    lat = np.asarray([x for ep in episodes for x in ep.ok_latencies])
    attempted = sum(ep.benign_attempted for ep in episodes)

    def median(values) -> float:
        return float(np.median(list(values)))

    return {
        "setup_s": median(ep.setup_s for ep in episodes),
        "mitigate_s": median(ep.mitigate_s for ep in episodes),
        "benign_ok_frac": (
            sum(ep.benign_ok for ep in episodes) / max(1, attempted)
        ),
        "benign_p50_ms": float(np.percentile(lat, 50)) * 1000.0,
        "benign_p99_ms": float(np.percentile(lat, 99)) * 1000.0,
        "shuffles": median(ep.shuffles for ep in episodes),
        "clean_frac": median(ep.clean_frac for ep in episodes),
        "sim_s_per_wall_s": median(ep.loop_rate for ep in episodes),
        "rounds_per_s": median(
            ep.shuffles / ep.mitigate_s for ep in episodes
        ),
    }


def trace_targets(tracer: Tracer, backends: list) -> tuple[list, object]:
    """Layer entry points of the live path, at the names callers use.

    Returns the ``Tracer.patched`` targets and a ``ReplicaPool.spawn``
    replacement that also keeps every backend it boots in ``backends``.
    """
    spawn = ReplicaPool.__dict__["spawn"]
    timed_spawn = tracer.timed("service.pool.spawn", spawn, True)

    async def keeping_spawn(self: ReplicaPool):
        backend = await timed_spawn(self)
        backends.append(backend)
        return backend

    return [
        (ReplicaPool, "retire", "service.pool.retire", True),
        (TokenBucket, "try_acquire", "service.tokens", False),
        (SaturationMonitor, "record", "service.tokens", False),
        (ServiceCoordinator, "assign", "service.coordinator.assign", False),
        (service_coordinator, "core_estimate", "core.estimate", True),
        (service_coordinator, "core_plan", "core.plan", False),
        (core_shuffler, "estimate", "core.estimate", True),
        (core_api, "plan", "core.plan", False),
    ], keeping_spawn


def per_layer(ep: Episode, tracer: Tracer) -> dict[str, float]:
    s = tracer.stats
    spawn = s["service.pool.spawn"]
    retire = s["service.pool.retire"]
    tokens = s["service.tokens"]
    assign = s["service.coordinator.assign"]
    return {
        "service.loop.lag_p50_ms": percentile_ms(ep.lags, 50),
        "service.loop.lag_p99_ms": percentile_ms(ep.lags, 99),
        "service.backend.replies_per_s": ep.backend_replies / ep.load_s,
        "service.backend.throttled_frac": (
            ep.backend_throttled / max(1, ep.backend_replies)
        ),
        "service.tokens.calls": float(tokens.calls),
        "service.tokens.busy_s": tokens.busy,
        "service.coordinator.detect_s": ep.detect_s,
        "service.coordinator.gap_p50_s": (
            float(np.median(ep.gaps_s)) if ep.gaps_s else 0.0
        ),
        "service.coordinator.shuffle_p50_ms": percentile_ms(ep.shuffle_s, 50),
        "service.coordinator.shuffle_max_ms": (
            max(ep.shuffle_s) * 1000.0 if ep.shuffle_s else 0.0
        ),
        "service.coordinator.assign_calls": float(assign.calls),
        "service.coordinator.assign_busy_s": assign.busy,
        "service.pool.spawns": float(spawn.calls),
        "service.pool.spawn_p50_ms": percentile_ms(spawn.samples, 50),
        "service.pool.retire_p50_ms": percentile_ms(retire.samples, 50),
        "service.loadgen.benign_rate": ep.benign_records / ep.load_s,
        "service.loadgen.ok_samples": float(len(ep.ok_latencies)),
        **core_layers(tracer),
        # detect + shuffles + gaps telescopes to onset -> last shuffle
        "trace.accounted_frac": (
            ep.detect_s + sum(ep.shuffle_s) + sum(ep.gaps_s)
        ) / ep.mitigate_s,
    }
