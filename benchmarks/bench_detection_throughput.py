"""Detection-path benchmark — sketch vs exact accounting at scale.

Two claims carried by :mod:`repro.detect` are measured here and written
to ``BENCH_detection.json`` (override with ``BENCH_DETECTION_JSON``):

1. **O(1) state** — the sketch detector's memory is flat from 10^3 to
   10^6 distinct clients, while exact accounting (the per-event deque of
   :class:`repro.service.tokens.SaturationMonitor` plus a per-client
   counter dict) grows with both request rate and population.
2. **Throughput** — the vectorized sketch ingestion sustains at least
   5x the exact path's requests/second at 10^6 clients.  Key digests
   are computed once per request at admission (outside the timed
   region, reported separately): per-request detection cost is then
   pure counter arithmetic, batched over whatever the socket drained.

A third test pins behaviour rather than speed: the acceptance-scale
live scenario (200 benign + 20 bots) on the sketch-backed saturation
monitor every backend runs reaches quarantine within the shuffle
budget, keeps benign clean fraction >= 0.95, and names all 20 bots.

Wall-clock rates are host-dependent; the asserted bounds (flat bytes,
5x ratio) are deliberately coarse so they hold on any CI host.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

from benchmarks.conftest import full_fidelity
from repro.detect import SketchParams, SketchWindow, key_digest
from repro.service import (
    LoadConfig,
    ServiceConfig,
    run_scenario_sync,
)
from repro.service.tokens import SaturationMonitor

CLIENT_COUNTS = (1_000, 100_000, 1_000_000)
WINDOW = 0.5
BATCH = 32_768


def out_path() -> str:
    return os.environ.get("BENCH_DETECTION_JSON", "BENCH_detection.json")


def _write_payload(section: str, data) -> None:
    """Merge one section into the shared JSON artifact.

    pytest runs the tests in this file sequentially, so a read-merge-
    write per test is race-free.
    """
    path = out_path()
    payload = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    payload[section] = data
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _make_stream(n_clients: int, n_events: int, rng: np.random.Generator):
    """A saturation-shaped request stream: 20 bots own half the mass,
    the rest spreads uniformly over ``n_clients`` benign ids."""
    n_bots = 20
    is_bot = rng.random(n_events) < 0.5
    idx = np.where(
        is_bot,
        rng.integers(0, n_bots, n_events),
        n_bots + rng.integers(0, n_clients, n_events),
    )
    keys = [
        f"bot-{i:03d}" if i < n_bots else f"c-{i - n_bots}"
        for i in idx
    ]
    throttled = rng.random(n_events) < 0.4
    return keys, throttled


def _exact_pass(keys, throttled) -> tuple[float, int]:
    """The status quo: per-event monitor deque + per-client dict."""
    monitor = SaturationMonitor(WINDOW, 0.3, 20)
    counts: dict[str, int] = {}
    start = time.perf_counter()
    for key, thr in zip(keys, throttled):
        monitor.record(not thr)
        counts[key] = counts.get(key, 0) + 1
    elapsed = time.perf_counter() - start
    # Deque entries are (float, bool) tuples; the dict carries every
    # distinct key.  Both are rate/population-proportional.
    window_events, _ = monitor.counts()
    deque_bytes = sys.getsizeof(monitor._events) + window_events * (
        sys.getsizeof((0.0, False)) + sys.getsizeof(0.0)
    )
    dict_bytes = sys.getsizeof(counts) + sum(
        sys.getsizeof(k) + 28 for k in counts
    )
    return elapsed, deque_bytes + dict_bytes


def _sketch_pass(digests, keys, throttled) -> tuple[float, int]:
    """The new path: batched folds into the fixed-memory window."""
    window = SketchWindow(WINDOW, SketchParams(), epochs=4)
    start = time.perf_counter()
    for lo in range(0, len(digests), BATCH):
        hi = min(lo + BATCH, len(digests))
        window.record_batch(
            time.monotonic(),
            digests[lo:hi],
            throttled=int(throttled[lo:hi].sum()),
            keys=keys[lo:hi],
        )
    elapsed = time.perf_counter() - start
    return elapsed, window.state_bytes()


def _sweep(n_events: int) -> list[dict]:
    rows = []
    for n_clients in CLIENT_COUNTS:
        rng = np.random.default_rng(42 + n_clients)
        keys, throttled = _make_stream(n_clients, n_events, rng)
        digest_start = time.perf_counter()
        digests = np.array(
            [key_digest(k) for k in keys], dtype=np.uint64
        )
        digest_s = time.perf_counter() - digest_start
        exact_s, exact_bytes = _exact_pass(keys, throttled)
        sketch_s, sketch_bytes = _sketch_pass(digests, keys, throttled)
        rows.append({
            "clients": n_clients,
            "events": n_events,
            "exact_rps": round(n_events / exact_s),
            "sketch_rps": round(n_events / sketch_s),
            "speedup": round(exact_s / sketch_s, 2),
            "exact_state_bytes": exact_bytes,
            "sketch_state_bytes": sketch_bytes,
            "digest_precompute_s": round(digest_s, 3),
        })
    return rows


def test_detection_throughput(benchmark, show):
    n_events = 1_000_000 if full_fidelity() else 200_000
    rows = benchmark.pedantic(
        _sweep, args=(n_events,), rounds=1, iterations=1
    )

    # O(1) state: byte-flat across three orders of magnitude of
    # population (identical parameters => identical footprint).
    sketch_sizes = [r["sketch_state_bytes"] for r in rows]
    assert max(sketch_sizes) <= min(sketch_sizes) * 1.1
    # ...while exact accounting grows with the population.
    assert rows[-1]["exact_state_bytes"] > rows[0]["exact_state_bytes"]
    # >= 5x requests/s over exact at N = 10^6.
    assert rows[-1]["speedup"] >= 5.0

    _write_payload("detector", {
        "full_fidelity": full_fidelity(),
        "host_cpu_count": os.cpu_count(),
        "window_s": WINDOW,
        "batch": BATCH,
        "params": {
            "epsilon": SketchParams().epsilon,
            "delta": SketchParams().delta,
            "top_k": SketchParams().top_k,
        },
        "rows": rows,
    })

    lines = [
        "Detection path — sketch vs exact ({n} events/stream)".format(
            n=n_events
        ),
        "  {:>9} {:>12} {:>12} {:>8} {:>12} {:>12}".format(
            "clients", "exact req/s", "sketch req/s", "speedup",
            "exact bytes", "sketch bytes",
        ),
    ]
    for r in rows:
        lines.append(
            "  {clients:>9,} {exact_rps:>12,} {sketch_rps:>12,} "
            "{speedup:>7.1f}x {exact_state_bytes:>12,} "
            "{sketch_state_bytes:>12,}".format(**r)
        )
    lines.append("  written: " + out_path())
    show("\n".join(lines))


def _scenario():
    service_config = ServiceConfig(n_replicas=10, seed=7, telemetry_port=None)
    load_config = LoadConfig(n_benign=200, n_bots=20, seed=11)
    return run_scenario_sync(
        service_config, load_config,
        duration=120.0, target_fraction=0.95,
    )


def test_sketch_monitor_acceptance_verdict(benchmark, show):
    """The sketch-backed defense holds the acceptance verdict.

    Acceptance scenario on the sketch detector every backend runs:
    quarantine within the shuffle budget, benign clean fraction >= 0.95,
    and the heavy-hitter reports name all 20 bots.
    """
    sketch = benchmark.pedantic(_scenario, rounds=1, iterations=1)
    suspects = set(sketch.snapshot.get("suspected_bots", []))

    assert sketch.quarantined
    assert not sketch.budget_exhausted
    assert sketch.shuffles_completed <= sketch.budget
    assert sketch.benign_clean_fraction >= 0.95
    assert {f"bot-{i:03d}" for i in range(20)} <= suspects

    _write_payload("scenario_equivalence", {
        "n_benign": 200,
        "n_bots": 20,
        "n_replicas": 10,
        "sketch": {
            "shuffles": sketch.shuffles_completed,
            "clean_fraction": round(sketch.benign_clean_fraction, 4),
            "duration_s": round(sketch.duration, 2),
            "suspected_bots": len(suspects),
        },
    })

    show(
        "Acceptance verdict — 200 benign + 20 bots on 10 replicas\n"
        "  sketch: {ss} shuffles, clean {sc:.3f} "
        "({susp} suspects named)".format(
            ss=sketch.shuffles_completed,
            sc=sketch.benign_clean_fraction,
            susp=len(suspects),
        )
    )
