"""Run one workload of the benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cloudsim-5k --seed 1 \
        --seconds 60 --trace 0

``--trace 0`` measures the end-to-end metrics named in
``BENCHMARK.json``; ``--trace 1`` runs the workload once untraced and
once with every layer's entry points wrapped in timers, prints the
end-to-end metrics of both, and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program is imported from
``src/`` of the same checkout; without it the benchmark exits with
status 2 and prints no result.  ``perfbench/METRICS.md`` defines every
workload and metric.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("live-flood", "cloudsim-5k", "mc-mle")


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int
    failed: int
    metrics: dict[str, float]
    notes: list[str] = field(default_factory=list)


def _fits(started: float, seconds: float, runs: list) -> bool:
    """Whether one more unit, as slow as the slowest so far, fits."""
    slowest = max(run.wall_s for run in runs)
    return time.monotonic() - started + slowest <= seconds


def _comparison(
    untraced: dict[str, float], traced: dict[str, float]
) -> list[str]:
    lines = [f"{'end-to-end metric':<22} {'untraced':>13} {'traced':>13}"]
    for name, value in untraced.items():
        lines.append(f"{name:<22} {value:>13.6g} {traced[name]:>13.6g}")
    return lines


async def _live(seed: int, seconds: float, trace: bool) -> Outcome:
    from perfbench import live
    from perfbench.trace import Tracer, patched_with

    started = time.monotonic()
    tracer = Tracer()
    boots: list[float] = []
    episodes: list[live.Episode] = []
    if trace:
        episodes.append(await live.run_episode(seed, 0, []))
        kept: list = []
        targets, spawn = live.trace_targets(tracer, kept)
        with tracer.patched(targets), patched_with(
            live.ReplicaPool, "spawn", spawn
        ):
            episodes.append(await live.run_episode(seed, 0, kept))
    else:
        for index in range(live.EXTRA_BOOTS):
            boots.append(await live.boot_once(seed + index))
        while True:
            began = time.monotonic()
            episodes.append(
                await live.run_episode(seed, len(episodes), [])
            )
            took = time.monotonic() - began
            if time.monotonic() - started + took > seconds:
                break
    failed = sum(1 for ep in episodes if ep.failures)
    notes = [
        f"episode {i}: {ep.shuffles} shuffles (budget {ep.budget}), "
        f"mitigate {ep.mitigate_s:.3f} s, clean {ep.clean_frac:.3f}, "
        f"{len(ep.ok_latencies)} benign OK samples"
        + (f", FAILED: {'; '.join(ep.failures)}" if ep.failures else "")
        for i, ep in enumerate(episodes)
    ]
    if trace:
        untraced, traced = (live.end_to_end([ep]) for ep in episodes)
        layers = live.per_layer(episodes[-1], tracer)
        layers["trace.overhead_frac"] = (
            traced["mitigate_s"] / untraced["mitigate_s"] - 1.0
        )
        return Outcome(
            len(episodes), failed, layers,
            notes + _comparison(untraced, traced),
        )
    metrics = live.end_to_end(episodes)
    metrics["setup_s"] = statistics.median(
        boots + [ep.setup_s for ep in episodes]
    )
    return Outcome(len(episodes), failed, metrics, notes)


def _cloudsim(seed: int, seconds: float, trace: bool) -> Outcome:
    from perfbench import cloudsim_5k as cs
    from perfbench.trace import Tracer

    started = time.monotonic()
    tracer = Tracer()
    # Every unit repeats the seed, and each repeat is checked against
    # the first.  Set-up is sampled before each unit, so its samples
    # spread over the run.
    setups = [cs.time_setup(seed)]
    runs = [cs.simulate(seed)]
    if trace:
        runs.append(cs.traced_simulate(seed, tracer))
    else:
        while len(runs) < 2 or _fits(started, seconds, runs):
            gc.collect()
            setups.append(cs.time_setup(seed))
            runs.append(cs.simulate(seed))
    reference = runs[0].fingerprint
    failed = sum(1 for run in runs[1:] if run.fingerprint != reference)
    notes = [
        f"simulation seed {cs.sim_seed(seed)}: {reference['events']} "
        f"events, {reference['shuffles']} shuffles, bot-free benign "
        f"{cs.bot_free_frac(runs[0]):.4f}; {len(runs)} runs, "
        f"{failed} differing from the first"
    ] + [f"unit {i}: {run.wall_s:.2f} s" for i, run in enumerate(runs)]
    if trace:
        layers = cs.per_layer(runs[-1], tracer)
        layers["trace.overhead_frac"] = (
            runs[-1].wall_s / runs[0].wall_s - 1.0
        )
        return Outcome(
            len(runs), failed, layers,
            notes + _comparison(runs[0].values, runs[-1].values),
        )
    metrics = cs.end_to_end(runs)
    metrics["setup_s"] = statistics.median(setups)
    return Outcome(len(runs), failed, metrics, notes)


def _mc(seed: int, seconds: float, trace: bool) -> Outcome:
    from perfbench import mc_mle as mc
    from perfbench.trace import Tracer

    started = time.monotonic()
    tracer = Tracer()
    first = mc.unit_seed(seed, 0)
    # The second unit repeats the first seed (the determinism check);
    # further units add distinct seeds while the time lasts.  Set-up is
    # sampled before each unit, so its samples spread over the run.
    setups = [mc.time_setup(seed)]
    runs = [mc.simulate(first)]
    if trace:
        runs.append(mc.traced_simulate(first, tracer))
    else:
        while len(runs) < 2 or _fits(started, seconds, runs):
            setups.append(mc.time_setup(seed))
            runs.append(mc.simulate(mc.unit_seed(seed, len(runs) - 1)))
    failed = int(runs[1].fingerprint != runs[0].fingerprint)
    notes = [
        f"unit {i}: seed {run.seed}, {run.mean_shuffles:.3f} mean "
        f"shuffles, saved {run.saved_fraction:.4f}, {run.wall_s:.2f} s"
        for i, run in enumerate(runs)
    ]
    notes.append(f"repeat of seed {first} identical: {not failed}")
    if trace:
        layers = mc.per_layer(runs[-1], tracer)
        layers["trace.overhead_frac"] = (
            runs[-1].wall_s / runs[0].wall_s - 1.0
        )
        return Outcome(
            len(runs), failed, layers,
            notes + _comparison(
                mc.end_to_end(runs[:1]), mc.end_to_end(runs[1:])
            ),
        )
    metrics = mc.end_to_end(runs)
    metrics["setup_s"] = statistics.median(setups)
    return Outcome(len(runs), failed, metrics, notes)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {ROOT / 'src'}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    trace = bool(args.trace)
    if args.workload == "live-flood":
        outcome = asyncio.run(_live(args.seed, args.seconds, trace))
    elif args.workload == "cloudsim-5k":
        outcome = _cloudsim(args.seed, args.seconds, trace)
    else:
        outcome = _mc(args.seed, args.seconds, trace)

    if trace:
        # A layer that does not run on this workload did no work.
        metrics = {
            entry["name"]: {
                "value": float(outcome.metrics.get(entry["name"], 0.0)),
                "unit": entry["unit"],
            }
            for entry in spec["per_layer"]
        }
    else:
        outcome.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        metrics = {
            entry["name"]: {
                "value": float(outcome.metrics[entry["name"]]),
                "unit": entry["unit"],
            }
            for entry in spec["end_to_end"]
        }

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in outcome.notes:
        print(line)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
