"""Workload ``mc-mle``: the Monte-Carlo shuffle engine with the exact MLE.

``run_scenario`` over 10,000 benign clients and 500 persistent bots on
100 replicas, greedy plans, maximum-likelihood bot estimates, shuffling
until 95% of the benign clients are saved, 8 repetitions.  Nearly all
host time is the estimator's exact occupancy sweep; the greedy planner
takes a few percent and the bot draws and arrivals the rest.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from repro.core import api as core_api
from repro.core import shuffler as core_shuffler
from repro.core.shuffler import ShuffleEngine
from repro.sim.shuffle_sim import ShuffleScenario, run_scenario

from .trace import Tracer, core_layers, patched_with

SCENARIO = dict(
    benign=10_000,
    bots=500,
    n_replicas=100,
    estimator="mle",
    planner="greedy",
    target_fraction=0.95,
)
REPETITIONS = 8
#: Scenario + engine constructions timed per set-up sample.
SETUP_REPEATS = 4_000


@dataclass
class McRun:
    """One ``run_scenario`` call and its per-round host times."""

    seed: int
    wall_s: float
    rounds: list[tuple[float, int, int]]  # (seconds, saved, exposed)
    mean_shuffles: float
    saved_fraction: float
    fingerprint: tuple


def unit_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th distinct scenario run of a benchmark run."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def time_setup(seed: int) -> float:
    """Mean seconds to construct the scenario and one engine.

    One construction takes some 20 us, and the host's speed swings by
    half over spans of milliseconds, so a sample is the mean over
    ``SETUP_REPEATS`` back-to-back constructions (about 0.1 s).
    """
    started = time.perf_counter()
    for index in range(SETUP_REPEATS):
        scenario = ShuffleScenario(**SCENARIO)
        ShuffleEngine(
            n_replicas=scenario.n_replicas,
            planner=scenario.planner,
            estimator=scenario.estimator,
            rng=np.random.default_rng([seed, index]),
        )
    return (time.perf_counter() - started) / SETUP_REPEATS


def simulate(seed: int) -> McRun:
    """One ``run_scenario`` call, each shuffle round timed."""
    scenario = ShuffleScenario(**SCENARIO)
    run_round = ShuffleEngine.__dict__["run_round"]
    rounds: list[tuple[float, int, int]] = []

    def timed_round(engine: ShuffleEngine, state):
        started = time.perf_counter()
        result = run_round(engine, state)
        rounds.append((
            time.perf_counter() - started,
            result.benign_saved,
            result.benign_saved + result.benign_remaining,
        ))
        return result

    with patched_with(ShuffleEngine, "run_round", timed_round):
        started = time.perf_counter()
        result = run_scenario(scenario, repetitions=REPETITIONS, seed=seed)
        wall_s = time.perf_counter() - started
    fingerprint = tuple(
        (run.n_shuffles, run.benign_saved, run.benign_total,
         run.saved_per_round)
        for run in result.runs
    )
    return McRun(
        seed=seed,
        wall_s=wall_s,
        rounds=rounds,
        mean_shuffles=result.mean_shuffles,
        saved_fraction=result.saved_fraction.mean,
        fingerprint=fingerprint,
    )


def end_to_end(runs: list[McRun]) -> dict[str, float]:
    """Metrics pooled over ``runs``; outcomes count each seed once."""
    distinct = list({run.seed: run for run in runs}.values())
    wall = sum(run.wall_s for run in runs)
    rounds = [r for run in runs for r in run.rounds]
    per_round = np.asarray([r[0] for r in rounds]) * 1000.0
    outcomes = [r for run in distinct for r in run.rounds]
    return {
        "mitigate_s": wall / (REPETITIONS * len(runs)),
        "benign_ok_frac": (
            sum(r[1] for r in outcomes) / max(1, sum(r[2] for r in outcomes))
        ),
        "benign_p50_ms": float(np.percentile(per_round, 50)),
        "benign_p99_ms": float(np.percentile(per_round, 99)),
        "shuffles": statistics.fmean(run.mean_shuffles for run in distinct),
        "clean_frac": statistics.fmean(
            run.saved_fraction for run in distinct
        ),
        "sim_s_per_wall_s": len(rounds) / wall,
        "rounds_per_s": len(rounds) / wall,
    }


def traced_simulate(seed: int, tracer: Tracer) -> McRun:
    targets = [
        (core_shuffler, "estimate", "core.estimate", True),
        (core_api, "plan", "core.plan", False),
    ]
    with tracer.patched(targets):
        return simulate(seed)


def per_layer(run: McRun, tracer: Tracer) -> dict[str, float]:
    est = tracer.stats["core.estimate"]
    plan = tracer.stats["core.plan"]
    return {
        **core_layers(tracer),
        "sim.other_s": run.wall_s - est.busy - plan.busy,
    }
