"""Golden fingerprint of one seeded end-to-end cloud simulation.

The values were recorded from the model before the event heap moved to
``(time, seq, event)`` tuples and the sketch's scalar path to Python-int
arithmetic.  Both changes are meant to be pure speed-ups, so this run —
every event, every shuffle, every QoS window and every heavy-hitter
count — must stay byte-identical.  A deliberate behaviour change has to
re-record these numbers and say why.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cloudsim.system import CloudConfig, CloudDefenseSystem

SEED = 2014

#: (time, benign_sent, benign_ok, latency_sum, latency_count,
#:  attacked_replicas, active_replicas, shuffles_completed) per window.
GOLDEN_SAMPLES = [
    (1.0, 162, 162, 14.13929207425347, 162, 0, 4, 0),
    (2.0, 487, 487, 44.700604334817406, 487, 0, 4, 0),
    (3.0, 660, 660, 62.37872945068608, 660, 0, 4, 0),
    (4.0, 535, 535, 50.545517386400775, 535, 0, 4, 0),
    (5.0, 512, 512, 48.695451877093454, 512, 0, 4, 0),
    (6.0, 540, 535, 52.19559696601423, 540, 0, 4, 0),
    (7.0, 526, 473, 47.37815303363104, 526, 4, 4, 1),
    (8.0, 504, 421, 45.219681426590945, 504, 4, 4, 1),
    (9.0, 537, 399, 44.11566590130775, 537, 4, 4, 1),
    (10.0, 476, 351, 38.74867795581528, 476, 4, 12, 1),
    (11.0, 523, 351, 40.25983948833076, 523, 4, 12, 1),
    (12.0, 478, 354, 38.96649641972352, 478, 4, 12, 1),
    (13.0, 528, 414, 43.73246186438173, 528, 4, 12, 1),
    (14.0, 489, 399, 40.71575647306278, 489, 4, 12, 1),
    (15.0, 473, 395, 39.80472697749567, 473, 4, 12, 1),
    (16.0, 327, 309, 29.88780290699187, 327, 0, 8, 1),
    (17.0, 419, 419, 43.46230158298539, 419, 0, 8, 1),
    (18.0, 494, 478, 69.62119343272445, 494, 1, 8, 2),
    (19.0, 485, 431, 67.58586914677674, 485, 1, 8, 2),
    (20.0, 449, 386, 62.37533146940188, 449, 1, 8, 2),
]

GOLDEN_HEAVY_HITTERS = [
    ["naive-fleet", 50798, 1],
    ["user-789", 4, 0],
    ["user-189", 3, 1],
    ["user-470", 3, 0],
    ["user-676", 3, 0],
    ["user-876", 3, 0],
    ["user-176", 2, 0],
    ["user-200", 2, 0],
]


@pytest.fixture(scope="module")
def golden_run():
    system = CloudDefenseSystem(CloudConfig(), seed=SEED)
    system.add_benign_clients(1000)
    system.add_persistent_bots(50)
    report = system.run(20.0)
    return system, report


def test_event_counts(golden_run):
    system, _ = golden_run
    assert system.ctx.sim.events_processed == 33946
    assert system.ctx.sim.pending_events == 1516


def test_report_fields(golden_run):
    system, report = golden_run
    assert report.duration == 20.0
    assert report.shuffles == 2
    assert [r.started_at for r in system.ctx.coordinator.shuffles] == [
        7.0, 18.0,
    ]
    assert report.replicas_recycled == 4
    assert report.benign_success_overall == 0.8820283215326947
    assert report.benign_success_last_quarter == 0.9134869663770306
    assert report.benign_mean_latency == 0.10324525412861478
    assert report.benign_migrations == 0.66
    assert report.naive_waste_ratio == 0.16036693465264898
    assert report.quarantined_bots == 50
    assert report.bots_colocated_benign == 961
    assert report.trust_tiers is None


def test_qos_windows(golden_run):
    _, report = golden_run
    assert [dataclasses.astuple(s) for s in report.samples] == (
        GOLDEN_SAMPLES
    )


def test_heavy_hitters(golden_run):
    _, report = golden_run
    assert report.heavy_hitters == GOLDEN_HEAVY_HITTERS
