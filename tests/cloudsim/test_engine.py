"""Tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cloudsim.engine import SimulationError, Simulator, every


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, lambda: log.append("c"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(2.0, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self):
        sim = Simulator()
        log = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: log.append(n))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def first():
            log.append(("first", sim.now))
            sim.schedule(2.0, second)

        def second():
            log.append(("second", sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert log == [("first", 1.0), ("second", 3.0)]

    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30))
    def test_clock_never_goes_backwards(self, delays):
        sim = Simulator()
        times = []
        for delay in delays:
            sim.schedule(delay, lambda: times.append(sim.now))
        sim.run()
        assert times == sorted(times)


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append("early"))
        sim.schedule(10.0, lambda: log.append("late"))
        sim.run_until(5.0)
        assert log == ["early"]
        assert sim.now == 5.0
        sim.run_until(20.0)
        assert log == ["early", "late"]

    def test_cancelled_events_do_not_fire(self):
        sim = Simulator()
        log = []
        event = sim.schedule(1.0, lambda: log.append("x"))
        event.cancel()
        sim.run()
        assert log == []
        assert sim.events_processed == 0

    def test_max_events_guard(self):
        sim = Simulator()

        def storm():
            sim.schedule(0.001, storm)

        sim.schedule(0.001, storm)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run_until(1e9, max_events=100)

    def test_max_events_budget_is_per_call(self):
        """A later call's cap counts only that call's events."""
        sim = Simulator()
        log = []
        for _ in range(5):
            sim.schedule(1.0, lambda: log.append("early"))
        sim.run_until(10.0)
        sim.schedule(1.0, lambda: log.append("late"))
        sim.run_until(20.0, max_events=3)
        assert log == ["early"] * 5 + ["late"]
        assert sim.events_processed == 6

    def test_max_events_still_stops_a_later_storm(self):
        sim = Simulator()
        for _ in range(50):
            sim.schedule(1.0, lambda: None)
        sim.run_until(10.0)

        def storm():
            sim.schedule(0.001, storm)

        sim.schedule(0.001, storm)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run_until(1e9, max_events=100)
        assert sim.events_processed == 150

    def test_simultaneous_events_fifo_around_tombstones(self):
        sim = Simulator()
        log = []
        events = [
            sim.schedule(1.0, lambda n=n: log.append(n), label=f"e{n}")
            for n in range(8)
        ]
        for n in (0, 3, 4, 7):
            events[n].cancel()
        late = sim.schedule(5.0, lambda: log.append("late"))
        late.cancel()
        assert sim.pending_events == 9  # tombstones still count
        sim.run_until(0.5)
        assert log == [] and sim.pending_events == 9
        sim.run_until(2.0)
        assert log == [1, 2, 5, 6]
        assert sim.events_processed == 4
        assert sim.pending_events == 1  # the cancelled t=5 event
        sim.run()
        assert log == [1, 2, 5, 6]
        assert sim.pending_events == 0

    def test_event_handle_fields(self):
        sim = Simulator()
        first = sim.schedule(2.0, lambda: None, label="a")
        second = sim.schedule_at(2.0, lambda: None)
        assert (first.time, first.label, first.cancelled) == (2.0, "a", False)
        assert second.seq > first.seq and second.label == ""
        first.cancel()
        assert first.cancelled

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def nested():
            sim.run_until(100.0)

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError, match="already running"):
            sim.run()


class TestEvery:
    def test_periodic_fires_until_stopped(self):
        sim = Simulator()
        log = []
        stop = every(sim, 1.0, lambda: log.append(sim.now))
        sim.run_until(3.5)
        assert log == [1.0, 2.0, 3.0]
        stop()
        sim.run_until(10.0)
        assert log == [1.0, 2.0, 3.0]

    def test_jitter_applied(self):
        sim = Simulator()
        log = []
        every(sim, 1.0, lambda: log.append(sim.now), jitter=lambda: 0.5)
        sim.run_until(4.0)
        assert log == [1.5, 3.0]
