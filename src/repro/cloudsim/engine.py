"""Discrete-event simulation core for the cloud architecture model.

A deliberately small, dependency-free DES kernel: events are ``(time,
sequence)``-ordered callbacks on a binary heap.  Everything in
:mod:`repro.cloudsim` — DNS lookups, load-balancer redirects, HTTP
requests, WebSocket pushes, replica boot-ups, bot floods — is scheduled
through one :class:`Simulator` instance, which makes causality trivially
auditable (tests assert the clock never runs backwards).

Heap entries are ``(time, seq, event)`` tuples, so every sift compares
two floats (and, on a tie, two ints) in C rather than calling a Python
``__lt__``; ``seq`` is unique, so the comparison never reaches the
:class:`Event` itself.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

__all__ = ["Event", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on scheduling misuse (negative delays, running twice, ...)."""


class Event:
    """A scheduled callback.

    Ordering lives in the heap entry ``(time, seq, event)``; the
    monotonically increasing sequence number makes simultaneous events
    FIFO and the heap ordering total.
    """

    __slots__ = ("time", "seq", "action", "label", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        action: Callable[[], None],
        label: str = "",
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.label = label
        self.cancelled = cancelled

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, seq={self.seq!r}, "
            f"label={self.label!r}, cancelled={self.cancelled!r})"
        )

    def cancel(self) -> None:
        """Prevent the event from firing (it stays in the heap, inert)."""
        self.cancelled = True


class Simulator:
    """Event queue + clock.

    Usage::

        sim = Simulator()
        sim.schedule(0.5, lambda: print("hello"), label="greeting")
        sim.run_until(10.0)
    """

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self.now: float = 0.0
        self._events_processed = 0
        self._running = False

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for tests and reports)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Events still in the heap (including cancelled tombstones)."""
        return len(self._queue)

    def schedule(
        self,
        delay: float,
        action: Callable[[], None],
        label: str = "",
    ) -> Event:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        time = self.now + delay
        seq = next(self._seq)
        event = Event(time, seq, action, label)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def schedule_at(
        self,
        time: float,
        action: Callable[[], None],
        label: str = "",
    ) -> Event:
        """Schedule ``action`` at an absolute simulation time."""
        return self.schedule(time - self.now, action, label=label)

    def run_until(self, end_time: float, max_events: int | None = None) -> None:
        """Process events in order until the clock passes ``end_time``.

        Args:
            end_time: absolute simulation time to stop at; the clock is
                advanced to exactly ``end_time`` when the queue drains or
                the next event lies beyond it.
            max_events: optional hard cap on the events this call
                runs, a guard against accidental event storms in tests.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        queue = self._queue
        pop = heapq.heappop
        limit = (
            self._events_processed + max_events
            if max_events is not None
            else float("inf")
        )
        try:
            while queue and self._events_processed < limit:
                if queue[0][0] > end_time:
                    break
                time, _, event = pop(queue)
                if event.cancelled:
                    continue
                if time < self.now:
                    raise SimulationError(
                        f"time went backwards: {time} < {self.now}"
                    )
                self.now = time
                self._events_processed += 1
                event.action()
            if max_events is not None and self._events_processed >= limit:
                raise SimulationError(
                    f"exceeded max_events={max_events} "
                    f"(simulation runaway at t={self.now:.3f})"
                )
            self.now = max(self.now, end_time)
        finally:
            self._running = False

    def run(self, max_events: int = 1_000_000) -> None:
        """Drain the queue completely (bounded by ``max_events``)."""
        self.run_until(float("inf"), max_events=max_events)


def every(
    sim: Simulator,
    interval: float,
    action: Callable[[], None],
    label: str = "",
    jitter: Callable[[], float] | None = None,
) -> Callable[[], None]:
    """Schedule ``action`` periodically; returns a stop function.

    ``jitter`` (if given) returns an extra delay added to each interval —
    used to desynchronize client request loops.
    """
    stopped = False

    def tick() -> None:
        if stopped:
            return
        action()
        delay = interval + (jitter() if jitter is not None else 0.0)
        sim.schedule(max(1e-9, delay), tick, label=label)

    def stop() -> None:
        nonlocal stopped
        stopped = True

    sim.schedule(interval + (jitter() if jitter is not None else 0.0),
                 tick, label=label)
    return stop
