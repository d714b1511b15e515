"""Benchmark-side tracing: timers wrapped around each layer's entry points.

The program under test carries no spans for this benchmark.  A traced
run instead replaces a layer's public functions, at the name its caller
resolves, with timing wrappers kept here, and restores the originals on
exit.  Synchronous calls keep a frame stack, so every layer gets both
an inclusive ``busy`` time and an exclusive ``self`` time (busy minus
the time spent inside other wrapped layers it called).  Coroutines are
timed from first call to return, waits included, and stay off the
stack.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

__all__ = [
    "LayerStat", "Tracer", "core_layers", "patched_with", "percentile_ms",
]


@dataclass
class LayerStat:
    """Counters of one traced layer."""

    calls: int = 0
    busy: float = 0.0
    child: float = 0.0
    samples: list[float] | None = None

    @property
    def self_time(self) -> float:
        return self.busy - self.child


@dataclass
class _Frame:
    stat: LayerStat
    child: float = 0.0


def percentile_ms(samples: list[float] | None, q: float) -> float:
    """``q``-th percentile of second-valued samples, in milliseconds."""
    if not samples:
        return 0.0
    return float(np.percentile(np.asarray(samples), q)) * 1000.0


@dataclass
class Tracer:
    """Patches layer entry points with timers for the life of a block."""

    stats: dict[str, LayerStat] = field(default_factory=dict)
    _stack: list[_Frame] = field(default_factory=list)

    def stat(self, name: str, keep_samples: bool = False) -> LayerStat:
        stat = self.stats.get(name)
        if stat is None:
            stat = LayerStat(samples=[] if keep_samples else None)
            self.stats[name] = stat
        return stat

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def timed(
        self, name: str, fn: Callable[..., Any], keep_samples: bool = False
    ) -> Callable[..., Any]:
        """``fn`` wrapped so its calls are charged to layer ``name``."""
        stat = self.stat(name, keep_samples)
        if inspect.iscoroutinefunction(fn):
            return self._timed_async(stat, fn)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            # A layer re-entering itself (a wrapped function calling
            # another wrapped alias of the same layer) is charged once.
            if stack and stack[-1].stat is stat:
                return fn(*args, **kwargs)
            frame = _Frame(stat)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.busy += elapsed
                stat.child += frame.child
                if stat.samples is not None:
                    stat.samples.append(elapsed)
                if stack:
                    stack[-1].child += elapsed

        return wrapper

    def _timed_async(
        self, stat: LayerStat, fn: Callable[..., Any]
    ) -> Callable[..., Any]:
        clock = time.perf_counter

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.busy += elapsed
                if stat.samples is not None:
                    stat.samples.append(elapsed)

        return wrapper

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    @contextmanager
    def patched(
        self, targets: list[tuple[object, str, str, bool]]
    ) -> Iterator["Tracer"]:
        """Wrap ``getattr(owner, attr)`` as layer ``name`` inside the block.

        ``targets`` holds ``(owner, attr, name, keep_samples)`` tuples;
        owners are modules or classes.  Originals are restored on exit,
        also when the block raises.
        """
        with ExitStack() as restore:
            for owner, attr, name, keep in targets:
                original = owner.__dict__[attr]
                restore.callback(setattr, owner, attr, original)
                setattr(owner, attr, self.timed(name, original, keep))
            yield self


@contextmanager
def patched_with(
    owner: object, attr: str, replacement: Callable[..., Any]
) -> Iterator[None]:
    """Install a hand-written ``replacement`` of ``owner.attr`` for a block."""
    original = owner.__dict__[attr]
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def core_layers(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the estimator and planner entry points."""
    est = tracer.stat("core.estimate", keep_samples=True)
    plan = tracer.stat("core.plan")
    return {
        "core.estimate.calls": float(est.calls),
        "core.estimate.busy_s": est.busy,
        "core.estimate.p50_ms": percentile_ms(est.samples, 50),
        "core.estimate.p99_ms": percentile_ms(est.samples, 99),
        "core.plan.calls": float(plan.calls),
        "core.plan.busy_s": plan.busy,
    }
