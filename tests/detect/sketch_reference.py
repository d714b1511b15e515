"""Frozen reference for the count-min sketch's scalar path.

These are the numpy-indexed scalar ``_indices`` / ``add_digest`` /
``estimate_digest`` and the two-query ``SketchWindow.record`` as they
stood before the scalar path moved to Python-int arithmetic.  They work
on a real :class:`~repro.detect.CountMinSketch` / :class:`SketchWindow`
(its counter matrix, coefficients and cells), so the oracle tests can
drive one instance through the reference and a twin through the
library and compare values and bytes.
"""

from __future__ import annotations

import numpy as np

from repro.detect import CountMinSketch, SketchWindow, key_digest

_MASK64 = 0xFFFFFFFFFFFFFFFF


def reference_indices(sketch: CountMinSketch, digest: int) -> list[int]:
    return [
        (((int(a) * digest + int(b)) & _MASK64) >> 32) % sketch.width
        for a, b in zip(sketch._a, sketch._b)
    ]


def reference_add_digest(
    sketch: CountMinSketch, digest: int, count: int = 1
) -> int:
    if count < 0:
        raise ValueError("count must be >= 0")
    rows = range(sketch.depth)
    idx = reference_indices(sketch, digest)
    sketch.total += count
    if sketch.conservative:
        estimate = min(int(sketch.counts[i, idx[i]]) for i in rows)
        target = np.uint64(estimate + count)
        for i in rows:
            if sketch.counts[i, idx[i]] < target:
                sketch.counts[i, idx[i]] = target
        return int(target)
    for i in rows:
        sketch.counts[i, idx[i]] += np.uint64(count)
    return min(int(sketch.counts[i, idx[i]]) for i in rows)


def reference_estimate_digest(sketch: CountMinSketch, digest: int) -> int:
    idx = reference_indices(sketch, digest)
    return min(
        int(sketch.counts[i, idx[i]]) for i in range(sketch.depth)
    )


def reference_record(
    window: SketchWindow,
    now: float,
    admitted: bool,
    key: str | None = None,
    digest: int | None = None,
    count: int = 1,
) -> None:
    cell = window._live_cell(now)
    cell.total += count
    if not admitted:
        cell.throttled += count
    if key is None and digest is None:
        return
    if digest is None:
        assert key is not None
        digest = key_digest(key)
    reference_add_digest(cell.sketch, digest, count)
    if key is not None:
        estimate = reference_estimate_digest(cell.sketch, digest)
        threshold = cell.sketch.total / window.params.top_k
        if estimate >= threshold:
            cell.hitters.add(key, count)
        else:
            cell.hitters.total += count
