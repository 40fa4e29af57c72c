"""Wall seconds scaled to a reference machine speed.

The machines this benchmark runs on share their cores with other work, and
their speed moves in phases: the same single-threaded work takes up to twice
as long for seconds or minutes at a time.  A median over one run cannot
remove a phase that lasts the whole run.  So every timed span is bracketed
by a fixed unit of pure-Python work that calls no regretlab code, and its
wall seconds are scaled by ``REFERENCE_UNIT_S`` over the mean time of the two
units around it: the seconds the span would have taken had the unit run at
its reference time.  Spans are kept short (under about 0.5 s), so that the
units on either side see the same phase as the span.

This module uses only the standard library, so that a set-up probe can time
a unit before it imports numpy or regretlab.
"""

from __future__ import annotations

import time

UNIT_LOOPS = 30_000
# The unit's time on the 2-core machine where the benchmark was written, in
# its fast phase; a scaled second there is about a wall second at its best.
REFERENCE_UNIT_S = 0.005


def unit() -> float:
    """Wall seconds of one fixed unit of interpreter work."""
    t0 = time.perf_counter()
    acc: dict[int, float] = {}
    x = 0.0
    for i in range(UNIT_LOOPS):
        x = x * 0.5 + (i & 7) * 0.25
        k = i % 97
        acc[k] = acc.get(k, 0.0) + x
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` of a span between two units, at the reference speed."""
    return seconds * REFERENCE_UNIT_S / (0.5 * (before + after))
