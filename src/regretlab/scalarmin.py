"""Deterministic scalar minimization helpers.

All bound evaluators in this package reduce their tuning-parameter infima
to one-dimensional searches on a logarithmic axis.  Objectives are allowed
to return ``math.inf`` (infeasible branches are simply never selected).
"""

from __future__ import annotations

import math
from typing import Callable

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2
REL_TOL = 1e-8  # interval width, relative to max(1, |a|, |b|), that ends a search
MAX_ITER = 200


def golden_section(fn: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Minimize ``fn`` on [lo, hi], lo < hi, by golden-section search, at
    most :data:`MAX_ITER` steps down to a width of :data:`REL_TOL` (relative).

    Returns ``(argmin, min)``.  ``fn`` may return +inf; the search still
    converges to the boundary of the finite region when the minimum sits
    against an infinite branch.
    """
    a, b = lo, hi
    h = b - a
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc, fd = fn(c), fn(d)
    for _ in range(MAX_ITER):
        if h <= REL_TOL * max(1.0, abs(a), abs(b)):
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = fn(d)
    if fc <= fd:
        return c, fc
    return d, fd


def minimize_log_axis(fn: Callable[[float], float]) -> tuple[float, float]:
    """Minimize ``fn`` over positive arguments x = exp(u), u in [-30, 30].

    A coarse grid of 241 points on the log axis brackets the minimum (robust
    to +inf plateaus and boundary minima); golden-section search then
    refines the bracketing interval.  Returns ``(argmin_x, min_value)``.
    """
    log_lo, log_hi, coarse = -30.0, 30.0, 241
    step = (log_hi - log_lo) / (coarse - 1)
    us = [log_lo + i * step for i in range(coarse)]
    vals = [fn(math.exp(u)) for u in us]
    best_i = min(range(coarse), key=lambda i: (vals[i], i))
    if math.isinf(vals[best_i]):
        return math.exp(us[best_i]), vals[best_i]
    a = us[max(best_i - 1, 0)]
    b = us[min(best_i + 1, coarse - 1)]
    u_star, v_star = golden_section(lambda u: fn(math.exp(u)), a, b)
    # The coarse grid point may still beat the refined one on plateaus.
    if vals[best_i] < v_star:
        return math.exp(us[best_i]), vals[best_i]
    return math.exp(u_star), v_star
