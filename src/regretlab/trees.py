"""Complete binary trees of labels, indexed by sign paths.

A depth-``n`` tree is the carrier of a predictable process: the label seen
at level ``t`` depends only on the first ``t-1`` signs of the path.  Trees
are stored as per-level arrays (heap layout): level ``t`` holds exactly
``2**(t-1)`` labels and the node reached by the sign prefix
``(e_1, ..., e_{t-1})`` sits at the index obtained by reading the prefix as
binary with ``-1 -> 0`` and ``+1 -> 1``, most significant bit first.

Every sum along the sign paths of one tree is a :func:`path_fold`, which
orders the ``2**n`` paths the same way (lexicographically): node ``i`` of
level ``t`` owns the ``i``-th run of ``2**(n-t+1)`` paths, whose first half
takes sign ``-1`` there.  It adds level by level in one output buffer.  A
cover search's deviations, over every candidate labeling at once, fold each
prefix once over per-node label axes instead (``complexity.CoverSearch``),
in the same path order.  A supremum over labelings, or a game value, is a
:func:`backward_induction` over per-predictor score vectors instead, one
layer per level.

Trees are immutable after construction, so concurrent reads and
data-parallel path sweeps are safe.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .errors import ResourceGuardError, ShapeError

# A sign path is a plain tuple over {-1, +1}; lexicographic order of tuples
# (with -1 < +1) is the canonical enumeration order.
SignPath = tuple[int, ...]

PATH_FOLD_GUARD = 2**21  # float64 cells in one path fold's output (16 MiB)
# Scores (states x moves x predictors) of all layers of one backward induction;
# it holds at most 64 bytes per score (128 MiB at the guard).
INDUCTION_CELL_GUARD = 2**21
MERGE_QUANTUM = 1e-12  # score vectors merge when every entry rounds alike


def prefix_index(prefix: Sequence[int]) -> int:
    """Integer encoding of a sign prefix (-1 -> 0, +1 -> 1, MSB first)."""
    idx = 0
    for sign in prefix:
        idx = (idx << 1) | (1 if sign > 0 else 0)
    return idx


def path_fold(terms: Iterable[np.ndarray], depth: int, guard: float = PATH_FOLD_GUARD) -> np.ndarray:
    """Sum per-node terms along the sign paths of a depth-``depth`` tree.

    ``terms`` yields an array ``(..., 2**(t-1), s)`` per level ``t``, in order:
    each node's term for signs -1 and +1 (``s = 2``) or for both (``s = 1``).
    A path sums ``(... (0.0 + a_1) ...) + a_n`` over the terms it meets, in
    level order.  Returns the ``(..., 2**depth)`` sums in path order.
    ``guard`` bounds the output's cells, checked before ``terms`` builds its
    second level.
    """
    out = None
    for t, term in enumerate(terms):
        if out is None:
            shape = term.shape[:-2] + (2**depth,)
            if np.prod(shape) > guard:
                raise ResourceGuardError("path fold above the guard", size_estimate=float(np.prod(shape)))
            out = np.zeros(shape)
        # Prefix i of t signs keeps its partial sum in the first column of its
        # run of paths; its extensions by -1 and +1 own the two halves.
        run = 2 ** (depth - t)
        acc = out[..., ::run]
        np.add(acc, term[..., -1], out=out[..., run // 2 :: run])
        np.add(acc, term[..., 0], out=acc)
    return out


def backward_induction(
    scores0: np.ndarray,
    steps: Sequence[np.ndarray],
    depth: int,
    terminal: Callable[[np.ndarray], np.ndarray],
    combine: Callable[[np.ndarray], np.ndarray],
    guard: float = INDUCTION_CELL_GUARD,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Backward induction over per-predictor score vectors, layer by layer.

    Each of ``depth`` rounds offers the same ``m`` moves; move ``j`` adds
    ``steps[0][j]``, then ``steps[1][j]``, ... (each ``(m, k)``) to a state's
    ``k`` scores.  The forward pass keeps each inner layer's distinct states,
    merging children whose scores all round alike at :data:`MERGE_QUANTUM`,
    and keeps every leaf.  A layer lists its states in order of first
    appearance, the order a memoized depth-first walk meets them, so each
    class keeps that walk's representative.  Before each layer is built,
    ``guard`` bounds its scores (states × moves × ``k``) plus those of the
    layers before it and at least one state per later layer.  The backward pass
    applies ``terminal`` to the leaves' ``(s, k)`` scores and ``combine`` to
    each earlier layer's ``(s, m)`` child values.  Returns the value array of
    every layer and the ``(s, m)`` child index array of every layer but the
    last.
    """
    states = np.asarray(scores0, dtype=float)[None, :]
    m, k = steps[0].shape
    children, built = [], 0
    for t in range(depth):
        cells = len(states) * m
        built += cells * k
        least = built + (depth - t - 1) * m * k
        if least > guard:
            raise ResourceGuardError("backward induction above the guard", size_estimate=float(least))
        nxt = states[:, None, :] + steps[0]
        for step in steps[1:]:
            nxt += step
        nxt = nxt.reshape(cells, k)
        if t == depth - 1:
            # Leaves stay unmerged: a terminal value costs no more than a key.
            child = np.arange(cells)
        else:
            # Exact integer-valued float keys (no int64 wrap); + 0.0 merges -0.0.
            keys = np.rint(nxt / MERGE_QUANTUM) + 0.0
            _, first, inverse = np.unique(
                keys.view(np.dtype((np.void, 8 * k))).ravel(), return_index=True, return_inverse=True
            )
            order = np.argsort(first)
            child = np.empty_like(order)
            child[order] = np.arange(len(order))
            child, nxt = child[inverse], nxt[first[order]]
        children.append(child.reshape(len(states), m))
        states = nxt
    values = [terminal(states)]
    for child in reversed(children):
        values.append(combine(values[-1][child]))
    return values[::-1], children


class LabeledTree:
    """Complete rooted binary tree of depth ``n`` with one label per node."""

    __slots__ = ("depth", "levels")

    def __init__(self, levels: Sequence[Sequence[Any]]):
        try:
            levels = tuple(tuple(level) for level in levels)
        except TypeError:  # the levels, or a level, is not a sequence
            raise ShapeError("a tree is a sequence of levels, each a sequence of labels") from None
        for t, level in enumerate(levels, start=1):
            if len(level) != 2 ** (t - 1):
                raise ShapeError(
                    f"level {t} must hold {2 ** (t - 1)} labels, got {len(level)}"
                )
        self.depth = len(levels)
        self.levels = levels

    @classmethod
    def constant(cls, depth: int, label: Any) -> "LabeledTree":
        return cls([[label] * (2 ** (t - 1)) for t in range(1, depth + 1)])

    @classmethod
    def from_function(cls, depth: int, fn: Callable[[int, SignPath], Any]) -> "LabeledTree":
        """Build a tree whose node at (level t, prefix p) is ``fn(t, p)``."""
        levels = []
        for t in range(1, depth + 1):
            level = [fn(t, prefix) for prefix in itertools.product((-1, 1), repeat=t - 1)]
            levels.append(level)
        return cls(levels)

    def label_at(self, t: int, path: Sequence[int]) -> Any:
        """Label of the node reached at level ``t`` by following ``path``.

        Only the first ``t - 1`` signs of ``path`` are consulted.
        """
        if not 1 <= t <= self.depth:
            raise IndexError(f"level {t} out of range for depth {self.depth}")
        if len(path) < t - 1:
            raise ShapeError(f"path of length {len(path)} too short for level {t}")
        return self.levels[t - 1][prefix_index(path[: t - 1])]

    def map(self, fn: Callable[[Any], Any]) -> "LabeledTree":
        return LabeledTree([[fn(x) for x in level] for level in self.levels])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LabeledTree) and self.levels == other.levels

    def __hash__(self) -> int:
        return hash(self.levels)

    def __repr__(self) -> str:
        return f"LabeledTree(depth={self.depth}, levels={self.levels!r})"
