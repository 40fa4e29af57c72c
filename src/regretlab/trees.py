"""Complete binary trees of labels, indexed by sign paths.

A depth-``n`` tree is the carrier of a predictable process: the label seen
at level ``t`` depends only on the first ``t-1`` signs of the path.  Trees
are stored as per-level arrays (heap layout): level ``t`` holds exactly
``2**(t-1)`` labels and the node reached by the sign prefix
``(e_1, ..., e_{t-1})`` sits at the index obtained by reading the prefix as
binary with ``-1 -> 0`` and ``+1 -> 1``, most significant bit first.

Every sum or maximum along sign paths is a :func:`path_fold`, which orders
the ``2**n`` paths the same way (lexicographically): node ``i`` of level
``t`` owns the ``i``-th run of ``2**(n-t+1)`` paths, whose first half takes
sign ``-1`` there.  It folds level by level in one output buffer.

Trees are immutable after construction, so concurrent reads and
data-parallel path sweeps are safe.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ResourceGuardError, ShapeError

# A sign path is a plain tuple over {-1, +1}; lexicographic order of tuples
# (with -1 < +1) is the canonical enumeration order.
SignPath = tuple[int, ...]

PATH_GUARD = 25
PATH_FOLD_GUARD = 2**21  # float64 cells in one path fold's output (16 MiB)


def prefix_index(prefix: Sequence[int]) -> int:
    """Integer encoding of a sign prefix (-1 -> 0, +1 -> 1, MSB first)."""
    idx = 0
    for sign in prefix:
        idx = (idx << 1) | (1 if sign > 0 else 0)
    return idx


def all_paths(n: int, guard: int = PATH_GUARD) -> Iterator[SignPath]:
    """Yield all 2**n sign paths of length ``n`` in lexicographic order.

    ``n = 0`` yields the single empty path.  Raise ``ResourceGuardError``
    for ``n`` past the guard unless the caller raises it explicitly.
    """
    if n < 0:
        raise ShapeError(f"path length must be nonnegative, got {n}")
    if n > guard:
        raise ResourceGuardError(
            f"exact path enumeration needs 2**{n} paths, above the guard of 2**{guard}",
            size_estimate=2.0**n,
        )
    return itertools.product((-1, 1), repeat=n)


def path_fold(
    terms: Iterable[np.ndarray],
    depth: int,
    combine: Callable = np.add,
    signs: np.ndarray | None = None,
    guard: float = PATH_FOLD_GUARD,
) -> np.ndarray:
    """Fold per-node terms along the sign paths of a depth-``depth`` tree.

    ``terms`` yields an array ``(..., 2**(t-1), s)`` per level ``t``, in order:
    each node's term for signs -1 and +1 (``s = 2``) or for both (``s = 1``).
    A path folds ``combine(... combine(0.0, a_1) ..., a_n)`` over the terms it
    meets.  Returns the ``(..., 2**depth)`` folds in path order, or ``(..., m)``
    along the rows of an ``(m, depth)`` ``signs`` matrix.  ``guard`` bounds
    the output's cells, checked before ``terms`` builds its second level.
    """
    out = None
    for t, term in enumerate(terms):
        if out is None:
            shape = term.shape[:-2] + (2**depth if signs is None else len(signs),)
            if np.prod(shape) > guard:
                raise ResourceGuardError("path fold above the guard", size_estimate=float(np.prod(shape)))
            out, node = np.zeros(shape), 0
        if signs is None:
            # Prefix i of t signs keeps its partial fold in the first column of
            # its run of paths; its extensions by -1 and +1 own the two halves.
            run = 2 ** (depth - t)
            acc = out[..., ::run]
            combine(acc, term[..., -1], out=out[..., run // 2 :: run])
            combine(acc, term[..., 0], out=acc)
        else:
            bit = (signs[:, t] > 0).astype(np.intp)
            combine(out, term[..., node, bit * (term.shape[-1] - 1)], out=out)
            node = 2 * node + bit
    return out


class LabeledTree:
    """Complete rooted binary tree of depth ``n`` with one label per node."""

    __slots__ = ("depth", "levels")

    def __init__(self, levels: Sequence[Sequence[Any]]):
        levels = tuple(tuple(level) for level in levels)
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

    def node_label(self, t: int, index: int) -> Any:
        if not 1 <= t <= self.depth:
            raise IndexError(f"level {t} out of range for depth {self.depth}")
        return self.levels[t - 1][index]

    def map(self, fn: Callable[[Any], Any]) -> "LabeledTree":
        return LabeledTree([[fn(x) for x in level] for level in self.levels])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LabeledTree) and self.levels == other.levels

    def __hash__(self) -> int:
        return hash(self.levels)

    def __repr__(self) -> str:
        return f"LabeledTree(depth={self.depth}, levels={self.levels!r})"

    def to_json(self) -> str:
        return json.dumps({"depth": self.depth, "levels": [list(l) for l in self.levels]})

    @classmethod
    def from_json(cls, text: str) -> "LabeledTree":
        doc = json.loads(text)
        tree = cls(doc["levels"])
        if tree.depth != doc.get("depth", tree.depth):
            raise ShapeError("declared depth does not match the level arrays")
        return tree


def compose(tree: LabeledTree, predictor: Callable[[Any], float]) -> LabeledTree:
    """Evaluate a predictor node-wise, yielding a real-valued tree."""
    return tree.map(predictor)
