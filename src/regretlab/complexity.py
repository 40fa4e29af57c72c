"""Exact desk-scale computation of sequential complexities and bounds.

Everything here is exact at small scale: expectations over sign paths are
full enumerations, covering numbers are minimal set covers over selector
trees, the fat-shattering dimension is an exhaustive search with witness
normalization, and every closed-form bound has its tuning parameters
optimized by deterministic scalar searches.

All functions are pure; path sweeps and candidate searches are plain
reductions with no shared mutable state, so concurrent callers are safe.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .comparators import FiniteTableFamily
from .errors import DomainError, ResourceGuardError, ShapeError
from .scalarmin import minimize_log_axis
from .trees import INDUCTION_CELL_GUARD, PATH_FOLD_GUARD, LabeledTree, SignPath
from .trees import backward_induction, path_fold, prefix_index

# Cover deviation cells, counted as candidate trees x |F| x 2^n (32 MiB of
# float64).  The matrix built holds half of them: paths that differ only in
# the last sign share one column.
COVER_CELL_GUARD = 2**22
FAT_SEARCH_GUARD = 10**7
_EPS = 1e-9


def _require_finite_table(family: Any) -> FiniteTableFamily:
    if not isinstance(family, FiniteTableFamily):
        raise DomainError("exact complexity computations need a finite table family")
    return family


# ---------------------------------------------------------------------------
# Rademacher complexities
# ---------------------------------------------------------------------------


def _level_values(family: FiniteTableFamily, x: LabeledTree):
    """Per level of ``x``: every predictor's value at each node, (|F|, nodes)."""
    for level in x.levels:
        yield family.values[:, [family.column(label) for label in level]]


def _signed_terms(family: FiniteTableFamily, x: LabeledTree):
    """:func:`path_fold` terms ``eps f(x_t)``, (|F|, nodes, 2) per level."""
    return (np.stack((-vals, vals), axis=-1) for vals in _level_values(family, x))


def _collection_levels(trees: Sequence[LabeledTree]) -> tuple[int, Iterator[np.ndarray]]:
    """Common depth of a nonempty tree collection, and its labels per level."""
    if not trees:
        raise DomainError("the tree collection must be nonempty")
    n = trees[0].depth
    if any(w.depth != n for w in trees):
        raise ShapeError("all trees in the collection must share one depth")
    return n, (np.array(levels, dtype=float) for levels in zip(*(w.levels for w in trees)))


def _offset_terms(vals: np.ndarray, C: float, offset: Callable[[float], float]) -> np.ndarray:
    """:func:`path_fold` terms ``2C eps v - offset(v)``, one call per entry."""
    penal = np.array([offset(v) for v in vals.ravel()]).reshape(vals.shape)
    return np.stack((-2.0 * C * vals - penal, 2.0 * C * vals - penal), axis=-1)


def _mean_path_max(terms: Iterator[np.ndarray], n: int, guard: float) -> float:
    """The mean over the 2^n sign paths of the largest :func:`path_fold` of
    ``terms`` (0 at depth 0), summed exactly."""
    if n == 0:
        return 0.0
    sums = path_fold(terms, n, guard=guard)
    return math.fsum(sums.max(axis=0).tolist()) / 2.0**n


def seq_rademacher(
    family: FiniteTableFamily, x: LabeledTree, guard: float = PATH_FOLD_GUARD
) -> float:
    """Exact sequential Rademacher complexity of a finite family on tree ``x``:
    the mean over all sign paths of ``max_f sum_t eps_t f(x_t(eps))``.
    ``guard`` bounds the |F| 2^n cells of the per-path sums."""
    family = _require_finite_table(family)
    return _mean_path_max(_signed_terms(family, x), x.depth, guard)


def offset_tree_max(
    trees: Sequence[LabeledTree],
    C: float,
    offset: Callable[[float], float],
    guard: float = PATH_FOLD_GUARD,
) -> float:
    """Exact ``E max_w sum_t [2C eps_t w_t(eps) - offset(w_t(eps))]`` over an
    explicit finite collection of real-valued trees."""
    n, levels = _collection_levels(trees)
    return _mean_path_max((_offset_terms(vals, C, offset) for vals in levels), n, guard)


def offset_rademacher(
    family: FiniteTableFamily,
    x: LabeledTree,
    mu: LabeledTree,
    C: float,
    offset: Callable[[float], float],
    guard: float = PATH_FOLD_GUARD,
) -> float:
    """Exact offset Rademacher complexity on given covariate and mean trees:
    ``E max_f sum_t [2C eps_t (f(x_t) - mu_t) - offset(f(x_t) - mu_t)]``."""
    family = _require_finite_table(family)
    if mu.depth != x.depth:
        raise ShapeError(
            f"mean tree depth {mu.depth} does not match covariate tree depth {x.depth}"
        )
    terms = (
        _offset_terms(vals - np.asarray(means, dtype=float), C, offset)
        for vals, means in zip(_level_values(family, x), mu.levels)
    )
    return _mean_path_max(terms, x.depth, guard)


def offset_rademacher_sup(
    family: FiniteTableFamily,
    covariate_set: Sequence[Any],
    mu_grid: Sequence[float],
    n: int,
    C: float,
    offset: Callable[[float], float],
    initial_scores: Sequence[float] | None = None,
    guard: float = INDUCTION_CELL_GUARD,
) -> float:
    """Exact supremum of the offset Rademacher complexity over all covariate
    trees labeled from ``covariate_set`` and mean trees labeled from
    ``mu_grid``.

    The supremum decomposes node-by-node because each node is reached under
    exactly one sign prefix, so an optimal labeling can be chosen by backward
    induction over (round, per-predictor partial sums), merged as in
    :func:`trees.backward_induction`, whose ``guard`` bounds the partial sums
    of all layers together, states × 2|X||M| moves × |F| summed over rounds.
    ``initial_scores`` seeds the per-predictor sums (used by the conditional
    relaxation, which subtracts past losses before taking the supremum over
    the future).
    """
    family = _require_finite_table(family)
    if not covariate_set or not mu_grid:
        raise DomainError("covariate set and mean grid must be nonempty")
    if initial_scores is None:
        scores0 = np.zeros(family.n_predictors)
    else:
        scores0 = np.asarray(initial_scores, dtype=float)
        if scores0.shape != (family.n_predictors,):
            raise ShapeError("initial_scores must have one entry per predictor")

    # Moves (x, mu, sign) with sign +1 first: a child's sums are the
    # parent's plus or minus 2C (f(x) - mu), then minus the offset.
    diffs = np.array([family.evaluate_all(x) - mu for x in covariate_set for mu in mu_grid])
    scaled = 2.0 * C * diffs
    penal = np.array([[offset(d) for d in row] for row in diffs])
    values, _ = backward_induction(
        scores0,
        (np.stack((scaled, -scaled), axis=1).reshape(-1, family.n_predictors), -np.repeat(penal, 2, axis=0)),
        n,
        lambda scores: scores.max(axis=1),
        lambda v: (0.5 * (v[:, 0::2] + v[:, 1::2])).max(axis=1),
        guard,
    )
    return float(values[0][0])


# ---------------------------------------------------------------------------
# Finite-collection bounds
# ---------------------------------------------------------------------------


def finite_class_offset_bound(
    size_W: int, n: int, C: float, gamma_star: Callable[[float], float]
) -> float:
    """Bound on the offset maximum over any ``size_W`` trees of depth ``n``:
    ``inf_{lam > 0} [log(size_W)/lam + n * gamma_star(2 C^2 lam)]``.

    The infimum runs over a bracketing grid on log-lambda in [-30, 30] with
    golden-section refinement; +inf branches are skipped.  Returns +inf when
    every lambda is infeasible.
    """
    if size_W < 1:
        raise DomainError(f"collection size must be >= 1, got {size_W}")
    log_w = math.log(size_W)

    def objective(lam: float) -> float:
        g = gamma_star(2.0 * C * C * lam)
        if math.isinf(g):
            return math.inf
        return log_w / lam + n * g

    _, best = minimize_log_axis(objective)
    return best


def finite_class_linear_bound(trees: Sequence[LabeledTree], G: float) -> float:
    """``G * sqrt(2 log|W| * max_{w, eps} sum_t w_t(eps)^2)`` with the inner
    maximum computed exhaustively over trees and paths."""
    n, levels = _collection_levels(trees)
    if len(trees) == 1 or n == 0:
        return 0.0
    max_sq = float(path_fold((np.square(vals)[..., None] for vals in levels), n).max())
    return G * math.sqrt(2.0 * math.log(len(trees)) * max_sq)


# ---------------------------------------------------------------------------
# Sequential covers
# ---------------------------------------------------------------------------


@dataclass
class CoverReport:
    """A minimal cover with its witness assignment.

    ``certificate`` maps ``(predictor handle, sign path)`` to the index into
    ``cover`` of the tree within ``beta`` of that evaluation.  ``stats``
    holds the search's counters (see :class:`CoverSearch`); equality, repr
    and the JSON form leave it out.
    """

    beta: float
    norm: str
    size: int
    cover: tuple[LabeledTree, ...]
    certificate: dict[tuple[int, SignPath], int] = field(repr=False)
    stats: dict = field(default_factory=dict, compare=False, repr=False)

    def validate(self, family: FiniteTableFamily, x: LabeledTree) -> bool:
        """Whether the certificate assigns every (predictor handle, sign
        path) pair, and nothing else, to a tree of ``cover`` within ``beta``
        of it at every node of the path."""
        n = x.depth
        pairs = set(itertools.product(range(family.n_predictors), itertools.product((-1, 1), repeat=n)))
        if self.certificate.keys() != pairs:
            return False
        for (handle, path), vi in self.certificate.items():
            if not (isinstance(vi, int) and 0 <= vi < len(self.cover)):
                return False
            v = self.cover[vi]
            fn = family.predictor(handle)
            devs = [
                abs(fn(x.label_at(t, path)) - v.label_at(t, path))
                for t in range(1, n + 1)
            ]
            if self.norm == "linf":
                if max(devs, default=0.0) > self.beta + _EPS:
                    return False
            else:
                if math.fsum(d * d for d in devs) > _l2_limit(n, self.beta):
                    return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "beta": self.beta,
            "norm": self.norm,
            "size": self.size,
            "cover": [[list(level) for level in v.levels] for v in self.cover],
            "certificate": [
                {"predictor": h, "path": list(p), "tree": vi}
                for (h, p), vi in sorted(self.certificate.items())
            ],
        }


def _l2_limit(n: int, beta: float) -> float:
    """Threshold on a sum of squared deviations at l2 scale ``beta``.  A
    scale whose square overflows a float has no finite threshold, so every
    deviation is within it, as at ``beta = inf``."""
    try:
        return n * beta**2 + _EPS
    except OverflowError:
        return math.inf


def _exact_set_cover(masks: list[int], universe: int, stats: dict | None = None) -> list[int]:
    """Indices of a minimum-size subfamily of ``masks`` covering ``universe``.

    Greedy seeding provides the initial upper bound; branch and bound on the
    least-covered element makes the result exact.  A node is pruned when a
    lower bound on the sets it still needs leaves no room below the best
    cover: the larger of ceil(|uncovered| / largest set) and a packing
    count, the uncovered elements (fewest candidate sets first) that share
    no candidate set with one counted before, each needing its own set.
    Both bounds are admissible, so a node that leads to a smaller cover is
    never pruned: the best cover improves at the same points of the same
    depth-first order, and the result is the first minimum cover in that
    order, as with the ceil bound alone, while the nodes visited are a
    subset of its nodes.  When greedy already meets the ceil bound, the
    search would prune at the root, so greedy is returned before the
    search tables are built.  Those tables take O(sets x universe) bits,
    and each rank's packing mask is built when a count first reaches that
    rank, so no table grows with the square of the universe.

    ``stats``, when given, receives the number of search nodes visited
    (0 for that early exit) under ``"nodes"``.
    """
    if not masks:
        raise DomainError("no candidate sets to cover the universe with")
    full = (1 << universe) - 1

    # Greedy upper bound.
    greedy: list[int] = []
    uncovered = full
    while uncovered:
        i = max(range(len(masks)), key=lambda j: (masks[j] & uncovered).bit_count())
        if masks[i] & uncovered == 0:
            raise DomainError("candidate set cannot cover the universe")
        greedy.append(i)
        uncovered &= ~masks[i]
    max_size = max(m.bit_count() for m in masks)
    if not greedy or len(greedy) <= -(-universe // max_size):
        if stats is not None:
            stats["nodes"] = 0
        return greedy
    best = greedy

    # Rank the elements by (candidate sets covering them, index) and
    # renumber each mask's bits to match: the lowest uncovered bit is then
    # the uncovered element with the fewest candidate sets, lowest first.
    width = -(-universe // 8)
    raw = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(len(masks), width), axis=1, count=universe, bitorder="little")
    counts = bits.sum(axis=0)
    order = np.argsort(counts, kind="stable")
    ranked, packed = _pack_rows(len(masks), universe, lambda out: np.take(bits.view(bool), order, axis=1, out=out))
    # branches[j]: the sets holding the element of rank j, in index order.
    flat = np.nonzero(ranked.T)[1].tolist()
    ends = np.cumsum(np.sort(counts)).tolist()
    branches = [flat[lo:hi] for lo, hi in zip([0, *ends], ends)]
    rest = [~m for m in _packed_ints(packed)]
    # apart[j]: the elements that share no candidate set with rank j, the
    # AND of rest over branches[j]; each is built when a count first reaches
    # rank j, so the table grows with the ranks visited.
    apart: list[int | None] = [None] * universe
    chosen: list[int] = []
    nodes = 0

    def search(uncovered: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if uncovered == 0:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        room = len(best) - len(chosen)
        if (uncovered.bit_count() + max_size - 1) // max_size >= room:
            return
        left, apart_count = uncovered, 0
        while left:
            apart_count += 1
            if apart_count >= room:
                return
            j = (left & -left).bit_length() - 1
            clear = apart[j]
            if clear is None:
                clear = apart[j] = functools.reduce(operator.and_, (rest[i] for i in branches[j]))
            left &= clear
        # Branch on the uncovered element with the fewest candidate sets.
        for i in branches[(uncovered & -uncovered).bit_length() - 1]:
            chosen.append(i)
            search(uncovered & rest[i])
            chosen.pop()

    search(full)
    if stats is not None:
        stats["nodes"] = nodes
    return best


def _pack_rows(n_rows: int, width: int, write: Callable[[np.ndarray], Any]) -> tuple[np.ndarray, np.ndarray]:
    """A ``(n_rows, width)`` bool matrix that ``write`` fills in place, and
    its rows packed as ``np.packbits(matrix, axis=1, bitorder="little")``
    packs them.

    The matrix is the leading columns of a zero-padded one whose rows are
    whole bytes, so that one flat ``np.packbits`` packs every row: on narrow
    rows the ``axis=1`` form takes a slow path.
    """
    bits = np.zeros((n_rows, -(-width // 8) * 8), dtype=bool)
    matrix = bits[:, :width]
    write(matrix)
    return matrix, np.packbits(bits, bitorder="little").reshape(n_rows, bits.shape[1] // 8)


# Each byte with its two nibbles swapped.
_NIBBLE_SWAP = np.array([(b & 15) << 4 | b >> 4 for b in range(256)], dtype=np.uint8)

# Cells of one (rows x level rows x words) block of the dominance test.
_DOMINANCE_CELLS = 2**15


def _packed_ints(packed: np.ndarray) -> list[int]:
    """Each row of a little-endian ``np.packbits`` matrix as an int, column
    k at bit k."""
    raw, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]


def _first_of_unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the first occurrence of each distinct row of a ``uint8``
    matrix, with the rows in byte-lexicographic order, and those rows as
    ``uint64`` words.

    The rows are zero-padded to whole 64-bit words read big-endian, so that
    comparing words compares the bytes in order; the sort is stable, so the
    first row of each run of equal rows is its first occurrence.
    """
    n_rows, width = rows.shape
    padded = np.zeros((n_rows, -(-width // 8) * 8), dtype=np.uint8)
    padded[:, :width] = rows
    words = padded.view(">u8").astype(np.uint64)
    order = np.lexsort(words.T[::-1])
    ordered = words[order]
    starts = np.ones(n_rows, dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order[starts], ordered[starts]


def _maximal_rows(words: np.ndarray) -> np.ndarray:
    """Ascending indices of the rows of a ``uint64`` word matrix of distinct
    bit rows that no other row contains.

    Each step keeps every remaining row at the top remaining popcount: no
    remaining row has more bits, and distinct rows of one popcount do not
    contain each other, so each is maximal.  It then drops every remaining
    row that one of them contains, in blocks of at most
    ``_DOMINANCE_CELLS`` (row, level row, word) cells.  A dropped row lies
    inside a kept one, so the rows kept are exactly the maximal rows.
    """
    # An int64 sum: negating an unsigned count would wrap.
    counts = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    left = np.argsort(-counts, kind="stable")
    rows, counts = words[left], counts[left]
    kept = []
    while len(left):
        top = int(np.count_nonzero(counts == counts[0]))
        kept.append(left[:top])
        level = ~rows[:top]
        left, rows, counts = left[top:], rows[top:], counts[top:]
        step = max(1, _DOMINANCE_CELLS // max(1, rows.size))
        outside = np.ones(len(left), dtype=bool)
        for k in range(0, top, step):
            outside &= (rows[:, None, :] & level[None, k : k + step, :]).any(axis=2).all(axis=1)
        left, rows, counts = left[outside], rows[outside], counts[outside]
    return np.sort(np.concatenate(kept))


class CoverSearch:
    """Reusable minimal-cover search on one (family, covariate tree) pair.

    Candidate covers are selector trees: each node label is some predictor's
    value at that node.  The restriction keeps the search finite; it can
    overstate the unrestricted minimum by at most a doubling of the scale,
    which is why combinatorial comparisons are asserted at scale ``2 beta``.
    The per-node label differences are shared across scales and norms.

    Candidate tree ``k`` is the mixed-radix number, root first, of its label
    digits at the nodes with two or more labels.  The last sign of a path
    meets no node, so the two paths that differ only there have equal
    deviations, and the search keeps one column per such pair of paths.
    The first solve at each norm builds, and the search keeps, a float64
    deviation matrix of ``total x |F| 2^(n-1)`` cells (``total`` candidate
    trees against every (predictor, path pair)); every later solve at that
    norm thresholds it into a padded bool matrix and packs its rows with
    :func:`_pack_rows`.  The matrix comes from the tree's product
    structure: each node's (label x predictor) term is laid out over one
    axis per numbered node (its labels on its own axis), each prefix is
    folded once from its parent prefix over the label axes it has met, and
    each leaf node's fold fills the column of the two paths through it.
    ``guard`` bounds ``total x |F| 2^n``, twice the matrix's cell count.

    A solve keeps one representative of each distinct coverage row (its
    first candidate tree), then the maximal rows by array elimination on
    the rows' 64-bit words, one popcount level at a time, then runs
    :func:`_exact_set_cover` on those, over the path pairs.  Every set
    covers both paths of a pair or neither, so halving the universe halves
    every set, the greedy counts and both pruning bounds alike, and keeps
    each element's rank: the picks and the nodes visited are those of the
    full universe, and each pair's owner goes to both its paths.  The rows
    are ordered as the full-width rows' packed bytes would be, which is the
    order of the half-width bytes with their nibbles swapped.  The maximal
    rows, their order and their representatives are the ones the pairwise
    filter kept, and the set cover returns the first minimum cover of the
    same depth-first order whatever its pruning bounds; so the size, the
    trees and the certificate depend only on the coverage matrix.

    Reports are reused by coverage: the search keeps each minimum cover it
    finds, keyed on the packed bytes of its coverage matrix (which
    candidate tree covers which path pair).  Scales of one threshold class, at
    either norm, give the same matrix, so a repeat skips the dedup, the
    dominance filter and the branch and bound, and returns a new report
    with its own ``beta`` and ``norm`` and a copy of the certificate.
    ``memo``, a dict that several searches may share (one check run, say),
    extends this across searches: on a matrix new to this search, it is
    looked up by the matrix's shape and packed bytes for the label-free
    solution (the chosen candidate indices, each pair's owner among them
    and the stats) that a search sharing it found, and the trees are then
    built from this search's own labels.  A miss solves the matrix and
    stores its solution there (in a memo of the search's own when none is
    given).  Reports are the same with or without a shared memo.

    Each report's ``stats`` holds ``candidates`` (candidate trees),
    ``unique_rows`` and ``maximal_rows`` (of the coverage matrix), ``nodes``
    (branch-and-bound nodes this solve visited) and ``reused`` (True, with
    0 nodes, when the matrix was solved before, by this search or through
    the memo).
    """

    def __init__(
        self,
        family: FiniteTableFamily,
        x: LabeledTree,
        guard: float = COVER_CELL_GUARD,
        memo: dict | None = None,
    ):
        self.family = _require_finite_table(family)
        self.x = x
        self.memo = {} if memo is None else memo
        n = x.depth
        self.n = n
        self.n_f = family.n_predictors
        if n == 0 or self.n_f == 0:
            return
        self.offsets = [2 ** (t - 1) - 1 for t in range(1, n + 2)]
        fvals = [family.evaluate_all(label) for level in x.levels for label in level]
        cands = [np.unique(fv) for fv in fvals]
        dims = [len(c) for c in cands]
        total = math.prod(dims)
        cells = total * self.n_f * 2**n
        if cells > guard:
            raise ResourceGuardError(
                "cover deviation matrix above the guard", size_estimate=float(cells)
            )
        self.total = total
        # A node with one label takes no digit and no axis: numpy takes at
        # most 64 axes and a tree of depth 7 already has 127 nodes, but each
        # radix at least doubles the candidate count, so the guard keeps
        # them few.
        self.radixes = [d for d in dims if d > 1]
        self.labels = [c.tolist() for c in cands]
        # Node nd's (label x predictor) differences, shaped to broadcast over
        # one axis per numbered node (its own axis, if any, holds its labels).
        self.diffs = []
        axis = 0
        for c, fv in zip(cands, fvals):
            shape = [1] * len(self.radixes) + [self.n_f]
            if len(c) > 1:
                shape[axis], axis = len(c), axis + 1
            self.diffs.append((c[:, None] - fv[None, :]).reshape(shape))
        self.pairs = list(itertools.product(range(self.n_f), itertools.product((-1, 1), repeat=n)))
        self._deviations: dict[str, np.ndarray] = {}
        self._reports: dict[bytes, tuple[int, tuple[LabeledTree, ...], dict, dict]] = {}

    def _deviation(self, norm: str) -> np.ndarray:
        """(total, |F| 2^(n-1)) deviations of each candidate tree from each
        (predictor, path pair): the max |dev| over the pair's nodes for
        linf, the sum of squared deviations in node order for l2.  Column
        ``h 2^(n-1) + j`` stands for predictor ``h`` on paths ``2j`` and
        ``2j + 1`` of ``itertools.product((-1, 1), repeat=n)``, which differ
        only in the last sign.

        Each prefix (heap node ``i``) is folded once from its parent prefix
        ``i >> 1``, starting at 0.0, over the label axes of the nodes it has
        met.  The last sign meets no node, so each leaf node's fold is the
        column of both paths through it.
        """
        dev = self._deviations.get(norm)
        if dev is None:
            combine = np.maximum if norm == "linf" else np.add
            leaves = 2 ** (self.n - 1)
            dev = np.empty((self.total, self.n_f * leaves))
            paths = dev.reshape(*self.radixes, self.n_f, leaves)
            stack = [(1, 0.0)]
            while stack:
                i, acc = stack.pop()
                diff = self.diffs[i - 1]
                fold = combine(acc, np.abs(diff) if norm == "linf" else diff**2)
                if i < leaves:
                    stack += ((2 * i + 1, fold), (2 * i, fold))
                else:
                    paths[..., i - leaves] = fold
            self._deviations[norm] = dev
        return dev

    def solve(self, beta: float, norm: str) -> CoverReport:
        if not beta > 0:
            raise DomainError(f"cover scale must be positive, got {beta}")
        if norm not in ("linf", "l2"):
            raise DomainError(f"norm must be 'linf' or 'l2', got {norm!r}")
        n, n_f = self.n, self.n_f
        if n == 0 or n_f == 0:
            empty_tree = LabeledTree([])
            cert = {(h, ()): 0 for h in range(n_f)} if n == 0 and n_f else {}
            size = 1 if n_f else 0
            stats = dict(candidates=size, unique_rows=size, maximal_rows=size, nodes=0, reused=False)
            return CoverReport(beta, norm, size, (empty_tree,) * size, cert, stats)

        limit = beta + _EPS if norm == "linf" else _l2_limit(n, beta)
        dev = self._deviation(norm)
        covered, packed = _pack_rows(*dev.shape, lambda out: np.less_equal(dev, limit, out=out))
        key = packed.tobytes()
        found = self._reports.get(key)
        if found is None:
            found = self._reports[key] = self._cover(covered, packed, key)
            stats = dict(found[3])
        else:
            stats = {**found[3], "nodes": 0, "reused": True}
        size, cover_trees, certificate, _ = found
        return CoverReport(beta, norm, size, cover_trees, dict(certificate), stats)

    def _cover(self, covered: np.ndarray, packed: np.ndarray, key: bytes):
        """Size, trees, certificate and stats of a minimum cover for one
        coverage matrix, ``covered`` (candidate tree x path pair), its packed rows
        and their bytes ``key``.  The trees come from this search's labels;
        the rest of the solution from :meth:`_solution`, or from the shared
        memo when a search holding it has covered the same matrix."""
        found = self.memo.get((covered.shape, key))
        if found is None:
            found = self.memo[covered.shape, key] = self._solution(covered, packed)
            stats = found[2]
        else:
            stats = {**found[2], "nodes": 0, "reused": True}
        picks, owners, _ = found
        digits = iter(np.unravel_index(picks, self.radixes or [1]))
        # Each node's label index in each chosen tree.
        node_digits = [next(digits).tolist() if len(c) > 1 else [0] * len(picks) for c in self.labels]
        cover_trees = []
        for tree in zip(*node_digits):
            labels = [c[k] for c, k in zip(self.labels, tree)]
            cover_trees.append(LabeledTree([labels[lo:hi] for lo, hi in zip(self.offsets, self.offsets[1:])]))
        return len(picks), tuple(cover_trees), dict(zip(self.pairs, owners)), stats

    def _solution(self, covered: np.ndarray, packed: np.ndarray) -> tuple[list[int], list[int], dict]:
        """The label-free part of a minimum cover: the chosen candidate
        trees' indices, the owner (index into the chosen) of each
        (predictor, path) pair and the stats, all fixed by the coverage
        matrix alone."""
        # Swapped nibbles order the rows as their full-width bytes would be.
        first_idx, words = _first_of_unique_rows(_NIBBLE_SWAP[packed])
        # Keep only maximal rows: a dominated set can always be swapped out.
        reps = first_idx[_maximal_rows(words)].tolist()
        masks = _packed_ints(packed[reps])

        stats = dict(
            candidates=self.total, unique_rows=len(first_idx), maximal_rows=len(reps), reused=False
        )
        picks = [reps[ci] for ci in _exact_set_cover(masks, covered.shape[1], stats)]
        # Each path pair goes to the first chosen tree that covers it.
        chosen_rows = covered[picks]
        if not chosen_rows.any(axis=0).all():
            raise DomainError("internal cover search error: uncovered pair")
        return picks, np.repeat(chosen_rows.argmax(axis=0), 2).tolist(), stats


def seq_cover_number(
    family: FiniteTableFamily,
    x: LabeledTree,
    beta: float,
    norm: str = "linf",
    guard: float = COVER_CELL_GUARD,
) -> CoverReport:
    """Smallest selector-tree cover of the family on tree ``x`` at scale
    ``beta``, by greedy seeding plus exact branch and bound.  Use
    :class:`CoverSearch` directly to amortize the setup across scales."""
    return CoverSearch(family, x, guard).solve(beta, norm)


# ---------------------------------------------------------------------------
# Fat-shattering dimension
# ---------------------------------------------------------------------------


@dataclass
class ShatterCertificate:
    """A shattered covariate tree with its witness and path selectors."""

    depth: int
    covariate_tree: LabeledTree
    witness: LabeledTree
    selectors: dict[SignPath, int]
    beta: float

    def validate(self, family: FiniteTableFamily) -> bool:
        """Whether every one of the 2^depth sign paths, and nothing else,
        has a selector, a predictor handle of ``family`` on the path's side
        of each witness label by ``beta / 2``."""
        if self.selectors.keys() != set(itertools.product((-1, 1), repeat=self.depth)):
            return False
        for path, handle in self.selectors.items():
            if not (isinstance(handle, int) and 0 <= handle < family.n_predictors):
                return False
            fn = family.predictor(handle)
            for t in range(1, self.depth + 1):
                gap = path[t - 1] * (
                    fn(self.covariate_tree.label_at(t, path))
                    - self.witness.label_at(t, path)
                )
                if gap < self.beta / 2.0 - _EPS:
                    return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "depth": self.depth,
            "beta": self.beta,
            "covariate_tree": [list(l) for l in self.covariate_tree.levels],
            "witness": [list(l) for l in self.witness.levels],
            "selectors": [
                {"path": list(p), "predictor": h} for p, h in sorted(self.selectors.items())
            ],
        }


def _witness_candidates(values: np.ndarray, extra: Sequence[float]) -> list[float]:
    """Midpoints of achievable value pairs, the values themselves, and any
    configured extra grid; a shattering witness can be normalized to these."""
    vals = sorted(set(float(v) for v in values))
    cands = set(vals)
    for a, b in itertools.combinations(vals, 2):
        cands.add((a + b) / 2.0)
    cands.update(float(e) for e in extra)
    return sorted(cands)


def _bitmask(rows: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an int with bit ``j`` set at column ``j``."""
    return [int.from_bytes(row.tobytes(), "little") for row in np.packbits(rows, axis=1, bitorder="little")]


def _shattering_estimate(n_predictors: int, choices: int, max_depth: int) -> int:
    """The work of :func:`_shattering_search` over ``choices`` (covariate,
    witness) pairs: the memo entries it can reach, each scanning every
    choice.  An entry at remaining depth ``k`` is reached from a call at
    depth ``k + j`` (``j = 0 .. max_depth - k``) by ``j`` splits, each one of
    ``2 choices`` sides, and its alive word is one of ``2^|F|``."""
    words, reach, entries = 1 << n_predictors, 0, 0
    for _ in range(max_depth):
        # From k = max_depth down: sum_{j <= max_depth - k} (2 choices)^j, capped.
        reach = min(words, 1 + 2 * choices * reach)
        entries += reach
    return choices * entries


def _shattering_search(
    covariates: Sequence[Any],
    values: Sequence[np.ndarray],
    witnesses: Sequence[Sequence[float]],
    half: float,
    max_depth: int,
) -> tuple[int, Callable[[int, int], tuple[Any, float, int, int] | None]]:
    """Largest depth ``d <= max_depth`` at which some tree over
    ``covariates`` is shattered at margin ``half`` around witnesses drawn
    from ``witnesses`` (one list per covariate, ``values`` the predictors'
    values there), and the search's ``choose(alive, k)``.

    Predictor sets are bit words: bit ``f`` stands for predictor ``f``.
    Each (covariate, witness) choice is built once, in covariate then
    witness order, as the predictors at least ``half`` above the witness
    and those at least ``half`` below it; a choice with either side empty
    can split no set and is dropped.  ``choose(alive, k)`` returns the first
    choice that splits ``alive`` into two sets each shattering ``k - 1``
    more levels, as ``(covariate, witness, plus, minus)``, or None; it is
    memoized on ``(alive, k)`` (its ``cache_info`` counts the entries).
    """
    choices = []
    for xv, fv, ws in zip(covariates, values, witnesses):
        w = np.asarray(ws, dtype=float)[:, None]
        pluses = _bitmask(fv[None, :] - w >= half)
        minuses = _bitmask(w - fv[None, :] >= half)
        choices.extend(
            (xv, s, plus, minus) for s, plus, minus in zip(ws, pluses, minuses) if plus and minus
        )

    @functools.cache
    def choose(alive: int, k: int):
        for choice in choices:
            plus = alive & choice[2]
            if not plus:
                continue
            minus = alive & choice[3]
            if minus and (k == 1 or (choose(plus, k - 1) and choose(minus, k - 1))):
                return choice
        return None

    everyone = (1 << len(values[0])) - 1
    depth = 0
    while depth < max_depth and choose(everyone, depth + 1):
        depth += 1
    return depth, choose


def fat_shattering(
    family: FiniteTableFamily,
    covariate_set: Sequence[Any] | None = None,
    beta: float = 1.0,
    max_depth: int = 8,
    extra_witness_grid: Sequence[float] = (),
    guard: float = FAT_SEARCH_GUARD,
) -> tuple[int, ShatterCertificate | None]:
    """Largest depth ``d <= max_depth`` at which some covariate tree is
    shattered at margin ``beta / 2`` around a witness tree, with certificate.

    The search is exhaustive over covariate labels and normalized witness
    labels; feasible predictor sets are tracked per path prefix as bit
    words, so the recursion memoizes on (alive predictors, remaining depth).
    """
    family = _require_finite_table(family)
    if not beta > 0:
        raise DomainError(f"shattering scale must be positive, got {beta}")
    xs = tuple(covariate_set) if covariate_set is not None else family.covariate_ids
    if not xs:
        raise DomainError("covariate set must be nonempty")
    vals = [family.evaluate_all(xv) for xv in xs]
    witness = [_witness_candidates(fv, extra_witness_grid) for fv in vals]
    est = _shattering_estimate(family.n_predictors, len(xs) * max(len(w) for w in witness), max_depth)
    if est > guard:
        raise ResourceGuardError("shattering search above the guard", size_estimate=float(est))

    depth, choose = _shattering_search(xs, vals, witness, beta / 2.0 - _EPS, max_depth)
    if depth == 0:
        return 0, None

    # Reconstruct one shattered tree by replaying the recorded choices.
    cov_levels: list[list[Any]] = [[None] * 2 ** (t - 1) for t in range(1, depth + 1)]
    wit_levels: list[list[float]] = [[0.0] * 2 ** (t - 1) for t in range(1, depth + 1)]
    selectors: dict[SignPath, int] = {}

    def build(alive: int, t: int, prefix: SignPath) -> None:
        xv, s, plus, minus = choose(alive, depth - t + 1)
        idx = prefix_index(prefix)
        cov_levels[t - 1][idx] = xv
        wit_levels[t - 1][idx] = s
        plus &= alive
        minus &= alive
        if t == depth:
            # Any predictor still alive at the leaf satisfies the margin
            # constraint at every level of its path; take the lowest.
            for sign, group in ((-1, minus), (1, plus)):
                selectors[prefix + (sign,)] = (group & -group).bit_length() - 1
        else:
            build(minus, t + 1, prefix + (-1,))
            build(plus, t + 1, prefix + (1,))

    build((1 << family.n_predictors) - 1, 1, ())
    cert = ShatterCertificate(
        depth=depth,
        covariate_tree=LabeledTree(cov_levels),
        witness=LabeledTree(wit_levels),
        selectors=selectors,
        beta=beta,
    )
    return depth, cert


def cover_fat_bound(beta: float, n: int, fat: int) -> float:
    """Combinatorial bound ``(2 e n / beta) ** fat`` on the pointwise-scale
    sequential covering number of a [-1, 1]-valued class."""
    if fat == 0:
        return 1.0
    return (2.0 * math.e * n / beta) ** fat


# ---------------------------------------------------------------------------
# Chaining bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerLogCover:
    """The log covering number ``coef * delta ** -p``; a constant is ``p = 0``.
    Its ``sqrt_integral(a, b)`` over ``0 < a <= b`` is ``(b^q - a^q) / q``
    times ``sqrt(max(coef, 0))``, with ``q = 1 - p/2``, through ``expm1`` so
    that ``p`` near 2 keeps its digits, and ``log(b/a)`` at ``q = 0``."""

    coef: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.coef) and math.isfinite(self.p)):
            raise DomainError(f"power log cover needs a finite coef and p, got {self.coef} and {self.p}")

    def __call__(self, delta: float) -> float:
        try:
            return self.coef * delta**-self.p
        except OverflowError:
            raise DomainError(f"{self!r} at delta={delta} overflows a float") from None

    def sqrt_integral(self, a: float, b: float) -> float:
        root = math.sqrt(max(self.coef, 0.0))
        q = 1.0 - 0.5 * self.p
        if q == 0.0 or root == 0.0:
            return root * math.log(b / a)
        try:
            return root * a**q * math.expm1(q * math.log(b / a)) / q
        except OverflowError:
            raise DomainError(f"entropy integral of {self!r} over [{a}, {b}] overflows a float") from None


@dataclass(frozen=True)
class StaircaseLogCover:
    """A piecewise-constant log covering number: ``logs[i]`` from
    ``deltas[i]`` up to the next step, and ``logs[0]`` below ``deltas[0]``.
    Over exact cover sizes at grid scales (nonincreasing in the scale) it
    dominates the true one.  ``sqrt_integral(a, b)`` sums each step's overlap
    with [a, b] times the root of its value clamped at 0."""

    deltas: tuple[float, ...]
    logs: tuple[float, ...]

    def __post_init__(self):
        deltas, logs = tuple(self.deltas), tuple(self.logs)
        if not deltas or len(deltas) != len(logs) or not all(map(math.isfinite, deltas + logs)):
            raise DomainError(f"staircase needs one finite log per finite step, got {deltas} and {logs}")
        if deltas[0] <= 0 or any(lo >= hi for lo, hi in zip(deltas, deltas[1:])):
            raise DomainError(f"staircase steps must be positive and strictly increasing, got {deltas}")
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "logs", logs)

    def __call__(self, delta: float) -> float:
        return self.logs[max(bisect_right(self.deltas, delta) - 1, 0)]

    def sqrt_integral(self, a: float, b: float) -> float:
        edges = (-math.inf,) + self.deltas[1:] + (math.inf,)
        return math.fsum(
            max(0.0, min(b, hi) - max(a, lo)) * math.sqrt(max(v, 0.0))
            for lo, hi, v in zip(edges, edges[1:], self.logs)
        )


def dudley_bound(log_cover: PowerLogCover | StaircaseLogCover, n: int, rho: float, gamma: float) -> float:
    """``4 rho n + 12 sqrt(n) int_rho^gamma sqrt(log N(delta)) d delta``, exactly."""
    if not (math.isfinite(rho) and math.isfinite(gamma)):
        raise DomainError(f"scales must be finite, got rho={rho} and gamma={gamma}")
    if rho <= 0:
        raise DomainError(f"lower scale must be positive, got {rho}")
    if gamma < rho:
        raise DomainError(f"upper scale {gamma} below lower scale {rho}")
    return 4.0 * rho * n + 12.0 * math.sqrt(n) * log_cover.sqrt_integral(rho, gamma)


# ---------------------------------------------------------------------------
# Rate formulas
# ---------------------------------------------------------------------------


def _check_rate_args(p: float, r: float, n: int = 2) -> None:
    """The rate formulas' shared argument checks (``n`` only where given)."""
    if p <= 0:
        raise DomainError(f"entropy exponent must be positive, got {p}")
    if r < 2:
        raise DomainError(f"curvature power must be >= 2, got {r}")
    if n < 2:
        raise DomainError(f"horizon must be >= 2, got {n}")


def rate_exponent(p: float, r: float = 2.0) -> float:
    """Power of n in the per-round minimax rate for entropy exponent ``p``
    and curvature power ``r`` (identical for the upper and lower formulas)."""
    _check_rate_args(p, r)
    if p < 2:
        return -r / (2.0 * (r - 1.0) + p)
    if p == 2:
        return -0.5
    return -1.0 / p


def rate_upper(
    p: float,
    r: float,
    G: float,
    K: float,
    n: int,
    with_log: bool = True,
) -> float:
    """Per-round upper rate for entropy exponent ``p`` and minorant
    ``K * t**r``.

    Below the critical exponent the rate is the better of the
    curvature-driven bound and the curvature-free ``G sqrt(log n / n)``
    bound; above it the curvature no longer helps.  ``with_log=False`` drops
    the logarithmic factors (used when extracting pure power-law slopes).
    """
    _check_rate_args(p, r, n)
    log_n = math.log(n)
    if p < 2:
        denom = 2.0 * (r - 1.0) + p
        if K > 0:
            curved = (
                n ** (-r / denom)
                * G ** (2.0 * r / denom)
                * K ** (-(2.0 - p) / denom)
                * (log_n if with_log else 1.0)
            )
        else:
            curved = math.inf
        flat = G * (math.sqrt(log_n) if with_log else 1.0) * n**-0.5
        return min(curved, flat)
    if p == 2:
        # The massive-class bound picks up an extra log factor right at the
        # phase transition.
        return G * n**-0.5 * (math.sqrt(log_n) * log_n if with_log else 1.0)
    return G * n ** (-1.0 / p) * (math.sqrt(log_n) if with_log else 1.0)


def rate_lower(
    p: float,
    r: float,
    R: float,
    K: float,
    n: int,
) -> float:
    """Per-round lower rate matching :func:`rate_upper` in its n-exponent."""
    _check_rate_args(p, r, n)
    if p <= 2:
        denom = 2.0 * (r - 1.0) + p
        if K > 0:
            curved = (
                n ** (-r / denom)
                * R ** (2.0 * r / denom)
                * K ** (-(2.0 - p) / denom)
            )
        else:
            curved = math.inf
        flat = R * n**-0.5
        return min(curved, flat)
    return (R / 2.0) * n ** (-1.0 / p)


def sparse_cover_bound(M: int, s: int, beta: float) -> float:
    """Log covering bound for convex combinations of at most ``s`` of ``M``
    bounded base functions: ``s log(e M / s) + s log(1 / beta)``."""
    if not 1 <= s <= M:
        raise DomainError(f"sparsity {s} must lie in [1, {M}]")
    if beta <= 0:
        raise DomainError(f"cover scale must be positive, got {beta}")
    return s * math.log(math.e * M / s) + s * math.log(1.0 / beta)


# ---------------------------------------------------------------------------
# Khinchine
# ---------------------------------------------------------------------------


def khinchine_lower_bound(k: int, guard: int = 4096) -> tuple[float, bool]:
    """Exact ``E |eps_1 + ... + eps_k|`` and whether it is >= sqrt(k / 2).

    The expectation enumerates the sign vectors grouped by their number of
    +1 entries, in integer arithmetic, so the returned dyadic value is exact.
    The k + 1 terms have about k bits each, so the sum costs about k^2 bit
    operations; at the default ``guard`` it takes about 1 s (0.02 s at
    k = 1000) on a 2-core Xeon with Python 3.11.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if k > guard:
        raise ResourceGuardError(
            f"exact enumeration limited to k <= {guard}", size_estimate=float(k + 1)
        )
    numer = sum(math.comb(k, i) * abs(2 * i - k) for i in range(k + 1))
    value = numer / 2**k
    return value, value >= math.sqrt(k / 2.0)


__all__ = [
    "CoverReport",
    "ShatterCertificate",
    "seq_rademacher",
    "offset_tree_max",
    "offset_rademacher",
    "offset_rademacher_sup",
    "finite_class_offset_bound",
    "finite_class_linear_bound",
    "seq_cover_number",
    "fat_shattering",
    "cover_fat_bound",
    "PowerLogCover",
    "StaircaseLogCover",
    "dudley_bound",
    "rate_exponent",
    "rate_upper",
    "rate_lower",
    "sparse_cover_bound",
    "khinchine_lower_bound",
]
