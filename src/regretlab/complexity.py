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
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .comparators import FiniteTableFamily
from .errors import DomainError, ResourceGuardError, ShapeError
from .scalarmin import adaptive_simpson, minimize_log_axis
from .trees import INDUCTION_CELL_GUARD, PATH_FOLD_GUARD, LabeledTree, SignPath, all_paths
from .trees import backward_induction, path_fold, prefix_index

COVER_CELL_GUARD = 2**22  # float64 cells in one norm's cover deviation matrix (32 MiB)
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


def seq_rademacher(
    family: FiniteTableFamily, x: LabeledTree, guard: float = PATH_FOLD_GUARD
) -> float:
    """Exact sequential Rademacher complexity of a finite family on tree ``x``:
    the mean over all sign paths of ``max_f sum_t eps_t f(x_t(eps))``.
    ``guard`` bounds the |F| 2^n cells of the per-path sums."""
    family = _require_finite_table(family)
    n = x.depth
    if n == 0:
        return 0.0
    sums = path_fold(_signed_terms(family, x), n, guard=guard)
    return math.fsum(sums.max(axis=0).tolist()) / 2.0**n


def seq_rademacher_mc(
    family: FiniteTableFamily,
    x: LabeledTree,
    n_samples: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of :func:`seq_rademacher` for depths past the
    exact guard.  Returns ``(estimate, standard_error)``; the generator is
    PCG64 seeded with ``seed`` so runs are reproducible."""
    family = _require_finite_table(family)
    rng = np.random.Generator(np.random.PCG64(seed))
    n = x.depth
    signs = rng.choice((-1, 1), size=(n_samples, n))
    draws = path_fold(_signed_terms(family, x), n, signs=signs).max(axis=0) if n else np.zeros(n_samples)
    est = float(draws.mean())
    stderr = float(draws.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else math.inf
    return est, stderr


def offset_tree_max(
    trees: Sequence[LabeledTree],
    C: float,
    offset: Callable[[float], float],
    guard: float = PATH_FOLD_GUARD,
) -> float:
    """Exact ``E max_w sum_t [2C eps_t w_t(eps) - offset(w_t(eps))]`` over an
    explicit finite collection of real-valued trees."""
    n, levels = _collection_levels(trees)
    if n == 0:
        return 0.0
    sums = path_fold((_offset_terms(vals, C, offset) for vals in levels), n, guard=guard)
    return math.fsum(sums.max(axis=0).tolist()) / 2.0**n


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
    n = x.depth
    if n == 0:
        return 0.0
    terms = (
        _offset_terms(vals - np.asarray(means, dtype=float), C, offset)
        for vals, means in zip(_level_values(family, x), mu.levels)
    )
    sums = path_fold(terms, n, guard=guard)
    return math.fsum(sums.max(axis=0).tolist()) / 2.0**n


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
    ``cover`` of the tree within ``beta`` of that evaluation.
    """

    beta: float
    norm: str
    size: int
    cover: tuple[LabeledTree, ...]
    certificate: dict[tuple[int, SignPath], int] = field(repr=False)

    def validate(self, family: FiniteTableFamily, x: LabeledTree) -> bool:
        n = x.depth
        for (handle, path), vi in self.certificate.items():
            v = self.cover[vi]
            fn = family.predictor(handle)
            devs = [
                abs(fn(x.label_at(t, path)) - v.label_at(t, path))
                for t in range(1, n + 1)
            ]
            if self.norm == "linf":
                if max(devs) > self.beta + _EPS:
                    return False
            else:
                if math.fsum(d * d for d in devs) > n * self.beta**2 + _EPS:
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


def _exact_set_cover(masks: list[int], universe: int) -> list[int]:
    """Indices of a minimum-size subfamily of ``masks`` covering ``universe``.

    Greedy seeding provides the initial upper bound; branch and bound on the
    least-covered element makes the result exact.
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
    best = list(greedy)

    covers_elem = [[i for i, m in enumerate(masks) if m >> e & 1] for e in range(universe)]
    max_size = max(m.bit_count() for m in masks)
    # Number the elements by (candidate sets covering them, index) and
    # renumber each mask's bits to match: the lowest uncovered bit is then
    # the uncovered element with the fewest candidate sets, lowest first.
    order = sorted(range(universe), key=lambda e: (len(covers_elem[e]), e))
    ranked = [0] * len(masks)
    for j, e in enumerate(order):
        for i in covers_elem[e]:
            ranked[i] |= 1 << j
    rest = [~m for m in ranked]
    branches = [covers_elem[e] for e in order]
    chosen: list[int] = []

    def search(uncovered: int) -> None:
        nonlocal best
        if uncovered == 0:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        need = (uncovered.bit_count() + max_size - 1) // max_size
        if len(chosen) + need >= len(best):
            return
        # Branch on the uncovered element with the fewest candidate sets.
        for i in branches[(uncovered & -uncovered).bit_length() - 1]:
            chosen.append(i)
            search(uncovered & rest[i])
            chosen.pop()

    search(full)
    return best


def _first_of_unique_rows(rows: np.ndarray) -> np.ndarray:
    """Index of the first occurrence of each distinct row of a ``uint8``
    matrix, with the rows in byte-lexicographic order.

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
    return order[starts]


class CoverSearch:
    """Reusable minimal-cover search on one (family, covariate tree) pair.

    Candidate covers are selector trees: each node label is some predictor's
    value at that node.  The restriction keeps the search finite; it can
    overstate the unrestricted minimum by at most a doubling of the scale,
    which is why combinatorial comparisons are asserted at scale ``2 beta``.
    The per-node value tables and the candidate enumeration are shared
    across scales and norms.

    The first solve at each norm builds, and the search keeps, a float64
    deviation matrix of ``total x |F| 2^n`` cells (``total`` candidate
    trees against every (predictor, sign path) pair); every later solve at
    that norm thresholds it.  ``guard`` bounds that cell count.

    Reports are reused by coverage: the search keeps each minimum cover it
    finds, keyed on the packed bytes of its coverage matrix (which
    candidate tree covers which pair).  Scales of one threshold class, at
    either norm, give the same matrix, so a repeat skips the dedup, the
    dominance filter and the branch and bound, and returns a new report
    with its own ``beta`` and ``norm`` and a copy of the certificate.
    """

    def __init__(
        self,
        family: FiniteTableFamily,
        x: LabeledTree,
        guard: float = COVER_CELL_GUARD,
    ):
        self.family = _require_finite_table(family)
        self.x = x
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
        self.total, self.guard = total, guard
        # Row nd * width + k of the node tables describes node nd's k-th
        # candidate label; rows past a node's candidate count are padding.
        # Each candidate tree is the table row it picks at every node.
        width = max(dims)
        self.choice = np.stack(
            np.unravel_index(np.arange(total), dims), axis=1
        ) + width * np.arange(len(dims))  # (total, n_nodes)
        self.node_labels = [0.0] * (len(dims) * width)
        self.node_diff = np.zeros((len(dims) * width, self.n_f))
        for nd, (c, fv) in enumerate(zip(cands, fvals)):
            rows = slice(nd * width, nd * width + len(c))
            self.node_labels[rows] = c.tolist()
            self.node_diff[rows] = c[:, None] - fv[None, :]
        self.pairs = list(itertools.product(range(self.n_f), all_paths(n)))
        self._deviations: dict[str, np.ndarray] = {}
        self._reports: dict[bytes, tuple[int, tuple[LabeledTree, ...], dict]] = {}

    def _deviation(self, norm: str) -> np.ndarray:
        """(total, |F| 2^n) deviations of each candidate tree from each
        (predictor, path) pair: the max |dev| over the path's nodes for
        linf, the sum of squared deviations in node order for l2."""
        dev = self._deviations.get(norm)
        if dev is None:
            table = np.abs(self.node_diff) if norm == "linf" else self.node_diff**2
            levels = (
                table.take(self.choice[:, lo:hi], axis=0).transpose(0, 2, 1)[..., None]
                for lo, hi in zip(self.offsets, self.offsets[1:])
            )
            combine = np.maximum if norm == "linf" else np.add
            dev = path_fold(levels, self.n, combine, guard=self.guard)
            dev = self._deviations[norm] = dev.reshape(self.total, -1)
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
            return CoverReport(beta, norm, 1 if n_f else 0,
                               (empty_tree,) if n_f else (), cert)

        limit = beta + _EPS if norm == "linf" else n * beta**2 + _EPS
        covered = self._deviation(norm) <= limit
        packed = np.packbits(covered, axis=1, bitorder="little")
        key = packed.tobytes()
        found = self._reports.get(key)
        if found is None:
            found = self._reports[key] = self._cover(covered, packed)
        size, cover_trees, certificate = found
        return CoverReport(beta, norm, size, cover_trees, dict(certificate))

    def _cover(self, covered: np.ndarray, packed: np.ndarray):
        """Size, trees and certificate of a minimum cover for one coverage
        matrix, ``covered`` (candidate tree x pair) and its packed rows."""
        first_idx = _first_of_unique_rows(packed)
        raw, width = packed[first_idx].tobytes(), packed.shape[1]
        masks = [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]
        # Keep only maximal masks: a dominated set can always be swapped out.
        # The masks are distinct, so only a mask with more bits can contain
        # another; visiting by decreasing popcount, the maximal masks kept so
        # far are the only ones to test against.
        counts = [m.bit_count() for m in masks]
        maximal: list[int] = []
        keep = []
        for i in sorted(range(len(masks)), key=counts.__getitem__, reverse=True):
            m = masks[i]
            for k in maximal:
                if m | k == k:
                    break
            else:
                maximal.append(m)
                keep.append(i)
        keep.sort()
        masks = [masks[i] for i in keep]
        reps = [int(first_idx[i]) for i in keep]

        chosen = _exact_set_cover(masks, len(self.pairs))
        cover_trees = []
        for ci in chosen:
            labels = [self.node_labels[row] for row in self.choice[reps[ci]].tolist()]
            levels = [labels[self.offsets[t - 1] : self.offsets[t]] for t in range(1, self.n + 1)]
            cover_trees.append(LabeledTree(levels))
        # Each pair goes to the first chosen tree that covers it.
        chosen_rows = covered[[reps[ci] for ci in chosen]]
        if not chosen_rows.any(axis=0).all():
            raise DomainError("internal cover search error: uncovered pair")
        certificate = dict(zip(self.pairs, chosen_rows.argmax(axis=0).tolist()))
        return len(chosen), tuple(cover_trees), certificate


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
        for path, handle in self.selectors.items():
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


def dudley_bound(
    log_cover: Callable[[float], float],
    n: int,
    rho: float,
    gamma: float,
    rel_tol: float = 1e-8,
) -> float:
    """Integrated-entropy bound ``4 rho n + 12 sqrt(n) * int_rho^gamma
    sqrt(log_cover(delta)) d delta`` with adaptive Simpson quadrature."""
    if not (math.isfinite(rho) and math.isfinite(gamma)):
        raise DomainError(f"scales must be finite, got rho={rho} and gamma={gamma}")
    if rho <= 0:
        raise DomainError(f"lower scale must be positive, got {rho}")
    if gamma < rho:
        raise DomainError(f"upper scale {gamma} below lower scale {rho}")
    integral = adaptive_simpson(
        lambda d: math.sqrt(max(log_cover(d), 0.0)), rho, gamma, rel_tol=rel_tol
    )
    return 4.0 * rho * n + 12.0 * math.sqrt(n) * integral


def chained_offset_bound(
    log_cover_linf: Callable[[float], float],
    n: int,
    C: float,
    gamma_star: Callable[[float], float],
) -> float:
    """Two-regime chaining bound on the offset complexity of a class with the
    given pointwise entropy: an integrated-entropy term up to radius gamma
    plus the finite-collection offset bound at scale gamma/2, minimized over
    gamma (and internally over the integration cutoff and the conjugate
    parameter) by nested searches on logarithmic axes."""
    if n == 0:
        return 0.0

    def finite_term(gamma: float) -> float:
        log_n_half = log_cover_linf(gamma / 2.0)

        def obj(lam: float) -> float:
            g = gamma_star(2.0 * C * C * lam)
            if math.isinf(g):
                return math.inf
            return log_n_half / lam + n * g

        _, best = minimize_log_axis(obj, coarse=121)
        return best

    def chaining_term(gamma: float) -> float:
        def obj(rho: float) -> float:
            if rho >= gamma:
                return math.inf
            return dudley_bound(log_cover_linf, n, rho, gamma, rel_tol=1e-6)

        _, best = minimize_log_axis(
            obj, log_lo=-20.0, log_hi=math.log(gamma), coarse=81
        )
        return best

    def total(gamma: float) -> float:
        return C * chaining_term(gamma) + finite_term(gamma)

    _, best = minimize_log_axis(total, log_lo=-18.0, log_hi=5.0, coarse=61)
    return best


# ---------------------------------------------------------------------------
# Rate formulas
# ---------------------------------------------------------------------------


def rate_exponent(p: float, r: float = 2.0) -> float:
    """Power of n in the per-round minimax rate for entropy exponent ``p``
    and curvature power ``r`` (identical for the upper and lower formulas)."""
    if p <= 0:
        raise DomainError(f"entropy exponent must be positive, got {p}")
    if r < 2:
        raise DomainError(f"curvature power must be >= 2, got {r}")
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
    c: float = 1.0,
    c_f: float = 1.0,
    with_log: bool = True,
) -> float:
    """Per-round upper rate for entropy exponent ``p`` and minorant
    ``K * t**r``.

    Below the critical exponent the rate is the better of the
    curvature-driven bound and the curvature-free ``G sqrt(log n / n)``
    bound; above it the curvature no longer helps.  ``with_log=False`` drops
    the logarithmic factors (used when extracting pure power-law slopes).
    """
    if p <= 0:
        raise DomainError(f"entropy exponent must be positive, got {p}")
    if r < 2:
        raise DomainError(f"curvature power must be >= 2, got {r}")
    if n < 2:
        raise DomainError(f"horizon must be >= 2, got {n}")
    log_n = math.log(n)
    if p < 2:
        denom = 2.0 * (r - 1.0) + p
        if K > 0:
            curved = (
                c
                * n ** (-r / denom)
                * G ** (2.0 * r / denom)
                * K ** (-(2.0 - p) / denom)
                * (log_n if with_log else 1.0)
            )
        else:
            curved = math.inf
        flat = c_f * G * (math.sqrt(log_n) if with_log else 1.0) * n**-0.5
        return min(curved, flat)
    if p == 2:
        # The massive-class bound picks up an extra log factor right at the
        # phase transition.
        return c * G * n**-0.5 * (math.sqrt(log_n) * log_n if with_log else 1.0)
    return c * G * n ** (-1.0 / p) * (math.sqrt(log_n) if with_log else 1.0)


def rate_lower(
    p: float,
    r: float,
    R: float,
    K: float,
    n: int,
    c: float = 1.0,
) -> float:
    """Per-round lower rate matching :func:`rate_upper` in its n-exponent."""
    if p <= 0:
        raise DomainError(f"entropy exponent must be positive, got {p}")
    if r < 2:
        raise DomainError(f"curvature power must be >= 2, got {r}")
    if n < 2:
        raise DomainError(f"horizon must be >= 2, got {n}")
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
        return c * min(curved, flat)
    return (R / 2.0) * n ** (-1.0 / p)


def sparse_cover_bound(M: int, s: int, beta: float) -> float:
    """Log covering bound for convex combinations of at most ``s`` of ``M``
    bounded base functions: ``s log(e M / s) + s log(1 / beta)``."""
    if not 1 <= s <= M:
        raise DomainError(f"sparsity {s} must lie in [1, {M}]")
    if beta <= 0:
        raise DomainError(f"cover scale must be positive, got {beta}")
    return s * math.log(math.e * M / s) + s * math.log(1.0 / beta)


def sparse_rate_bound(M: int, s: int, n: int) -> float:
    """Companion per-round rate ``s log(M / s) / n`` for the sparse class."""
    if not 1 <= s <= M:
        raise DomainError(f"sparsity {s} must lie in [1, {M}]")
    if n < 1:
        raise DomainError(f"horizon must be >= 1, got {n}")
    return s * math.log(M / s) / n


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
    "seq_rademacher_mc",
    "offset_tree_max",
    "offset_rademacher",
    "offset_rademacher_sup",
    "finite_class_offset_bound",
    "finite_class_linear_bound",
    "seq_cover_number",
    "fat_shattering",
    "cover_fat_bound",
    "dudley_bound",
    "chained_offset_bound",
    "rate_exponent",
    "rate_upper",
    "rate_lower",
    "sparse_cover_bound",
    "sparse_rate_bound",
    "khinchine_lower_bound",
]
