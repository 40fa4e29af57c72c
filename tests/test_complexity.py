"""Sequential complexities, covers, shattering, and bound formulas."""

import copy
import dataclasses
import functools
import itertools
import math
import operator
import tracemalloc
from typing import Any

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regretlab import complexity
from regretlab.comparators import FiniteTableFamily
from regretlab.complexity import (
    _EPS,
    FAT_SEARCH_GUARD,
    CoverReport,
    CoverSearch,
    PowerLogCover,
    ShatterCertificate,
    StaircaseLogCover,
    _exact_set_cover,
    _first_of_unique_rows,
    _l2_limit,
    _maximal_rows,
    _pack_rows,
    _witness_candidates,
    cover_fat_bound,
    dudley_bound,
    fat_shattering,
    finite_class_linear_bound,
    finite_class_offset_bound,
    khinchine_lower_bound,
    offset_rademacher,
    offset_rademacher_sup,
    offset_tree_max,
    rate_exponent,
    rate_lower,
    rate_upper,
    seq_cover_number,
    seq_rademacher,
    sparse_cover_bound,
)
from regretlab.errors import DomainError, ResourceGuardError, ShapeError
from regretlab.losses import power_conjugate
from regretlab.trees import LabeledTree, prefix_index
from regretlab.verify import _all_tiny_families, _test_trees

PM_ONE = FiniteTableFamily(["x0"], [[1.0], [-1.0]])
SQUARE_CONJ = lambda s: power_conjugate(1.0, 2.0, s)
ZERO = lambda x: 0.0
SQ = lambda x: x * x
NO_ENTROPY = PowerLogCover(0.0, 0.0)


def const_tree(n):
    return LabeledTree.constant(n, "x0")


def random_family(rng, n_pred=None, n_cov=None):
    n_pred = n_pred or int(rng.integers(1, 5))
    n_cov = n_cov or int(rng.integers(1, 4))
    return FiniteTableFamily(
        [f"x{j}" for j in range(n_cov)], rng.uniform(-1, 1, size=(n_pred, n_cov))
    )


def random_cov_tree(rng, family, n):
    ids = family.covariate_ids
    return LabeledTree.from_function(n, lambda t, p: ids[int(rng.integers(len(ids)))])


def reference_cover(family, x, beta, norm):
    """The original cover search, kept literally as the reference: its
    candidate enumeration, the ``covered`` matrix built path by path,
    ``np.unique`` over rows, and the O(m^2) maximal-mask filter."""
    n, n_f = x.depth, family.n_predictors
    offsets = [2 ** (t - 1) - 1 for t in range(1, n + 2)]
    node_fvals, node_cands = [], []
    for t in range(1, n + 1):
        for i in range(2 ** (t - 1)):
            fv = family.evaluate_all(x.levels[t - 1][i])
            node_fvals.append(fv)
            node_cands.append(np.unique(fv))
    dims = [len(c) for c in node_cands]
    total = math.prod(dims)
    choice = np.stack(np.unravel_index(np.arange(total), dims), axis=1)
    paths = list(itertools.product((-1, 1), repeat=n))
    path_nodes = [[offsets[t - 1] + prefix_index(p[: t - 1]) for t in range(1, n + 1)] for p in paths]
    pairs = [(f, p) for f in range(n_f) for p in paths]

    covered = np.empty((total, len(pairs)), dtype=bool)
    for pi, nodes in enumerate(path_nodes):
        if norm == "linf":
            ok = np.ones((total, n_f), dtype=bool)
            for nd in nodes:
                dev = np.abs(node_cands[nd][:, None] - node_fvals[nd][None, :])
                ok &= (dev <= beta + _EPS)[choice[:, nd]]
            block = ok
        else:
            dist = np.zeros((total, n_f))
            for nd in nodes:
                dev = (node_cands[nd][:, None] - node_fvals[nd][None, :]) ** 2
                dist += dev[choice[:, nd]]
            block = dist <= n * beta**2 + _EPS
        covered[:, pi::len(paths)] = block

    packed = np.packbits(covered, axis=1, bitorder="little")
    uniq, first_idx = np.unique(packed, axis=0, return_index=True)
    masks = [int.from_bytes(row.tobytes(), "little") for row in uniq]
    reps = [int(i) for i in first_idx]
    keep = []
    for i, m in enumerate(masks):
        if not any(m != mj and m | mj == mj for mj in masks):
            keep.append(i)
    masks = [masks[i] for i in keep]
    reps = [reps[i] for i in keep]

    chosen = _exact_set_cover(masks, len(pairs))
    cover_trees = []
    for ci in chosen:
        cand = choice[reps[ci]]
        levels = []
        for t in range(1, n + 1):
            off = offsets[t - 1]
            levels.append([float(node_cands[off + i][cand[off + i]]) for i in range(2 ** (t - 1))])
        cover_trees.append(LabeledTree(levels))
    certificate = {}
    for col, (f, path) in enumerate(pairs):
        for k, ci in enumerate(chosen):
            if masks[ci] >> col & 1:
                certificate[(f, path)] = k
                break
    return CoverReport(beta, norm, len(chosen), tuple(cover_trees), certificate)


def reference_set_cover(masks, universe, stats=None):
    """The original branch and bound, kept literally as the reference: it
    picks the uncovered element with the fewest candidate sets at every
    node by ``min(..., key=len)`` and prunes on ceil(|uncovered| / largest
    set) alone.  ``stats``, when given, receives the nodes it visited."""
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

    covers_elem: dict[int, list[int]] = {}
    for e in range(universe):
        covers_elem[e] = [i for i, m in enumerate(masks) if m >> e & 1]

    max_size = max(m.bit_count() for m in masks)
    nodes = 0

    def search(uncovered: int, chosen: list[int]) -> None:
        nonlocal best, nodes
        nodes += 1
        if uncovered == 0:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        need = (uncovered.bit_count() + max_size - 1) // max_size
        if len(chosen) + need >= len(best):
            return
        # Branch on the uncovered element with the fewest candidate sets.
        elem = min(
            (e for e in range(universe) if uncovered >> e & 1),
            key=lambda e: len(covers_elem[e]),
        )
        for i in covers_elem[elem]:
            chosen.append(i)
            search(uncovered & ~masks[i], chosen)
            chosen.pop()

    search(full, [])
    if stats is not None:
        stats["nodes"] = nodes
    return best


def reference_maximal_masks(masks):
    """The original dominance filter, kept literally as the reference:
    visiting the distinct masks by decreasing popcount, a mask is kept when
    no maximal mask kept so far contains it.  Returns the ascending indices
    of the kept masks."""
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
    return keep


def reference_fat_shattering(family, covariate_set=None, beta=1.0, max_depth=8, extra_witness_grid=()):
    """The original shattering search, kept literally as the reference:
    frozensets of alive predictors, with each (covariate, witness) choice's
    split rebuilt at every node."""
    if beta <= 0:
        raise DomainError(f"shattering scale must be positive, got {beta}")
    xs = tuple(covariate_set) if covariate_set is not None else family.covariate_ids
    if not xs:
        raise DomainError("covariate set must be nonempty")
    witness: dict[Any, list[float]] = {}
    vals: dict[Any, np.ndarray] = {}
    for xv in xs:
        vals[xv] = family.evaluate_all(xv)
        witness[xv] = _witness_candidates(vals[xv], extra_witness_grid)
    est = (
        2.0 ** family.n_predictors
        * max_depth
        * len(xs)
        * max(len(w) for w in witness.values())
    )
    if est > FAT_SEARCH_GUARD:
        raise ResourceGuardError("shattering search above the guard", size_estimate=est)

    half = beta / 2.0 - _EPS
    all_f = frozenset(range(family.n_predictors))
    memo: dict[tuple[frozenset, int], tuple[Any, float] | None] = {}

    def can(alive: frozenset, k: int):
        """A (covariate, witness) choice shattering ``k`` more levels, or None."""
        if not alive:
            return None
        if k == 0:
            return ("", 0.0)  # sentinel: nonempty feasible set suffices
        key = (alive, k)
        if key in memo:
            return memo[key]
        found = None
        for xv in xs:
            fv = vals[xv]
            for s in witness[xv]:
                plus = frozenset(f for f in alive if fv[f] - s >= half)
                minus = frozenset(f for f in alive if s - fv[f] >= half)
                if plus and minus and can(plus, k - 1) and can(minus, k - 1):
                    found = (xv, s)
                    break
            if found:
                break
        memo[key] = found
        return found

    depth = 0
    while depth < max_depth and can(all_f, depth + 1):
        depth += 1
    if depth == 0:
        return 0, None

    # Reconstruct one shattered tree by replaying the recorded choices.
    cov_levels: list[list[Any]] = [[None] * 2 ** (t - 1) for t in range(1, depth + 1)]
    wit_levels: list[list[float]] = [[0.0] * 2 ** (t - 1) for t in range(1, depth + 1)]
    selectors: dict[tuple, int] = {}

    def build(alive: frozenset, t: int, prefix: tuple) -> None:
        k = depth - t + 1
        if k == 0:
            return
        xv, s = can(alive, k)
        idx = prefix_index(prefix)
        cov_levels[t - 1][idx] = xv
        wit_levels[t - 1][idx] = s
        fv = vals[xv]
        plus = frozenset(f for f in alive if fv[f] - s >= half)
        minus = frozenset(f for f in alive if s - fv[f] >= half)
        if t == depth:
            # Any predictor still alive at the leaf satisfies the margin
            # constraint at every level of its path.
            for sign, group in ((-1, minus), (1, plus)):
                selectors[prefix + (sign,)] = min(group)
        else:
            build(minus, t + 1, prefix + (-1,))
            build(plus, t + 1, prefix + (1,))

    build(all_f, 1, ())
    cert = ShatterCertificate(
        depth=depth,
        covariate_tree=LabeledTree(cov_levels),
        witness=LabeledTree(wit_levels),
        selectors=selectors,
        beta=beta,
    )
    return depth, cert


def bruteforce_fat_depth(family, covariates, beta, max_depth, extra=()):
    """Shattering depth (at most 2) by trying every covariate tree and every
    witness tree whose labels are values, midpoints of values or ``extra``
    at the node's covariate: a tree is shattered when every sign path has a
    predictor on the path's side of each witness by ``beta / 2``."""
    half = beta / 2.0 - _EPS
    nodes = []  # (predictors above, predictors below) per node label
    for x in covariates:
        fv = [float(v) for v in family.evaluate_all(x)]
        ws = {(a + b) / 2.0 for a in fv for b in fv} | {float(e) for e in extra}
        for s in ws:
            nodes.append((
                {f for f, v in enumerate(fv) if v - s >= half},
                {f for f, v in enumerate(fv) if s - v >= half},
            ))
    side = {1: 0, -1: 1}
    best = 0
    for depth in range(1, min(max_depth, 2) + 1):
        shattered = False
        for tree in itertools.product(nodes, repeat=2**depth - 1):
            if all(
                set.intersection(*(tree[2 ** (t - 1) - 1 + prefix_index(p[: t - 1])][side[p[t - 1]]]
                                   for t in range(1, depth + 1)))
                for p in itertools.product((-1, 1), repeat=depth)
            ):
                shattered = True
                break
        if not shattered:
            break
        best = depth
    return best


@st.composite
def tiny_shattering_instances(draw):
    n_pred = draw(st.integers(1, 5))
    n_cov = draw(st.integers(1, 3))
    grid = st.sampled_from((-1.0, -0.5, 0.0, 0.5, 1.0))
    values = draw(st.lists(st.lists(grid, min_size=n_cov, max_size=n_cov), min_size=n_pred, max_size=n_pred))
    ids = [f"x{j}" for j in range(n_cov)]
    subset = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=n_cov, unique=True))
    covariates = draw(st.sampled_from((None, tuple(subset))))
    beta = draw(st.sampled_from((0.25, 0.5, 1.0, 1.5, 2.0)))
    extra = draw(st.lists(st.sampled_from((-0.75, -0.25, 0.1, 0.25, 0.75)), max_size=2, unique=True))
    return FiniteTableFamily(ids, values), covariates, beta, tuple(extra)


@st.composite
def tiny_cover_instances(draw):
    n_pred = draw(st.integers(1, 4))
    n_cov = draw(st.integers(1, 3))
    grid = st.sampled_from((-1.0, -0.5, 0.0, 0.5, 1.0))
    values = draw(st.lists(st.lists(grid, min_size=n_cov, max_size=n_cov), min_size=n_pred, max_size=n_pred))
    ids = [f"x{j}" for j in range(n_cov)]
    n = draw(st.integers(2, 3))
    labels = draw(st.lists(st.sampled_from(ids), min_size=2**n - 1, max_size=2**n - 1))
    levels = [labels[2 ** (t - 1) - 1 : 2**t - 1] for t in range(1, n + 1)]
    return FiniteTableFamily(ids, values), LabeledTree(levels)


@st.composite
def deviation_instances(draw):
    """A tiny family on a tree of depth 0-4 whose nodes, past four, read
    ``c``, where every predictor takes one value, so they carry a single
    label."""
    n_pred = draw(st.integers(1, 3))
    n_cov = draw(st.integers(1, 3))
    grid = st.sampled_from((-1.0, -0.5, 0.0, 0.5, 1.0, 0.3))
    values = draw(st.lists(st.lists(grid, min_size=n_cov, max_size=n_cov), min_size=n_pred, max_size=n_pred))
    const = draw(grid)
    ids = [f"x{j}" for j in range(n_cov)]
    n = draw(st.integers(0, 4))
    nodes = 2**n - 1
    varied = draw(st.permutations(range(nodes)))[: draw(st.integers(min(nodes, 1), min(nodes, 4)))]
    labels = [draw(st.sampled_from(ids)) if nd in varied else "c" for nd in range(nodes)]
    levels = [labels[2 ** (t - 1) - 1 : 2**t - 1] for t in range(1, n + 1)]
    fam = FiniteTableFamily(ids + ["c"], [row + [const] for row in values])
    return fam, LabeledTree(levels)


# Radixes 2, 3, 3, 2, 3 around single-label nodes: 108 candidate trees.
MIXED_RADIX_INSTANCE = (
    FiniteTableFamily(["x0", "x1", "c"], [[0.0, -1.0, 0.5], [0.0, 0.3, 0.5], [1.0, 1.0, 0.5]]),
    LabeledTree([["x0"], ["x1", "c"], ["x1", "x0", "c", "x1"]]),
)


def literal_deviation(family, x, norm):
    """(candidate tree, (predictor, path)) deviations by a loop over paths:
    candidates numbered by ``np.unravel_index`` over the nodes with two or
    more labels, labels read with ``label_at``, folded from 0.0 in node
    order."""
    n, n_f = x.depth, family.n_predictors
    node_labels = [sorted({family.evaluate(h, label) for h in range(n_f)}) for level in x.levels for label in level]
    radixes = [len(c) for c in node_labels if len(c) > 1]
    total = math.prod(radixes)
    paths = list(itertools.product((-1, 1), repeat=n))
    dev = np.empty((total, n_f * len(paths)))
    for k in range(total):
        digits = iter(np.unravel_index(k, radixes or [1]))
        picked = [c[int(next(digits))] if len(c) > 1 else c[0] for c in node_labels]
        cand = LabeledTree([picked[2 ** (t - 1) - 1 : 2**t - 1] for t in range(1, n + 1)])
        for h in range(n_f):
            for p, path in enumerate(paths):
                acc = 0.0
                for t in range(1, n + 1):
                    d = cand.label_at(t, path) - family.evaluate(h, x.label_at(t, path))
                    # numpy squares an array entry as d * d.
                    acc = max(acc, abs(d)) if norm == "linf" else acc + d * d
                dev[k, h * len(paths) + p] = acc
    return dev


class TestSeqRademacher:
    def test_singleton_family_is_zero(self):
        fam = FiniteTableFamily(["x0"], [[0.7]])
        for n in range(4):
            assert seq_rademacher(fam, const_tree(n)) == 0.0

    def test_two_constants(self):
        assert seq_rademacher(PM_ONE, const_tree(1)) == 1.0
        assert seq_rademacher(PM_ONE, const_tree(2)) == 1.0

    def test_against_literal_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            fam = random_family(rng)
            n = int(rng.integers(1, 5))
            tree = random_cov_tree(rng, fam, n)
            # independent oracle: enumerate paths, evaluate via label_at
            total = 0.0
            for path in itertools.product((-1, 1), repeat=n):
                best = -math.inf
                for h in range(fam.n_predictors):
                    s = sum(
                        path[t - 1] * fam.evaluate(h, tree.label_at(t, path))
                        for t in range(1, n + 1)
                    )
                    best = max(best, s)
                total += best
            assert seq_rademacher(fam, tree) == pytest.approx(total / 2**n, abs=1e-12)

    def test_depth_guard(self):
        with pytest.raises(ResourceGuardError):
            seq_rademacher(PM_ONE, const_tree(21))



class TestOffsetRademacher:
    def test_collapse_to_scaled_rademacher_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(8):
            fam = random_family(rng)
            n = int(rng.integers(1, 8))
            tree = random_cov_tree(rng, fam, n)
            c = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
            lhs = offset_rademacher(fam, tree, LabeledTree.constant(n, 0.0), c, ZERO)
            assert lhs == 2.0 * c * seq_rademacher(fam, tree)

    def test_random_mean_tree_centers_out(self):
        rng = np.random.default_rng(2)
        fam = random_family(rng, 3, 2)
        n = 5
        tree = random_cov_tree(rng, fam, n)
        mu = LabeledTree.from_function(n, lambda t, p: float(rng.uniform(-1, 1)))
        lhs = offset_rademacher(fam, tree, mu, 0.7, ZERO)
        assert lhs == pytest.approx(1.4 * seq_rademacher(fam, tree), abs=1e-9)

    def test_quadratic_offset_two_constants(self):
        v = offset_rademacher(PM_ONE, const_tree(2), LabeledTree.constant(2, 0.0), 0.5, SQ)
        assert v == -1.0

    def test_depth_zero(self):
        assert offset_rademacher(PM_ONE, const_tree(0), LabeledTree.constant(0, 0.0), 1.0, SQ) == 0.0

    def test_depth_mismatch(self):
        with pytest.raises(ShapeError):
            offset_rademacher(PM_ONE, const_tree(2), LabeledTree.constant(1, 0.0), 1.0, SQ)


class TestOffsetSup:
    def test_depth_zero(self):
        assert offset_rademacher_sup(PM_ONE, ("x0",), (0.0,), 0, 1.0, SQ) == 0.0

    def test_singleton_zero_offset(self):
        fam = FiniteTableFamily(["a", "b"], [[0.3, -0.4]])
        assert offset_rademacher_sup(fam, ("a", "b"), (-1.0, 0.0, 1.0), 2, 1.0, ZERO) == pytest.approx(0.0)

    def test_two_constants_quadratic(self):
        assert offset_rademacher_sup(PM_ONE, ("x0",), (0.0,), 1, 0.5, SQ) == pytest.approx(0.0)

    def test_matches_bruteforce_tree_enumeration(self):
        rng = np.random.default_rng(3)
        fam = FiniteTableFamily(["a", "b"], rng.uniform(-1, 1, size=(3, 2)))
        mu_grid = (-0.5, 0.0, 0.5)
        got = offset_rademacher_sup(fam, ("a", "b"), mu_grid, 2, 0.8, SQ)
        best = -math.inf
        opts = [(x, m) for x in ("a", "b") for m in mu_grid]
        for root in opts:
            for lc in opts:
                for rc in opts:
                    xt = LabeledTree([[root[0]], [lc[0], rc[0]]])
                    mt = LabeledTree([[root[1]], [lc[1], rc[1]]])
                    best = max(best, offset_rademacher(fam, xt, mt, 0.8, SQ))
        assert got == pytest.approx(best, abs=1e-12)

    def test_matches_bruteforce_at_depth_three(self):
        rng = np.random.default_rng(21)
        fam = FiniteTableFamily(["a"], rng.uniform(-1, 1, size=(2, 1)))
        mu_grid = (-0.5, 0.5)
        got = offset_rademacher_sup(fam, ("a",), mu_grid, 3, 0.6, SQ)
        # brute force: assign a mean label to each of the 7 nodes
        best = -math.inf
        for labels in itertools.product(mu_grid, repeat=7):
            mt = LabeledTree([[labels[0]], list(labels[1:3]), list(labels[3:7])])
            xt = LabeledTree.constant(3, "a")
            best = max(best, offset_rademacher(fam, xt, mt, 0.6, SQ))
        assert got == pytest.approx(best, abs=1e-12)

    def test_initial_scores_shift_the_start(self):
        fam = FiniteTableFamily(["a"], [[0.5], [-0.5]])
        base = offset_rademacher_sup(fam, ("a",), (0.0,), 1, 1.0, SQ)
        shifted = offset_rademacher_sup(
            fam, ("a",), (0.0,), 1, 1.0, SQ, initial_scores=(-10.0, -10.0)
        )
        assert shifted == pytest.approx(base - 10.0)

    def test_guard(self):
        # 198 (x, mu, sign) moves of distinct steps: layer 2 keeps about 2e4
        # states, whose 7.6e6 partial sums exceed the guard.
        fam = FiniteTableFamily(["a", "b", "c"], np.random.default_rng(0).uniform(-1, 1, size=(2, 3)))
        with pytest.raises(ResourceGuardError):
            offset_rademacher_sup(fam, ("a", "b", "c"), tuple(np.linspace(-1, 1, 33)), 5, 1.0, SQ)

    def test_layer_state_counts(self, layer_sizes):
        # 12 moves, two of which take the same step: layer 1 merges them,
        # and layer 2 holds 65 states, fewer than the 78 multisets of two
        # moves.  The 65 x 12 leaves stay unmerged.
        fam = FiniteTableFamily(["a", "b"], [[0.5, -0.5], [-0.25, 0.75]])
        run = lambda: offset_rademacher_sup(fam, ("a", "b"), (-0.5, 0.0, 0.5), 3, 1.0, SQ)
        assert layer_sizes(complexity, run) == [1, 11, 65, 780]


def reference_offset_rademacher_sup(family, covariate_set, mu_grid, n, C, offset, initial_scores=None):
    """offset_rademacher_sup as it was: an unmemoized recursion over
    (round, per-predictor partial sums), without its size guard."""
    if initial_scores is None:
        scores0 = np.zeros(family.n_predictors)
    else:
        scores0 = np.asarray(initial_scores, dtype=float)
        if scores0.shape != (family.n_predictors,):
            raise ShapeError("initial_scores must have one entry per predictor")

    value_table = {x: family.evaluate_all(x) for x in covariate_set}
    penal_cache: dict[tuple[Any, float], tuple[np.ndarray, np.ndarray]] = {}
    for x in covariate_set:
        for mu in mu_grid:
            diffs = value_table[x] - mu
            penal = np.array([offset(d) for d in diffs])
            penal_cache[(x, mu)] = (diffs, penal)

    def best_from(t: int, scores: np.ndarray) -> float:
        if t > n:
            return float(scores.max())
        best = -math.inf
        for x in covariate_set:
            for mu in mu_grid:
                diffs, penal = penal_cache[(x, mu)]
                up = best_from(t + 1, scores + 2.0 * C * diffs - penal)
                down = best_from(t + 1, scores - 2.0 * C * diffs - penal)
                best = max(best, 0.5 * (up + down))
        return best

    return best_from(1, scores0)


@st.composite
def tiny_sup_instances(draw):
    """Random suprema small enough for the recursion, seeded at zero or at
    scores of any magnitude up to 1e9."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_f, n_x = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    if draw(st.booleans()):
        values = rng.uniform(-1, 1, size=(n_f, n_x))
    else:
        values = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(n_f, n_x))
    fam = FiniteTableFamily([f"x{j}" for j in range(n_x)], values)
    mu_grid = draw(st.sampled_from([(0.0,), (-0.5, 0.5), (-0.5, 0.0, 0.5), tuple(rng.uniform(-1, 1, size=3))]))
    scale = draw(st.sampled_from([None, 1.0, 1e4, 1e8, 1e9]))
    init = None if scale is None else rng.uniform(-scale, scale, size=n_f)
    offset = draw(st.sampled_from([SQ, ZERO, lambda v: 0.3 * v * v]))
    c = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return fam, fam.covariate_ids, mu_grid, draw(st.integers(0, 3)), c, offset, init


class TestOffsetSupAgainstRecursion:
    @given(tiny_sup_instances())
    @settings(max_examples=150, deadline=None)
    def test_matches_recursion(self, args):
        want = reference_offset_rademacher_sup(*args)
        got = offset_rademacher_sup(*args[:-1], initial_scores=args[-1])
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestFiniteCollectionBounds:
    def test_square_conjugate_gives_entropy_bound(self):
        for c in (0.5, 1.0, 2.0):
            for size in (2, 4, 16):
                got = finite_class_offset_bound(size, 7, c, SQUARE_CONJ)
                assert got == pytest.approx(2 * c * c * math.log(size), abs=1e-6)

    def test_criterion_04_grid_is_pinned(self):
        """Criterion 04's (C, |W|) grid at n = 5, to the last bit."""
        want = {
            (0.5, 2): "0x1.62e42ff789a7cp-2",
            (0.5, 4): "0x1.62e42ff789a7cp-1",
            (0.5, 16): "0x1.62e42ff789a7cp+0",
            (1.0, 2): "0x1.62e42ff24414cp+0",
            (1.0, 4): "0x1.62e42ff24414cp+1",
            (1.0, 16): "0x1.62e42ff24414cp+2",
            (2.0, 2): "0x1.62e4300c91fdbp+2",
            (2.0, 4): "0x1.62e4300c91fdbp+3",
            (2.0, 16): "0x1.62e4300c91fdbp+4",
        }
        got = {(c, size): finite_class_offset_bound(size, 5, c, SQUARE_CONJ).hex() for c, size in want}
        assert got == want

    def test_singleton_is_zero(self):
        assert finite_class_offset_bound(1, 5, 1.0, SQUARE_CONJ) == pytest.approx(0.0, abs=1e-9)

    def test_quartic_conjugate_matches_dense_grid(self):
        conj = lambda s: power_conjugate(1.0, 4.0, s)
        got = finite_class_offset_bound(4, 2, 1.0, conj)
        lams = np.exp(np.linspace(-30, 30, 400001))
        dense = float(np.min(math.log(4) / lams + 2 * (2 * lams) ** 2 / 4))
        assert got == pytest.approx(dense, abs=1e-6)

    def test_all_infinite_returns_inf(self):
        conj = lambda s: 0.0 if s == 0 else math.inf
        assert finite_class_offset_bound(3, 4, 1.0, conj) == math.inf

    def test_exact_tree_maximum_never_exceeds_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(4):
            n = int(rng.integers(1, 7))
            size = int(rng.choice([2, 4, 8]))
            trees = [
                LabeledTree(
                    [[float(v) for v in rng.uniform(-1, 1, size=2 ** (t - 1))] for t in range(1, n + 1)]
                )
                for _ in range(size)
            ]
            for c in (0.5, 1.0):
                exact = offset_tree_max(trees, c, SQ)
                assert exact <= finite_class_offset_bound(size, n, c, SQUARE_CONJ) + 1e-9

    def test_linear_bound_values(self):
        assert finite_class_linear_bound([LabeledTree.constant(3, 1.0)], 2.0) == 0.0
        w = [LabeledTree.constant(4, 1.0), LabeledTree.constant(4, -1.0)]
        assert finite_class_linear_bound(w, 1.0) == pytest.approx(math.sqrt(2 * math.log(2) * 4))
        zeros = [LabeledTree.constant(3, 0.0), LabeledTree.constant(3, 0.0)]
        assert finite_class_linear_bound(zeros, 1.0) == 0.0
        with pytest.raises(DomainError):
            finite_class_linear_bound([], 1.0)

    def test_linear_bound_soundness(self):
        rng = np.random.default_rng(5)
        for _ in range(4):
            n = int(rng.integers(1, 6))
            trees = [
                LabeledTree(
                    [[float(v) for v in rng.uniform(-1, 1, size=2 ** (t - 1))] for t in range(1, n + 1)]
                )
                for _ in range(int(rng.integers(2, 5)))
            ]
            exact = offset_tree_max(trees, 0.5, ZERO)  # = E max sum eps w
            assert exact <= finite_class_linear_bound(trees, 1.0) + 1e-9


def literal_path_max(n, per_path_scores):
    """``fsum`` over all 2^n sign paths of ``max(per_path_scores(path))``,
    divided by 2^n; the paths come from ``itertools.product``."""
    paths = itertools.product((-1, 1), repeat=n)
    return math.fsum(max(per_path_scores(path)) for path in paths) / 2**n


def literal_seq_rademacher(fam, x):
    def scores(path):
        for h in range(fam.n_predictors):
            total = 0.0
            for t in range(1, x.depth + 1):
                total = total + path[t - 1] * fam.evaluate(h, x.label_at(t, path))
            yield total

    return literal_path_max(x.depth, scores)


def literal_offset_rademacher(fam, x, mu, c, offset):
    """The sums in the original per-path order, ``(total + a) - offset``."""

    def scores(path):
        for h in range(fam.n_predictors):
            total = 0.0
            for t in range(1, x.depth + 1):
                d = fam.evaluate(h, x.label_at(t, path)) - mu.label_at(t, path)
                total = total + 2.0 * c * path[t - 1] * d - offset(d)
            yield total

    return literal_path_max(x.depth, scores)


def literal_offset_tree_max(trees, c, offset):
    def scores(path):
        for w in trees:
            total = 0.0
            for t in range(1, w.depth + 1):
                v = w.label_at(t, path)
                total += 2.0 * c * path[t - 1] * v - offset(v)
            yield total

    return literal_path_max(trees[0].depth, scores)


def literal_linear_bound(trees, g):
    """The original bound, each path's squares added with ``math.fsum``."""
    n = trees[0].depth
    max_sq = max(
        math.fsum(w.label_at(t, path) ** 2 for t in range(1, n + 1))
        for w in trees
        for path in itertools.product((-1, 1), repeat=n)
    )
    return g * math.sqrt(2.0 * math.log(len(trees)) * max_sq)


UNIT = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def tiny_path_instances(draw):
    """A family of 1-4 predictors on 1-3 covariates, a covariate tree and a
    mean tree of depth 1-6, and a scale C."""
    n_pred = draw(st.integers(1, 4))
    n_cov = draw(st.integers(1, 3))
    values = draw(st.lists(st.lists(UNIT, min_size=n_cov, max_size=n_cov), min_size=n_pred, max_size=n_pred))
    ids = [f"x{j}" for j in range(n_cov)]
    n = draw(st.integers(1, 6))
    labels = draw(st.lists(st.sampled_from(ids), min_size=2**n - 1, max_size=2**n - 1))
    means = draw(st.lists(UNIT, min_size=2**n - 1, max_size=2**n - 1))
    c = draw(st.sampled_from((0.25, 0.5, 0.7, 1.0, 2.0)))
    return FiniteTableFamily(ids, values), heap_tree(labels), heap_tree(means), c


@st.composite
def tiny_tree_collections(draw):
    n = draw(st.integers(1, 6))
    size = draw(st.integers(1, 5))
    trees = [heap_tree(draw(st.lists(UNIT, min_size=2**n - 1, max_size=2**n - 1))) for _ in range(size)]
    return trees, draw(st.sampled_from((0.25, 0.5, 0.7, 1.0, 2.0)))


def heap_tree(labels):
    n = (len(labels) + 1).bit_length() - 1
    return LabeledTree([labels[2 ** (t - 1) - 1 : 2**t - 1] for t in range(1, n + 1)])


def close(got, want):
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestPathSumsAgainstLiteralEnumeration:
    """Each path sum against a literal enumeration over
    ``itertools.product`` paths and ``label_at`` lookups."""

    @given(tiny_path_instances())
    @settings(max_examples=80, deadline=None)
    def test_seq_rademacher_bitwise(self, inst):
        fam, x, _, _ = inst
        assert seq_rademacher(fam, x).hex() == literal_seq_rademacher(fam, x).hex()

    @given(tiny_path_instances())
    @settings(max_examples=80, deadline=None)
    def test_zero_offset_bitwise(self, inst):
        fam, x, mu, c = inst
        for mean_tree in (LabeledTree.constant(x.depth, 0.0), mu):
            got = offset_rademacher(fam, x, mean_tree, c, ZERO)
            assert got.hex() == literal_offset_rademacher(fam, x, mean_tree, c, ZERO).hex()

    @given(tiny_path_instances())
    @settings(max_examples=80, deadline=None)
    def test_square_offset_within_last_bits(self, inst):
        fam, x, mu, c = inst
        assert close(offset_rademacher(fam, x, mu, c, SQ), literal_offset_rademacher(fam, x, mu, c, SQ))

    @given(tiny_tree_collections())
    @settings(max_examples=80, deadline=None)
    def test_offset_tree_max_bitwise(self, inst):
        trees, c = inst
        for offset in (SQ, ZERO, lambda v: v**4):
            assert offset_tree_max(trees, c, offset).hex() == literal_offset_tree_max(trees, c, offset).hex()

    @given(tiny_tree_collections())
    @settings(max_examples=80, deadline=None)
    def test_linear_bound_within_last_bits(self, inst):
        trees, c = inst
        if len(trees) > 1:
            assert close(finite_class_linear_bound(trees, c), literal_linear_bound(trees, c))

    def test_path_guard_counts_cells(self):
        fam = FiniteTableFamily(["x0"], [[1.0], [-1.0], [0.5]])
        with pytest.raises(ResourceGuardError):
            seq_rademacher(fam, const_tree(3), guard=23)
        assert seq_rademacher(fam, const_tree(3), guard=24) == literal_seq_rademacher(fam, const_tree(3))


class TestCovers:
    def test_two_constants_need_two_trees_at_half(self):
        rep = seq_cover_number(PM_ONE, const_tree(2), 0.5, "linf")
        assert rep.size == 2
        assert rep.validate(PM_ONE, const_tree(2))

    def test_single_tree_covers_past_the_diameter(self):
        rep = seq_cover_number(PM_ONE, const_tree(2), 2.0, "linf")
        assert rep.size == 1

    def test_singleton_family(self):
        fam = FiniteTableFamily(["x0"], [[0.4]])
        for beta in (0.05, 1.0):
            assert seq_cover_number(fam, const_tree(2), beta, "l2").size == 1

    def test_l2_never_larger_than_linf(self):
        rng = np.random.default_rng(6)
        for _ in range(6):
            fam = random_family(rng, int(rng.integers(2, 5)), 2)
            tree = random_cov_tree(rng, fam, 3)
            search = CoverSearch(fam, tree)
            for beta in (0.3, 0.7, 1.2):
                assert search.solve(beta, "l2").size <= search.solve(beta, "linf").size

    def test_certificates_validate(self):
        rng = np.random.default_rng(7)
        fam = random_family(rng, 4, 2)
        tree = random_cov_tree(rng, fam, 3)
        for norm in ("l2", "linf"):
            rep = seq_cover_number(fam, tree, 0.6, norm)
            assert rep.validate(fam, tree)

    def test_validate_requires_every_pair_once(self):
        tree = const_tree(2)
        rep = seq_cover_number(PM_ONE, tree, 0.5, "linf")
        assert rep.size == 2 and rep.validate(PM_ONE, tree)
        cert = rep.certificate
        first = next(iter(cert))
        missing = {key: vi for key, vi in cert.items() if key != first}
        extra = {**cert, (0, (1, 1, 1)): 0}
        # Every pair present once more, but predictor 1 renamed to 2.
        renamed = {(2 if h == 1 else h, path): vi for (h, path), vi in cert.items()}
        unknown = {**cert, (2, (1, 1)): 0}
        bad_trees = [{**cert, first: vi} for vi in (2, -1, 0.0, None)]
        for bad in [{}, missing, extra, renamed, unknown, *bad_trees]:
            assert not dataclasses.replace(rep, certificate=bad).validate(PM_ONE, tree)
        assert dataclasses.replace(rep, certificate=dict(cert)).validate(PM_ONE, tree)

    def test_cover_guard(self):
        rng = np.random.default_rng(8)
        fam = random_family(rng, 4, 2)
        with pytest.raises(ResourceGuardError):
            seq_cover_number(fam, random_cov_tree(rng, fam, 3), 0.5, "linf", guard=10)

    def test_cover_guard_counts_deviation_cells(self):
        # 2^3 candidate trees x |F| = 2 x 2^2 paths = 64 float64 cells per norm.
        with pytest.raises(ResourceGuardError) as refused:
            CoverSearch(PM_ONE, const_tree(2), guard=63)
        assert refused.value.size_estimate == 64
        assert CoverSearch(PM_ONE, const_tree(2), guard=64).solve(0.5, "l2").size == 2

    @settings(max_examples=60, deadline=None)
    @given(
        tiny_cover_instances(),
        st.lists(
            st.tuples(st.sampled_from((0.1, 0.25, 0.5, 0.75, 1.0, 2.0)), st.sampled_from(("linf", "l2"))),
            min_size=2,
            max_size=8,
        ),
    )
    def test_matches_reference_search(self, instance, solves):
        # Repeated and interleaved norms on one search reuse its cached
        # deviations; every report must equal a fresh reference solve.
        fam, tree = instance
        search = CoverSearch(fam, tree)
        for beta, norm in solves + solves[:1]:
            assert search.solve(beta, norm) == reference_cover(fam, tree, beta, norm)

    def test_matches_reference_search_on_tiny_families(self):
        # A fixed slice of the acceptance suite's families and trees, where
        # ties between equal-size covers are common.  Searches sharing one
        # memo, as criterion 07's do, give the fresh searches' reports.
        families = list(_all_tiny_families(3, 4))[::199]
        memo, hits = {}, 0
        for k, fam in enumerate(families):
            for n in (2, 3):
                for tree in _test_trees(fam.covariate_ids, n, seed=k):
                    search, shared = CoverSearch(fam, tree), CoverSearch(fam, tree, memo=memo)
                    for beta in (0.5, 1.0, 2.0):
                        for norm in ("l2", "linf"):
                            rep = search.solve(beta, norm)
                            assert rep == reference_cover(fam, tree, beta, norm)
                            got = shared.solve(beta, norm)
                            assert got.to_json_dict() == rep.to_json_dict()
                            hits += got.stats["reused"] and not rep.stats["reused"]
        assert hits > 0

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(tiny_cover_instances(), min_size=1, max_size=4),
        st.lists(
            st.tuples(st.sampled_from((0.25, 0.5, 1.0, 2.0)), st.sampled_from(("linf", "l2"))),
            min_size=1,
            max_size=4,
        ),
    )
    def test_shared_memo_matches_reference_and_fresh_searches(self, instances, solves):
        # Each instance twice, so the second search of it hits the memo.
        memo = {}
        for fam, tree in instances + instances:
            shared = CoverSearch(fam, tree, memo=memo)
            for beta, norm in solves:
                got = shared.solve(beta, norm)
                assert got == reference_cover(fam, tree, beta, norm)
                assert got.to_json_dict() == CoverSearch(fam, tree).solve(beta, norm).to_json_dict()
                assert got.validate(fam, tree)

    def test_memo_serves_another_search_without_a_set_cover(self, monkeypatch):
        # Shifting every value by 2 keeps each deviation's bits, so the
        # second family has the first's coverage matrices but other labels.
        values = [[1.0, 0.0], [0.0, -1.0], [-1.0, 0.5]]
        fam = FiniteTableFamily(["x0", "x1"], values)
        shifted = FiniteTableFamily(["x0", "x1"], [[v + 2.0 for v in row] for row in values])
        tree = LabeledTree([["x0"], ["x1", "x0"]])
        solves = [(0.5, "linf"), (1.0, "l2")]
        memo = {}
        search = CoverSearch(fam, tree, memo=memo)
        first = [search.solve(beta, norm) for beta, norm in solves]
        assert len(memo) == 2 and not any(rep.stats["reused"] for rep in first)
        solved = copy.deepcopy(memo)
        for rep in first:
            # A caller's edits to a report stay out of the memo.
            rep.certificate[next(iter(rep.certificate))] = -1
            rep.stats["nodes"] = -1
        search = CoverSearch(shifted, tree, memo=memo)
        wants = [CoverSearch(fam, tree).solve(beta, norm) for beta, norm in solves]
        with monkeypatch.context() as patched:
            patched.setattr(complexity, "_exact_set_cover", None)
            for (beta, norm), want in zip(solves, wants):
                got = search.solve(beta, norm)
                assert got == reference_cover(shifted, tree, beta, norm)
                assert got.validate(shifted, tree)
                assert got.stats == {**want.stats, "nodes": 0, "reused": True}
                assert [v.label_at(1, ()) for v in got.cover] == [v.label_at(1, ()) + 2.0 for v in want.cover]
                got.certificate.clear()
                # Within one threshold class, a repeat is the search's own reuse.
                again = search.solve(1.01 * beta, norm)
                assert again == reference_cover(shifted, tree, 1.01 * beta, norm)
            assert memo == solved
            assert search.solve(0.5, "linf") == reference_cover(shifted, tree, 0.5, "linf")
            assert CoverSearch(fam, tree, memo=memo).solve(0.5, "linf") == reference_cover(fam, tree, 0.5, "linf")

    def test_memo_keys_on_the_matrix_shape(self):
        # At a scale past every deviation each candidate covers every path
        # pair: two candidates (two labels at the root) against 2 x 4 pairs
        # and one candidate against 4 x 4 pairs pack to the same two 0xff
        # bytes.
        memo = {}
        two = FiniteTableFamily(["x0", "x1"], [[1.0, 0.0], [-1.0, 0.0]])
        four = FiniteTableFamily(["x0", "x1"], [[0.5, 0.0]] * 4)
        tree = LabeledTree([["x0"], ["x1", "x1"], ["x1"] * 4])
        for fam, total in ((two, 2), (four, 1)):
            rep = CoverSearch(fam, tree, memo=memo).solve(10.0, "linf")
            assert rep == reference_cover(fam, tree, 10.0, "linf")
            assert rep.stats["candidates"] == total and not rep.stats["reused"]
        assert len(memo) == 2 and {key for _, key in memo} == {b"\xff\xff"}

    def test_reports_are_reused_within_a_threshold_class(self, monkeypatch):
        # Grid values keep every deviation in {0, 0.5, 1, ...}, so scales
        # 0.2 and 0.3 threshold alike at each norm.
        fam = FiniteTableFamily(["x0", "x1"], [[1.0, 0.0], [0.0, -1.0], [-1.0, 0.5]])
        tree = LabeledTree([["x0"], ["x1", "x0"]])
        search = CoverSearch(fam, tree)
        for norm in ("linf", "l2"):
            a = search.solve(0.2, norm)
            with monkeypatch.context() as patched:
                # A repeat must not run the branch and bound again.
                patched.setattr(complexity, "_exact_set_cover", None)
                b = search.solve(0.3, norm)
            assert (a.beta, b.beta, a.norm, b.norm) == (0.2, 0.3, norm, norm)
            assert a == reference_cover(fam, tree, 0.2, norm)
            assert b == reference_cover(fam, tree, 0.3, norm)
            assert a.certificate == b.certificate and a.certificate is not b.certificate
            key = next(iter(a.certificate))
            a.certificate[key] = -1
            a.certificate[(99, ())] = 0
            assert b == reference_cover(fam, tree, 0.3, norm)
            assert search.solve(0.25, norm) == reference_cover(fam, tree, 0.25, norm)

    def test_greedy_matches_exact_on_small_instances(self):
        # the exact search may only improve on pure greedy
        rng = np.random.default_rng(9)
        for _ in range(4):
            fam = random_family(rng, 4, 2)
            tree = random_cov_tree(rng, fam, 2)
            rep = seq_cover_number(fam, tree, 0.4, "linf")
            assert 1 <= rep.size <= fam.n_predictors

    def test_l2_scale_whose_square_overflows(self):
        # 1e200**2 overflows a float: the threshold is infinite, as at inf,
        # and one tree covers every pair.
        fam = FiniteTableFamily(["x0"], [[1.0], [-1.0], [0.25]])
        tree = const_tree(2)
        search = CoverSearch(fam, tree)
        rep, at_inf = search.solve(1e200, "l2"), search.solve(math.inf, "l2")
        assert rep.size == 1 and rep.validate(fam, tree)
        assert (rep.cover, rep.certificate) == (at_inf.cover, at_inf.certificate)
        assert seq_cover_number(fam, tree, 1e200, "l2").size == 1
        assert _l2_limit(2, 1e200) == math.inf

    def test_l2_limit_squares_with_pow(self):
        # beta**2 and beta*beta differ in the last bit here; the threshold
        # keeps beta**2.
        beta = 31160736.016958777
        assert beta**2 != beta * beta
        assert _l2_limit(3, beta) == 3 * beta**2 + _EPS

    def test_stats_count_the_solve(self):
        fam = FiniteTableFamily(["x0"], [[0.5], [-1.0], [1.0], [0.0], [-0.5]])
        tree = const_tree(2)
        search = CoverSearch(fam, tree)
        rep = search.solve(0.75, "l2")
        # 5 labels at each of 3 nodes; the search runs past greedy.
        assert rep.stats == {
            "candidates": 125, "unique_rows": 54, "maximal_rows": 9, "nodes": 7, "reused": False
        }
        # 0.76 thresholds the same squared deviations alike: a reuse.
        again = search.solve(0.76, "l2")
        assert again.stats == {**rep.stats, "nodes": 0, "reused": True}
        # Greedy meets the ceil bound at the root, so no node is visited.
        assert search.solve(1.0, "linf").stats["nodes"] == 0
        # The counters stay out of equality, repr and the JSON form.
        assert rep == reference_cover(fam, tree, 0.75, "l2")
        assert "stats" not in rep.to_json_dict() and "stats" not in repr(rep)

    def test_large_universe_with_few_candidates(self):
        # Predictors differ only at the root of a depth-14 tree (16,383
        # nodes), so there are 5 candidate trees against 5 x 2^14 = 81,920
        # pairs.  Greedy takes 3 trees and the ceil bound is 2, so the solve
        # runs the branch and bound; its tables must grow with the sets and
        # the ranks it visits, not with the 6.7e9 pairs of elements.
        fam = FiniteTableFamily(["r", "c"], [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
        n = 14
        tree = LabeledTree([["r"]] + [["c"] * 2 ** (t - 1) for t in range(2, n + 1)])
        search = CoverSearch(fam, tree)
        tracemalloc.start()
        try:
            rep = search.solve(1.0, "linf")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert rep.stats == {
            "candidates": 5, "unique_rows": 5, "maximal_rows": 3, "nodes": 1, "reused": False
        }
        # Greedy's order: the tie between the 10 and 20 trees goes to the
        # first maximal row.
        assert [v.label_at(1, ()) for v in rep.cover] == [1.0, 20.0, 10.0]
        by_predictor = {}
        for (h, _), vi in rep.certificate.items():
            by_predictor.setdefault(h, set()).add(vi)
        assert len(rep.certificate) == 5 * 2**n
        assert by_predictor == {0: {0}, 1: {0}, 2: {0}, 3: {2}, 4: {1}}

    @settings(max_examples=80, deadline=None)
    @given(deviation_instances(), st.sampled_from(("linf", "l2")))
    @example(MIXED_RADIX_INSTANCE, "linf")
    @example(MIXED_RADIX_INSTANCE, "l2")
    def test_deviation_matches_literal_paths(self, instance, norm):
        fam, tree = instance
        search = CoverSearch(fam, tree)
        lit = literal_deviation(fam, tree, norm)
        if tree.depth == 0:
            # No round: the one empty tree covers every predictor, as the
            # empty fold 0.0 does, and no matrix is built.
            rep = search.solve(0.5, norm)
            assert (lit == 0.0).all() and lit.shape == (1, fam.n_predictors)
            assert rep.size == 1 and rep.certificate == {(h, ()): 0 for h in range(fam.n_predictors)}
            return
        dev = search._deviation(norm)
        # The last sign meets no node: paths differing only there agree, and
        # the search keeps one column for both.
        ends = lit.reshape(search.total, fam.n_predictors, -1, 2)
        assert ends[..., 0].tobytes() == ends[..., 1].tobytes()
        half = ends[..., 0].reshape(search.total, -1)
        assert dev.shape == half.shape and dev.tobytes() == half.tobytes()

    def test_one_shot_peak_memory(self):
        # Seven nodes of three labels each: 3^7 = 2,187 candidate trees
        # against |F| = 8 predictors on a depth-3 tree, the largest cover
        # shape the exact benchmark draws.
        fam = FiniteTableFamily(
            [f"x{j}" for j in range(7)], [[float((h + j) % 3 - 1) for j in range(7)] for h in range(8)]
        )
        tree = LabeledTree([["x0"], ["x1", "x2"], ["x3", "x4", "x5", "x6"]])
        # float64 bytes of one norm's matrix, one column per pair of paths
        # that differ only in the last sign.
        built = 2187 * 8 * 2**2 * 8
        for beta, norm in ((0.5, "linf"), (0.75, "l2"), (1.0, "l2")):
            want = seq_cover_number(fam, tree, beta, norm)  # warm numpy's lazy set-up
            assert want.stats["candidates"] == 2187
            tracemalloc.start()
            try:
                rep = seq_cover_number(fam, tree, beta, norm)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rep == want
            assert peak < 1.5 * built, (norm, peak / built)

    def test_stats_of_a_tree_without_rounds(self):
        rep = seq_cover_number(PM_ONE, LabeledTree([]), 0.5, "linf")
        assert rep.size == 1
        # No node to deviate at: each predictor is within any scale.
        for norm in ("linf", "l2"):
            assert seq_cover_number(PM_ONE, LabeledTree([]), 0.5, norm).validate(PM_ONE, LabeledTree([]))
        assert rep.stats == {
            "candidates": 1, "unique_rows": 1, "maximal_rows": 1, "nodes": 0, "reused": False
        }


class TestUniqueRows:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 20), st.integers(0, 2**32 - 1))
    def test_matches_numpy_unique(self, n_rows, width, seed):
        # Few distinct byte values give many repeated rows; widths past 8
        # bytes span several 64-bit words.
        rng = np.random.default_rng(seed)
        rows = rng.choice(np.array([0, 1, 128, 255], dtype=np.uint8), size=(n_rows, width))
        _, expected = np.unique(rows, axis=0, return_index=True)
        first, words = _first_of_unique_rows(rows)
        assert first.tolist() == expected.tolist()
        # The words are the first rows' bytes, zero-padded and big-endian.
        padded = np.zeros((len(first), words.shape[1] * 8), dtype=np.uint8)
        padded[:, :width] = rows[first]
        assert words.dtype == np.uint64
        assert (words == padded.view(">u8")).all()


class TestMaximalRows:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 40),
        st.integers(1, 20),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_pairwise_filter(self, n_rows, width, with_zero_row, seed):
        # Bytes of few bits give many rows of equal popcount and many
        # containments; widths past 8 bytes span several words.
        rng = np.random.default_rng(seed)
        alphabet = np.array([0, 1, 2, 3, 16, 48, 255], dtype=np.uint8)
        rows = rng.choice(alphabet, size=(n_rows, width), p=[0.4, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])
        if with_zero_row:
            rows[rng.integers(n_rows)] = 0
        first, words = _first_of_unique_rows(rows)
        reps = first[_maximal_rows(words)].tolist()
        masks = [int.from_bytes(rows[i].tobytes(), "little") for i in first.tolist()]
        keep = reference_maximal_masks(masks)
        assert reps == [int(first[i]) for i in keep]
        assert [int.from_bytes(rows[i].tobytes(), "little") for i in reps] == [masks[i] for i in keep]

    def test_zero_rows(self):
        # A lone zero row is maximal.  Beside others it is dropped: an
        # unsigned popcount sum would wrap under negation and keep it first.
        assert _maximal_rows(np.zeros((1, 2), dtype=np.uint64)).tolist() == [0]
        words = np.array([[0, 0], [1, 0], [0, 1 << 63], [1, 1 << 63]], dtype=np.uint64)
        assert _maximal_rows(words).tolist() == [3]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.sampled_from((2**15, 64, 1)), st.integers(0, 2**32 - 1))
    def test_popcount_levels_match_pairwise_filter(self, n_words, cells, seed):
        # A few hundred distinct rows of 2-6 bits among 12 positions: wide
        # popcount levels and many containments.  Small cell budgets split
        # each level into several blocks.
        rng = np.random.default_rng(seed)
        positions = rng.choice(64 * n_words, size=12, replace=False).tolist()
        masks = list(dict.fromkeys(
            sum(1 << b for b in rng.choice(positions, size=int(rng.integers(2, 7)), replace=False).tolist())
            for _ in range(300)
        ))
        assert len(masks) >= 200
        words = np.array([[m >> (64 * w) & (2**64 - 1) for w in range(n_words)] for m in masks], dtype=np.uint64)
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(complexity, "_DOMINANCE_CELLS", cells)
            assert _maximal_rows(words).tolist() == reference_maximal_masks(masks)


class TestPackRows:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 70), st.integers(0, 9), st.integers(0, 2**32 - 1))
    def test_matches_packbits_by_rows(self, width, n_rows, seed):
        bits = np.random.default_rng(seed).random((n_rows, width)) < 0.5
        matrix, packed = _pack_rows(n_rows, width, lambda out: np.copyto(out, bits))
        want = np.packbits(bits, axis=1, bitorder="little")
        assert matrix.shape == bits.shape and (matrix == bits).all()
        assert packed.dtype == np.uint8 and packed.shape == want.shape
        assert packed.tobytes() == want.tobytes()


class TestExactSetCover:
    def test_no_candidates_is_a_domain_error(self):
        for universe in (0, 1, 5):
            with pytest.raises(DomainError):
                _exact_set_cover([], universe)

    def test_matches_bruteforce_minimum_on_random_instances(self):
        rng = np.random.default_rng(20)
        for _ in range(40):
            universe = int(rng.integers(3, 11))
            n_masks = int(rng.integers(2, 13))
            masks = []
            for _ in range(n_masks):
                m = int(rng.integers(1, 2**universe))
                masks.append(m)
            full = (1 << universe) - 1
            union = 0
            for m in masks:
                union |= m
            if union != full:
                masks.append(full)  # ensure coverable
            got = len(_exact_set_cover(masks, universe))
            best = math.inf
            for r in range(1, len(masks) + 1):
                if r >= best:
                    break
                for combo in itertools.combinations(range(len(masks)), r):
                    acc = 0
                    for i in combo:
                        acc |= masks[i]
                    if acc == full:
                        best = r
                        break
            assert got == best


    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_matches_reference_branch_and_bound(self, universe, seed):
        # Same chosen indices as the original branch order (its tie-break),
        # and the brute-force minimum size.
        # Sparse sets make greedy miss the minimum, so the branch order
        # decides which of several minimum covers comes first; singletons
        # cover whatever the random sets leave out.
        rng = np.random.default_rng(seed)
        full = (1 << universe) - 1
        rows = rng.random((int(rng.integers(1, 17)), universe)) < rng.choice((0.2, 0.35, 0.5))
        masks = [int(row @ (1 << np.arange(universe))) for row in rows]
        missing = full & ~functools.reduce(operator.or_, masks)
        masks += [1 << e for e in range(universe) if missing >> e & 1]
        chosen = _exact_set_cover(masks, universe)
        assert chosen == reference_set_cover(masks, universe)
        minimum = next(
            r
            for r in range(1, len(masks) + 1)
            if any(
                functools.reduce(operator.or_, (masks[i] for i in combo)) == full
                for combo in itertools.combinations(range(len(masks)), r)
            )
        )
        assert len(chosen) == minimum

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 70),
        st.integers(1, 40),
        st.sampled_from((0.1, 0.2, 0.35, 0.5)),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_reference_past_one_word(self, universe, n_masks, density, seed):
        # Universes past 64 bits and up to 40 sets: the same chosen indices
        # as the reference, in no more nodes than its ceil bound visits.
        rng = np.random.default_rng(seed)
        rows = rng.random((n_masks, universe)) < density
        masks = [sum(1 << e for e in np.flatnonzero(row).tolist()) for row in rows]
        missing = ((1 << universe) - 1) & ~functools.reduce(operator.or_, masks)
        masks += [1 << e for e in range(universe) if missing >> e & 1]
        got_stats, want_stats = {}, {}
        chosen = _exact_set_cover(masks, universe, got_stats)
        assert chosen == reference_set_cover(masks, universe, want_stats)
        assert got_stats["nodes"] <= want_stats["nodes"]

    def test_greedy_early_exit(self):
        # Greedy takes 2 sets of 3 = ceil(6 / 3): the search would prune at
        # its root, so no node is visited.
        masks = [0b000111, 0b001001, 0b111000]
        stats = {}
        assert _exact_set_cover(masks, 6, stats) == [0, 2] == reference_set_cover(masks, 6)
        assert stats == {"nodes": 0}

    def test_search_past_greedy(self):
        # Greedy takes the 4-set and then two more; ceil(6 / 4) = 2 leaves
        # room below 3, and the search finds the two 3-sets.
        masks = [0b001111, 0b010011, 0b101100]
        stats, want = {}, {}
        assert _exact_set_cover(masks, 6, stats) == [1, 2] == reference_set_cover(masks, 6, want)
        assert 0 < stats["nodes"] <= want["nodes"]


class TestFatShattering:
    def test_two_constants_at_full_separation(self):
        fat, cert = fat_shattering(PM_ONE, beta=2.0, max_depth=4)
        assert fat == 1
        assert cert.witness.levels == ((0.0,),)
        assert cert.validate(PM_ONE)

    def test_singleton_cannot_realize_both_signs(self):
        fam = FiniteTableFamily(["x0"], [[0.3]])
        fat, cert = fat_shattering(fam, beta=0.1, max_depth=3)
        assert fat == 0 and cert is None

    def test_constructed_depth_two_instance(self):
        fam = FiniteTableFamily(
            ["a", "b", "c"], [[1, 1, 0], [1, -1, 0], [-1, 0, 1], [-1, 0, -1]]
        )
        fat, cert = fat_shattering(fam, beta=2.0, max_depth=3)
        assert fat == 2
        assert cert.validate(fam)

    def test_validate_requires_a_selector_for_every_path(self):
        fam = FiniteTableFamily(
            ["a", "b", "c"], [[1, 1, 0], [1, -1, 0], [-1, 0, 1], [-1, 0, -1]]
        )
        fat, cert = fat_shattering(fam, beta=2.0, max_depth=3)
        assert fat == 2 and cert.validate(fam)
        sel = cert.selectors
        first = next(iter(sel))
        missing = {path: h for path, h in sel.items() if path != first}
        extra = {**sel, (1, 1, 1): 0}
        bad_handles = [{**sel, first: h} for h in (4, -1, 0.0, None)]
        for bad in [{}, missing, extra, *bad_handles]:
            assert not dataclasses.replace(cert, selectors=bad).validate(fam)

    def test_monotone_in_beta(self):
        rng = np.random.default_rng(10)
        fam = random_family(rng, 4, 2)
        last = math.inf
        for beta in (0.25, 0.5, 1.0, 2.0):
            fat, _ = fat_shattering(fam, beta=beta, max_depth=4)
            assert fat <= last
            last = fat

    def test_guard(self):
        rng = np.random.default_rng(11)
        fam = random_family(rng, 4, 3)
        with pytest.raises(ResourceGuardError):
            fat_shattering(fam, beta=0.5, max_depth=4, guard=10)

    def test_guard_accepts_a_twenty_predictor_grid_family(self):
        # 20 predictors on the 5-point grid at 3 covariates: 9 witnesses each.
        grid = (-1.0, -0.5, 0.0, 0.5, 1.0)
        values = [[grid[(f + j * (f // 5 + 1)) % 5] for j in range(3)] for f in range(20)]
        fam = FiniteTableFamily(["x0", "x1", "x2"], values)
        assert all(len(_witness_candidates(fam.evaluate_all(x), ())) == 9 for x in fam.covariate_ids)
        # 27 choices: 27 (1 + 54 + 54^2 + 54^3 + 1 + 54 + 54^2 + 1 + 54 + 1),
        # against 2^20 * 4 * 27 = 1.13e8 for every alive word at every depth.
        assert complexity._shattering_estimate(20, 27, 4) == 27 * 163462 < FAT_SEARCH_GUARD
        depth, cert = fat_shattering(fam, beta=0.5, max_depth=4)
        assert depth >= 1 and cert.validate(fam)

    @settings(max_examples=80, deadline=None)
    @given(tiny_shattering_instances(), st.integers(1, 4))
    def test_guard_estimate_bounds_the_memo_entries(self, instance, max_depth):
        """The estimate is at least the memo entries the search makes times
        the choices each scans, and at most the old 2^|F| depth choices."""
        fam, covariates, beta, extra = instance
        xs = covariates if covariates is not None else fam.covariate_ids
        vals = [fam.evaluate_all(x) for x in xs]
        witness = [_witness_candidates(v, extra) for v in vals]
        choices = len(xs) * max(len(w) for w in witness)
        _, choose = complexity._shattering_search(xs, vals, witness, beta / 2.0 - _EPS, max_depth)
        est = complexity._shattering_estimate(fam.n_predictors, choices, max_depth)
        assert choose.cache_info().currsize * choices <= est <= 2**fam.n_predictors * max_depth * choices

    def test_extra_witness_grid_never_hurts(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            fam = random_family(rng, 3, 2)
            beta = float(rng.choice([0.25, 0.5, 1.0]))
            base, _ = fat_shattering(fam, beta=beta, max_depth=3)
            widened, _ = fat_shattering(
                fam, beta=beta, max_depth=3, extra_witness_grid=tuple(np.linspace(-1, 1, 9))
            )
            assert widened >= base


class TestShatteringDifferential:
    @settings(max_examples=80, deadline=None)
    @given(tiny_shattering_instances(), st.integers(1, 3))
    def test_matches_reference_search(self, instance, max_depth):
        fam, covariates, beta, extra = instance
        depth, cert = fat_shattering(fam, covariates, beta, max_depth, extra_witness_grid=extra)
        ref_depth, ref_cert = reference_fat_shattering(fam, covariates, beta, max_depth, extra)
        assert depth == ref_depth
        if ref_cert is None:
            assert cert is None
        else:
            assert cert.to_json_dict() == ref_cert.to_json_dict()
            assert cert.validate(fam)

    @settings(max_examples=40, deadline=None)
    @given(tiny_shattering_instances(), st.integers(1, 2))
    def test_matches_bruteforce_over_trees(self, instance, max_depth):
        fam, covariates, beta, extra = instance
        xs = covariates if covariates is not None else fam.covariate_ids
        depth, _ = fat_shattering(fam, covariates, beta, max_depth, extra_witness_grid=extra)
        assert depth == bruteforce_fat_depth(fam, xs, beta, max_depth, extra)

    def test_matches_reference_on_tiny_families(self):
        # A fixed slice of the acceptance suite's families at its scales
        # and depths.
        for fam in list(_all_tiny_families(3, 4))[::37]:
            for n in (2, 3):
                for beta in (0.5, 1.0):
                    depth, cert = fat_shattering(fam, beta=beta, max_depth=n)
                    ref_depth, ref_cert = reference_fat_shattering(fam, beta=beta, max_depth=n)
                    assert depth == ref_depth
                    assert (cert and cert.to_json_dict()) == (ref_cert and ref_cert.to_json_dict())


class TestCoverFatBound:
    def test_zero_dimension(self):
        assert cover_fat_bound(0.7, 5, 0) == 1.0

    def test_unit_base(self):
        n = 3
        assert cover_fat_bound(2 * math.e * n, n, 7) == pytest.approx(1.0)

    def test_direct_formula(self):
        assert cover_fat_bound(1.0, 2, 1) == pytest.approx(4 * math.e)

    def test_dominates_restricted_cover_at_doubled_scale(self):
        rng = np.random.default_rng(12)
        for _ in range(8):
            vals = rng.choice([-1.0, 0.0, 1.0], size=(int(rng.integers(2, 5)), 2))
            fam = FiniteTableFamily(["a", "b"], vals)
            tree = random_cov_tree(rng, fam, 3)
            for beta in (0.5, 1.0):
                fat, _ = fat_shattering(fam, beta=beta, max_depth=3)
                ninf = seq_cover_number(fam, tree, 2 * beta, "linf").size
                assert ninf <= cover_fat_bound(beta, 3, fat) + 1e-9


def quad_sqrt_log(log_n, a, b, steps=()):
    """``int_a^b sqrt(max(log_n(d), 0)) dd`` by mpmath's tanh-sinh quadrature
    at 30 digits, split at the steps inside ``(a, b)`` and on a geometric
    grid; ``log_n`` takes an mpmath number.

    Over a piece narrower than the working precision can resolve, a node
    rounds onto the piece's end, where a step takes the neighbouring piece's
    value; a node on an end is therefore read at the piece's midpoint, which
    changes the integral of a function by nothing but that rounding."""
    points = sorted({a, b} | {d for d in steps if a < d < b} | set(np.geomspace(a, b, 9).tolist()))
    points = [p for p in points if a <= p <= b]

    def piece(lo, hi):
        mid = (lo + hi) / 2
        return mpmath.quad(lambda d: mpmath.sqrt(max(log_n(d if lo < d < hi else mid), 0)), [lo, hi])

    with mpmath.workdps(30):
        lo_hi = [(mpmath.mpf(lo), mpmath.mpf(hi)) for lo, hi in zip(points, points[1:])]
        return float(sum(piece(lo, hi) for lo, hi in lo_hi))


def assert_rel(got, want, rel=1e-9):
    assert abs(got - want) <= rel * abs(want), (got, want)


class TestLogCovers:
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 1.999999, 2.0, 2.000001, 3.0])
    @pytest.mark.parametrize("a, b", [(1e-3, 1.0), (0.02, 0.6), (0.5, 4.0), (1e-6, 1e-2)])
    def test_power_against_quadrature(self, p, a, b):
        want = quad_sqrt_log(lambda d: 2.5 * d ** -mpmath.mpf(p), a, b)
        assert_rel(PowerLogCover(2.5, p).sqrt_integral(a, b), want)

    def test_power_closed_forms(self):
        assert PowerLogCover(4.0, 0.0).sqrt_integral(0.25, 1.0) == pytest.approx(1.5, rel=1e-15)
        assert PowerLogCover(1.0, 2.0).sqrt_integral(0.1, 1.0) == pytest.approx(math.log(10), rel=1e-15)
        assert PowerLogCover(-3.0, 1.0).sqrt_integral(0.1, 1.0) == 0.0
        assert PowerLogCover(2.0, 3.0).sqrt_integral(0.3, 0.3) == 0.0
        assert PowerLogCover(2.0, 1.0)(0.5) == 4.0

    @given(
        st.lists(st.floats(0.01, 2.0), min_size=1, max_size=6, unique=True),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_staircase_against_quadrature(self, deltas, data):
        deltas = sorted(deltas)
        logs = data.draw(st.lists(st.floats(-1.0, 5.0), min_size=len(deltas), max_size=len(deltas)))
        cover = StaircaseLogCover(deltas, logs)
        # Scales below, on, between and above the steps.
        mids = [(lo + hi) / 2 for lo, hi in zip(deltas, deltas[1:])]
        scales = st.sampled_from([deltas[0] / 3, deltas[-1] * 1.7] + deltas + mids)
        a, b = sorted((data.draw(scales), data.draw(scales)))
        # logs[i] from deltas[i] on, logs[0] below deltas[0].
        held = lambda d: logs[max([0] + [i for i, s in enumerate(deltas) if s <= d])]
        got, want = cover.sqrt_integral(a, b), quad_sqrt_log(held, a, b, deltas)
        if want == 0.0:
            assert got == 0.0
        else:
            assert_rel(got, want)

    def test_staircase_adjacent_float_steps(self):
        # Steps one float apart: the piece between them is narrower than the
        # quadrature's precision, and the step at 2.0 holds only from 2.0 on.
        deltas, logs = [math.nextafter(2.0, 0.0), 2.0], [0.0, 1.0]
        held = lambda d: logs[1] if d >= 2.0 else logs[0]
        assert quad_sqrt_log(held, 2.0 / 3, 2.0, deltas) == 0.0
        assert StaircaseLogCover(deltas, logs).sqrt_integral(2.0 / 3, 2.0) == 0.0
        assert_rel(StaircaseLogCover(deltas, logs).sqrt_integral(2.0 / 3, 3.0), quad_sqrt_log(held, 2.0 / 3, 3.0, deltas))

    def test_staircase_holds_each_step(self):
        cover = StaircaseLogCover([0.1, 0.5], [2.0, 1.0])
        assert [cover(d) for d in (0.01, 0.1, 0.3, 0.5, 9.0)] == [2.0, 2.0, 2.0, 1.0, 1.0]
        assert cover.sqrt_integral(0.0, 1.0) == pytest.approx(0.5 * math.sqrt(2.0) + 0.5, rel=1e-15)

    @pytest.mark.parametrize(
        "deltas, logs",
        [([], []), ([0.1, 0.5], [2.0]), ([0.1, 0.1], [2.0, 1.0]), ([0.5, 0.1], [1.0, 2.0]),
         ([0.0, 0.5], [1.0, 2.0]), ([0.1, math.inf], [1.0, 2.0]), ([0.1], [math.nan])],
    )
    def test_malformed_staircase(self, deltas, logs):
        with pytest.raises(DomainError):
            StaircaseLogCover(deltas, logs)

    @pytest.mark.parametrize("coef, p", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, -math.inf)])
    def test_malformed_power(self, coef, p):
        with pytest.raises(DomainError):
            PowerLogCover(coef, p)

    @pytest.mark.parametrize("p", [2000.0, -2000.0])
    def test_overflow_is_a_domain_error(self, p):
        # A float cannot hold 0.01^-999 (or 100^1001): a typed error, not inf.
        cover = PowerLogCover(1.0, p)
        with pytest.raises(DomainError, match="overflows a float"):
            cover.sqrt_integral(0.01, 1.0)
        with pytest.raises(DomainError, match="overflows a float"):
            cover(0.01 if p > 0 else 100.0)


class TestDudley:
    def test_zero_entropy(self):
        assert dudley_bound(NO_ENTROPY, 10, 0.3, 1.0) == pytest.approx(12.0)

    def test_closed_form_inverse_entropy(self):
        got = dudley_bound(PowerLogCover(1.0, 1.0), 100, 0.01, 1.0)
        assert got == pytest.approx(220.0, abs=1e-5)

    def test_empty_interval(self):
        assert dudley_bound(PowerLogCover(5.0, 0.0), 7, 0.4, 0.4) == pytest.approx(4 * 0.4 * 7)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            dudley_bound(NO_ENTROPY, 5, 0.0, 1.0)
        with pytest.raises(DomainError):
            dudley_bound(NO_ENTROPY, 5, 0.5, 0.2)

    def test_dominates_exact_rademacher(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            vals = rng.choice([-1.0, 0.0, 1.0], size=(int(rng.integers(2, 5)), 2))
            fam = FiniteTableFamily(["a", "b"], vals)
            n = 3
            tree = random_cov_tree(rng, fam, n)
            rad = seq_rademacher(fam, tree)
            search = CoverSearch(fam, tree)
            deltas = [0.05, 0.2, 0.5, 1.0]
            logs = [math.log(search.solve(d, "l2").size) for d in deltas]
            stair = StaircaseLogCover(deltas, logs)
            best = min(dudley_bound(stair, n, rho, 1.0) for rho in deltas)
            assert rad <= best + 1e-9


class TestRates:
    def test_exponent_values(self):
        assert rate_exponent(1.0, 2.0) == pytest.approx(-2.0 / 3.0)
        assert rate_exponent(4.0, 2.0) == pytest.approx(-0.25)
        assert rate_exponent(2.0, 3.0) == -0.5

    def test_upper_branch_selection(self):
        # exponent of n in the curved branch at p = 1, r = 2 is -2/3
        lo, hi = 2**10, 2**20
        slope = (
            math.log(rate_upper(1.0, 2.0, 1.0, 1.0, hi, with_log=False))
            - math.log(rate_upper(1.0, 2.0, 1.0, 1.0, lo, with_log=False))
        ) / (math.log(hi) - math.log(lo))
        assert slope == pytest.approx(-2.0 / 3.0, abs=1e-9)

    def test_p4_rate(self):
        slope = (
            math.log(rate_upper(4.0, 2.0, 1.0, 1.0, 2**20, with_log=False))
            - math.log(rate_upper(4.0, 2.0, 1.0, 1.0, 2**10, with_log=False))
        ) / (10 * math.log(2))
        assert slope == pytest.approx(-0.25, abs=1e-9)

    def test_lower_examples(self):
        assert rate_lower(4.0, 2.0, 2.0, 1.0, 16) == pytest.approx(0.5)
        assert rate_lower(1.0, 2.0, 0.0, 1.0, 100) == 0.0

    def test_zero_curvature_falls_back_to_flat_branch(self):
        assert rate_upper(1.0, 2.0, 1.0, 0.0, 64) == pytest.approx(
            math.sqrt(math.log(64)) * 64**-0.5
        )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            rate_upper(0.0, 2.0, 1.0, 1.0, 16)
        with pytest.raises(DomainError):
            rate_lower(-1.0, 2.0, 1.0, 1.0, 16)
        with pytest.raises(DomainError):
            rate_upper(1.0, 2.0, 1.0, 1.0, 1)
        # Every rate function checks p and r alike; the two rates also check n.
        for call in (
            lambda p, r, n: rate_exponent(p, r),
            lambda p, r, n: rate_upper(p, r, 1.0, 1.0, n),
            lambda p, r, n: rate_lower(p, r, 1.0, 1.0, n),
        ):
            for p in (0.0, -1.0):
                with pytest.raises(DomainError, match=rf"^entropy exponent must be positive, got {p}$"):
                    call(p, 2.0, 16)
            with pytest.raises(DomainError, match=r"^curvature power must be >= 2, got 1.5$"):
                call(1.0, 1.5, 16)
        for rate in (rate_upper, rate_lower):
            with pytest.raises(DomainError, match=r"^horizon must be >= 2, got 1$"):
                rate(1.0, 2.0, 1.0, 1.0, 1)

    def test_sparse_bounds(self):
        assert sparse_cover_bound(3, 3, 1.0) == pytest.approx(3.0)
        expected = 2 * math.log(4 * math.e) + 2 * math.log(2.0)
        assert sparse_cover_bound(8, 2, 0.5) == pytest.approx(expected, abs=1e-12)
        assert sparse_cover_bound(1, 1, 1.0) == pytest.approx(1.0)


class TestKhinchine:
    def test_small_values(self):
        assert khinchine_lower_bound(1) == (1.0, True)
        assert khinchine_lower_bound(2) == (1.0, True)  # boundary equality
        assert khinchine_lower_bound(4) == (1.5, True)

    def test_against_literal_path_enumeration(self):
        for k in range(1, 13):
            expected = (
                sum(abs(sum(p)) for p in itertools.product((-1, 1), repeat=k)) / 2**k
            )
            value, holds = khinchine_lower_bound(k)
            assert value == expected
            assert holds == (value >= math.sqrt(k / 2))

    def test_holds_up_to_guard(self):
        for k in range(1, 25):
            value, holds = khinchine_lower_bound(k)
            assert holds

    def test_against_closed_form(self):
        # E|S_k| = k C(k-1, floor((k-1)/2)) / 2^(k-1); both sides are the
        # correctly rounded quotient of the same rational.
        for k in range(1, 201):
            value, _ = khinchine_lower_bound(k)
            assert value == k * math.comb(k - 1, (k - 1) // 2) / 2 ** (k - 1)

    def test_guard_and_domain(self):
        assert khinchine_lower_bound(400)[1]
        with pytest.raises(ResourceGuardError):
            khinchine_lower_bound(4097)
        with pytest.raises(DomainError):
            khinchine_lower_bound(0)
