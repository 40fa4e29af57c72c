"""The acceptance suite: every bound checkable at desk scale, checked.

Each criterion is one named check returning a :class:`CheckResult` with the
worst margin observed (nonnegative margins pass).  ``run_suite`` executes a
level ("fast" trims seed counts and sweep sizes, "full" runs everything),
prints one line per check, and returns a process exit status.

The checks build their fixtures from the library's own code: the seeded
generator, the iid-noise and tiled minimax traces of :mod:`.harness`, and
the bounds of :func:`.forecasters.regret_bound`.  The tiny games of criteria
05 and 06 are rows of one table, :data:`_TINY_GAMES`.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .comparators import FiniteTableFamily, LinearFamily
from .complexity import (
    CoverSearch,
    StaircaseLogCover,
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
    seq_rademacher,
    sparse_cover_bound,
    _shattering_search,
)
from .forecasters import (
    CumulativeLoss,
    ExpertsForecaster,
    VAWForecaster,
    _OneStep,
    check_admissibility,
    experts_relaxation_oracle,
    regret_bound,
    run_online,
    vaw_relaxation_oracle,
)
from .harness import _rng, iid_noise_rounds, tiled_game_rounds
from .losses import LossModel, absolute_loss, power_conjugate, square_loss
from .minimax import GameSpec, SolvedGame
from .trees import LabeledTree


@dataclass
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str
    seconds: float


def _result(name: str, margin: float, detail: str, t0: float, tol: float = 0.0) -> CheckResult:
    return CheckResult(
        name=name,
        passed=bool(margin >= -tol),
        margin=margin,
        detail=detail,
        seconds=time.perf_counter() - t0,
    )


# The games' grids: three and five evenly spaced points on [-1, 1].
_P3, _P5 = (-1.0, 0.0, 1.0), tuple(np.linspace(-1.0, 1.0, 5))


# ---------------------------------------------------------------------------
# Criterion 1: experts regret never exceeds the relaxation's initial value.
# ---------------------------------------------------------------------------


def _best_response_errors(family: FiniteTableFamily, B: float) -> np.ndarray:
    """(|X|, 2, |F|) squared errors of each predictor at each covariate once
    the outcome is +B (row 0) or -B (row 1)."""
    return (family.values.T[:, None, :] - np.array((B, -B))[:, None]) ** 2


def _best_response_sequences(errors: np.ndarray, draws: np.ndarray, B: float) -> list[list[float]]:
    """Greedy adversaries, one per stacked table: each round pick the extreme
    outcome maximizing the instantaneous regret increment against the
    aggregating forecaster's prediction, ties to -B.  Returns each
    adversary's outcomes.

    ``errors`` stacks the (S, |X|, 2, |F|) tables of
    :func:`_best_response_errors` and ``draws`` the (S, n) covariate indices.
    The cumulative losses after either outcome, the running sum plus the
    covariate's squared errors, give the forecaster's prediction, both
    candidate best losses and, at the outcome picked, the next running sum.
    All S adversaries step together: one sum and one max/exp/sum/min along
    the contiguous last axis of an (S, 2, |F|) array per round, which rounds
    each adversary's rows as its own (1, 2, |F|) array would.
    """
    n_seqs, n = draws.shape
    ys = (B, -B)
    seqs = np.arange(n_seqs)
    # The forecaster's potential kernel (which reads only B) and step.
    kernel, step = CumulativeLoss(None, B, None, None), _OneStep.build(square_loss(B), ys, ys)
    # steps[t, s]: adversary s's squared errors at its round-t covariate.
    steps = errors[seqs, draws.T]
    cum, before = np.zeros((n_seqs, errors.shape[3])), [0.0] * n_seqs
    outcomes: list[list[float]] = [[] for _ in range(n_seqs)]
    for t in range(n):
        after = cum[:, None, :] + steps[t]
        yhats = step.predictions(kernel.potentials(after.reshape(2 * n_seqs, -1)).reshape(n_seqs, 2))
        rows = []
        for s, (yhat, best) in enumerate(zip(yhats, after.min(axis=2).tolist())):
            # -B is tried first, so it wins ties.
            row = max((1, 0), key=lambda r: (yhat - ys[r]) ** 2 - (best[r] - before[s]))
            before[s] = best[row]
            outcomes[s].append(ys[row])
            rows.append(row)
        cum = after[seqs, rows]
    return outcomes


def check_experts_regret(level: str = "full") -> CheckResult:
    """Experts forecaster: final regret <= certified bound on every sequence.

    B = 1, 10 random table experts, n = 1000, seeded sequences of three
    kinds: iid noise around one expert, the minimax adversary of a
    compatible tiny game tiled to the horizon, and a greedy best-response
    adversary.  The bound is the relaxation's empty-history value
    2 B^2 log|F|; the greedy adversary gets within a few percent of it,
    which also witnesses that the factor 2 is not slack.
    """
    t0 = time.perf_counter()
    n, b, size = 1000, 1.0, 10
    seeds = range(50 if level == "full" else 9)
    bound = regret_bound("experts", B=b, size=size)
    worst = math.inf
    worst_kind = ""
    runs, greedy = [], []
    for seed in seeds:
        rng = _rng(seed)
        family = FiniteTableFamily(
            [f"x{j}" for j in range(4)], rng.uniform(-b, b, size=(size, 4))
        )
        kind = seed % 3
        seq = []
        if kind == 0:
            seq = iid_noise_rounds(family, int(rng.integers(size)), 0.3, n, b, rng)
        elif kind == 1:
            # The two-round square-loss game on the first two covariates.
            sub = FiniteTableFamily(family.covariate_ids[:2], family.values[:, :2])
            spec = GameSpec(sub, square_loss(1.0), 2, sub.covariate_ids, (-1.0, 1.0), _P5)
            seq = tiled_game_rounds(spec, n)
        else:
            # The covariates are the adversary's only draws: one batch gives
            # the values and generator state of n scalar draws.  The
            # adversaries of all seeds then play as one stack.
            greedy.append((len(runs), family, rng.integers(4, size=n)))
        runs.append((family, kind, seq))
    if greedy:
        errors = np.stack([_best_response_errors(family, b) for _, family, _ in greedy])
        draws = np.stack([draws for _, _, draws in greedy])
        for (i, family, xs), ys in zip(greedy, _best_response_sequences(errors, draws, b)):
            runs[i][2].extend(zip([family.covariate_ids[j] for j in xs.tolist()], ys))
    for family, kind, seq in runs:
        slack = bound - run_online(ExpertsForecaster(family, b), seq, square_loss(b), family).final_regret
        if slack < worst:
            worst = slack
            worst_kind = ("iid", "game", "best-response")[kind]
    return _result(
        "experts_regret_bound",
        worst,
        f"bound={bound:.6f}, worst slack on a {worst_kind} sequence",
        t0,
        tol=1e-9,
    )


# ---------------------------------------------------------------------------
# Criterion 2: the ridge forecaster's oracle inequality.
# ---------------------------------------------------------------------------


def _vaw_sequence(
    w_true: np.ndarray, n: int, b: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``n`` covariates uniform on the cube scaled by ``1/sqrt(d)`` and their
    outcomes ``w_true . x`` plus 0.2 Gaussian noise, clipped to [-b, b].

    The draws stay one covariate then one noise per round, the order of the
    random stream.  A covariate is drawn as ``d`` uniforms on [0, 1) into its
    row and mapped to ``-1 + 2u`` once on the whole matrix, the arithmetic of
    ``rng.uniform(-1, 1, size=d)``; the rest of the arithmetic also runs once
    on the whole sequence.  The inner products are stacked 1 x d by d x 1
    products, which reproduce the per-round ``w_true @ x`` bit for bit on the
    check's sequences, where ``X @ w_true`` does not.
    """
    d = len(w_true)
    U, g = np.empty((n, d)), np.empty(n)
    for t in range(n):
        rng.random(out=U[t])
        g[t] = rng.standard_normal()
    X = (-1.0 + 2.0 * U) / math.sqrt(d)
    return X, np.clip((X[:, None, :] @ w_true[:, None])[:, 0, 0] + 0.2 * g, -b, b)


def _comparator_scores(X: np.ndarray, Y: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each comparator row ``f`` of ``F``: its mean squared error on (X, Y)
    and its squared norm.  Stacked n x d by d x 1 and 1 x d by d x 1 products
    give each comparator's ``X @ f`` and ``f @ f`` bit for bit on the
    check's runs, where ``X @ F.T`` does not; each row's mean is reduced
    along its own contiguous axis, as ``mean()`` of that row alone."""
    fits = ((X[None] @ F[:, :, None])[:, :, 0] - Y) ** 2
    return fits.mean(axis=1), (F[:, None, :] @ F[:, :, None])[:, 0, 0]


def check_vaw_regret(level: str = "full") -> CheckResult:
    """Ridge forecaster inequality for the ridge-optimal comparator plus
    100 random comparators, d in {1, 2, 5}, lambda = 1, B = 1, n = 1000."""
    t0 = time.perf_counter()
    n, lam, b = 1000, 1.0, 1.0
    seeds = range(20 if level == "full" else 4)
    worst = math.inf
    for d in (1, 2, 5):
        for seed in seeds:
            rng = _rng(1000 + seed)
            w_true = rng.uniform(-1, 1, size=d)
            w_true /= max(1.0, float(np.linalg.norm(w_true)))
            X, Y = _vaw_sequence(w_true, n, b, rng)
            seq = list(zip(map(tuple, X.tolist()), Y.tolist()))
            log = run_online(VAWForecaster(lam, b, d), seq, square_loss(b), LinearFamily(d), ridge=lam)
            lhs = math.fsum(log.loss) / n
            ridge_f = np.linalg.solve(X.T @ X + lam * np.eye(d), X.T @ Y)
            term = regret_bound("vaw", n=n, d=d, B=b, lam=lam) / n
            # One draw of the 100 random comparators, as 100 draws of d give them.
            F = np.vstack([ridge_f, rng.uniform(-2, 2, size=(100, d))])
            fits, norms = _comparator_scores(X, Y, F)
            rhs = fits + lam * norms / (2 * n) + term
            worst = min(worst, float((rhs - lhs).min()))
    return _result("vaw_regret_bound", worst, "min slack of the displayed inequality", t0, tol=1e-9)


# ---------------------------------------------------------------------------
# Criterion 3: admissibility margins.
# ---------------------------------------------------------------------------


def check_admissibility_margins(level: str = "full") -> CheckResult:
    """Experts relaxation under full outcome-history enumeration and ridge
    relaxation on random histories: recursive, distributional, and initial
    margins all >= -1e-8."""
    t0 = time.perf_counter()
    n = 6 if level == "full" else 4
    cases = []  # (relaxation, covariates, histories)
    for seed, size in ((0, 3), (1, 5)):
        fam = FiniteTableFamily(["a", "b"], _rng(seed).uniform(-1, 1, size=(size, 2)))
        xs = ["a", "b"] * 3
        hists = [list(zip(xs[:n], ys)) for ys in itertools.product((-1.0, 1.0), repeat=n)]
        cases.append((experts_relaxation_oracle(fam, 1.0, n), ["a", "b"], hists))
    for d in (1, 2):
        rng = _rng(50 + d)
        hists = []
        for _ in range(6 if level == "full" else 3):
            xs = [tuple(0.7 * rng.uniform(-1, 1, size=d) / math.sqrt(d)) for _ in range(n)]
            hists.append(list(zip(xs, [float(rng.uniform(-1, 1)) for _ in range(n)])))
        cases.append((vaw_relaxation_oracle(1.0, 1.0, n, d), [h[0][0] for h in hists[:4]], hists))
    model, grid = square_loss(1.0), tuple(np.linspace(-1, 1, 21))
    worst = min(
        check_admissibility(rel, model, covs, (-1.0, 1.0), grid, hists).worst_margin for rel, covs, hists in cases
    )
    return _result("admissibility_margins", worst, "min over recursive/distributional/initial", t0, tol=1e-8)


# ---------------------------------------------------------------------------
# Criterion 4: conjugate-driven finite-collection bound.
# ---------------------------------------------------------------------------


def check_finite_lemma(level: str = "full") -> CheckResult:
    """Quadratic-offset bound equals 2 C^2 log|W| to 1e-6, and the exact
    offset maximum over explicit tree collections never exceeds the bound;
    nor, with no offset and C = 1/2, the linear bound with G = 1."""
    t0 = time.perf_counter()
    sq_conj = lambda s: power_conjugate(1.0, 2.0, s)
    worst = math.inf
    detail_err = 0.0
    for c in (0.5, 1.0, 2.0):
        for size in (2, 4, 16):
            got = finite_class_offset_bound(size, 5, c, sq_conj)
            err = abs(got - 2.0 * c * c * math.log(size))
            detail_err = max(detail_err, err)
            worst = min(worst, 1e-6 - err)
    n = 8 if level == "full" else 6
    quart_conj = lambda s: power_conjugate(1.0, 4.0, s)
    for seed in range(6 if level == "full" else 3):
        rng = _rng(400 + seed)
        size = int(rng.choice([2, 4, 16]))
        trees = [
            LabeledTree(
                [[float(v) for v in rng.uniform(-1, 1, size=2 ** (t - 1))] for t in range(1, n + 1)]
            )
            for _ in range(size)
        ]
        linear = finite_class_linear_bound(trees, 1.0)
        worst = min(worst, linear - offset_tree_max(trees, 0.5, lambda x: 0.0))
        for c in (0.5, 1.0):
            exact_sq = offset_tree_max(trees, c, lambda x: x * x)
            worst = min(worst, finite_class_offset_bound(size, n, c, sq_conj) - exact_sq)
            exact_q = offset_tree_max(trees, c, lambda x: x**4)
            worst = min(worst, finite_class_offset_bound(size, n, c, quart_conj) - exact_q)
    return _result("finite_class_offset_bound", worst, f"max |bound - 2C^2 log W| = {detail_err:.2e}", t0, tol=1e-9)


# ---------------------------------------------------------------------------
# Criteria 5 and 6: minimax sandwiches and monotonicity.
# ---------------------------------------------------------------------------


def _grid_grad_bound(model: LossModel, prediction_grid, outcome_grid) -> float:
    return max(
        abs(model.subgradient(p, y)) for p in prediction_grid for y in outcome_grid
    )


def _zero_witness_depth(
    family: FiniteTableFamily, covariates: Sequence[Any], beta: float, max_depth: int
) -> int:
    """Largest shattering depth with the witness tree pinned to zero."""
    values = [family.evaluate_all(x) for x in covariates]
    depth, _ = _shattering_search(
        covariates, values, [[0.0]] * len(values), beta / 2.0 - 1e-12, max_depth
    )
    return depth


# Criteria 05 and 06's games: name, table (a row per predictor at the one
# covariate "x0"), loss, horizon, outcome grid, prediction grid, beta.  The
# absolute-loss games (beta None) carry full grid-valued families for the
# two-sided sandwich; the square-loss ones meet the two-point lower bound's
# hypotheses at beta: witness 0, boundary outcomes, values inside half the
# outcome range.
_TINY_GAMES = (
    ("abs-pm1", [[-1.0], [1.0]], absolute_loss, 3, (-1.0, 1.0), _P3, None),
    ("abs-3const", [[-1.0], [0.0], [1.0]], absolute_loss, 2, _P3, _P5, None),
    ("abs-pm1-fine", [[-1.0], [1.0]], absolute_loss, 2, _P3, _P5, None),
    ("sq-halves", [[0.5], [-0.5]], square_loss, 1, (-1.0, 1.0), _P5, 0.5),
    ("sq-skew", [[0.5], [-0.25]], square_loss, 1, (-1.0, 1.0), _P5, 0.5),
)


def _tiny_games() -> list[tuple[str, GameSpec, float | None]]:
    """``(name, spec, beta)`` of each row of :data:`_TINY_GAMES`, every loss
    at B = 1."""
    return [
        (name, GameSpec(FiniteTableFamily(["x0"], table), loss(1.0), n, ("x0",), outcomes, grid), beta)
        for name, table, loss, n, outcomes, grid, beta in _TINY_GAMES
    ]


def check_minimax_sandwiches(level: str = "full") -> CheckResult:
    """Per game: absolute loss Rad <= V <= 2 Rad (within the reported grid
    tolerance); square loss V_1 >= (R/2) * beta at the shattering scale; and
    the offset supremum with grid gradient bound dominates V."""
    t0 = time.perf_counter()
    worst = math.inf
    details = []
    for name, spec, beta in _tiny_games():
        v = SolvedGame(spec).value
        model = spec.model
        n = spec.horizon
        gaps = np.diff(sorted(spec.prediction_grid))
        pred_gap = float(gaps.max()) if len(gaps) else 0.0
        grid_tol = model.grad_bound * pred_gap / 2.0 * n
        if beta is None:
            rad = max(
                seq_rademacher(spec.family, t)
                for t in _test_trees(spec.covariate_set, n, seed=0)
            )
            worst = min(worst, v - rad + 1e-9)  # lower side is grid-exact
            worst = min(worst, 2.0 * rad + grid_tol - v)
            details.append(f"{name}: Rad={rad:.4f} V={v:.4f} tol={grid_tol:.3f}")
        else:
            depth = _zero_witness_depth(spec.family, spec.covariate_set, beta, max_depth=3)
            fat, _ = fat_shattering(spec.family, spec.covariate_set, beta, max_depth=3)
            # The two-point construction needs the witness pinned at the
            # expected-loss minimizer 0; for these games it matches the
            # unrestricted dimension.
            worst = min(worst, 0.0 if depth == fat else -1.0)
            r_slope = 2.0 * model.outcome_bound
            v_fat = SolvedGame(spec.with_horizon(depth)).value
            worst = min(worst, v_fat - (r_slope / 2.0) * depth * beta + 1e-9)
            details.append(f"{name}: fat={depth} V={v_fat:.4f}")
        g_grid = _grid_grad_bound(model, spec.prediction_grid, spec.outcome_grid)
        upper = offset_rademacher_sup(
            spec.family,
            spec.covariate_set,
            tuple(spec.prediction_grid),
            n,
            C=g_grid,
            offset=model.curvature_minorant,
        )
        worst = min(worst, upper - v)
    return _result("minimax_sandwiches", worst, "; ".join(details), t0, tol=1e-9)


def check_value_monotonicity(level: str = "full") -> CheckResult:
    """V_n nondecreasing over n in {0, 1, 2, 3} on every tiny game."""
    t0 = time.perf_counter()
    worst = math.inf
    for _, spec, _ in _tiny_games():
        vals = [SolvedGame(spec.with_horizon(h)).value for h in (0, 1, 2, 3)]
        worst = min(worst, min(b - a for a, b in zip(vals, vals[1:])))
    return _result("value_monotonicity", worst, "min consecutive V_{n+1} - V_n", t0, tol=1e-12)


# ---------------------------------------------------------------------------
# Criterion 7: covers, fat shattering, and the integrated-entropy bound.
# ---------------------------------------------------------------------------


def _cycling_tree(covariates: Sequence[Any], n: int) -> LabeledTree:
    xs = list(covariates)
    return LabeledTree.from_function(n, lambda t, p: xs[(t - 1 + sum(1 for s in p if s > 0)) % len(xs)])


def _test_trees(covariates: Sequence[Any], n: int, seed: int) -> list[LabeledTree]:
    xs = list(covariates)
    trees = [LabeledTree.constant(n, xs[0])]
    if len(xs) > 1:
        trees.append(_cycling_tree(xs, n))
        rng = _rng(9000 + seed)
        trees.append(
            LabeledTree.from_function(n, lambda t, p: xs[int(rng.integers(len(xs)))])
        )
    return trees


# Combinations tested per array step of the tiny-family enumeration; larger
# chunks raise the peak memory of building the list and save little time.
_FAMILY_CHUNK = 1024


def _sorts_before(image, mask):
    """Nonzero where the set with bit mask ``image`` sorts before the set
    with bit mask ``mask`` of the same size (as sorted tuples): the lowest
    bit where they differ lies in ``image``."""
    diff = image ^ mask
    return diff & -diff & image


def _all_tiny_families(max_covariates: int = 3, max_size: int = 4):
    """Every family of at most ``max_size`` functions from a <=3-point domain
    into {-1, 0, 1}, deduplicated up to covariate relabeling.

    The functions are numbered in lexicographic order, so sorted tuples of
    their numbers order families as the sorted value tuples would.  A family
    is listed once, as the relabeling whose sorted numbers come first: the
    first of its relabelings that the enumeration reaches.

    A combination is a bit mask over the function numbers, and it is listed
    when no relabeled image ``_sorts_before`` it; chunks of combinations are
    tested as int64 arrays."""
    for n_x in range(1, max_covariates + 1):
        functions = list(itertools.product((-1.0, 0.0, 1.0), repeat=n_x))
        number = {f: i for i, f in enumerate(functions)}
        # image_bit[k, i]: the bit of function i under the k-th permutation;
        # the first is the identity.
        image_bit = np.array(
            [
                [1 << number[tuple(f[i] for i in perm)] for f in functions]
                for perm in itertools.permutations(range(n_x))
            ],
            dtype=np.int64,
        )
        ids = [f"x{j}" for j in range(n_x)]
        for size in range(1, max_size + 1):
            combos = itertools.combinations(range(len(functions)), size)
            while chunk := list(itertools.islice(combos, _FAMILY_CHUNK)):
                rows = np.array(chunk, dtype=np.int64)
                mask = image_bit[0][rows].sum(axis=1)
                earlier = np.zeros_like(mask)
                for bits in image_bit[1:]:
                    earlier |= _sorts_before(bits[rows].sum(axis=1), mask)
                for combo, skip in zip(chunk, earlier.tolist()):
                    if not skip:
                        yield FiniteTableFamily(ids, [list(functions[i]) for i in combo])


def check_combinatorics(level: str = "full") -> CheckResult:
    """For exhaustively generated tiny families at depths 2 and 3: the
    averaged-scale cover never beats the pointwise one, the doubled-scale
    pointwise cover obeys the shattering bound, and the integrated-entropy
    bound dominates the sequential Rademacher complexity."""
    t0 = time.perf_counter()
    families = list(_all_tiny_families(3, 4))
    if level != "full":
        rng = _rng(7)
        keep = set(rng.choice(len(families), size=min(300, len(families)), replace=False))
        families = [f for i, f in enumerate(families) if i in keep]
    worst = math.inf
    checked = 0
    stair_deltas = [0.02, 0.1, 0.3, 0.6, 1.0]
    # Minimum covers by coverage matrix, shared by every search of this run;
    # matrices counts each search's distinct ones.
    memo: dict = {}
    matrices = 0
    for fam in families:
        # The search returns min(true dimension, max_depth), so the depth-2
        # value is the depth-3 one capped at 2.
        fat3 = {beta: fat_shattering(fam, beta=beta, max_depth=3)[0] for beta in (0.5, 1.0)}
        for n in (2, 3):
            fats = {beta: min(fat, n) for beta, fat in fat3.items()}
            for ti, tree in enumerate(_test_trees(fam.covariate_ids, n, seed=checked)):
                search = CoverSearch(fam, tree, memo=memo)
                for beta in (0.5, 1.0):
                    n2 = search.solve(beta, "l2").size
                    ninf = search.solve(beta, "linf").size
                    worst = min(worst, ninf - n2)
                    ninf_2b = search.solve(2.0 * beta, "linf").size
                    worst = min(worst, cover_fat_bound(beta, n, fats[beta]) - ninf_2b)
                if ti == 0 and n == 3:
                    rad = seq_rademacher(fam, tree)
                    logs = [math.log(search.solve(d, "l2").size) for d in stair_deltas]
                    stair = StaircaseLogCover(stair_deltas, logs)
                    dud = min(dudley_bound(stair, n, rho, 1.0) for rho in stair_deltas)
                    worst = min(worst, dud - rad)
                matrices += len(search._reports)
                checked += 1
    return _result(
        "cover_fat_dudley_consistency",
        worst,
        f"{len(families)} families x trees x depths checked; {len(memo)} set covers solved,"
        f" {matrices - len(memo)} served by the memo",
        t0,
        tol=1e-9,
    )


# ---------------------------------------------------------------------------
# Criterion 8: Khinchine.
# ---------------------------------------------------------------------------


def check_khinchine(level: str = "full") -> CheckResult:
    """Exact E|sum of k signs| >= sqrt(k/2) for all k <= 24."""
    t0 = time.perf_counter()
    worst = math.inf
    for k in range(1, 25):
        value, holds = khinchine_lower_bound(k)
        worst = min(worst, value - math.sqrt(k / 2.0))
        if not holds:
            worst = min(worst, -1.0)
    return _result("khinchine_inequality", worst, "min E|S_k| - sqrt(k/2) over k <= 24", t0)


# ---------------------------------------------------------------------------
# Criterion 9: rate formulas.
# ---------------------------------------------------------------------------


def check_rates(level: str = "full") -> CheckResult:
    """Upper and lower rate exponents agree on a 5 x 3 (p, r) grid (log-log
    slopes of the log-free power laws), both branches give -1/2 at p = 2,
    and the sparse covering bound matches its formula arithmetic."""
    t0 = time.perf_counter()
    worst = math.inf
    n_lo, n_hi = 2**10, 2**20
    dlog = math.log(n_hi) - math.log(n_lo)
    for p in (0.5, 1.0, 1.5, 2.0, 4.0):
        for r in (2.0, 3.0, 4.0):
            up = (
                math.log(rate_upper(p, r, 1.0, 1.0, n_hi, with_log=False))
                - math.log(rate_upper(p, r, 1.0, 1.0, n_lo, with_log=False))
            ) / dlog
            lo = (
                math.log(rate_lower(p, r, 1.0, 1.0, n_hi))
                - math.log(rate_lower(p, r, 1.0, 1.0, n_lo))
            ) / dlog
            expo = rate_exponent(p, r)
            worst = min(worst, 1e-6 - abs(up - lo), 1e-6 - abs(up - expo))
    for r in (2.0, 3.0, 4.0):
        curved_exponent_at_2 = -r / (2.0 * (r - 1.0) + 2.0)
        worst = min(worst, 1e-12 - abs(curved_exponent_at_2 + 0.5))
    worst = min(worst, 1e-12 - abs(rate_exponent(2.0, 3.0) + 0.5))
    sparse_expected = 2.0 * math.log(4.0 * math.e) + 2.0 * math.log(2.0)
    sparse_err = abs(sparse_cover_bound(8, 2, 0.5) - sparse_expected)
    worst = min(worst, 1e-3 - sparse_err)
    return _result("rate_formulas", worst, f"sparse bound err {sparse_err:.1e}", t0)


# ---------------------------------------------------------------------------
# Criterion 10: offset collapse.
# ---------------------------------------------------------------------------


def check_offset_collapse(level: str = "full") -> CheckResult:
    """Zero offset and zero mean tree collapse the offset complexity to
    exactly 2C times the sequential Rademacher complexity (bitwise, for
    dyadic 2C); a random mean tree agrees to float accumulation error."""
    t0 = time.perf_counter()
    worst = math.inf
    n_max = 10 if level == "full" else 7
    zero = lambda x: 0.0
    for seed in range(8):
        rng = _rng(600 + seed)
        n = int(rng.integers(1, n_max + 1))
        n_x = int(rng.integers(1, 4))
        size = int(rng.integers(1, 5))
        fam = FiniteTableFamily(
            [f"x{j}" for j in range(n_x)], rng.uniform(-1, 1, size=(size, n_x))
        )
        ids = fam.covariate_ids
        x_tree = LabeledTree.from_function(n, lambda t, p: ids[int(rng.integers(n_x))])
        c = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
        lhs = offset_rademacher(fam, x_tree, LabeledTree.constant(n, 0.0), c, zero)
        rhs = 2.0 * c * seq_rademacher(fam, x_tree)
        worst = min(worst, 0.0 if lhs == rhs else -abs(lhs - rhs))
        mu = LabeledTree.from_function(n, lambda t, p: float(rng.uniform(-1, 1)))
        lhs_mu = offset_rademacher(fam, x_tree, mu, c, zero)
        worst = min(worst, 1e-9 - abs(lhs_mu - rhs))
    return _result("offset_collapse", worst, "exact for zero mean, 1e-9 for random mean", t0)


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------

ALL_CHECKS: dict[str, Callable[[str], CheckResult]] = {
    "experts_regret_bound": check_experts_regret,
    "vaw_regret_bound": check_vaw_regret,
    "admissibility_margins": check_admissibility_margins,
    "finite_class_offset_bound": check_finite_lemma,
    "minimax_sandwiches": check_minimax_sandwiches,
    "value_monotonicity": check_value_monotonicity,
    "cover_fat_dudley_consistency": check_combinatorics,
    "khinchine_inequality": check_khinchine,
    "rate_formulas": check_rates,
    "offset_collapse": check_offset_collapse,
}


def format_table(results: Sequence[CheckResult]) -> str:
    lines = [f"{'check':34} {'status':7} {'margin':>12} {'time':>8}"]
    for r in results:
        lines.append(
            f"{r.name:34} {'PASS' if r.passed else 'FAIL':7} {r.margin:12.3e} {r.seconds:7.2f}s"
        )
        if r.detail:
            lines.append(f"    {r.detail}")
    return "\n".join(lines)


def run_suite(level: str = "fast", names: Sequence[str] | None = None) -> tuple[list[CheckResult], int]:
    """Run the acceptance checks; returns (results, exit status)."""
    selected = names or list(ALL_CHECKS)
    results = [ALL_CHECKS[name](level) for name in selected]
    status = 0 if all(r.passed for r in results) else 1
    return results, status
