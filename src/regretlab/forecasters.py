"""Relaxation-based forecasters and their admissibility verification.

A relaxation is a mapping from observed histories to reals.  It is
admissible when (i) at the full horizon it dominates the negated best
comparator loss and (ii) one minimax prediction step never increases it.
Any admissible relaxation yields a forecaster whose regret is at most the
relaxation's value at the empty history; :func:`check_admissibility`
verifies both conditions numerically on finite grids.

Two closed-form instances are provided: the aggregating forecaster over a
finite family (softmin of squared errors) and the Vovk-Azoury-Warmuth
ridge-regression forecaster.  A forecaster instance is a sequential state
machine; distinct instances never share state, so separate runs may execute
concurrently.  A relaxation is read off an immutable state that is extended
round by round; the built-in ones keep a sufficient statistic.  Predictions
from a statistic depend on the rounds alone, so :func:`run_online` replays a
fixed sequence for the experts and ridge forecasters through one blockwise
prefix scan of their state instead of playing it round by round.  Where that
statistic is also the comparator's (the experts forecaster on the run's
table, or the ridge forecaster at the run's ridge, under square loss), the
same scan gives each round's best comparator loss.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Generator, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .comparators import (
    ComparatorFamily,
    FiniteTableFamily,
    LinearFamily,
    best_comparator_loss,
)
from .complexity import offset_rademacher_sup
from .errors import DomainError, ShapeError
from .losses import LossModel, square_loss

# The state scans hold at most this many float64 cells per block of rounds
# (rounds x |F| for a table, rounds x (d^2 + d + 1) for ridge statistics;
# the softmin of a block of predictions takes twice the table's), so their
# memory does not grow with the length of a run.
SCAN_BLOCK_CELLS = 2**14

# A scan's values per round, one list per block of rounds; the generator
# returns the state after the rounds scanned.
Blocks = Generator[list[float], None, Any]


def clip(z: float, B: float) -> float:
    """Clamp a prediction to the outcome interval [-B, B]."""
    if z > B:
        return B
    if z < -B:
        return -B
    return z


# ---------------------------------------------------------------------------
# Sufficient-statistic states
# ---------------------------------------------------------------------------


def _fold(state, history: Iterable[tuple[Any, float]]):
    """``state`` extended by each round ``(x, y)`` of ``history`` in turn."""
    for x, y in history:
        state = state.extend(x, y)
    return state


def _convert(history: Sequence[tuple[Any, float]], covariate: Callable[[Any], Any]):
    """``covariate(x)`` and ``float(y)`` for the rounds of ``history`` up to
    the first that fails to convert, and that error (None if none fails).
    Each column is converted in one pass; when some round fails, the rounds
    are converted again one at a time, so that the first bad round raises
    its own error."""
    try:
        return [covariate(x) for x, _ in history], [float(y) for _, y in history], None
    except Exception:
        pass
    xs: list = []
    ys: list[float] = []
    try:
        for x, y in history:
            xs.append(covariate(x))
            ys.append(float(y))
    except Exception as exc:
        return xs[: len(ys)], ys, exc
    return xs, ys, None


def _squared_errors(fv: np.ndarray, y: float) -> np.ndarray:
    return (fv - y) ** 2


def _logsumexp(a: np.ndarray) -> float:
    m = float(a.max())
    return m + math.log(float(np.exp(a - m).sum()))


class CumulativeLoss(NamedTuple):
    """Per-predictor cumulative loss over a finite table (``loss(values, y)``
    per round), with the softmin potential ``2 B^2 log sum_f exp(-cum_f /
    (2 B^2))`` (a max-shifted log-sum-exp) and its prediction.  The inverse
    temperature ``1/(2B^2)`` is the largest for which the one-step minimax
    condition holds for square loss on [-B, B]: at a larger one, two constant
    experts +-B over one round have a best equalized prediction that exceeds
    the potential drop."""

    family: FiniteTableFamily
    B: float
    loss: Callable[[np.ndarray, float], np.ndarray]
    cum: np.ndarray

    @classmethod
    def empty(cls, family: FiniteTableFamily, B: float, loss=_squared_errors) -> "CumulativeLoss":
        return cls(family, B, loss, np.zeros(family.n_predictors))

    def extend(self, x: Any, y: float) -> "CumulativeLoss":
        fv = self.family.evaluate_all(x)
        return CumulativeLoss(self.family, self.B, self.loss, self.cum + self.loss(fv, y))

    def potential(self) -> float:
        eta = 0.5 / (self.B * self.B)
        return _logsumexp(-eta * self.cum) / eta

    def predict(self, x: Any) -> float:
        b = self.B
        after = self.cum + np.subtract.outer((b, -b), self.family.evaluate_all(x)) ** 2
        return self.softmin_predictions(after[None], b)[0]

    @staticmethod
    def softmin_predictions(after: np.ndarray, b: float) -> list[float]:
        """The prediction at each round ``k`` from ``after[k]``, the (2, |F|)
        cumulative losses once the round's outcome is +B (row 0) or -B (row
        1): the difference of the two softmins, in one pass for all rounds.
        Each row is reduced along its own contiguous axis, so a round's
        prediction does not depend on the rounds stacked with it."""
        eta = 0.5 / (b * b)
        a = -eta * after
        m = a.max(axis=2)
        s = np.exp(a - m[:, :, None]).sum(axis=2)
        return [
            clip(((m_plus + math.log(s_plus)) - (m_minus + math.log(s_minus))) / (4.0 * b * eta), b)
            for (m_plus, m_minus), (s_plus, s_minus) in zip(m.tolist(), s.tolist())
        ]

    def best_loss(self) -> float:
        return float(self.cum.min())

    def _scan(self, history: Sequence[tuple[Any, float]], read) -> Blocks:
        """The prefix-block kernel: ``read(values, prefix)`` for each block of
        ``history``, where ``values`` holds the table rows at the block's
        covariates and ``prefix`` the (rounds + 1, |F|) cumulative losses
        before each round and after the last.  The prefix sum is carried from
        the block before and added in the order of :meth:`extend`.  A round
        whose covariate or outcome does not convert ends the scan: the rounds
        before it are read, then its error is raised.  Returns the state after
        ``history``."""
        table = np.ascontiguousarray(self.family.values.T)
        rows = max(1, SCAN_BLOCK_CELLS // max(1, table.shape[1]))
        cum = self.cum
        for start in range(0, len(history), rows):
            cols, ys, failure = _convert(history[start : start + rows], self.family.column)
            if cols:
                values = table[cols]
                prefix = np.empty((len(cols) + 1, table.shape[1]))
                prefix[0] = cum
                prefix[1:] = self.loss(values, np.array(ys)[:, None])
                np.cumsum(prefix, axis=0, out=prefix)
                cum = prefix[-1].copy()
                yield read(values, prefix)
            if failure is not None:
                raise failure
        return self._replace(cum=cum)

    def best_losses(self, history: Sequence[tuple[Any, float]]) -> Blocks:
        """:meth:`best_loss` after each round of ``history`` played on from
        this state."""
        return self._scan(history, self._block_best_losses)

    @staticmethod
    def _block_best_losses(values: np.ndarray, prefix: np.ndarray) -> list[float]:
        return prefix[1:].min(axis=1).tolist()

    def _block_predictions(self, values: np.ndarray, prefix: np.ndarray) -> list[float]:
        b = self.B
        after = prefix[:-1, None, :] + (np.array((b, -b))[:, None] - values[:, None, :]) ** 2
        return self.softmin_predictions(after, b)


class RidgeStatistics(NamedTuple):
    """Ridge statistics ``A = lam I + sum z z^T``, ``b = sum y z``, ``sum y^2``.
    The potential over ``n = horizon`` rounds is ``||b||^2_{A^-1} + 4 B^2
    log((n/d)^d / det A) - sum y^2``, both terms from one Cholesky factor; the
    Vovk-Azoury-Warmuth prediction is the ridge solution with the current
    covariate already counted in the Gram matrix, clipped."""

    A: np.ndarray
    b: np.ndarray
    sum_y2: float
    B: float
    horizon: int | None = None

    @classmethod
    def empty(cls, lam: float, d: int, B: float, horizon: int | None = None) -> "RidgeStatistics":
        if lam <= 0:
            raise DomainError(f"ridge parameter must be positive, got {lam}")
        return cls(lam * np.eye(d), np.zeros(d), 0.0, float(B), horizon)

    def extend(self, x: Sequence[float], y: float) -> "RidgeStatistics":
        z = self._covariate(x)
        A, b = self.A + np.outer(z, z), self.b + y * z
        return RidgeStatistics(A, b, self.sum_y2 + y * y, self.B, self.horizon)

    def potential(self) -> float:
        d = self.b.shape[0]
        L = np.linalg.cholesky(self.A)
        half = np.linalg.solve(L, self.b)
        quad = float(half @ half)
        logdet = 2.0 * float(np.log(np.diag(L)).sum())
        return quad + 4.0 * self.B * self.B * (d * math.log(self.horizon / d) - logdet) - self.sum_y2

    def predict(self, x: Sequence[float]) -> float:
        x = self._covariate(x)
        A = self.A + np.outer(x, x)
        return clip(float(x @ np.linalg.solve(A, self.b)), self.B)

    def _covariate(self, x: Sequence[float]) -> np.ndarray:
        z = np.asarray(x, dtype=float)
        if z.shape != self.b.shape:
            raise ShapeError(f"covariate must be a {self.b.shape[0]}-vector, got shape {z.shape}")
        return z

    def best_loss(self) -> float:
        # min_w sum (w.x - y)^2 + lam ||w||^2 = sum y^2 - b' A^-1 b
        return float(self.sum_y2 - self.b @ np.linalg.solve(self.A, self.b))

    def _scan(self, history: Sequence[tuple[Any, float]], read) -> Blocks:
        """The prefix-block kernel: ``read(z, As, bs, y2)`` for each block of
        ``history``, where ``z`` holds the block's covariates and the others
        the statistics ``A``, ``b`` and ``sum y^2`` before each round and after
        the last (rounds + 1 rows): prefix sums of ``z z^T``, ``y z`` and ``y^2`` carried from the
        block before.  A round whose covariate or outcome does not convert
        ends the scan: the rounds before it are read, then its error is
        raised.  Returns the state after ``history``."""
        d = self.b.shape[0]
        rows = max(1, SCAN_BLOCK_CELLS // (d * d + d + 1))
        A, b, sum_y2 = self.A, self.b, self.sum_y2
        for start in range(0, len(history), rows):
            zs, ys, failure = self._convert_block(history[start : start + rows])
            if len(zs):
                z, y = np.asarray(zs), np.array(ys)
                m = len(zs) + 1
                As, bs, y2 = np.empty((m, d, d)), np.empty((m, d)), np.empty(m)
                As[0], bs[0], y2[0] = A, b, sum_y2
                As[1:] = z[:, :, None] * z[:, None, :]
                bs[1:] = y[:, None] * z
                y2[1:] = y * y
                for s in (As, bs, y2):
                    np.cumsum(s, axis=0, out=s)
                A, b, sum_y2 = As[-1].copy(), bs[-1].copy(), float(y2[-1])
                yield read(z, As, bs, y2)
            if failure is not None:
                raise failure
        return self._replace(A=A, b=b, sum_y2=sum_y2)

    def _convert_block(self, block: Sequence[tuple[Any, float]]):
        """:func:`_convert` for a block of rounds: its covariates as one
        (rounds, d) array, converted at once.  When some round does not
        convert or has the wrong shape, the block is converted round by round
        instead, so that the first bad round raises its own error."""
        try:
            z = np.array([x for x, _ in block], dtype=float)
            ys = [float(y) for _, y in block]
        except Exception:
            z = None
        if z is None or z.shape != (len(block), self.b.shape[0]):
            return _convert(block, self._covariate)
        return z, ys, None

    def best_losses(self, history: Sequence[tuple[Any, float]]) -> Blocks:
        """:meth:`best_loss` after each round of ``history`` played on from
        this state, one stacked solve per block."""
        return self._scan(history, self._block_best_losses)

    @staticmethod
    def _block_best_losses(z, As, bs, y2) -> list[float]:
        w = np.linalg.solve(As[1:], bs[1:, :, None])
        return (y2[1:] - (bs[1:, None, :] @ w)[:, 0, 0]).tolist()

    def _block_predictions(self, z, As, bs, y2) -> list[float]:
        # The Gram matrix of a prediction, A + x x^T, is the statistic after
        # its round; b is the one before it.
        w = np.linalg.solve(As[1:], bs[:-1, :, None])
        return np.clip((z[:, None, :] @ w)[:, 0, 0], -self.B, self.B).tolist()


# ---------------------------------------------------------------------------
# Relaxations
# ---------------------------------------------------------------------------


@dataclass
class RelaxationOracle:
    """A relaxation driving the generic forecaster, as its immutable state at
    the empty history: ``state.extend(x, y)`` is the state one round later and
    ``state.potential()`` the relaxation's value.

    ``benchmark_loss`` returns the comparator infimum the initial condition
    is checked against (it carries any ridge modification of the regret).
    """

    state: Any
    horizon: int
    benchmark_loss: Callable[[Sequence[tuple[Any, float]]], float] | None = None

    def evaluator(self, xs: Sequence[Any], ys: Sequence[float]) -> float:
        """The relaxation at the history ``(xs, ys)``."""
        return _fold(self.state, zip(xs, ys)).potential()


def experts_relaxation_oracle(
    family: FiniteTableFamily, B: float, horizon: int
) -> RelaxationOracle:
    model = square_loss(B)
    return RelaxationOracle(
        state=CumulativeLoss.empty(family, B),
        horizon=horizon,
        benchmark_loss=lambda hist: best_comparator_loss(family, model, hist),
    )


def vaw_relaxation_oracle(lam: float, B: float, horizon: int, d: int) -> RelaxationOracle:
    model = square_loss(B)
    family = LinearFamily(d)
    return RelaxationOracle(
        state=RidgeStatistics.empty(lam, d, B, horizon),
        horizon=horizon,
        benchmark_loss=lambda hist: best_comparator_loss(family, model, hist, ridge=lam),
    )


@dataclass(frozen=True, eq=False)
class _FutureOffsetComplexity:
    """The conditional relaxation's state: past losses and rounds left."""

    losses: CumulativeLoss
    remaining: int
    sup: Callable[[int, np.ndarray], float]

    def extend(self, x: Any, y: float) -> "_FutureOffsetComplexity":
        return _FutureOffsetComplexity(self.losses.extend(x, y), self.remaining - 1, self.sup)

    def potential(self) -> float:
        # 0.0 - cum, not -cum, so that a zero past loss seeds +0.0.
        return self.sup(self.remaining, 0.0 - self.losses.cum)


def conditional_rademacher_oracle(
    family: FiniteTableFamily,
    model: LossModel,
    covariate_set: Sequence[Any],
    mu_grid: Sequence[float],
    horizon: int,
) -> RelaxationOracle:
    """The offset-complexity-of-the-future relaxation.

    Each evaluation runs an exact supremum over covariate and mean trees for
    the remaining rounds, seeded with the negated past losses per predictor.
    Usable at toy scale only.
    """
    xs_fixed = tuple(covariate_set)

    def sup(n: int, initial_scores: np.ndarray) -> float:
        return offset_rademacher_sup(
            family,
            xs_fixed,
            mu_grid,
            n,
            C=model.grad_bound,
            offset=model.curvature_minorant,
            initial_scores=initial_scores,
        )

    losses = CumulativeLoss.empty(family, model.outcome_bound, model.value_vector)
    return RelaxationOracle(
        state=_FutureOffsetComplexity(losses, horizon, sup),
        horizon=horizon,
        benchmark_loss=lambda hist: best_comparator_loss(family, model, hist),
    )


# ---------------------------------------------------------------------------
# The generic forecaster
# ---------------------------------------------------------------------------


class _OneStep(NamedTuple):
    """The generic relaxation forecaster's prediction rule on fixed grids:
    the outcomes ``y`` whose continuation potentials ``Rel(.., (x_t, y))`` it
    reads, and :meth:`predict` from those potentials.  For a loss with a
    :attr:`~LossModel.mean_minimizer` (square loss) and outcome grid {-B, +B}
    it is the equalizing closed form ``Clip((Rel(.., +B) - Rel(.., -B)) /
    (4B))`` on the outcomes (B, -B); otherwise the grid argmin of the
    worst-case one-step potential over the sorted outcomes, ties broken
    toward the smallest prediction, read off one table of the losses of every
    grid point against every outcome."""

    outcomes: tuple
    B: float
    grid: tuple | None = None
    losses: np.ndarray | None = None

    @classmethod
    def build(
        cls, model: LossModel, prediction_grid: Sequence[float], outcome_grid: Sequence[float]
    ) -> "_OneStep":
        if not prediction_grid or not outcome_grid:
            raise DomainError("prediction and outcome grids must be nonempty")
        b = model.outcome_bound
        sorted_outcomes = sorted(outcome_grid)
        if (
            model.mean_minimizer is not None
            and len(sorted_outcomes) == 2
            and abs(sorted_outcomes[0] + b) <= 1e-12
            and abs(sorted_outcomes[1] - b) <= 1e-12
        ):
            return cls((b, -b), b)
        outcomes = tuple(dict.fromkeys(sorted_outcomes))
        grid = tuple(sorted(prediction_grid))
        losses = _loss_table(model, [p for p in grid for _ in outcomes], outcomes * len(grid))
        return cls(outcomes, b, grid, losses.reshape(len(grid), len(outcomes)))

    def predict(self, rels: Sequence[float]) -> float:
        """The prediction from the potentials of the continuations by
        :attr:`outcomes`, in that order."""
        if self.losses is None:
            return clip((rels[0] - rels[1]) / (4.0 * self.B), self.B)
        return self.grid[int((self.losses + rels).max(axis=1).argmin())]


def _loss_table(model: LossModel, yhats: Sequence[float], ys: Sequence[float]) -> np.ndarray:
    """:meth:`LossModel.values` of the pairs as an array, each bitwise equal
    to ``model.value(yhat, y)``."""
    return np.fromiter(model.values(yhats, ys), float, len(yhats))


# ---------------------------------------------------------------------------
# Admissibility verification
# ---------------------------------------------------------------------------

# The distributional condition's mixing weights q: 101 points on [0, 1].
MIXING_WEIGHTS = np.linspace(0.0, 1.0, 101)


def _least(values: Iterable[float]) -> float:
    """The least of ``values`` (inf when there are none), NaN when any is
    NaN, so that a NaN margin fails."""
    return float(np.fromiter(values, float).min(initial=math.inf))


@dataclass
class MarginRow:
    t: int
    x: Any
    recursive: float
    distributional: float


@dataclass
class AdmissibilityReport:
    """Worst-case margins of the two admissibility conditions.

    Violations appear as negative margins, and a NaN margin makes every
    worst margin it enters NaN; nothing raises.  ``stats`` counts the
    distinct history prefixes checked (``prefixes``) and the potentials
    evaluated (``potentials``, one per distinct history read).
    """

    rows: list[MarginRow]
    initial_margins: list[float]
    horizon: int
    stats: dict = field(default_factory=dict)

    @property
    def worst_recursive(self) -> float:
        return _least(r.recursive for r in self.rows)

    @property
    def worst_distributional(self) -> float:
        return _least(r.distributional for r in self.rows)

    @property
    def worst_initial(self) -> float:
        return _least(self.initial_margins)

    @property
    def worst_margin(self) -> float:
        return _least((self.worst_recursive, self.worst_distributional, self.worst_initial))

    def worst_per_round(self) -> dict[int, float]:
        rounds: dict[int, list[float]] = {}
        for r in self.rows:
            rounds.setdefault(r.t, []).append(r.recursive)
        return {t: _least(margins) for t, margins in rounds.items()}

    def passed(self, tol: float = 1e-8) -> bool:
        return self.worst_margin >= -tol

    def to_json_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "worst_recursive": self.worst_recursive,
            "worst_distributional": self.worst_distributional,
            "worst_initial": self.worst_initial,
            "worst_per_round": self.worst_per_round(),
            "passed": self.passed(),
        }


def _expected_loss_minima(model: LossModel, prediction_grid: Sequence[float]) -> np.ndarray:
    """``inf_yhat [q loss(yhat, B) + (1-q) loss(yhat, -B)]`` over the grid for
    each mixing weight ``q``, with the loss's exact
    :attr:`~LossModel.mean_minimizer` added where it has one: the minimum of
    one (101, |grid|) table."""
    b = model.outcome_bound
    q = MIXING_WEIGHTS
    grid = list(prediction_grid)
    hi, lo = (_loss_table(model, grid, [y] * len(grid)) for y in (b, -b))
    minima = (q[:, None] * hi + (1.0 - q)[:, None] * lo).min(axis=1)
    if model.mean_minimizer is not None:
        mean = model.mean_minimizer(q).tolist()
        hi, lo = (_loss_table(model, mean, [y] * len(mean)) for y in (b, -b))
        minima = np.minimum(minima, q * hi + (1.0 - q) * lo)
    return minima


def _margin_rows(model: LossModel, outcomes: tuple, e_loss: np.ndarray, block: list) -> list[MarginRow]:
    """The margin rows of a block of ``(t, x_t, Rel(prefix), yhat,
    continuation potentials by outcome, Rel(.., +B), Rel(.., -B))``: the
    recursive margin at the prediction, and the distributional one as the
    largest expected-loss-plus-potential over the mixing weights."""
    ts, xs, rel_prefix, yhats, conts, rel_hi, rel_lo = zip(*block)
    k = len(outcomes)
    losses = _loss_table(model, [p for p in yhats for _ in outcomes], outcomes * len(yhats))
    recursive = np.array(rel_prefix) - (losses.reshape(-1, k) + np.array(conts)).max(axis=1)
    q = MIXING_WEIGHTS
    e_rel = q * np.array(rel_hi)[:, None] + (1.0 - q) * np.array(rel_lo)[:, None]
    distributional = np.array(rel_prefix) - (e_loss + e_rel).max(axis=1)
    return list(map(MarginRow, ts, xs, recursive.tolist(), distributional.tolist()))


def check_admissibility(
    rel: RelaxationOracle,
    model: LossModel,
    covariate_set: Sequence[Any],
    outcome_grid: Sequence[float],
    prediction_grid: Sequence[float],
    sample_histories: Sequence[Sequence[tuple[Any, float]]],
) -> AdmissibilityReport:
    """Verify both admissibility conditions on the sampled histories.

    For every distinct history prefix and every next covariate the recursive
    condition is evaluated at the forecaster's own prediction (an upper bound
    on the one-step infimum, so a passing margin certifies the algorithm).
    The distributional condition is checked over two-point outcome
    distributions on {-B, +B} with the mixing weight on the uniform grid of
    101 points on [0, 1] (step 0.01).  The initial condition is checked on
    every full history.

    The check relies on a state's ``potential()`` depending only on its
    history, a tuple of hashable ``(x, y)`` rounds (the covariates of
    ``covariate_set`` included).  It reads each distinct history's potential
    once.  Histories are nodes keyed by their parent node and last round, so
    a continuation ``prefix + (x_t, y)`` that is a sampled prefix reuses that
    prefix's node and state, and any other extends its prefix's state by one
    round; each key is hashed in constant time at any horizon.  The loss table of each condition is built once per call: the
    forecaster's grid losses, and the (101, |prediction_grid|) expected
    losses at +B and -B.  Rows are finished in blocks of at most
    ``SCAN_BLOCK_CELLS`` cells of the (rows, 101) distributional table.
    """
    b = model.outcome_bound
    n = rel.horizon
    step = _OneStep.build(model, prediction_grid, outcome_grid)
    e_loss = _expected_loss_minima(model, prediction_grid)
    outcomes = tuple(dict.fromkeys(outcome_grid))
    # Each distinct history read is a node: node 0 is the empty history, and
    # nodes[i, x, y] is node i's history extended by the round (x, y).
    nodes: dict[tuple[int, Any, float], int] = {}
    states = [rel.state]
    potentials: dict[int, float] = {}
    # The node of each distinct sampled prefix, and that prefix as (xs, ys).
    prefixes: dict[int, tuple[tuple, tuple]] = {}

    def child(i: int, x: Any, y: float) -> int:
        """The node of node ``i``'s history extended by ``(x, y)``; a new
        node's state is node ``i``'s extended by that round."""
        j = nodes.get((i, x, y))
        if j is None:
            j = nodes[i, x, y] = len(states)
            states.append(states[i].extend(x, y))
        return j

    def potential(i: int) -> float:
        if i not in potentials:
            potentials[i] = states[i].potential()
        return potentials[i]

    initial: list[float] = []
    for hist in sample_histories:
        if len(hist) != n:
            raise DomainError("each sampled history must have the oracle's horizon")
        xs = tuple(x for x, _ in hist)
        ys = tuple(y for _, y in hist)
        i = 0
        for t in range(n):
            if i not in prefixes:
                prefixes[i] = (xs[:t], ys[:t])
            i = child(i, xs[t], ys[t])
        if rel.benchmark_loss is not None:
            initial.append(potential(i) + rel.benchmark_loss(list(hist)))

    block_rows = max(1, SCAN_BLOCK_CELLS // len(MIXING_WEIGHTS))
    rows: list[MarginRow] = []
    block: list[tuple] = []
    for i, (xs, ys) in sorted(prefixes.items(), key=lambda p: (len(p[1][0]), repr(p[1]))):
        t = len(xs) + 1
        rel_prefix = potential(i)
        for x_t in covariate_set:
            cont = {y: potential(child(i, x_t, y)) for y in (*step.outcomes, *outcomes, b, -b)}
            yhat = step.predict([cont[y] for y in step.outcomes])
            block.append((t, x_t, rel_prefix, yhat, [cont[y] for y in outcomes], cont[b], cont[-b]))
            if len(block) == block_rows:
                rows += _margin_rows(model, outcomes, e_loss, block)
                block = []
    if block:
        rows += _margin_rows(model, outcomes, e_loss, block)
    stats = {"prefixes": len(prefixes), "potentials": len(potentials)}
    return AdmissibilityReport(rows=rows, initial_margins=initial, horizon=n, stats=stats)


# ---------------------------------------------------------------------------
# Forecaster state machines
# ---------------------------------------------------------------------------


class ExpertsForecaster:
    """Aggregating forecaster over a finite table, square loss on [-B, B]."""

    def __init__(self, family: FiniteTableFamily, B: float):
        self._empty = CumulativeLoss.empty(family, B)
        self.reset()

    def reset(self) -> None:
        self.state = self._empty

    def predict(self, x: Any) -> float:
        return self.state.predict(x)

    def observe(self, x: Any, y: float) -> None:
        self.state = self.state.extend(x, y)


class VAWForecaster:
    """Online ridge regression with the current covariate in the Gram matrix."""

    def __init__(self, lam: float, B: float, d: int):
        self._empty = RidgeStatistics.empty(lam, d, B)
        self.reset()

    def reset(self) -> None:
        self.state = self._empty

    def predict(self, x: Sequence[float]) -> float:
        return self.state.predict(x)

    def observe(self, x: Sequence[float], y: float) -> None:
        self.state = self.state.extend(x, y)


class RelaxationForecaster:
    """Generic forecaster driven by a relaxation oracle and finite grids."""

    def __init__(
        self,
        rel: RelaxationOracle,
        model: LossModel,
        prediction_grid: Sequence[float],
        outcome_grid: Sequence[float],
    ):
        self.rel = rel
        self.model = model
        self.prediction_grid = tuple(prediction_grid)
        self.outcome_grid = tuple(outcome_grid)
        self.reset()

    def reset(self) -> None:
        self.state = self.rel.state

    @cached_property
    def _step(self) -> _OneStep:
        return _OneStep.build(self.model, self.prediction_grid, self.outcome_grid)

    def predict(self, x: Any) -> float:
        step = self._step
        return step.predict([self.state.extend(x, y).potential() for y in step.outcomes])

    def observe(self, x: Any, y: float) -> None:
        self.state = self.state.extend(x, y)


class FixedComparatorForecaster:
    """Plays one comparator from the family, verbatim."""

    def __init__(self, family: ComparatorFamily, handle: Any):
        self.family = family
        self.handle = handle

    def reset(self) -> None:
        pass

    def predict(self, x: Any) -> float:
        return self.family.evaluate(self.handle, x)

    def observe(self, x: Any, y: float) -> None:
        pass


# ---------------------------------------------------------------------------
# Online runs and bounds
# ---------------------------------------------------------------------------


@dataclass
class RoundRecord:
    """One round of an online run."""

    t: int
    x: Any
    yhat: float
    y: float
    loss: float
    cumulative_regret: float

    def to_dict(self) -> dict:
        x = self.x
        if isinstance(x, np.ndarray):
            x = x.tolist()
        return {
            "t": self.t,
            "x": x,
            "yhat": self.yhat,
            "y": self.y,
            "loss": self.loss,
            "cumulative_regret": self.cumulative_regret,
        }


def _best_losses(
    family: ComparatorFamily, model: LossModel, ridge: float, history: Sequence[tuple[Any, float]]
) -> Iterator[list[float]]:
    """The best comparator loss on each prefix of ``history``, in blocks: a
    scan of the sufficient statistic where the family has one, otherwise
    :func:`best_comparator_loss` on every prefix."""
    if isinstance(family, FiniteTableFamily):
        yield from CumulativeLoss.empty(family, model.outcome_bound, model.value_vector).best_losses(history)
    elif isinstance(family, LinearFamily) and model.mean_minimizer is not None and ridge > 0:
        yield from RidgeStatistics.empty(ridge, family.dimension, model.outcome_bound).best_losses(history)
    else:
        prefix: list[tuple[Any, float]] = []
        for round_ in history:
            prefix.append(round_)
            yield [best_comparator_loss(family, model, prefix, ridge)]


def _shares_statistic(forecaster, model: LossModel, family: ComparatorFamily, ridge: float) -> bool:
    """Whether the forecaster's statistic has the comparator's definition, so
    that one scan serves both: the experts forecaster's cumulative squared
    errors on the run's own table under the square loss, with every table
    value inside the loss's prediction range (the comparator's range check
    then passes on every round played), or the ridge forecaster's statistics
    at lambda = ``ridge`` under the square loss.  Exact types, as in
    :func:`_play`."""
    if model.mean_minimizer is None:
        return False
    if type(forecaster) is ExpertsForecaster:
        return forecaster._empty.family is family and bool(model._predictions_ok(family.values).all())
    if type(forecaster) is VAWForecaster and isinstance(family, LinearFamily):
        return np.array_equal(forecaster._empty.A, ridge * np.eye(family.dimension))
    return False


def _play(forecaster, sequence: Sequence[tuple[Any, float]], shared: bool) -> Iterator[tuple[list, list]]:
    """The forecaster's prediction at each round of ``sequence``, in blocks,
    each paired with the best comparator losses of its rounds when
    ``shared`` (:func:`_shares_statistic`) and an empty list otherwise.  The
    experts and ridge forecasters, whose predictions depend on the rounds
    alone, replay the sequence through one scan of their statistic, which
    gives both lists of a block; any other forecaster plays ``predict`` and
    ``observe`` round by round."""
    forecaster.reset()
    # Exact types, since a subclass may override predict.
    if type(forecaster) in (ExpertsForecaster, VAWForecaster):
        state = forecaster.state
        best = state._block_best_losses if shared else lambda *block: []
        forecaster.state = yield from state._scan(
            sequence, lambda *block: (state._block_predictions(*block), best(*block))
        )
    else:
        for x, y in sequence:
            yhat = forecaster.predict(x)
            forecaster.observe(x, y)
            yield [yhat], []


def run_online(
    forecaster,
    sequence: Sequence[tuple[Any, float]],
    model: LossModel,
    family: ComparatorFamily,
    ridge: float = 0.0,
) -> tuple[list[RoundRecord], float]:
    """Play a forecaster through a fixed sequence, logging one record per round.

    The cumulative regret at each round subtracts the best comparator loss
    on the prefix (ridge-modified when ``ridge > 0``).  Outcomes are
    converted by ``float`` first, once for every kind of forecaster, and
    play stops before the first that does not convert.  The predictions come
    next.  A forecaster with a sufficient statistic (``ExpertsForecaster``,
    ``VAWForecaster``) replays those rounds through one blockwise scan of its
    state and is left in the state after the last round; any other
    forecaster plays each round by ``predict`` then ``observe``.  The losses
    of each block of predictions follow (:meth:`LossModel.values`: one range
    check per block).  When the forecaster's statistic is the comparator's
    (the experts forecaster on the run's table, or the ridge forecaster at
    lambda = ``ridge``, under the square loss; see :func:`_shares_statistic`),
    each block's best losses are read off that same scan.  Otherwise the
    best losses of all prefixes come from a second scan of the sequence
    played, so an error on the comparator side (a family that lacks a
    covariate played, a table value outside the prediction range, or a
    ridge statistic under a loss that has none) is raised only after the
    forecaster has played every round.  An outcome, forecaster or loss
    failure aborts with the log of the rounds before it attached to the
    raised exception (a forecaster failure leaves a scanned forecaster at
    its reset state); should the comparator side fail on those rounds too,
    that first exception is raised with the log of the rounds whose best
    loss the scan reached before that failure.
    """
    xs, ys, failure = _convert(list(sequence), lambda x: x)
    sequence = list(zip(xs, ys))
    shared = _shares_statistic(forecaster, model, family, ridge)
    yhats: list[float] = []
    losses: list[float] = []
    bests: list[float] = []
    try:
        for block, best_block in _play(forecaster, sequence, shared):
            t = len(yhats)
            yhats.extend(block)
            bests.extend(best_block)
            # extend keeps the losses yielded before an out-of-range round.
            losses.extend(model.values(block, ys[t : len(yhats)]))
    except Exception as exc:
        failure = exc
    if not shared:
        try:
            for block in _best_losses(family, model, ridge, sequence[: len(losses)]):
                bests.extend(block)
        except Exception:
            if failure is None:
                raise
    # Each round's cumulative loss as the running sum from 0.0 gave it.
    cum_losses = itertools.accumulate(losses, initial=0.0)
    next(cum_losses)
    regrets = [cum - best for cum, best in zip(cum_losses, bests)]
    records = list(map(RoundRecord, range(1, len(regrets) + 1), xs, yhats, ys, losses, regrets))
    if failure is not None:
        failure.partial_log = records  # type: ignore[attr-defined]
        raise failure
    final = records[-1].cumulative_regret if records else 0.0
    return records, final


def regret_bound(kind: str, **params) -> float:
    """Closed-form regret bound for the built-in forecasters.

    ``experts`` needs (B, size); ``vaw`` needs (n, d, B, lam).  The experts
    value is the relaxation's empty-history potential ``2 B^2 log(size)``,
    which the admissibility margins certify end to end (see
    :class:`CumulativeLoss` for why the factor is 2).
    """
    if kind == "experts":
        b, size = params["B"], params["size"]
        if size < 1:
            raise DomainError("family size must be >= 1")
        return 2.0 * b * b * math.log(size)
    if kind == "vaw":
        n, d, b, lam = params["n"], params["d"], params["B"], params["lam"]
        if n < lam * d:
            raise DomainError(
                f"bound needs n >= lam * d, got n={n}, lam={lam}, d={d}"
            )
        return 4.0 * d * b * b * math.log(n / (lam * d))
    raise DomainError(f"unknown bound kind {kind!r}")
