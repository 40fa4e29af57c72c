"""Relaxation-based forecasters and their admissibility verification.

A relaxation is a mapping from observed histories to reals.  It is
admissible when (i) at the full horizon it dominates the negated best
comparator loss and (ii) one minimax prediction step never increases it.
Any admissible relaxation yields a forecaster whose regret is at most the
relaxation's value at the empty history; :func:`check_admissibility`
verifies both conditions numerically on finite grids.

There is one forecaster class, :class:`RelaxationForecaster`; the
aggregating forecaster over a finite family and the Vovk-Azoury-Warmuth
ridge forecaster are it on the experts and vaw relaxations under square
loss.  A forecaster instance is a sequential state machine; distinct
instances never share state, so separate runs may execute concurrently.  A
relaxation is read off an immutable state that is extended round by round;
the built-in ones keep a sufficient statistic, named by the fields a round
adds to, with one batched potential kernel that one reader feeds with those
fields stacked over many states (``potential()`` is its one-row call) and
one prediction rule: the one-step rule on that kernel's continuation
potentials, or the ridge closed form under the equalizing step.  Predictions from a statistic depend on the rounds alone,
so :func:`run_online` replays a fixed sequence through one blockwise prefix
scan of the state, one rule call per block.  Where that statistic is also
the comparator's, the same scan gives each round's best comparator loss.
:func:`check_admissibility` reads the potentials of a built-in statistic's
whole history graph with one kernel call.
"""

from __future__ import annotations

import itertools
import math
import operator
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
# a block's predictions take |outcomes| times that for the continuations,
# plus rounds x |grid| x |outcomes| for a grid rule), so their memory does
# not grow with the length of a run.
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
    the first that fails to convert, and that error (None if none fails)."""
    xs: list = []
    ys: list[float] = []
    try:
        for x, y in history:
            xs.append(covariate(x))
            ys.append(float(y))
    except Exception as exc:
        return xs[: len(ys)], ys, exc
    return xs, ys, None


def _prefix_sums(carry: Any, increments: np.ndarray) -> np.ndarray:
    """``carry`` and its running sums with each row of ``increments`` in
    turn: the (rows + 1) prefix statistics of a block of rounds, summed in
    place by ``np.add.accumulate`` (``np.cumsum``'s kernel without the
    wrapper's per-call cost, paid three times by a one-round ridge scan)."""
    prefix = np.empty((len(increments) + 1, *increments.shape[1:]))
    prefix[0], prefix[1:] = carry, increments
    return np.add.accumulate(prefix, axis=0, out=prefix)


def _stacked_potentials(states: Sequence) -> list[float]:
    """The potential of each of ``states`` (built-in statistics of one type,
    ``B`` and horizon): one ``potentials`` kernel call on the stacks of their
    ``additive`` fields, those a round adds to; each row has the bits of its
    state's one-row call."""
    fields = states[0].additive
    return states[0].potentials(*(np.array([getattr(s, f) for s in states]) for f in fields)).tolist()


def _potential(state) -> float:
    return _stacked_potentials([state])[0]


def _squared_errors(fv: np.ndarray, y: float) -> np.ndarray:
    return (fv - y) ** 2


class CumulativeLoss(NamedTuple):
    """Per-predictor cumulative loss over a finite table (``loss(values, y)``
    per round), with the softmin potential ``2 B^2 log sum_f exp(-cum_f /
    (2 B^2))`` (a max-shifted log-sum-exp).  The inverse temperature
    ``1/(2B^2)`` is the largest for which the one-step minimax condition
    holds for square loss on [-B, B]: at a larger one, two constant experts
    +-B over one round have a best equalized prediction that exceeds the
    potential drop."""

    family: FiniteTableFamily
    B: float
    loss: Callable[[np.ndarray, float], np.ndarray]
    cum: np.ndarray

    additive = ("cum",)
    potential = _potential

    @classmethod
    def empty(cls, family: FiniteTableFamily, B: float, loss=_squared_errors) -> "CumulativeLoss":
        return cls(family, B, loss, np.zeros(family.n_predictors))

    def extend(self, x: Any, y: float) -> "CumulativeLoss":
        fv = self.family.evaluate_all(x)
        return CumulativeLoss(self.family, self.B, self.loss, self.cum + self.loss(fv, y))

    def potentials(self, cums: np.ndarray) -> np.ndarray:
        """The potential of each row of ``cums``, cumulative losses on this
        state's table at its ``B``.  Each row is reduced along its own
        contiguous axis and its log taken by ``math.log``, so a row's value
        does not depend on the rows stacked with it."""
        eta = 0.5 / (self.B * self.B)
        a = -eta * cums
        m = a.max(axis=1)
        s = np.exp(a - m[:, None]).sum(axis=1)
        return (m + np.fromiter(map(math.log, s.tolist()), float, len(s))) / eta

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
        table = self.family.values.T
        rows = max(1, SCAN_BLOCK_CELLS // max(1, table.shape[1]))
        cum = self.cum
        for start in range(0, len(history), rows):
            cols, ys, failure = _convert(history[start : start + rows], self.family.column)
            if cols:
                values = table[cols]
                prefix = _prefix_sums(cum, self.loss(values, np.array(ys)[:, None]))
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

    def _predictions(self, step: "_OneStep", values: np.ndarray, prefix: np.ndarray) -> list:
        """The one-step rule at each round of a block, on the potentials of
        the round's continuations by ``step.outcomes`` from one kernel call."""
        after = np.stack([prefix[:-1] + self.loss(values, y) for y in step.outcomes], axis=1)
        return step.predictions(self.potentials(after.reshape(-1, after.shape[2])).reshape(len(values), -1))


class RidgeStatistics(NamedTuple):
    """Ridge statistics ``A = lam I + sum z z^T``, ``b = sum y z``, ``sum y^2``.
    The potential over ``n = horizon`` rounds is ``||b||^2_{A^-1} + 4 B^2
    log((n/d)^d / det A) - sum y^2``, both terms from one Cholesky factor.
    In exact arithmetic the equalizing step ``(Rel(+B) - Rel(-B)) / (4B)``
    is ``z^T (A + z z^T)^-1 b`` at any potential scale (the log-determinant
    and ``y^2`` terms cancel): the Vovk-Azoury-Warmuth prediction."""

    A: np.ndarray
    b: np.ndarray
    sum_y2: float
    B: float
    horizon: int | None = None

    additive = ("A", "b", "sum_y2")
    potential = _potential

    @classmethod
    def empty(cls, lam: float, d: int, B: float, horizon: int | None = None) -> "RidgeStatistics":
        if lam <= 0:
            raise DomainError(f"ridge parameter must be positive, got {lam}")
        if horizon is not None and horizon < 1:
            raise DomainError(f"the ridge potential needs a horizon of at least one round, got {horizon}")
        return cls(lam * np.eye(d), np.zeros(d), 0.0, float(B), horizon)

    def extend(self, x: Sequence[float], y: float) -> "RidgeStatistics":
        z = self._covariate(x)
        A, b = self.A + np.outer(z, z), self.b + y * z
        return RidgeStatistics(A, b, self.sum_y2 + y * y, self.B, self.horizon)

    def potentials(self, As: np.ndarray, bs: np.ndarray, sum_y2: np.ndarray) -> np.ndarray:
        """The potential of each stacked statistic ``(As[k], bs[k],
        sum_y2[k])`` at this state's ``B`` and horizon: one stacked Cholesky
        factor and solve, whose products and logs give each row the bits of
        its own one-matrix computation."""
        d = bs.shape[1]
        L = np.linalg.cholesky(As)
        half = np.linalg.solve(L, bs[:, :, None])
        quad = (half.transpose(0, 2, 1) @ half)[:, 0, 0]
        logdet = 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
        return quad + 4.0 * self.B * self.B * (d * math.log(self.horizon / d) - logdet) - sum_y2

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
                As = _prefix_sums(A, z[:, :, None] * z[:, None, :])
                bs = _prefix_sums(b, y[:, None] * z)
                y2 = _prefix_sums(sum_y2, y * y)
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

    def _predictions(self, step: "_OneStep", z, As, bs, y2) -> list:
        """The one-step rule at each round of a block: the equalizing step's
        closed form (``A + z z^T`` is the statistic after the round and ``b``
        the one before it), or the rule on the continuation potentials by
        ``step.outcomes`` from one kernel call."""
        if step.losses is None:
            w = np.linalg.solve(As[1:], bs[:-1, :, None])
            return np.clip((z[:, None, :] @ w)[:, 0, 0], -step.B, step.B).tolist()
        k, d = len(step.outcomes), z.shape[1]
        b = np.stack([bs[:-1] + y * z for y in step.outcomes], axis=1).reshape(-1, d)
        sum_y2 = np.stack([y2[:-1] + y * y for y in step.outcomes], axis=1).ravel()
        return step.predictions(self.potentials(np.repeat(As[1:], k, axis=0), b, sum_y2).reshape(len(z), k))


def _scans(state) -> bool:
    """Whether a forecaster predicts through a scan of ``state``: ridge
    statistics, or cumulative squared errors, a loss that cannot fail inside
    a block (exact types, since a subclass may override ``potential``)."""
    return type(state) is RidgeStatistics or (type(state) is CumulativeLoss and state.loss is _squared_errors)


# ---------------------------------------------------------------------------
# Relaxations
# ---------------------------------------------------------------------------


@dataclass
class RelaxationOracle:
    """A relaxation driving the generic forecaster, as its immutable state at
    the empty history: ``state.extend(x, y)`` is the state one round later and
    ``state.potential()`` the relaxation's value.  A state that also has
    ``best_loss()``, the comparator infimum at its history (carrying any
    ridge modification of the regret), has its initial condition checked by
    :func:`check_admissibility`.  ``horizon`` is None for the experts and
    ridge forecasters.
    """

    state: Any
    horizon: int | None

    def evaluator(self, xs: Sequence[Any], ys: Sequence[float]) -> float:
        """The relaxation at the history ``(xs, ys)``."""
        return _fold(self.state, zip(xs, ys)).potential()


def experts_relaxation_oracle(
    family: FiniteTableFamily, B: float, horizon: int | None
) -> RelaxationOracle:
    return RelaxationOracle(CumulativeLoss.empty(family, B), horizon)


def vaw_relaxation_oracle(lam: float, B: float, horizon: int | None, d: int) -> RelaxationOracle:
    return RelaxationOracle(RidgeStatistics.empty(lam, d, B, horizon), horizon)


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

    def best_loss(self) -> float:
        return self.losses.best_loss()


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
    return RelaxationOracle(_FutureOffsetComplexity(losses, horizon, sup), horizon)


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
        return self.predictions(np.array([rels], dtype=float))[0]

    def predictions(self, rels: np.ndarray) -> list:
        """:meth:`predict` for each row of the (rounds, outcomes) potentials
        ``rels``: one clip per row, or one argmin per row of the (rounds,
        grid) worst cases, which takes the first grid point on ties."""
        b = self.B
        if self.losses is None:
            return [clip(z, b) for z in ((rels[:, 0] - rels[:, 1]) / (4.0 * b)).tolist()]
        worst = (self.losses + rels[:, None, :]).max(axis=2)
        return [self.grid[i] for i in worst.argmin(axis=1).tolist()]


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
        # A leg with no margins is null, for infinity is not JSON.
        return {
            "horizon": self.horizon,
            "worst_recursive": self.worst_recursive if self.rows else None,
            "worst_distributional": self.worst_distributional if self.rows else None,
            "worst_initial": self.worst_initial if self.initial_margins else None,
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


def _margin_rows(
    model: LossModel, step: _OneStep, outcomes: tuple, e_loss: np.ndarray, rels: np.ndarray, block: list
) -> list[MarginRow]:
    """The margin rows of a block of ``(t, x_t, prefix, continuations)``,
    where ``prefix`` indexes ``rels`` at Rel(prefix) and ``continuations`` at
    the continuation potentials by :attr:`_OneStep.outcomes`, by
    ``outcomes``, then at +B and -B: the recursive margin at the forecaster's
    prediction, and the distributional one as the largest
    expected-loss-plus-potential over the mixing weights."""
    ts, xs, prefix, conts = zip(*block)
    rel_prefix = rels[list(prefix)]
    conts = rels[np.array(conts)]
    k, m = len(step.outcomes), len(outcomes)
    yhats = step.predictions(conts[:, :k])
    losses = _loss_table(model, [p for p in yhats for _ in outcomes], outcomes * len(yhats))
    recursive = rel_prefix - (losses.reshape(-1, m) + conts[:, k : k + m]).max(axis=1)
    q = MIXING_WEIGHTS
    e_rel = q * conts[:, -2, None] + (1.0 - q) * conts[:, -1, None]
    distributional = rel_prefix - (e_loss + e_rel).max(axis=1)
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
    101 points on [0, 1] (step 0.01).  When the state has a ``best_loss()``,
    the initial condition ``potential() + best_loss() >= 0`` is checked on
    every full history's state (at horizon 0, the empty history's alone, with
    no rows).  Rows come in round order, and within a round in the order the
    sampled histories first reach each prefix.  On ridge
    statistics under the equalizing step the prediction is read off the
    potentials, ``(Rel(+B) - Rel(-B)) / (4B)``, while the forecaster plays
    its closed form.  The two differ by a few ulps of the potentials (a
    bound the tests state), which moves a margin far less than the 1e-8
    tolerance of :meth:`AdmissibilityReport.passed`, so the certificate
    covers the rule that runs.

    The check relies on a state's ``potential()`` depending only on its
    history, a tuple of hashable ``(x, y)`` rounds (the covariates of
    ``covariate_set`` included).  It reads each distinct history's potential
    once.  Histories are nodes keyed by their parent node and last round, so
    a continuation ``prefix + (x_t, y)`` that is a sampled prefix reuses that
    prefix's node and state, and any other extends its prefix's state by one
    round; each key is hashed in constant time at any horizon.  Once every
    node is built, the potentials are read at one go: one kernel call on the
    stacked statistics of a :class:`CumulativeLoss` or
    :class:`RidgeStatistics` state (each row bitwise its ``potential()``),
    and one ``potential()`` per node for any other state.  The loss table of
    each condition is built once per call: the forecaster's grid losses, and
    the (101, |prediction_grid|) expected losses at +B and -B.  Rows are
    finished in blocks of at most ``SCAN_BLOCK_CELLS`` cells of the (rows,
    101) distributional table.
    """
    b = model.outcome_bound
    n = rel.horizon
    step = _OneStep.build(model, prediction_grid, outcome_grid)
    e_loss = _expected_loss_minima(model, prediction_grid)
    outcomes = tuple(dict.fromkeys(outcome_grid))
    cont_ys = (*step.outcomes, *outcomes, b, -b)
    # Each distinct history is a node: node 0 is the empty history, and
    # nodes[i, x, y] is node i's history extended by the round (x, y).
    nodes: dict[tuple[int, Any, float], int] = {}
    states = [rel.state]
    # The position of each node whose potential is read, in first-read order.
    slots: dict[int, int] = {}
    # The round of each distinct sampled prefix's node, in first-seen order.
    prefixes: dict[int, int] = {}

    def child(i: int, x: Any, y: float) -> int:
        """The node of node ``i``'s history extended by ``(x, y)``; a new
        node's state is node ``i``'s extended by that round."""
        j = nodes.get((i, x, y))
        if j is None:
            j = nodes[i, x, y] = len(states)
            states.append(states[i].extend(x, y))
        return j

    def slot(i: int) -> int:
        return slots.setdefault(i, len(slots))

    ends: list[tuple[int, float]] = []
    for hist in sample_histories:
        if len(hist) != n:
            raise DomainError("each sampled history must have the oracle's horizon")
        i = 0
        for t, (x, y) in enumerate(hist, 1):
            prefixes.setdefault(i, t)
            i = child(i, x, y)
        if hasattr(rel.state, "best_loss"):
            ends.append((slot(i), states[i].best_loss()))

    cells: list[tuple] = []
    for i, t in sorted(prefixes.items(), key=lambda p: p[1]):
        at = slot(i)
        for x_t in covariate_set:
            cells.append((t, x_t, at, [slot(child(i, x_t, y)) for y in cont_ys]))
    states_read = [states[i] for i in slots]
    # Exact types, since a subclass may override potential.
    if type(rel.state) in (CumulativeLoss, RidgeStatistics) and states_read:
        values = _stacked_potentials(states_read)
    else:
        values = [state.potential() for state in states_read]
    initial = [values[k] + loss for k, loss in ends]
    rels = np.array(values, dtype=float)
    block_rows = max(1, SCAN_BLOCK_CELLS // len(MIXING_WEIGHTS))
    rows: list[MarginRow] = []
    for start in range(0, len(cells), block_rows):
        rows += _margin_rows(model, step, outcomes, e_loss, rels, cells[start : start + block_rows])
    stats = {"prefixes": len(prefixes), "potentials": len(slots)}
    return AdmissibilityReport(rows=rows, initial_margins=initial, horizon=n, stats=stats)


# ---------------------------------------------------------------------------
# Forecaster state machines
# ---------------------------------------------------------------------------


class RelaxationForecaster:
    """Generic forecaster driven by a relaxation oracle and finite grids.

    ``predict`` applies the one-step rule to the potentials of the state
    extended by the covariate and each outcome of the rule.  On a built-in
    statistic (:func:`_scans`) it is the statistic's rule for a block of
    rounds, on one round; :func:`run_online` applies that rule to each
    block of a scan instead (see :func:`_play`)."""

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
        step, state = self._step, self.state
        if _scans(state):  # the outcome of the round scanned is not read
            return next(state._scan([(x, 0.0)], lambda *block: state._predictions(step, *block)))[0]
        return step.predict([state.extend(x, y).potential() for y in step.outcomes])

    def observe(self, x: Any, y: float) -> None:
        self.state = self.state.extend(x, y)


class ExpertsForecaster(RelaxationForecaster):
    """Aggregating forecaster over a finite table, square loss on [-B, B]:
    the experts relaxation's forecaster on the outcomes {-B, B}."""

    def __init__(self, family: FiniteTableFamily, B: float):
        super().__init__(experts_relaxation_oracle(family, B, None), square_loss(B), (-B, B), (-B, B))

    # This class's own entries, for a tracer that wraps each class's.
    predict, observe = RelaxationForecaster.predict, RelaxationForecaster.observe


class VAWForecaster(RelaxationForecaster):
    """Online ridge regression with the current covariate in the Gram matrix:
    the vaw relaxation's forecaster on the outcomes {-B, B}."""

    def __init__(self, lam: float, B: float, d: int):
        super().__init__(vaw_relaxation_oracle(lam, B, None, d), square_loss(B), (-B, B), (-B, B))

    # This class's own entries, for a tracer that wraps each class's.
    predict, observe = RelaxationForecaster.predict, RelaxationForecaster.observe


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


def _comparator_statistic(family: ComparatorFamily, model: LossModel, ridge: float):
    """The empty statistic of the run's best comparator losses, or None."""
    if isinstance(family, FiniteTableFamily):
        return CumulativeLoss.empty(family, model.outcome_bound, model.value_vector)
    if isinstance(family, LinearFamily) and model.mean_minimizer is not None and ridge > 0:
        return RidgeStatistics.empty(ridge, family.dimension, model.outcome_bound)
    return None


def _best_losses(
    family: ComparatorFamily, model: LossModel, ridge: float, history: Sequence[tuple[Any, float]]
) -> Iterator[list[float]]:
    """The best comparator loss on each prefix of ``history``, in blocks: a
    scan of the sufficient statistic where the family has one, otherwise
    :func:`best_comparator_loss` on every prefix."""
    statistic = _comparator_statistic(family, model, ridge)
    if statistic is not None:
        yield from statistic.best_losses(history)
    else:
        prefix: list[tuple[Any, float]] = []
        for round_ in history:
            prefix.append(round_)
            yield [best_comparator_loss(family, model, prefix, ridge)]


def _scanned(forecaster) -> bool:
    # Exact types, since a subclass may override predict.
    return type(forecaster) in (RelaxationForecaster, ExpertsForecaster, VAWForecaster) and _scans(forecaster.state)


def _shares_statistic(forecaster, model: LossModel, family: ComparatorFamily, ridge: float) -> bool:
    """Whether a scanned forecaster's empty statistic equals the comparator's,
    so that one scan serves both, under the square loss: the same table's
    cumulative squared errors, with every table value inside the loss's
    prediction range (the comparator's range check then passes on every
    round played), or ridge statistics at lambda = ``ridge``."""
    if not _scanned(forecaster) or model.mean_minimizer is None:
        return False
    mine, theirs = forecaster.rel.state, _comparator_statistic(family, model, ridge)
    if type(mine) is not type(theirs):
        return False
    if type(mine) is CumulativeLoss and not (mine.family is family and model._predictions_ok(family.values).all()):
        return False
    return all(np.array_equal(getattr(mine, f), getattr(theirs, f)) for f in mine.additive)


def _play(forecaster, sequence: Sequence[tuple[Any, float]], shared: bool) -> Iterator[tuple[list, list, Any]]:
    """The forecaster's predictions for ``sequence`` in blocks, each with the
    best comparator losses of its rounds when ``shared``
    (:func:`_shares_statistic`, else an empty list) and the error that ends
    play after it (else None).  A scanned forecaster replays the sequence
    through one scan of its statistic, one prediction-rule call per block; a
    call that raises has its block reread one round at a time, up to the
    first round that fails.  Any other forecaster plays round by round."""
    forecaster.reset()
    if not _scanned(forecaster):
        for x, y in sequence:
            yhat = forecaster.predict(x)
            forecaster.observe(x, y)
            yield [yhat], [], None
        return
    state, step = forecaster.state, forecaster._step

    def rule(*block):
        return state._predictions(step, *block), state._block_best_losses(*block) if shared else []

    def read(*block):
        try:
            return (*rule(*block), None)
        except Exception:
            pass
        rounds = len(block[0])
        yhats: list = []
        bests: list = []
        for r in range(rounds):
            # Round r alone: its covariate row and its two prefix-statistic rows.
            try:
                yhat, best = rule(*(a[r : r + 1 + len(a) - rounds] for a in block))
            except Exception as exc:
                return yhats, bests, exc
            yhats += yhat
            bests += best
        return yhats, bests, None

    forecaster.state = yield from state._scan(sequence, read)


class RunLog(NamedTuple):
    """An online run as columns of the :class:`RoundRecord` fields; ``t`` is a range."""

    t: Sequence[int]
    x: list
    yhat: list[float]
    y: list[float]
    loss: list[float]
    cumulative_regret: list[float]

    @property
    def final_regret(self) -> float:
        return self.cumulative_regret[-1] if self.cumulative_regret else 0.0


def run_online(
    forecaster,
    sequence: Sequence[tuple[Any, float]],
    model: LossModel,
    family: ComparatorFamily,
    ridge: float = 0.0,
) -> RunLog:
    """Play a forecaster through a fixed sequence, logging its rounds as the
    columns of a :class:`RunLog`.

    The cumulative regret at each round subtracts the best comparator loss
    on the prefix (ridge-modified when ``ridge > 0``).  Outcomes are
    converted by ``float`` first, once for every kind of forecaster, and
    play stops before the first that does not convert.  The predictions come
    next.  A relaxation forecaster on a built-in statistic (the experts and
    ridge forecasters, and the experts and vaw relaxations; see
    :func:`_scanned`) replays those rounds through one blockwise scan of its
    state, one prediction-rule call per block, and is left in the state after
    the last round.  Any other forecaster plays each round by ``predict``
    then ``observe``.  The losses of each block of predictions follow
    (:meth:`LossModel.values`: one range check per block).  When the
    forecaster's statistic is the comparator's (cumulative squared errors on
    the run's table, or ridge statistics at lambda = ``ridge``, under the
    square loss; see :func:`_shares_statistic`), each block's best losses
    are read off that same scan.  Otherwise the best losses of all prefixes
    come from a second scan of the sequence played, so an error on the
    comparator side (a family that lacks a covariate played, a table value
    outside the prediction range, or a ridge statistic under a loss that has
    none) is raised only after the forecaster has played every round.  An
    outcome, forecaster or loss failure aborts with the records of the
    rounds before it attached to the raised exception as ``partial_log`` (a
    forecaster failure leaves a scanned forecaster at its reset state);
    should the comparator side fail on those rounds too, that first
    exception is raised with the records of the rounds whose best loss the
    scan reached before that failure.
    """
    xs, ys, failure = _convert(sequence, lambda x: x)
    # The rounds played as (x, float(y)) pairs: the sequence itself when it
    # is a list of them, so that a long run holds no second copy.
    pairs = failure is None and type(sequence) is list and set(map(type, sequence)) <= {tuple}
    if not (pairs and all(map(operator.is_, ys, map(operator.itemgetter(1), sequence)))):
        sequence = list(zip(xs, ys))
    shared = _shares_statistic(forecaster, model, family, ridge)
    yhats: list[float] = []
    losses: list[float] = []
    bests: list[float] = []
    try:
        for block, best_block, error in _play(forecaster, sequence, shared):
            t = len(yhats)
            yhats.extend(block)
            bests.extend(best_block)
            # extend keeps the losses yielded before an out-of-range round.
            losses.extend(model.values(block, ys[t : len(yhats)]))
            if error is not None:
                raise error
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
    t = range(1, len(regrets) + 1)
    if failure is not None:
        failure.partial_log = list(map(RoundRecord, t, xs, yhats, ys, losses, regrets))  # type: ignore[attr-defined]
        raise failure
    return RunLog(t, xs, yhats, ys, losses, regrets)


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
