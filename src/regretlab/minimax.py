"""Exact minimax regret values for tiny discretized prediction games.

The game alternates, for each of ``n`` rounds: the adversary picks a
covariate from a finite set, the learner picks a prediction from a finite
grid, the adversary picks an outcome from a finite grid.  The payoff is the
learner's cumulative loss minus the best cumulative loss in the comparator
family.  Backward induction over (round, per-predictor cumulative losses)
gives the exact value; sup-players restricted to grids make the computed
value a lower bound of the continuum one, while the grid-restricted learner
makes it an upper bound of the grid game, so comparisons elsewhere always
pair values computed on matched grids.

The solver is :func:`trees.backward_induction`.  Layer ``t`` holds the
distinct cumulative-loss vectors after ``t`` rounds: vectors whose entries
all round alike at 1e-12 share one state (leaves stay apart), and each
(state, covariate, outcome) cell points to its child in layer ``t + 1``.
The spec's ``guard`` bounds the losses of all layers, states × |X| × |Y| ×
|F| summed over rounds.  The strategies walk the child indices of the prefix.

Ties everywhere break toward the smallest grid index, which makes strategy
replay deterministic.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace
from typing import Any, Sequence

import numpy as np

from . import losses as losses_mod
from .comparators import FiniteTableFamily, best_comparator_loss, family_from_json
from .errors import DomainError, ProtocolError
from .losses import LossModel
from .trees import INDUCTION_CELL_GUARD, backward_induction


@dataclass(frozen=True)
class GameSpec:
    """A fully discretized online regression game."""

    family: FiniteTableFamily
    model: LossModel
    horizon: int
    covariate_set: tuple[Any, ...]
    outcome_grid: tuple[float, ...]
    prediction_grid: tuple[float, ...]
    guard: float = INDUCTION_CELL_GUARD

    def __post_init__(self):
        if self.horizon < 0:
            raise DomainError(f"horizon must be nonnegative, got {self.horizon}")
        if not self.covariate_set or not self.outcome_grid or not self.prediction_grid:
            raise DomainError("covariate set and grids must be nonempty")
        b = self.model.outcome_bound
        for y in self.outcome_grid:
            if not -b - 1e-12 <= y <= b + 1e-12:
                raise DomainError(f"outcome grid point {y} outside [-{b}, {b}]")
        lo, hi = self.model.prediction_range
        for p in self.prediction_grid:
            if not lo - 1e-12 <= p <= hi + 1e-12:
                raise DomainError(f"prediction grid point {p} outside [{lo}, {hi}]")

    def with_horizon(self, horizon: int) -> "GameSpec":
        return replace(self, horizon=horizon)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GameSpec":
        return cls(
            family=family_from_json(doc["family"]),
            model=losses_mod.from_config(doc["loss"]),
            horizon=int(doc["horizon"]),
            covariate_set=tuple(doc["covariate_set"]),
            outcome_grid=tuple(float(v) for v in doc["outcome_grid"]),
            prediction_grid=tuple(float(v) for v in doc["prediction_grid"]),
        )


class SolvedGame:
    """Value function and optimal strategies of a solved game."""

    def __init__(self, spec: GameSpec):
        self.spec = spec
        f = spec.family
        m = spec.model
        self._x_index = {x: i for i, x in enumerate(spec.covariate_set)}
        # Loss tables: comparator losses per (covariate, outcome), the moves
        # of the induction, and learner losses per (prediction, outcome).
        self._floss = np.array(
            [
                [m.value(float(v), y) for v in f.evaluate_all(x)]
                for x in spec.covariate_set
                for y in spec.outcome_grid
            ]
        )
        self._ploss = np.array([[m.value(p, y) for y in spec.outcome_grid] for p in spec.prediction_grid])
        self._values, self._children = backward_induction(
            np.zeros(f.n_predictors),
            (self._floss,),
            spec.horizon,
            lambda scores: -scores.min(axis=1),
            lambda cont: self._minmax(cont.reshape(len(cont), len(spec.covariate_set), -1)).max(axis=1),
            spec.guard,
        )
        self.value = float(self._values[0][0])

    def _minmax(self, cont: np.ndarray) -> np.ndarray:
        """Min over p of max over y of ``ploss[p, y]`` plus the ``(..., |Y|)``
        continuation values, one prediction at a time to stay at their size."""
        return functools.reduce(np.minimum, ((row + cont).max(axis=-1) for row in self._ploss))

    # -- prefix bookkeeping ---------------------------------------------------

    def _continuations(self, x_hist: Sequence[Any], y_hist: Sequence[float]) -> np.ndarray:
        """Continuation value per (covariate, outcome) after the prefix."""
        t = len(x_hist)
        if t >= self.spec.horizon:
            raise ProtocolError("game already over")
        if t != len(y_hist):
            raise ProtocolError("covariate and outcome histories differ in length")
        n_y = len(self.spec.outcome_grid)
        state, losses = 0, 0.0
        for s, (x, y) in enumerate(zip(x_hist, y_hist)):
            move = self._covariate(x) * n_y + self._outcome(y)
            state, losses = self._children[s][state, move], losses + self._floss[move]
        if t + 1 < self.spec.horizon:
            return self._values[t + 1][self._children[t][state]].reshape(-1, n_y)
        # Leaves from this prefix's own losses: a merged state's floats can
        # differ in the last bits and break ties unlike the realized payoffs.
        return -(losses + self._floss).min(axis=1).reshape(-1, n_y)

    def _covariate(self, x: Any) -> int:
        if x not in self._x_index:
            raise ProtocolError(f"covariate {x!r} not in the game's covariate set")
        return self._x_index[x]

    def _outcome(self, y: float) -> int:
        for i, g in enumerate(self.spec.outcome_grid):
            if abs(g - y) <= 1e-12:
                return i
        raise ProtocolError(f"outcome {y!r} not on the game's outcome grid")

    # -- strategies -----------------------------------------------------------

    def optimal_prediction(
        self, x_hist: Sequence[Any], y_hist: Sequence[float], x_t: Any
    ) -> float:
        """Minimax-optimal grid prediction given the prefix and covariate."""
        cont = self._continuations(x_hist, y_hist)[self._covariate(x_t)]
        return self.spec.prediction_grid[int((self._ploss + cont).max(axis=1).argmin())]

    def adversary_covariate(
        self, x_hist: Sequence[Any], y_hist: Sequence[float]
    ) -> Any:
        """Worst-case covariate for the current prefix."""
        cont = self._continuations(x_hist, y_hist)
        return self.spec.covariate_set[int(self._minmax(cont).argmax())]

    def adversary_outcome(
        self,
        x_hist: Sequence[Any],
        y_hist: Sequence[float],
        x_t: Any,
        yhat: float,
    ) -> float:
        """Worst-case outcome after seeing the learner's actual prediction.

        ``yhat`` may be any admissible prediction, not only a grid point;
        cumulative-loss states stay on-grid either way.
        """
        cont = self._continuations(x_hist, y_hist)[self._covariate(x_t)]
        best_y, best = None, -math.inf
        for y, cv in zip(self.spec.outcome_grid, cont):
            v = self.spec.model.value(yhat, y) + cv
            if v > best:
                best_y, best = y, v
        return best_y

    def replay_optimal(self) -> tuple[list[tuple[Any, float, float]], float]:
        """Self-play of the optimal learner against the optimal adversary.

        Returns the list of ``(x, yhat, y)`` rounds and the realized regret,
        which reproduces the game value.
        """
        xs: list[Any] = []
        ys: list[float] = []
        rounds = []
        for _ in range(self.spec.horizon):
            x = self.adversary_covariate(xs, ys)
            yhat = self.optimal_prediction(xs, ys, x)
            y = self.adversary_outcome(xs, ys, x, yhat)
            rounds.append((x, yhat, y))
            xs.append(x)
            ys.append(y)
        if not rounds:
            return [], 0.0
        learner = math.fsum(self.spec.model.value(yh, y) for _, yh, y in rounds)
        best = best_comparator_loss(
            self.spec.family, self.spec.model, [(x, y) for x, _, y in rounds]
        )
        return rounds, learner - best

    def to_json(self) -> str:
        return json.dumps(
            {
                "value": self.value,
                "horizon": self.spec.horizon,
                "covariate_set": list(self.spec.covariate_set),
                "outcome_grid": list(self.spec.outcome_grid),
                "prediction_grid": list(self.spec.prediction_grid),
            }
        )


def minimax_value(spec: GameSpec) -> float:
    """Exact value of the discretized game."""
    return SolvedGame(spec).value
