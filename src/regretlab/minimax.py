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

Ties everywhere break toward the smallest grid index, which makes strategy
replay deterministic.  Sibling subgames are independent, so the solver's
recursion is safe to parallelize; one strategy replay is sequential.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Any, Sequence

import numpy as np

from . import losses as losses_mod
from .comparators import FiniteTableFamily, best_comparator_loss, family_from_json
from .errors import DomainError, ProtocolError, ResourceGuardError
from .losses import LossModel

STATE_GUARD = 5e7
_QUANT = 1e-12


@dataclass(frozen=True)
class GameSpec:
    """A fully discretized online regression game."""

    family: FiniteTableFamily
    model: LossModel
    horizon: int
    covariate_set: tuple[Any, ...]
    outcome_grid: tuple[float, ...]
    prediction_grid: tuple[float, ...]
    guard: float = STATE_GUARD

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
        branching = (
            len(self.covariate_set) * len(self.outcome_grid) * len(self.prediction_grid)
        )
        estimate = self.horizon * branching**self.horizon
        if estimate > self.guard:
            raise ResourceGuardError(
                "game state space above the guard", size_estimate=float(estimate)
            )

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
        self._fvals = {x: f.evaluate_all(x) for x in spec.covariate_set}
        # Loss tables: comparator losses per (covariate, outcome) and
        # learner losses per (prediction, outcome).
        self._floss = {
            (x, y): np.array([m.value(float(v), y) for v in self._fvals[x]])
            for x in spec.covariate_set
            for y in spec.outcome_grid
        }
        self._ploss = {
            (p, y): m.value(p, y)
            for p in spec.prediction_grid
            for y in spec.outcome_grid
        }
        self._memo: dict[tuple[int, tuple[int, ...]], float] = {}
        self._zero = tuple([0.0] * f.n_predictors)
        self.value = self._value(0, self._zero)

    # -- core recursion -----------------------------------------------------

    @staticmethod
    def _key(losses: tuple[float, ...]) -> tuple[int, ...]:
        return tuple(int(round(v / _QUANT)) for v in losses)

    def _value(self, t: int, losses: tuple[float, ...]) -> float:
        if t == self.spec.horizon:
            return -min(losses)
        key = (t, self._key(losses))
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        best = -math.inf
        for x in self.spec.covariate_set:
            v = self._round_value(t, losses, x)
            if v > best:
                best = v
        self._memo[key] = best
        return best

    def _continuations(
        self, t: int, losses: tuple[float, ...], x: Any
    ) -> dict[float, float]:
        """Continuation value per outcome, after the adversary played ``x``."""
        out = {}
        for y in self.spec.outcome_grid:
            nxt = tuple(a + b for a, b in zip(losses, self._floss[(x, y)]))
            out[y] = self._value(t + 1, nxt)
        return out

    def _round_value(self, t: int, losses: tuple[float, ...], x: Any) -> float:
        cont = self._continuations(t, losses, x)
        best = math.inf
        for p in self.spec.prediction_grid:
            worst = max(self._ploss[(p, y)] + cv for y, cv in cont.items())
            if worst < best:
                best = worst
        return best

    # -- prefix bookkeeping ---------------------------------------------------

    def _losses_after(self, x_hist: Sequence[Any], y_hist: Sequence[float]) -> tuple:
        if len(x_hist) != len(y_hist):
            raise ProtocolError("covariate and outcome histories differ in length")
        if len(x_hist) > self.spec.horizon:
            raise ProtocolError("history longer than the game horizon")
        losses = self._zero
        for x, y in zip(x_hist, y_hist):
            if x not in self._fvals:
                raise ProtocolError(f"covariate {x!r} not in the game's covariate set")
            yk = self._match_outcome(y)
            losses = tuple(a + b for a, b in zip(losses, self._floss[(x, yk)]))
        return losses

    def _match_outcome(self, y: float) -> float:
        for g in self.spec.outcome_grid:
            if abs(g - y) <= 1e-12:
                return g
        raise ProtocolError(f"outcome {y!r} not on the game's outcome grid")

    # -- strategies -----------------------------------------------------------

    def optimal_prediction(
        self, x_hist: Sequence[Any], y_hist: Sequence[float], x_t: Any
    ) -> float:
        """Minimax-optimal grid prediction given the prefix and covariate."""
        t = len(x_hist)
        if t >= self.spec.horizon:
            raise ProtocolError("game already over")
        if x_t not in self._fvals:
            raise ProtocolError(f"covariate {x_t!r} not in the game's covariate set")
        losses = self._losses_after(x_hist, y_hist)
        cont = self._continuations(t, losses, x_t)
        best_p, best = None, math.inf
        for p in self.spec.prediction_grid:
            worst = max(self._ploss[(p, y)] + cv for y, cv in cont.items())
            if worst < best:
                best_p, best = p, worst
        return best_p

    def adversary_covariate(
        self, x_hist: Sequence[Any], y_hist: Sequence[float]
    ) -> Any:
        """Worst-case covariate for the current prefix."""
        t = len(x_hist)
        if t >= self.spec.horizon:
            raise ProtocolError("game already over")
        losses = self._losses_after(x_hist, y_hist)
        best_x, best = None, -math.inf
        for x in self.spec.covariate_set:
            v = self._round_value(t, losses, x)
            if v > best:
                best_x, best = x, v
        return best_x

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
        t = len(x_hist)
        if t >= self.spec.horizon:
            raise ProtocolError("game already over")
        if x_t not in self._fvals:
            raise ProtocolError(f"covariate {x_t!r} not in the game's covariate set")
        losses = self._losses_after(x_hist, y_hist)
        cont = self._continuations(t, losses, x_t)
        best_y, best = None, -math.inf
        for y in self.spec.outcome_grid:
            v = self.spec.model.value(yhat, y) + cont[y]
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


def optimal_adversary(spec: GameSpec | SolvedGame) -> SolvedGame:
    """The solved game, whose adversary methods realize the sup-players."""
    return spec if isinstance(spec, SolvedGame) else SolvedGame(spec)


def value_monotonicity(spec: GameSpec, horizons: Sequence[int]) -> list[float]:
    """Game values for each horizon (callers assert nondecreasing order)."""
    return [minimax_value(spec.with_horizon(h)) for h in horizons]
