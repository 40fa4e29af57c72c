"""Backward-induction game values and optimal strategies."""

import math
import tracemalloc
from typing import Any, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretlab import minimax
from regretlab.comparators import FiniteTableFamily, best_comparator_loss
from regretlab.complexity import offset_rademacher_sup, seq_rademacher
from regretlab.errors import DomainError, ProtocolError, ResourceGuardError
from regretlab.forecasters import ExpertsForecaster
from regretlab.losses import absolute_loss, square_loss
from regretlab.minimax import GameSpec, SolvedGame
from regretlab.trees import INDUCTION_CELL_GUARD, LabeledTree

PM_ONE = FiniteTableFamily(["x0"], [[1.0], [-1.0]])
HALVES = FiniteTableFamily(["x0"], [[0.5], [-0.5]])
P5 = tuple(np.linspace(-1.0, 1.0, 5))


def abs_game(n):
    return GameSpec(PM_ONE, absolute_loss(1.0), n, ("x0",), (-1.0, 1.0), (-1.0, 0.0, 1.0))


def sq_game(n):
    return GameSpec(HALVES, square_loss(1.0), n, ("x0",), (-1.0, 1.0), P5)


class TestMinimaxValue:
    def test_one_round_absolute(self):
        assert SolvedGame(abs_game(1)).value == pytest.approx(1.0)

    def test_zero_horizon(self):
        assert SolvedGame(abs_game(0)).value == 0.0

    def test_singleton_family_is_free(self):
        fam = FiniteTableFamily(["a", "b"], [[0.5, -0.5]])
        spec = GameSpec(
            fam, square_loss(1.0), 2, ("a", "b"), (-1.0, 1.0), (-1.0, -0.5, 0.0, 0.5, 1.0)
        )
        assert SolvedGame(spec).value == pytest.approx(0.0, abs=1e-12)

    def test_one_round_square_halves(self):
        # learner equalizes at 0; comparator pays 1/4 either way
        assert SolvedGame(sq_game(1)).value == pytest.approx(0.75)

    def test_state_guard(self):
        # 300 (covariate, outcome) moves of distinct losses: layer 2 keeps
        # about 4.5e4 states, whose 4e7 losses exceed the guard.
        rng = np.random.default_rng(0)
        ids = [f"x{i}" for i in range(100)]
        fam = FiniteTableFamily(ids, rng.uniform(-1, 1, size=(3, 100)))
        spec = GameSpec(fam, absolute_loss(1.0), 3, tuple(ids), (-1.0, 0.0, 1.0), (0.0,))
        with pytest.raises(ResourceGuardError):
            SolvedGame(spec)

    def test_guard_counts_every_layer(self):
        # Layer t holds only t + 1 states, but the layers of a 1e5-round game
        # hold 2e10 losses together; the guard stops it near round 1,000.
        with pytest.raises(ResourceGuardError) as err:
            SolvedGame(abs_game(10**5))
        assert err.value.size_estimate > INDUCTION_CELL_GUARD

    def test_fine_prediction_grid_stays_within_the_guards_memory(self):
        # 24 moves, 2 predictors, 101 predictions: 7.6e5 losses.  Holding a
        # layer's cells once per prediction would take 342 MiB.
        rng = np.random.default_rng(0)
        ids = [f"x{i}" for i in range(8)]
        fam = FiniteTableFamily(ids, rng.uniform(-1, 1, size=(2, 8)))
        spec = GameSpec(fam, absolute_loss(1.0), 5, tuple(ids), (-1.0, 0.0, 1.0), tuple(np.linspace(-1, 1, 101)))
        tracemalloc.start()
        try:
            SolvedGame(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * INDUCTION_CELL_GUARD

    def test_long_horizon_solves_and_replays(self):
        # Its tree has 2^50 outcome paths but only 1,375 states.
        solved = SolvedGame(abs_game(50))
        assert solved.value == 25.0
        _, regret = solved.replay_optimal()
        assert regret == solved.value

    def test_layer_state_counts(self, layer_sizes):
        # Two covariates x two outcomes with generic losses: inner layer t
        # holds the multisets of t moves, C(t + 3, 3); the 10 x 4 leaves
        # stay unmerged.
        fam = FiniteTableFamily(["a", "b"], [[0.5, -0.5], [-0.25, 0.75]])
        spec = GameSpec(fam, square_loss(1.0), 3, ("a", "b"), (-1.0, 1.0), P5)
        assert layer_sizes(minimax, lambda: SolvedGame(spec)) == [1, 4, 10, 40]

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            GameSpec(PM_ONE, absolute_loss(1.0), 1, ("x0",), (-2.0, 1.0), (0.0,))


class TestStrategies:
    def test_adversary_flips_sign_breaking_ties_low(self):
        solved = SolvedGame(abs_game(1))
        assert solved.adversary_outcome([], [], "x0", 0.5) == -1.0
        assert solved.adversary_outcome([], [], "x0", -0.5) == 1.0
        assert solved.adversary_outcome([], [], "x0", 0.0) == -1.0  # tie -> smallest

    def test_optimal_prediction_equalizes(self):
        solved = SolvedGame(abs_game(1))
        assert solved.optimal_prediction([], [], "x0") == 0.0

    def test_replay_reproduces_value(self):
        for spec in (abs_game(2), abs_game(3), sq_game(2)):
            solved = SolvedGame(spec)
            _, regret = solved.replay_optimal()
            assert regret == pytest.approx(solved.value, abs=1e-9)

    def test_replay_deterministic(self):
        solved = SolvedGame(abs_game(3))
        assert solved.replay_optimal() == solved.replay_optimal()

    def test_protocol_errors(self):
        solved = SolvedGame(abs_game(2))
        with pytest.raises(ProtocolError):
            solved.adversary_covariate(["x0"], [])
        with pytest.raises(ProtocolError):
            solved.adversary_outcome([], [], "bogus", 0.0)
        with pytest.raises(ProtocolError):
            solved.adversary_covariate(["x0", "x0"], [1.0, 0.5])  # off-grid outcome

    def test_mimicking_learner_never_loses_to_singleton(self):
        fam = FiniteTableFamily(["a"], [[0.5]])
        spec = GameSpec(fam, square_loss(1.0), 2, ("a",), (-1.0, 1.0), (-1.0, 0.5, 1.0))
        solved = SolvedGame(spec)
        xs, ys = [], []
        total = 0.0
        for _ in range(2):
            x = solved.adversary_covariate(xs, ys)
            yhat = 0.5  # play the only comparator
            y = solved.adversary_outcome(xs, ys, x, yhat)
            total += spec.model.value(yhat, y)
            xs.append(x)
            ys.append(y)
        best = best_comparator_loss(fam, spec.model, list(zip(xs, ys)))
        assert total - best <= 1e-12


class TestMonotonicityAndSandwiches:
    def test_singleton_all_zero(self):
        fam = FiniteTableFamily(["a"], [[0.0]])
        spec = GameSpec(fam, absolute_loss(1.0), 3, ("a",), (-1.0, 1.0), (-1.0, 0.0, 1.0))
        assert [SolvedGame(spec.with_horizon(h)).value for h in (0, 1, 2, 3)] == pytest.approx([0.0] * 4)

    def test_absolute_game_nondecreasing_from_one(self):
        vals = [SolvedGame(abs_game(h)).value for h in (1, 2, 3)]
        assert vals[0] == pytest.approx(1.0)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_zero_horizon_leads(self):
        vals = [SolvedGame(abs_game(h)).value for h in (0, 1, 2)]
        assert vals[0] == 0.0

    def test_absolute_rademacher_sandwich(self):
        for n in (1, 2, 3):
            rad = seq_rademacher(PM_ONE, LabeledTree.constant(n, "x0"))
            v = SolvedGame(abs_game(n)).value
            assert rad - 1e-9 <= v <= 2 * rad + 1e-9

    def test_square_offset_upper_bound_dominates(self):
        spec = sq_game(2)
        v = SolvedGame(spec).value
        g_grid = max(
            abs(spec.model.subgradient(p, y))
            for p in spec.prediction_grid
            for y in spec.outcome_grid
        )
        upper = offset_rademacher_sup(
            HALVES, ("x0",), P5, 2, C=g_grid, offset=spec.model.curvature_minorant
        )
        assert upper >= v - 1e-9

    def test_square_two_point_lower_bound(self):
        # witness 0, outcomes at the boundary, values inside half the range:
        # one round at the depth-1 shattering scale beta = 1/2
        v1 = SolvedGame(sq_game(1)).value
        assert v1 >= (2.0 / 2.0) * 1 * 0.5 - 1e-9

    def test_square_offset_lower_bound_sandwich(self):
        # two-point offset complexity with slope R = 2B, witness grid {0},
        # and the smoothness majorant as the penalty never exceeds the value
        model = square_loss(1.0)
        for n in (1, 2, 3):
            v = SolvedGame(sq_game(n)).value
            lower = offset_rademacher_sup(
                HALVES, ("x0",), (0.0,), n, C=1.0, offset=model.smoothness_majorant
            )
            assert lower <= v + 1e-9


class TestForecasterDominance:
    def test_grid_learner_cannot_beat_the_value(self):
        rng = np.random.default_rng(0)
        fam = FiniteTableFamily(["a", "b"], rng.uniform(-1, 1, size=(3, 2)))
        spec = GameSpec(
            fam, square_loss(1.0), 3, ("a", "b"), (-1.0, 1.0), tuple(np.linspace(-1, 1, 5))
        )
        solved = SolvedGame(spec)
        forecaster = ExpertsForecaster(fam, 1.0)
        xs, ys, hist = [], [], []
        total = 0.0
        for _ in range(spec.horizon):
            x = solved.adversary_covariate(xs, ys)
            # Snap to the nearest grid point, ties going low.
            z = forecaster.predict(x)
            yhat = min(spec.prediction_grid, key=lambda g: (abs(g - z), g))
            y = solved.adversary_outcome(xs, ys, x, yhat)
            forecaster.observe(x, y)
            total += spec.model.value(yhat, y)
            xs.append(x)
            ys.append(y)
            hist.append((x, y))
        regret = total - best_comparator_loss(fam, spec.model, hist)
        assert regret >= solved.value - 1e-9

    def test_json_spec_roundtrip(self):
        doc = {
            "family": {
                "variant": "finite_table",
                "covariate_ids": ["x0"],
                "values": [[1.0], [-1.0]],
            },
            "loss": {"name": "absolute", "B": 1.0},
            "horizon": 1,
            "covariate_set": ["x0"],
            "outcome_grid": [-1.0, 1.0],
            "prediction_grid": [-1.0, 0.0, 1.0],
        }
        spec = GameSpec.from_json_dict(doc)
        assert SolvedGame(spec).value == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# The layered induction against the memoized recursion it replaced
# ---------------------------------------------------------------------------


class ReferenceSolvedGame:
    """SolvedGame as it was: a memoized depth-first recursion over
    (round, per-predictor cumulative losses quantized at 1e-12)."""

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
        return tuple(int(round(v / 1e-12)) for v in losses)

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


@st.composite
def tiny_games(draw):
    """Random games small enough for the recursion; grid-valued families
    make many states merge exactly, uniform ones up to rounding."""
    n_f, n_x = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        values = rng.uniform(-1, 1, size=(n_f, n_x))
    else:
        values = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(n_f, n_x))
    ids = [f"x{i}" for i in range(n_x)]
    model = draw(st.sampled_from([absolute_loss(1.0), square_loss(1.0)]))
    outcomes = draw(st.sampled_from([(-1.0, 1.0), (-1.0, 0.0, 1.0), (-1.0, 0.3, 1.0)]))
    preds = draw(st.sampled_from([(0.0,), (-1.0, 0.0, 1.0), P5, tuple(rng.uniform(-1, 1, size=4))]))
    return GameSpec(FiniteTableFamily(ids, values), model, draw(st.integers(0, 5)), tuple(ids), outcomes, preds)


class TestAgainstRecursion:
    @given(tiny_games())
    @settings(max_examples=120, deadline=None)
    def test_values_and_replays_match(self, spec):
        want, got = ReferenceSolvedGame(spec), SolvedGame(spec)
        assert abs(got.value - want.value) <= 1e-12 * max(1.0, abs(want.value))
        # Each merged class keeps the recursion's representative.
        assert got.value.hex() == want.value.hex()
        assert got.replay_optimal() == want.replay_optimal()

    def test_horizon_five_bitwise(self):
        # From layer 3 on, a class merges sums taken in different orders; a
        # representative other than the recursion's moves the value's last
        # bit and the replay's tie-breaks here.
        rng = np.random.default_rng(6)
        fam = FiniteTableFamily(["x0", "x1"], rng.uniform(-1, 1, size=(int(rng.integers(1, 4)), 2)))
        spec = GameSpec(fam, square_loss(1.0), 5, ("x0", "x1"), (-1.0, 0.3, 1.0), P5)
        want, got = ReferenceSolvedGame(spec), SolvedGame(spec)
        assert got.value.hex() == want.value.hex()
        assert got.replay_optimal() == want.replay_optimal()


# ---------------------------------------------------------------------------
# The layered induction against a literal game tree
# ---------------------------------------------------------------------------


def brute_force_value(spec: GameSpec) -> float:
    """Max over covariates, min over predictions, max over outcomes, down
    every full history; a full history pays minus its best comparator loss.
    Every history is its own node: no two share a state."""
    model = spec.model

    def value(hist: list) -> float:
        if len(hist) == spec.horizon:
            return -best_comparator_loss(spec.family, model, hist) if hist else 0.0
        best = -math.inf
        for x in spec.covariate_set:
            cont = [value(hist + [(x, y)]) for y in spec.outcome_grid]
            best = max(best, min(
                max(model.value(p, y) + c for y, c in zip(spec.outcome_grid, cont))
                for p in spec.prediction_grid
            ))
        return best

    return value([])


@st.composite
def brute_force_games(draw):
    """Horizon at most 3; at most 3 predictors, covariates, outcomes and
    predictions, on the 5-point grid or uniform."""
    n_f, n_x, n_y, n_p = (draw(st.integers(1, 3)) for _ in range(4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def points(size):
        if draw(st.booleans()):
            return rng.uniform(-1, 1, size=size)
        return rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=size)

    ids = tuple(f"x{i}" for i in range(n_x))
    family = FiniteTableFamily(ids, points((n_f, n_x)))
    model = draw(st.sampled_from([absolute_loss(1.0), square_loss(1.0)]))
    outcomes, preds = tuple(points(n_y).tolist()), tuple(points(n_p).tolist())
    return GameSpec(family, model, draw(st.integers(0, 3)), ids, outcomes, preds)


class TestAgainstBruteForce:
    @given(brute_force_games())
    @settings(max_examples=100, deadline=None)
    def test_value_matches_the_game_tree(self, spec):
        want = brute_force_value(spec)
        assert abs(SolvedGame(spec).value - want) <= 1e-12 * max(1.0, abs(want))
