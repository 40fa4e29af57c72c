"""Relaxations, forecasters, admissibility, and online runs."""

import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretlab import forecasters
from regretlab.comparators import FiniteTableFamily, LinearFamily, best_comparator_loss
from regretlab.complexity import offset_rademacher_sup
from regretlab.errors import CapabilityError, DomainError, ShapeError
from regretlab.forecasters import (
    CumulativeLoss,
    ExpertsForecaster,
    FixedComparatorForecaster,
    RelaxationForecaster,
    RelaxationOracle,
    RidgeStatistics,
    RoundRecord,
    VAWForecaster,
    check_admissibility,
    clip,
    conditional_rademacher_oracle,
    experts_relaxation_oracle,
    regret_bound,
    run_online,
    vaw_relaxation_oracle,
)
from regretlab.losses import absolute_loss, logistic_loss, q_loss, square_loss

MODEL = square_loss(1.0)


def records_of(log):
    """A run's log as one record per round."""
    return [RoundRecord(*row) for row in zip(*log)]


def random_table(rng, n_pred, n_cov=2):
    return FiniteTableFamily(
        [f"x{j}" for j in range(n_cov)], rng.uniform(-1, 1, size=(n_pred, n_cov))
    )


def random_history(rng, family, t):
    ids = family.covariate_ids
    return (
        [ids[int(rng.integers(len(ids)))] for _ in range(t)],
        [float(rng.uniform(-1, 1)) for _ in range(t)],
    )


# A relaxation or a prediction at a whole history, read through the
# library's oracles and forecasters.
def experts_potential(family, B, xs, ys):
    return experts_relaxation_oracle(family, B, len(xs)).evaluator(xs, ys)


def observed(forecaster, history):
    """``forecaster`` after it observes each round of ``history``."""
    for x, y in history:
        forecaster.observe(x, y)
    return forecaster


def experts_prediction(family, B, xs, ys, x_t):
    return observed(ExpertsForecaster(family, B), zip(xs, ys)).predict(x_t)


def vaw_potential(xs, ys, lam, B, n, d):
    return vaw_relaxation_oracle(lam, B, n, d).evaluator(xs, ys)


def vaw_prediction(history, x_t, lam, B):
    return observed(VAWForecaster(lam, B, len(x_t)), history).predict(x_t)


def relaxation_prediction(rel, model, xs, ys, x_t, prediction_grid, outcome_grid):
    forecaster = RelaxationForecaster(rel, model, prediction_grid, outcome_grid)
    for x, y in zip(xs, ys):
        forecaster.observe(x, y)
    return forecaster.predict(x_t)


class TestClip:
    def test_inside_outside(self):
        assert clip(0.3, 1.0) == 0.3
        assert clip(1.7, 1.0) == 1.0
        assert clip(-1.7, 1.0) == -1.0


class TestExpertsRelaxation:
    def test_empty_history_potential(self):
        fam = random_table(np.random.default_rng(0), 10)
        assert experts_potential(fam, 1.0, [], []) == pytest.approx(2.0 * math.log(10))

    def test_single_expert_is_negated_loss(self):
        fam = FiniteTableFamily(["a", "b"], [[0.5, -0.3]])
        xs, ys = ["a", "b", "a"], [0.2, -0.9, 1.0]
        expected = -math.fsum((fam.evaluate(0, x) - y) ** 2 for x, y in zip(xs, ys))
        assert experts_potential(fam, 1.0, xs, ys) == pytest.approx(expected, abs=1e-12)

    def test_duplicate_expert_adds_log_two(self):
        single = FiniteTableFamily(["a"], [[0.4]])
        double = FiniteTableFamily(["a"], [[0.4], [0.4]])
        xs, ys = ["a", "a"], [0.1, -0.6]
        b = 1.0
        lone = experts_potential(single, b, xs, ys)
        assert experts_potential(double, b, xs, ys) == pytest.approx(
            2.0 * b * b * math.log(2) + lone
        )

    def test_initial_condition_holds_with_equality_slack(self):
        rng = np.random.default_rng(1)
        fam = random_table(rng, 4)
        xs, ys = random_history(rng, fam, 5)
        rel = experts_potential(fam, 1.0, xs, ys)
        best = best_comparator_loss(fam, MODEL, list(zip(xs, ys)))
        assert rel >= -best - 1e-12


class TestExpertsForecast:
    def test_single_expert_predicts_its_value(self):
        fam = FiniteTableFamily(["a", "b"], [[0.37, -0.8]])
        assert experts_prediction(fam, 1.0, [], [], "a") == pytest.approx(0.37)
        assert experts_prediction(fam, 1.0, ["b"], [0.5], "b") == pytest.approx(-0.8)

    def test_symmetric_experts_predict_zero(self):
        fam = FiniteTableFamily(["a"], [[0.0], [0.0], [0.0]])
        assert experts_prediction(fam, 1.0, [], [], "a") == 0.0

    def test_matches_generic_relaxation_forecast(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            fam = random_table(rng, int(rng.integers(1, 5)))
            t = int(rng.integers(0, 4))
            xs, ys = random_history(rng, fam, t)
            x_t = fam.covariate_ids[int(rng.integers(2))]
            rel = experts_relaxation_oracle(fam, 1.0, t + 1)
            via_rel = relaxation_prediction(rel, MODEL, xs, ys, x_t, (0.0,), (-1.0, 1.0))
            direct = experts_prediction(fam, 1.0, xs, ys, x_t)
            assert via_rel == pytest.approx(direct, abs=1e-9)

    def test_stateful_forecaster_matches_stateless(self):
        rng = np.random.default_rng(3)
        fam = random_table(rng, 5)
        fc = ExpertsForecaster(fam, 1.0)
        xs, ys = random_history(rng, fam, 6)
        for t, (x, y) in enumerate(zip(xs, ys)):
            assert fc.predict(x) == pytest.approx(
                experts_prediction(fam, 1.0, xs[:t], ys[:t], x), abs=1e-12
            )
            fc.observe(x, y)


class TestRelaxationForecast:
    def test_symmetric_continuations_give_zero(self):
        class Zero:
            def extend(self, x, y):
                return self

            def potential(self):
                return 0.0

        rel = RelaxationOracle(state=Zero(), horizon=3)
        assert relaxation_prediction(rel, MODEL, [], [], "x", (0.0,), (-1.0, 1.0)) == 0.0

    def test_grid_argmin_agrees_with_closed_form(self):
        rng = np.random.default_rng(4)
        for _ in range(6):
            fam = random_table(rng, 3)
            t = int(rng.integers(0, 4))
            xs, ys = random_history(rng, fam, t)
            x_t = fam.covariate_ids[0]
            rel = experts_relaxation_oracle(fam, 1.0, t + 1)
            closed = relaxation_prediction(rel, MODEL, xs, ys, x_t, (0.0,), (-1.0, 1.0))
            # independent path: explicit argmin over a grid holding the
            # closed-form point, worst case over both outcomes
            grid = sorted(set(np.linspace(-1, 1, 41)) | {closed})
            best_p, best = None, math.inf
            for p in grid:
                worst = max(
                    MODEL.value(p, y)
                    + rel.evaluator(tuple(xs) + (x_t,), tuple(ys) + (y,))
                    for y in (-1.0, 1.0)
                )
                if worst < best:
                    best_p, best = p, worst
            assert best_p == pytest.approx(closed, abs=1e-9)

    def test_nonsquare_loss_uses_grid_argmin(self):
        from regretlab.losses import absolute_loss

        @dataclass(frozen=True)
        class NegatedLastOutcome:
            y: float | None = None

            def extend(self, x, y):
                return NegatedLastOutcome(y)

            def potential(self):
                return -float(self.y)

        rel = RelaxationOracle(state=NegatedLastOutcome(), horizon=1)
        got = relaxation_prediction(
            rel, absolute_loss(1.0), [], [], "x", (-1.0, 0.0, 1.0), (-1.0, 1.0)
        )
        # objective p -> max_y |p - y| - y takes values 1, 2, 3 at -1, 0, 1
        assert got == -1.0


class TestVAW:
    def test_first_round_predicts_zero(self):
        assert vaw_prediction([], (1.0,), 1.0, 1.0) == 0.0

    def test_second_round_closed_form(self):
        assert vaw_prediction([((1.0,), 1.0)], (1.0,), 1.0, 1.0) == pytest.approx(1 / 3)

    def test_orthogonal_covariate_predicts_zero(self):
        hist = [((1.0, 0.0), 0.7), ((1.0, 0.0), -0.2)]
        assert vaw_prediction(hist, (0.0, 1.0), 1.0, 1.0) == 0.0

    def test_forecaster_matches_stateless(self):
        rng = np.random.default_rng(5)
        d = 2
        fc = VAWForecaster(1.0, 1.0, d)
        hist = []
        for _ in range(6):
            x = tuple(rng.uniform(-1, 1, size=d) / math.sqrt(d))
            y = float(rng.uniform(-1, 1))
            assert fc.predict(x) == pytest.approx(vaw_prediction(hist, x, 1.0, 1.0), abs=1e-12)
            fc.observe(x, y)
            hist.append((x, y))

    def test_relaxation_empty_history(self):
        assert vaw_potential([], [], 1.0, 1.0, 8, 1) == pytest.approx(4 * math.log(8))

    def test_zero_covariate_moves_only_the_outcome_term(self):
        xs, ys = [(0.5,)], [0.3]
        base = vaw_potential(xs, ys, 1.0, 1.0, 8, 1)
        bumped = vaw_potential(xs + [(0.0,)], ys + [0.9], 1.0, 1.0, 8, 1)
        assert bumped == pytest.approx(base - 0.9**2, abs=1e-12)

    def test_lambda_must_be_positive(self):
        with pytest.raises(DomainError):
            vaw_prediction([], (1.0,), 0.0, 1.0)

    def test_the_relaxation_needs_a_round(self):
        # Its potential holds d log(n/d), with no value at n = 0.
        with pytest.raises(DomainError, match="at least one round, got 0"):
            vaw_relaxation_oracle(1.0, 1.0, 0, 2)


class TestAdmissibility:
    def test_experts_margins_nonnegative(self):
        rng = np.random.default_rng(6)
        fam = random_table(rng, 3)
        n = 4
        rel = experts_relaxation_oracle(fam, 1.0, n)
        hists = [
            list(zip(["x0", "x1", "x0", "x1"], ys))
            for ys in itertools.product((-1.0, 1.0), repeat=n)
        ]
        rep = check_admissibility(
            rel, MODEL, ["x0", "x1"], (-1.0, 1.0), tuple(np.linspace(-1, 1, 21)), hists
        )
        assert rep.passed(1e-8)
        assert rep.worst_initial >= -1e-12

    def test_vaw_margins_nonnegative(self):
        n, d = 5, 1
        rel = vaw_relaxation_oracle(1.0, 1.0, n, d)
        rng = np.random.default_rng(7)
        hists = []
        for _ in range(5):
            xs = [(float(0.7 * rng.uniform(-1, 1)),) for _ in range(n)]
            ys = [float(rng.uniform(-1, 1)) for _ in range(n)]
            hists.append(list(zip(xs, ys)))
        rep = check_admissibility(
            rel, MODEL, [(0.5,), (-0.7,)], (-1.0, 1.0), tuple(np.linspace(-1, 1, 21)), hists
        )
        assert rep.passed(1e-8)

    def test_broken_relaxation_flagged_via_initial_condition(self):
        rng = np.random.default_rng(8)
        fam = random_table(rng, 3)
        n = 3
        good = experts_relaxation_oracle(fam, 1.0, n)

        @dataclass(frozen=True)
        class Broken:
            inner: object
            t: int = 0

            def extend(self, x, y):
                return Broken(self.inner.extend(x, y), self.t + 1)

            def potential(self):
                v = self.inner.potential()
                return v - 100.0 if self.t == n else v

            def best_loss(self):
                return self.inner.best_loss()

        broken = RelaxationOracle(state=Broken(good.state), horizon=n)
        hists = [
            list(zip(["x0", "x1", "x0"], ys))
            for ys in itertools.product((-1.0, 1.0), repeat=n)
        ]
        rep = check_admissibility(
            broken, MODEL, ["x0"], (-1.0, 1.0), (0.0,), hists
        )
        assert not rep.passed(1e-8)
        assert rep.worst_initial < -1.0

    def test_a_state_without_best_loss_has_no_initial_condition(self):
        class Zero:
            def extend(self, x, y):
                return self

            def potential(self):
                return 0.0

        rel = RelaxationOracle(state=Zero(), horizon=2)
        rep = check_admissibility(rel, MODEL, ["x"], (-1.0, 1.0), (0.0,), [[("x", 1.0), ("x", -1.0)]])
        assert rep.initial_margins == [] and rep.worst_initial == math.inf
        assert rep.worst_recursive == -1.0
        doc = rep.to_json_dict()
        assert doc["worst_initial"] is None and doc["worst_recursive"] == -1.0 and doc["passed"] is False

    @pytest.mark.parametrize("kind", ["experts", "conditional"])
    def test_horizon_zero_checks_the_initial_condition_alone(self, kind):
        """The one full history is the empty one, whose best loss is 0."""
        fam = FiniteTableFamily(["a", "b"], [[0.5, -0.2], [-0.5, 0.4], [0.0, 0.1]])
        if kind == "experts":
            rel, want = experts_relaxation_oracle(fam, 1.0, 0), 2.0 * math.log(3.0)
        else:
            rel, want = conditional_rademacher_oracle(fam, MODEL, ["a", "b"], (-0.5, 0.0, 0.5), 0), 0.0
        rep = check_admissibility(rel, MODEL, ["a", "b"], (-1.0, 1.0), (0.0,), [[]])
        assert rep.rows == [] and rep.initial_margins == [want]
        assert rep.stats == {"prefixes": 0, "potentials": 1}
        doc = rep.to_json_dict()
        assert (doc["worst_recursive"], doc["worst_distributional"], doc["worst_initial"]) == (None, None, want)
        assert doc["passed"] is True

    def test_telescoping_identity_reproduces_regret(self):
        # regret = Rel(empty) - sum of played margins - initial margin, exactly
        rng = np.random.default_rng(9)
        fam = random_table(rng, 4)
        n = 6
        rel = experts_relaxation_oracle(fam, 1.0, n)
        xs, ys = random_history(rng, fam, n)
        fc = ExpertsForecaster(fam, 1.0)
        margins, losses = [], []
        for t in range(n):
            yhat = fc.predict(xs[t])
            loss = MODEL.value(yhat, ys[t])
            m = (
                rel.evaluator(xs[:t], ys[:t])
                - loss
                - rel.evaluator(xs[: t + 1], ys[: t + 1])
            )
            margins.append(m)
            losses.append(loss)
            fc.observe(xs[t], ys[t])
        best = best_comparator_loss(fam, MODEL, list(zip(xs, ys)))
        init_margin = rel.evaluator(xs, ys) + best
        regret = math.fsum(losses) - best
        reconstructed = rel.evaluator([], []) - math.fsum(margins) - init_margin
        assert regret == pytest.approx(reconstructed, abs=1e-9)
        assert all(m >= -1e-9 for m in margins)
        assert init_margin >= -1e-12


class TestConditionalRademacherRelaxation:
    def test_terminal_value_is_negated_best_loss(self):
        rng = np.random.default_rng(10)
        fam = FiniteTableFamily(["a"], [[0.5], [-0.5]])
        rel = conditional_rademacher_oracle(fam, MODEL, ["a"], (0.0,), horizon=2)
        xs, ys = ["a", "a"], [0.6, -0.2]
        best = best_comparator_loss(fam, MODEL, list(zip(xs, ys)))
        assert rel.evaluator(xs, ys) == pytest.approx(-best, abs=1e-12)

    def test_generic_forecaster_respects_initial_potential(self):
        fam = FiniteTableFamily(["a"], [[0.5], [-0.5]])
        n = 2
        rel = conditional_rademacher_oracle(fam, MODEL, ["a"], (-0.5, 0.0, 0.5), horizon=n)
        fc = RelaxationForecaster(rel, MODEL, tuple(np.linspace(-1, 1, 9)), (-1.0, 1.0))
        rng = np.random.default_rng(11)
        for _ in range(3):
            seq = [("a", float(rng.choice([-1.0, 1.0]))) for _ in range(n)]
            regret = run_online(fc, seq, MODEL, fam).final_regret
            assert regret <= rel.evaluator([], []) + 1e-9

    def test_admissible_at_horizon_six(self):
        # Every outcome sequence at horizon 6: each potential is an offset
        # supremum over up to six rounds of 12 moves.
        fam = FiniteTableFamily(["a", "b"], [[0.5, -0.2], [-0.5, 0.4]])
        n = 6
        rel = conditional_rademacher_oracle(fam, MODEL, ["a", "b"], (-0.5, 0.0, 0.5), horizon=n)
        hists = [list(zip(["a", "b"] * 3, ys)) for ys in itertools.product((-1.0, 1.0), repeat=n)]
        rep = check_admissibility(rel, MODEL, ["a", "b"], (-1.0, 1.0), tuple(np.linspace(-1, 1, 9)), hists)
        assert len(rep.rows) == 2 * (2**n - 1)
        assert rep.passed(1e-8)


class TestRunOnline:
    def test_fixed_comparator_has_zero_regret(self):
        fam = FiniteTableFamily(["a", "b"], [[0.5, -0.5]])
        fc = FixedComparatorForecaster(fam, 0)
        seq = [("a", 1.0), ("b", -1.0), ("a", 0.0)]
        log = run_online(fc, seq, MODEL, fam)
        assert log.final_regret == pytest.approx(0.0, abs=1e-12)
        assert [r.t for r in records_of(log)] == [1, 2, 3]

    def test_round_records_match_recomputed_regret(self):
        rng = np.random.default_rng(12)
        fam = random_table(rng, 4)
        fc = ExpertsForecaster(fam, 1.0)
        seq = list(zip(*random_history(rng, fam, 7)))
        records = records_of(run_online(fc, seq, MODEL, fam))
        for t, rec in enumerate(records, start=1):
            prefix = seq[:t]
            best = best_comparator_loss(fam, MODEL, prefix)
            cum = math.fsum(r.loss for r in records[:t])
            assert rec.cumulative_regret == pytest.approx(cum - best, abs=1e-9)

    def test_experts_run_respects_certified_bound(self):
        rng = np.random.default_rng(13)
        fam = random_table(rng, 10, 3)
        seq = [
            (fam.covariate_ids[int(rng.integers(3))], float(rng.uniform(-1, 1)))
            for _ in range(1000)
        ]
        regret = run_online(ExpertsForecaster(fam, 1.0), seq, MODEL, fam).final_regret
        assert regret <= regret_bound("experts", B=1.0, size=10) + 1e-9

    def test_vaw_run_respects_oracle_inequality(self):
        rng = np.random.default_rng(14)
        d, n, lam = 2, 400, 1.0
        seq = []
        for _ in range(n):
            x = rng.uniform(-1, 1, size=d) / math.sqrt(d)
            y = float(np.clip(x[0] + 0.1 * rng.standard_normal(), -1, 1))
            seq.append((tuple(x), y))
        fam = LinearFamily(d)
        regret = run_online(VAWForecaster(lam, 1.0, d), seq, MODEL, fam, ridge=lam).final_regret
        # modified (ridge) regret stays below the potential at the empty history
        assert regret <= vaw_potential([], [], lam, 1.0, n, d) + 1e-9

    def test_run_online_supports_other_losses(self):
        from regretlab.losses import absolute_loss, q_loss

        rng = np.random.default_rng(16)
        fam = random_table(rng, 3)
        seq = list(zip(*random_history(rng, fam, 12)))
        for model in (absolute_loss(1.0), q_loss(1.5)):
            log = run_online(FixedComparatorForecaster(fam, 0), seq, model, fam)
            assert log.final_regret >= -1e-12
            assert len(records_of(log)) == 12

    def test_forecaster_failure_attaches_partial_log(self):
        fam = FiniteTableFamily(["a"], [[0.0]])

        class Flaky:
            def __init__(self):
                self.calls = 0

            def reset(self):
                pass

            def predict(self, x):
                self.calls += 1
                if self.calls == 3:
                    raise RuntimeError("boom")
                return 0.0

            def observe(self, x, y):
                pass

        with pytest.raises(RuntimeError) as exc_info:
            run_online(Flaky(), [("a", 0.0)] * 5, MODEL, fam)
        assert len(exc_info.value.partial_log) == 2


class TestPredictionRange:
    def test_all_emitted_predictions_are_clipped(self):
        rng = np.random.default_rng(15)
        fam = random_table(rng, 6)
        xs, ys = random_history(rng, fam, 40)
        fc = ExpertsForecaster(fam, 1.0)
        for x, y in zip(xs, ys):
            assert -1.0 <= fc.predict(x) <= 1.0
            fc.observe(x, y)
        vc = VAWForecaster(1.0, 1.0, 2)
        for _ in range(40):
            x = tuple(rng.uniform(-3, 3, size=2))
            assert -1.0 <= vc.predict(x) <= 1.0
            vc.observe(x, float(rng.uniform(-1, 1)))


class TestRegretBound:
    def test_experts_values(self):
        assert regret_bound("experts", B=1.0, size=int(round(math.e))) == pytest.approx(
            2.0 * math.log(round(math.e))
        )
        assert regret_bound("experts", B=2.0, size=10) == pytest.approx(8 * math.log(10))

    def test_vaw_value(self):
        assert regret_bound("vaw", n=100, d=1, B=1.0, lam=1.0) == pytest.approx(
            4 * math.log(100)
        )

    def test_vaw_domain_error(self):
        with pytest.raises(DomainError):
            regret_bound("vaw", n=1, d=2, B=1.0, lam=1.0)


# ---------------------------------------------------------------------------
# Sufficient-statistic states against the history loops they replaced
# ---------------------------------------------------------------------------
#
# The reference functions below are the stateless history loops of the
# library before the states existed, kept literally.


def reference_logsumexp(a):
    m = float(a.max())
    return m + math.log(float(np.exp(a - m).sum()))


def reference_experts_relaxation(family, B, x_hist, y_hist):
    cum = np.zeros(family.n_predictors)
    for x, y in zip(x_hist, y_hist):
        fv = family.evaluate_all(x)
        cum = cum + (fv - y) ** 2
    eta = 0.5 / (B * B)
    return reference_logsumexp(-eta * cum) / eta


def reference_experts_forecast(family, B, x_hist, y_hist, x_t):
    cum = np.zeros(family.n_predictors)
    for x, y in zip(x_hist, y_hist):
        fv = family.evaluate_all(x)
        cum = cum + (fv - y) ** 2
    fv = family.evaluate_all(x_t)
    eta = 0.5 / (B * B)
    num = reference_logsumexp(-eta * (cum + (fv - B) ** 2))
    den = reference_logsumexp(-eta * (cum + (fv + B) ** 2))
    return clip((num - den) / (4.0 * B * eta), B)


def reference_vaw_forecast(history, x_t, lam, B):
    x = np.asarray(x_t, dtype=float)
    d = x.shape[0]
    A = lam * np.eye(d) + np.outer(x, x)
    b = np.zeros(d)
    for z, y in history:
        z = np.asarray(z, dtype=float)
        A += np.outer(z, z)
        b += y * z
    return clip(float(x @ np.linalg.solve(A, b)), B)


def reference_vaw_relaxation(x_hist, y_hist, lam, B, n, d):
    A = lam * np.eye(d)
    b = np.zeros(d)
    sum_y2 = 0.0
    for z, y in zip(x_hist, y_hist):
        z = np.asarray(z, dtype=float)
        A += np.outer(z, z)
        b += y * z
        sum_y2 += y * y
    L = np.linalg.cholesky(A)
    half = np.linalg.solve(L, b)
    quad = float(half @ half)
    logdet = 2.0 * float(np.log(np.diag(L)).sum())
    return quad + 4.0 * B * B * (d * math.log(n / d) - logdet) - sum_y2


class ReferenceVAWForecaster:
    def __init__(self, lam, B, d):
        self._A = lam * np.eye(d)
        self._b = np.zeros(d)
        self.B = B

    def predict(self, x):
        x = np.asarray(x, dtype=float)
        A = self._A + np.outer(x, x)
        return clip(float(x @ np.linalg.solve(A, self._b)), self.B)

    def observe(self, x, y):
        x = np.asarray(x, dtype=float)
        self._A = self._A + np.outer(x, x)
        self._b = self._b + y * x


class ReferenceBestLossTracker:
    def __init__(self, family, model, ridge):
        self.family = family
        self.model = model
        self.ridge = ridge
        if isinstance(family, FiniteTableFamily):
            self._cum = np.zeros(family.n_predictors)
        else:
            self._A = ridge * np.eye(family.dimension)
            self._b = np.zeros(family.dimension)
            self._sum_y2 = 0.0

    def add(self, x, y):
        if isinstance(self.family, FiniteTableFamily):
            fv = self.family.evaluate_all(x)
            self._cum = self._cum + self.model.value_vector(fv, y)
            return float(self._cum.min())
        z = np.asarray(x, dtype=float)
        self._A = self._A + np.outer(z, z)
        self._b = self._b + y * z
        self._sum_y2 += y * y
        return float(self._sum_y2 - self._b @ np.linalg.solve(self._A, self._b))


def reference_conditional_evaluator(family, model, covariate_set, mu_grid, horizon):
    xs_fixed = tuple(covariate_set)

    def evaluator(x_hist, y_hist):
        init = np.zeros(family.n_predictors)
        for x, y in zip(x_hist, y_hist):
            init -= model.value_vector(family.evaluate_all(x), y)
        return offset_rademacher_sup(
            family,
            xs_fixed,
            mu_grid,
            horizon - len(x_hist),
            C=model.grad_bound,
            offset=model.curvature_minorant,
            initial_scores=init,
        )

    return evaluator


def reference_relaxation_forecast(evaluate, model, x_hist, y_hist, x_t, prediction_grid, outcome_grid):
    xs = tuple(x_hist) + (x_t,)
    b = model.outcome_bound
    sorted_outcomes = sorted(outcome_grid)
    if (
        model.name == "square"
        and len(sorted_outcomes) == 2
        and abs(sorted_outcomes[0] + b) <= 1e-12
        and abs(sorted_outcomes[1] - b) <= 1e-12
    ):
        r_plus = evaluate(xs, tuple(y_hist) + (b,))
        r_minus = evaluate(xs, tuple(y_hist) + (-b,))
        return clip((r_plus - r_minus) / (4.0 * b), b)
    continuations = {y: evaluate(xs, tuple(y_hist) + (y,)) for y in sorted_outcomes}
    best_p, best = None, math.inf
    for p in sorted(prediction_grid):
        worst = max(model.value(p, y) + rv for y, rv in continuations.items())
        if worst < best:
            best_p, best = p, worst
    return best_p


def reference_expected_loss_min(model, q, prediction_grid):
    """``inf_yhat [q loss(yhat, B) + (1-q) loss(yhat, -B)]`` over the grid,
    one scalar loss at a time, with the exact mean minimizer added for square
    loss."""
    b = model.outcome_bound
    candidates = list(prediction_grid)
    if model.name == "square":
        candidates.append((2.0 * q - 1.0) * b)
    return min(q * model.value(p, b) + (1.0 - q) * model.value(p, -b) for p in candidates)


def reference_check_admissibility(
    evaluate, benchmark, n, model, covariate_set, outcome_grid, prediction_grid, sample_histories
):
    """Rows and initial margins, refolding each history through ``evaluate``
    and taking the distributional minimum per row and mixing weight.  Rows
    come by round, then in the order the histories first reach each prefix.
    Each initial margin comes with its slack (:func:`initial_margin`), for
    ``benchmark`` is a reference best loss."""
    b = model.outcome_bound
    prefixes = {}  # first-seen order
    initial = []
    for hist in sample_histories:
        xs = tuple(x for x, _ in hist)
        ys = tuple(y for _, y in hist)
        for t in range(n):
            prefixes.setdefault((xs[:t], ys[:t]), t)
        initial.append(initial_margin(evaluate(xs, ys), benchmark, hist))
    qs = np.linspace(0.0, 1.0, 101)
    rows = []
    for xs, ys in sorted(prefixes, key=prefixes.get):
        t = len(xs) + 1
        rel_prefix = evaluate(xs, ys)
        for x_t in covariate_set:
            yhat = reference_relaxation_forecast(
                evaluate, model, xs, ys, x_t, prediction_grid, outcome_grid
            )
            conts = {y: evaluate(xs + (x_t,), ys + (y,)) for y in outcome_grid}
            worst = max(model.value(yhat, y) + rv for y, rv in conts.items())
            recursive = rel_prefix - worst
            rel_hi = conts.get(b)
            if rel_hi is None:
                rel_hi = evaluate(xs + (x_t,), ys + (b,))
            rel_lo = conts.get(-b)
            if rel_lo is None:
                rel_lo = evaluate(xs + (x_t,), ys + (-b,))
            dist_worst = -math.inf
            for q in qs:
                e_loss = reference_expected_loss_min(model, float(q), prediction_grid)
                e_rel = q * rel_hi + (1.0 - q) * rel_lo
                dist_worst = max(dist_worst, e_loss + e_rel)
            rows.append((t, x_t, bits(recursive), bits(rel_prefix - dist_worst)))
    return rows, initial


@dataclass(frozen=True)
class Refolding:
    """A relaxation state that keeps its whole history and refolds it
    through a reference evaluator, and a reference best loss, on every
    read."""

    evaluate: Callable
    benchmark: Callable
    xs: tuple = ()
    ys: tuple = ()

    def extend(self, x, y):
        return Refolding(self.evaluate, self.benchmark, self.xs + (x,), self.ys + (y,))

    def potential(self):
        return self.evaluate(self.xs, self.ys)

    def best_loss(self):
        return self.benchmark(list(zip(self.xs, self.ys)))[0]


def bits(v):
    return float(v).hex()


EPS = np.finfo(float).eps
# Below the normal range a rounding errs by up to this much, whatever the
# size of the result, so each bound below allows a few of it.
TINY = np.finfo(float).smallest_subnormal


def table_benchmark(family, model):
    """The best comparator loss on a table's history, by
    :func:`best_comparator_loss`, and how far a leaf's ``best_loss()`` may
    lie from it: ``(n + 1) (eps best + tiny)``.  The leaf sums its ``n``
    losses in order (``n - 1`` roundings of at most ``eps/2`` of the sum),
    the reference takes ``math.fsum`` (one), and a vectorized loss may
    differ from the scalar one by about 1.5 ulp per term (logistic and
    q-losses; seen by comparing 80,000 random tables)."""

    def benchmark(hist):
        best = best_comparator_loss(family, model, hist)
        return best, (len(hist) + 1) * (EPS * best + TINY)

    return benchmark


def ridge_benchmark(d, lam):
    """The ridge-modified best comparator loss of a history, by
    :func:`best_comparator_loss`'s residual, and how far
    ``RidgeStatistics.best_loss()`` (``sum y^2 - b'A^-1 b``) may lie from
    it: ``4 (eps sum y^2 + tiny)``.  The largest gap seen over 80,000
    random histories (d <= 3, lambda >= 0.5, |x_i|, |y| <= 1, n <= 6) was
    2.8 ``eps sum y^2``, or ``tiny`` past that where ``sum y^2`` is
    subnormal."""

    def benchmark(hist):
        best = best_comparator_loss(LinearFamily(d), MODEL, hist, ridge=lam)
        return best, 4 * (EPS * math.fsum(y * y for _, y in hist) + TINY)

    return benchmark


def initial_margin(potential, benchmark, hist):
    """The initial margin ``potential + best`` with the reference best loss
    of ``hist``, and its slack: the best loss's, and one rounding of each
    side's sum."""
    best, slack = benchmark(hist)
    margin = potential + best
    return margin, slack + 2 * EPS * abs(margin)


def initial_within(got, want):
    """Whether each initial margin of ``got`` lies within the slack of its
    reference ``(margin, slack)`` in ``want``."""
    return len(got) == len(want) and all(abs(g - w) <= slack for g, (w, slack) in zip(got, want))


UNIT = st.floats(-1.0, 1.0)
SCALES = st.sampled_from((0.5, 1.0, 2.0))


@st.composite
def table_histories(draw):
    """A table of 1-4 predictors on 1-3 covariates, a scale B, a loss on
    [-1, 1], and a history of 0-6 rounds."""
    n_pred = draw(st.integers(1, 4))
    n_cov = draw(st.integers(1, 3))
    values = draw(st.lists(st.lists(UNIT, min_size=n_cov, max_size=n_cov), min_size=n_pred, max_size=n_pred))
    family = FiniteTableFamily([f"x{j}" for j in range(n_cov)], values)
    t = draw(st.integers(0, 6))
    xs = draw(st.lists(st.sampled_from(family.covariate_ids), min_size=t, max_size=t))
    ys = draw(st.lists(UNIT, min_size=t, max_size=t))
    model = draw(st.sampled_from((MODEL, absolute_loss(1.0), q_loss(1.5), logistic_loss(1.0))))
    return family, draw(SCALES), model, xs, ys


@st.composite
def ridge_histories(draw):
    """Dimension 1-3, lambda, B, a history of 0-6 rounds and a query covariate."""
    d = draw(st.integers(1, 3))
    t = draw(st.integers(0, 6))
    vector = st.lists(UNIT, min_size=d, max_size=d).map(tuple)
    zs = draw(st.lists(vector, min_size=t, max_size=t))
    ys = draw(st.lists(UNIT, min_size=t, max_size=t))
    return d, draw(SCALES), draw(SCALES), zs, ys, draw(vector)


class TestSufficientStatisticStates:
    @given(table_histories())
    @settings(max_examples=80, deadline=None)
    def test_cumulative_loss_matches_history_loops(self, case):
        family, B, model, xs, ys = case
        state = CumulativeLoss.empty(family, B)
        tracked = CumulativeLoss.empty(family, model.outcome_bound, model.value_vector)
        tracker = ReferenceBestLossTracker(family, model, 0.0)
        for t in range(len(xs) + 1):
            want = bits(reference_experts_relaxation(family, B, xs[:t], ys[:t]))
            assert bits(state.potential()) == want
            assert bits(experts_potential(family, B, xs[:t], ys[:t])) == want
            for x in family.covariate_ids:
                want = bits(reference_experts_forecast(family, B, xs[:t], ys[:t], x))
                assert bits(experts_prediction(family, B, xs[:t], ys[:t], x)) == want
            if t < len(xs):
                state = state.extend(xs[t], ys[t])
                tracked = tracked.extend(xs[t], ys[t])
                assert bits(tracked.best_loss()) == bits(tracker.add(xs[t], ys[t]))

    @given(ridge_histories())
    @settings(max_examples=80, deadline=None)
    def test_ridge_statistics_match_history_loops(self, case):
        d, lam, B, zs, ys, query = case
        n = d + len(zs)
        state = RidgeStatistics.empty(lam, d, B, n)
        forecaster = ReferenceVAWForecaster(lam, B, d)
        vaw = VAWForecaster(lam, B, d)
        tracker = ReferenceBestLossTracker(LinearFamily(d), MODEL, lam)
        for t in range(len(zs) + 1):
            want = bits(reference_vaw_relaxation(zs[:t], ys[:t], lam, B, n, d))
            assert bits(state.potential()) == want
            assert bits(vaw_potential(zs[:t], ys[:t], lam, B, n, d)) == want
            for x in zs[t:t + 1] + [query]:
                assert bits(vaw.predict(x)) == bits(forecaster.predict(x))
                # The reference counts x first, so only its last bits may move.
                got = vaw_prediction(list(zip(zs[:t], ys[:t])), x, lam, B)
                assert abs(got - reference_vaw_forecast(list(zip(zs[:t], ys[:t])), x, lam, B)) <= 1e-12
            if t < len(zs):
                state = state.extend(zs[t], ys[t])
                forecaster.observe(zs[t], ys[t])
                vaw.observe(zs[t], ys[t])
                assert bits(state.best_loss()) == bits(tracker.add(zs[t], ys[t]))

    @given(table_histories())
    @settings(max_examples=80, deadline=None)
    def test_table_best_loss_lies_within_its_bound_of_the_comparator(self, case):
        """A leaf's ``best_loss()``, the initial condition's comparator
        infimum, against :func:`best_comparator_loss`: for squared errors
        (the experts relaxation's statistic) and for each loss's
        ``value_vector`` (the comparator's and the conditional relaxation's)."""
        family, B, model, xs, ys = case
        hist = list(zip(xs, ys))
        for state, loss in (
            (CumulativeLoss.empty(family, B), MODEL),
            (CumulativeLoss.empty(family, model.outcome_bound, model.value_vector), model),
        ):
            leaf = forecasters._fold(state, hist)
            if not hist:
                assert leaf.best_loss() == 0.0
                continue
            best, slack = table_benchmark(family, loss)(hist)
            assert abs(leaf.best_loss() - best) <= slack

    @given(ridge_histories())
    @settings(max_examples=80, deadline=None)
    def test_ridge_best_loss_lies_within_its_bound_of_the_comparator(self, case):
        d, lam, B, zs, ys, _ = case
        hist = list(zip(zs, ys))
        leaf = forecasters._fold(RidgeStatistics.empty(lam, d, B), hist)
        if not hist:
            assert leaf.best_loss() == 0.0
            return
        best, slack = ridge_benchmark(d, lam)(hist)
        assert abs(leaf.best_loss() - best) <= slack

    def test_admissibility_matches_a_refolding_reference(self):
        """Rows from a state oracle, and from the same relaxation refolding
        every history, equal those of the check written over
        history-refolding evaluators; the initial margins lie within their
        slack."""
        rng = np.random.default_rng(17)
        fam = random_table(rng, 3)
        grid = tuple(np.linspace(-1, 1, 21))
        n = 4
        pm_hists = [
            list(zip(["x0", "x1", "x0", "x1"], ys))
            for ys in itertools.product((-1.0, 1.0), repeat=n)
        ]
        three_hists = [
            list(zip(["x0", "x1", "x0"], ys))
            for ys in itertools.product((-1.0, 0.0, 1.0), repeat=3)
        ]
        vaw_hists = [
            [(tuple(rng.uniform(-0.5, 0.5, size=2)), float(rng.uniform(-1, 1))) for _ in range(n)]
            for _ in range(4)
        ]
        cond_fam = FiniteTableFamily(["a", "b"], [[0.5, -0.2], [-0.5, 0.4]])
        cond_hists = [list(zip(["a", "b"], ys)) for ys in itertools.product((-1.0, 1.0), repeat=2)]
        cases = [
            (
                experts_relaxation_oracle(fam, 1.0, n),
                lambda xs, ys: reference_experts_relaxation(fam, 1.0, xs, ys),
                table_benchmark(fam, MODEL),
                (MODEL, ["x0", "x1"], (-1.0, 1.0), grid, pm_hists),
            ),
            (
                experts_relaxation_oracle(fam, 1.0, 3),
                lambda xs, ys: reference_experts_relaxation(fam, 1.0, xs, ys),
                table_benchmark(fam, MODEL),
                (MODEL, ["x0", "x1"], (-1.0, 0.0, 1.0), grid, three_hists),
            ),
            (
                vaw_relaxation_oracle(1.0, 1.0, n, 2),
                lambda xs, ys: reference_vaw_relaxation(xs, ys, 1.0, 1.0, n, 2),
                ridge_benchmark(2, 1.0),
                (MODEL, [h[0][0] for h in vaw_hists], (-1.0, 1.0), grid, vaw_hists),
            ),
            (
                conditional_rademacher_oracle(cond_fam, MODEL, ["a", "b"], (-0.5, 0.0, 0.5), 2),
                reference_conditional_evaluator(cond_fam, MODEL, ["a", "b"], (-0.5, 0.0, 0.5), 2),
                table_benchmark(cond_fam, MODEL),
                (MODEL, ["a", "b"], (-1.0, 1.0), tuple(np.linspace(-1, 1, 9)), cond_hists),
            ),
        ]
        for rel, reference, benchmark, args in cases:
            want_rows, want_initial = reference_check_admissibility(reference, benchmark, rel.horizon, *args)
            assert len(want_rows) > 0 and len(want_initial) == len(args[-1])
            for oracle in (rel, replace(rel, state=Refolding(reference, benchmark))):
                rep = check_admissibility(oracle, *args)
                rows = [(r.t, r.x, bits(r.recursive), bits(r.distributional)) for r in rep.rows]
                assert rows == want_rows and initial_within(rep.initial_margins, want_initial)


@st.composite
def admissibility_instances(draw):
    """A tiny experts or VAW relaxation at horizon 1-3 with B = 1, a loss on
    [-1, 1], a two- or three-point outcome grid, a prediction grid that is
    either evenly spaced (holding the square-loss mean minimizers (2q-1)B of
    some mixing weights) or 1-5 drawn points, 1-4 sampled histories whose
    covariates come from a small pool and whose outcomes mostly lie on the
    outcome grid, a covariate set drawn from the same pool, and the
    relaxation's reference best loss (:func:`table_benchmark` or
    :func:`ridge_benchmark`)."""
    n = draw(st.integers(1, 3))
    # q_loss(2.0) has square loss's values but not its closed forms.
    model = draw(st.sampled_from((MODEL, absolute_loss(1.0), q_loss(1.5), q_loss(2.0), logistic_loss(1.0))))
    outcome_grid = draw(st.sampled_from(((-1.0, 1.0), (1.0, -1.0), (-1.0, 0.0, 1.0), (0.5, -1.0, 1.0))))
    prediction_grid = draw(
        st.one_of(
            st.integers(1, 5).map(lambda k: tuple(np.linspace(-1.0, 1.0, 2 * k + 1))),
            st.lists(UNIT, min_size=1, max_size=5).map(tuple),
        )
    )
    if draw(st.booleans()):
        n_pred, n_cov = draw(st.integers(1, 3)), draw(st.integers(1, 2))
        values = draw(st.lists(st.lists(UNIT, min_size=n_cov, max_size=n_cov), min_size=n_pred, max_size=n_pred))
        family = FiniteTableFamily([f"x{j}" for j in range(n_cov)], values)
        pool = family.covariate_ids
        rel = experts_relaxation_oracle(family, 1.0, n)
        benchmark = table_benchmark(family, MODEL)

        def reference(xs, ys):
            return reference_experts_relaxation(family, 1.0, xs, ys)

    else:
        d, lam = draw(st.integers(1, 2)), draw(SCALES)
        vector = st.lists(st.floats(-0.7, 0.7), min_size=d, max_size=d).map(tuple)
        pool = draw(st.lists(vector, min_size=1, max_size=3, unique=True))
        rel = vaw_relaxation_oracle(lam, 1.0, n, d)
        benchmark = ridge_benchmark(d, lam)

        def reference(xs, ys):
            return reference_vaw_relaxation(xs, ys, lam, 1.0, n, d)

    round_ = st.tuples(st.sampled_from(pool), st.one_of(st.sampled_from(outcome_grid), UNIT))
    hists = draw(st.lists(st.lists(round_, min_size=n, max_size=n), min_size=1, max_size=4))
    covariate_set = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    return rel, reference, benchmark, (model, covariate_set, outcome_grid, prediction_grid, hists)


class TestAdmissibilityTables:
    """The array form of ``check_admissibility`` against the scalar reference,
    and its contract: each history's potential read once, range errors, NaN."""

    # Rows per block of the distributional table: 1, 2, 5 and the shipped 162.
    @given(admissibility_instances(), st.sampled_from((1, 202, 505, forecasters.SCAN_BLOCK_CELLS)))
    @settings(max_examples=100, deadline=None)
    def test_rows_match_the_scalar_reference(self, case, cells):
        rel, reference, benchmark, args = case
        want_rows, want_initial = reference_check_admissibility(reference, benchmark, rel.horizon, *args)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forecasters, "SCAN_BLOCK_CELLS", cells)
            rep = check_admissibility(rel, *args)
        rows = [(r.t, r.x, bits(r.recursive), bits(r.distributional)) for r in rep.rows]
        assert rows == want_rows and initial_within(rep.initial_margins, want_initial)

    def test_each_history_potential_is_read_once(self):
        fam = FiniteTableFamily(["x0", "x1"], [[0.5, -0.2], [-0.5, 0.4], [0.1, 0.9]])
        n = 3
        good = experts_relaxation_oracle(fam, 1.0, n)
        reads = Counter()

        @dataclass(frozen=True)
        class Counted:
            inner: object
            history: tuple = ()

            def extend(self, x, y):
                return Counted(self.inner.extend(x, y), self.history + ((x, y),))

            def potential(self):
                reads[self.history] += 1
                return self.inner.potential()

            def best_loss(self):
                return self.inner.best_loss()

        hists = [list(zip(["x0", "x1", "x0"], ys)) for ys in itertools.product((-1.0, 1.0), repeat=n)]
        args = (MODEL, ["x0", "x1"], (-1.0, 1.0), tuple(np.linspace(-1, 1, 21)), hists)
        rep = check_admissibility(replace(good, state=Counted(good.state)), *args)
        # 1 + 2 + 4 prefixes; 15 sampled histories, and 14 continuations of
        # a prefix by a covariate the samples do not play next.
        assert rep.stats == {"prefixes": 7, "potentials": 29}
        assert sum(reads.values()) == 29 and set(reads.values()) == {1}
        plain = check_admissibility(good, *args)
        assert [(r.t, r.x, bits(r.recursive), bits(r.distributional)) for r in rep.rows] == [
            (r.t, r.x, bits(r.recursive), bits(r.distributional)) for r in plain.rows
        ]

    def test_rows_within_a_round_follow_first_seen_order(self):
        """Round 2's rows list the prefix the samples reach first, ("b", 1.0),
        before ("a", 1.0), though its ``repr`` sorts after."""
        fam = FiniteTableFamily(["a", "b"], [[0.5, -0.2], [-0.5, 0.4]])
        rel = experts_relaxation_oracle(fam, 1.0, 2)
        first, second = [("b", 1.0), ("a", -1.0)], [("a", 1.0), ("b", 1.0)]
        args = (MODEL, ["a", "b"], (-1.0, 1.0), tuple(np.linspace(-1, 1, 21)))

        def round_two(hists):
            rep = check_admissibility(rel, *args, hists)
            return [(r.x, bits(r.recursive), bits(r.distributional)) for r in rep.rows if r.t == 2]

        assert round_two([first]) != round_two([second])
        assert round_two([first, second]) == round_two([first]) + round_two([second])
        assert round_two([second, first]) == round_two([second]) + round_two([first])

    @pytest.mark.parametrize(
        "model, outcome_grid, prediction_grid",
        [
            (MODEL, (-1.0, 1.0), (0.0, 1.5)),
            (MODEL, (-1.0, 0.0, 1.0), (0.0, 1.5)),
            (absolute_loss(1.0), (-1.0, 1.0), (-1.5, 0.0)),
            # The exact mean minimizer (2q-1)B leaves the prediction range.
            (square_loss(1.0, (-0.5, 0.5)), (-1.0, 1.0), (0.0,)),
        ],
        ids=["closed-form", "three-point", "absolute", "square-mean"],
    )
    def test_prediction_outside_the_loss_range_is_a_domain_error(self, model, outcome_grid, prediction_grid):
        fam = FiniteTableFamily(["a"], [[0.5], [-0.5]])
        rel = experts_relaxation_oracle(fam, 1.0, 2)
        hists = [[("a", 1.0), ("a", -1.0)]]
        with pytest.raises(DomainError, match="outside the prediction range"):
            check_admissibility(rel, model, ["a"], outcome_grid, prediction_grid, hists)

    def test_a_nan_potential_fails_the_check(self):
        # The NaN sits at a history no continuation reaches (its last
        # outcome is off the outcome grid), so the rows before it are finite.
        fam = FiniteTableFamily(["x0", "x1"], [[0.5, -0.2], [-0.5, 0.4]])
        good = experts_relaxation_oracle(fam, 1.0, 3)

        @dataclass(frozen=True)
        class NaNAtHalf:
            inner: object
            t: int = 0
            last: float | None = None

            def extend(self, x, y):
                return NaNAtHalf(self.inner.extend(x, y), self.t + 1, y)

            def potential(self):
                return math.nan if (self.t, self.last) == (2, 0.5) else self.inner.potential()

        hists = [
            list(zip(["x0", "x1", "x0"], ys))
            for ys in ((1.0, 0.5, -1.0), (-1.0, 1.0, 1.0), (1.0, -1.0, -1.0))
        ]
        args = (MODEL, ["x0", "x1"], (-1.0, 1.0), tuple(np.linspace(-1, 1, 21)), hists)
        assert check_admissibility(good, *args).passed()
        rep = check_admissibility(replace(good, state=NaNAtHalf(good.state)), *args)
        assert not math.isnan(rep.rows[0].recursive)
        assert any(math.isnan(r.recursive) for r in rep.rows)
        assert math.isnan(rep.worst_recursive) and math.isnan(rep.worst_margin)
        assert math.isnan(rep.worst_per_round()[3])
        assert not rep.passed()


# ---------------------------------------------------------------------------
# The best-loss scan of run_online against the per-round tracker
# ---------------------------------------------------------------------------


def reference_run_online(forecaster, sequence, model, family, ridge=0.0):
    """run_online as it was: the tracker extended after every round."""
    forecaster.reset()
    tracker = ReferenceBestLossTracker(family, model, ridge)
    records = []
    cum_loss = 0.0
    for t, (x, y) in enumerate(sequence, start=1):
        yhat = forecaster.predict(x)
        loss = model.value(yhat, y)
        forecaster.observe(x, y)
        cum_loss += loss
        records.append((t, x, bits(yhat), y, bits(loss), bits(cum_loss - tracker.add(x, y))))
    return records


def record_bits(records):
    return [(r.t, r.x, bits(r.yhat), r.y, bits(r.loss), bits(r.cumulative_regret)) for r in records]


def flat(blocks):
    return [bits(v) for block in blocks for v in block]


# Block sizes from one round per block up to the shipped constant.
BLOCK_CELLS = st.sampled_from((1, 2, 5, 13, forecasters.SCAN_BLOCK_CELLS))


@st.composite
def long_table_histories(draw):
    """A table of 1-5 predictors on 1-3 covariates, a loss on [-1, 1], a
    history of 0-40 rounds and a split point in it."""
    n_pred = draw(st.integers(1, 5))
    n_cov = draw(st.integers(1, 3))
    values = draw(st.lists(st.lists(UNIT, min_size=n_cov, max_size=n_cov), min_size=n_pred, max_size=n_pred))
    family = FiniteTableFamily([f"x{j}" for j in range(n_cov)], values)
    t = draw(st.integers(0, 40))
    xs = draw(st.lists(st.sampled_from(family.covariate_ids), min_size=t, max_size=t))
    ys = draw(st.lists(UNIT, min_size=t, max_size=t))
    model = draw(st.sampled_from((MODEL, absolute_loss(1.0), q_loss(1.5), logistic_loss(1.0))))
    return family, model, list(zip(xs, ys)), draw(st.integers(0, t))


@st.composite
def long_ridge_histories(draw):
    """Dimension 1-3, lambda, a history of 0-30 rounds and a split point."""
    d = draw(st.integers(1, 3))
    t = draw(st.integers(0, 30))
    vector = st.lists(UNIT, min_size=d, max_size=d).map(tuple)
    zs = draw(st.lists(vector, min_size=t, max_size=t))
    ys = draw(st.lists(UNIT, min_size=t, max_size=t))
    return d, draw(SCALES), list(zip(zs, ys)), draw(st.integers(0, t))


class FailingAt:
    """Plays ``inner`` (0 everywhere when it is None) and raises at round
    ``fail_at`` (never when it is None)."""

    def __init__(self, inner=None, fail_at=None):
        self.inner = inner
        self.fail_at = fail_at

    def reset(self):
        self.round = 0
        if self.inner is not None:
            self.inner.reset()

    def predict(self, x):
        self.round += 1
        if self.round == self.fail_at:
            raise RuntimeError("boom")
        return 0.0 if self.inner is None else self.inner.predict(x)

    def observe(self, x, y):
        if self.inner is not None:
            self.inner.observe(x, y)


class TestClosedFormCapability:
    """The square-loss closed forms follow the loss record: ``q_loss(2.0)``
    has square loss's values but keeps the generic grid paths, and square
    loss gets the closed forms bit for bit as the name test gave them."""

    GRID = (-1.0, -0.5, 0.0, 0.5, 1.0)

    def test_one_step_rule(self):
        step = forecasters._OneStep.build(MODEL, self.GRID, (1.0, -1.0))
        assert (step.outcomes, step.grid, step.losses) == ((1.0, -1.0), None, None)
        assert step.predict([0.3, -0.1]) == clip(0.4 / 4.0, 1.0)
        step = forecasters._OneStep.build(q_loss(2.0), self.GRID, (1.0, -1.0))
        assert (step.outcomes, step.grid) == ((-1.0, 1.0), self.GRID)

    def test_expected_loss_minima(self):
        w = forecasters.MIXING_WEIGHTS

        def table(model, yhats):
            hi, lo = (np.array([model.value(p, y) for p in yhats]) for y in (1.0, -1.0))
            return w[:, None] * hi + (1.0 - w)[:, None] * lo

        grid_only = table(MODEL, self.GRID).min(axis=1)
        mean = ((2.0 * w - 1.0) * 1.0).tolist()
        closed = np.minimum(grid_only, np.diagonal(table(MODEL, mean)))
        assert bits_of(forecasters._expected_loss_minima(MODEL, self.GRID)) == bits_of(closed)
        assert bits_of(forecasters._expected_loss_minima(q_loss(2.0), self.GRID)) == bits_of(grid_only)
        assert (grid_only > closed).any()

    def test_no_ridge_scan(self):
        # Square loss's scan is checked against the tracker in TestBestLossScan.
        hist = [((0.5,), 0.2), ((-0.25,), -0.7), ((1.0,), 0.4)]
        with pytest.raises(CapabilityError):
            run_online(VAWForecaster(1.0, 1.0, 1), hist, q_loss(2.0), LinearFamily(1), ridge=1.0)


def bits_of(values):
    return [bits(v) for v in values.tolist()]


class TestBestLossScan:
    @given(long_table_histories(), BLOCK_CELLS)
    @settings(max_examples=120, deadline=None)
    def test_table_scan_matches_the_tracker(self, case, cells):
        family, model, hist, k = case
        tracker = ReferenceBestLossTracker(family, model, 0.0)
        want = [bits(tracker.add(x, y)) for x, y in hist]
        state = forecasters._fold(CumulativeLoss.empty(family, 1.0, model.value_vector), hist[:k])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forecasters, "SCAN_BLOCK_CELLS", cells)
            assert flat(state.best_losses(hist[k:])) == want[k:]
            got = records_of(run_online(FixedComparatorForecaster(family, 0), hist, model, family))
        assert record_bits(got) == reference_run_online(
            FixedComparatorForecaster(family, 0), hist, model, family
        )

    @given(long_ridge_histories(), BLOCK_CELLS)
    @settings(max_examples=80, deadline=None)
    def test_ridge_scan_matches_the_tracker(self, case, cells):
        d, lam, hist, k = case
        tracker = ReferenceBestLossTracker(LinearFamily(d), MODEL, lam)
        want = [bits(tracker.add(x, y)) for x, y in hist]
        state = forecasters._fold(RidgeStatistics.empty(lam, d, 1.0), hist[:k])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forecasters, "SCAN_BLOCK_CELLS", cells)
            assert flat(state.best_losses(hist[k:])) == want[k:]
            got = records_of(run_online(VAWForecaster(lam, 1.0, d), hist, MODEL, LinearFamily(d), ridge=lam))
        assert record_bits(got) == reference_run_online(
            VAWForecaster(lam, 1.0, d), hist, MODEL, LinearFamily(d), lam
        )

    def test_partial_log_at_a_failure_mid_run(self, monkeypatch):
        # Two rounds per block for the table, one for the ridge statistics.
        monkeypatch.setattr(forecasters, "SCAN_BLOCK_CELLS", 8)
        rng = np.random.default_rng(18)
        fam = random_table(rng, 4, 3)
        table_seq = list(zip(*random_history(rng, fam, 25)))
        ridge_seq = [(tuple(rng.uniform(-0.5, 0.5, size=2)), float(rng.uniform(-1, 1))) for _ in range(25)]

        runs = [
            (ExpertsForecaster(fam, 1.0), table_seq, fam, 0.0),
            (VAWForecaster(1.0, 1.0, 2), ridge_seq, LinearFamily(2), 1.0),
        ]
        for forecaster, seq, family, ridge in runs:
            full = records_of(run_online(forecaster, seq, MODEL, family, ridge=ridge))
            with pytest.raises(RuntimeError, match="boom") as info:
                run_online(FailingAt(forecaster, fail_at=12), seq, MODEL, family, ridge=ridge)
            assert record_bits(info.value.partial_log) == record_bits(full[:11])

    def test_comparator_errors_keep_their_types(self):
        fam = FiniteTableFamily(["a", "b"], [[0.0, 0.5]])
        with pytest.raises(KeyError):
            run_online(FailingAt(), [("a", 0.1)] * 3 + [("zz", 0.1)], MODEL, fam)
        with pytest.raises(ValueError):
            run_online(FailingAt(), [((0.1, 0.2), 0.1), ((0.1, 0.2, 0.3), 0.1)], MODEL, LinearFamily(2), ridge=1.0)
        with pytest.raises(CapabilityError):
            run_online(FailingAt(), [((0.1, 0.2), 0.1)], absolute_loss(1.0), LinearFamily(2), ridge=1.0)

    def test_comparator_errors_follow_a_scanned_forecaster_s_whole_play(self):
        """Scanned forecasters whose statistic is not the comparator's: the
        comparator's error is raised with its own type, after the forecaster
        has played every round (its state is the fold of the whole run)."""
        table = FiniteTableFamily(["a", "b", "zz"], [[0.0, 0.5, -0.5], [0.25, -0.25, 1.0]])
        # A column outside the prediction range [-1, 1] keeps the table's
        # statistic off the comparator side.
        far = FiniteTableFamily(["a", "b"], [[0.0, 3.0], [0.25, -0.25]])
        runs = [
            (table, [("a", 0.1), ("zz", -0.3), ("b", 0.2)], MODEL, FiniteTableFamily(["a", "b"], [[0.0, 0.5]]), KeyError),
            (far, [("a", 0.1), ("b", -0.3), ("a", 0.2)], MODEL, far, DomainError),
        ]
        for forecaster_table, seq, model, family, error in runs:
            forecaster = ExpertsForecaster(forecaster_table, 1.0)
            assert not forecasters._shares_statistic(forecaster, model, family, 0.0)
            with pytest.raises(error):
                run_online(forecaster, seq, model, family)
            full = forecasters._fold(CumulativeLoss.empty(forecaster_table, 1.0), seq)
            assert [bits(v) for v in forecaster.state.cum] == [bits(v) for v in full.cum]
        seq = [((0.1, 0.2), 0.1), ((-0.3, 0.4), -0.2)]
        forecaster = VAWForecaster(1.0, 1.0, 2)
        with pytest.raises(CapabilityError):
            run_online(forecaster, seq, absolute_loss(1.0), LinearFamily(2), ridge=1.0)
        full = forecasters._fold(RidgeStatistics.empty(1.0, 2, 1.0), seq)
        assert [bits(v) for v in forecaster.state.b] == [bits(v) for v in full.b]

    def test_a_forecaster_failure_is_not_replaced_by_a_comparator_failure(self, monkeypatch):
        # One round per block: the log stops before the round the scan fails on.
        monkeypatch.setattr(forecasters, "SCAN_BLOCK_CELLS", 1)
        fam = FiniteTableFamily(["a", "b"], [[0.0, 0.5]])
        seq = [("a", 0.1)] * 5 + [("zz", 0.1)] + [("a", 0.1)] * 5
        with pytest.raises(RuntimeError, match="boom") as info:
            run_online(FailingAt(fail_at=9), seq, MODEL, fam)
        want = records_of(run_online(FailingAt(), seq[:5], MODEL, fam))
        assert record_bits(info.value.partial_log) == record_bits(want)
        # A scanned forecaster on another table, which has the covariate the
        # run's family lacks, failing on the loss at round 9.
        table = FiniteTableFamily(["a", "zz"], [[0.0, 0.5]])
        bad = list(seq)
        bad[8] = ("a", 1.5)
        with pytest.raises(DomainError, match="outside the outcome range") as info:
            run_online(ExpertsForecaster(table, 1.0), bad, MODEL, fam)
        want = records_of(run_online(ExpertsForecaster(table, 1.0), seq[:5], MODEL, fam))
        assert record_bits(info.value.partial_log) == record_bits(want)

    def test_a_column_never_played_is_not_range_checked(self):
        # Column b lies outside the prediction range [-1, 1]; only a is played.
        fam = FiniteTableFamily(["a", "b"], [[0.5, 3.0], [-0.5, 0.0]])
        seq = [("a", 0.2), ("a", -0.4), ("a", 1.0)]
        records = records_of(run_online(FailingAt(), seq, MODEL, fam))
        assert record_bits(records) == reference_run_online(FailingAt(), seq, MODEL, fam)
        with pytest.raises(DomainError):
            run_online(FailingAt(), seq + [("b", 0.0)], MODEL, fam)


# ---------------------------------------------------------------------------
# The prediction scan of run_online against per-round play
# ---------------------------------------------------------------------------


def drain(scan):
    """The blocks a state scan yields, and the state it returns."""
    blocks = []
    while True:
        try:
            blocks.append(next(scan))
        except StopIteration as stop:
            return blocks, stop.value


def per_round_predictions(forecaster, hist):
    """The bits of ``forecaster``'s prediction at each round of ``hist``,
    played on from its current state by ``predict`` and ``observe``."""
    out = []
    for x, y in hist:
        out.append(bits(forecaster.predict(x)))
        forecaster.observe(x, y)
    return out


@st.composite
def scaled_table_histories(draw):
    """A scale B, a table of 1-5 predictors on 1-3 covariates with values in
    [-B, B], a history of 0-40 rounds with outcomes in [-B, B], and a split
    point in it."""
    B = draw(SCALES)
    family, _, hist, k = draw(long_table_histories())
    family = FiniteTableFamily(family.covariate_ids, B * family.values)
    return B, family, [(x, B * y) for x, y in hist], k


@st.composite
def scaled_ridge_histories(draw):
    """A scale B, dimension 1-3, lambda, a history of 0-30 rounds with
    outcomes in [-B, B] and a split point."""
    B = draw(SCALES)
    d, lam, hist, k = draw(long_ridge_histories())
    return B, d, lam, [(x, B * y) for x, y in hist], k


class TestPredictionScan:
    @given(scaled_table_histories(), BLOCK_CELLS, st.sampled_from(("shared", "absolute loss", "another table")))
    @settings(max_examples=200, deadline=None)
    def test_experts_scan_matches_per_round_play(self, case, cells, pairing):
        """The scan's predictions from a mid-run state are the old softmin
        formula's, bit for bit at these scales, and per-round play's.  The
        run's own table under square loss reads its best losses off the
        forecaster's scan; under absolute loss, or with the run on another
        table, a second scan gives them."""
        B, family, hist, k = case
        model = absolute_loss(B) if pairing == "absolute loss" else square_loss(B)
        run_family = FiniteTableFamily(family.covariate_ids, -family.values) if pairing == "another table" else family
        xs, ys = [x for x, _ in hist], [y for _, y in hist]
        want = [bits(reference_experts_forecast(family, B, xs[:t], ys[:t], xs[t])) for t in range(k, len(hist))]
        forecaster = ExpertsForecaster(family, B)
        state, step = forecasters._fold(forecaster.state, hist[:k]), forecaster._step
        after = forecasters._fold(state, hist[k:])
        assert per_round_predictions(observed(ExpertsForecaster(family, B), hist[:k]), hist[k:]) == want
        assert forecasters._shares_statistic(forecaster, model, run_family, 0.0) == (pairing == "shared")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forecasters, "SCAN_BLOCK_CELLS", cells)
            blocks, end = drain(state._scan(hist[k:], lambda *block: state._predictions(step, *block)))
            got = records_of(run_online(forecaster, hist, model, run_family))
        assert flat(blocks) == want
        assert [bits(v) for v in end.cum] == [bits(v) for v in after.cum]
        per_round = ExpertsForecaster(family, B)
        assert record_bits(got) == reference_run_online(per_round, hist, model, run_family)
        assert [bits(v) for v in forecaster.state.cum] == [bits(v) for v in per_round.state.cum]

    @given(scaled_ridge_histories(), BLOCK_CELLS, st.sampled_from(("shared", "another ridge")))
    @settings(max_examples=120, deadline=None)
    def test_ridge_scan_matches_per_round_play(self, case, cells, pairing):
        """The scan's predictions from a mid-run state are the reference
        ridge forecaster's and per-round play's, bit for bit.  A ridge equal
        to the forecaster's lambda reads the best losses off the
        forecaster's scan; another ridge takes a second scan."""
        B, d, lam, hist, k = case
        model = square_loss(B)
        ridge = lam if pairing == "shared" else 2.0 * lam
        want = per_round_predictions(observed(ReferenceVAWForecaster(lam, B, d), hist[:k]), hist[k:])
        forecaster = VAWForecaster(lam, B, d)
        state, step = forecasters._fold(forecaster.state, hist[:k]), forecaster._step
        after = forecasters._fold(state, hist[k:])
        assert per_round_predictions(observed(VAWForecaster(lam, B, d), hist[:k]), hist[k:]) == want
        assert forecasters._shares_statistic(forecaster, model, LinearFamily(d), ridge) == (pairing == "shared")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forecasters, "SCAN_BLOCK_CELLS", cells)
            blocks, end = drain(state._scan(hist[k:], lambda *block: state._predictions(step, *block)))
            got = records_of(run_online(forecaster, hist, model, LinearFamily(d), ridge=ridge))
        assert flat(blocks) == want
        per_round = VAWForecaster(lam, B, d)
        assert record_bits(got) == reference_run_online(per_round, hist, model, LinearFamily(d), ridge)
        for s, t in ((end, after), (forecaster.state, per_round.state)):
            assert [bits(v) for v in s.A.ravel()] == [bits(v) for v in t.A.ravel()]
            assert [bits(v) for v in s.b] == [bits(v) for v in t.b]
            assert bits(s.sum_y2) == bits(t.sum_y2)

    @pytest.mark.parametrize("fault", ["covariate", "outcome"])
    @pytest.mark.parametrize(
        "kind", ["experts", "experts under absolute loss", "experts on another table", "vaw", "vaw at another ridge"]
    )
    def test_failures_match_per_round_play(self, kind, fault, monkeypatch):
        """An unknown or unhashable (experts) or malformed (VAW) covariate,
        or an outcome the loss refuses or that is not a number, at round k:
        the scan raises what per-round play raises, with the same log of the
        k rounds before it, whether the scan also gives the best losses
        (``experts``, ``vaw``) or a second scan does."""
        # 8 cells: two rounds per block for the table, one for the ridge
        # statistics; 35 cells: eight and five.
        for cells in (8, 35):
            monkeypatch.setattr(forecasters, "SCAN_BLOCK_CELLS", cells)
            self._check_failures(kind, fault)

    def _check_failures(self, kind, fault):
        rng = np.random.default_rng(19)
        model = absolute_loss(1.0) if kind == "experts under absolute loss" else MODEL
        if kind.startswith("experts"):
            family = random_table(rng, 4, 3)
            seq = list(zip(*random_history(rng, family, 25)))
            table = random_table(rng, 4, 3) if kind == "experts on another table" else family
            make, ridge = (lambda: ExpertsForecaster(table, 1.0)), 0.0
            bad_xs = {"zz": KeyError, None: KeyError, ("x0",): KeyError}
            unhashable = ([0.1], TypeError)
        else:
            family = LinearFamily(2)
            seq = [(tuple(rng.uniform(-0.5, 0.5, size=2)), float(rng.uniform(-1, 1))) for _ in range(25)]
            make, ridge = (lambda: VAWForecaster(1.0, 1.0, 2)), (2.0 if kind == "vaw at another ridge" else 1.0)
            # A scalar, a 3-vector, a nested (2, 1) value, a non-numeric
            # string and None.
            bad_xs = {0.5: ShapeError, (0.1, 0.2, 0.3): ShapeError, ((0.1,), (0.2,)): ShapeError,
                      "ab": ValueError, None: ShapeError}
            unhashable = ([[0.1], [0.2]], ShapeError)
        assert forecasters._shares_statistic(make(), model, family, ridge) == (kind in ("experts", "vaw"))
        if fault == "covariate":
            cases = [(bad_x, error) for bad_x, error in bad_xs.items()] + [unhashable]
        else:
            # An outcome the loss refuses, and one that is not a number.
            cases = [(1.5, DomainError), ("ab", ValueError)]
        # First, middle and last rounds of blocks, for both block sizes.
        for bad_value, error in cases:
            for k in (0, 1, 2, 4, 5, 7, 9, 12, 15, 24):
                bad = list(seq)
                x, y = bad[k]
                bad[k] = (bad_value, y) if fault == "covariate" else (x, bad_value)
                scanned = self._assert_failures_match(bad, make, family, ridge, k, error, model)
                if bad_value == "ab" and fault == "outcome":
                    assert type(scanned) is ValueError
                    assert str(scanned) == "could not convert string to float: 'ab'"

    def test_a_block_of_wrong_length_rows_fails_at_its_first_round(self, monkeypatch):
        """Every round of a five-round block a 3-vector: the block converts
        at once to the wrong shape, and the scan raises at its first round."""
        monkeypatch.setattr(forecasters, "SCAN_BLOCK_CELLS", 35)
        rng = np.random.default_rng(22)
        seq = [(tuple(rng.uniform(-0.5, 0.5, size=2)), float(rng.uniform(-1, 1))) for _ in range(25)]
        for first in (0, 10, 20):
            bad = [((0.1, 0.2, 0.3), y) if first <= t < first + 5 else (x, y) for t, (x, y) in enumerate(seq)]
            self._assert_failures_match(
                bad, lambda: VAWForecaster(1.0, 1.0, 2), LinearFamily(2), 1.0, first, ShapeError
            )

    @staticmethod
    def _assert_failures_match(bad, make, family, ridge, k, error, model=MODEL):
        caught = []
        for forecaster in (make(), FailingAt(make())):
            with pytest.raises(Exception) as info:
                run_online(forecaster, bad, model, family, ridge=ridge)
            caught.append(info.value)
        scanned, per_round = caught
        assert type(scanned) is type(per_round)
        assert isinstance(scanned, error)
        assert str(scanned) == str(per_round)
        assert len(scanned.partial_log) == k
        assert record_bits(scanned.partial_log) == record_bits(per_round.partial_log)
        return scanned

    def test_other_forecasters_play_round_by_round(self):
        # A subclass may override predict, so only the exact types are scanned.
        class Shifted(ExpertsForecaster):
            def predict(self, x):
                return clip(super().predict(x) + 0.25, 1.0)

        rng = np.random.default_rng(20)
        fam = random_table(rng, 3)
        seq = list(zip(*random_history(rng, fam, 30)))
        got = records_of(run_online(Shifted(fam, 1.0), seq, MODEL, fam))
        assert record_bits(got) == reference_run_online(Shifted(fam, 1.0), seq, MODEL, fam)


# ---------------------------------------------------------------------------
# The losses of run_online, one range check per block of predictions
# ---------------------------------------------------------------------------


class TestBlockLosses:
    @given(long_table_histories(), BLOCK_CELLS)
    @settings(max_examples=120, deadline=None)
    def test_losses_equal_per_round_values(self, case, cells):
        """Over the four losses, and block sizes from one round up."""
        family, model, hist, _ = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forecasters, "SCAN_BLOCK_CELLS", cells)
            records = records_of(run_online(ExpertsForecaster(family, 1.0), hist, model, family))
        assert len(records) == len(hist)
        assert [bits(r.loss) for r in records] == [bits(model.value(r.yhat, r.y)) for r in records]

    @pytest.mark.parametrize("fault", ["prediction", "outcome"])
    def test_an_out_of_range_round_keeps_the_rounds_before_it(self, fault, monkeypatch):
        """Round k out of range, including the first round of a later block:
        the error and the k records are those of one value call per round."""
        # One expert, so four rounds per block and each prediction is the
        # expert's value; 0.9 lies outside the prediction range.
        monkeypatch.setattr(forecasters, "SCAN_BLOCK_CELLS", 4)
        family = FiniteTableFamily(["a", "far"], [[0.25, 0.9]])
        model = square_loss(1.0, prediction_range=(-0.5, 0.5))
        ys = np.random.default_rng(21).uniform(-1, 1, 12).tolist()
        for k in (0, 1, 3, 4, 5, 8, 11):
            seq = [("a", y) for y in ys]
            seq[k] = ("far", ys[k]) if fault == "prediction" else ("a", 1.5)
            with pytest.raises(DomainError) as parent:
                reference_run_online(ExpertsForecaster(family, 1.0), seq, model, family)
            with pytest.raises(DomainError) as info:
                run_online(ExpertsForecaster(family, 1.0), seq, model, family)
            assert type(info.value) is DomainError
            assert str(info.value) == str(parent.value)
            assert f"outside the {fault} range" in str(info.value)
            want = reference_run_online(ExpertsForecaster(family, 1.0), seq[:k], model, family)
            assert record_bits(info.value.partial_log) == want


# ---------------------------------------------------------------------------
# The relaxation forecaster's scan and the batched potential kernels,
# against per-state potentials and per-round play
# ---------------------------------------------------------------------------


def reference_state_potential(state):
    """A built-in state's potential by the per-state formulas the batched
    kernels replaced: a 1-d log-sum-exp, and ``h @ h`` and the log of
    ``np.diag(L)`` from one Cholesky factor."""
    if isinstance(state, CumulativeLoss):
        eta = 0.5 / (state.B * state.B)
        return reference_logsumexp(-eta * state.cum) / eta
    d = state.b.shape[0]
    L = np.linalg.cholesky(state.A)
    half = np.linalg.solve(L, state.b)
    quad = float(half @ half)
    logdet = 2.0 * float(np.log(np.diag(L)).sum())
    return quad + 4.0 * state.B * state.B * (d * math.log(state.horizon / d) - logdet) - state.sum_y2


def reference_vaw_closed_form(state, x, B):
    """The ridge forecaster's prediction from ``state`` by the per-state
    formula of ``ReferenceVAWForecaster``; ``extend`` checks the covariate."""
    return clip(float(np.asarray(x, dtype=float) @ np.linalg.solve(state.extend(x, 0.0).A, state.b)), B)


def reference_one_step(step, rels):
    """``_OneStep.predict`` as a per-row rule: the clip of the closed form,
    or the first grid point of least worst-case potential."""
    if step.losses is None:
        return clip((rels[0] - rels[1]) / (4.0 * step.B), step.B)
    return step.grid[int((step.losses + rels).max(axis=1).argmin())]


class PerRoundRelaxation(RelaxationForecaster):
    """The relaxation forecaster played by per-state formulas.  A subclass,
    so ``run_online`` plays it round by round.  On ridge statistics under
    the equalizing step its prediction is the ridge closed form; otherwise
    it reads each continuation's potential by the per-state formulas and
    applies the per-row rule."""

    def predict(self, x):
        step, state = self._step, self.state
        if isinstance(state, RidgeStatistics) and step.losses is None:
            return reference_vaw_closed_form(state, x, step.B)
        return reference_one_step(step, [reference_state_potential(state.extend(x, y)) for y in step.outcomes])


@st.composite
def cumulative_loss_stacks(draw):
    """A scale B and 1-6 stacked cumulative-loss rows over 1-20 predictors
    (the pairwise sum unrolls by 8), with large, tied and zero entries."""
    n_pred = draw(st.integers(1, 20))
    entry = st.one_of(st.floats(0.0, 50.0), st.sampled_from((0.0, 1.0, 1e-300, 1e6)))
    rows = draw(st.lists(st.lists(entry, min_size=n_pred, max_size=n_pred), min_size=1, max_size=6))
    return draw(SCALES), np.array(rows)


@st.composite
def ridge_stacks(draw):
    """1-6 ridge statistics of dimension 1-6: lambda, B, a horizon, and each
    statistic folded from 0-8 rounds of covariates in [-1, 1]^d."""
    d = draw(st.integers(1, 6))
    lam, B, horizon = draw(SCALES), draw(SCALES), draw(st.integers(1, 40))
    vector = st.lists(UNIT, min_size=d, max_size=d).map(tuple)
    states = []
    for _ in range(draw(st.integers(1, 6))):
        t = draw(st.integers(0, 8))
        hist = list(zip(draw(st.lists(vector, min_size=t, max_size=t)), draw(st.lists(UNIT, min_size=t, max_size=t))))
        states.append(forecasters._fold(RidgeStatistics.empty(lam, d, B, horizon), hist))
    return states


class TestBatchedPotentials:
    @given(cumulative_loss_stacks())
    @settings(max_examples=200, deadline=None)
    def test_cumulative_loss_rows_equal_the_per_state_potential(self, case):
        B, cums = case
        family = FiniteTableFamily(["x"], np.zeros((cums.shape[1], 1)))
        root = CumulativeLoss.empty(family, B)
        states = [root._replace(cum=row.copy()) for row in cums]
        want = [bits(reference_state_potential(s)) for s in states]
        assert [bits(v) for v in root.potentials(cums).tolist()] == want
        assert [bits(s.potential()) for s in states] == want
        assert [bits(v) for v in forecasters._stacked_potentials(states)] == want

    def test_thousands_of_random_rows_equal_the_per_state_potentials(self):
        """Logs and sums whose last bits differ between kernels (numpy's
        vector log and ``math.log`` disagree on a few values in a thousand)
        show up over many random rows."""
        rng = np.random.default_rng(27)
        for n_pred in (1, 3, 8, 13):
            family = FiniteTableFamily(["x"], np.zeros((n_pred, 1)))
            root = CumulativeLoss.empty(family, 1.0)
            cums = rng.uniform(0.0, 20.0, size=(1000, n_pred))
            want = [bits(reference_state_potential(root._replace(cum=row.copy()))) for row in cums]
            assert [bits(v) for v in root.potentials(cums).tolist()] == want
        for d in (1, 2, 3, 6):
            zs = rng.uniform(-1.0, 1.0, size=(300, 8, d))
            ys = rng.uniform(-1.0, 1.0, size=(300, 8))
            states = [forecasters._fold(RidgeStatistics.empty(1.0, d, 1.0, 20), zip(z, y)) for z, y in zip(zs, ys)]
            want = [bits(reference_state_potential(s)) for s in states]
            assert [bits(v) for v in forecasters._stacked_potentials(states)] == want

    @given(ridge_stacks())
    @settings(max_examples=200, deadline=None)
    def test_ridge_rows_equal_the_per_state_potential(self, states):
        """The stacked ``h[:, None, :] @ h[:, :, None]`` and the log of
        ``np.diagonal(L, axis1=1, axis2=2)`` against ``h @ h`` and
        ``np.log(np.diag(L))``, state by state."""
        want = [bits(reference_state_potential(s)) for s in states]
        assert [bits(s.potential()) for s in states] == want
        assert [bits(v) for v in forecasters._stacked_potentials(states)] == want


@st.composite
def relaxation_runs(draw):
    """An experts relaxation on a table or a vaw relaxation, played under one
    of the two one-step rules (the square-loss closed form on {-B, B}; the
    grid argmin under absolute loss or on a 3-point outcome grid), on a
    history of 0-40 rounds with a comparator family that takes every
    covariate played."""
    kind = draw(st.sampled_from(("experts", "vaw")))
    if kind == "experts":
        B, family, hist, _ = draw(scaled_table_histories())
        rel = experts_relaxation_oracle(family, B, max(1, len(hist)))
    else:
        B, d, lam, hist, _ = draw(scaled_ridge_histories())
        rel = vaw_relaxation_oracle(lam, B, len(hist) + d, d)
        covariates = list(dict.fromkeys(x for x, _ in hist)) or [(0.0,) * d]
        family = FiniteTableFamily(covariates, np.zeros((1, len(covariates))))
    rule = draw(st.sampled_from(("closed form", "absolute loss", "three outcomes")))
    model = absolute_loss(B) if rule == "absolute loss" else square_loss(B)
    outcome_grid = (-B, 0.0, B) if rule == "three outcomes" else (B, -B)
    grid = draw(
        st.one_of(
            st.integers(1, 10).map(lambda k: tuple(np.linspace(-B, B, 2 * k + 1))),
            st.lists(UNIT.map(lambda v: B * v), min_size=1, max_size=6).map(tuple),
        )
    )
    return rel, model, grid, outcome_grid, family, hist


def played(forecaster, sequence, model, family):
    """A run's record bits and the forecaster's final statistic, or the
    exception it raised with the bits of its partial log."""
    try:
        records = records_of(run_online(forecaster, sequence, model, family))
    except Exception as exc:
        return type(exc), str(exc), record_bits(exc.partial_log)
    return record_bits(records), statistic_bits(forecaster.state)


def statistic_bits(state):
    stat = (state.cum,) if isinstance(state, CumulativeLoss) else (state.A.ravel(), state.b, [state.sum_y2])
    return [bits(v) for s in stat for v in s]


class TestRelaxationScan:
    @given(relaxation_runs(), BLOCK_CELLS)
    @settings(max_examples=200, deadline=None)
    def test_scan_matches_per_round_play(self, case, cells):
        rel, model, grid, outcome_grid, family, hist = case
        forecaster = RelaxationForecaster(rel, model, grid, outcome_grid)
        assert forecasters._scanned(forecaster)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forecasters, "SCAN_BLOCK_CELLS", cells)
            got = played(forecaster, hist, model, family)
        assert got == played(PerRoundRelaxation(rel, model, grid, outcome_grid), hist, model, family)

    def test_blocks_cross_the_shipped_block_size(self):
        """2,500 rounds of a |F| = 8 table: blocks of 2,048 rounds, so one
        block boundary falls inside the run."""
        rng = np.random.default_rng(23)
        family = random_table(rng, 8, 4)
        seq = list(zip(*random_history(rng, family, 2500)))
        rel = experts_relaxation_oracle(family, 1.0, len(seq))
        args = (MODEL, tuple(np.linspace(-1, 1, 21)), (-1.0, 1.0))
        got = played(RelaxationForecaster(rel, *args), seq, MODEL, family)
        assert got == played(PerRoundRelaxation(rel, *args), seq, MODEL, family)
        assert len(got[0]) == 2500

    def test_predict_is_not_called_for_the_built_in_statistics(self, monkeypatch):
        calls = Counter()
        predict = RelaxationForecaster.predict

        def counted(self, x):
            calls[type(self.state).__name__] += 1
            return predict(self, x)

        monkeypatch.setattr(RelaxationForecaster, "predict", counted)
        rng = np.random.default_rng(24)
        family = random_table(rng, 3)
        seq = list(zip(*random_history(rng, family, 12)))
        grid = tuple(np.linspace(-1, 1, 9))
        run_online(RelaxationForecaster(experts_relaxation_oracle(family, 1.0, 12), MODEL, grid, (-1.0, 1.0)), seq, MODEL, family)
        ridge_seq = [(tuple(rng.uniform(-0.5, 0.5, size=2)), float(rng.uniform(-1, 1))) for _ in range(12)]
        vaw = RelaxationForecaster(vaw_relaxation_oracle(1.0, 1.0, 12, 2), MODEL, grid, (-1.0, 1.0))
        run_online(vaw, ridge_seq, MODEL, LinearFamily(2), ridge=1.0)
        assert calls == Counter()
        # The conditional relaxation, and a table of another loss, play round by round.
        cond = conditional_rademacher_oracle(family, MODEL, family.covariate_ids, (-0.5, 0.0, 0.5), 2)
        run_online(RelaxationForecaster(cond, MODEL, grid, (-1.0, 1.0)), seq[:2], MODEL, family)
        other = RelaxationOracle(CumulativeLoss.empty(family, 1.0, MODEL.value_vector), 3)
        run_online(RelaxationForecaster(other, MODEL, grid, (-1.0, 1.0)), seq[:3], MODEL, family)
        assert calls == Counter({"_FutureOffsetComplexity": 2, "CumulativeLoss": 3})

    @pytest.mark.parametrize(
        "kind, fault",
        [(kind, fault) for kind in ("experts", "vaw") for fault in ("covariate", "outcome", "prediction")]
        + [("vaw", "non-finite covariate")],
    )
    def test_failures_in_a_block_match_per_round_play(self, kind, fault, monkeypatch):
        """A bad covariate or outcome, a prediction outside the loss's range,
        or a covariate whose ridge statistic has no Cholesky factor, at round
        k of 25: the scan raises what per-round play raises, with the same
        log of the rounds before it.  A forecaster failure, or a loss that
        refuses a round, leaves the scanned forecaster at its reset state; an
        outcome that is not a number ends the sequence before play, which
        then ends as per-round play does."""
        # 35 cells: eight rounds per block for the table, five for the ridge.
        monkeypatch.setattr(forecasters, "SCAN_BLOCK_CELLS", 35)
        rng = np.random.default_rng(25)
        model = MODEL
        if kind == "experts":
            family = random_table(rng, 4, 3)
            seq = list(zip(*random_history(rng, family, 25)))
            rel = experts_relaxation_oracle(family, 1.0, 25)
            bad_x = "zz" if fault == "covariate" else None
        else:
            seq = [(tuple(rng.uniform(-0.5, 0.5, size=2)), float(rng.uniform(-1, 1))) for _ in range(25)]
            family = FiniteTableFamily([x for x, _ in seq], np.zeros((1, 25)))
            rel = vaw_relaxation_oracle(1.0, 1.0, 25, 2)
            bad_x = (0.1, 0.2, 0.3) if fault == "covariate" else (math.nan, 0.1)
        ks = (0, 1, 4, 5, 7, 8, 12, 24)
        if fault == "prediction":
            # A prediction range that holds the first six predictions and
            # not some later one, which is then the first out of range.
            records = records_of(run_online(PerRoundRelaxation(rel, MODEL, (0.0,), (-1.0, 1.0)), seq, MODEL, family))
            width = max(abs(r.yhat) for r in records[:6])
            ks = [next(t for t, r in enumerate(records) if abs(r.yhat) > width + 1e-6)]
            model = square_loss(1.0, prediction_range=(-width, width))
            # A comparator whose values the narrower range admits.
            family = FiniteTableFamily(family.covariate_ids, np.zeros((1, len(family.covariate_ids))))
        args = (model, tuple(np.linspace(-1, 1, 9)), (-1.0, 1.0))
        for k in ks:
            bad = list(seq)
            x, y = bad[k]
            if fault in ("covariate", "non-finite covariate"):
                bad[k] = (bad_x, y)
            elif fault == "outcome":
                bad[k] = (x, 1.5 if k % 2 else "ab")
            forecaster, per_round = RelaxationForecaster(rel, *args), PerRoundRelaxation(rel, *args)
            got = played(forecaster, bad, model, family)
            assert isinstance(got[0], type) and issubclass(got[0], Exception)
            assert got == played(per_round, bad, model, family)
            assert len(got[2]) == k
            if bad[k][1] == "ab":
                assert statistic_bits(forecaster.state) == statistic_bits(per_round.state)
            else:
                assert forecaster.state is rel.state


# ---------------------------------------------------------------------------
# The experts and ridge forecasters as relaxation forecasters, against the
# formulas they had as classes of their own
# ---------------------------------------------------------------------------

EPS = 2.0**-52


def reference_softmin_predictions(after, b):
    """``CumulativeLoss.softmin_predictions`` as it was, the experts
    forecaster's own formula: for each (2, |F|) pair of cumulative losses
    after the outcome +B (row 0) or -B (row 1), the difference of the two
    softmins, scaled once by 1/(4 B eta)."""
    eta = 0.5 / (b * b)
    a = -eta * after
    m = a.max(axis=2)
    s = np.exp(a - m[:, :, None]).sum(axis=2)
    return [
        clip(((m_plus + math.log(s_plus)) - (m_minus + math.log(s_minus))) / (4.0 * b * eta), b)
        for (m_plus, m_minus), (s_plus, s_minus) in zip(m.tolist(), s.tolist())
    ]


ANY_SCALE = st.one_of(SCALES, st.floats(0.05, 20.0))


@st.composite
def experts_runs(draw):
    """A scale B, a power of two or any in [0.05, 20], a table of 1-5
    predictors on 1-3 covariates with values in [-B, B], and a run of 0-40
    rounds with outcomes in [-B, B]."""
    B = draw(ANY_SCALE)
    family, _, hist, _ = draw(long_table_histories())
    return B, FiniteTableFamily(family.covariate_ids, B * family.values), [(x, B * y) for x, y in hist]


@st.composite
def ridge_gap_cases(draw):
    """Dimension 1-4, lambda, the outcome bound B of the step and the scale
    of the potential (each a power of two or any in [0.05, 20]), a horizon
    at least d past a history of 0-20 rounds (covariates in [-1, 1]^d,
    outcomes in [-B, B]), and a query covariate."""
    d = draw(st.integers(1, 4))
    lam, B, scale = draw(SCALES), draw(ANY_SCALE), draw(ANY_SCALE)
    t = draw(st.integers(0, 20))
    vector = st.lists(UNIT, min_size=d, max_size=d).map(tuple)
    hist = list(zip(draw(st.lists(vector, min_size=t, max_size=t)), [B * y for y in draw(st.lists(UNIT, min_size=t, max_size=t))]))
    return d, lam, B, scale, t + d + draw(st.integers(0, 40)), hist, draw(vector)


class TestFoldedForecasters:
    @given(experts_runs(), BLOCK_CELLS)
    @settings(max_examples=200, deadline=None)
    def test_experts_forecaster_against_the_old_softmin(self, case, cells):
        """The scanned run and per-round play give the old formula's
        predictions, bit for bit at B in {0.5, 1, 2}.  At another B each is
        within 4 eps ((|P+| + |P-|) / (4B) + B) of it, P+ and P- the two
        continuation potentials: the old formula scales the difference of
        the softmins by 1/(4 B eta) once, the new one each potential by
        1/eta and their difference by 1/(4B), and these scalings are exact
        when B is a power of two."""
        B, family, hist = case
        eta = 0.5 / (B * B)
        cum, afters = np.zeros(family.n_predictors), []
        for x, y in hist:
            fv = family.evaluate_all(x)
            afters.append(cum + (np.array([[B], [-B]]) - fv) ** 2)
            cum = cum + (fv - y) ** 2
        want = reference_softmin_predictions(np.array(afters).reshape(-1, 2, family.n_predictors), B)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forecasters, "SCAN_BLOCK_CELLS", cells)
            records = records_of(run_online(ExpertsForecaster(family, B), hist, square_loss(B), family))
        got = [r.yhat for r in records]
        assert [bits(v) for v in got] == per_round_predictions(ExpertsForecaster(family, B), hist)
        if B in (0.5, 1.0, 2.0):
            assert [bits(v) for v in got] == [bits(v) for v in want]
        for yhat, old, after in zip(got, want, afters):
            p_plus, p_minus = (reference_logsumexp(-eta * row) / eta for row in after)
            assert abs(yhat - old) <= 4.0 * EPS * ((abs(p_plus) + abs(p_minus)) / (4.0 * B) + B)

    @given(ridge_gap_cases())
    @settings(max_examples=200, deadline=None)
    def test_ridge_closed_form_against_the_potential_difference(self, case):
        """The vaw relaxation's forecaster plays the ridge closed form, the
        VAW prediction; ``check_admissibility`` evaluates the one-step rule
        on the potentials, ``(Rel(+B) - Rel(-B)) / (4B)``.  They are equal
        in exact arithmetic at any scale of the potential, and the two
        floats lie within 8 eps ((|Rel(+B)| + |Rel(-B)| + 2|C|) / (4B) +
        B), C = 4 scale^2 (d log(n/d) - log det(A + z z^T)) the term both
        potentials share, which their difference cancels."""
        d, lam, B, scale, horizon, hist, x = case
        rel = vaw_relaxation_oracle(lam, scale, horizon, d)
        forecaster = observed(RelaxationForecaster(rel, square_loss(B), (-B, B), (-B, B)), hist)
        state = forecaster.state
        yhat = forecaster.predict(x)
        assert bits(yhat) == bits(reference_vaw_closed_form(state, x, B))
        p_plus, p_minus = state.extend(x, B).potential(), state.extend(x, -B).potential()
        on_potentials = forecaster._step.predict([p_plus, p_minus])
        logdet = np.linalg.slogdet(state.extend(x, 0.0).A)[1]
        shared = abs(4.0 * scale * scale * (d * math.log(horizon / d) - logdet))
        assert abs(yhat - on_potentials) <= 8.0 * EPS * ((abs(p_plus) + abs(p_minus) + 2.0 * shared) / (4.0 * B) + B)

    def test_experts_relaxation_on_the_run_s_table_shares_its_scan(self, monkeypatch):
        """The experts relaxation run on its own table under square loss reads
        its best losses off its prediction scan: no second scan, and the
        records of a run that takes one."""
        calls = Counter()
        best_losses = CumulativeLoss.best_losses

        def counted(self, history):
            calls[self.family] += 1
            return best_losses(self, history)

        monkeypatch.setattr(CumulativeLoss, "best_losses", counted)
        rng = np.random.default_rng(28)
        family = random_table(rng, 8, 4)
        seq = list(zip(*random_history(rng, family, 300)))
        args = (MODEL, tuple(np.linspace(-1, 1, 21)), (-1.0, 1.0))
        forecaster = RelaxationForecaster(experts_relaxation_oracle(family, 1.0, len(seq)), *args)
        assert forecasters._shares_statistic(forecaster, MODEL, family, 0.0)
        got = played(forecaster, seq, MODEL, family)
        assert calls == Counter()
        # A subclass plays round by round, and its best losses take a scan.
        assert got == played(PerRoundRelaxation(forecaster.rel, *args), seq, MODEL, family)
        assert calls == Counter({family: 1})


def per_node_check_admissibility(
    rel, benchmark, model, covariate_set, outcome_grid, prediction_grid, sample_histories
):
    """``check_admissibility`` as it read potentials before the kernels: one
    node per distinct history, each potential read once as the check first
    reaches it, by the per-state formulas for the built-in statistics, and
    the per-row one-step rule.  Returns the rows, the initial margins from
    the reference best loss ``benchmark`` with their slack
    (:func:`initial_margin`), and the stats."""
    b = model.outcome_bound
    step = forecasters._OneStep.build(model, prediction_grid, outcome_grid)
    e_loss = forecasters._expected_loss_minima(model, prediction_grid)
    outcomes = tuple(dict.fromkeys(outcome_grid))
    nodes, states, potentials, prefixes = {}, [rel.state], {}, {}
    read = reference_state_potential if type(rel.state) in (CumulativeLoss, RidgeStatistics) else type(rel.state).potential

    def child(i, x, y):
        if (i, x, y) not in nodes:
            nodes[i, x, y] = len(states)
            states.append(states[i].extend(x, y))
        return nodes[i, x, y]

    def potential(i):
        if i not in potentials:
            potentials[i] = read(states[i])
        return potentials[i]

    initial = []
    for hist in sample_histories:
        i = 0
        for t, (x, y) in enumerate(hist, 1):
            prefixes.setdefault(i, t)
            i = child(i, x, y)
        initial.append(initial_margin(potential(i), benchmark, hist))
    q = forecasters.MIXING_WEIGHTS
    rows = []
    for i, t in sorted(prefixes.items(), key=lambda p: p[1]):
        rel_prefix = potential(i)
        for x_t in covariate_set:
            cont = {y: potential(child(i, x_t, y)) for y in (*step.outcomes, *outcomes, b, -b)}
            yhat = reference_one_step(step, [cont[y] for y in step.outcomes])
            worst = max(model.value(yhat, y) + cont[y] for y in outcomes)
            e_rel = q * cont[b] + (1.0 - q) * cont[-b]
            rows.append((t, x_t, bits(rel_prefix - worst), bits(rel_prefix - (e_loss + e_rel).max())))
    return rows, initial, {"prefixes": len(prefixes), "potentials": len(potentials)}


class TestAdmissibilityKernels:
    @given(admissibility_instances())
    @settings(max_examples=100, deadline=None)
    def test_report_matches_the_per_node_reference(self, case):
        rel, _, benchmark, args = case
        rep = check_admissibility(rel, *args)
        rows = [(r.t, r.x, bits(r.recursive), bits(r.distributional)) for r in rep.rows]
        want_rows, want_initial, stats = per_node_check_admissibility(rel, benchmark, *args)
        assert (rows, rep.stats) == (want_rows, stats) and initial_within(rep.initial_margins, want_initial)

    def test_conditional_relaxation_matches_the_per_node_reference(self):
        fam = FiniteTableFamily(["a", "b"], [[0.5, -0.2], [-0.5, 0.4]])
        rel = conditional_rademacher_oracle(fam, MODEL, ["a", "b"], (-0.5, 0.0, 0.5), 2)
        hists = [list(zip(["a", "b"], ys)) for ys in itertools.product((-1.0, 1.0), repeat=2)]
        args = (MODEL, ["a", "b"], (-1.0, 0.0, 1.0), tuple(np.linspace(-1, 1, 9)), hists)
        rep = check_admissibility(rel, *args)
        rows = [(r.t, r.x, bits(r.recursive), bits(r.distributional)) for r in rep.rows]
        want_rows, want_initial, stats = per_node_check_admissibility(rel, table_benchmark(fam, MODEL), *args)
        assert (rows, rep.stats) == (want_rows, stats) and initial_within(rep.initial_margins, want_initial)

    @pytest.mark.parametrize("kind", ["experts", "vaw"])
    def test_one_kernel_call_reads_every_potential(self, kind, monkeypatch):
        calls = []
        cls = CumulativeLoss if kind == "experts" else RidgeStatistics
        kernel = cls.potentials

        def counted(self, *stacks):
            calls.append(len(stacks[0]))
            return kernel(self, *stacks)

        monkeypatch.setattr(cls, "potentials", counted)
        rng = np.random.default_rng(26)
        if kind == "experts":
            fam = random_table(rng, 3)
            rel, covs = experts_relaxation_oracle(fam, 1.0, 3), fam.covariate_ids
            hists = [list(zip(["x0", "x1", "x0"], ys)) for ys in itertools.product((-1.0, 1.0), repeat=3)]
        else:
            rel = vaw_relaxation_oracle(1.0, 1.0, 3, 2)
            hists = [[(tuple(rng.uniform(-0.5, 0.5, size=2)), float(rng.uniform(-1, 1))) for _ in range(3)] for _ in range(3)]
            covs = [h[0][0] for h in hists]
        rep = check_admissibility(rel, MODEL, covs, (-1.0, 0.0, 1.0), tuple(np.linspace(-1, 1, 9)), hists)
        assert calls == [rep.stats["potentials"]]
