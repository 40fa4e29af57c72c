"""The sequences of the regret checks (criteria 01 and 02) against the
per-round loops they replaced, and their margins pinned to the last bit."""

import math

import numpy as np
import pytest

from regretlab import verify
from regretlab.comparators import FiniteTableFamily
from regretlab.forecasters import ExpertsForecaster


def reference_best_response_sequence(family, forecaster, n, rng):
    """The greedy adversary as it was: the forecaster's predict and observe
    and two evaluations of the family every round."""
    forecaster.reset()
    outcomes = np.array([[-1.0], [1.0]])
    seq = []
    for _ in range(n):
        x = family.covariate_ids[int(rng.integers(len(family.covariate_ids)))]
        yhat = forecaster.predict(x)
        cum = forecaster.state.cum
        before = float(cum.min())
        after = (cum + (family.evaluate_all(x) - outcomes) ** 2).min(axis=1).tolist()
        best_y, best_inc = None, -math.inf
        for y, best in zip((-1.0, 1.0), after):
            inc = (yhat - y) ** 2 - (best - before)
            if inc > best_inc:
                best_y, best_inc = y, inc
        forecaster.observe(x, best_y)
        seq.append((x, best_y))
    return seq


def reference_vaw_sequence(w_true, n, b, rng):
    """Criterion 02's generator as it was, one round at a time."""
    d = len(w_true)
    seq = []
    for _ in range(n):
        x = rng.uniform(-1, 1, size=d) / math.sqrt(d)
        y = float(min(b, max(-b, w_true @ x + 0.2 * rng.standard_normal())))
        seq.append((tuple(x), y))
    return seq


def hexes(seq):
    return [(tuple(float(v).hex() for v in x) if isinstance(x, tuple) else x, float(y).hex()) for x, y in seq]


def experts_family(seed):
    """Criterion 01's family for ``seed`` and its generator after drawing it."""
    rng = verify._rng(seed)
    return FiniteTableFamily([f"x{j}" for j in range(4)], rng.uniform(-1.0, 1.0, size=(10, 4))), rng


def vaw_draws(d, seed):
    """Criterion 02's true weights for ``seed`` and its generator after them."""
    rng = verify._rng(1000 + seed)
    w_true = rng.uniform(-1, 1, size=d)
    w_true /= max(1.0, float(np.linalg.norm(w_true)))
    return w_true, rng


@pytest.mark.parametrize("seed", range(2, 50, 3))
def test_best_response_sequence_matches_per_round_play(seed):
    """Every full-level best-response seed of criterion 01."""
    family, rng = experts_family(seed)
    _, want_rng = experts_family(seed)
    want = reference_best_response_sequence(family, ExpertsForecaster(family, 1.0), 1000, want_rng)
    got = verify._best_response_sequence(family, 1.0, 1000, rng)
    assert hexes(got) == hexes(want)
    assert rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("d", [1, 2, 5])
def test_vaw_sequence_matches_per_round_draws(d):
    """d in {1, 2, 5} and the 20 full-level seeds of criterion 02; the
    generator is left where the per-round loop leaves it."""
    for seed in range(20):
        w_true, want_rng = vaw_draws(d, seed)
        _, rng = vaw_draws(d, seed)
        want = reference_vaw_sequence(w_true, 1000, 1.0, want_rng)
        X, Y = verify._vaw_sequence(w_true, 1000, 1.0, rng)
        assert hexes(zip(map(tuple, X.tolist()), Y.tolist())) == hexes(want)
        assert rng.bit_generator.state == want_rng.bit_generator.state


def test_fast_level_margins_are_pinned():
    # Full-level margins are pinned in the acceptance tests.
    assert verify.check_experts_regret("fast").margin.hex() == (0.18841447174192716).hex()
    assert verify.check_vaw_regret("fast").margin.hex() == (0.027001446273184973).hex()
