"""The sequences of the regret checks (criteria 01 and 02) against the
per-round loops they replaced, their margins pinned to the last bit, and
criterion 07's tiny families against the literal enumeration."""

import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretlab import verify
from regretlab.comparators import FiniteTableFamily
from regretlab.complexity import CoverSearch
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


def stacked_best_response(families, n, rngs):
    """The greedy adversaries of ``families`` played as one stack, each
    drawing its covariates from its own generator, as criterion 01 does."""
    draws = np.stack([rng.integers(len(f.covariate_ids), size=n) for f, rng in zip(families, rngs)])
    errors = np.stack([verify._best_response_errors(f, 1.0) for f in families])
    outcomes = verify._best_response_sequences(errors, draws, 1.0)
    return [
        list(zip([f.covariate_ids[j] for j in xs.tolist()], ys)) for f, xs, ys in zip(families, draws, outcomes)
    ]


BEST_RESPONSE_SEEDS = range(2, 50, 3)


@pytest.mark.parametrize("seed", BEST_RESPONSE_SEEDS)
def test_best_response_sequence_matches_per_round_play(seed):
    """Every full-level best-response seed of criterion 01, alone."""
    family, rng = experts_family(seed)
    _, want_rng = experts_family(seed)
    want = reference_best_response_sequence(family, ExpertsForecaster(family, 1.0), 1000, want_rng)
    (got,) = stacked_best_response([family], 1000, [rng])
    assert hexes(got) == hexes(want)
    assert rng.bit_generator.state == want_rng.bit_generator.state


def test_best_response_sequences_as_one_stack():
    """All 16 full-level best-response seeds of criterion 01 in one stack:
    each adversary plays its per-round sequence, and each generator ends
    where the per-round loop leaves it."""
    families, rngs = zip(*(experts_family(seed) for seed in BEST_RESPONSE_SEEDS))
    got = stacked_best_response(families, 1000, rngs)
    assert len(got) == 16
    for seed, family, seq, rng in zip(BEST_RESPONSE_SEEDS, families, got, rngs):
        _, want_rng = experts_family(seed)
        want = reference_best_response_sequence(family, ExpertsForecaster(family, 1.0), 1000, want_rng)
        assert hexes(seq) == hexes(want)
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


# ---------------------------------------------------------------------------
# Batched draws: the forms the regret checks and harness generators rely on,
# each against one scalar draw at a time, values and final generator state.
# ---------------------------------------------------------------------------

SEEDS = st.integers(0, 2**63 - 1)


@given(SEEDS, st.integers(1, 12), st.integers(0, 300))
@settings(max_examples=200, deadline=None)
def test_one_batch_of_integers_is_the_scalar_stream(seed, k, n):
    """``rng.integers(k, size=n)`` in place of ``n`` calls
    ``rng.integers(k)`` (the greedy adversary's covariates, and the harness
    generators that draw only covariates or signs)."""
    want_rng, rng = verify._rng(seed), verify._rng(seed)
    want = [int(want_rng.integers(k)) for _ in range(n)]
    assert rng.integers(k, size=n).tolist() == want
    assert rng.bit_generator.state == want_rng.bit_generator.state


@given(SEEDS, st.integers(1, 6), st.integers(0, 60))
@settings(max_examples=200, deadline=None)
def test_unit_draws_mapped_once_are_the_uniform_stream(seed, d, n):
    """Criterion 02's covariates: ``rng.random(out=U[t])`` each round, then
    ``-1 + 2 U`` once, in place of ``rng.uniform(-1, 1, size=d)`` each
    round; a normal draw follows every row in both."""
    want_rng, rng = verify._rng(seed), verify._rng(seed)
    want = np.empty((n, d))
    U = np.empty((n, d))
    for t in range(n):
        want[t] = want_rng.uniform(-1, 1, size=d)
        want_rng.standard_normal()
        rng.random(out=U[t])
        rng.standard_normal()
    assert [v.hex() for v in (-1.0 + 2.0 * U).ravel().tolist()] == [v.hex() for v in want.ravel().tolist()]
    assert rng.bit_generator.state == want_rng.bit_generator.state


@given(SEEDS, st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_one_draw_of_the_comparators_is_the_per_comparator_stream(seed, d):
    """Criterion 02's 100 random comparators from one ``(100, d)`` draw."""
    want_rng, rng = verify._rng(seed), verify._rng(seed)
    want = np.array([want_rng.uniform(-2, 2, size=d) for _ in range(100)])
    got = rng.uniform(-2, 2, size=(100, d))
    assert [v.hex() for v in got.ravel().tolist()] == [v.hex() for v in want.ravel().tolist()]
    assert rng.bit_generator.state == want_rng.bit_generator.state


def test_interleaved_draws_do_not_batch():
    """Criterion 01's iid sequences draw a covariate then a noise every
    round, so a batch of the covariates reads another stream: that loop
    (and harness ``iid_noise`` with noise) keeps its scalar draws."""
    _, want_rng = experts_family(0)
    _, rng = experts_family(0)
    want_rng.integers(10)
    rng.integers(10)
    want = []
    for _ in range(1000):
        want.append(int(want_rng.integers(4)))
        want_rng.standard_normal()
    assert rng.integers(4, size=1000).tolist() != want


@given(st.lists(SEEDS, min_size=1, max_size=5), st.integers(1, 6), st.integers(0, 60))
@settings(max_examples=60, deadline=None)
def test_best_response_sequence_matches_per_round_play_on_any_table(seeds, k, n):
    """Stacks of 1-5 tables of 10 experts on ``k`` covariates, any seeds."""
    families, rngs = [], []
    for seed in seeds:
        rng = verify._rng(seed)
        families.append(FiniteTableFamily([f"x{j}" for j in range(k)], rng.uniform(-1.0, 1.0, size=(10, k))))
        rngs.append(rng)
    got = stacked_best_response(families, n, rngs)
    for seed, family, seq, rng in zip(seeds, families, got, rngs):
        want_rng = verify._rng(seed)
        want_rng.uniform(-1.0, 1.0, size=(10, k))
        want = reference_best_response_sequence(family, ExpertsForecaster(family, 1.0), n, want_rng)
        assert hexes(seq) == hexes(want)
        assert rng.bit_generator.state == want_rng.bit_generator.state


def vaw_runs():
    """Criterion 02's 60 full-level runs: d, X, Y and the 101 comparators."""
    for d in (1, 2, 5):
        for seed in range(20):
            w_true, rng = vaw_draws(d, seed)
            X, Y = verify._vaw_sequence(w_true, 1000, 1.0, rng)
            ridge_f = np.linalg.solve(X.T @ X + np.eye(d), X.T @ Y)
            yield d, X, Y, np.vstack([ridge_f, rng.uniform(-2, 2, size=(100, d))])


def test_comparator_scores_match_per_comparator_products():
    """The stacked scores of criterion 02 against each comparator's own
    ``X @ f`` and ``f @ f`` on all 60 full-level runs; ``X @ F.T``, one
    BLAS product for all comparators, gives other bits on some run, which
    is why the stacked form is used."""
    runs = blas_differs = 0
    for d, X, Y, F in vaw_runs():
        fits, norms = verify._comparator_scores(X, Y, F)
        assert [v.hex() for v in fits.tolist()] == [float(((X @ f - Y) ** 2).mean()).hex() for f in F]
        assert [v.hex() for v in norms.tolist()] == [float(f @ f).hex() for f in F]
        per_comparator = np.array([X @ f for f in F]).T
        blas_differs += (X @ F.T).tobytes() != per_comparator.tobytes()
        runs += 1
    assert runs == 60
    assert blas_differs >= 1


@given(SEEDS, st.integers(1, 6), st.integers(0, 60))
@settings(max_examples=100, deadline=None)
def test_vaw_covariates_match_per_round_draws_at_any_seed(seed, d, n):
    """The covariates and the generator's final state; the outcomes' inner
    products are compared on the check's own seeds above."""
    want_rng, rng = verify._rng(seed), verify._rng(seed)
    w_true = np.full(d, 0.5 / math.sqrt(d))
    want = reference_vaw_sequence(w_true, n, 1.0, want_rng)
    X, _ = verify._vaw_sequence(w_true, n, 1.0, rng)
    assert [tuple(v.hex() for v in x) for x in X.tolist()] == [tuple(float(v).hex() for v in x) for x, _ in want]
    assert rng.bit_generator.state == want_rng.bit_generator.state


def test_fast_level_margins_are_pinned():
    # Full-level margins are pinned in the acceptance tests.
    assert verify.check_experts_regret("fast").margin.hex() == (0.18841447174192716).hex()
    assert verify.check_vaw_regret("fast").margin.hex() == (0.027001446273184973).hex()


def reference_tiny_families(max_covariates, max_size):
    """Criterion 07's families as the permutation minimum of the sorted value
    tuples, one set of canonical forms per domain size."""
    for n_x in range(1, max_covariates + 1):
        functions = list(itertools.product((-1.0, 0.0, 1.0), repeat=n_x))
        perms = list(itertools.permutations(range(n_x)))
        seen = set()
        for size in range(1, max_size + 1):
            for combo in itertools.combinations(functions, size):
                canon = min(tuple(sorted(tuple(f[i] for i in perm) for f in combo)) for perm in perms)
                if canon in seen:
                    continue
                seen.add(canon)
                yield [f"x{j}" for j in range(n_x)], [list(f) for f in combo]


@pytest.mark.parametrize(
    "max_covariates, max_size",
    [(3, 4), (2, 3), (3, 2)]
    + [(c, s) for c in (1, 2, 3) for s in (1, 2, 3, 4) if (c, s) not in {(3, 4), (2, 3), (3, 2)}],
)
def test_tiny_families_match_the_permutation_minimum(max_covariates, max_size):
    """The same families in the same order; (3, 4) is criterion 07's 3991."""
    got = [(list(f.covariate_ids), f.values.tolist()) for f in verify._all_tiny_families(max_covariates, max_size)]
    want = list(reference_tiny_families(max_covariates, max_size))
    assert got == want
    if (max_covariates, max_size) == (3, 4):
        assert len(got) == 3991


def equal_size_subsets():
    return st.integers(1, 27).flatmap(
        lambda k: st.tuples(*[st.sets(st.integers(0, 26), min_size=k, max_size=k)] * 2)
    )


@settings(max_examples=300, deadline=None)
@given(equal_size_subsets())
def test_mask_rule_orders_sets_as_sorted_tuples(pair):
    a, b = pair
    mask_a, mask_b = (np.int64(sum(1 << i for i in s)) for s in (a, b))
    assert bool(verify._sorts_before(mask_a, mask_b)) == (sorted(a) < sorted(b))
    assert bool(verify._sorts_before(mask_b, mask_a)) == (sorted(b) < sorted(a))


def test_tiny_family_list_peak_memory():
    """The combinations are tested in chunks, so building criterion 07's list
    peaks below the 2.73 MB that the per-permutation `sorted` test took."""
    tracemalloc.start()
    try:
        families = list(verify._all_tiny_families(3, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(families) == 3991
    assert peak < 2.73e6


def test_criterion_07_cover_reports_are_pinned(monkeypatch):
    """Every cover report of criterion 07 on 20 of its families (every 199th),
    with all its stats, hashed in the order the check makes them: a change
    to the rows' order, the owners or a tie-break changes the digest."""
    families = list(verify._all_tiny_families(3, 4))[::199][:20]
    digest, reports = hashlib.sha256(), 0
    solve = CoverSearch.solve

    def recorded(search, beta, norm):
        nonlocal reports
        rep = solve(search, beta, norm)
        digest.update(json.dumps({**rep.to_json_dict(), "stats": rep.stats}, sort_keys=True).encode())
        reports += 1
        return rep

    monkeypatch.setattr(verify, "_all_tiny_families", lambda *args: iter(families))
    monkeypatch.setattr(CoverSearch, "solve", recorded)
    result = verify.check_combinatorics("fast")
    assert result.passed and len(families) == 20 and reports == 796
    assert digest.hexdigest() == "6c4ab99f2f55bf511780e07064f1dfdc8b00e223aa894fb799bc8e244f06f02a"
