"""Comparator families and best-in-family losses."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regretlab.comparators import (
    FiniteTableFamily,
    LinearFamily,
    SparseConvexFamily,
    best_comparator_loss,
    family_from_json,
)
from regretlab.errors import CapabilityError, DomainError, PredictorIndexError
from regretlab.losses import absolute_loss, q_loss, square_loss


class TestEvaluate:
    def test_table_lookup(self):
        fam = FiniteTableFamily(["c0", "c1"], [[1.0, -1.0], [0.0, 0.0]])
        assert fam.evaluate(0, "c1") == -1.0

    def test_linear_inner_product(self):
        fam = LinearFamily(2)
        assert fam.evaluate((1.0, 2.0), (3.0, -1.0)) == 1.0

    def test_sparse_convex_combination(self):
        fam = SparseConvexFamily(["x"], [[1.0], [0.0], [0.5]], sparsity=2)
        assert fam.evaluate(((0, 1), (0.5, 0.5)), "x") == 0.5

    def test_lookup_errors(self):
        fam = FiniteTableFamily(["c0"], [[1.0]])
        with pytest.raises(KeyError):
            fam.evaluate(0, "nope")
        with pytest.raises(IndexError):
            fam.evaluate(5, "c0")
        lin = LinearFamily(2)
        with pytest.raises(LookupError):
            lin.evaluate((1.0,), (1.0, 2.0))
        sp = SparseConvexFamily(["x"], [[1.0], [0.0]], sparsity=1)
        with pytest.raises(LookupError):
            sp.evaluate(((0, 1), (0.5, 0.5)), "x")  # support too large
        with pytest.raises(LookupError):
            sp.evaluate(((0,), (0.4,)), "x")  # weights must sum to 1

    # A float, a bool or a numeric string would play the predictor int() reads.
    @pytest.mark.parametrize("handle", [None, "one", [0], math.inf, 1.9, True, "0", 0.0, np.float64(0.0)])
    def test_a_handle_that_is_not_an_integer(self, handle):
        fam = FiniteTableFamily(["c0"], [[1.0], [2.0]])
        with pytest.raises(PredictorIndexError, match="is not an integer") as info:
            fam.evaluate(handle, "c0")
        assert isinstance(info.value, IndexError)

    def test_a_numpy_integer_handle(self):
        fam = FiniteTableFamily(["c0"], [[1.0], [2.0]])
        assert fam.evaluate(np.int64(1), "c0") == 2.0
        with pytest.raises(PredictorIndexError, match="out of range"):
            fam.evaluate(np.uint8(2), "c0")

    def test_table_values_respect_output_range(self):
        with pytest.raises(DomainError):
            FiniteTableFamily(["c"], [[2.0]], output_range=(-1.0, 1.0))


def per_value_best_loss(family, model, history):
    """The finite-table branch as it was: one ``model.value`` call per
    (predictor, round), folded per predictor with ``math.fsum``."""
    cols = [family.column(x) for x, _ in history]
    totals = [
        math.fsum(model.value(float(family.values[i, j]), y) for j, (_, y) in zip(cols, history))
        for i in range(family.n_predictors)
    ]
    return min(totals)


@st.composite
def table_histories(draw):
    n_pred = draw(st.integers(1, 5))
    n_cov = draw(st.integers(1, 3))
    # Table values past 1 fall outside the losses' prediction range [-1, 1].
    entry = st.one_of(st.floats(-1.0, 1.0), st.sampled_from((-1.0, 0.0, 1.0, 1.25)))
    values = draw(st.lists(st.lists(entry, min_size=n_cov, max_size=n_cov), min_size=n_pred, max_size=n_pred))
    ids = [f"c{j}" for j in range(n_cov)]
    outcome = st.one_of(st.floats(-1.0, 1.0), st.sampled_from((-1.0, 1.0, 1.5, -3.0)))
    history = draw(st.lists(st.tuples(st.sampled_from(ids), outcome), min_size=1, max_size=8))
    model = draw(st.sampled_from((square_loss(1.0), absolute_loss(1.0), q_loss(1.5))))
    return FiniteTableFamily(ids, values), model, history


class TestBestComparatorLoss:
    def test_single_comparator_sum(self):
        fam = FiniteTableFamily(["c"], [[0.0]])
        model = square_loss(1.0)
        assert best_comparator_loss(fam, model, [("c", 1.0), ("c", -1.0)]) == 2.0

    def test_best_expert_matches(self):
        fam = FiniteTableFamily(["c"], [[1.0], [-1.0]])
        model = absolute_loss(1.0)
        assert best_comparator_loss(fam, model, [("c", 1.0)]) == 0.0

    def test_linear_ridge_closed_form(self):
        fam = LinearFamily(1)
        model = square_loss(1.0)
        got = best_comparator_loss(fam, model, [((1.0,), 1.0)], ridge=1.0)
        assert got == pytest.approx(0.5)  # min_w (w-1)^2 + w^2 at w = 1/2

    def test_linear_requires_square_loss(self):
        # q_loss(2.0) has square loss's values, but not its closed forms.
        for model in (absolute_loss(1.0), q_loss(2.0)):
            with pytest.raises(CapabilityError):
                best_comparator_loss(LinearFamily(1), model, [((1.0,), 0.5)])

    def test_empty_history_rejected(self):
        with pytest.raises(DomainError):
            best_comparator_loss(FiniteTableFamily(["c"], [[0.0]]), square_loss(1.0), [])

    def test_monotone_in_history_length(self):
        rng = np.random.default_rng(3)
        fam = FiniteTableFamily(["a", "b"], rng.uniform(-1, 1, size=(4, 2)))
        model = square_loss(1.0)
        hist = []
        last = 0.0
        for _ in range(6):
            hist.append((["a", "b"][int(rng.integers(2))], float(rng.uniform(-1, 1))))
            cur = best_comparator_loss(fam, model, hist)
            assert cur >= last - 1e-12
            last = cur

    @settings(max_examples=200, deadline=None)
    @given(table_histories())
    @example((FiniteTableFamily(["c"], [[0.5], [-0.5]]), square_loss(1.0), [("c", 0.25), ("c", 1.5), ("c", -2.0)]))
    def test_finite_table_matches_per_value_fold(self, instance):
        # Bitwise equal to the per-value fold, or the same DomainError at
        # the same first out-of-range pair, predictor-major.
        fam, model, hist = instance
        try:
            want = per_value_best_loss(fam, model, hist)
        except DomainError as err:
            with pytest.raises(DomainError) as got:
                best_comparator_loss(fam, model, hist)
            assert str(got.value) == str(err)
        else:
            assert best_comparator_loss(fam, model, hist).hex() == want.hex()

    def test_dominates_explicit_members(self):
        rng = np.random.default_rng(7)
        fam = FiniteTableFamily(["a", "b", "c"], rng.uniform(-1, 1, size=(6, 3)))
        model = q_loss(1.5)
        hist = [
            (fam.covariate_ids[int(rng.integers(3))], float(rng.uniform(-1, 1)))
            for _ in range(5)
        ]
        best = best_comparator_loss(fam, model, hist)
        for _ in range(100):
            h = int(rng.integers(fam.n_predictors))
            total = math.fsum(model.value(fam.evaluate(h, x), y) for x, y in hist)
            assert best <= total + 1e-12

    def test_sparse_convex_matches_dense_grid(self):
        rng = np.random.default_rng(11)
        fam = SparseConvexFamily(
            ["a", "b"], rng.uniform(-1, 1, size=(4, 2)), sparsity=2
        )
        model = square_loss(1.0)
        hist = [("a", 0.4), ("b", -0.7), ("a", 0.1)]
        got = best_comparator_loss(fam, model, hist)
        # dense-grid oracle over all supports and mixing weights
        import itertools

        best = math.inf
        for support in itertools.combinations(range(4), 2):
            for alpha in np.linspace(0.0, 1.0, 20001):
                total = 0.0
                for x, y in hist:
                    v = alpha * fam.base_values[support[0], fam._col[x]] + (
                        1 - alpha
                    ) * fam.base_values[support[1], fam._col[x]]
                    total += model.value(v, y)
                best = min(best, total)
        assert got == pytest.approx(best, abs=1e-7)
        # and never better than any explicitly evaluated member
        for _ in range(100):
            sup = tuple(sorted(rng.choice(4, size=2, replace=False)))
            w = rng.dirichlet((1.0, 1.0))
            total = math.fsum(
                model.value(fam.evaluate((sup, tuple(w)), x), y) for x, y in hist
            )
            assert got <= total + 1e-8


class TestSparseThreeWide:
    def test_three_term_mixture_against_fine_oracle(self):
        rng = np.random.default_rng(13)
        fam = SparseConvexFamily(
            ["a", "b"], rng.uniform(-1, 1, size=(3, 2)), sparsity=3
        )
        model = square_loss(1.0)
        hist = [("a", 0.3), ("b", -0.5), ("a", 0.9), ("b", 0.2)]
        got = best_comparator_loss(fam, model, hist)
        # oracle: dense barycentric sweep over the full 3-simplex
        best = math.inf
        m = 120
        for i in range(m + 1):
            for j in range(m + 1 - i):
                w = np.array([i, j, m - i - j]) / m
                total = 0.0
                for x, y in hist:
                    total += model.value(float(w @ fam.base_values[:, fam._col[x]]), y)
                best = min(best, total)
        assert got <= best + 1e-8
        assert got == pytest.approx(best, abs=1e-3)


class TestSparseGuard:
    def test_support_enumeration_cap(self):
        from regretlab.errors import ResourceGuardError

        rng = np.random.default_rng(0)
        fam = SparseConvexFamily(["x"], rng.uniform(-1, 1, size=(60, 1)), sparsity=20)
        with pytest.raises(ResourceGuardError):
            best_comparator_loss(fam, square_loss(1.0), [("x", 0.5)])


class TestLoading:
    def test_family_from_json_variants(self):
        fam = family_from_json(
            {"variant": "finite_table", "covariate_ids": ["a"], "values": [[0.5]]}
        )
        assert isinstance(fam, FiniteTableFamily)
        lin = family_from_json({"variant": "linear", "dimension": 3})
        assert isinstance(lin, LinearFamily) and lin.dimension == 3
        sp = family_from_json(
            {
                "variant": "sparse_convex",
                "covariate_ids": ["a"],
                "base_values": [[0.1], [0.2]],
                "sparsity": 1,
            }
        )
        assert isinstance(sp, SparseConvexFamily)
        with pytest.raises(CapabilityError):
            family_from_json({"variant": "rkhs"})
