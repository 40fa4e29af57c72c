"""Binary label trees and sign-path plumbing."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretlab.comparators import FiniteTableFamily
from regretlab.errors import ResourceGuardError, ShapeError
from regretlab.trees import (
    INDUCTION_CELL_GUARD,
    LabeledTree,
    backward_induction,
    path_fold,
    prefix_index,
)


def sign_paths(n):
    """The 2**n sign paths of length n in lexicographic order (-1 < +1)."""
    return list(itertools.product((-1, 1), repeat=n))


class TestPaths:
    # The lexicographic order is the heap order: path i has prefix index i.
    def test_n0_single_empty_path(self):
        assert sign_paths(0) == [()]
        assert prefix_index(()) == 0

    def test_n1(self):
        assert sign_paths(1) == [(-1,), (1,)]
        assert [prefix_index(p) for p in sign_paths(1)] == [0, 1]

    def test_n2_lexicographic(self):
        assert sign_paths(2) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        assert [prefix_index(p) for p in sign_paths(2)] == [0, 1, 2, 3]

    def test_prefix_index_msb_first(self):
        assert prefix_index(()) == 0
        assert prefix_index((1,)) == 1
        assert prefix_index((1, -1)) == 2
        assert prefix_index((-1, 1)) == 1


class TestLabeledTree:
    def test_root_is_constant(self):
        t = LabeledTree([[7]])
        for path in sign_paths(1):
            assert t.label_at(1, path) == 7

    def test_right_child_convention(self):
        t = LabeledTree([["r"], ["a", "b"]])
        assert t.label_at(2, (1, 1)) == "b"
        assert t.label_at(2, (1, -1)) == "b"
        assert t.label_at(2, (-1, 1)) == "a"

    def test_constant_tree(self):
        t = LabeledTree.constant(3, 2.5)
        for path in sign_paths(3):
            for lvl in (1, 2, 3):
                assert t.label_at(lvl, path) == 2.5

    def test_level_sizes_enforced(self):
        with pytest.raises(ShapeError):
            LabeledTree([[1], [2]])

    def test_level_out_of_range(self):
        t = LabeledTree.constant(2, 0)
        with pytest.raises(IndexError):
            t.label_at(3, (1, 1))
        with pytest.raises(IndexError):
            t.label_at(0, ())

    @given(st.integers(1, 6), st.integers(0, 10_000))
    def test_predictability(self, depth, seed):
        # label_at(t, .) may depend only on the first t-1 signs
        import numpy as np

        rng = np.random.default_rng(seed)
        t = LabeledTree.from_function(depth, lambda lvl, p: float(rng.uniform()))
        for lvl in range(1, depth + 1):
            for prefix in itertools.product((-1, 1), repeat=lvl - 1):
                labels = {
                    t.label_at(lvl, prefix + suffix)
                    for suffix in itertools.product((-1, 1), repeat=depth - lvl + 1)
                }
                assert len(labels) == 1


class TestCompose:
    def test_identity(self):
        t = LabeledTree([[0.1], [0.2, 0.3]])
        assert t.map(lambda v: v) == t

    def test_constant_predictor(self):
        t = LabeledTree([["a"], ["b", "c"]])
        assert t.map(lambda v: 4.0) == LabeledTree.constant(2, 4.0)

    def test_table_predictor_nodewise(self):
        fam = FiniteTableFamily(["a", "b"], [[1.0, -1.0]])
        cov = LabeledTree([["a"], ["b", "a"]])
        out = cov.map(fam.predictor(0))
        for path in sign_paths(2):
            for lvl in (1, 2):
                assert out.label_at(lvl, path) == fam.evaluate(0, cov.label_at(lvl, path))


def _random_terms(rng, depth, lead, split):
    return [rng.normal(size=lead + (2 ** (t - 1), 2 if split else 1)) for t in range(1, depth + 1)]


class TestPathFold:
    @pytest.mark.parametrize("split", [True, False])
    def test_columns_follow_lexicographic_paths(self, split):
        rng = np.random.default_rng(0)
        for depth in range(1, 6):
            terms = _random_terms(rng, depth, (3,), split)
            got = path_fold(terms, depth)
            assert got.shape == (3, 2**depth)
            for col, path in enumerate(sign_paths(depth)):
                want = np.zeros(3)
                for t in range(1, depth + 1):
                    sign = int(path[t - 1] > 0) if split else 0
                    want = want + terms[t - 1][:, prefix_index(path[: t - 1]), sign]
                assert (got[:, col] == want).all()

    def test_guard_counts_output_cells(self):
        terms = _random_terms(np.random.default_rng(2), 3, (2,), True)
        with pytest.raises(ResourceGuardError):
            path_fold(terms, 3, guard=15)
        assert path_fold(terms, 3, guard=16).shape == (2, 8)

    def test_guard_runs_before_later_levels_are_built(self):
        built = []

        def terms():
            for t in range(1, 31):
                built.append(t)
                yield np.zeros((2, 2 ** (t - 1), 2))

        with pytest.raises(ResourceGuardError):
            path_fold(terms(), 30)
        assert built == [1]


class TestBackwardInduction:
    @given(
        st.sampled_from([0.0, 1.0, 1e4, 1e7, 3e8, 1e12]),
        st.lists(st.sampled_from([0.0, 1e-13, 4e-13, 5e-13, 6e-13, 1e-12, 0.25]), min_size=2, max_size=8),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_merge_classes_are_rounded_keys(self, scale, nudges, seed):
        # Classes are int(round(v / 1e-12)) at every magnitude: above 9.2e6
        # those integers leave the int64 range.
        rng = np.random.default_rng(seed)
        scores0 = rng.choice([-scale, scale], size=2) * rng.uniform(0.5, 1.0, size=2)
        steps = rng.choice([0.0, 0.5], size=(len(nudges), 2)) + np.array(nudges)[:, None]
        _, children = backward_induction(scores0, (steps,), 2, lambda s: s.max(axis=1), lambda v: v.max(axis=1))
        keys = [tuple(int(round(v / 1e-12)) for v in scores0 + step) for step in steps]
        first = {key: i for i, key in reversed(list(enumerate(keys)))}
        assert children[0][0].tolist() == [sorted(set(first.values())).index(first[key]) for key in keys]

    def test_signed_zero_keys_merge(self):
        # round(-1e-13 / 1e-12) is 0, not a separate -0 class.
        steps = np.array([[-1e-13], [1e-13], [0.0]])
        _, children = backward_induction(np.zeros(1), (steps,), 2, lambda s: s[:, 0], lambda v: v.max(axis=1))
        assert children[0].tolist() == [[0, 0, 0]]

    def test_guard_fires_before_the_layer_is_built(self):
        # 64 moves of 4 scores: layers of 1, 64 and 2,080 states build 5.5e5
        # scores, and layer 3 keeps the 45,760 multisets of three moves, whose
        # 1.2e7 scores exceed the guard.  They would take 94 MB; the peak
        # stays below half of that.
        steps = np.random.default_rng(0).uniform(-1, 1, size=(64, 4))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceGuardError) as err:
                backward_induction(np.zeros(4), (steps,), 6, lambda s: s.max(axis=1), lambda v: v.max(axis=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.size_estimate == (1 + 64 + 2080 + 45760 + 2) * 64 * 4 > INDUCTION_CELL_GUARD
        assert peak < 45760 * 64 * 4 * 8 / 2

    @pytest.mark.parametrize("k", [1, 2])
    def test_guard_counts_every_layers_scores(self, k):
        steps = np.repeat([[0.0], [1.0], [2.0]], k, axis=1)
        # Layers of 1, 3 and 5 states build (3 + 9 + 15) k scores together.
        run = lambda guard: backward_induction(np.zeros(k), (steps,), 3, lambda s: s[:, 0], lambda v: v.max(axis=1), guard)
        assert run(27 * k)[0][0].tolist() == [6.0]
        with pytest.raises(ResourceGuardError):
            run(27 * k - 1)

    def test_guard_counts_the_layers_still_to_come(self):
        # One state per layer: ten million layers build at least 1e7 scores,
        # so the guard refuses before the first layer.
        with pytest.raises(ResourceGuardError) as err:
            backward_induction(np.zeros(1), (np.zeros((1, 1)),), 10**7, lambda s: s[:, 0], lambda v: v[:, 0])
        assert err.value.size_estimate == 1e7

    @pytest.mark.parametrize(
        "scores0, steps, depth",
        [
            # 1,960,000 leaves beside one merged layer of 1,400 states.
            (np.zeros(1), np.random.default_rng(3).uniform(-1, 1, size=(1400, 1)), 2),
            # Integer steps: a merged layer of 688,900 cells, then 1,659 x 830 leaves.
            (np.zeros(1), np.arange(830.0)[:, None], 3),
        ],
    )
    def test_peak_memory_under_the_guard(self, scores0, steps, depth):
        tracemalloc.start()
        try:
            backward_induction(scores0, (steps,), depth, lambda s: s.max(axis=1), lambda v: v.max(axis=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * INDUCTION_CELL_GUARD
