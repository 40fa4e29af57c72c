"""Binary label trees and sign-path plumbing."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from regretlab.comparators import FiniteTableFamily
from regretlab.errors import ResourceGuardError, ShapeError
from regretlab.trees import LabeledTree, all_paths, compose, path_fold, prefix_index


class TestPaths:
    def test_n0_single_empty_path(self):
        assert list(all_paths(0)) == [()]

    def test_n1(self):
        assert list(all_paths(1)) == [(-1,), (1,)]

    def test_n2_lexicographic(self):
        assert list(all_paths(2)) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]

    def test_guard(self):
        with pytest.raises(ResourceGuardError):
            list(all_paths(26))
        # explicit override raises the guard
        it = all_paths(26, guard=26)
        assert next(iter(it)) == tuple([-1] * 26)

    def test_prefix_index_msb_first(self):
        assert prefix_index(()) == 0
        assert prefix_index((1,)) == 1
        assert prefix_index((1, -1)) == 2
        assert prefix_index((-1, 1)) == 1


class TestLabeledTree:
    def test_root_is_constant(self):
        t = LabeledTree([[7]])
        for path in all_paths(1):
            assert t.label_at(1, path) == 7

    def test_right_child_convention(self):
        t = LabeledTree([["r"], ["a", "b"]])
        assert t.label_at(2, (1, 1)) == "b"
        assert t.label_at(2, (1, -1)) == "b"
        assert t.label_at(2, (-1, 1)) == "a"

    def test_constant_tree(self):
        t = LabeledTree.constant(3, 2.5)
        for path in all_paths(3):
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

    def test_json_roundtrip(self):
        t = LabeledTree([[0.5], [1.0, -1.0]])
        assert LabeledTree.from_json(t.to_json()) == t


class TestCompose:
    def test_identity(self):
        t = LabeledTree([[0.1], [0.2, 0.3]])
        assert compose(t, lambda v: v) == t

    def test_constant_predictor(self):
        t = LabeledTree([["a"], ["b", "c"]])
        assert compose(t, lambda v: 4.0) == LabeledTree.constant(2, 4.0)

    def test_table_predictor_nodewise(self):
        fam = FiniteTableFamily(["a", "b"], [[1.0, -1.0]])
        cov = LabeledTree([["a"], ["b", "a"]])
        out = compose(cov, fam.predictor(0))
        for path in all_paths(2):
            for lvl in (1, 2):
                assert out.label_at(lvl, path) == fam.evaluate(0, cov.label_at(lvl, path))


def _random_terms(rng, depth, lead, split):
    return [rng.normal(size=lead + (2 ** (t - 1), 2 if split else 1)) for t in range(1, depth + 1)]


class TestPathFold:
    @pytest.mark.parametrize("split", [True, False])
    @pytest.mark.parametrize("combine", [np.add, np.maximum])
    def test_columns_follow_lexicographic_paths(self, split, combine):
        rng = np.random.default_rng(0)
        for depth in range(1, 6):
            terms = _random_terms(rng, depth, (3,), split)
            got = path_fold(terms, depth, combine)
            assert got.shape == (3, 2**depth)
            for col, path in enumerate(all_paths(depth)):
                want = np.zeros(3)
                for t in range(1, depth + 1):
                    sign = int(path[t - 1] > 0) if split else 0
                    want = combine(want, terms[t - 1][:, prefix_index(path[: t - 1]), sign])
                assert (got[:, col] == want).all()

    def test_sampled_rows_match_the_full_fold(self):
        rng = np.random.default_rng(1)
        depth = 4
        terms = _random_terms(rng, depth, (2, 3), True)
        signs = rng.choice((-1, 1), size=(9, depth))
        cols = [list(all_paths(depth)).index(tuple(row)) for row in signs.tolist()]
        full = path_fold(terms, depth)
        assert (path_fold(terms, depth, signs=signs) == full[..., cols]).all()
        every = np.array(list(all_paths(depth)))
        assert (path_fold(terms, depth, signs=every) == full).all()

    def test_guard_counts_output_cells(self):
        terms = _random_terms(np.random.default_rng(2), 3, (2,), True)
        with pytest.raises(ResourceGuardError):
            path_fold(terms, 3, guard=15)
        assert path_fold(terms, 3, guard=16).shape == (2, 8)
        with pytest.raises(ResourceGuardError):
            path_fold(terms, 3, signs=np.ones((9, 3)), guard=17)

    def test_guard_runs_before_later_levels_are_built(self):
        built = []

        def terms():
            for t in range(1, 31):
                built.append(t)
                yield np.zeros((2, 2 ** (t - 1), 2))

        with pytest.raises(ResourceGuardError):
            path_fold(terms(), 30)
        assert built == [1]
