"""Shared fixtures."""

import pytest

from regretlab import trees


@pytest.fixture
def layer_sizes(monkeypatch):
    """``layer_sizes(module, run)``: the states per layer of the one backward
    induction that ``run()`` makes through ``module``."""

    def record(module, run):
        sizes = []

        def recording(*args, **kwargs):
            values, children = trees.backward_induction(*args, **kwargs)
            sizes.append([len(v) for v in values])
            return values, children

        monkeypatch.setattr(module, "backward_induction", recording)
        run()
        (got,) = sizes
        return got

    return record
