"""Span tracing for the benchmark's traced runs, installed from outside the
library.

``Tracer.install`` replaces each traced callable of regretlab with a wrapper
at every place it is bound: the module functions in every ``regretlab.*``
namespace that imported them, class attributes such as
``CoverSearch.solve``, and the entries of ``verify.ALL_CHECKS``.
``uninstall`` puts the originals back, so untraced iterations run the
library as shipped.

A span is (name, start, end, parent, iteration).  Spans are kept in flat
arrays in memory and written out once, at the end of the run.  A span's self
time is its duration minus the durations of its direct children; calls run
on one thread, so children never overlap.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable

import numpy as np

from regretlab import comparators, complexity, forecasters, harness, losses, minimax, verify

# Per-layer metrics as (name, unit), in report order.  Self seconds (".s")
# and counts are per traced iteration.
VERIFY_CHECKS = list(verify.ALL_CHECKS)
SELF_TIME = [
    "complexity.CoverSearch.init",
    "complexity.CoverSearch.solve",
    "complexity.fat_shattering",
    "complexity.seq_rademacher",
    "complexity.offset_rademacher",
    "complexity.offset_tree_max",
    "complexity.offset_rademacher_sup",
    "minimax.SolvedGame",
    "forecasters.run_online",
    "forecasters.check_admissibility",
    "forecasters.relaxation_eval",
    "comparators.best_comparator_loss",
    "harness.generate_sequence",
] + [f"verify.{c}" for c in VERIFY_CHECKS]
COUNTS = [
    "complexity.CoverSearch.init.calls",
    "complexity.CoverSearch.solve.calls",
    "complexity.CoverSearch.candidates",
    "complexity.fat_shattering.calls",
    "complexity.seq_rademacher.paths",
    "complexity.offset_rademacher.paths",
    "complexity.offset_tree_max.paths",
    "complexity.offset_rademacher_sup.calls",
    "minimax.SolvedGame.calls",
    "forecasters.run_online.rounds",
    "forecasters.check_admissibility.calls",
    "forecasters.relaxation_eval.calls",
    "comparators.best_comparator_loss.calls",
    "losses.value.calls",
]
PER_LAYER: list[tuple[str, str]] = (
    [(f"{name}.s", "s") for name in SELF_TIME]
    + [("harness.artifacts.s", "s")]
    + [(name, "count") for name in COUNTS]
    + [
        ("complexity.CoverSearch.solves_per_init", "ratio"),
        ("forecasters.predict.us_p50", "us"),
        ("forecasters.predict.us_p99", "us"),
        ("forecasters.observe.us_p50", "us"),
        ("trace.iter_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


def _paths(args, kwargs, result) -> int:
    """2^depth of the tree argument: x, or trees[0] for offset_tree_max."""
    tree = args[0][0] if isinstance(args[0], (list, tuple)) else args[1]
    return 2**tree.depth


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.iteration = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.iter_id = -1
        self.counts: Counter = Counter()
        self.iter_counts: list[Counter] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn: Callable, name: str, count: Callable | None = None, count_name: str = "") -> Callable:
        """A span-recording wrapper; ``count(args, kwargs, result)`` adds to
        the counter ``count_name`` after each call."""
        nid = self._id(name)
        calls = f"{name}.calls"
        perf = time.perf_counter

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.iteration.append(self.iter_id)
            self._stack.append(i)
            t0 = perf()
            self.start.append(t0)
            self.end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf()
                self._stack.pop()
            self.counts[calls] += 1
            if count is not None:
                self.counts[count_name] += count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def begin_iteration(self, iter_id: int) -> None:
        self.iter_id = iter_id
        self.counts = Counter()

    def end_iteration(self) -> None:
        self.iter_counts.append(self.counts)

    # -- installation -----------------------------------------------------

    def _setattr(self, owner: Any, attr: str, value: Any) -> None:
        """Rebind ``owner.attr`` (or ``owner[attr]`` for a dict), remembering
        the original binding of the owner itself."""
        if isinstance(owner, dict):
            original, owner[attr] = owner[attr], value
        else:
            original = vars(owner)[attr]
            setattr(owner, attr, value)
        self._patches.append((owner, attr, original))

    def _function(self, module, attr: str, name: str, count=None, count_name: str = "") -> None:
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, count, count_name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "regretlab" or mod_name.startswith("regretlab."):
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._setattr(mod, key, wrapper)

    def _method(self, cls: type, attr: str, name: str, count=None, count_name: str = "") -> None:
        self._setattr(cls, attr, self.wrap(cls.__dict__[attr], name, count, count_name))

    def install(self) -> None:
        self._function(complexity, "fat_shattering", "complexity.fat_shattering")
        for kernel in ("seq_rademacher", "offset_rademacher", "offset_tree_max"):
            self._function(complexity, kernel, f"complexity.{kernel}", _paths, f"complexity.{kernel}.paths")
        self._function(complexity, "offset_rademacher_sup", "complexity.offset_rademacher_sup")
        self._method(
            complexity.CoverSearch,
            "__init__",
            "complexity.CoverSearch.init",
            lambda a, k, r: getattr(a[0], "total", 0),
            "complexity.CoverSearch.candidates",
        )
        self._method(complexity.CoverSearch, "solve", "complexity.CoverSearch.solve")
        self._method(minimax.SolvedGame, "__init__", "minimax.SolvedGame")
        self._function(
            forecasters, "run_online", "forecasters.run_online", lambda a, k, r: len(r[0]), "forecasters.run_online.rounds"
        )
        self._function(forecasters, "check_admissibility", "forecasters.check_admissibility")
        for cls in (forecasters.ExpertsForecaster, forecasters.VAWForecaster, forecasters.RelaxationForecaster):
            self._method(cls, "predict", "forecasters.predict")
            self._method(cls, "observe", "forecasters.observe")
        self._function(comparators, "best_comparator_loss", "comparators.best_comparator_loss")
        self._function(harness, "generate_sequence", "harness.generate_sequence")
        self._function(harness, "run_experiment", "harness.run_experiment")
        for check in VERIFY_CHECKS:
            self._setattr(verify.ALL_CHECKS, check, self.wrap(verify.ALL_CHECKS[check], f"verify.{check}"))

        # Relaxation evaluators are per-oracle closures: wrap each one as
        # its oracle is built.
        oracle_init = forecasters.RelaxationOracle.__init__
        wrap = self.wrap

        def init(oracle, *args, **kwargs):
            oracle_init(oracle, *args, **kwargs)
            oracle.evaluator = wrap(oracle.evaluator, "forecasters.relaxation_eval")

        self._setattr(forecasters.RelaxationOracle, "__init__", init)

        # LossModel.value runs millions of times per iteration: count only.
        value = losses.LossModel.__dict__["value"]
        tracer = self

        def counted_value(model, yhat, y):
            tracer.counts["losses.value.calls"] += 1
            return value(model, yhat, y)

        self._setattr(losses.LossModel, "value", counted_value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "iteration": np.frombuffer(self.iteration, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def self_times(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Per-span self seconds, and each name's span durations."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=len(dur))
        durations = {name: dur[a["name"] == i] for i, name in enumerate(self.names)}
        return dur - covered, durations

    def metrics(self, traced_s: list[float], untraced_s: list[float]) -> dict[str, float]:
        """Every per-layer metric, averaged over the traced iterations."""
        n_iter = len(self.iter_counts)
        own, durations = self.self_times()
        name_ids = np.frombuffer(self.name_id, dtype=np.int32)
        self_s = {name: float(own[name_ids == i].sum()) / n_iter for i, name in enumerate(self.names)}
        totals: Counter = Counter()
        for c in self.iter_counts:
            totals.update(c)

        def us(name: str, q: float) -> float:
            d = durations.get(name)
            return float(np.percentile(d, q)) * 1e6 if d is not None and d.size else 0.0

        out: dict[str, float] = {f"{name}.s": self_s.get(name, 0.0) for name in SELF_TIME}
        out["harness.artifacts.s"] = self_s.get("harness.run_experiment", 0.0)
        for name in COUNTS:
            out[name] = totals[name] / n_iter
        inits = totals["complexity.CoverSearch.init.calls"]
        out["complexity.CoverSearch.solves_per_init"] = (
            totals["complexity.CoverSearch.solve.calls"] / inits if inits else 0.0
        )
        out["forecasters.predict.us_p50"] = us("forecasters.predict", 50)
        out["forecasters.predict.us_p99"] = us("forecasters.predict", 99)
        out["forecasters.observe.us_p50"] = us("forecasters.observe", 50)
        out["trace.iter_s"] = float(np.median(traced_s))
        out["trace.overhead_s"] = float(np.median(traced_s) - np.median(untraced_s))
        return out

    def counts_repeat(self) -> bool:
        """Whether every traced iteration made exactly the same counts."""
        return all(c == self.iter_counts[0] for c in self.iter_counts)

    def write(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
