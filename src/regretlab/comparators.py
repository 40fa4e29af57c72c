"""Benchmark families of predictors and best-in-family cumulative losses.

Three variants are supported:

* ``FiniteTableFamily`` -- finitely many predictors on a finite covariate
  set, stored as a (predictor x covariate) value matrix;
* ``LinearFamily`` -- linear predictors on real vectors;
* ``SparseConvexFamily`` -- convex combinations of at most ``s`` out of
  ``M`` bounded base functions.

Families are immutable after construction; concurrent reads are safe.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Callable, Sequence

import numpy as np

from .errors import CapabilityError, DomainError, ResourceGuardError
from .losses import LossModel

SUPPORT_ENUMERATION_CAP = 10**6


class ComparatorFamily:
    """Common surface of the three family variants."""

    variant: str
    output_range: tuple[float, float]

    def evaluate(self, handle: Any, x: Any) -> float:
        raise NotImplementedError

    def predictor(self, handle: Any) -> Callable[[Any], float]:
        """The predictor with the given handle as a plain callable."""
        return lambda x: self.evaluate(handle, x)


class FiniteTableFamily(ComparatorFamily):
    variant = "finite_table"

    def __init__(
        self,
        covariate_ids: Sequence[Any],
        values: Sequence[Sequence[float]],
        output_range: tuple[float, float] | None = None,
    ):
        self.covariate_ids = tuple(covariate_ids)
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != len(self.covariate_ids):
            raise DomainError(
                "values must be a (predictor x covariate) matrix matching covariate_ids"
            )
        self._col = {x: j for j, x in enumerate(self.covariate_ids)}
        lo = float(self.values.min()) if self.values.size else 0.0
        hi = float(self.values.max()) if self.values.size else 0.0
        self.output_range = output_range or (lo, hi)
        olo, ohi = self.output_range
        if self.values.size and (lo < olo - 1e-12 or hi > ohi + 1e-12):
            raise DomainError(
                f"table values [{lo}, {hi}] escape the declared output range {self.output_range}"
            )

    @property
    def n_predictors(self) -> int:
        return self.values.shape[0]

    def column(self, x: Any) -> int:
        if x not in self._col:
            raise KeyError(f"unknown covariate {x!r}")
        return self._col[x]

    def evaluate(self, handle: Any, x: Any) -> float:
        j = self.column(x)
        i = int(handle)
        if not 0 <= i < self.n_predictors:
            raise IndexError(f"predictor index {handle!r} out of range")
        return float(self.values[i, j])

    def evaluate_all(self, x: Any) -> np.ndarray:
        """Values of every predictor at covariate ``x``."""
        return self.values[:, self.column(x)]


class LinearFamily(ComparatorFamily):
    variant = "linear"

    def __init__(
        self,
        dimension: int,
        weight_norm_bound: float = math.inf,
        output_range: tuple[float, float] | None = None,
    ):
        if dimension < 1:
            raise DomainError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        self.weight_norm_bound = weight_norm_bound
        # Default assumes covariates in the unit ball.
        if output_range is None:
            w = weight_norm_bound if math.isfinite(weight_norm_bound) else math.inf
            output_range = (-w, w)
        self.output_range = output_range

    def evaluate(self, handle: Any, x: Any) -> float:
        w = np.asarray(handle, dtype=float)
        v = np.asarray(x, dtype=float)
        if w.shape != (self.dimension,) or v.shape != (self.dimension,):
            raise LookupError(
                f"weights and covariate must be {self.dimension}-vectors"
            )
        return float(w @ v)


class SparseConvexFamily(ComparatorFamily):
    variant = "sparse_convex"

    def __init__(
        self,
        covariate_ids: Sequence[Any],
        base_values: Sequence[Sequence[float]],
        sparsity: int,
    ):
        self.covariate_ids = tuple(covariate_ids)
        self.base_values = np.asarray(base_values, dtype=float)
        if self.base_values.ndim != 2 or self.base_values.shape[1] != len(self.covariate_ids):
            raise DomainError("base_values must be a (base function x covariate) matrix")
        if np.any(np.abs(self.base_values) > 1.0 + 1e-12):
            raise DomainError("base function values must lie in [-1, 1]")
        if not 1 <= sparsity <= self.base_values.shape[0]:
            raise DomainError(f"sparsity {sparsity} out of range")
        self.sparsity = sparsity
        self._col = {x: j for j, x in enumerate(self.covariate_ids)}
        self.output_range = (-1.0, 1.0)

    @property
    def n_base(self) -> int:
        return self.base_values.shape[0]

    def column(self, x: Any) -> int:
        if x not in self._col:
            raise KeyError(f"unknown covariate {x!r}")
        return self._col[x]

    def evaluate(self, handle: Any, x: Any) -> float:
        try:
            support, weights = handle
        except (TypeError, ValueError):
            raise LookupError("handle must be a (support, weights) pair") from None
        support = tuple(int(i) for i in support)
        weights = np.asarray(weights, dtype=float)
        if len(support) != len(weights) or len(support) > self.sparsity:
            raise LookupError(
                f"support/weight lengths must match and use at most {self.sparsity} entries"
            )
        if any(not 0 <= i < self.n_base for i in support):
            raise LookupError(f"support indices {support} out of range")
        if np.any(weights < -1e-12) or abs(float(weights.sum()) - 1.0) > 1e-9:
            raise LookupError("weights must be nonnegative and sum to 1")
        if x not in self._col:
            raise KeyError(f"unknown covariate {x!r}")
        j = self._col[x]
        return float(weights @ self.base_values[list(support), j])


# -- best-in-family cumulative loss -----------------------------------------


def _simplex_refine(
    fn: Callable[[np.ndarray], float], s: int, tol: float = 1e-8
) -> tuple[np.ndarray, float]:
    """Minimize a convex function over the probability simplex in s variables.

    Coordinate-pair descent with a geometrically shrinking step; exact in the
    limit for convex objectives, and the step floor is far below ``tol``.
    """
    w = np.full(s, 1.0 / s)
    best = fn(w)
    step = 0.5
    while step > 1e-10:
        improved = True
        while improved:
            improved = False
            for i in range(s):
                for j in range(s):
                    if i == j or w[j] < step - 1e-15:
                        continue
                    cand = w.copy()
                    cand[i] += step
                    cand[j] -= step
                    val = fn(cand)
                    if val < best - 1e-15:
                        w, best = cand, val
                        improved = True
        step /= 2.0
    return w, best


def best_comparator_loss(
    family: ComparatorFamily,
    model: LossModel,
    history: Sequence[tuple[Any, float]],
    ridge: float = 0.0,
) -> float:
    """Infimum over the family of the cumulative loss on ``history``.

    Finite tables are enumerated exactly.  For the linear family with square
    loss (a loss record with a :attr:`LossModel.mean_minimizer`) the
    ridge-regularized optimum value
    ``min_w sum((w.x - y)^2) + ridge * ||w||^2`` is returned in closed form.
    Sparse convex families enumerate supports exactly (capped) with inner
    convex minimization by grid refinement.
    """
    if not history:
        raise DomainError("history must be nonempty")
    if isinstance(family, FiniteTableFamily):
        cols = [family.column(x) for x, _ in history]
        ys = [y for _, y in history]
        # One values call over the predictor-major (value, y) pairs; each
        # predictor's losses are then one slice.
        losses = list(model.values(family.values[:, cols].ravel().tolist(), ys * family.n_predictors))
        t = len(history)
        return min(math.fsum(losses[i : i + t]) for i in range(0, len(losses), t))
    if isinstance(family, LinearFamily):
        if model.mean_minimizer is None:
            raise CapabilityError(
                "closed-form comparator loss for the linear family requires square loss"
            )
        X = np.asarray([x for x, _ in history], dtype=float)
        y = np.asarray([v for _, v in history], dtype=float)
        if X.ndim != 2 or X.shape[1] != family.dimension:
            raise LookupError(f"covariates must be {family.dimension}-vectors")
        gram = X.T @ X + ridge * np.eye(family.dimension)
        b = X.T @ y
        if ridge > 0:
            w = np.linalg.solve(gram, b)
        else:
            w = np.linalg.lstsq(X, y, rcond=None)[0]
        resid = X @ w - y
        return float(resid @ resid + ridge * (w @ w))
    if isinstance(family, SparseConvexFamily):
        cols = [family.column(x) for x, _ in history]
        ys = np.asarray([v for _, v in history], dtype=float)
        m, s = family.n_base, family.sparsity
        if math.comb(m, s) > SUPPORT_ENUMERATION_CAP:
            raise ResourceGuardError(
                "sparse support enumeration above cap", size_estimate=math.comb(m, s)
            )
        base_at_rounds = family.base_values[:, cols]  # (M, T)

        best = math.inf
        for support in itertools.combinations(range(m), s):
            rows = base_at_rounds[list(support)]  # (s, T)

            def objective(w: np.ndarray) -> float:
                preds = w @ rows
                return math.fsum(model.value(float(p), float(yv)) for p, yv in zip(preds, ys))

            if s == 1:
                val = objective(np.ones(1))
            else:
                _, val = _simplex_refine(objective, s)
            best = min(best, val)
        return best
    raise CapabilityError(f"unsupported family variant {family.variant!r}")


def family_from_json(doc: dict) -> ComparatorFamily:
    """Build a family from its JSON document form."""
    variant = doc["variant"]
    if variant == "finite_table":
        rng = doc.get("output_range")
        return FiniteTableFamily(
            doc["covariate_ids"],
            doc["values"],
            tuple(rng) if rng else None,
        )
    if variant == "linear":
        rng = doc.get("output_range")
        return LinearFamily(
            int(doc["dimension"]),
            float(doc.get("weight_norm_bound", math.inf)),
            tuple(rng) if rng else None,
        )
    if variant == "sparse_convex":
        return SparseConvexFamily(doc["covariate_ids"], doc["base_values"], int(doc["sparsity"]))
    raise CapabilityError(f"unknown family variant {variant!r}")
