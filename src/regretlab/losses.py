"""Loss models: values, subgradients, curvature envelopes, conjugates.

A :class:`LossModel` bundles a convex loss with everything the bound
machinery needs to know about it:

* a uniform subgradient bound ``G`` over the configured ranges,
* a certified curvature minorant ``K * |x|**r`` of the Taylor residual
  (the residual of the linear expansion between any two predictions),
* a restricted-smoothness majorant for the models that support one,
* the convex conjugate of ``x -> minorant(sqrt(|x|))``, which drives the
  finite-collection offset bound.

All operations are pure functions of their arguments and safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import CapabilityError, DomainError, json_object

_RANGE_EPS = 1e-12


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _log1pexp(z: float) -> float:
    """log(1 + exp(z)), overflow-safe."""
    if z > 35.0:
        return z + math.log1p(math.exp(-z))
    return math.log1p(math.exp(z))


class _Loss(NamedTuple):
    """One loss as plain functions, each taking the q-loss power ``q`` last
    (None for the other losses).  ``majorant`` and ``witness_slope`` return
    None where the loss has none configured.  ``mean_minimizer`` is None
    except for the square loss (see :attr:`LossModel.mean_minimizer`)."""

    value: Callable
    vector: Callable
    subgradient: Callable
    majorant: Callable
    witness_slope: Callable
    mean_minimizer: Callable | None = None


_LOSSES = {
    "square": _Loss(
        value=lambda yhat, y, q: (yhat - y) * (yhat - y),
        vector=lambda arr, y, q: (arr - y) ** 2,
        subgradient=lambda yhat, y, q: 2.0 * (yhat - y),
        majorant=lambda x, q: x * x,
        witness_slope=lambda delta, q: 2.0 * delta,
        mean_minimizer=lambda w, b, q: (2.0 * w - 1.0) * b,
    ),
    "absolute": _Loss(
        value=lambda yhat, y, q: abs(yhat - y),
        vector=lambda arr, y, q: np.abs(arr - y),
        subgradient=lambda yhat, y, q: 0.0 if yhat - y == 0 else math.copysign(1.0, yhat - y),
        majorant=lambda x, q: None,
        witness_slope=lambda delta, q: 1.0,
    ),
    "q_loss": _Loss(
        value=lambda yhat, y, q: abs(y - yhat) ** q,
        vector=lambda arr, y, q: np.abs(y - arr) ** q,
        subgradient=lambda yhat, y, q: (
            0.0 if yhat - y == 0 else q * abs(yhat - y) ** (q - 1.0) * math.copysign(1.0, yhat - y)
        ),
        majorant=lambda x, q: (
            2.0 * q * (q - 1.0) * x * x if q is not None and 1.0 < q < 2.0 else None
        ),
        witness_slope=lambda delta, q: q * delta ** (q - 1.0),
    ),
    "logistic": _Loss(
        value=lambda yhat, y, q: _log1pexp(-yhat * y),
        vector=lambda arr, y, q: np.logaddexp(0.0, -arr * y),
        subgradient=lambda yhat, y, q: -y * _sigmoid(-yhat * y),
        majorant=lambda x, q: None,
        witness_slope=lambda delta, q: None,
    ),
}


@dataclass(frozen=True)
class LossModel:
    """A convex loss together with its curvature and gradient constants.

    ``outcome_bound`` is the half-width B of the outcome interval [-B, B];
    ``prediction_range`` is the closed interval of admissible predictions.
    ``curvature_const`` and ``curvature_power`` certify
    ``taylor_residual(a, b, y) >= curvature_const * |b - a|**curvature_power``
    over the configured ranges.
    """

    name: str
    outcome_bound: float
    prediction_range: tuple[float, float]
    grad_bound: float
    curvature_const: float
    curvature_power: float
    q: float | None = None

    # -- range checks -----------------------------------------------------

    def _check_prediction(self, yhat: float, arg: str = "yhat") -> None:
        lo, hi = self.prediction_range
        if not (lo - _RANGE_EPS <= yhat <= hi + _RANGE_EPS):
            raise DomainError(
                f"{arg}={yhat!r} outside the prediction range [{lo}, {hi}]"
            )

    def _predictions_ok(self, arr: np.ndarray) -> np.ndarray:
        """Which entries of ``arr`` pass the prediction range check (NaN
        fails it)."""
        lo, hi = self.prediction_range
        return (lo - _RANGE_EPS <= arr) & (arr <= hi + _RANGE_EPS)

    def _check_outcome(self, y: float) -> None:
        b = self.outcome_bound
        if not (-b - _RANGE_EPS <= y <= b + _RANGE_EPS):
            raise DomainError(f"y={y!r} outside the outcome range [{-b}, {b}]")

    # -- pointwise operations ---------------------------------------------

    def _functions(self) -> _Loss:
        try:
            return _LOSSES[self.name]
        except KeyError:
            raise CapabilityError(f"unknown loss {self.name!r}") from None

    @property
    def mean_minimizer(self) -> Callable[[np.ndarray], np.ndarray] | None:
        """``w -> (2w - 1) B``, the exact minimizer of the mean loss ``w
        loss(., B) + (1 - w) loss(., -B)`` for mixing weights ``w``, on a
        loss record with that closed form (the square loss's); None
        otherwise.  The record's other square-loss closed forms, the
        equalizing one-step prediction and the least-squares comparator, are
        read off the same capability.
        """
        fn = self._functions().mean_minimizer
        return None if fn is None else lambda w: fn(w, self.outcome_bound, self.q)

    def value(self, yhat: float, y: float) -> float:
        """Loss of predicting ``yhat`` against outcome ``y``."""
        self._check_prediction(yhat)
        self._check_outcome(y)
        return self._value(yhat, y)

    def _value(self, yhat: float, y: float) -> float:
        return self._functions().value(yhat, y, self.q)

    def values(self, yhats: Sequence[float], ys: Sequence[float]) -> Iterator[float]:
        """Losses of paired predictions and outcomes, each bitwise equal to
        ``value(yhat, y)``.

        The ranges are checked once for all pairs, then the loss's scalar
        function is mapped over them.  At the first pair out of range the
        losses before it have been yielded, and the pair raises as its own
        ``value`` call would.
        """
        # A lone pair is checked by its own value call.
        k = self._leading_in_range(yhats, ys) if len(yhats) > 1 else 0
        if k:
            yield from map(self._functions().value, yhats[:k], ys[:k], repeat(self.q))
        for yhat, y in zip(yhats[k:], ys[k:]):
            yield self.value(yhat, y)

    def _leading_in_range(self, yhats: Sequence[float], ys: Sequence[float]) -> int:
        """How many leading pairs have both entries in range; 0 unless both
        convert to 1-d numeric arrays, so other inputs meet ``value``."""
        try:
            p, y = np.asarray(yhats), np.asarray(ys)
        except (TypeError, ValueError):  # ragged
            return 0
        if p.ndim != 1 or y.shape != p.shape or p.dtype.kind not in "fi" or y.dtype.kind not in "fi":
            return 0
        b = self.outcome_bound
        ok = self._predictions_ok(p)
        ok &= (-b - _RANGE_EPS <= y) & (y <= b + _RANGE_EPS)
        return len(ok) if ok.all() else int(ok.argmin())

    def value_vector(self, yhats, y):
        """Losses of many predictions against one outcome (vectorized).

        Range checks run once on the outcome and on the extreme predictions.
        ``y`` may also be a 2-d column of outcomes, one per row of
        ``yhats``: every row is then checked, and the first row out of range
        raises as its own call would.
        """
        arr = np.asarray(yhats, dtype=float)
        if np.ndim(y) == 2:
            self._check_rows(arr, y)
        else:
            self._check_extremes(arr, y)
        return self._functions().vector(arr, y, self.q)

    def _check_extremes(self, arr: np.ndarray, y) -> None:
        self._check_outcome(y)
        if arr.size:
            self._check_prediction(float(arr.min()), "yhat")
            self._check_prediction(float(arr.max()), "yhat")

    def _check_rows(self, arr: np.ndarray, ys: np.ndarray) -> None:
        b = self.outcome_bound
        ok = ((-b - _RANGE_EPS <= ys) & (ys <= b + _RANGE_EPS)).all(axis=1)
        ok &= self._predictions_ok(arr).all(axis=1)
        bad = np.flatnonzero(~ok)
        if bad.size:
            self._check_extremes(arr[bad[0]], float(ys[bad[0], 0]))

    def subgradient(self, yhat: float, y: float) -> float:
        """A valid subgradient of the loss in its first argument.

        At kinks the midpoint of the subdifferential interval is returned
        (0 for the absolute loss at ``yhat == y``).
        """
        self._check_prediction(yhat)
        self._check_outcome(y)
        return self._functions().subgradient(yhat, y, self.q)

    def taylor_residual(self, a: float, b: float, y: float) -> float:
        """Error of the linear expansion at ``a`` evaluated at ``b``.

        Nonnegative by convexity.
        """
        self._check_prediction(a, "a")
        self._check_prediction(b, "b")
        self._check_outcome(y)
        return self._value(b, y) - (self._value(a, y) + self.subgradient(a, y) * (b - a))

    # -- curvature envelopes ------------------------------------------------

    def curvature_minorant(self, x: float) -> float:
        """Certified lower envelope of the Taylor residual at separation ``x``.

        Returns ``curvature_const * |x|**curvature_power``; the constant is
        chosen so the envelope minorizes the residual over the whole
        configured rectangle (zero for losses with no certified curvature).
        """
        return self.curvature_const * abs(x) ** self.curvature_power

    def smoothness_majorant(self, x: float) -> float:
        """Upper envelope of the Taylor residual at the two-point witnesses.

        Supported for the square loss (witness set = whole prediction range)
        and the q-loss with q in (1, 2) (witness set = {0}).
        """
        majorant = self._functions().majorant(x, self.q)
        if majorant is None:
            raise CapabilityError(
                f"no restricted-smoothness majorant configured for {self.name!r}"
            )
        return majorant

    # -- two-point adversary support ---------------------------------------

    def two_point_witness(self, s: float) -> tuple[float, float, float]:
        """Outcomes ``(y_plus, y_minus)`` and slope ``R`` for witness point ``s``.

        The returned pair satisfies: ``s`` minimizes the average loss of the
        two outcomes, the subgradient at ``s`` against ``y_plus`` is ``+R``
        and against ``y_minus`` is ``-R``.  Outcomes are pushed to the
        boundary of the outcome interval (maximal separation).
        """
        b = self.outcome_bound
        delta = b - abs(s)
        if delta <= 0:
            raise DomainError(
                f"witness point {s!r} leaves no room inside [-{b}, {b}]"
            )
        y_plus, y_minus = s - delta, s + delta
        r = self._functions().witness_slope(delta, self.q)
        if r is None:
            raise CapabilityError(
                f"two-point witnesses not configured for {self.name!r}"
            )
        return y_plus, y_minus, r


def power_conjugate(K: float, r: float, s: float) -> float:
    """Conjugate of ``u >= 0 -> K * u**(r/2)`` evaluated at ``s >= 0``.

    For ``r == 2`` this is the 0/+inf step at threshold ``K``; for ``r > 2``
    the supremum has the closed form ``((r-2)/r) * (2/(K r))**(2/(r-2)) *
    s**(r/(r-2))``.  A zero ``K`` makes every positive ``s`` infeasible.
    """
    if s < 0:
        raise DomainError(f"conjugate argument must be nonnegative, got {s!r}")
    if s == 0:
        return 0.0
    if K == 0:
        return math.inf
    if r == 2:
        return 0.0 if s <= K * (1.0 + 1e-15) else math.inf
    if r < 2:
        raise DomainError(f"curvature power must be >= 2, got {r!r}")
    return (r - 2.0) / r * (2.0 / (K * r)) ** (2.0 / (r - 2.0)) * s ** (r / (r - 2.0))


def _prediction_range(B: float, prediction_range: tuple[float, float] | None) -> tuple[float, float]:
    """The given prediction range, or [-B, B] by default; B must be positive."""
    if B <= 0:
        raise DomainError(f"outcome bound must be positive, got {B!r}")
    return prediction_range or (-B, B)


def _max_separation(B: float, prediction_range: tuple[float, float]) -> float:
    lo, hi = prediction_range
    return max(hi + B, B - lo)


def square_loss(B: float, prediction_range: tuple[float, float] | None = None) -> LossModel:
    """Square loss on outcomes in [-B, B]; the residual equals the squared
    separation exactly, so the minorant constant is 1 with power 2."""
    pr = _prediction_range(B, prediction_range)
    return LossModel(
        name="square",
        outcome_bound=B,
        prediction_range=pr,
        grad_bound=2.0 * _max_separation(B, pr),
        curvature_const=1.0,
        curvature_power=2.0,
    )


def absolute_loss(B: float, prediction_range: tuple[float, float] | None = None) -> LossModel:
    """Absolute loss; no curvature, unit gradient bound."""
    pr = _prediction_range(B, prediction_range)
    return LossModel(
        name="absolute",
        outcome_bound=B,
        prediction_range=pr,
        grad_bound=1.0,
        curvature_const=0.0,
        curvature_power=2.0,
    )


def q_loss(
    q: float,
    B: float = 1.0,
    prediction_range: tuple[float, float] | None = None,
    curvature_const: float | None = None,
) -> LossModel:
    """Power loss ``|y - yhat|**q`` for q > 1.

    For q in (1, 2) the second derivative over separations up to D is at
    least ``q (q-1) D**(q-2)``, giving the quadratic minorant with constant
    ``q (q-1) D**(q-2) / 2``.  For q >= 2 the loss is q-uniformly convex and
    the default minorant is ``2**(1-q) |x|**q``.  Both constants are the
    certified ones (every residual on the configured rectangle dominates the
    envelope); pass ``curvature_const`` to override.
    """
    if q <= 1:
        raise DomainError(f"q must exceed 1, got {q!r}")
    pr = _prediction_range(B, prediction_range)
    d = _max_separation(B, pr)
    if q < 2.0:
        k = q * (q - 1.0) * d ** (q - 2.0) / 2.0
        r = 2.0
    elif q == 2.0:
        k = 1.0  # the residual is exactly the squared separation
        r = 2.0
    else:
        k = 2.0 ** (1.0 - q)
        r = q
    if curvature_const is not None:
        k = curvature_const
    return LossModel(
        name="q_loss",
        outcome_bound=B,
        prediction_range=pr,
        grad_bound=q * d ** (q - 1.0),
        curvature_const=k,
        curvature_power=r,
        q=q,
    )


def logistic_loss(B: float, prediction_range: tuple[float, float] | None = None) -> LossModel:
    """Logistic loss ``log(1 + exp(-yhat * y))`` on the rectangle [-B, B]^2.

    The second derivative in the prediction, ``y**2 * sig(yhat*y) *
    (1 - sig(yhat*y))``, vanishes at ``y = 0``, which the outcome interval
    always contains; so the strong-convexity constant, its infimum over the
    rectangle, is 0 and the certified minorant degenerates.  Outcomes
    bounded away from zero would be needed for a positive constant.
    """
    pr = _prediction_range(B, prediction_range)
    corners = [
        abs(-y * _sigmoid(-a * y)) for a in pr for y in (-B, B)
    ]
    return LossModel(
        name="logistic",
        outcome_bound=B,
        prediction_range=pr,
        grad_bound=max(corners),
        curvature_const=0.0,
        curvature_power=2.0,
    )


def from_config(config: dict) -> LossModel:
    """Build a loss model from a configuration record
    ``{name, B, q?, K?, r?, prediction_range?}``."""
    name = json_object(config, "loss")["name"]
    b = float(config["B"])
    pr = config.get("prediction_range")
    pr = tuple(float(v) for v in pr) if pr is not None else None
    if name == "square":
        return square_loss(b, pr)
    if name == "absolute":
        return absolute_loss(b, pr)
    if name == "q_loss":
        return q_loss(float(config["q"]), b, pr, config.get("K"))
    if name == "logistic":
        return logistic_loss(b, pr)
    raise CapabilityError(f"unknown loss name {name!r}")
