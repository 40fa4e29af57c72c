"""Loss models: values, subgradients, envelopes, conjugates."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from regretlab.errors import CapabilityError, DomainError
from regretlab.losses import (
    _log1pexp,
    _sigmoid,
    absolute_loss,
    from_config,
    logistic_loss,
    power_conjugate,
    power_conjugate_bound,
    q_loss,
    square_loss,
)

MODELS = [
    square_loss(1.0),
    absolute_loss(1.0),
    q_loss(1.5),
    q_loss(3.0),
    logistic_loss(1.0),
]

GRID = np.linspace(-1.0, 1.0, 201)


class TestValues:
    def test_square_value(self):
        assert square_loss(1.0).value(0.5, 1.0) == 0.25

    @given(st.floats(-1, 1))
    def test_absolute_identity(self, x):
        assert absolute_loss(1.0).value(x, x) == 0.0

    def test_q_loss_value(self):
        assert q_loss(1.5).value(0.0, 1.0) == 1.0

    def test_values_nonnegative_on_grid(self):
        for m in MODELS:
            for a in GRID[::20]:
                for y in GRID[::20]:
                    assert m.value(a, y) >= 0.0

    def test_out_of_range_arguments_name_the_interval(self):
        m = square_loss(1.0)
        with pytest.raises(DomainError, match=r"\[-1.0, 1.0\]"):
            m.value(2.0, 0.0)
        with pytest.raises(DomainError, match="outcome range"):
            m.value(0.0, 2.0)

    def test_value_vector_matches_scalar(self):
        for m in MODELS:
            ys = GRID[::40]
            for y in ys:
                vec = m.value_vector(GRID[::40], y)
                for v, a in zip(vec, GRID[::40]):
                    assert v == pytest.approx(m.value(a, y), rel=1e-14, abs=1e-15)


class TestSubgradients:
    def test_square_subgradient(self):
        assert square_loss(1.0).subgradient(0.5, 1.0) == -1.0

    def test_absolute_subgradient_sign_and_kink(self):
        m = absolute_loss(2.0)
        assert m.subgradient(2.0, 1.0) == 1.0
        assert m.subgradient(1.0, 1.0) == 0.0

    def test_logistic_subgradient_at_zero(self):
        assert logistic_loss(1.0).subgradient(0.0, 1.0) == -0.5

    def test_subgradient_bounded_by_G(self):
        for m in MODELS:
            for a in GRID[::10]:
                for y in GRID[::10]:
                    assert abs(m.subgradient(a, y)) <= m.grad_bound + 1e-12

    def test_subgradient_validity_inequality(self):
        # loss(b) >= loss(a) + g(a) (b - a) on a grid of triples
        pts = GRID[::25]
        for m in MODELS:
            for y in pts:
                for a in pts:
                    la, g = m.value(a, y), m.subgradient(a, y)
                    for b in pts:
                        assert m.value(b, y) >= la + g * (b - a) - 1e-12

    def test_finite_difference_agreement(self):
        h = 1e-5
        for m in MODELS:
            for a in (-0.7, -0.2, 0.4, 0.8):
                for y in (-0.9, -0.1, 0.6):
                    if m.name in ("absolute", "q_loss") and abs(a - y) < 0.05:
                        continue  # too close to the kink for a central difference
                    fd = (m.value(a + h, y) - m.value(a - h, y)) / (2 * h)
                    assert abs(m.subgradient(a, y) - fd) <= 10 * h


class TestTaylorResidual:
    @given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1))
    def test_square_residual_is_squared_separation(self, a, b, y):
        res = square_loss(1.0).taylor_residual(a, b, y)
        assert res == pytest.approx((b - a) ** 2, abs=1e-12)

    def test_residual_zero_at_same_point(self):
        for m in MODELS:
            assert m.taylor_residual(0.3, 0.3, -0.5) == 0.0

    def test_q_loss_residual_against_high_precision(self):
        import mpmath

        mpmath.mp.dps = 40
        m = q_loss(1.5)
        got = m.taylor_residual(0.0, 0.5, 1.0)
        q = mpmath.mpf("1.5")
        lb = abs(mpmath.mpf(1) - mpmath.mpf("0.5")) ** q
        la = mpmath.mpf(1)
        grad = -q * abs(mpmath.mpf(1)) ** (q - 1)
        expected = float(lb - la - grad * mpmath.mpf("0.5"))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_residual_nonnegative(self):
        pts = GRID[::25]
        for m in MODELS:
            for y in pts:
                for a in pts:
                    for b in pts:
                        assert m.taylor_residual(a, b, y) >= -1e-12


class TestCurvatureEnvelopes:
    def test_square_minorant(self):
        assert square_loss(1.0).curvature_minorant(0.3) == pytest.approx(0.09)

    def test_absolute_minorant_is_zero(self):
        assert absolute_loss(1.0).curvature_minorant(0.7) == 0.0

    def test_q_loss_minorant_uses_certified_constant(self):
        # q in (1, 2): second derivative >= q(q-1) D^(q-2) over separations
        # up to D, so the certified quadratic constant is half that.
        m = q_loss(1.5)
        k = 1.5 * 0.5 * 2.0 ** (1.5 - 2.0) / 2.0
        assert m.curvature_const == pytest.approx(k)
        assert m.curvature_minorant(0.2) == pytest.approx(k * 0.04)

    def test_minorant_below_every_residual(self):
        pts = GRID[::10]
        for m in MODELS:
            for y in pts[::2]:
                for a in pts:
                    for b in pts:
                        env = m.curvature_minorant(b - a)
                        assert env <= m.taylor_residual(a, b, y) + 1e-10

    def test_minorant_sandwich_full_grid(self):
        # Full 201-point sweep per axis, with losses and gradients recomputed
        # from scratch (independent of the implementation) via broadcasting.
        a = GRID[:, None]
        b = GRID[None, :]
        sep = b - a
        for m in MODELS:
            k, r = m.curvature_const, m.curvature_power
            envelope = k * np.abs(sep) ** r
            worst = np.inf
            for y in GRID:
                if m.name == "square":
                    la, ga, lb = (GRID - y) ** 2, 2 * (GRID - y), (GRID - y) ** 2
                elif m.name == "absolute":
                    la, ga, lb = np.abs(GRID - y), np.sign(GRID - y), np.abs(GRID - y)
                elif m.name == "q_loss":
                    q = m.q
                    la = np.abs(y - GRID) ** q
                    ga = q * np.abs(GRID - y) ** (q - 1) * np.sign(GRID - y)
                    lb = la
                else:  # logistic
                    la = np.logaddexp(0.0, -GRID * y)
                    ga = -y / (1.0 + np.exp(GRID * y))
                    lb = la
                residual = lb[None, :] - la[:, None] - ga[:, None] * sep
                worst = min(worst, float((residual - envelope).min()))
            assert worst >= -1e-10, f"{m.name}: minorant overshoots by {-worst:.2e}"

    def test_naive_qloss_constant_overshoots_residual(self):
        # The quadratic with coefficient q(q-1)/2 fails as a lower envelope
        # at the corner (a, b, y) = (-1, 1, 1); this is why the certified
        # constant above carries the D^(q-2)/2 correction.
        m = q_loss(1.5)
        naive = 1.5 * 0.5 / 2.0 * 2.0  # (q(q-1)/2) * x^2 at x = 2
        assert naive * 2.0 > m.taylor_residual(-1.0, 1.0, 1.0) + 1e-3

    def test_q_geq_2_minorant_power(self):
        m = q_loss(3.0)
        assert m.curvature_power == 3.0
        assert m.curvature_const == pytest.approx(0.25)

    def test_logistic_minorant_degenerates_with_zero_outcome(self):
        # The outcome interval contains 0, where the loss is flat in the
        # prediction, so the certified constant is 0 at every outcome bound.
        for B in (1.0, 1000.0):
            assert logistic_loss(B).curvature_const == 0.0


class TestSmoothnessMajorant:
    def test_square_majorant(self):
        assert square_loss(1.0).smoothness_majorant(0.3) == pytest.approx(0.09)

    def test_q_loss_majorant(self):
        assert q_loss(1.5).smoothness_majorant(0.2) == pytest.approx(0.06)

    def test_zero_separation(self):
        assert square_loss(1.0).smoothness_majorant(0.0) == 0.0
        assert q_loss(1.5).smoothness_majorant(0.0) == 0.0

    def test_unsupported_model_raises(self):
        with pytest.raises(CapabilityError):
            absolute_loss(1.0).smoothness_majorant(0.1)

    def test_majorant_dominates_residual_at_witnesses(self):
        # square: any witness point s, outcomes s +- delta
        m = square_loss(1.0)
        for s in (-0.5, 0.0, 0.4):
            y_plus, y_minus, _ = m.two_point_witness(s)
            for b in GRID[::20]:
                for y in (y_plus, y_minus):
                    assert m.taylor_residual(s, b, y) <= m.smoothness_majorant(b - s) + 1e-10
        # q-loss: witness set is {0}, outcomes are the interval endpoints
        m = q_loss(1.5)
        y_plus, y_minus, _ = m.two_point_witness(0.0)
        assert {y_plus, y_minus} == {-1.0, 1.0}
        for b in GRID[::20]:
            for y in (y_plus, y_minus):
                assert m.taylor_residual(0.0, b, y) <= m.smoothness_majorant(b) + 1e-10


class TestTwoPointWitness:
    def test_square_witness_slopes(self):
        m = square_loss(1.0)
        y_plus, y_minus, r = m.two_point_witness(0.0)
        assert (y_plus, y_minus, r) == (-1.0, 1.0, 2.0)
        assert m.subgradient(0.0, y_plus) == pytest.approx(r)
        assert m.subgradient(0.0, y_minus) == pytest.approx(-r)

    def test_witness_point_minimizes_two_point_loss(self):
        for m in (square_loss(1.0), absolute_loss(1.0), q_loss(1.5)):
            for s in (-0.3, 0.0, 0.5):
                y_plus, y_minus, _ = m.two_point_witness(s)
                avg = lambda a: 0.5 * (m.value(a, y_plus) + m.value(a, y_minus))
                at_s = avg(s)
                assert all(avg(a) >= at_s - 1e-12 for a in GRID[::5])

    def test_no_room_at_the_boundary(self):
        with pytest.raises(DomainError):
            square_loss(1.0).two_point_witness(1.0)


class TestConjugate:
    def test_square_conjugate_step(self):
        m = square_loss(1.0)
        assert power_conjugate(m.curvature_const, m.curvature_power, 0.5) == 0.0
        assert power_conjugate(m.curvature_const, m.curvature_power, 1.0) == 0.0
        assert power_conjugate(m.curvature_const, m.curvature_power, 1.5) == math.inf

    def test_negative_argument_rejected(self):
        m = square_loss(1.0)
        with pytest.raises(DomainError):
            power_conjugate(m.curvature_const, m.curvature_power, -0.1)

    def test_quartic_conjugate_against_grid_supremum(self):
        # sup_u {s u - u^2} over u >= 0 equals s^2 / 4
        us = np.linspace(0.0, 50.0, 400001)
        for s in (0.5, 2.0, 7.0):
            brute = float(np.max(s * us - us**2))
            assert power_conjugate(1.0, 4.0, s) == pytest.approx(brute, abs=1e-6)
        assert power_conjugate(1.0, 4.0, 2.0) == pytest.approx(1.0)
        assert power_conjugate(1.0, 4.0, 2.0) <= power_conjugate_bound(1.0, 4.0, 2.0)
        assert power_conjugate_bound(1.0, 4.0, 2.0) == pytest.approx(4.0 / math.e)

    def test_conjugate_nondecreasing(self):
        for m in MODELS:
            last = 0.0
            for s in np.linspace(0.0, 3.0, 61):
                cur = power_conjugate(m.curvature_const, m.curvature_power, float(s))
                assert cur >= last - 1e-15
                last = cur

    def test_fenchel_inequality_with_equality_attained(self):
        # gamma*(s) >= s u - minorant(sqrt(u)) for all u, equality at some
        # grid point when the conjugate is finite.
        for K, r in ((1.0, 4.0), (0.5, 3.0)):
            us = np.linspace(0.0, 100.0, 200001)
            for s in (0.3, 1.0, 4.0):
                vals = s * us - K * us ** (r / 2.0)
                conj = power_conjugate(K, r, s)
                assert conj >= float(np.max(vals)) - 1e-12
                assert conj - float(np.max(vals)) <= 1e-6

    def test_zero_curvature_conjugate_is_infinite(self):
        m = absolute_loss(1.0)
        assert power_conjugate(m.curvature_const, m.curvature_power, 0.0) == 0.0
        assert power_conjugate(m.curvature_const, m.curvature_power, 1e-6) == math.inf


class TestModelConstruction:
    def test_convexity_midpoint_on_grid(self):
        pts = GRID[::8]
        for m in MODELS:
            for y in pts[::4]:
                for i in range(0, len(pts) - 2, 2):
                    a, mid, b = pts[i], pts[i + 1], pts[i + 2]
                    assert m.value(mid, y) <= 0.5 * (m.value(a, y) + m.value(b, y)) + 1e-12

    def test_two_point_expected_loss_minimizer_in_range(self):
        rng = np.random.default_rng(0)
        wide = np.linspace(-3.0, 3.0, 1201)
        for m in (square_loss(1.0), absolute_loss(1.0), q_loss(1.5)):
            lo, hi = m.prediction_range
            for _ in range(25):
                y1, y2 = rng.uniform(-1, 1, size=2)
                q = float(rng.uniform(0, 1))
                vals = [q * m._value(a, y1) + (1 - q) * m._value(a, y2) for a in wide]
                argmin = wide[int(np.argmin(vals))]
                assert lo - 5e-3 <= argmin <= hi + 5e-3

    def test_logistic_minimum_attained_on_range(self):
        m = logistic_loss(1.0)
        grid = np.linspace(*m.prediction_range, 401)
        vals = [0.5 * (m.value(a, 1.0) + m.value(a, 0.5)) for a in grid]
        assert math.isfinite(min(vals))

    def test_from_config_roundtrip(self):
        m = from_config({"name": "q_loss", "B": 1.0, "q": 1.5})
        assert m.q == 1.5 and m.name == "q_loss"
        m = from_config({"name": "square", "B": 2.0, "prediction_range": [-1.0, 1.0]})
        assert m.prediction_range == (-1.0, 1.0)
        assert m.grad_bound == pytest.approx(2.0 * 3.0)
        with pytest.raises(CapabilityError):
            from_config({"name": "hinge", "B": 1.0})

    def test_grad_bounds_closed_forms(self):
        assert square_loss(1.0).grad_bound == 4.0
        assert absolute_loss(1.0).grad_bound == 1.0
        assert q_loss(1.5).grad_bound == pytest.approx(1.5 * 2.0**0.5)


# The name-switched loss operations the per-loss table replaced, kept
# literally as references.


def reference_value(m, yhat, y):
    if m.name == "square":
        d = yhat - y
        return d * d
    if m.name == "absolute":
        return abs(yhat - y)
    if m.name == "q_loss":
        return abs(y - yhat) ** m.q
    if m.name == "logistic":
        return _log1pexp(-yhat * y)


def reference_value_vector(m, arr, y):
    if m.name == "square":
        return (arr - y) ** 2
    if m.name == "absolute":
        return np.abs(arr - y)
    if m.name == "q_loss":
        return np.abs(y - arr) ** m.q
    if m.name == "logistic":
        return np.logaddexp(0.0, -arr * y)


def reference_subgradient(m, yhat, y):
    if m.name == "square":
        return 2.0 * (yhat - y)
    if m.name == "absolute":
        d = yhat - y
        return 0.0 if d == 0 else math.copysign(1.0, d)
    if m.name == "q_loss":
        d = yhat - y
        if d == 0:
            return 0.0
        return m.q * abs(d) ** (m.q - 1.0) * math.copysign(1.0, d)
    if m.name == "logistic":
        return -y * _sigmoid(-yhat * y)


def reference_majorant(m, x):
    if m.name == "square":
        return x * x
    if m.name == "q_loss" and m.q is not None and 1.0 < m.q < 2.0:
        return 2.0 * m.q * (m.q - 1.0) * x * x
    return None


def reference_witness_slope(m, delta):
    if m.name == "square":
        return 2.0 * delta
    if m.name == "absolute":
        return 1.0
    if m.name == "q_loss":
        return m.q * delta ** (m.q - 1.0)
    return None


class TestLossTable:
    @given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-0.99, 0.99))
    def test_every_operation_matches_the_name_switch_bitwise(self, a, y, s):
        models = MODELS + [q_loss(2.0), q_loss(1.2, B=2.0)]
        arr = np.array([a, y, 0.0, -1.0, 1.0])
        for m in models:
            assert m.value(a, y).hex() == reference_value(m, a, y).hex()
            assert type(m.value(a, y)) is float
            got, want = m.value_vector(arr, y), reference_value_vector(m, arr, y)
            assert got.tobytes() == want.tobytes()
            assert m.subgradient(a, y).hex() == reference_subgradient(m, a, y).hex()
            majorant = reference_majorant(m, a)
            if majorant is None:
                with pytest.raises(CapabilityError):
                    m.smoothness_majorant(a)
            else:
                assert m.smoothness_majorant(a).hex() == majorant.hex()
            slope = reference_witness_slope(m, m.outcome_bound - abs(s))
            if slope is None:
                with pytest.raises(CapabilityError):
                    m.two_point_witness(s)
            else:
                assert float(m.two_point_witness(s)[2]).hex() == float(slope).hex()

    @given(
        st.lists(
            st.tuples(st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3), st.floats(-1.5, 1.5)),
            min_size=1,
            max_size=6,
        )
    )
    def test_an_outcome_column_matches_one_call_per_row(self, rows):
        arr = np.array([r for r, _ in rows])
        ys = np.array([y for _, y in rows])[:, None]
        for m in MODELS:
            want, error = [], None
            for r, y in rows:
                try:
                    want.append(m.value_vector(np.array(r), y))
                except DomainError as exc:
                    error = str(exc)
                    with pytest.raises(DomainError):
                        m.value_vector(np.array(r), np.asarray(y))
                    break
                # A 0-d outcome array is one outcome, not a column.
                assert m.value_vector(np.array(r), np.asarray(y)).tobytes() == want[-1].tobytes()
            if error is None:
                assert m.value_vector(arr, ys).tobytes() == np.array(want).tobytes()
            else:
                with pytest.raises(DomainError) as info:
                    m.value_vector(arr, ys)
                assert str(info.value) == error

    @given(
        st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)), max_size=12),
        st.floats(1.05, 3.0),
    )
    def test_paired_values_match_one_value_call_per_pair(self, pairs, q):
        """The losses before the first pair out of range, bit for bit, then
        that pair's own error."""
        yhats, ys = [a for a, _ in pairs], [y for _, y in pairs]
        for m in MODELS + [q_loss(q)]:
            want, error = [], None
            for a, y in pairs:
                try:
                    want.append(m.value(a, y).hex())
                except DomainError as exc:
                    error = str(exc)
                    break
            got = []
            if error is None:
                got.extend(m.values(yhats, ys))
            else:
                with pytest.raises(DomainError) as info:
                    got.extend(m.values(yhats, ys))
                assert str(info.value) == error
            assert [v.hex() for v in got] == want
            assert all(type(v) is float for v in got)

    def test_paired_values_refuse_what_value_refuses(self):
        m = square_loss(1.0)
        with pytest.raises(DomainError, match="yhat=nan"):
            list(m.values([0.0, math.nan], [0.0, 0.0]))
        for bad in ("0.5", None, [0.1, 0.2]):
            with pytest.raises(TypeError) as want:
                m.value(bad, 0.0)
            got = []
            with pytest.raises(TypeError) as info:
                got.extend(m.values([0.25, bad], [0.0, 0.0]))
            assert str(info.value) == str(want.value)
            assert got == [0.0625]

    def test_unknown_loss_is_a_capability_error(self):
        m = replace(square_loss(1.0), name="hinge")
        for op in (
            lambda: m.value(0.0, 0.0),
            lambda: m.value_vector([0.0], 0.0),
            lambda: list(m.values([0.0, 0.5], [0.0, 0.0])),
            lambda: m.subgradient(0.0, 0.0),
            lambda: m.smoothness_majorant(0.1),
            lambda: m.two_point_witness(0.0),
        ):
            with pytest.raises(CapabilityError):
                op()
