"""Optimizer unit tests on analytic toy problems."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igtop.errors import MmaStepError
from igtop.mma import S_MAX, S_MIN, MmaOptimizer


def quad_obj(x, target):
    return float(np.sum((x - target) ** 2)), 2.0 * (x - target)


class TestUnconstrainedProgress:
    def test_walks_to_interior_optimum_in_move_limit_steps(self):
        opt = MmaOptimizer(1, move_limit=0.01)
        x = np.array([0.0])
        for _ in range(60):
            _, g = quad_obj(x, 0.3)
            xnew = opt.step(x, g, -1.0, np.zeros(1))
            assert abs(xnew[0] - x[0]) <= 0.01 + 1e-12
            x = xnew
        assert x[0] == pytest.approx(0.3, abs=2e-3)

    def test_move_limit_is_absolute(self):
        # gradient far larger than any range-based heuristic would allow
        opt = MmaOptimizer(3, move_limit=0.01)
        x = np.zeros(3)
        xnew = opt.step(x, np.array([1e6, -1e6, 1e6]), -1.0, np.zeros(3))
        np.testing.assert_allclose(np.abs(xnew - x), 0.01, rtol=1e-6)

    def test_respects_box_bounds(self):
        opt = MmaOptimizer(1, move_limit=0.5)
        x = np.array([0.99])
        xnew = opt.step(x, np.array([-5.0]), -1.0, np.zeros(1))
        assert xnew[0] <= 1.0


class TestConstrainedOptimum:
    def test_binds_linear_constraint(self):
        # minimize -sum(x) subject to mean(x) - t <= 0: optimum x_j = t
        n, t = 8, 0.05
        opt = MmaOptimizer(n)
        x = np.zeros(n)
        for _ in range(40):
            fval = float(x.mean() - t)
            x = opt.step(x, -np.ones(n), fval, np.ones(n) / n)
        assert np.all(np.abs(x - t) < 1e-4)
        assert opt.lam > 0.0
        assert opt.y == 0.0

    def test_quadratic_with_budget(self):
        # minimize sum((x - t)^2) subject to mean(x) <= 0; optimum x = 0
        n, t = 5, 0.04
        opt = MmaOptimizer(n)
        x = np.full(n, -0.02)
        for _ in range(60):
            _, g = quad_obj(x, t)
            fval = float(x.mean())
            x = opt.step(x, g, fval, np.ones(n) / n)
        assert np.all(np.abs(x) < 1e-4)

    def test_inactive_constraint_keeps_zero_multiplier(self):
        opt = MmaOptimizer(2)
        x = np.zeros(2)
        x = opt.step(x, np.array([1.0, -1.0]), -0.5, np.ones(2))
        assert opt.lam == 0.0


class TestDualBracket:
    def test_unmeetable_constraint_is_relaxed_inside_the_box(self):
        # one move limit lowers the constraint by 1e-4, not by 1e3: the
        # elastic variable y takes the rest, at lambda = c + d y
        n = 10
        opt = MmaOptimizer(n)
        x = np.zeros(n)
        xnew = opt.step(x, np.ones(n), 1e3, np.full(n, 1e-3))
        np.testing.assert_allclose(xnew, x - opt.move_limit)
        assert opt.y > 0.0
        assert opt.lam == pytest.approx(1010.0, rel=1e-6)
        assert opt.y == pytest.approx(1000.0, rel=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        *[st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)] * 3)),
        st.floats(-1.0, 1.0))
    def test_order_one_steps_stay_in_box_and_move_limit(self, vectors, fval):
        x, df0dx, dfdx = map(np.array, vectors)
        opt = MmaOptimizer(x.size)
        xnew = opt.step(x, df0dx, fval, dfdx)
        assert np.all((xnew >= S_MIN) & (xnew <= S_MAX))
        assert np.all(np.abs(xnew - x) <= opt.move_limit + 1e-12)
        assert opt.lam >= 0.0 and opt.y >= 0.0


class TestAsymptotes:
    def test_initialization_is_half_range(self):
        opt = MmaOptimizer(2)
        x = np.array([0.2, -0.4])
        opt.step(x, np.ones(2), -1.0, np.zeros(2))
        np.testing.assert_allclose(opt.low, x - 1.0)
        np.testing.assert_allclose(opt.upp, x + 1.0)

    def _run_history(self, xs, opt=None):
        opt = opt or MmaOptimizer(1)
        for x in xs:
            opt.step(np.array([x]), np.array([1.0]), -1.0, np.zeros(1))
        return opt

    def test_oscillation_contracts_and_monotonicity_expands(self):
        # oscillating iterates shrink the asymptote gap by 0.7
        opt = self._run_history([0.0, 0.01, 0.0])
        gap_after_osc = float(opt.upp[0] - opt.low[0])
        # third step: distances 0.7 * previous around the new point
        assert gap_after_osc == pytest.approx(2 * 0.7 * 1.0, rel=1e-12)

        opt = self._run_history([0.0, 0.01, 0.02])
        gap_after_mono = float(opt.upp[0] - opt.low[0])
        assert gap_after_mono == pytest.approx(2 * 1.2 * 1.0, rel=1e-12)

    def test_asymptote_distance_is_clamped(self):
        opt = MmaOptimizer(1)
        x = 0.0
        # long oscillation: gap would shrink as 0.7^k without the floor
        for k in range(40):
            x = 0.01 * (k % 2)
            opt.step(np.array([x]), np.array([1.0]), -1.0, np.zeros(1))
        assert opt.low[0] >= x - 10.0 * 2.0 - 1e-12
        assert x - opt.low[0] >= 0.01 * 2.0 - 1e-12
        assert opt.upp[0] - x >= 0.01 * 2.0 - 1e-12


class TestValidation:
    def test_rejects_non_finite(self):
        opt = MmaOptimizer(2)
        with pytest.raises(ValueError, match="non-finite"):
            opt.step(np.array([0.0, np.nan]), np.zeros(2), 0.0, np.zeros(2))
        with pytest.raises(ValueError, match="non-finite"):
            opt.step(np.zeros(2), np.array([np.inf, 0.0]), 0.0, np.zeros(2))
        with pytest.raises(ValueError, match="fval"):
            opt.step(np.zeros(2), np.zeros(2), np.nan, np.zeros(2))

    def test_rejects_wrong_shape(self):
        opt = MmaOptimizer(3)
        with pytest.raises(ValueError, match="shape"):
            opt.step(np.zeros(2), np.zeros(3), 0.0, np.zeros(3))

    def test_error_type_is_numerical(self):
        from igtop.errors import NumericalError
        assert issubclass(MmaStepError, NumericalError)


class TestDeterminism:
    def test_identical_runs_bitwise_equal(self):
        def run():
            opt = MmaOptimizer(4)
            x = np.linspace(-0.3, 0.3, 4)
            out = []
            for _ in range(10):
                _, g = quad_obj(x, 0.1)
                x = opt.step(x, g, float(x.mean()), np.ones(4) / 4)
                out.append(x.copy())
            return np.array(out)

        a, b = run(), run()
        assert np.array_equal(a, b)
