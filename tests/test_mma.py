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


def reference_dual(x, df0dx, fval, dfdx, move_limit):
    """The subproblem of a step taken while the asymptotes are still at
    x -+ 1 (the first two steps): its dual slope g(lam), and the multiplier
    found by plain doubling and bisection on g."""
    low, upp = x - 1.0, x + 1.0
    alpha = np.maximum.reduce([np.full_like(x, S_MIN), low + 0.1 * (x - low),
                               x - move_limit])
    beta = np.minimum.reduce([np.full_like(x, S_MAX), upp - 0.1 * (upp - x),
                              x + move_limit])
    ux, xl = upp - x, x - low
    p0 = ux ** 2 * (np.maximum(df0dx, 0) + 0.001 * np.abs(df0dx) + 5e-6)
    q0 = xl ** 2 * (np.maximum(-df0dx, 0) + 0.001 * np.abs(df0dx) + 5e-6)
    p1 = ux ** 2 * np.maximum(dfdx, 0)
    q1 = xl ** 2 * np.maximum(-dfdx, 0)
    b = np.sum(p1 / ux + q1 / xl) - fval

    def slope(lam):
        sp, sq = np.sqrt(p0 + lam * p1), np.sqrt(q0 + lam * q1)
        xs = np.clip((sp * low + sq * upp) / (sp + sq), alpha, beta)
        return np.sum(p1 / (upp - xs) + q1 / (xs - low)) - b \
            - max(0.0, lam - 10.0)

    if slope(0.0) <= 0.0:
        return 0.0, slope
    lo, hi = 0.0, 1.0
    while slope(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if slope(mid) > 0.0 else (lo, mid)
    return 0.5 * (lo + hi), slope


# (df0dx, fval, dfdx) ranges that put the multiplier in one branch of the
# dual: zero (feasible by more than one move can use), interior (the
# objective pushes x up, a constraint met within the move limit pushes it
# down), and relaxed (the elastic variable y > 0 takes what one move cannot)
DUAL_BRANCHES = {
    "zero": ((-1.0, 1.0), (-1.0, -0.5), (-1.0, 1.0)),
    "interior": ((-1.0, -0.1), (0.0, 1e-3), (0.2, 1.0)),
    "relaxed": ((-1.0, 1.0), (10.0, 1e3), (1e-3, 1e-2)),
}


@st.composite
def subproblem(draw, n, branch):
    (g_lo, g_hi), (f_lo, f_hi), (d_lo, d_hi) = DUAL_BRANCHES[branch]

    def vector(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n,
                                      max_size=n)))

    # x stays off the box: at x = S_MAX with fval = 0 and x pushed up, the
    # slope is zero on a whole interval of multipliers, every one of them
    # exact, and bisection and Newton may pick different ones
    return (vector(-0.95, 0.95), vector(g_lo, g_hi),
            draw(st.floats(f_lo, f_hi)), vector(d_lo, d_hi))


class TestDualSolve:
    @pytest.mark.parametrize("branch", sorted(DUAL_BRANCHES))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_multiplier_meets_kkt_and_matches_bisection(self, branch, data):
        # a first step of any branch leaves the multiplier the Newton
        # search of the second step starts from
        n = data.draw(st.integers(1, 12))
        opt = MmaOptimizer(n)
        opt.step(*data.draw(subproblem(
            n, data.draw(st.sampled_from(sorted(DUAL_BRANCHES))))))
        problem = data.draw(subproblem(n, branch))
        opt.step(*problem)

        ref, slope = reference_dual(*problem, opt.move_limit)
        lam = opt.lam
        g = slope(lam)
        assert max(abs(lam * g) / (1.0 + lam), g) <= 1e-9
        assert abs(lam - ref) <= 1e-12 * ref
        if branch == "zero":
            assert lam == 0.0
        elif branch == "interior":
            assert 0.0 < lam <= 10.0 and opt.y == 0.0
        else:
            assert opt.y > 0.0 and opt.y == pytest.approx(lam - 10.0)


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


class TestMoveLimits:
    """Each variable's move limit follows the sign of its last two steps,
    as the asymptotes do, within [0.005, 1] x move_limit."""

    def _run_history(self, rows, move_limit=0.01):
        opt = MmaOptimizer(len(rows[0]), move_limit=move_limit)
        for x in rows:
            opt.step(np.array(x), np.ones(len(x)), -1.0, np.zeros(len(x)))
        return opt

    def test_first_two_steps_use_move_limit(self):
        opt = MmaOptimizer(3, move_limit=0.02)
        x = np.zeros(3)
        for g in (1e6, -1e6):
            xnew = opt.step(x, np.full(3, g), -1.0, np.zeros(3))
            np.testing.assert_array_equal(opt.move, np.full(3, 0.02))
            np.testing.assert_allclose(np.abs(xnew - x), 0.02, rtol=1e-6)
            x = xnew

    def test_reversal_shrinks_and_agreement_grows(self):
        # all three reverse at the third step; at the fourth variable 0
        # reverses again, variable 1 agrees and variable 2 stands still
        opt = self._run_history([[0.0, 0.0, 0.3], [0.01, 0.01, 0.31],
                                 [0.0, 0.0, 0.3]])
        np.testing.assert_allclose(opt.move, [0.007, 0.007, 0.007],
                                   rtol=1e-15)
        opt.step(np.array([0.01, -0.01, 0.3]), np.ones(3), -1.0,
                 np.zeros(3))
        np.testing.assert_allclose(opt.move, [0.0049, 0.0084, 0.007],
                                   rtol=1e-15)

    def test_limits_are_clipped_to_their_band(self):
        oscillating = [[0.01 * (k % 2)] for k in range(40)]
        opt = self._run_history(oscillating, move_limit=0.04)
        assert opt.move[0] == 0.005 * 0.04
        monotone = [[0.01 * k] for k in range(40)]
        opt = self._run_history(monotone, move_limit=0.04)
        assert opt.move[0] == 0.04

    def test_no_step_exceeds_its_limit(self):
        # a gradient far above any curvature puts every step on its limit;
        # its sign flips each step, so the limits shrink from the third on
        opt = MmaOptimizer(2, move_limit=0.01)
        x = np.array([0.1, -0.2])
        for k in range(12):
            g = np.array([1e6, -1e6]) * (-1.0) ** k
            xnew = opt.step(x, g, -1.0, np.zeros(2))
            np.testing.assert_allclose(opt.move, 0.01 * 0.7 ** max(0, k - 1),
                                       rtol=1e-12)
            np.testing.assert_allclose(np.abs(xnew - x), opt.move,
                                       rtol=1e-6)
            assert np.all(np.abs(xnew - x) <= opt.move * (1 + 1e-12))
            x = xnew

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.lists(
        st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
        min_size=3, max_size=8)))
    def test_random_steps_stay_within_their_limits(self, gradients):
        n = len(gradients[0])
        opt = MmaOptimizer(n)
        x = np.zeros(n)
        for g in gradients:
            xnew = opt.step(x, np.array(g), -1.0, np.zeros(n))
            assert np.all(np.abs(xnew - x) <= opt.move * (1 + 1e-12))
            assert np.all((opt.move >= 0.005 * opt.move_limit)
                          & (opt.move <= opt.move_limit))
            x = xnew


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

    @pytest.mark.parametrize("move", [np.inf, np.nan, 0.0, -0.01, "0.1",
                                      True, None])
    def test_rejects_move_limit_not_finite_and_positive(self, move):
        with pytest.raises(ValueError, match="finite and positive"):
            MmaOptimizer(2, move_limit=move)

    @pytest.mark.parametrize("n", [2.9, "3", True, 0, -1])
    def test_rejects_n_not_a_positive_integer(self, n):
        with pytest.raises(ValueError, match="positive integer"):
            MmaOptimizer(n)

    def test_takes_a_numpy_integer_n(self):
        opt = MmaOptimizer(np.int64(3))
        assert opt.n == 3 and type(opt.n) is int

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
