"""Method of moving asymptotes for one inequality constraint.

Sequential convex programming: each step builds a separable rational
approximation of objective and constraint around the current point, whose
curvature is controlled by per-variable asymptotes, and solves it exactly
through its one-dimensional dual. Asymptotes widen while the iterate moves
monotonically and contract when it oscillates.

Each variable also keeps its own move limit, read by the same two-step sign
rule: from the third step on it grows by the asymptotes' factor 1.2 where
the variable's last two steps agreed and shrinks by 0.7 where they
reversed, within [0.005, 1] times the optimizer's ``move_limit``. The
asymptotes alone cannot shorten a step: they stay at least 0.02 from x, so
the bound they set lies at least 0.018 away, and a move limit of 0.01
binds first, however often the variable oscillates.

The constraint is relaxed with an elastic variable y >= 0 priced at
c*y + d*y^2/2 (c = 10, d = 1), so the subproblem is always feasible; with c
well above the constraint's dual price the optimizer drives y to zero and
the constraint binds exactly. Intended for objectives scaled to order one.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import MmaStepError, finite_number

_ASY_INIT = 0.5
_ASY_SHRINK = 0.7
_ASY_GROW = 1.2
_ASY_MIN = 0.01
_ASY_MAX = 10.0
# floor of a variable's own move limit, as a share of move_limit
_MOVE_MIN = 0.005
_ALBEFA = 0.1
_RAA0 = 1e-5
_DUAL_TOL = 1e-9
_RELAX_C = 10.0
_RELAX_D = 1.0

# the design box
S_MIN, S_MAX = -1.0, 1.0
_RANGE = S_MAX - S_MIN


def _kkt_residual(lam: float, slope: float) -> float:
    """Complementarity and feasibility of the convex subproblem at a
    multiplier ``lam`` with dual slope ``slope``."""
    return max(abs(lam * slope) / (1.0 + lam), max(0.0, slope))


class MmaOptimizer:
    """Stateful MMA update for minimization over the box
    [S_MIN, S_MAX]^n with one constraint.

    Parameters
    ----------
    n : int
        Number of design variables.
    move_limit : float
        Hard cap on the per-variable step, in absolute variable units, and
        the first two steps' limit. Each variable's limit ``move[i]`` then
        follows its own last two steps (see the module docstring).
    """

    def __init__(self, n: int, move_limit: float = 0.01):
        if not (finite_number(numbers.Integral, n) and n >= 1):
            raise ValueError(f"n must be a positive integer, got {n!r}")
        self.n = int(n)
        if not (finite_number(numbers.Real, move_limit) and move_limit > 0.0):
            raise ValueError("move_limit must be finite and positive, got "
                             f"{move_limit!r}")
        self.move_limit = float(move_limit)
        self.low = None
        self.upp = None
        self.move = None
        self.xold1 = None
        self.xold2 = None
        self.iteration = 0
        self.lam = 0.0
        self.y = 0.0

    def _update_asymptotes(self, x: np.ndarray) -> None:
        """Asymptotes and per-variable move limits for a step from ``x``."""
        if self.iteration < 2:
            self.low = x - _ASY_INIT * _RANGE
            self.upp = x + _ASY_INIT * _RANGE
            self.move = np.full(self.n, self.move_limit)
            return
        trend = (x - self.xold1) * (self.xold1 - self.xold2)
        factor = np.where(trend < 0.0, _ASY_SHRINK,
                          np.where(trend > 0.0, _ASY_GROW, 1.0))
        # clamping the distance to x clamps the asymptote to the same bits,
        # since rounding is monotone; np.minimum(np.maximum(...)) is
        # np.clip for finite values, at a third of the cost
        lo_min, lo_max = _ASY_MIN * _RANGE, _ASY_MAX * _RANGE
        self.low = x - np.minimum(np.maximum(
            factor * (self.xold1 - self.low), lo_min), lo_max)
        self.upp = x + np.minimum(np.maximum(
            factor * (self.upp - self.xold1), lo_min), lo_max)
        self.move = np.minimum(np.maximum(
            factor * self.move, _MOVE_MIN * self.move_limit), self.move_limit)

    def step(self, x, df0dx, fval: float, dfdx) -> np.ndarray:
        """One design update.

        ``df0dx`` is the objective gradient, ``fval`` the constraint value
        (feasible iff <= 0) and ``dfdx`` its gradient, all at ``x``.
        """
        x = np.asarray(x, dtype=float)
        df0dx = np.asarray(df0dx, dtype=float)
        dfdx = np.asarray(dfdx, dtype=float)
        for name, arr in (("x", x), ("df0dx", df0dx), ("dfdx", dfdx)):
            if arr.shape != (self.n,):
                raise ValueError(f"{name} has shape {arr.shape}, "
                                 f"expected ({self.n},)")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite entries")
        if not math.isfinite(fval):
            raise ValueError("fval is not finite")

        self._update_asymptotes(x)
        low, upp = self.low, self.upp

        alpha = np.maximum(np.maximum(S_MIN, low + _ALBEFA * (x - low)),
                           x - self.move)
        beta = np.minimum(np.minimum(S_MAX, upp - _ALBEFA * (upp - x)),
                          x + self.move)

        ux = upp - x
        xl = x - low
        ux2 = ux * ux
        xl2 = xl * xl
        damp = 0.001 * np.abs(df0dx)
        base = _RAA0 / _RANGE
        p0 = ux2 * (np.maximum(df0dx, 0.0) + damp + base)
        q0 = xl2 * (np.maximum(-df0dx, 0.0) + damp + base)
        p1 = ux2 * np.maximum(dfdx, 0.0)
        q1 = xl2 * np.maximum(-dfdx, 0.0)
        # rhs that makes the approximation interpolate fval at x
        b = float((p1 / ux + q1 / xl).sum()) - fval
        # Inside (alpha, beta) the primal x(lam) solves
        # plam/(U-x)^2 = qlam/(x-L)^2, so dx/dlam = -a/h with
        # a = p1/(U-x)^2 - q1/(x-L)^2 and h = 2 (plam/(U-x)^3 + qlam/(x-L)^3),
        # and the slope's derivative is -sum(a^2/h). Substituting
        # U-x = (U-L) sp/(sp+sq) and x-L = (U-L) sq/(sp+sq) reduces each
        # term to curv / (sp sq)^3 with a constant numerator:
        curv = (p1 * q0 - q1 * p0) ** 2 / (2.0 * (upp - low))

        def evaluate(lam: float):
            """Primal minimizer at ``lam``, the dual slope there and the
            slope's derivative (clipped variables do not move)."""
            sp = np.sqrt(p0 + lam * p1)
            sq = np.sqrt(q0 + lam * q1)
            xs = (sp * low + sq * upp) / (sp + sq)
            xc = np.minimum(np.maximum(xs, alpha), beta)
            y = max(0.0, (lam - _RELAX_C) / _RELAX_D)
            slope = float((p1 / (upp - xc) + q1 / (xc - low)).sum()) - b - y
            spq = sp * sq
            dslope = -float((curv / (spq * spq * spq)).sum(
                where=(xs > alpha) & (xs < beta)))
            if lam > _RELAX_C:
                dslope -= 1.0 / _RELAX_D
            return xc, slope, dslope

        # on [alpha, beta] the slope is at most bound - b - y(lam), so
        # y(hi) = 1 + max(0, bound - b) makes it negative at hi
        bound = float((p1 / (upp - beta) + q1 / (alpha - low)).sum())
        lo = 0.0
        hi = _RELAX_C + _RELAX_D * (1.0 + max(0.0, bound - b))
        # safeguarded Newton from the last step's multiplier: a step that
        # leaves the bracket is replaced by bisection, except that the first
        # step to fall at or below zero tries lam = 0, the inactive case; the
        # search ends where the next step would be within the tolerance and
        # the KKT residual already meets its own
        lam = min(max(self.lam, lo), hi)
        xnew, slope, dslope = evaluate(lam)
        zero_tried = lam == 0.0
        for _ in range(200):
            if slope > 0.0:
                lo = lam
            else:
                hi = lam
            tol = 1e-14 * max(1.0, hi)
            if hi - lo <= tol or slope == 0.0:
                break
            nxt = lo  # no Newton step where the slope is flat
            if dslope < 0.0:
                nxt = lam - slope / dslope
                if (abs(nxt - lam) <= tol
                        and _kkt_residual(lam, slope) <= _DUAL_TOL):
                    break
            if nxt <= 0.0 and not zero_tried:
                nxt, zero_tried = 0.0, True
            elif not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
            lam = nxt
            xnew, slope, dslope = evaluate(lam)

        residual = _kkt_residual(lam, slope)
        if residual > _DUAL_TOL:
            raise MmaStepError(
                f"dual solve left KKT residual {residual:.3e} > {_DUAL_TOL}")

        self.lam = lam
        self.y = max(0.0, (lam - _RELAX_C) / _RELAX_D)
        self.xold2 = self.xold1
        self.xold1 = x.copy()
        self.iteration += 1
        return xnew
