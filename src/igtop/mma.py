"""Method of moving asymptotes for one inequality constraint.

Sequential convex programming: each step builds a separable rational
approximation of objective and constraint around the current point, whose
curvature is controlled by per-variable asymptotes, and solves it exactly
through its one-dimensional dual. Asymptotes widen while the iterate moves
monotonically and contract when it oscillates.

The constraint is relaxed with an elastic variable y >= 0 priced at
c*y + d*y^2/2 (c = 10, d = 1), so the subproblem is always feasible; with c
well above the constraint's dual price the optimizer drives y to zero and
the constraint binds exactly. Intended for objectives scaled to order one.
"""

from __future__ import annotations

import numpy as np

from .errors import MmaStepError

_ASY_INIT = 0.5
_ASY_SHRINK = 0.7
_ASY_GROW = 1.2
_ASY_MIN = 0.01
_ASY_MAX = 10.0
_ALBEFA = 0.1
_RAA0 = 1e-5
_DUAL_TOL = 1e-9
_RELAX_C = 10.0
_RELAX_D = 1.0

# the design box
S_MIN, S_MAX = -1.0, 1.0
_RANGE = S_MAX - S_MIN


class MmaOptimizer:
    """Stateful MMA update for minimization over the box
    [S_MIN, S_MAX]^n with one constraint.

    Parameters
    ----------
    n : int
        Number of design variables.
    move_limit : float
        Hard cap on the per-variable step, in absolute variable units.
    """

    def __init__(self, n: int, move_limit: float = 0.01):
        self.n = int(n)
        if not move_limit > 0.0:
            raise ValueError("move_limit must be positive")
        self.move_limit = float(move_limit)
        self.low = None
        self.upp = None
        self.xold1 = None
        self.xold2 = None
        self.iteration = 0
        self.lam = 0.0
        self.y = 0.0

    def _update_asymptotes(self, x: np.ndarray) -> None:
        if self.iteration < 2:
            self.low = x - _ASY_INIT * _RANGE
            self.upp = x + _ASY_INIT * _RANGE
            return
        trend = (x - self.xold1) * (self.xold1 - self.xold2)
        factor = np.ones(self.n)
        factor[trend < 0.0] = _ASY_SHRINK
        factor[trend > 0.0] = _ASY_GROW
        low = x - factor * (self.xold1 - self.low)
        upp = x + factor * (self.upp - self.xold1)
        self.low = np.clip(low, x - _ASY_MAX * _RANGE,
                           x - _ASY_MIN * _RANGE)
        self.upp = np.clip(upp, x + _ASY_MIN * _RANGE,
                           x + _ASY_MAX * _RANGE)

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
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        if not np.isfinite(fval):
            raise ValueError("fval is not finite")

        self._update_asymptotes(x)
        low, upp = self.low, self.upp

        alpha = np.maximum(np.maximum(S_MIN, low + _ALBEFA * (x - low)),
                           x - self.move_limit)
        beta = np.minimum(np.minimum(S_MAX, upp - _ALBEFA * (upp - x)),
                          x + self.move_limit)

        ux = upp - x
        xl = x - low
        base = _RAA0 / _RANGE
        p0 = ux ** 2 * (np.maximum(df0dx, 0.0)
                        + 0.001 * np.abs(df0dx) + base)
        q0 = xl ** 2 * (np.maximum(-df0dx, 0.0)
                        + 0.001 * np.abs(df0dx) + base)
        p1 = ux ** 2 * np.maximum(dfdx, 0.0)
        q1 = xl ** 2 * np.maximum(-dfdx, 0.0)
        # rhs that makes the approximation interpolate fval at x
        b = float(np.sum(p1 / ux + q1 / xl)) - fval

        def primal(lam: float) -> np.ndarray:
            plam = p0 + lam * p1
            qlam = q0 + lam * q1
            sp = np.sqrt(plam)
            sq = np.sqrt(qlam)
            xs = (sp * low + sq * upp) / (sp + sq)
            return np.clip(xs, alpha, beta)

        def dual_slope(lam: float) -> float:
            xs = primal(lam)
            y = max(0.0, (lam - _RELAX_C) / _RELAX_D)
            return float(np.sum(p1 / (upp - xs) + q1 / (xs - low))) - b - y

        lam = 0.0
        if dual_slope(0.0) > 0.0:
            # on [alpha, beta] the slope is at most bound - b - y(lam), so
            # y(hi) = 1 + max(0, bound - b) makes it negative at hi
            bound = float(np.sum(p1 / (upp - beta) + q1 / (alpha - low)))
            hi = _RELAX_C + _RELAX_D * (1.0 + max(0.0, bound - b))
            lo = 0.0
            for _ in range(200):
                lam = 0.5 * (lo + hi)
                if dual_slope(lam) > 0.0:
                    lo = lam
                else:
                    hi = lam
                if hi - lo <= 1e-14 * max(1.0, hi):
                    break
            lam = 0.5 * (lo + hi)

        slope = dual_slope(lam)
        # complementarity and feasibility of the convex subproblem
        residual = max(abs(lam * slope) / (1.0 + lam), max(0.0, slope))
        if residual > _DUAL_TOL:
            raise MmaStepError(
                f"dual solve left KKT residual {residual:.3e} > {_DUAL_TOL}")

        xnew = primal(lam)
        self.lam = lam
        self.y = max(0.0, (lam - _RELAX_C) / _RELAX_D)
        self.xold2 = self.xold1
        self.xold1 = x.copy()
        self.iteration += 1
        return xnew
