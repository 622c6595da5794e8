"""Bounded-variable primal simplex for max c @ x, A @ x <= b, x in [0,1]^n.

The solver works on the equality system A x + s = b with structural
variables boxed in [lb, ub] (default [0, 1]) and slacks in [0, inf).  The
basis is an m x m submatrix, refactorized every pivot; with m <= ~10 and n
up to a few thousand this is cheap and numerically clean.  Pricing uses the
largest-reduced-cost rule and falls back to Bland's rule for the rest of a
phase after a run of degenerate pivots, which guarantees termination.

Every solve starts from a crash point (Bixby 1992): each free structural
with c_j > 0 at its upper bound, every other structural at its lower bound,
and the slacks basic, with a phase one for the rows that point violates.
A structural fixed by its box is never started at its upper bound.
Branch-and-bound children are solves of the same kind under tightened
bounds; there is one start rule.

Each solve builds one system [A | I | artificials] and one simplex on it;
phase one and phase two are two runs of that simplex and share its basis,
its nonbasic status and one pivot budget.

Returned solutions carry the optimal basic primal point, the dual vector,
reduced costs, and the support partition (variables at 0, at 1, fractional)
computed by `support_partition`, the one place that classifies it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Instance
from .rng import RngHandle, conditioned_column

__all__ = [
    "LpSolution",
    "GapBreakdown",
    "InfeasibleError",
    "IterationLimitError",
    "solve_lp",
    "solve_box_lp",
    "support_partition",
    "dual_value",
    "gap_formula",
    "resample_zero_column",
]

RC_TOL = 1e-9          # reduced-cost optimality tolerance
FEAS_TOL = 1e-9        # bound violation tolerance for basic values
PIV_TOL = 1e-11        # entries below this never pivot
CLASSIFY_TOL = 1e-9    # distance to {0,1} for the support partition
STALL_LIMIT = 100      # degenerate pivots before switching to Bland's rule

_AT_LOWER, _AT_UPPER, _BASIC = 0, 1, 2


class InfeasibleError(Exception):
    """The LP has no feasible point.

    Carries a Farkas certificate: u >= 0 whose aggregated row u @ A cannot
    stay below u @ b anywhere in the box.
    """

    def __init__(self, message: str, farkas_u: np.ndarray | None = None):
        super().__init__(message)
        self.farkas_u = farkas_u


class IterationLimitError(Exception):
    """Pivot budget exhausted before reaching optimality."""


@dataclass(frozen=True)
class GapBreakdown:
    """Primal-dual gap split into slack and cost contributions.

    total is slack_term + cost_term exactly as computed and agrees with
    dual_value(u) - c @ x up to roundoff.
    """

    slack_term: float
    cost_term: float
    total: float


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Optimal basic solution with duals and support partition.

    The partition n0/n1/s is `support_partition(x_star)`.
    """

    x_star: np.ndarray
    value: float
    u_star: np.ndarray
    reduced_costs: np.ndarray
    n0: np.ndarray
    n1: np.ndarray
    s: np.ndarray
    pivots: int


class _Simplex:
    """The system mat x = rhs, low <= x <= upp, its basis and one pivot budget.

    Each run(gamma) maximizes gamma @ x from the current basis and status.
    """

    def __init__(self, mat, rhs, lower, upper, basis, status, max_pivots):
        self.mat = mat
        self.rhs = rhs
        self.lower = lower
        self.upper = upper
        self.basis = list(basis)
        self.status = status
        self.max_pivots = max(int(max_pivots), 1)
        self.pivots = 0

    def _nonbasic_point(self):
        x_n = np.where(self.status == _AT_UPPER, self.upper, self.lower)
        x_n[self.basis] = 0.0
        return x_n

    def run(self, gamma):
        free = (self.upper - self.lower) > PIV_TOL
        self.bland = False
        self.stall = 0
        while True:
            bmat = self.mat[:, self.basis]
            x_n = self._nonbasic_point()
            try:
                xb = np.linalg.solve(bmat, self.rhs - self.mat @ x_n)
                y = np.linalg.solve(bmat.T, gamma[self.basis])
            except np.linalg.LinAlgError:
                raise ArithmeticError("simplex basis became singular") from None
            d = gamma - self.mat.T @ y
            up = (self.status == _AT_LOWER) & free & (d > RC_TOL)
            dn = (self.status == _AT_UPPER) & free & (d < -RC_TOL)
            eligible = np.flatnonzero(up | dn)
            if eligible.size == 0:
                x_n[self.basis] = xb
                return x_n, y
            if self.bland:
                e = int(eligible[0])
            else:
                e = int(eligible[np.argmax(np.abs(d[eligible]))])
            self._pivot(bmat, xb, e, 1.0 if up[e] else -1.0)
            self.pivots += 1
            if self.pivots >= self.max_pivots:
                raise IterationLimitError(
                    f"pivot budget of {self.max_pivots} exhausted"
                )

    def _pivot(self, bmat, xb, e, direction):
        w = np.linalg.solve(bmat, self.mat[:, e])
        delta = direction * w  # basic values move by -t * delta for step t
        lo_b = self.lower[self.basis]
        up_b = self.upper[self.basis]
        t_cand = np.full(delta.shape, np.inf)
        shrink = delta > PIV_TOL
        grow = delta < -PIV_TOL
        t_cand[shrink] = (xb[shrink] - lo_b[shrink]) / delta[shrink]
        t_cand[grow] = (up_b[grow] - xb[grow]) / (-delta[grow])
        t_cand = np.maximum(t_cand, 0.0)
        t_min = float(t_cand.min())
        t_bound = self.upper[e] - self.lower[e]
        if not np.isfinite(min(t_bound, t_min)):
            raise ArithmeticError("unbounded improving direction in a box LP")
        if t_bound <= t_min:
            # bound flip: the entering variable crosses its box, basis unchanged
            self.status[e] = _AT_UPPER if direction > 0 else _AT_LOWER
            step = t_bound
        else:
            ties = np.flatnonzero(t_cand <= t_min + FEAS_TOL)
            if self.bland:
                pos = int(ties[np.argmin(np.asarray(self.basis)[ties])])
            else:
                pos = int(ties[np.argmax(np.abs(delta[ties]))])
            leave = self.basis[pos]
            self.status[leave] = _AT_LOWER if delta[pos] > 0 else _AT_UPPER
            self.basis[pos] = e
            self.status[e] = _BASIC
            step = t_min
        if step <= 1e-12:
            self.stall += 1
            if self.stall >= STALL_LIMIT:
                self.bland = True
        else:
            self.stall = 0


@dataclass(frozen=True, eq=False)
class _BoxResult:
    x: np.ndarray
    value: float
    y: np.ndarray
    pivots: int


def solve_box_lp(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
    *,
    max_pivots: int | None = None,
) -> _BoxResult:
    """Maximize c @ x over A x <= b, lower <= x <= upper (defaults [0,1]^n).

    The start point x0 puts each free structural (upper - lower above the
    pivot tolerance) with c_j > 0 at its upper bound and every other one at
    its lower bound, with the slacks basic.  Each row j with b - A x0 <
    -FEAS_TOL gets an artificial column -e_j, basic in place of its slack;
    phase one drives their sum to zero, then phase two maximizes c.  When no
    row needs it, the reduced costs at the start are c itself, so x0 is
    optimal and the solve takes no pivot.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = a.shape
    lower = np.zeros(n) if lower is None else np.asarray(lower, dtype=float)
    upper = np.ones(n) if upper is None else np.asarray(upper, dtype=float)
    if np.any(lower > upper + 1e-15):
        raise ValueError("lower bound exceeds upper bound")
    if max_pivots is None:
        max_pivots = 50 * (n + m)

    start_up = (c > 0.0) & (upper - lower > PIV_TOL)
    bad = np.flatnonzero(b - a @ np.where(start_up, upper, lower) < -FEAS_TOL)
    n_art = bad.size
    art_cols = np.zeros((m, n_art))
    art_cols[bad, np.arange(n_art)] = -1.0
    mat = np.hstack([a, np.eye(m), art_cols])
    low = np.concatenate([lower, np.zeros(m + n_art)])
    upp = np.concatenate([upper, np.full(m + n_art, np.inf)])
    status = np.full(n + m + n_art, _AT_LOWER, dtype=np.int8)
    status[:n][start_up] = _AT_UPPER
    basis = np.arange(n, n + m)
    basis[bad] = np.arange(n + m, n + m + n_art)
    status[basis] = _BASIC
    core = _Simplex(mat, b, low, upp, basis.tolist(), status, max_pivots)

    if n_art:
        phase_one = np.zeros(n + m + n_art)
        phase_one[n + m:] = -1.0
        x_full, y = core.run(phase_one)
        if float(np.sum(x_full[n + m:])) > 1e-7:
            u = np.maximum(y, 0.0)
            w = a.T @ u  # aggregated row; margin = its box minimum - b @ u
            margin = float(np.sum(np.minimum(w * lower, w * upper))) - float(b @ u)
            raise InfeasibleError(
                f"LP infeasible: aggregated row violates the box by {margin:.3e}",
                farkas_u=u,
            )
        # pin the artificials at zero; a degenerate basic artificial stays
        # harmlessly fixed and never re-enters
        upp[n + m:] = 0.0

    x_full, y = core.run(np.concatenate([c, np.zeros(m + n_art)]))
    x = np.clip(x_full[:n], lower, upper)
    return _BoxResult(x=x, value=float(c @ x), y=y, pivots=core.pivots)


def _check_optimum(instance, x, u, value, r):
    """Primal feasibility, strong duality and complementary slackness of
    (x, u), whose reduced costs are r = c - A' u."""
    a, b = instance.A, instance.b
    if np.any(a @ x > b + 1e-7):
        raise ArithmeticError("optimal point violates A x <= b beyond tolerance")
    dv = float(b @ u + np.sum(np.maximum(r, 0.0)))  # dual_value(u, instance)
    if abs(value - dv) > 1e-7 * (1.0 + abs(value)):
        raise ArithmeticError(
            f"strong duality violated: primal {value!r} vs dual {dv!r}"
        )
    if np.any(x * np.maximum(-r, 0.0) > 1e-7) or np.any(
        (1.0 - x) * np.maximum(r, 0.0) > 1e-7
    ):
        raise ArithmeticError("complementary slackness violated on variables")
    if np.any(u * (b - a @ x) > 1e-7):
        raise ArithmeticError("complementary slackness violated on rows")


def support_partition(x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices of x at 0, at 1 and strictly between, within CLASSIFY_TOL."""
    x = np.asarray(x, dtype=float)
    n0 = np.flatnonzero(x <= CLASSIFY_TOL)
    n1 = np.flatnonzero(x >= 1.0 - CLASSIFY_TOL)
    s = np.flatnonzero((x > CLASSIFY_TOL) & (x < 1.0 - CLASSIFY_TOL))
    return n0, n1, s


def solve_lp(
    instance: Instance,
    *,
    max_pivots: int | None = None,
) -> LpSolution:
    """Optimal basic solution of the box relaxation of `instance`.

    Raises InfeasibleError (with a Farkas certificate) when no x in [0,1]^n
    satisfies A x <= b, and IterationLimitError past the pivot budget.
    """
    res = solve_box_lp(instance.A, instance.b, instance.c, max_pivots=max_pivots)
    y = res.y
    if np.any(y < -1e-7):
        raise ArithmeticError("negative dual beyond roundoff tolerance")
    u = np.where(y > 0.0, y, 0.0)
    x = res.x
    reduced_costs = instance.c - instance.A.T @ u
    _check_optimum(instance, x, u, res.value, reduced_costs)
    n0, n1, frac = support_partition(x)
    if frac.size > instance.m:
        raise ArithmeticError("more fractional coordinates than constraints")
    return LpSolution(
        x_star=x,
        value=res.value,
        u_star=u,
        reduced_costs=reduced_costs,
        n0=n0,
        n1=n1,
        s=frac,
        pivots=res.pivots,
    )


def dual_value(u, instance: Instance) -> float:
    """b @ u plus the summed positive part of c - A' u, the dual objective."""
    u = np.asarray(u, dtype=float)
    if np.any(u < 0.0):
        raise ValueError("dual vector must be nonnegative")
    r = instance.c - instance.A.T @ u
    return float(instance.b @ u + np.sum(np.maximum(r, 0.0)))


def gap_formula(x, u, instance: Instance) -> GapBreakdown:
    """Primal-dual gap of (x, u), split into slack and cost terms.

    Evaluates both the defining expression dual_value(u) - c @ x and its
    expansion (b - A x) @ u + sum_i [x_i (A'u - c)_i^+ + (1 - x_i)(c - A'u)_i^+]
    and cross-checks that they agree to 1e-9 * (1 + |total|).
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if np.any(x < -1e-12) or np.any(x > 1.0 + 1e-12):
        raise ValueError("x must lie in [0, 1]^n")
    if np.any(u < 0.0):
        raise ValueError("u must be nonnegative")
    a, b, c = instance.A, instance.b, instance.c
    r = c - a.T @ u
    slack_term = float((b - a @ x) @ u)
    cost_term = float(
        np.sum(x * np.maximum(-r, 0.0) + (1.0 - x) * np.maximum(r, 0.0))
    )
    total = slack_term + cost_term
    definition = dual_value(u, instance) - float(c @ x)
    if abs(definition - total) > 1e-9 * (1.0 + abs(total)):
        raise ArithmeticError(f"gap formula mismatch: {definition!r} vs {total!r}")
    return GapBreakdown(slack_term=slack_term, cost_term=cost_term, total=total)


def resample_zero_column(
    instance: Instance, lp_solution: LpSolution, i: int, rng: RngHandle
) -> Instance:
    """Copy of the instance with column i redrawn from the conditional law.

    i must be at zero in the given solution; the fresh (c_i, A[:, i]) is a
    standard normal vector conditioned on a nonpositive reduced cost under
    the solution's dual vector.
    """
    if int(i) not in set(int(j) for j in lp_solution.n0):
        raise ValueError(f"column {i} is not at zero in the given solution")
    c_i, a_col = conditioned_column(lp_solution.u_star, rng)
    return instance.with_column(int(i), c_i, a_col)
