"""Bounded dual simplex for max c @ x, A @ x <= b, x in [0,1]^n.

The solver works on the equality system A x + s = b with structural
variables boxed in [lb, ub] (default [0, 1]) and slacks in [0, inf).  It
carries the inverse of the m x m basis matrix (m <= ~10) and updates it by
one rank-one product-form step (Dantzig and Orchard-Hays 1954) on each
basis change; basic values, duals and the pivot row are products with it.
The inverse is computed afresh when a pivot element is too small to
divide by, and before an infeasibility verdict.

Every solve runs bounded dual simplex pivots on the one system [A | I]
from a dual feasible start until the basic values lie inside their
bounds, under one pivot budget.  The basis it ends at is then optimal.
A cold solve starts from a crash point (Bixby 1992): each free
structural with c_j > 0 at its upper bound, every other structural at
its lower bound, and the slacks basic, so the reduced costs are c itself
and have the optimal signs.  A structural fixed by its box is never
started at its upper bound.  Every solve returns its final basis,
nonbasic status, basis inverse and system, and a solve of the same A, b,
c under bounds inside the old ones (a branch-and-bound child) starts from
them instead.  Reduced costs depend on the basis alone, and a column
fixed by the old box stays fixed in the new one, so that start is dual
feasible too.  One rule, `_entering`, says which columns can enter a dual
pivot.  When a violated row has no entering candidate, the bounds are
infeasible, and that row of the basis inverse, solved afresh, is the
Farkas vector of the verdict.

Each solve ends by solving its final basis afresh, and the returned
point and duals come from that solve.  The fresh solve also certifies
the exit: basic values outside their box send the solve back to the
dual simplex on a fresh inverse, binv B - I beyond INV_TOL refactorizes
the inverse for the next solve that starts from it, and a reduced cost
of the wrong sign (a start that was not dual feasible) raises
ArithmeticError.

Every solve, root or child, returns one `LpSolution`: the optimal basic
point, its value and basic duals, the box it was solved under and the
final simplex state.  The dual vector, the reduced costs and the support
partition (variables at 0, at 1, fractional; `support_partition` is the
one place that classifies it) are computed on first read and kept, so a
child that is never expanded never computes them.  `child_bounds(j)`
bounds the values of the two children that fix a basic x_j by one pivot.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
INV_TOL = 1e-10        # max row sum of binv B - I a carried inverse may reach

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
    """Optimal basic solution of one box LP, its duals, the box it was
    solved under and its final simplex state.

    `duals` are the basic duals of the final basis, which roundoff can
    leave slightly below zero; `a` and `c` are the problem's A and c.
    `lower` and `upper` are the structural box, and `free` marks the
    columns of [A | I] whose box is wider than PIV_TOL (every slack).
    `basis` (m column indices), `status` (at lower, at upper or basic for
    each of the n structurals and m slacks), `binv` (the carried inverse
    of the basis matrix, consistent with it to roundoff) and `system` (the
    [A | I] matrix the solve ran on) are the final simplex state; passed
    as `warm_start` to `solve_box_lp`, the solution is where a
    branch-and-bound child re-solves from, and `child_bounds` bounds the
    children's values from it without solving them.

    `u_star` (the positive part of `duals`), `reduced_costs` (c - A' u_star)
    and the partition n0/n1/s (`support_partition(x_star)`) are computed
    on first read and kept.
    """

    x_star: np.ndarray
    value: float
    duals: np.ndarray
    pivots: int
    basis: np.ndarray
    status: np.ndarray
    binv: np.ndarray
    system: np.ndarray
    a: np.ndarray
    c: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    free: np.ndarray

    @cached_property
    def u_star(self) -> np.ndarray:
        return np.where(self.duals > 0.0, self.duals, 0.0)

    @cached_property
    def reduced_costs(self) -> np.ndarray:
        return self.c - self.a.T @ self.u_star

    @cached_property
    def _partition(self):
        return support_partition(self.x_star)

    n0 = property(lambda self: self._partition[0])
    n1 = property(lambda self: self._partition[1])
    s = property(lambda self: self._partition[2])

    def child_bounds(self, j: int) -> tuple[float, float]:
        """Upper bounds (U_down, U_up) on the LP values of the children
        that fix the basic x_j at 0 and at 1, from the ratio test of one
        dual simplex pivot (Driebeek 1966; Tomlin 1971).

        Fixing x_j puts it outside its box by delta (x_j down, 1 - x_j up).
        A column that `_entering` finds moving x_j toward its new box on
        alpha, the row of B^-1 [A | I] where j is basic, moves x_j by
        |alpha_k| per unit and costs |d_k| (d = [c - A'y, -y]).  So U = value
        - delta * min |d_k| / |alpha_k|, widened by 1e-9 (1 + |U|), and -inf
        when no column can enter, as the child LP is then infeasible.
        """
        n = self.x_star.size
        r = self.basis.tolist().index(j)
        alpha, y_cols = np.array([self.binv[r], self.duals]) @ self.system
        d = -y_cols
        d[:n] += self.c
        rise, fall = _entering(alpha, self.status, self.free)
        ratio = np.abs(d) / np.maximum(np.abs(alpha), PIV_TOL)
        bounds = []
        for delta, moves in ((self.x_star[j], fall), (1.0 - self.x_star[j], rise)):
            t = float(ratio.min(where=moves, initial=np.inf))
            u = self.value - delta * t
            bounds.append(u + 1e-9 * (1.0 + abs(u)) if t < np.inf else -np.inf)
        return bounds[0], bounds[1]


def _entering(alpha, status, free):
    """Masks (rise, fall) of the columns that can enter a dual pivot on the
    row alpha of B^-1 [A | I]: nonbasic, free and |alpha_k| > PIV_TOL, split
    by the way they move the row's basic value.  As x_B = B^-1 (b - N x_N),
    entering from lower with alpha_k < 0, or from upper with alpha_k > 0,
    raises it."""
    cand = free & (np.abs(alpha) > PIV_TOL) & (status != _BASIC)
    rises = (alpha > 0.0) == (status == _AT_UPPER)
    return cand & rises, cand & ~rises


class _Simplex:
    """The system mat x = rhs, low <= x <= upp, its basis, the basis
    inverse binv and one pivot budget.

    dual_run(gamma) pivots from a dual feasible basis until it is primal
    feasible too, within the budget, and certify(gamma) solves the basis
    it leaves afresh and returns the optimum.  Basic values, duals and
    pivot rows are products with binv, which one product-form step
    updates per basis change.
    """

    def __init__(self, mat, rhs, lower, upper, basis, status, binv, max_pivots):
        self.mat = mat
        self.rhs = rhs
        self.lower = lower
        self.upper = upper
        self.basis = np.array(basis)
        self.status = status
        self.binv = binv
        self.fresh = False  # binv was just inverted from the current basis
        self.free = (upper - lower) > PIV_TOL
        self.max_pivots = max(int(max_pivots), 1)
        self.pivots = 0

    def _nonbasic_point(self):
        x_n = np.where(self.status == _AT_UPPER, self.upper, self.lower)
        x_n[self.basis] = 0.0
        return x_n

    def _refactor(self):
        try:
            self.binv = np.linalg.inv(self.mat[:, self.basis])
        except np.linalg.LinAlgError:
            raise ArithmeticError("simplex basis became singular") from None
        self.fresh = True

    def _exchange(self, pos, e, w):
        """Column e takes basis position pos, where w = B^-1 a_e under the
        old basis: a product-form step on binv, or a fresh inverse when the
        pivot element w[pos] is too small to divide by."""
        self.basis[pos] = e
        self.status[e] = _BASIC
        if abs(w[pos]) <= PIV_TOL:
            self._refactor()
            return
        row = self.binv[pos] / w[pos]
        self.binv -= np.outer(w, row)
        self.binv[pos] = row
        self.fresh = False

    def dual_run(self, gamma):
        """Bounded dual simplex pivots (Koberstein 2005) until every basic
        value lies within its bounds; the reduced costs of gamma at the
        current basis must have the optimal signs.

        Each pivot takes the basic variable furthest outside its box out
        at the bound it violates.  Of the columns `_entering` finds moving
        it toward that bound on its row alpha of B^-1 [A | I], it enters the
        one that keeps the reduced costs dual feasible (the smallest |d_k| /
        |alpha_k|, the largest |alpha_k| among ties).  Returns None once
        the basis is primal feasible.  When the violated row r has no
        entering candidate, no point of the box can move that basic value
        toward its bound, and the row rho = B^-T e_r proves it: every
        solution has alpha @ z = rho @ b, which no point of the box
        reaches.  The slack entries of alpha are rho itself, so sign * rho
        is nonnegative up to PIV_TOL, and the Farkas vector returned is
        max(sign * rho, 0).  The verdict stands only on a binv inverted
        afresh at the current basis, so a carried binv is refactorized and
        the row taken again first; the returned rho is then solved afresh.
        """
        while True:
            xb = self.binv @ (self.rhs - self.mat @ self._nonbasic_point())
            below = self.lower[self.basis] - xb
            above = xb - self.upper[self.basis]
            r = int(np.argmax(np.maximum(below, above)))
            if max(below[r], above[r]) <= FEAS_TOL:
                return None
            d = gamma - self.mat.T @ (gamma[self.basis] @ self.binv)
            # +1: x_basis[r] must rise to its lower bound; -1: fall to its upper
            sign = 1.0 if below[r] > 0.0 else -1.0
            alpha = self.mat.T @ self.binv[r]
            rise, fall = _entering(alpha, self.status, self.free)
            eligible = np.flatnonzero(rise if sign > 0 else fall)
            if eligible.size == 0:
                if not self.fresh:
                    self._refactor()
                    continue
                try:
                    rho = np.linalg.solve(self.mat[:, self.basis].T,
                                          np.eye(len(self.basis))[r])
                except np.linalg.LinAlgError:
                    raise ArithmeticError("simplex basis became singular") from None
                return np.maximum(sign * rho, 0.0)
            ratios = np.abs(d[eligible]) / np.abs(alpha[eligible])
            ties = eligible[ratios <= ratios.min() + RC_TOL]
            e = int(ties[np.argmax(np.abs(alpha[ties]))])
            self.status[self.basis[r]] = _AT_LOWER if sign > 0 else _AT_UPPER
            self._exchange(r, e, self.binv @ self.mat[:, e])
            self.pivots += 1
            if self.pivots >= self.max_pivots:
                raise IterationLimitError(f"pivot budget of {self.max_pivots} exhausted")

    def certify(self, gamma):
        """Solve the final basis afresh and return (x, y) from that solve.

        The solve also certifies the exit.  A free nonbasic reduced cost of
        gamma with the wrong sign beyond RC_TOL means the start was not
        dual feasible, and raises ArithmeticError naming the column.  When
        the basic values break their box beyond FEAS_TOL, binv is
        refactorized and None is returned, so the dual simplex runs again.
        When binv B - I exceeds INV_TOL, binv is refactorized and the exit
        stands.  A binv inverted afresh since the last basis change is not
        refactorized again, and its exit stands.
        """
        x_n = self._nonbasic_point()
        bmat = self.mat[:, self.basis]
        try:
            xb = np.linalg.solve(bmat, self.rhs - self.mat @ x_n)
            y = np.linalg.solve(bmat.T, gamma[self.basis])
        except np.linalg.LinAlgError:
            raise ArithmeticError("simplex basis became singular") from None
        d = gamma - self.mat.T @ y
        wrong = np.flatnonzero(self.free & (
            ((self.status == _AT_LOWER) & (d > RC_TOL))
            | ((self.status == _AT_UPPER) & (d < -RC_TOL))
        ))
        if wrong.size:
            e = int(wrong[np.argmax(np.abs(d[wrong]))])
            raise ArithmeticError(
                f"dual simplex ended dual infeasible: column {e} "
                f"has reduced cost {float(d[e])!r}"
            )
        outside = np.maximum(self.lower[self.basis] - xb,
                             xb - self.upper[self.basis]).max() > FEAS_TOL
        if not self.fresh and (outside or np.abs(
                self.binv @ bmat - np.eye(len(xb))).sum(axis=1).max() > INV_TOL):
            self._refactor()
            if outside:
                return None
        x_n[self.basis] = xb
        return x_n, y


def solve_box_lp(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
    *,
    max_pivots: int | None = None,
    warm_start: LpSolution | None = None,
) -> LpSolution:
    """Maximize c @ x over A x <= b, lower <= x <= upper (defaults [0,1]^n).

    The solve starts from `warm_start`, the result of an optimal solve of
    the same A, b, c under bounds that contain these, as a branch-and-bound
    child's parent was solved: its basis, status and basis
    inverse, on its [A | I] system, which is shared and not rebuilt.  The
    result is read and never changed, so two children can start from one
    parent.  Without it the solve builds [A | I] and starts from the crash
    point: each free structural (upper - lower above the pivot tolerance)
    with c_j > 0 at its upper bound, every other one at its lower bound,
    and the slacks basic, whose inverse is the identity.  Both starts are
    dual feasible.  Dual simplex pivots then bring every basic value
    inside its bounds, which makes the basis optimal, or find a row that
    proves the bounds infeasible (InfeasibleError with its Farkas vector).
    When the crash point breaks no row it is optimal and the solve takes
    no pivot.  Reaching `max_pivots` pivots raises IterationLimitError.  A
    start that was not dual feasible raises ArithmeticError naming a
    column whose reduced cost has the wrong sign at the exit.  Bounds
    that are not finite or not of shape (n,) raise ValueError.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = a.shape
    lower = np.zeros(n) if lower is None else np.asarray(lower, dtype=float)
    upper = np.ones(n) if upper is None else np.asarray(upper, dtype=float)
    if lower.shape != (n,) or upper.shape != (n,):
        raise ValueError(f"bounds must be of shape ({n},)")
    if not (np.isfinite(lower) & np.isfinite(upper)).all():
        raise ValueError("bounds must be finite")
    if (lower > upper + 1e-15).any():
        raise ValueError("lower bound exceeds upper bound")
    if max_pivots is None:
        max_pivots = 50 * (n + m)

    if warm_start is None:
        system = np.hstack([a, np.eye(m)])
        basis = np.arange(n, n + m)
        status = np.full(n + m, _AT_LOWER, dtype=np.int8)
        status[:n][(c > 0.0) & (upper - lower > PIV_TOL)] = _AT_UPPER
        status[n:] = _BASIC
        binv = np.eye(m)
    else:
        system, basis = warm_start.system, warm_start.basis
        status, binv = warm_start.status.copy(), warm_start.binv.copy()
    core = _Simplex(
        system, b,
        np.concatenate([lower, np.zeros(m)]),
        np.concatenate([upper, np.full(m, np.inf)]),
        basis, status, binv, max_pivots,
    )
    gamma = np.concatenate([c, np.zeros(m)])
    point = None
    while point is None:
        u = core.dual_run(gamma)
        if u is not None:
            w = a.T @ u  # aggregated row; margin = its box minimum - b @ u
            margin = float(np.sum(np.minimum(w * lower, w * upper))) - float(b @ u)
            raise InfeasibleError(
                f"LP infeasible: aggregated row violates the box by {margin:.3e}",
                farkas_u=u,
            )
        point = core.certify(gamma)
    x_full, y = point
    x = np.clip(x_full[:n], lower, upper)
    return LpSolution(
        x_star=x, value=float(c @ x), duals=y, pivots=core.pivots,
        basis=core.basis, status=core.status,
        binv=core.binv, system=system, a=a, c=c,
        lower=lower, upper=upper, free=core.free,
    )


def _check_optimum(instance, sol):
    """Primal feasibility, strong duality and complementary slackness of
    (x_star, u_star) in `sol`."""
    a, b = instance.A, instance.b
    x, u, value, r = sol.x_star, sol.u_star, sol.value, sol.reduced_costs
    ax = a @ x
    if np.any(ax > b + 1e-7):
        raise ArithmeticError("optimal point violates A x <= b beyond tolerance")
    dv = dual_value(u, instance)
    if abs(value - dv) > 1e-7 * (1.0 + abs(value)):
        raise ArithmeticError(
            f"strong duality violated: primal {value!r} vs dual {dv!r}"
        )
    if np.any(x * np.maximum(-r, 0.0) > 1e-7) or np.any(
        (1.0 - x) * np.maximum(r, 0.0) > 1e-7
    ):
        raise ArithmeticError("complementary slackness violated on variables")
    if np.any(u * (b - ax) > 1e-7):
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

    This is `solve_box_lp` on [0,1]^n, checked: no dual below zero beyond
    roundoff, primal feasibility, strong duality, complementary slackness
    and at most m fractional coordinates.  The checks read `u_star`,
    `reduced_costs` and the support partition, so a root solution returns
    with them computed.

    Raises InfeasibleError (with a Farkas certificate) when no x in [0,1]^n
    satisfies A x <= b, and IterationLimitError past the pivot budget.
    """
    sol = solve_box_lp(instance.A, instance.b, instance.c, max_pivots=max_pivots)
    if np.any(sol.duals < -1e-7):
        raise ArithmeticError("negative dual beyond roundoff tolerance")
    _check_optimum(instance, sol)
    if sol.s.size > instance.m:
        raise ArithmeticError("more fractional coordinates than constraints")
    return sol


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
