"""Bounded dual simplex for max c @ x, A @ x <= b, x in [0,1]^n.

The solver works on the equality system A x + s = b with structural
variables in [0, 1], or fixed by branching, and slacks in [0, inf).  It
carries the inverse of the m x m basis matrix (m <= ~10) and updates it by
one rank-one product-form step (Dantzig and Orchard-Hays 1954) on each
basis change; basic values, duals and the pivot row are products with it.
The inverse is computed afresh when a pivot element is too small to
divide by, and before an infeasibility verdict.  What each pass reads
besides is carried across pivots (`_Simplex` holds the whole state of a
solve).  Carrying it changes no product, so every pivot and every
returned bit is what rebuilding it on each pass gives.

Every solve runs bounded dual simplex pivots on the one system [A | I]
from a dual feasible start until the basic values lie inside their
bounds, under one pivot budget.  The basis it ends at is then optimal.
The one cold solve, `solve_lp`, starts from a crash point (Bixby 1992):
each structural with c_j > 0 at 1, every other structural at 0, and the
slacks basic, so the reduced costs are c itself and have the optimal
signs.  A branch-and-bound child (`solve_box_lp`) starts from its
parent's final simplex state and one fixing (j, side): a copy with the
entries x_j touches set.  Reduced costs depend on the basis alone and a
fixed column never enters, so that start is dual feasible too.  When x_j
is basic, the child's first pass reads the parent's last-pass basic
values and the branched row and reduced costs that `child_bounds(j)`
keeps, the same products on the same inverse, and enters the column
that the bound's ratio test for its side picks.  One rule, `_entering`,
says which columns can enter a dual pivot.  When a violated row has no
entering candidate, the bounds are infeasible, and that row of the
basis inverse, solved afresh, is the Farkas vector of the verdict.

A tree's LPs are small (n + m entries), so numpy's fixed cost per call
is most of a solve.  The products of the simplex (basic values, pivot
rows and columns, reduced costs, certify's duals and inverse test, the
value) use ndarray.dot, which costs about half of `@` on these operands
and gives the same bits in the layouts the simplex passes it; the
reduced costs of `LpSolution` keep `@` on the strided block A', a
layout where `.dot` gave other bits.  A shortcut past the plain numpy or
Python form stays only where a one-process A/B on branch-and-bound trials
(`tools/ab_inprocess.py`) measures it saving at least 2% of their time.

Each solve ends by solving its final basis afresh with LAPACK gesv, the
routine np.linalg.solve calls, and the returned point and duals come
from that solve.  The fresh solve also certifies the exit: basic values
outside their box send the solve back to the dual simplex on a fresh
inverse, binv B - I beyond INV_TOL refactorizes the inverse for the next
solve that starts from it, and a reduced cost of the wrong sign (a start
that was not dual feasible) raises ArithmeticError.  Every factorization
of a basis, a fresh inverse or a gesv solve, goes through `_solve`, and
one rule there detects a singular basis: the invalid flag the LAPACK
gufunc sets becomes ArithmeticError("simplex basis became singular").

Every solve, root or child, returns one `LpSolution`: the optimal basic
point, its value and basic duals, its pivot and refactorization counts
and its final `_Simplex`.  The dual vector, the reduced costs and the
support (variables at 0, at 1, fractional; `support_partition` composes
the one fractional test with the two bound tests) are computed on first
read and kept, so a child that is never expanded never computes them,
and expanding a node reads only its fractional support.
`child_bounds(j)` bounds the values of the two children that fix a basic
x_j by one pivot.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
# The gufuncs np.linalg.solve (gesv, one right-hand side) and np.linalg.inv
# wrap, called directly: the wrappers' checks cost about 4 us of a 5 us
# solve of a 3 x 3 basis, and the result is the same bits.
from numpy.linalg._umath_linalg import inv as _inv, solve1 as _gesv

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


class InfeasibleError(Exception):
    """The LP has no feasible point.

    Carries a Farkas certificate: u >= 0 whose aggregated row u @ A cannot
    stay below u @ b anywhere in the box.
    """

    def __init__(self, message: str, farkas_u: np.ndarray | None = None):
        super().__init__(message)
        self.farkas_u = farkas_u


class IterationLimitError(RuntimeError):
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
    """Optimal basic solution of one box LP.

    `duals` are the basic duals of the final basis, which roundoff can
    leave slightly below zero.  `refactors` maps each cause of a fresh
    basis inverse during the solve ("tiny_pivot", "verdict",
    "exit_check") to how many it took.  `simplex` is the solve's final
    `_Simplex`: what a branch-and-bound child re-solves from
    (`solve_box_lp`) and what `child_bounds` bounds the children's values
    from.  A child copies what it changes and never writes it.

    `u_star` (the positive part of `duals`), `reduced_costs` (c - A' u_star),
    the fractional support `s` and the indices `n0`, `n1` at 0 and at 1
    (the parts of `support_partition(x_star)`) are computed on first read
    and kept, each on its own (`functools.cached_property`).
    """

    x_star: np.ndarray
    value: float
    duals: np.ndarray
    pivots: int
    refactors: dict
    simplex: _Simplex

    @cached_property
    def u_star(self) -> np.ndarray:
        return np.where(self.duals > 0.0, self.duals, 0.0)

    @cached_property
    def reduced_costs(self) -> np.ndarray:
        n, core = len(self.x_star), self.simplex
        return core.gamma[:n] - core.mat[:, :n].T @ self.u_star

    @cached_property
    def s(self) -> np.ndarray:
        return _fractional(self.x_star)

    @cached_property
    def _n0_n1(self):
        return _at_bounds(self.x_star)

    n0 = property(lambda self: self._n0_n1[0])
    n1 = property(lambda self: self._n0_n1[1])

    def _branch_row(self, j: int) -> tuple:
        """(r, s, d, tests): the basis position r of x_j, alpha * sgn on
        its row alpha of B^-1 [A | I], the reduced costs d of gamma at the
        final basis, as a dual simplex pass computes them from binv, and
        the ratio tests (`_ratio_test`) of the columns that move x_j down
        and up (`_entering`'s fall and rise), in that order; kept for the
        last j asked, s and d read-only and the tests never written, so a
        node's bound and both its children read one product and one ratio
        test per side.  ValueError when x_j is nonbasic."""
        kept = self.__dict__.get("_row")
        if kept is None or kept[0] != j:
            core = self.simplex
            r = core.position(j)
            d = kept[3] if kept else _read_only(core.reduced())
            s = _read_only(core.row(r))
            rise, fall = _entering(s)
            tests = (_ratio_test(s, d, fall.nonzero()[0]),
                     _ratio_test(s, d, rise.nonzero()[0]))
            kept = self.__dict__["_row"] = (j, r, s, d, tests)
        return kept[1:]

    def child_bounds(self, j: int) -> tuple[float, float]:
        """Upper bounds (U_down, U_up) on the LP values of the children
        that fix the basic x_j at 0 and at 1, from the ratio test of one
        dual simplex pivot (Driebeek 1966; Tomlin 1971).

        Fixing x_j puts it outside its box by delta (x_j down, 1 - x_j up).
        A column that `_entering` finds moving x_j toward its new box on
        alpha, the row of B^-1 [A | I] where j is basic, moves x_j by
        |alpha_k| per unit and costs |d_k| (d = gamma - [A | I]' (gamma_B
        B^-1)).  So U = value - delta * min |d_k| / |alpha_k|, widened by
        1e-9 (1 + |U|), and -inf when no column can enter, as the child LP
        is then infeasible.  The row, d and each side's ratio test are
        kept, and a child's first pass takes its entering column from its
        side's test.  ValueError when x_j is nonbasic.
        """
        down, up = self._branch_row(j)[3]
        x_j = self.x_star[j]
        return _bound(self.value, x_j, down), _bound(self.value, 1.0 - x_j, up)


def _bound(value, delta, test):
    """value - delta * the least ratio of `test`, widened by 1e-9 (1 +
    |U|); -inf when no column can enter."""
    if test is None:
        return -np.inf
    u = value - delta * test[3]
    return u + 1e-9 * (1.0 + abs(u))


def _read_only(v):
    v.setflags(write=False)
    return v


def _entering(s):
    """Masks (rise, fall) of the columns that can enter a dual pivot on a
    row alpha of B^-1 [A | I], from s = alpha * sgn: nonbasic and free with
    |alpha_k| > PIV_TOL, split by the way they move the row's basic value.
    As x_B = B^-1 (b - N x_N), entering from lower (sgn +1) with
    alpha_k < 0, or from upper (sgn -1) with alpha_k > 0, raises it: s_k
    below -PIV_TOL.  Multiplying by +-1 is exact, and a column with sgn 0
    gives s_k = 0, so it never enters."""
    return s < -PIV_TOL, s > PIV_TOL


def _ratio_test(s, d, eligible):
    """(eligible, |s|, ratios, least) of the dual ratio test on a row
    s = alpha * sgn over the indices `eligible` of the columns that can
    enter: |alpha_k|, |d_k| / |alpha_k| and the least ratio as a float;
    None when no column is eligible."""
    if not eligible.size:
        return None
    mag = abs(s[eligible])
    ratios = abs(d[eligible]) / mag
    return eligible, mag, ratios, float(ratios[ratios.argmin()])


def _worst_row(xb, low_b, upp_b):
    """The first position of the largest bound violation of the basic
    values xb beyond FEAS_TOL, compared as floats, or -1 when none.  A
    violation is max(lo - v, v - up), the first when they tie or either
    is NaN, and a NaN violation is never the largest."""
    r, worst = -1, FEAS_TOL
    for i in range(len(xb)):
        v = xb[i]
        t = low_b[i] - v
        above = v - upp_b[i]
        if above > t:
            t = above
        if t > worst:
            r, worst = i, t
    return r


def _solve(*systems):
    """The solution of each square system (mat, rhs) by gesv, as
    np.linalg.solve gives it, and for a system (mat,) the inverse of mat,
    as np.linalg.inv gives it; a singular matrix raises ArithmeticError."""
    out = []
    try:
        with np.errstate(invalid="raise", over="ignore", divide="ignore",
                         under="ignore"):
            for system in systems:
                if len(system) == 1:
                    out.append(_inv(*system, signature="d->d"))
                else:
                    out.append(_gesv(*system, signature="dd->d"))
    except FloatingPointError:
        raise ArithmeticError("simplex basis became singular") from None
    return out


class _Simplex:
    """The whole state of one bounded dual simplex solve of max gamma @ x
    over mat x = rhs, lower <= x <= upper, with one pivot budget.

    `mat` is [A | I] (the n structurals, then the m slacks), `eye` its
    slack block and `gamma` the costs [c, 0]; with `rhs` and `n` they are
    shared by every child.  `lower` and `upper` are the box of all n + m
    columns: [0, 1] for each structural, or the value a child fixes it
    at, then [0, inf) for each slack.  `basis` holds the m basic columns
    and `binv` the inverse of mat[:, basis], consistent with it to
    roundoff.  A nonbasic column sits at its bound
    `x_n` (basic columns read 0 there), and the signed entering mask `sgn`
    is +1 for a free nonbasic column at its lower bound, -1 at its upper
    bound and 0 for a basic or fixed one.  `low_b` and `upp_b` are the
    bounds of the basic variables in basis order, lists of floats.  These
    are carried across pivots, where a basis change moves two columns.
    `rhs_n` and `xb` are b - N x_N and the basic values (a list of floats)
    of dual_run's last pass, on the current binv, which certify solves
    against and a child's first pass reads; `binv`, `rhs_n` and `xb` are
    replaced, never written in place, so a child shares its parent's until
    it changes them.  `first`, when set, is (r, s, d, tests) for the first
    pass: the row alpha * sgn at position r, the reduced costs and the
    ratio tests of the two ways out of the row, kept by the parent, with
    `xb` and `rhs_n` its own.  `pivots` counts basis changes, `refactors`
    counts fresh inverses by cause (a pivot element too small to divide
    by, an infeasibility verdict and the exit check), and `fresh` says
    binv was inverted afresh at the current basis.

    The constructor builds a cold solve's crash start and `branch` a
    child's start from a parent's final state.  dual_run() pivots from a
    dual feasible basis until it is primal feasible too, within the
    budget, and certify() solves the basis it leaves afresh and returns
    the optimum.  Basic values, duals and pivot rows are products with
    binv, which one product-form step updates per basis change.
    """

    def __init__(self, a, b, c, max_pivots):
        """The crash start of max c @ x, a @ x <= b, x in [0,1]^n: the
        slacks basic with binv = I, each structural with c_j > 0 at its
        upper bound 1 and every other one at 0."""
        m, n = a.shape
        self.n, self.rhs = n, b
        self.mat = np.zeros((m, n + m))
        self.mat[:, :n], self.mat[:, n:] = a, np.eye(m)
        self.eye = self.mat[:, n:]
        self.gamma, self.lower, self.x_n, self.sgn = np.zeros((4, n + m))
        self.upper = np.full(n + m, np.inf)
        self.gamma[:n], self.upper[:n] = c, 1.0
        self.basis, self.binv = np.arange(n, n + m), np.eye(m)
        at_upper = c > 0.0
        self.sgn[:n] = np.where(at_upper, -1.0, 1.0)
        self.x_n[:n] = at_upper
        self.low_b, self.upp_b = [0.0] * m, [np.inf] * m
        self.first = None
        self._start(max_pivots)

    def branch(self, j, side, first):
        """The child that fixes x_j at side: a copy of this final state
        with each array it changes in place copied once and the entries
        x_j touches set.  x_j fixed never enters (sgn 0).  Nonbasic
        (`first` None), it moves to side; basic, `first` is the (r, s, d,
        tests) the parent kept for it, its bounds at position r change,
        and the first pass reads the kept row, reduced costs and ratio
        tests and this state's last pass.  The child has the default
        pivot budget."""
        core = object.__new__(_Simplex)
        core.__dict__.update(
            self.__dict__, lower=self.lower.copy(), upper=self.upper.copy(),
            basis=self.basis.copy(), sgn=self.sgn.copy(), x_n=self.x_n.copy(),
            low_b=self.low_b.copy(), upp_b=self.upp_b.copy(), first=first)
        core.lower[j] = core.upper[j] = side
        core.sgn[j] = 0.0
        if first is None:
            core.x_n[j] = side
        else:
            core.low_b[first[0]] = core.upp_b[first[0]] = float(side)
        core._start()
        return core

    def _start(self, max_pivots=None):
        self.fresh = False
        if max_pivots is None:  # the default: 50 pivots per column of [A | I]
            max_pivots = 50 * len(self.gamma)
        self.max_pivots = max(int(max_pivots), 1)
        self.pivots = 0
        self.refactors = {"tiny_pivot": 0, "verdict": 0, "exit_check": 0}

    def position(self, j):
        """The basis position of x_j; ValueError when x_j is nonbasic."""
        try:
            return self.basis.tolist().index(j)
        except ValueError:
            raise ValueError(f"x_{j} is not basic") from None

    def row(self, r):
        """alpha * sgn for the row alpha = e_r' binv mat of B^-1 [A | I]."""
        return self.mat.T.dot(self.binv[r]) * self.sgn

    def reduced(self):
        """d = gamma - mat' (gamma_B binv), the reduced costs at the basis."""
        return self.gamma - self.mat.T.dot(self.gamma[self.basis].dot(self.binv))

    def _refactor(self, cause):
        self.binv, = _solve((self.mat[:, self.basis],))
        self.fresh = True
        self.refactors[cause] += 1

    def _exchange(self, pos, e, w, to_upper):
        """Column e takes basis position pos, where w = B^-1 a_e under the
        old basis, and the column leaving it goes to its upper bound when
        `to_upper`, else to its lower bound: the carried state moves with
        both columns, and binv takes a product-form step into a new array,
        or a fresh inverse when the pivot element w[pos] is too small to
        divide by."""
        basis, sgn, x_n, low_b, upp_b = self.basis, self.sgn, self.x_n, self.low_b, self.upp_b
        leave = basis[pos]
        lo, up = low_b[pos], upp_b[pos]
        sgn[leave] = (-1.0 if to_upper else 1.0) if up - lo > PIV_TOL else 0.0
        x_n[leave] = up if to_upper else lo
        basis[pos] = e
        sgn[e] = x_n[e] = 0.0
        low_b[pos], upp_b[pos] = float(self.lower[e]), float(self.upper[e])
        pivot = w[pos]
        if abs(pivot) <= PIV_TOL:
            self._refactor("tiny_pivot")
            return
        row = self.binv[pos] / pivot
        binv = self.binv - w[:, None] * row
        binv[pos] = row
        self.binv, self.fresh = binv, False

    def dual_run(self):
        """Bounded dual simplex pivots (Koberstein 2005) until every basic
        value lies within its bounds; the reduced costs of gamma at the
        current basis must have the optimal signs.

        Each pivot takes the basic variable furthest outside its box
        (`_worst_row`) out at the bound it violates.  Of the columns
        `_entering` finds moving it toward that bound on its row alpha of
        B^-1 [A | I], it enters the one that keeps the reduced costs dual
        feasible (`_ratio_test`: the smallest |d_k| / |alpha_k|, the
        largest |alpha_k| among ties); d is computed only once there is a
        candidate.  On the first pass of a child whose parent kept the
        branched row, that row's ratio test is the parent's.  Returns None
        once the basis is primal feasible.  When the violated row r has no
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
            first, self.first = self.first, None
            if first is None:
                self.rhs_n = self.rhs - self.mat.dot(self.x_n)
                self.xb = self.binv.dot(self.rhs_n).tolist()
                r_kept = d = None
            else:
                r_kept, s, d, tests = first
            low_b = self.low_b
            r = _worst_row(self.xb, low_b, self.upp_b)
            if r < 0:
                return None
            # x_basis[r] must rise to its lower bound, or fall to its upper
            rise_to_lower = low_b[r] - self.xb[r] > 0.0
            if r == r_kept:
                test = tests[rise_to_lower]
            else:
                s = self.row(r)
                rise, fall = _entering(s)
                eligible = (rise if rise_to_lower else fall).nonzero()[0]
                if eligible.size and d is None:
                    d = self.reduced()
                test = _ratio_test(s, d, eligible)
            if test is None:
                if not self.fresh:
                    self._refactor("verdict")
                    continue
                rho, = _solve((self.mat[:, self.basis].T, self.eye[r]))
                return np.maximum(rho if rise_to_lower else -rho, 0.0)
            eligible, mag, ratios, least = test
            ties = ratios <= least + RC_TOL
            e = int(eligible[ties][mag[ties].argmax()])
            self._exchange(r, e, self.binv.dot(self.mat[:, e]), not rise_to_lower)
            self.pivots += 1
            if self.pivots >= self.max_pivots:
                raise IterationLimitError(f"pivot budget of {self.max_pivots} exhausted")

    def certify(self):
        """Solve the final basis afresh and return (x, y) from that solve.

        The solve also certifies the exit.  A free nonbasic reduced cost of
        gamma with the wrong sign beyond RC_TOL (d * sgn > RC_TOL) means the
        start was not dual feasible, and raises ArithmeticError naming the
        column.  When the basic values break their box beyond FEAS_TOL,
        binv is refactorized and None is returned, so the dual simplex
        runs again.  When binv B - I exceeds INV_TOL, binv is refactorized
        and the exit stands, with the last pass's basic values taken again
        on the new binv.  A binv inverted afresh since the last basis
        change is not refactorized again, and its exit stands.
        """
        basis = self.basis
        bmat = self.mat[:, basis]
        xb, y = _solve((bmat, self.rhs_n), (bmat.T, self.gamma[basis]))
        d = self.gamma - self.mat.T.dot(y)
        # at lower, a column gains from rising (d > 0); at upper, from falling
        wrong = (d * self.sgn > RC_TOL).nonzero()[0]
        if wrong.size:
            e = int(wrong[abs(d[wrong]).argmax()])
            raise ArithmeticError(
                f"dual simplex ended dual infeasible: column {e} "
                f"has reduced cost {float(d[e])!r}"
            )
        outside = _worst_row(xb.tolist(), self.low_b, self.upp_b) >= 0
        if not self.fresh and (outside or np.add.reduce(abs(
                self.binv.dot(bmat) - self.eye), axis=1).max() > INV_TOL):
            self._refactor("exit_check")
            if outside:
                return None
            self.xb = self.binv.dot(self.rhs_n).tolist()
        x = self.x_n.copy()
        x[basis] = xb
        return x, y


def _run(core: _Simplex) -> LpSolution:
    """Dual simplex pivots from the dual feasible start `core` until the
    basis is optimal (none when the start breaks no row), or until a row
    proves the box infeasible: InfeasibleError with its Farkas vector and
    the margin by which the aggregated row misses the box.
    IterationLimitError at the pivot budget; ArithmeticError naming a
    column whose reduced cost has the wrong sign at the exit when the
    start was not dual feasible."""
    n = core.n
    lower, upper = core.lower[:n], core.upper[:n]
    point = None
    while point is None:
        u = core.dual_run()
        if u is not None:
            # aggregated row of the solved LP; margin = its box minimum - b @ u
            w = core.mat[:, :n].T @ u
            margin = float(np.minimum(w * lower, w * upper).sum()) - float(core.rhs @ u)
            raise InfeasibleError(
                f"LP infeasible: aggregated row violates the box by {margin:.3e}", u)
        point = core.certify()
    x_full, y = point
    x = x_full[:n]
    np.maximum(x, lower, out=x)
    np.minimum(x, upper, out=x)
    return LpSolution(x, float(core.gamma[:n].dot(x)), y, core.pivots, core.refactors, core)


def solve_box_lp(parent: LpSolution, j: int, side: float) -> LpSolution:
    """The child of `parent` (`solve_lp`'s result or an earlier child's)
    that fixes x_j at `side`, solved by `_run` from a copy of the parent's
    final simplex state (`_Simplex.branch`) under the default pivot budget.
    The [A | I] system is shared, and the parent is read and never
    changed, so two children can start from one parent.  A fixing outside
    the structurals or the parent's box raises ValueError.

    Only children are solved here; `solve_lp` is the one cold start.  The
    name stays its own because perfbench's tracer wraps
    `giplab.bnb.solve_box_lp` as its `lp.child` span.
    """
    start = parent.simplex
    if not (0 <= j < start.n and start.lower[j] <= side <= start.upper[j]):
        raise ValueError(f"fixing x_{j} = {side} is not inside the parent's box")
    try:
        first = parent._branch_row(j)
    except ValueError:  # x_j is nonbasic
        first = None
    return _run(start.branch(j, side, first))


def _check_optimum(instance, sol):
    """Primal feasibility, strong duality and complementary slackness of
    (x_star, u_star) in `sol`; the dual objective is `dual_value`'s, taken
    from the kept reduced costs."""
    a, b = instance.A, instance.b
    x, u, value, r = sol.x_star, sol.u_star, sol.value, sol.reduced_costs
    ax = a.dot(x)
    if (ax > b + 1e-7).any():
        raise ArithmeticError("optimal point violates A x <= b beyond tolerance")
    dv = float(b.dot(u) + np.add.reduce(np.maximum(r, 0.0)))  # dual_value(u) from r
    if abs(value - dv) > 1e-7 * (1.0 + abs(value)):
        raise ArithmeticError(
            f"strong duality violated: primal {value!r} vs dual {dv!r}"
        )
    if (x * np.maximum(-r, 0.0) > 1e-7).any() or (
        (1.0 - x) * np.maximum(r, 0.0) > 1e-7
    ).any():
        raise ArithmeticError("complementary slackness violated on variables")
    if (u * (b - ax) > 1e-7).any():
        raise ArithmeticError("complementary slackness violated on rows")


def _fractional(x) -> np.ndarray:
    """Indices of x strictly between 0 and 1, beyond CLASSIFY_TOL."""
    return ((x > CLASSIFY_TOL) & (x < 1.0 - CLASSIFY_TOL)).nonzero()[0]


def _at_bounds(x) -> tuple[np.ndarray, np.ndarray]:
    """Indices of x at 0 and at 1, within CLASSIFY_TOL."""
    return (x <= CLASSIFY_TOL).nonzero()[0], (x >= 1.0 - CLASSIFY_TOL).nonzero()[0]


def support_partition(x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices of x at 0, at 1 and strictly between, within CLASSIFY_TOL."""
    x = np.asarray(x, dtype=float)
    return (*_at_bounds(x), _fractional(x))


def solve_lp(instance: Instance, *, max_pivots: int | None = None) -> LpSolution:
    """Optimal basic solution of the box relaxation of `instance`.

    The one cold solve: `_run` from the crash start (`_Simplex`) on a new
    [A | I], then checked: no dual below zero beyond roundoff, primal
    feasibility, strong duality, complementary slackness and at most m
    fractional coordinates.  The checks read `u_star`, `reduced_costs` and
    the support partition, so a root solution returns with them computed.

    Raises InfeasibleError (with a Farkas certificate) when no x in [0,1]^n
    satisfies A x <= b, and IterationLimitError on reaching `max_pivots`
    pivots (by default 50 per column of [A | I]).
    """
    sol = _run(_Simplex(instance.A, instance.b, instance.c, max_pivots))
    if (sol.duals < -1e-7).any():
        raise ArithmeticError("negative dual beyond roundoff tolerance")
    _check_optimum(instance, sol)
    if sol.s.size > instance.m:
        raise ArithmeticError("more fractional coordinates than constraints")
    return sol


def dual_value(u, instance: Instance) -> float:
    """b @ u plus the summed positive part of c - A' u, the dual objective."""
    u = np.asarray(u, dtype=float)
    if not (u >= 0.0).all():
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
    if not ((x >= -1e-12) & (x <= 1.0 + 1e-12)).all():
        raise ValueError("x must lie in [0, 1]^n")
    if not (u >= 0.0).all():
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
