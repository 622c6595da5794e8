"""Exact binary IP solving by best-bound-first branch and bound.

The open list is a max-priority queue on node keys, ties broken by
creation order, and the sequence of popped keys is non-increasing; this
is asserted on every pop.  A child is created unsolved, with the
parent's variable bounds and the branched variable fixed, and keyed by
min(U, parent bound): U bounds its LP value by one dual simplex pivot on
the parent's optimal basis (Driebeek 1966; Tomlin 1971).  When it
reaches the top of the queue it is solved by dual simplex from the
parent's `LpSolution` (final basis, status and basis inverse), since
fixing the branched basic variable leaves that basis dual feasible, and
pushed again with its exact key min(LP value, parent bound) and the
same counter.  Keys only fall, to the exact key, so nodes are expanded
in the order that solving every child at creation gives, and a child
the search ends before reaching is never solved.  An exact key above
the pushed one raises ArithmeticError.  A node's support partition is
computed when it is expanded, once.  Every LP of one tree runs on the
[A | I] system of the root solve.
An infeasible child is proved so by the Farkas vector of the row where
the dual simplex stops; it is counted as created and dropped when it is
popped.  The branching variable is the most fractional coordinate; the
paper's tree bound holds for best-bound search under any choice of it.
Tree size is the number of nodes created, the root included.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .instance import Instance
from .lp import (
    _AT_UPPER, PIV_TOL, InfeasibleError, LpSolution, solve_box_lp, solve_lp,
)

__all__ = [
    "BnbResult",
    "solve_ip",
    "ipgap",
    "integrality_gap",
]

PRUNE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class BnbResult:
    """Outcome of a branch-and-bound run.

    `best_bound` is the largest LP bound still open when the run stopped;
    at proven optimality it equals `opt_value`, and under a node limit the
    pair (opt_value, best_bound) brackets the true optimum.
    `children_solved` counts the child LPs solved, each once, when the
    child reached the top of the queue; `children_infeasible` those of
    them that proved infeasible.
    """

    opt_value: float | None
    x_opt: np.ndarray | None
    nodes_created: int
    nodes_expanded: int
    status: str  # "Optimal" | "NodeLimit" | "Infeasible"
    best_bound: float | None
    children_solved: int
    children_infeasible: int


def _most_fractional(x: np.ndarray, frac: np.ndarray) -> int:
    """The entry of the fractional indices `frac` of x closest to 1/2,
    ties resolved by lowest index."""
    return int(frac[np.argmin(np.abs(x[frac] - 0.5))])


def _one_pivot_bounds(
    node: LpSolution, j: int, lower: np.ndarray, upper: np.ndarray
) -> tuple[float, float]:
    """Upper bounds on the LP values of the down (x_j = 0) and up (x_j = 1)
    children of `node`, from one dual simplex pivot (Driebeek 1966; Tomlin
    1971).

    j is basic at row r of the node's optimal basis; fixing it puts x_j
    outside its new box by delta, x_j for the down child and 1 - x_j for
    the up child.  Each unit a free nonbasic column k moves off its bound
    moves x_j by |alpha_k| (alpha is row r of B^-1 [A | I]) and lowers the
    objective by |d_k| (d = [c - A'y, -y], the node's reduced costs).  So
    the child's value is at most value - delta * t, with t = min |d_k| /
    |alpha_k| over the columns that move x_j toward its new box: the ratio
    test of `dual_run`.  The children share alpha and d up to the sign of
    the row, so the candidates are classified once for both.  A structural
    is free when its box in `lower`, `upper` (the node's, which the
    children share off j) is wider than PIV_TOL.  Each bound U is widened
    by 1e-9 (1 + |U|); with no candidate it is -inf, as the child LP is
    then infeasible.
    """
    n = node.x_star.size
    r = node.basis.tolist().index(j)
    alpha, y_cols = np.array([node.binv[r], node.duals]) @ node.system
    d = -y_cols
    d[:n] += node.c
    ok = np.abs(alpha) > PIV_TOL
    ok[node.basis] = False
    ok[:n] &= upper - lower > PIV_TOL
    ratio = np.divide(np.abs(d), np.abs(alpha), out=np.full(d.size, np.inf), where=ok)
    # x_j rises (up child) when a column enters from its lower bound with
    # alpha < 0 or from its upper bound with alpha > 0; it falls otherwise
    rises = (alpha > 0.0) == (node.status == _AT_UPPER)
    bounds = []
    for delta, moves in ((node.x_star[j], ~rises), (1.0 - node.x_star[j], rises)):
        t = float(ratio.min(where=moves, initial=np.inf))
        u = node.value - delta * t
        bounds.append(u + 1e-9 * (1.0 + abs(u)) if t < np.inf else -np.inf)
    return bounds[0], bounds[1]


def solve_ip(
    instance: Instance,
    node_limit: int = 1_000_000,
    root: LpSolution | None = None,
) -> BnbResult:
    """Solve max c @ x, A x <= b, x in {0,1}^n exactly (or up to node_limit).

    Nodes are expanded in best-bound-first order; each expansion either
    updates the incumbent (integral node LP) or branches on a fractional
    variable, creating two children with that variable fixed.  Children
    are pushed unsolved under their one-pivot key and solved when they
    reach the top of the queue, as the module docstring says; an
    infeasible child is dropped then, and only solved nodes are expanded.

    `root` is the caller's `solve_lp(instance)`, when it has one, so the
    root LP is not solved a second time; without it the root is solved
    here.  A node's point and fractional support are read only when it
    is expanded.

    The search ends when the open list empties (an infeasible root LP
    leaves it empty), when its best key cannot beat the incumbent, or
    before a child past node_limit; the status is set after the loop.
    """
    if node_limit < 1:
        raise ValueError("node_limit must be >= 1")
    a, b, c = instance.A, instance.b, instance.c
    n = instance.n
    nodes_created = 1
    nodes_expanded = 0
    children_solved = 0
    children_infeasible = 0
    inc_value: float | None = None
    inc_x: np.ndarray | None = None
    hit_limit = False

    # entry: (-key, creation counter, parent bound, lower, upper, LP, solved);
    # an unsolved entry's LP is its parent's, the warm start of its solve
    try:
        root = solve_lp(instance) if root is None else root
    except InfeasibleError:
        heap = []
    else:
        heap = [(-root.value, 0, root.value, np.zeros(n), np.ones(n), root, True)]
    counter = 0
    last_bound = np.inf

    while heap and not hit_limit:
        neg_bound, order, cap, lower, upper, node, solved = heapq.heappop(heap)
        bound = -neg_bound
        if bound > last_bound + PRUNE_TOL:
            raise ArithmeticError("best-bound order violated")
        last_bound = bound
        if inc_value is not None and bound <= inc_value + PRUNE_TOL:
            break  # the queue is sorted, every remaining node is dominated
        if not solved:
            children_solved += 1
            try:
                child = solve_box_lp(a, b, c, lower, upper, warm_start=node)
            except InfeasibleError:
                children_infeasible += 1
                continue
            exact = min(child.value, cap)  # parent bound is valid too
            if exact > bound:
                raise ArithmeticError(
                    f"child LP value {child.value!r} is above its pushed key {bound!r}"
                )
            heapq.heappush(heap, (-exact, order, cap, lower, upper, child, True))
            continue
        nodes_expanded += 1
        x, frac = node.x_star, node.s
        if frac.size == 0:
            xi = np.round(x)
            val = float(c @ xi)
            if np.any(a @ xi > b + 1e-7):
                raise ArithmeticError("integral node LP point is infeasible")
            if inc_value is None or val > inc_value + PRUNE_TOL:
                inc_value, inc_x = val, xi
            continue

        j = _most_fractional(x, frac)
        keys = _one_pivot_bounds(node, j, lower, upper)
        for side in (0, 1):
            hit_limit = nodes_created >= node_limit
            if hit_limit:
                break
            nodes_created += 1
            lo = lower.copy()
            up = upper.copy()
            if side == 0:
                up[j] = 0.0
            else:
                lo[j] = 1.0
            counter += 1
            heapq.heappush(
                heap, (-min(keys[side], bound), counter, bound, lo, up, node, False)
            )

    if hit_limit:
        status, best_bound = "NodeLimit", bound
    elif inc_value is None:
        status, best_bound = "Infeasible", None
    else:
        status, best_bound = "Optimal", inc_value
    return BnbResult(
        inc_value, inc_x, nodes_created, nodes_expanded, status, best_bound,
        children_solved, children_infeasible,
    )


def ipgap(instance: Instance, node_limit: int = 1_000_000) -> float:
    """val_LP - val_IP, clipped at zero against roundoff.

    Propagates InfeasibleError when the LP is infeasible and raises when the
    branch and bound hits its node limit (the gap would not be exact).
    """
    lp_sol = solve_lp(instance)
    res = solve_ip(instance, node_limit=node_limit, root=lp_sol)
    if res.status == "NodeLimit":
        raise RuntimeError("node limit reached; exact gap unavailable")
    if res.status == "Infeasible":
        raise InfeasibleError("IP infeasible: no binary point satisfies A x <= b")
    return integrality_gap(lp_sol.value, res.opt_value)


def integrality_gap(lp_value: float, ip_value: float) -> float:
    """lp_value - ip_value, clipped at zero against roundoff; a gap below
    -1e-7 is more than roundoff and raises ArithmeticError."""
    gap = lp_value - ip_value
    if gap < -1e-7:
        raise ArithmeticError(f"negative integrality gap {gap!r}")
    return max(gap, 0.0)
