"""Exact binary IP solving by best-bound-first branch and bound.

The open list is a max-priority queue on node keys, ties broken by
creation order, and the sequence of popped keys is non-increasing; this
is asserted on every pop.  A child is created unsolved, as its parent's
`LpSolution` and the fixing (j, side) of the branched variable, and
keyed by min(U, parent bound), where U is the parent's
`LpSolution.child_bounds(j)`: one dual simplex pivot on the parent's
optimal basis bounds the child's LP value (Driebeek 1966; Tomlin 1971).
When it reaches the top of the queue it is solved by dual simplex from
the parent's `LpSolution` and the fixing (`solve_box_lp(node, j,
side)`): the parent's final simplex state with x_j fixed, which
stays dual feasible, and whose first pass reads the row and reduced
costs the bound computed.  It is then pushed again with its exact key
min(LP value, parent bound) and the same counter.  Keys only fall, to
the exact key, so nodes are expanded in the order that solving every
child at creation gives, and a child the search ends before reaching is
never solved.  An exact key above the pushed one raises ArithmeticError.
A node's fractional support is computed when it is expanded, once, and
its entries at 0 and 1 are never classified.  Every LP of one tree runs
on the [A | I] system of the root solve: the root is `solve_lp`, the one
cold start, and each child `solve_box_lp`, both called by the names this
module imports, which perfbench's tracer replaces to time them.
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
from .lp import InfeasibleError, LpSolution, solve_box_lp, solve_lp

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
    them that proved infeasible.  `peak_open` is the largest number of
    open-list entries, solved or unsolved, at any point of the run.
    """

    opt_value: float | None
    x_opt: np.ndarray | None
    nodes_created: int
    nodes_expanded: int
    status: str  # "Optimal" | "NodeLimit" | "Infeasible"
    best_bound: float | None
    children_solved: int
    children_infeasible: int
    peak_open: int


def _most_fractional(x: np.ndarray, frac: np.ndarray) -> int:
    """The entry of the fractional indices `frac` of x closest to 1/2,
    ties resolved by lowest index."""
    return int(frac[abs(x[frac] - 0.5).argmin()])


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
    if not node_limit >= 1:  # NaN fails it too
        raise ValueError("node_limit must be >= 1")
    a, b, c = instance.A, instance.b, instance.c
    nodes_created = 1
    nodes_expanded = 0
    children_solved = 0
    children_infeasible = 0
    inc_value: float | None = None
    inc_x: np.ndarray | None = None
    hit_limit = False

    # entry: (-key, creation count, parent bound, LP, fixing); an unsolved
    # entry's LP is its parent's and fixing is (j, side) for x_j fixed at
    # side, together the warm start of its solve; a solved entry's fixing
    # is None
    try:
        root = solve_lp(instance) if root is None else root
    except InfeasibleError:
        heap = []
    else:
        heap = [(-root.value, 0, root.value, root, None)]
    peak_open = len(heap)
    last_bound = np.inf

    while heap and not hit_limit:
        neg_bound, order, cap, node, fixing = heapq.heappop(heap)
        bound = -neg_bound
        if bound > last_bound + PRUNE_TOL:
            raise ArithmeticError("best-bound order violated")
        last_bound = bound
        if inc_value is not None and bound <= inc_value + PRUNE_TOL:
            break  # the queue is sorted, every remaining node is dominated
        if fixing is not None:
            children_solved += 1
            try:
                child = solve_box_lp(node, *fixing)
            except InfeasibleError:
                children_infeasible += 1
                continue
            exact = min(child.value, cap)  # parent bound is valid too
            if exact > bound:
                raise ArithmeticError(
                    f"child LP value {child.value!r} is above its pushed key {float(bound)!r}"
                )
            heapq.heappush(heap, (-exact, order, cap, child, None))
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
        keys = node.child_bounds(j)
        for side in (0, 1):
            hit_limit = nodes_created >= node_limit
            if hit_limit:
                break
            nodes_created += 1
            heapq.heappush(
                heap, (-min(keys[side], bound), nodes_created, bound, node, (j, side)))
        peak_open = max(peak_open, len(heap))

    if hit_limit:
        status, best_bound = "NodeLimit", bound
    elif inc_value is None:
        status, best_bound = "Infeasible", None
    else:
        status, best_bound = "Optimal", inc_value
    return BnbResult(
        inc_value, inc_x, nodes_created, nodes_expanded, status, best_bound,
        children_solved, children_infeasible, peak_open,
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
