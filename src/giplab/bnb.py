"""Exact binary IP solving by best-bound-first branch and bound.

The open list is a max-priority queue on the node LP value (ties broken by
insertion order), so the sequence of processed bounds is non-increasing;
this is asserted on every solve.  Child LPs are solved at creation time
under the parent's bounds with the branched variable fixed, from the same
crash start as every LP (no parent basis is carried); infeasible children
are counted as created but never enter the queue.  An open node is just
its bound, its variable bounds and its LP point.  Tree size is the number
of nodes created, the root included.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .instance import Instance
from .lp import InfeasibleError, solve_box_lp, solve_lp, support_partition

__all__ = [
    "BnbResult",
    "solve_ip",
    "brute_force_ip",
    "ipgap",
    "branch_variable",
]

PRUNE_TOL = 1e-9
BRUTE_FORCE_MAX_N = 25
_CHUNK_BITS = 18


@dataclass(frozen=True, eq=False)
class BnbResult:
    """Outcome of a branch-and-bound run.

    `best_bound` is the largest LP bound still open when the run stopped;
    at proven optimality it equals `opt_value`, and under a node limit the
    pair (opt_value, best_bound) brackets the true optimum.
    """

    opt_value: float | None
    x_opt: np.ndarray | None
    nodes_created: int
    nodes_expanded: int
    status: str  # "Optimal" | "NodeLimit" | "Infeasible"
    best_bound: float | None


def branch_variable(x: np.ndarray, rule: str = "most-frac") -> int:
    """Index of the node LP point x to branch on: the most fractional
    coordinate (closest to 1/2), ties and the "first-frac" rule both resolved
    by lowest index."""
    frac = support_partition(x)[2]
    if frac.size == 0:
        raise ValueError("node LP is integral; nothing to branch on")
    if rule == "first-frac":
        return int(frac[0])
    if rule != "most-frac":
        raise ValueError(f"unknown branching rule: {rule!r}")
    scores = np.abs(x[frac] - 0.5)
    return int(frac[np.argmin(scores)])


def solve_ip(
    instance: Instance,
    node_limit: int = 1_000_000,
    *,
    branch_rule: str = "most-frac",
    prune: bool = True,
) -> BnbResult:
    """Solve max c @ x, A x <= b, x in {0,1}^n exactly (or up to node_limit).

    Nodes are expanded in best-bound-first order; each expansion either
    updates the incumbent (integral node LP) or branches on a fractional
    variable, creating two children with that variable fixed.  Children whose
    LP is infeasible are pruned silently.  With `prune` disabled every node
    is expanded regardless of the incumbent (for ablation only).

    The search ends when the open list empties (an infeasible root LP
    leaves it empty), when its best bound cannot beat the incumbent, or
    before a child past node_limit; the status is set after the loop.
    """
    if node_limit < 1:
        raise ValueError("node_limit must be >= 1")
    a, b, c = instance.A, instance.b, instance.c
    n = instance.n
    nodes_created = 1
    nodes_expanded = 0
    inc_value: float | None = None
    inc_x: np.ndarray | None = None
    hit_limit = False

    try:
        root = solve_lp(instance)
    except InfeasibleError:
        heap = []
    else:
        heap = [(-root.value, 0, np.zeros(n), np.ones(n), root.x_star)]
    counter = 0
    last_bound = np.inf

    while heap and not hit_limit:
        neg_bound, _, lower, upper, x = heapq.heappop(heap)
        bound = -neg_bound
        if bound > last_bound + PRUNE_TOL:
            raise ArithmeticError("best-bound order violated")
        last_bound = bound
        if prune and inc_value is not None and bound <= inc_value + PRUNE_TOL:
            break  # the queue is sorted, every remaining node is dominated
        nodes_expanded += 1
        if support_partition(x)[2].size == 0:
            xi = np.round(x)
            val = float(c @ xi)
            if np.any(a @ xi > b + 1e-7):
                raise ArithmeticError("integral node LP point is infeasible")
            if inc_value is None or val > inc_value + PRUNE_TOL:
                inc_value, inc_x = val, xi
            continue

        j = branch_variable(x, branch_rule)
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
            try:
                child = solve_box_lp(a, b, c, lo, up)
            except InfeasibleError:
                continue
            child_bound = min(child.value, bound)  # parent bound is valid too
            if prune and inc_value is not None and child_bound <= inc_value + PRUNE_TOL:
                continue
            counter += 1
            heapq.heappush(heap, (-child_bound, counter, lo, up, child.x))

    if hit_limit:
        status, best_bound = "NodeLimit", bound
    elif inc_value is None:
        status, best_bound = "Infeasible", None
    else:
        status, best_bound = "Optimal", inc_value
    return BnbResult(
        inc_value, inc_x, nodes_created, nodes_expanded, status, best_bound
    )


def brute_force_ip(instance: Instance) -> tuple[float | None, np.ndarray | None]:
    """Exhaustive maximum of c @ x over feasible binary x; (None, None) when
    no binary point is feasible.  Refuses n > 25."""
    n = instance.n
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force limited to n <= {BRUTE_FORCE_MAX_N}")
    a, b, c = instance.A, instance.b, instance.c
    best_val = None
    best_x = None
    bits = np.arange(n)
    total = 1 << n
    chunk = 1 << min(_CHUNK_BITS, n)
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        x = ((codes[:, None] >> bits) & 1).astype(float)
        feasible = np.all(x @ a.T <= b + PRUNE_TOL, axis=1)
        if not np.any(feasible):
            continue
        vals = x[feasible] @ c
        k = int(np.argmax(vals))
        if best_val is None or vals[k] > best_val:
            best_val = float(vals[k])
            best_x = x[feasible][k]
    return best_val, best_x


def ipgap(instance: Instance, node_limit: int = 1_000_000) -> float:
    """val_LP - val_IP, clipped at zero against roundoff.

    Propagates InfeasibleError when the LP is infeasible and raises when the
    branch and bound hits its node limit (the gap would not be exact).
    """
    lp_sol = solve_lp(instance)
    res = solve_ip(instance, node_limit=node_limit)
    if res.status == "NodeLimit":
        raise RuntimeError("node limit reached; exact gap unavailable")
    if res.status == "Infeasible":
        raise InfeasibleError("IP infeasible: no binary point satisfies A x <= b")
    gap = lp_sol.value - res.opt_value
    if gap < -1e-7:
        raise ArithmeticError(f"negative integrality gap {gap!r}")
    return max(gap, 0.0)
