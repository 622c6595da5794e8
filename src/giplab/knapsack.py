"""Exact counting of binary knapsack solutions and its Monte Carlo envelope.

knapsack_count returns the exact number of subsets of nonnegative weights
whose sum stays within a capacity.  Two algorithms are provided and must
agree exactly.  The default, at any n, is a depth-first search over weights
sorted descending with remaining-minimum and remaining-total prunes; it runs
on an explicit stack and does at most (n+1) * count visits, so its cost
follows the size of the count.  A fixed visit budget (DFS_VISIT_BUDGET)
stops it with a CountBudgetError that carries the partial count.
Meet-in-the-middle always builds 2 * 2**(n/2) sums, is limited to
n <= MAX_COUNT_N, and is the method for weight laws with large counts.
Counts are Python integers, so they are exact at any size.

The weight sums are floating point; a capacity slack of 1e-12 * n makes the
counts robust to summation order and is applied identically in both
algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lp import LpSolution
from .rng import RngHandle, mixture_sample

__all__ = [
    "CountBudgetError",
    "KnapsackCount",
    "MAX_COUNT_N",
    "knapsack_count",
    "expectation_bound",
    "knapsack_expectation_mc",
    "reduced_cost_knapsack",
    "logcon_tail_check",
    "draw_weights",
    "sphere_net",
]

MAX_COUNT_N = 48  # meet-in-the-middle only
# perfbench checks each DFS proxy count against meet-in-the-middle up to
# this n, so it equals MAX_COUNT_N: every count that can be checked is.
DFS_MAX_N = MAX_COUNT_N
DFS_VISIT_BUDGET = 20_000_000
CAP_SLACK_PER_ITEM = 1e-12


class CountBudgetError(RuntimeError):
    """The pruned DFS used up DFS_VISIT_BUDGET visits before finishing.

    `partial_count` is the number of fitting subsets found so far, a lower
    bound on the true count; `visits` is the number of nodes visited.
    """

    def __init__(self, partial_count: int, visits: int):
        super().__init__(
            f"pruned DFS stopped after {visits} visits "
            f"with a partial count of {partial_count}"
        )
        self.partial_count = partial_count
        self.visits = visits


@dataclass(frozen=True)
class KnapsackCount:
    count: int
    capacity: float
    n: int
    method: str  # "dfs_pruned" | "meet_in_middle"


def _count_dfs(weights: np.ndarray, cap_eff: float) -> int:
    """DFS over weights sorted descending, on an explicit stack.

    At depth i with residual r: all remaining weights fit -> add 2**(n-i),
    which at i = n counts the empty completion, as r >= 0; even the smallest
    remaining weight exceeds r -> only the empty completion remains.  Each popped node follows its exclude branch in
    place and pushes its include branch, so every pop ends in one leaf,
    every leaf adds at least 1, and a pop visits at most n + 1 nodes.
    """
    desc = np.sort(weights)[::-1]
    n = desc.size
    suffix_total = np.concatenate([np.cumsum(desc[::-1])[::-1], [0.0]]).tolist()
    smallest = float(desc[-1]) if n else 0.0
    w = desc.tolist()
    budget = DFS_VISIT_BUDGET
    count = 0
    visits = 0
    stack = [(0, cap_eff)]
    while stack:
        start, residual = stack.pop()
        i = start
        while True:
            if suffix_total[i] <= residual:
                count += 1 << (n - i)
                break
            if smallest > residual:
                count += 1
                break
            if w[i] <= residual:
                stack.append((i + 1, residual - w[i]))
            i += 1
        visits += i - start + 1
        if visits > budget and stack:
            raise CountBudgetError(count, visits)
    return count


def _count_mim(weights: np.ndarray, cap_eff: float) -> int:
    half = weights.size // 2
    lo_sums = np.zeros(1)
    for w in weights[:half]:
        lo_sums = np.concatenate([lo_sums, lo_sums + w])
    hi_sums = np.zeros(1)
    for w in weights[half:]:
        hi_sums = np.concatenate([hi_sums, hi_sums + w])
    hi_sums.sort()
    counts = np.searchsorted(hi_sums, cap_eff - lo_sums, side="right")
    return int(counts.sum(dtype=np.int64))


def knapsack_count(
    weights, capacity: float, *, method: str = "dfs_pruned"
) -> KnapsackCount:
    """Exact |{ x in {0,1}^n : sum_i x_i w_i <= capacity }|.

    `method` forces an algorithm; by default the pruned DFS counts at any n
    and raises CountBudgetError when its visit budget runs out.
    Meet-in-the-middle refuses n > MAX_COUNT_N.  Negative or non-finite
    weights and a negative or NaN capacity are refused.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1:
        raise ValueError("weights must be a vector")
    n = w.size
    if not np.all(np.isfinite(w) & (w >= 0.0)):
        raise ValueError("weights must be finite and nonnegative")
    if not capacity >= 0.0:  # also refuses NaN
        raise ValueError(f"capacity must be nonnegative, got {capacity!r}")
    cap_eff = float(capacity) + CAP_SLACK_PER_ITEM * n
    if method == "dfs_pruned":
        count = _count_dfs(w, cap_eff)
    elif method == "meet_in_middle":
        if n > MAX_COUNT_N:
            raise ValueError(
                f"meet-in-the-middle counting limited to n <= {MAX_COUNT_N}"
            )
        count = _count_mim(w, cap_eff)
    else:
        raise ValueError(f"unknown counting method: {method!r}")
    return KnapsackCount(count=count, capacity=float(capacity), n=n, method=method)


def draw_weights(n: int, weight_law: str, rng: RngHandle) -> np.ndarray:
    """n nonnegative weights from ``uniform01``, ``absgauss``, or ``absmix:<eps>``.

    All three laws have maximum density at most 1 before taking absolute
    values, which is what the expectation envelope requires; for the mixture
    tests/test_numerics.py::TestMixtureDensity::test_max_density_at_most_one
    checks it.
    """
    gen = rng.gen
    if weight_law == "uniform01":
        return gen.random(n)
    if weight_law == "absgauss":
        return np.abs(gen.standard_normal(n))
    if weight_law.startswith("absmix:"):
        eps = float(weight_law.split(":", 1)[1])
        return np.abs(mixture_sample(eps, rng, size=n))
    raise ValueError(f"unknown weight law: {weight_law!r}")


def expectation_bound(n: int, g: float) -> float:
    """The e**(2*sqrt(2*n*g)) envelope on the expected count."""
    return math.exp(2.0 * math.sqrt(2.0 * n * g))


def knapsack_expectation_mc(
    n: int, weight_law: str, g: float, trials: int, rng: RngHandle
) -> tuple[float, float, float]:
    """Monte Carlo mean of exact counts under the weight law, with its
    standard error and the theoretical envelope e**(2*sqrt(2*n*g))."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    counts = np.empty(trials)
    for trial in range(trials):
        w = draw_weights(n, weight_law, rng.derive(trial))
        counts[trial] = knapsack_count(w, g, method="meet_in_middle").count
    mean = float(counts.mean())
    stderr = float(counts.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr, expectation_bound(n, g)


def reduced_cost_knapsack(lp_solution: LpSolution, gap: float) -> KnapsackCount:
    """Count of binary points whose reduced-cost weight stays within the gap.

    Weights are |c - A' u*| under the optimal dual vector, the LP solution's
    reduced costs; the capacity is the caller's integrality gap.  This is
    the canonical tree-size proxy.  The count is small when the gap is, so
    the pruned DFS counts it at any n; CountBudgetError says it was not
    small enough.
    """
    return knapsack_count(np.abs(lp_solution.reduced_costs), gap)


def sphere_net(d: int) -> np.ndarray:
    """Deterministic covering of the unit sphere in R^d, d <= 3.

    d=1 is the two signs, d=2 an angular grid with chord length <= 0.25,
    d=3 a Fibonacci lattice sized for a comparable covering radius.
    """
    spacing = 0.25
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        step = 2.0 * math.asin(spacing / 2.0)
        count = int(math.ceil(2.0 * math.pi / step))
        angles = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
        return np.column_stack([np.cos(angles), np.sin(angles)])
    if d == 3:
        count = int(math.ceil(18.0 / spacing**2))
        i = np.arange(count)
        phi = math.pi * (3.0 - math.sqrt(5.0)) * i
        z = 1.0 - (2.0 * i + 1.0) / count
        r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    raise ValueError("sphere nets provided only for d <= 3")


def logcon_tail_check(m: int, n: int, trials: int, rng: RngHandle) -> float:
    """Empirical frequency of max_u ||u' (W - E W)||_1 >= 4n over a sphere net.

    W is the (m+1) x n standard normal objective-extended matrix, u ranges
    over a 0.25-net of the unit sphere in R^(m+1).  The event has
    probability at most e**(-n/5), so the returned rate should be zero.
    """
    d = m + 1
    if d > 3:
        raise ValueError("net check supports m + 1 <= 3")
    if n < 100 * d:
        raise ValueError("n must be >= 100*(m+1)")
    net = sphere_net(d)
    hits = 0
    for trial in range(trials):
        w = rng.derive(trial).gen.standard_normal((d, n))
        norms = np.abs(net @ w).sum(axis=1)
        if norms.max() >= 4.0 * n:
            hits += 1
    return hits / trials
