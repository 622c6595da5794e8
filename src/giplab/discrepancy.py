"""Subset selection against an infinity-norm target.

Given ak columns in R^m, a target D, and a tolerance theta, find a k-subset
K with || sum_{j in K} Y_j - D ||_inf <= theta.  Small universes are solved
exactly by split-half enumeration (Horowitz-Sahni): subset sums of the two
halves of the pool meet in outer sums, so every k-subset is scored once
without building it, and the minimum-deviation subset is returned with
ties going to the lexicographically first one.  Larger universes use a
randomized swap local search whose quality is bounded by the exact oracle
on small instances.  A Monte Carlo driver estimates the success
probability of the whole selection problem under Gaussian or
uniform+Gaussian-mixture column laws.

EXACT_ENUM_BUDGET caps the exact search at C(count, k) subsets.  It is
independent of the enumeration's speed on purpose: it sets
rounding.exact_pool_k_cap and with it the default k of the rounding
pipeline, which the frozen calibrations assume.  Raising it belongs in a
change that recalibrates those openly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations

import numpy as np

from .numerics import calibrate_theta
from .rng import RngHandle, mixture_sample

__all__ = [
    "DiscInstance",
    "DiscOutcome",
    "ExactBudgetError",
    "EXACT_ENUM_BUDGET",
    "exact_enum_size",
    "disc_exact",
    "disc_search",
    "disc_success_mc",
    "draw_columns",
]

EXACT_ENUM_BUDGET = 2_000_000
SIDEWAYS_PROB = 0.1   # chance of taking the best swap when it does not improve
_ENUM_CHUNK = 32768


class ExactBudgetError(ValueError):
    """Exact enumeration refused: too many k-subsets."""


@dataclass(frozen=True, eq=False)
class DiscInstance:
    """Columns (one per matrix column), target vector, tolerance, subset size."""

    columns: np.ndarray  # shape (m, count)
    target: np.ndarray   # shape (m,)
    theta: float
    k: int

    def __post_init__(self):
        if self.columns.ndim != 2:
            raise ValueError("columns must be an (m, count) matrix")
        if self.target.shape != (self.columns.shape[0],):
            raise ValueError("target dimension does not match the columns")
        if self.theta <= 0.0:
            raise ValueError("theta must be positive")
        if not 1 <= self.k <= self.columns.shape[1]:
            raise ValueError("k must lie in [1, number of columns]")

    @property
    def count(self) -> int:
        return self.columns.shape[1]


@dataclass(frozen=True)
class DiscOutcome:
    """Best subset examined; `found` means its deviation is within theta."""

    found: bool
    subset: tuple[int, ...]
    deviation: float
    evaluations: int


def exact_enum_size(count: int, k: int) -> int:
    return math.comb(count, k)


@lru_cache(maxsize=8)
def _split_plan(count: int, k: int):
    """Subset table and slabs of the split-half enumeration of C(count, k).

    Row r of `table` holds one subset of a half as k + 1 column indices
    into [columns | 0 | -target].  A left size-j subset fills slots
    0..j-1; a right subset of size k-j fills slots j..k-1 and points slot k
    at -target; every other slot points at the zero column, index count.
    So a row sum is the subset sum (minus the target on the right), and
    the elementwise minimum of a left and a right row's first k slots is
    their union in lexicographic order.  Rows run lexicographically within
    each (half, size) block.  Slab (r0, r1, c0, c1) pairs left rows
    r0..r1-1 with right rows c0..c1-1 of one size pair j, k-j: at most
    _ENUM_CHUNK * k pairs, with rows and pairs in lexicographic order.
    """
    h = count // 2
    sizes = range(max(0, k - (count - h)), min(k, h) + 1)
    blocks = [(range(h), j, 0) for j in sizes]
    blocks += [(range(h, count), k - j, j) for j in sizes]
    starts = np.cumsum([0] + [math.comb(len(items), size) for items, size, _ in blocks])
    table = np.full((starts[-1], k + 1), count, dtype=np.intp)
    table[starts[len(sizes)] :, k] = count + 1
    for (items, size, slot), lo, hi in zip(blocks, starts[:-1], starts[1:]):
        table[lo:hi, slot : slot + size] = np.fromiter(
            chain.from_iterable(combinations(items, size)),
            dtype=np.intp,
            count=(hi - lo) * size,
        ).reshape(hi - lo, size)
    table.flags.writeable = False
    starts = starts.tolist()
    cap = _ENUM_CHUNK * k
    slabs = []
    for b in range(len(sizes)):
        l0, l1 = starts[b], starts[b + 1]
        r0, r1 = starts[len(sizes) + b], starts[len(sizes) + b + 1]
        cstep = min(r1 - r0, cap)
        rstep = max(1, cap // cstep)
        slabs.extend(
            (a, min(a + rstep, l1), c, min(c + cstep, r1))
            for a in range(l0, l1, rstep)
            for c in range(r0, r1, cstep)
        )
    return table, tuple(slabs)


def disc_exact(instance: DiscInstance) -> DiscOutcome:
    """Score every k-subset and return the minimum-deviation one.

    Split-half enumeration (Horowitz-Sahni): the pool splits into columns
    [0, h) and [h, count).  For each left size j, the sums of the size-j
    left subsets meet the sums of the size-(k-j) right subsets minus the
    target in an outer sum, one coordinate at a time, keeping the running
    maximum of absolute values; slabs hold at most _ENUM_CHUNK * k pairs.
    Every k-subset is scored exactly once, so `evaluations` is C(count, k).

    A split-half score differs from the direct score
    |cols[:, subset].sum() - target|_inf by rounding only.  The subsets
    within a rounding bound of the smallest split-half score are scored
    again directly, and the minimum direct score wins, ties going to the
    lexicographically first subset.  Subset, deviation and verdict are
    therefore those of scoring every combinations() tuple in order.

    Refuses instances with more than EXACT_ENUM_BUDGET subsets; the
    module docstring says why that budget stays fixed.
    """
    count, k = instance.count, instance.k
    total = exact_enum_size(count, k)
    if total > EXACT_ENUM_BUDGET:
        raise ExactBudgetError(
            f"{total} subsets exceed the exact budget of {EXACT_ENUM_BUDGET}"
        )
    m = instance.columns.shape[0]
    table, slabs = _split_plan(count, k)
    ext = np.zeros((m, count + 2))
    ext[:, :count] = instance.columns
    np.negative(instance.target, out=ext[:, -1])
    sums = np.empty((m, table.shape[0]))
    for r0 in range(0, table.shape[0], _ENUM_CHUNK):
        part = table[r0 : r0 + _ENUM_CHUNK]
        np.add.reduce(ext[:, part], axis=2, out=sums[:, r0 : r0 + part.shape[0]])
    # the two scores of a subset add at most k + 1 terms bounded by max|ext|
    # in different orders, rounding at most to the columns' precision, so
    # they differ by less than tol / 4; the window needs tol / 2 to hold
    # the direct minimum and all its ties
    eps = np.finfo(np.result_type(instance.columns, 1.0)).eps
    tol = 4.0 * (k + 1) ** 2 * eps * np.abs(ext).max()
    near = np.inf  # smallest split-half score so far
    kept = []  # (lowest score, scores, slab) of slabs that may hold the minimum
    kept_size = 0
    best = (np.inf, ())
    for slab in slabs:
        a, b, c, d = slab
        dev = np.add.outer(sums[0, a:b], sums[0, c:d])
        np.abs(dev, out=dev)
        if m > 1:
            row = np.empty_like(dev)
            for i in range(1, m):
                np.add.outer(sums[i, a:b], sums[i, c:d], out=row)
                np.abs(row, out=row)
                np.maximum(dev, row, out=dev)
        low = dev.min()
        if low > near + tol:
            continue
        near = min(near, low)
        kept.append((low, dev, slab))
        kept_size += dev.size
        if kept_size > _ENUM_CHUNK * k:
            best = _rescore(instance, table, kept, near + tol, best)
            kept, kept_size = [], 0
    best_dev, best_subset = _rescore(instance, table, kept, near + tol, best)
    return DiscOutcome(
        found=best_dev <= instance.theta,
        subset=best_subset,
        deviation=best_dev,
        evaluations=total,
    )


def _rescore(instance, table, kept, cutoff, best):
    """Fold the kept slabs' subsets with split-half score <= cutoff into
    `best`, a (deviation, subset) pair, by their direct score."""
    cols = instance.columns
    target = instance.target[:, None]
    k = instance.k
    best_dev, best_subset = best
    for low, dev, (a, _, c, _) in kept:
        if low > cutoff:
            continue
        hit_l, hit_r = np.nonzero(dev <= cutoff)
        subsets = np.minimum(table[a + hit_l, :k], table[c + hit_r, :k])
        for s0 in range(0, subsets.shape[0], _ENUM_CHUNK):
            chunk = subsets[s0 : s0 + _ENUM_CHUNK]
            exact = np.abs(cols[:, chunk].sum(axis=2) - target).max(axis=0)
            i = int(exact.argmin())  # chunks and hits run in lexicographic order
            if exact[i] > best_dev:
                continue
            subset = tuple(chunk[i].tolist())
            if exact[i] < best_dev or subset < best_subset:
                best_dev, best_subset = float(exact[i]), subset
    return best_dev, best_subset


def _deviation(subset_sum, target):
    return float(np.abs(subset_sum - target).max())


def disc_search(
    instance: DiscInstance,
    rng: RngHandle,
    restarts: int = 50,
) -> DiscOutcome:
    """Randomized swap local search on the infinity-norm objective.

    Each restart starts from a uniform random k-subset and repeatedly applies
    the best (in, out) swap; a non-improving best swap is still taken with
    probability SIDEWAYS_PROB to escape plateaus.  A restart stops after 30k
    moves, or after 3k moves without improvement.  found=False is a legal
    outcome and does not prove nonexistence.
    """
    cols = instance.columns
    target = instance.target
    m, count = cols.shape
    k = instance.k
    gen = rng.gen

    best_dev = np.inf
    best_subset: tuple[int, ...] = ()
    evaluations = 0

    for _ in range(max(restarts, 1)):
        members = np.zeros(count, dtype=bool)
        members[gen.choice(count, size=k, replace=False)] = True
        current = cols[:, members].sum(axis=1)
        cur_dev = _deviation(current, target)
        evaluations += 1
        if cur_dev < best_dev:
            best_dev = cur_dev
            best_subset = tuple(int(i) for i in np.flatnonzero(members))
        if best_dev <= instance.theta:
            break
        restart_best = cur_dev
        stagnation = 0
        for _ in range(30 * k):
            ins = np.flatnonzero(members)
            outs = np.flatnonzero(~members)
            if outs.size == 0:
                break
            # candidate sums for every swap: current - col_out + col_in
            cand = (
                current[:, None, None]
                - cols[:, ins, None]
                + cols[:, None, outs]
            )
            dev = np.abs(cand - target[:, None, None]).max(axis=0)
            evaluations += dev.size
            flat = int(np.argmin(dev))
            i_pos, j_pos = np.unravel_index(flat, dev.shape)
            new_dev = float(dev[i_pos, j_pos])
            take = new_dev < cur_dev - 1e-15
            if not take and gen.random() < SIDEWAYS_PROB:
                take = True
            if take:
                i_out = int(ins[i_pos])
                j_in = int(outs[j_pos])
                members[i_out] = False
                members[j_in] = True
                current = current - cols[:, i_out] + cols[:, j_in]
                cur_dev = new_dev
            if cur_dev < best_dev:
                best_dev = cur_dev
                best_subset = tuple(int(i) for i in np.flatnonzero(members))
            if best_dev <= instance.theta:
                break
            if cur_dev < restart_best - 1e-15:
                restart_best = cur_dev
                stagnation = 0
            else:
                stagnation += 1
                if stagnation >= 3 * k:
                    break
        if best_dev <= instance.theta:
            break
    return DiscOutcome(
        found=best_dev <= instance.theta,
        subset=best_subset,
        deviation=best_dev,
        evaluations=evaluations,
    )


def draw_columns(m: int, count: int, column_law: str, rng: RngHandle) -> np.ndarray:
    """(m, count) matrix with i.i.d. entries from `column_law`.

    Laws: ``gaussian`` or ``mixture:<eps>`` (the scaled uniform+normal mix).
    """
    if column_law == "gaussian":
        return rng.gen.standard_normal((m, count))
    if column_law.startswith("mixture:"):
        eps = float(column_law.split(":", 1)[1])
        return mixture_sample(eps, rng, size=(m, count))
    raise ValueError(f"unknown column law: {column_law!r}")


def disc_success_mc(
    m: int,
    k: int,
    column_law: str,
    target,
    trials: int,
    rng: RngHandle,
) -> tuple[float, float]:
    """Monte Carlo estimate of the k-subset success probability.

    theta and the universe size come from calibrate_theta(m, k).  Each trial
    draws a*k fresh columns and asks whether some k-subset lands within theta
    of the target; the exact oracle decides when the enumeration budget
    permits, otherwise the local search with 100 restarts provides a lower
    bound on the rate.
    Returns (rate, binomial standard error).
    """
    if trials < 100:
        raise ValueError("trials must be >= 100")
    params = calibrate_theta(m, k)
    target = np.asarray(target, dtype=float)
    successes = 0
    use_exact = exact_enum_size(params.universe, k) <= EXACT_ENUM_BUDGET
    for trial in range(trials):
        handle = rng.derive(trial)
        cols = draw_columns(m, params.universe, column_law, handle)
        inst = DiscInstance(columns=cols, target=target, theta=params.theta, k=k)
        if use_exact:
            out = disc_exact(inst)
        else:
            out = disc_search(inst, handle.derive(1), restarts=100)
        successes += bool(out.found)
    rate = successes / trials
    stderr = math.sqrt(max(rate * (1.0 - rate), 1e-12) / trials)
    return rate, stderr
