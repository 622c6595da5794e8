"""Subset selection against an infinity-norm target.

Given ak columns in R^m, a target D, and a tolerance theta, find a k-subset
K with || sum_{j in K} Y_j - D ||_inf <= theta.  Small universes are solved
exactly, and the minimum-deviation subset is returned with ties going to
the lexicographically first one; the rounding pipeline uses only this
search.  It splits the pool in half (Horowitz-Sahni) and joins the subset
sums of the halves in a band: sorted on one coordinate, only the pairs
whose sum on it is within a bound on the minimum score are scored.  A
randomized swap local search, bounded by the exact oracle on small
instances, serves the Monte Carlo driver above the exact budget; that
driver estimates the success probability of the whole selection problem
under Gaussian or uniform+Gaussian-mixture column laws.

EXACT_ENUM_BUDGET caps the exact search at C(count, k) subsets.  It is
independent of the search's speed on purpose: it sets
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
    "fits_exact_budget",
    "disc_exact",
    "disc_search",
    "disc_success_mc",
    "draw_columns",
]

EXACT_ENUM_BUDGET = 2_000_000
SIDEWAYS_PROB = 0.1   # chance of taking the best swap when it does not improve
_ENUM_CHUNK = 32768
_EPS64 = np.finfo(np.float64).eps


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
        if not (math.isfinite(self.theta) and self.theta > 0.0):
            raise ValueError(f"theta must be finite and positive, got {self.theta!r}")
        if not np.all(np.isfinite(self.target)):
            raise ValueError("target contains non-finite entries")
        if not np.all(np.isfinite(self.columns)):
            raise ValueError("columns contain non-finite entries")
        if not 1 <= self.k <= self.columns.shape[1]:
            raise ValueError("k must lie in [1, number of columns]")

    @property
    def count(self) -> int:
        return self.columns.shape[1]


@dataclass(frozen=True)
class DiscOutcome:
    """Best subset examined; `found` means its deviation is within theta.

    `scored` is the number of split-half pairs disc_exact scored (0 for the
    local search); `evaluations` the subsets the search decided between.
    """

    found: bool
    subset: tuple[int, ...]
    deviation: float
    evaluations: int
    scored: int = 0


def fits_exact_budget(count: int, k: int) -> bool:
    """Whether disc_exact accepts a pool of `count` columns and subset size k:
    C(count, k) <= EXACT_ENUM_BUDGET."""
    return math.comb(count, k) <= EXACT_ENUM_BUDGET


@lru_cache(maxsize=8)
def _split_plan(count: int, k: int):
    """Subset table, size-pair blocks, sum plan and band groups of the
    split-half enumeration of C(count, k).

    Column r of `table` holds one subset of a half as k + 1 indices into
    [columns | 0 | -target], one per slot (row).  A left size-j subset
    fills slots 0..j-1; a right subset of size k-j fills slots j..k-1 and
    points slot k at -target; every other slot points at the zero column,
    index count.  So a column's sum is the subset sum (minus the target on
    the right), and the elementwise minimum of a left and a right column's
    first k slots is their union in lexicographic order.  Columns run
    lexicographically within each (half, size) block.  Block
    (l0, l1, r0, r1) pairs the left columns l0..l1-1 of size j with the
    right columns r0..r1-1 of size k-j: the k-subsets with j members in
    the left half.  Blocks, and each half's columns, run from the size
    pair with the most pairs to the one with the fewest.

    `sum_plan`, (steps, pieces, split), builds those sums without the
    table (_split_sums).  Step s makes the size-s subset sums of both
    halves, left then right, each in lexicographic order, from the
    size-(s-1) sums of the step before; before step 1 they are the empty
    sum of each half.  Its (prefix, last) give each subset the position
    of its first s-1 members among those sums and its last member, so a
    sum is its prefix's sum plus its last column: the columns are added in
    ascending order, as the slots add them.  `pieces` lists (s, cut), the
    step-s sums of each block in table column order, and the table
    columns from `split` on, the right half's, add -target last.

    `groups` holds the band join's two passes over the left sums, the
    largest size pair and then all the others, as (rows, parts, base):
    rows is the slice of table columns they take, part (a, b, p0, p1)
    says the bands of its left sums a..b-1 lie in positions p0..p1-1 of
    the right sums sorted block by block, and base holds each left sum's
    p0.  Laying the blocks out from the most pairs to the fewest keeps
    each pass's left sums together.
    """
    h = count // 2
    # j, the left size of a size pair, from the most pairs to the fewest
    sizes = sorted(
        range(max(0, k - (count - h)), min(k, h) + 1),
        key=lambda j: -math.comb(h, j) * math.comb(count - h, k - j),
    )
    halves = [(range(h), j, 0) for j in sizes]
    halves += [(range(h, count), k - j, j) for j in sizes]
    starts = np.cumsum([0] + [math.comb(len(items), size) for items, size, _ in halves])
    table = np.full((k + 1, starts[-1]), count, dtype=np.intp)
    table[k, starts[len(sizes)] :] = count + 1
    for (items, size, slot), lo, hi in zip(halves, starts[:-1], starts[1:]):
        table[slot : slot + size, lo:hi] = np.fromiter(
            chain.from_iterable(combinations(items, size)),
            dtype=np.intp,
            count=(hi - lo) * size,
        ).reshape(hi - lo, size).T
    table.flags.writeable = False
    s, b = starts.tolist(), len(sizes)
    blocks = [(s[i], s[i + 1], s[b + i], s[b + i + 1]) for i in range(b)]

    steps, lefts = [], [1]  # lefts[s]: the number of size-s left subsets
    last = np.array([-1]), np.array([h - 1])  # the empty subset of each half
    for _ in range(min(k, count - h)):
        (lp, ll), (rp, rl) = _extend(last[0], h), _extend(last[1], count)
        steps.append((np.concatenate([lp, rp + lefts[-1]]), np.concatenate([ll, rl])))
        last = ll, rl
        lefts.append(ll.size)
    pieces = [(j, slice(0, lefts[j])) for j in sizes]
    pieces += [(k - j, slice(lefts[k - j], None)) for j in sizes]

    at = [r0 - s[b] for _, _, r0, _ in blocks] + [s[-1] - s[b]]
    groups = []
    for first, stop in ((0, 1), (1, b)):
        parts = tuple((s[i] - s[first], s[i + 1] - s[first], at[i], at[i + 1])
                      for i in range(first, stop))
        base = np.repeat(at[first:stop], np.diff(s[first : stop + 1]))
        groups.append((slice(s[first], s[stop]), parts, base))
    for array in chain(*steps, (base for _, _, base in groups)):
        array.flags.writeable = False
    sum_plan = tuple(steps), tuple(pieces), s[b]
    return table, tuple(blocks), sum_plan, tuple(groups)


def _extend(last, end):
    """(prefix, last) of the subsets of range(end) one member larger than
    the subsets whose last members are `last`, in lexicographic order:
    each of those subsets followed by each member after its last, in turn."""
    reps = end - 1 - last
    prefix = np.repeat(np.arange(last.size), reps)
    first = (np.cumsum(reps) - reps)[prefix]
    return prefix, np.arange(prefix.size) - first + last[prefix] + 1


def disc_exact(instance: DiscInstance) -> DiscOutcome:
    """Minimum-deviation k-subset, ties going to the lexicographically
    first: what scoring every combinations() tuple in order returns.

    Every pool goes through _band_join, and `scored` counts the pairs of
    half sums it scored.  `evaluations` is C(count, k), the subsets the
    search decides between.

    Refuses instances with more than EXACT_ENUM_BUDGET subsets; the
    module docstring says why that budget stays fixed.
    """
    count, k = instance.count, instance.k
    total = math.comb(count, k)
    if not fits_exact_budget(count, k):
        raise ExactBudgetError(
            f"{total} subsets exceed the exact budget of {EXACT_ENUM_BUDGET}"
        )
    (best_dev, best_subset), scored = _band_join(instance)
    return DiscOutcome(
        found=best_dev <= instance.theta,
        subset=best_subset,
        deviation=best_dev,
        evaluations=total,
        scored=scored,
    )


def _band_join(instance: DiscInstance):
    """((deviation, subset), pairs scored) of the split-half band join.

    The pool splits into columns [0, h) and [h, count), and a k-subset
    with j members on the left is a pair of a size-j left sum l and a
    size-(k-j) right sum r minus the target, with split-half score
    max_i |l_i + r_i|.  Each half's size-s sums are its size-(s-1) sums
    plus one column (_split_sums), which adds a subset's columns in
    ascending order and the target last.  The right sums of each size
    pair are sorted on coordinate 0.  In the largest size pair each left
    sum is scored with its two nearest right sums on that coordinate (the
    probes), which bounds the minimum score.  A pair within tol of the
    minimum has |l_0 + r_0| <= near + tol, near being the smallest score
    so far, and for each left sum those pairs are one run of the sorted
    right sums, its band, found by one searchsorted per size pair.  The
    largest size pair's bands, which hold its probes, are scored first,
    and the scores found there narrow the bands of the other size pairs,
    if there are any: k == count, or count == 1 with its empty left half,
    gives one size pair.  Only bands are scored, at most _ENUM_CHUNK * k
    pairs at a time.

    A split-half score differs from the direct score
    |cols[:, subset].sum() - target|_inf by rounding only.  The subsets
    within a rounding bound of the smallest split-half score are scored
    again directly, and the minimum direct score wins, so the result is
    that of direct scoring.
    """
    count, k = instance.count, instance.k
    m = instance.columns.shape[0]
    table, blocks, sum_plan, groups = _split_plan(count, k)
    ext = np.empty((m, count + 1))
    ext[:, :count] = instance.columns
    np.negative(instance.target, out=ext[:, count])
    sums = _split_sums(ext, *sum_plan)
    # the two scores of a subset add at most k + 1 terms bounded by max|ext|
    # in different orders, rounding at most to the columns' precision, so
    # they differ by less than tol / 4; the window needs tol / 2 to hold
    # the direct minimum and all its ties
    eps = np.finfo(np.result_type(instance.columns, 1.0)).eps
    tol = 4.0 * (k + 1) ** 2 * eps * np.abs(ext).max()

    order = np.concatenate([r0 + np.argsort(sums[0, r0:r1]) for _, _, r0, r1 in blocks])
    right = np.take(sums, order, axis=1)
    rows, ((_, _, _, n0),), _ = groups[0]
    probe = np.arange(rows.start, rows.stop)  # left sums of the largest size pair
    pos = np.searchsorted(right[0, :n0], -sums[0, rows])
    below, above = np.maximum(pos - 1, 0), np.minimum(pos, n0 - 1)
    near = min(_scores(sums, right, probe, p).min() for p in (below, above))

    slack = 4.0 * _EPS64 * np.abs(sums[0]).max()
    cap = _ENUM_CHUNK * k
    kept = []  # (scores, left, right) table columns of pairs that may hold the minimum
    kept_size = scored = 0
    best = (np.inf, ())
    # the scores found in the largest size pair's bands narrow the others'
    for g, (rows, parts, base) in enumerate(groups):
        if not parts:  # a pool with one size pair
            continue
        # |fl(l_0 + r_0)| <= s gives |l_0 + r_0| <= s (1 + eps64), and the
        # keys -l_0 -/+ w, slack included, round to outside that interval
        s = near + tol
        w = s + slack + 4.0 * _EPS64 * s
        lo, hi = _band_edges(sums[0, rows], right[0], parts, w)
        if g == 0:  # lo <= pos <= hi: widen each band over its probes
            lo, hi = np.minimum(lo, below), np.maximum(hi, above + 1)
        ends = np.cumsum(hi - lo)  # left sum r owns the band slots up to ends[r]
        band = int(ends[-1])
        scored += band
        shift = hi + base - ends  # right position of a slot minus the slot
        for t0 in range(0, band, cap):
            t = np.arange(t0, min(t0 + cap, band))
            r = np.searchsorted(ends, t, side="right")
            cols = t + shift[r]
            r += rows.start  # the table column of the slot's left sum
            dev = _scores(sums, right, r, cols)
            near = min(near, dev.min())
            hit = np.flatnonzero(dev <= near + tol)
            kept.append((dev[hit], r[hit], order[cols[hit]]))
            kept_size += hit.size
            if kept_size > cap:
                best = _rescore(instance, table, kept, near + tol, best)
                kept, kept_size = [], 0
    return _rescore(instance, table, kept, near + tol, best), scored


def _split_sums(ext, steps, pieces, split):
    """Sums of _split_plan's table columns, from ext = [columns | -target]
    and its sum plan: per subset size, one gather of the prefix sums, one
    of the last columns and one add for both halves."""
    sizes = [np.zeros((ext.shape[0], 2))]  # the empty sum of each half
    for prefix, last in steps:
        sizes.append(np.take(sizes[-1], prefix, axis=1) + np.take(ext, last, axis=1))
    sums = np.concatenate([sizes[s][:, cut] for s, cut in pieces], axis=1)
    sums[:, split:] += ext[:, -1:]
    return sums


def _band_edges(left0, right0, parts, w):
    """(lo, hi) of the bands of the left sums with coordinate 0 in
    `left0`: positions lo..hi-1 of right0[p0:p1], within the part, hold
    the values within w of -l_0.  One searchsorted per size pair finds
    both edges: hi, what side="right" counts at w - l_0, is the count
    below w - l_0 plus one ulp.  Sign symmetry makes -w - l_0 and w - l_0
    the same floats as -l_0 - w and -l_0 + w."""
    keys = np.empty((left0.size, 2))  # each sum's two edges side by side
    np.subtract(-w, left0, out=keys[:, 0])
    upper = np.subtract(w, left0, out=keys[:, 1]).view(np.int64)
    # one ulp up is one more in the integer bits of a float >= +0.0 and one
    # less in those of a negative one (w - l_0 is never -0.0, as w >= 0):
    # np.nextafter(w - l_0, np.inf) at a fraction of its cost, except that
    # +inf goes to NaN, which searchsorted also sorts past every number
    upper += (upper >> 63) | 1
    pos = np.concatenate([right0[p0:p1].searchsorted(keys[a:b]) for a, b, p0, p1 in parts])
    return pos[:, 0], pos[:, 1]


def _scores(left, right, rows, cols):
    """Split-half scores max_i |left[i, rows] + right[i, cols]|, one
    coordinate at a time, so memory stays at a few floats per pair."""
    dev = np.abs(left[0][rows] + right[0][cols])
    for i in range(1, left.shape[0]):
        np.maximum(dev, np.abs(left[i][rows] + right[i][cols]), out=dev)
    return dev


def _rescore(instance, table, kept, cutoff, best):
    """Fold the kept pairs with split-half score <= cutoff into `best` by
    their direct score."""
    k = instance.k
    for dev, left, right in kept:
        hit = dev <= cutoff
        subsets = np.minimum(table[:k, left[hit]], table[:k, right[hit]]).T
        best = _fold(instance, subsets, best)
    return best


def _fold(instance, subsets, best):
    """Fold the k-subsets in the rows of `subsets` into `best`, a
    (deviation, subset) pair, by their direct score, ties going to the
    lexicographically first subset."""
    cols = instance.columns
    target = instance.target[:, None]
    best_dev, best_subset = best
    for s0 in range(0, subsets.shape[0], _ENUM_CHUNK):
        chunk = subsets[s0 : s0 + _ENUM_CHUNK]
        exact = np.abs(cols[:, chunk].sum(axis=2) - target).max(axis=0)
        low = exact.min()
        if low > best_dev:
            continue
        ties = chunk[exact == low]
        for c in range(ties.shape[1]):  # lexicographic minimum, one column at a time
            if len(ties) == 1:
                break
            ties = ties[ties[:, c] == ties[:, c].min()]
        subset = tuple(ties[0].tolist())
        if low < best_dev or subset < best_subset:
            best_dev, best_subset = float(low), subset
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
    use_exact = fits_exact_budget(params.universe, k)
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
