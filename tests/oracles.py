"""Independent reference implementations used to freeze expected values.

Everything here is deliberately brute force and shares no code with the
library paths it checks.
"""

from __future__ import annotations

import math
from itertools import combinations, islice

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr


def _bound_patterns(size: int) -> np.ndarray:
    codes = np.arange(1 << size, dtype=np.int64)
    return ((codes[:, None] >> np.arange(size)) & 1).astype(float)


def lp_vertex_oracle(a, b, c, tol: float = 1e-9):
    """LP over A x <= b, x in [0,1]^n by enumerating every vertex.

    A vertex makes n constraints tight: k rows of A (k <= min(m, n)) plus
    n - k variable bounds.  Candidates for each (rows, free) choice are
    evaluated in one batch.  Returns ("optimal", value, x) or
    ("infeasible", None, None).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = a.shape
    best_val = None
    best_x = None

    def consider_batch(xs):
        nonlocal best_val, best_x
        ok = (
            np.all(xs >= -tol, axis=1)
            & np.all(xs <= 1.0 + tol, axis=1)
            & np.all(xs @ a.T <= b + tol, axis=1)
        )
        if not np.any(ok):
            return
        vals = xs[ok] @ c
        i = int(np.argmax(vals))
        if best_val is None or vals[i] > best_val:
            best_val = float(vals[i])
            best_x = np.clip(xs[ok][i], 0.0, 1.0)

    patterns_cache = {size: _bound_patterns(size) for size in range(n + 1)}
    for k in range(0, min(m, n) + 1):
        patterns = patterns_cache[n - k]
        for rows in combinations(range(m), k):
            for free in combinations(range(n), k):
                fixed = [j for j in range(n) if j not in free]
                if k == 0:
                    consider_batch(patterns.copy())
                    continue
                sub = a[np.ix_(rows, free)]
                if abs(np.linalg.det(sub)) < 1e-12:
                    continue
                rhs = b[list(rows)][:, None] - a[np.ix_(rows, fixed)] @ patterns.T
                sols = np.linalg.solve(sub, rhs)  # (k, 2^(n-k))
                xs = np.empty((patterns.shape[0], n))
                xs[:, fixed] = patterns
                xs[:, list(free)] = sols.T
                consider_batch(xs)
    if best_val is None:
        return "infeasible", None, None
    return "optimal", best_val, best_x


def count_subsets_exhaustive(weights, capacity) -> int:
    """2^n scan; n <= 20 or so."""
    w = np.asarray(weights, dtype=float)
    n = w.size
    count = 0
    for code in range(1 << n):
        total = 0.0
        for i in range(n):
            if (code >> i) & 1:
                total += w[i]
        if total <= capacity + 1e-12 * n:
            count += 1
    return count


def count_small_weight_subsets(weights, capacity, max_small: int = 20) -> int:
    """Exact knapsack count at any n when few weights fit on their own.

    A weight above the capacity is in no fitting subset, so enumerating the
    subsets of the others is exact for the full problem.  The capacity
    slack is 1e-12 per item of the full vector, as in the library.
    """
    w = np.asarray(weights, dtype=float)
    cap = capacity + 1e-12 * w.size
    small = w[w <= cap]
    if small.size > max_small:
        raise ValueError(f"{small.size} weights fit alone; enumeration refused")
    sums = np.zeros(1)
    for wi in small:
        sums = np.concatenate([sums, sums + wi])
    return int(np.count_nonzero(sums <= cap))


def count_disc_successes(columns, target, theta, k) -> int:
    """Number of k-subsets of the columns within theta of the target."""
    cols = np.asarray(columns, dtype=float)
    target = np.asarray(target, dtype=float)
    hits = 0
    for subset in combinations(range(cols.shape[1]), k):
        dev = np.abs(cols[:, subset].sum(axis=1) - target).max()
        if dev <= theta:
            hits += 1
    return hits


def disc_exact_oracle(columns, target, theta, k):
    """Minimum-deviation k-subset by scoring every itertools.combinations
    tuple in order; a later subset replaces the best only when strictly
    better, so ties go to the lexicographically first one.

    Sums keep the columns' dtype.  Returns (found, subset, deviation,
    evaluations).
    """
    cols = np.asarray(columns)
    target = np.asarray(target)
    best_dev = math.inf
    best_subset = ()
    evaluations = 0
    subsets = combinations(range(cols.shape[1]), k)
    while True:
        batch = list(islice(subsets, 1 << 15))
        if not batch:
            break
        idx = np.array(batch)
        dev = np.abs(cols[:, idx].sum(axis=2) - target[:, None]).max(axis=0)
        evaluations += len(batch)
        i = int(np.argmin(dev))
        if dev[i] < best_dev:
            best_dev = float(dev[i])
            best_subset = batch[i]
    return best_dev <= theta, best_subset, best_dev, evaluations


def band_y_cdf(omega: float, nu: float):
    """CDF of N(0, 1/(1+omega^2)) + uniform(0, nu*omega/(1+omega^2)).

    Closed form via the antiderivative of the normal CDF; degenerates to the
    pure normal when omega = 0.
    """
    s2 = 1.0 + omega * omega
    sigma = math.sqrt(1.0 / s2)
    width = nu * omega / s2

    def g(z):
        return z * ndtr(z) + np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    def cdf(y):
        y = np.asarray(y, dtype=float)
        if width < 1e-14:
            return ndtr(y / sigma)
        return (g(y / sigma) - g((y - width) / sigma)) * sigma / width

    return cdf


def band_y_cdf_quadrature(omega: float, nu: float):
    """Same CDF by direct numerical integration, for cross-checking."""
    s2 = 1.0 + omega * omega
    sigma = math.sqrt(1.0 / s2)
    width = nu * omega / s2

    def cdf(y):
        if width < 1e-14:
            return float(ndtr(y / sigma))
        val, _ = quad(lambda t: ndtr((y - t) / sigma) / width, 0.0, width)
        return val

    return cdf


def mixture_density_oracle(eps: float, x):
    """Density of sqrt(eps)*U + sqrt(1-eps)*Z, U uniform on [-sqrt(3),
    sqrt(3)] and Z standard normal: the uniform's window of scipy's normal
    CDF, or one law alone at eps = 0 and eps = 1."""
    x = np.asarray(x, dtype=float)
    if eps == 0.0:
        return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    half = math.sqrt(3.0 * eps)
    if eps == 1.0:
        return np.where(np.abs(x) <= half, 0.5 / half, 0.0)
    scale = math.sqrt(1.0 - eps)
    return (ndtr((x + half) / scale) - ndtr((x - half) / scale)) / (2.0 * half)


# high-precision frozen values (50-digit decimal evaluation)
ENTROPY_0_998 = 0.014427214862176115
ALPHA_EPS_19_DELTA = 0.2820011622124830   # eps = 1/9, delta = sqrt(2*pi)/10
BETA_FOR_ALPHA_EPS_19 = 0.9970930563138169


def milp_oracle(a, b, c):
    """Optimum of max c @ x, A x <= b, x in {0,1}^n by scipy's HiGHS
    branch and cut, or None when HiGHS proves no binary point feasible."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    a = np.asarray(a, dtype=float)
    res = milp(
        -np.asarray(c, dtype=float),
        constraints=LinearConstraint(a, -np.inf, np.asarray(b, dtype=float)),
        integrality=np.ones(a.shape[1]),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0.0},
    )
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS milp did not finish: {res.message}")
    return -float(res.fun)


def linprog_oracle(a, b, c, lower=None, upper=None):
    """Optimum of max c @ x, A x <= b, lower <= x <= upper (default
    [0, 1]^n) by scipy's HiGHS `linprog`, or None when HiGHS proves the LP
    infeasible."""
    from scipy.optimize import linprog

    a = np.asarray(a, dtype=float)
    n = a.shape[1]
    lower = np.zeros(n) if lower is None else np.asarray(lower, dtype=float)
    upper = np.ones(n) if upper is None else np.asarray(upper, dtype=float)
    res = linprog(
        -np.asarray(c, dtype=float),
        A_ub=a,
        b_ub=np.asarray(b, dtype=float),
        bounds=np.column_stack([lower, upper]),
        method="highs",
    )
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS linprog did not finish: {res.message}")
    return -float(res.fun)


def serialize_oracle(instance) -> bytes:
    """GIPLAB v1 bytes written one element at a time with repr(float(v))."""
    meta = instance.meta
    lines = ["GIPLAB v1", f"{instance.m} {instance.n}", meta.b_spec]
    lines.append("-" if meta.seed is None else meta.seed)
    for v in instance.b:
        lines.append(repr(float(v)))
    for v in instance.c:
        lines.append(repr(float(v)))
    for row in instance.A:
        lines.append(" ".join(repr(float(v)) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")
