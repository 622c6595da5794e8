"""Independent reference implementations used to freeze expected values.

Everything here is deliberately brute force and shares no code with the
library paths it checks.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
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
    n - k variable bounds.  For each choice of k rows, the k x k systems
    of every choice of k free columns are solved in one batched call, and
    the solution is then applied to every 0/1 pattern of the other n - k
    columns.  Returns
    ("optimal", value, x) or ("infeasible", None, None).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = a.shape
    best_val = None
    best_x = None

    def consider_batch(xs):
        # every coordinate is in [-tol, 1 + tol] already
        nonlocal best_val, best_x
        ok = np.all(xs @ a.T <= b + tol, axis=1)
        if not np.any(ok):
            return
        vals = xs[ok] @ c
        i = int(np.argmax(vals))
        if best_val is None or vals[i] > best_val:
            best_val = float(vals[i])
            best_x = np.clip(xs[ok][i], 0.0, 1.0)

    consider_batch(_bound_patterns(n))  # k = 0: every coordinate at a bound
    for k in range(1, min(m, n) + 1):
        patterns = _bound_patterns(n - k)  # (P, n - k)
        free = np.array(list(combinations(range(n), k)))  # (F, k)
        fixed = np.array([[j for j in range(n) if j not in f] for f in free.tolist()],
                         dtype=np.intp).reshape(len(free), n - k)
        for rows in combinations(range(m), k):
            a_rows = a[list(rows)]  # (k, n)
            subs = a_rows[:, free].transpose(1, 0, 2)  # (F, k, k)
            solvable = np.flatnonzero(np.abs(np.linalg.det(subs)) >= 1e-12)
            if solvable.size == 0:
                continue
            # x_free = S^-1 b_rows - S^-1 A_fixed x_fixed: solve for the
            # k + (n - k) right-hand sides once, then apply every pattern
            fixed_part = a_rows[:, fixed[solvable]].transpose(1, 0, 2)  # (F', k, n-k)
            rhs = np.concatenate(
                [np.broadcast_to(b[list(rows)][:, None], (solvable.size, k, 1)),
                 fixed_part], axis=2)
            y = np.linalg.solve(subs[solvable], rhs)  # (F', k, 1 + n - k)
            sols = y[:, :, :1] - y[:, :, 1:] @ patterns.T  # (F', k, P)
            f_i, p_i = np.nonzero(np.all((sols >= -tol) & (sols <= 1.0 + tol), axis=1))
            if f_i.size == 0:
                continue
            xs = np.empty((f_i.size, n))
            np.put_along_axis(xs, fixed[solvable][f_i], patterns[p_i], axis=1)
            np.put_along_axis(xs, free[solvable][f_i], sols[f_i, :, p_i], axis=1)
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


BRUTE_FORCE_MAX_N = 25
_CHUNK_BITS = 18


def brute_force_ip(instance):
    """Exhaustive maximum of c @ x over binary x with A x <= b + 1e-9;
    (None, None) when no binary point is feasible.  Refuses n > 25."""
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
        feasible = np.all(x @ a.T <= b + 1e-9, axis=1)
        if not np.any(feasible):
            continue
        vals = x[feasible] @ c
        k = int(np.argmax(vals))
        if best_val is None or vals[k] > best_val:
            best_val = float(vals[k])
            best_x = x[feasible][k]
    return best_val, best_x


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


def bnb_tree_oracle(a, b, c, node_limit=1_000_000, tol=1e-9):
    """Best-bound-first branch and bound for max c @ x, A x <= b, x in
    {0,1}^n, with every node LP solved by HiGHS dual simplex when the node
    is created.

    It branches on the coordinate closest to 1/2 among those more than tol
    from {0, 1} (the lowest index on ties), keys each child by min(child
    LP value, parent bound) with ties by creation order, and counts an
    infeasible child as created without queueing it.  It stops when the
    queue empties, when the best key is within tol of the incumbent, or
    before a child past node_limit.  Returns (status, incumbent value,
    nodes created, nodes expanded, best bound): the bound of the node
    being expanded at "NodeLimit", the incumbent at "Optimal", None at
    "Infeasible".
    """
    from scipy.optimize import linprog

    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    n = a.shape[1]

    def node_lp(box):
        res = linprog(-c, A_ub=a, b_ub=b, bounds=box, method="highs-ds")
        if res.status == 2:
            return None
        if res.status != 0:
            raise RuntimeError(f"HiGHS linprog did not finish: {res.message}")
        return -float(res.fun), res.x

    root = node_lp(np.array([[0.0, 1.0]] * n))
    queue = [] if root is None else [(-root[0], 0, np.array([[0.0, 1.0]] * n), root[1])]
    created, expanded, inc, last = 1, 0, None, np.inf
    while queue:
        neg_key, _, box, x = heapq.heappop(queue)
        bound = -neg_key
        assert bound <= last + tol, "best-bound order violated"
        last = bound
        if inc is not None and bound <= inc + tol:
            break
        expanded += 1
        dist = np.abs(x - 0.5)
        frac = np.flatnonzero(dist < 0.5 - tol)
        if frac.size == 0:
            value = float(c @ np.round(x))
            if inc is None or value > inc + tol:
                inc = value
            continue
        j = int(frac[np.argmin(dist[frac])])
        for fixed in (0.0, 1.0):
            if created >= node_limit:
                return "NodeLimit", inc, created, expanded, bound
            created += 1
            child_box = box.copy()
            child_box[j] = fixed
            child = node_lp(child_box)
            if child is not None:
                heapq.heappush(
                    queue, (-min(child[0], bound), created, child_box, child[1]))
    status = "Infeasible" if inc is None else "Optimal"
    return status, inc, created, expanded, inc


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


def _exact_solve(rows, rhs):
    """The solution of the square system rows @ z = rhs in Fractions, by
    Gaussian elimination with the first nonzero pivot of each column."""
    k = len(rows)
    aug = [list(row) + [v] for row, v in zip(rows, rhs)]
    for col in range(k):
        piv = next(r for r in range(col, k) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        head = aug[col]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                f = aug[r][col] / head[col]
                aug[r] = [x - f * y for x, y in zip(aug[r], head)]
    return [aug[r][k] / aug[r][r] for r in range(k)]


def exact_basis_check(a, b, c, lower, upper, basis, x_n):
    """Exact figures of a basis of max c @ x, A x + s = b, lower <= x <=
    upper, s >= 0, in rational arithmetic: every float datum is taken as the
    rational it is.  The columns are [A | I]; `basis` holds the m basic
    columns and `x_n` the value of every column (basic ones ignored), each
    nonbasic column at one of its bounds.

    Returns (bound violation, reduced-cost violation, value): the largest
    distance of a basic value outside its bounds, the largest reduced cost
    c_j - a_j' y of a sign that would improve the objective by moving a
    nonbasic column off its bound (y solving B' y = c_B), and c @ x at the
    basic point.  Each violation is 0 when there is none."""
    a = [[Fraction(v) for v in row] for row in np.asarray(a, dtype=float).tolist()]
    m, n = len(a), len(a[0])
    b = [Fraction(v) for v in np.asarray(b, dtype=float).tolist()]
    c = [Fraction(v) for v in np.asarray(c, dtype=float).tolist()]
    lo = [Fraction(v) for v in np.asarray(lower, dtype=float).tolist()] + [Fraction(0)] * m
    up = [Fraction(v) for v in np.asarray(upper, dtype=float).tolist()] + [None] * m
    basis = [int(k) for k in basis]
    in_basis = set(basis)
    x = [Fraction(v) for v in np.asarray(x_n, dtype=float).tolist()]

    def column(k):
        return [row[k] for row in a] if k < n else [Fraction(int(i == k - n)) for i in range(m)]

    cost = c + [Fraction(0)] * m
    rhs = list(b)
    for k in range(n + m):
        if k not in in_basis and x[k] != 0:
            rhs = [r - v * x[k] for r, v in zip(rhs, column(k))]
    cols = [column(k) for k in basis]
    xb = _exact_solve([[col[i] for col in cols] for i in range(m)], rhs)
    y = _exact_solve(cols, [cost[k] for k in basis])

    bound_gap = Fraction(0)
    for k, v in zip(basis, xb):
        bound_gap = max(bound_gap, lo[k] - v)
        if up[k] is not None:
            bound_gap = max(bound_gap, v - up[k])
        x[k] = v
    rc_gap = Fraction(0)
    for k in range(n + m):
        if k in in_basis or up[k] == lo[k]:
            continue
        d = cost[k] - sum(v * w for v, w in zip(column(k), y))
        if x[k] == lo[k]:
            rc_gap = max(rc_gap, d)
        elif x[k] == up[k]:
            rc_gap = max(rc_gap, -d)
        else:
            raise ValueError(f"nonbasic column {k} is not at a bound")
    return bound_gap, rc_gap, sum(cj * xj for cj, xj in zip(c, x[:n]))


def exact_farkas_margin(a, b, u, lower, upper):
    """min over the box of (u' A) x, less u @ b, in rational arithmetic: a
    vector u >= 0 proves A x <= b infeasible on the box when this is
    positive.  Raises ValueError when u has a negative entry."""
    u = [Fraction(v) for v in np.asarray(u, dtype=float).tolist()]
    if min(u) < 0:
        raise ValueError("a Farkas vector must be nonnegative")
    rows = np.asarray(a, dtype=float).tolist()
    box = zip(np.asarray(lower, dtype=float).tolist(), np.asarray(upper, dtype=float).tolist())
    total = Fraction(0)
    for j, (lo, up) in enumerate(box):
        w = sum(ui * Fraction(row[j]) for ui, row in zip(u, rows))
        total += min(w * Fraction(lo), w * Fraction(up))
    return total - sum(ui * Fraction(v) for ui, v in zip(u, np.asarray(b, dtype=float).tolist()))
