"""Deterministic scalar and small-matrix utilities.

Closed-form quantities used throughout the library: the binary entropy
function and its inverse on [1/2, 1], the subset-size/tolerance calibration
for the discrepancy solver and Householder rotations onto the last
coordinate axis.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)

__all__ = [
    "DiscParams",
    "TheoryParams",
    "entropy",
    "solve_beta",
    "theory_params",
    "log_binomial",
    "pool_multiplier",
    "calibrate_theta",
    "householder_to_axis",
]


@dataclass(frozen=True)
class DiscParams:
    """Calibrated parameters of the k-subset selection problem.

    `a` is the universe multiplier pool_multiplier(m); `theta` solves
    (2*theta / sqrt(2*pi*k))**m * C(a*k, k) = 1, i.e. it makes the expected
    number of k-subsets of a*k standard-normal-sum columns landing within
    theta of a fixed target approximately one.
    """

    m: int
    k: int
    a: int
    theta: float

    @property
    def universe(self) -> int:
        return self.a * self.k


@dataclass(frozen=True)
class TheoryParams:
    """Derived constants for the dual-norm / zero-count statistics.

    delta is the scaled negative-part norm of the right-hand side,
    alpha the objective-rate lower bound, and beta in [1/2, 1] solves
    H(beta) = alpha**2 / 4.
    """

    epsilon: float
    delta: float
    alpha: float
    beta: float

    @property
    def dual_norm_bound(self) -> float:
        e, d = self.epsilon, self.delta
        return (1.0 + e) / (1.0 - 3.0 * e - (1.0 - e) * d)


def entropy(x: float) -> float:
    """Binary entropy -x*ln(x) - (1-x)*ln(1-x) with the 0*ln(0) := 0 convention.

    Raises ValueError outside [0, 1].
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("entropy argument must lie in [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    # numpy's log and log1p, not math.log: the bits of solve_beta depend on them
    return float(-x * np.log(x) - (1.0 - x) * np.log1p(-x))


def solve_beta(alpha: float) -> float:
    """The unique beta in [1/2, 1] with entropy(beta) = alpha**2 / 4.

    Bisection to an interval width of 1e-12; entropy is strictly decreasing
    on [1/2, 1] so the root is unique.  Raises ValueError when alpha**2 / 4
    exceeds ln(2) (no solution) or alpha < 0.
    """
    if not alpha >= 0.0:
        raise ValueError("alpha must be nonnegative")
    target = alpha * alpha / 4.0
    if target > LN2 * (1.0 + 1e-12):
        raise ValueError("alpha**2/4 exceeds ln(2); no beta in [1/2, 1] exists")
    target = min(target, LN2)
    lo, hi = 0.5, 1.0
    # entropy(lo) = ln 2 >= target >= 0 = entropy(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if entropy(mid) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12:
            break
    return 0.5 * (lo + hi)


def theory_params(epsilon: float, delta: float) -> TheoryParams:
    """Build TheoryParams from the slack parameter epsilon and delta.

    Requires epsilon in (0, 1/5) and 0 <= delta < (1-3*epsilon)/(1-epsilon)
    so that alpha is real and the dual-norm bound positive.
    """
    if not 0.0 < epsilon < 0.2:
        raise ValueError("epsilon must lie in (0, 1/5)")
    ratio = (1.0 - 3.0 * epsilon) / (1.0 - epsilon)
    if not 0.0 <= delta < ratio:
        raise ValueError("delta must lie in [0, (1-3*eps)/(1-eps))")
    alpha = math.sqrt(ratio * ratio - delta * delta) / math.sqrt(2.0 * math.pi)
    beta = solve_beta(alpha)
    return TheoryParams(epsilon=epsilon, delta=delta, alpha=alpha, beta=beta)


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k) of the exact integer C(n, k), rounded once."""
    if k < 0 or k > n:
        raise ValueError("binomial coefficient requires 0 <= k <= n")
    return math.log(math.comb(n, k))


def pool_multiplier(m: int) -> int:
    """a = ceil(2*sqrt(m)): a k-subset is drawn from a pool of a*k columns,
    in the calibration and in every pool of the rounding pipeline."""
    return math.ceil(2.0 * math.sqrt(m))


def calibrate_theta(m: int, k: int) -> DiscParams:
    """Solve the subset-count calibration identity for theta.

    a = ceil(2*sqrt(m)) and theta = (sqrt(2*pi*k)/2) * C(a*k, k)**(-1/m),
    computed in log space.
    """
    if m < 1 or k < 1:
        raise ValueError("m and k must be >= 1")
    a = pool_multiplier(m)
    log_c = log_binomial(a * k, k)
    theta = math.exp(0.5 * math.log(2.0 * math.pi * k) - LN2 - log_c / m)
    return DiscParams(m=m, k=k, a=a, theta=theta)


def householder_to_axis(u) -> np.ndarray:
    """Orthogonal matrix R with R @ u = ||u||_2 * e_m, e_m the last axis.

    A single Householder reflection composed with a sign flip of the last
    row, so R is orthogonal but det(R) may be -1.  The construction never
    subtracts nearly-equal vectors, so it is stable for any nonzero u.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ValueError("u must be a vector")
    m = u.shape[0]
    nrm = float(np.linalg.norm(u))
    if nrm == 0.0:
        raise ValueError("cannot rotate the zero vector onto an axis")
    sign = 1.0 if u[-1] >= 0.0 else -1.0
    w = u.copy()
    w[-1] += sign * nrm
    r = np.eye(m) - (2.0 / float(w @ w)) * np.outer(w, w)
    # the reflection sends u to -sign*nrm*e_m; flip that row to land on +nrm
    r[-1, :] *= -sign
    return r
