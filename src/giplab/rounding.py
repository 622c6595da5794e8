"""Constructive rounding of a fractional LP optimum to a certified IP point.

The pipeline rounds the fractional support randomly, then repairs
feasibility and near-optimality by flipping a small set of zero variables
with tiny reduced costs.  The flip set is found by the discrepancy solver in
a rotated and normalized coordinate system in which the candidate columns
have independent standardized entries.  Success is always re-verified
directly against b; the resulting certificate upper-bounds the true
integrality gap.

Stages:

1. randomized_round: binary x' agreeing with x* off the fractional support,
   resampled until ||A (x* - x')||_2 meets the half-column-norm bound.
2. filter_reduced_costs: Z = zero variables with |c - A'u*| <= t * delta,
   taken in order of reduced-cost magnitude.
3. Rotate u* onto the last axis, once, for the first t pools' worth of Z
   and for the slack target; center the last coordinate at mu = delta * t / 2
   and rescale it by sigma so all coordinates are standardized.
4. Split those columns into t disjoint pools of ceil(2*sqrt(m)) * k; search
   each pool exactly for a k-subset whose standardized column sum
   approximates the standardized target within theta.  First success wins.
5. Verify A x'' <= b, record the slack infinity norm, and certify the gap
   through the primal-dual gap formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import Instance
from .lp import LpSolution, gap_formula
from .numerics import calibrate_theta, householder_to_axis, pool_multiplier
from .discrepancy import DiscInstance, disc_exact, fits_exact_budget
from .discrepancy import disc_search  # noqa: F401  kept: perfbench/spans.py traces this name
from .rng import RngHandle

__all__ = [
    "RoundingParams",
    "RoundingCertificate",
    "PoolTooSmallError",
    "RoundingBoundNotMetError",
    "exact_pool_k_cap",
    "fixed_events",
    "randomized_round",
    "filter_reduced_costs",
    "sigma_last",
    "round_pipeline",
    "gap_chain_check",
]

FEAS_CHECK_TOL = 1e-9
MAX_TRIES = 1000  # draws of randomized_round before RoundingBoundNotMetError


class PoolTooSmallError(RuntimeError):
    """Not enough filtered columns to form the requested disjoint pools."""


def exact_pool_k_cap(m: int) -> int:
    """Largest k whose pool of ceil(2*sqrt(m))*k columns can be searched
    exactly within the subset solver's enumeration budget."""
    if m < 1:
        raise ValueError("m must be >= 1")
    a = pool_multiplier(m)
    k = 1
    while fits_exact_budget(a * (k + 1), k + 1):
        k += 1
    return k


class RoundingBoundNotMetError(RuntimeError):
    """Randomized rounding failed to meet its norm bound within MAX_TRIES."""


@dataclass(frozen=True)
class RoundingParams:
    """Tunable sizes of the pipeline.

    The defaults are intentionally far below the worst-case theory constants
    (which are astronomical); they were fixed by one calibration run at
    m = 2, n = 400 and give a useful success rate at desk scale.
    """

    k: int
    delta: float
    t: int
    theta: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(f"delta must be finite and positive, got {self.delta!r}")
        if self.t < 1:
            raise ValueError("t must be >= 1")
        if not (math.isfinite(self.theta) and self.theta > 0.0):
            raise ValueError(f"theta must be finite and positive, got {self.theta!r}")

    def theta_prime(self, m: int) -> float:
        """Slack tolerance 2*sqrt(m)*theta of the flip-set search target."""
        return 2.0 * math.sqrt(m) * self.theta

    @classmethod
    def defaults(
        cls,
        m: int,
        n: int,
        *,
        k: int | None = None,
        delta: float | None = None,
        t: int | None = None,
        theta: float | None = None,
    ) -> "RoundingParams":
        """Desk-scale defaults.

        k follows the 2*m*(ln n + m) growth rule but is capped at
        exact_pool_k_cap(m), as is a given k (ValueError), so each pool of
        ceil(2*sqrt(m))*k columns fits the exact subset search's budget;
        delta = 8*sqrt(m)*k/n keeps the filtered set comfortably larger than
        the t pools on centered instances.  Both constants were frozen by
        one calibration run at m = 2, n = 400, b = 0.  t defaults to 5 pools.
        """
        cap = exact_pool_k_cap(m)
        if k is None:
            k = min(math.ceil(2.0 * m * (math.log(n) + m)), cap)
        elif k > cap:
            raise ValueError(f"k = {k} exceeds exact_pool_k_cap({m}) = {cap}")
        if delta is None:
            delta = 8.0 * math.sqrt(m) * k / n
        if t is None:
            t = 5
        if theta is None:
            theta = calibrate_theta(m, k).theta
        return cls(k=k, delta=delta, t=t, theta=theta)


@dataclass(frozen=True, eq=False)
class RoundingCertificate:
    """Outcome of one pipeline run.

    x_double_prime = x_prime plus the flips; when `feasible` is set the
    certified gap val(x*) - val(x'') upper-bounds the true integrality gap.
    diagnostics maps stage names to scalars (sizes, deviations, event flags).
    """

    x_prime: np.ndarray
    flip_set: tuple[int, ...]
    x_double_prime: np.ndarray
    feasible: bool
    slack_inf_norm: float
    certified_gap: float
    pool_index_used: int | None
    diagnostics: dict[str, float]


def randomized_round(x_star, frac, a: np.ndarray, rng: RngHandle) -> tuple[np.ndarray, float]:
    """Round the fractional coordinates of x_star, whose indices `frac`
    the caller gives (an LP solution's `s`), to binary, independently
    with P(1) = x_i, resampling until ||A (x* - x')||_2 <= Cmax*sqrt(|S|)/2
    where Cmax is the largest fractional-column norm.

    Returns (x', achieved norm).  Raises RoundingBoundNotMetError after
    MAX_TRIES; the expectation argument makes each try succeed with positive
    probability, so far fewer tries already suffice in practice.
    """
    x_star = np.asarray(x_star, dtype=float)
    if not ((x_star >= -1e-12) & (x_star <= 1.0 + 1e-12)).all():
        raise ValueError("x_star must lie in [0, 1]^n")
    frac = np.asarray(frac, dtype=np.intp)
    base = np.round(x_star)
    if frac.size == 0:
        return base, 0.0
    cmax = float(np.linalg.norm(a[:, frac], axis=0).max())
    bound = cmax * math.sqrt(frac.size) / 2.0
    gen = rng.gen
    for _ in range(MAX_TRIES):
        x_prime = base.copy()
        x_prime[frac] = (gen.random(frac.size) < x_star[frac]).astype(float)
        achieved = float(np.linalg.norm(a @ (x_star - x_prime)))
        if achieved <= bound * (1.0 + 1e-12) + 1e-12:
            return x_prime, achieved
    raise RoundingBoundNotMetError(
        f"no rounding met the bound {bound:.6g} in {MAX_TRIES} tries"
    )


def filter_reduced_costs(lp_solution: LpSolution, delta: float, t: int) -> np.ndarray:
    """Zero-support indices whose reduced-cost magnitude is at most t*delta."""
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    n0 = lp_solution.n0
    rc = lp_solution.reduced_costs[n0]
    return n0[np.abs(rc) <= t * delta]


def sigma_last(u_norm: float, delta: float, t: int) -> float:
    """Standard deviation of the last rotated coordinate on the filtered set."""
    s2 = 1.0 + u_norm * u_norm
    var = 1.0 / s2 + (u_norm * delta * t / s2) ** 2 / 12.0
    return math.sqrt(var)


def fixed_events(u_norm: float, n0_size: int, n: int) -> tuple[bool, bool]:
    """The fixed-constant events the pipeline conditions on:
    ||u*|| <= 3 and |N0| >= n/500."""
    return u_norm <= 3.0, n0_size >= n / 500.0


def _event_flags(instance: Instance, lp_solution: LpSolution) -> dict[str, float]:
    n, u_norm = instance.n, lp_solution.u_norm
    u_norm_ok, n0_ok = fixed_events(u_norm, lp_solution.n0.size, n)
    col_limit = 4.0 * math.sqrt(math.log(n)) + math.sqrt(instance.m)
    s_cols = lp_solution.s
    cols_ok = True
    if s_cols.size:
        cols_ok = bool(
            np.linalg.norm(instance.A[:, s_cols], axis=0).max() < col_limit
        )
    return {
        "u_norm": u_norm,
        "event_u_norm_ok": float(u_norm_ok),
        "event_n0_ok": float(n0_ok),
        "event_cols_ok": float(cols_ok),
    }


def _flip_search(
    instance: Instance,
    lp_solution: LpSolution,
    params: RoundingParams,
    d_prime: np.ndarray,
    diagnostics: dict[str, float],
) -> tuple[tuple[int, ...], int | None]:
    """Search the t pools of Z for a k-subset that meets the slack target.

    The rotation sends u* to the last axis, making the first m-1 coordinates
    of the rotated columns standard normal; the last coordinate is centered
    at mu = delta*t/2 and rescaled by sigma, and the target d' gets the same
    treatment for a sum of k columns.  disc_exact searches each pool (and
    raises ExactBudgetError above exact_pool_k_cap(m)).  Returns (flip set,
    pool index) of the first pool with a subset within theta, or ((), None).
    """
    m, k, t = instance.m, params.k, params.t
    z = filter_reduced_costs(lp_solution, params.delta, t)
    diagnostics["z_size"] = float(z.size)

    pool_size = pool_multiplier(m) * k
    need = pool_size * t
    diagnostics["pool_size"] = float(pool_size)
    diagnostics["pools"] = float(t)
    if z.size < need:
        raise PoolTooSmallError(
            f"filtered set has {z.size} columns; {need} required "
            f"({t} pools of {pool_size})"
        )

    # cheapest flips first: pools in order of reduced-cost magnitude, so
    # the first success pays the smallest objective price
    z = z[np.argsort(np.abs(lp_solution.reduced_costs[z]), kind="stable")][:need]

    u_star, u_norm = lp_solution.u_star, lp_solution.u_norm
    rot = householder_to_axis(u_star) if u_norm > 1e-15 else np.eye(m)
    mu_t = params.delta * t / 2.0
    sigma_t = sigma_last(u_norm, params.delta, t)
    columns = rot @ instance.A[:, z]
    columns[m - 1] = (columns[m - 1] - mu_t) / sigma_t
    target = rot @ d_prime
    target[m - 1] -= k * mu_t
    target[m - 1] /= sigma_t
    diagnostics["mu_t"] = mu_t
    diagnostics["sigma_t"] = sigma_t
    diagnostics["target_norm"] = float(np.linalg.norm(target))

    best_dev = math.inf
    evaluations = 0
    found = ((), None)
    for l in range(t):
        pool = slice(l * pool_size, (l + 1) * pool_size)
        inst = DiscInstance(
            columns=columns[:, pool], target=target, theta=params.theta, k=k
        )
        out = disc_exact(inst)
        evaluations += out.evaluations
        best_dev = min(best_dev, out.deviation)
        if out.found:
            found = (tuple(int(i) for i in z[pool][list(out.subset)]), l)
            break
    diagnostics["disc_best_dev"] = best_dev
    diagnostics["disc_evaluations"] = float(evaluations)
    return found


def round_pipeline(
    instance: Instance,
    lp_solution: LpSolution,
    params: RoundingParams,
    rng: RngHandle,
) -> RoundingCertificate:
    """Run the full rounding pipeline and certify the resulting gap.

    The discrepancy tolerance is params.theta and the slack target is
    shifted by params.theta_prime(m).  An integral LP optimum needs no
    repair and skips the search.  A failed flip-set search is reported in
    the certificate, not raised: x'' = x' and `feasible` is False.
    """
    a, b, c = instance.A, instance.b, instance.c
    x_star = lp_solution.x_star

    diagnostics = _event_flags(instance, lp_solution)
    diagnostics["theta"] = params.theta
    theta_prime = params.theta_prime(instance.m)
    diagnostics["theta_prime"] = theta_prime

    x_prime, round_l2 = randomized_round(x_star, lp_solution.s, a, rng.derive(0))
    diagnostics["round_l2"] = round_l2

    searched = lp_solution.s.size > 0
    flips, pool_index = (), None
    if searched:
        d_prime = a @ (x_star - x_prime) - theta_prime
        flips, pool_index = _flip_search(
            instance, lp_solution, params, d_prime, diagnostics
        )
    diagnostics["t_delta_k"] = params.t * params.delta * params.k if searched else 0.0
    failed = searched and pool_index is None

    x2 = x_prime.copy()
    x2[list(flips)] = 1.0
    if not failed:
        gap = gap_formula(x2, lp_solution.u_star, instance)
        diagnostics["gap_formula_total"] = gap.total
    return RoundingCertificate(
        x_prime=x_prime,
        flip_set=flips,
        x_double_prime=x2,
        feasible=not failed and bool(np.all(a @ x2 <= b + FEAS_CHECK_TOL)),
        slack_inf_norm=float(np.abs(a @ (x2 - x_star)).max()),
        certified_gap=lp_solution.value - float(c @ x2),
        pool_index_used=pool_index,
        diagnostics=diagnostics,
    )


def gap_chain_check(
    certificate: RoundingCertificate,
    instance: Instance,
    lp_solution: LpSolution,
) -> bool:
    """Verify the certified gap against its sensitivity bound.

    At a feasible certificate, val(x*) - val(x'') can exceed neither the
    dual-weighted slack term sqrt(m) * ||u*||_2 * ||A (x''-x*)||_inf plus the
    flipped reduced-cost budget t * delta * k, the certificate's `t_delta_k`
    diagnostic (0.0 at a short circuit, where nothing is flipped), up to 1e-7.
    """
    if not certificate.feasible:
        raise ValueError("gap_chain_check requires a feasible certificate")
    budget = certificate.diagnostics["t_delta_k"]
    bound = (
        math.sqrt(instance.m) * lp_solution.u_norm * certificate.slack_inf_norm
        + budget + 1e-7
    )
    return certificate.certified_gap <= bound
