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
2. filter_reduced_costs: Z = zero variables with |c - A'u*| <= t * delta.
3. prepare_columns: rotate u* onto the last axis, center the last coordinate
   at mu = delta * t / 2 and rescale it by sigma so all coordinates are
   standardized.
4. Split Z into t disjoint pools of ceil(2*sqrt(m)) * k columns; for each
   pool search for a k-subset whose normalized column sum approximates the
   rotated slack target within theta.  First success wins.
5. Verify A x'' <= b, record the slack infinity norm, and certify the gap
   through the primal-dual gap formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import Instance
from .lp import LpSolution, gap_formula, support_partition
from .numerics import calibrate_theta, householder_to_axis
from .discrepancy import (
    EXACT_ENUM_BUDGET,
    DiscInstance,
    disc_exact,
    disc_search,
    exact_enum_size,
)
from .rng import RngHandle, band_accept_prob

__all__ = [
    "RoundingParams",
    "RoundingCertificate",
    "FilteredColumns",
    "PoolTooSmallError",
    "RoundingBoundNotMetError",
    "exact_pool_k_cap",
    "randomized_round",
    "filter_reduced_costs",
    "prepare_columns",
    "round_pipeline",
    "gap_chain_check",
]

FEAS_CHECK_TOL = 1e-9


class PoolTooSmallError(RuntimeError):
    """Not enough filtered columns to form the requested disjoint pools."""


def exact_pool_k_cap(m: int) -> int:
    """Largest k whose pool of ceil(2*sqrt(m))*k columns can be searched
    exactly within the subset solver's enumeration budget."""
    a = math.ceil(2.0 * math.sqrt(m))
    k = 1
    while exact_enum_size(a * (k + 1), k + 1) <= EXACT_ENUM_BUDGET:
        k += 1
    return k


class RoundingBoundNotMetError(RuntimeError):
    """Randomized rounding failed to meet its norm bound within max_tries."""


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
    theta_prime: float
    max_restarts: int = 50

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        if self.t < 1:
            raise ValueError("t must be >= 1")
        if self.theta_prime <= 0.0:
            raise ValueError("theta_prime must be positive")

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
        max_restarts: int = 50,
    ) -> "RoundingParams":
        """Desk-scale defaults.

        k follows the 2*m*(ln n + m) growth rule but is capped so each pool
        of ceil(2*sqrt(m))*k columns stays inside the exact-enumeration
        budget of the subset solver; delta = 8*sqrt(m)*k/n keeps the
        filtered set comfortably larger than the t pools on centered
        instances.  Both constants were frozen by one calibration run at
        m = 2, n = 400, b = 0.  t defaults to 5 pools.
        """
        if k is None:
            k = min(math.ceil(2.0 * m * (math.log(n) + m)), exact_pool_k_cap(m))
        if delta is None:
            delta = 8.0 * math.sqrt(m) * k / n
        if t is None:
            t = 5
        if theta is None:
            theta = calibrate_theta(m, k).theta
        return cls(
            k=k,
            delta=delta,
            t=t,
            theta_prime=2.0 * math.sqrt(m) * theta,
            max_restarts=max_restarts,
        )


@dataclass(frozen=True, eq=False)
class FilteredColumns:
    """Rotated and standardized candidate columns of one pool."""

    indices: np.ndarray     # global column indices, subset of the zero support
    rotated: np.ndarray     # (m, p): R @ A[:, i]
    normalized: np.ndarray  # (m, p): last row centered at mu_t, scaled by sigma_t
    mu_t: float
    sigma_t: float


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


def randomized_round(
    x_star, a: np.ndarray, rng: RngHandle, max_tries: int = 1000
) -> tuple[np.ndarray, float]:
    """Round the fractional coordinates of x_star to binary, independently
    with P(1) = x_i, resampling until ||A (x* - x')||_2 <= Cmax*sqrt(|S|)/2
    where Cmax is the largest fractional-column norm.

    Returns (x', achieved norm).  Raises RoundingBoundNotMetError after
    max_tries; the expectation argument makes each try succeed with positive
    probability, so small max_tries values already suffice in practice.
    """
    x_star = np.asarray(x_star, dtype=float)
    if np.any(x_star < -1e-12) or np.any(x_star > 1.0 + 1e-12):
        raise ValueError("x_star must lie in [0, 1]^n")
    frac = support_partition(x_star)[2]
    base = np.round(x_star)
    if frac.size == 0:
        return base, 0.0
    cmax = float(np.linalg.norm(a[:, frac], axis=0).max())
    bound = cmax * math.sqrt(frac.size) / 2.0
    gen = rng.gen
    for _ in range(max_tries):
        x_prime = base.copy()
        x_prime[frac] = (gen.random(frac.size) < x_star[frac]).astype(float)
        achieved = float(np.linalg.norm(a @ (x_star - x_prime)))
        if achieved <= bound * (1.0 + 1e-12) + 1e-12:
            return x_prime, achieved
    raise RoundingBoundNotMetError(
        f"no rounding met the bound {bound:.6g} in {max_tries} tries"
    )


def filter_reduced_costs(
    instance: Instance, lp_solution: LpSolution, delta: float, t: int
) -> np.ndarray:
    """Zero-support indices whose reduced-cost magnitude is at most t*delta."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    n0 = lp_solution.n0
    rc = lp_solution.reduced_costs[n0]
    return n0[np.abs(rc) <= t * delta]


def _rotation(u_star: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(u_star))
    if norm <= 1e-15:
        return np.eye(u_star.shape[0])
    return householder_to_axis(u_star, axis=-1)


def sigma_last(u_norm: float, delta: float, t: int) -> float:
    """Standard deviation of the last rotated coordinate on the filtered set."""
    s2 = 1.0 + u_norm * u_norm
    var = 1.0 / s2 + (u_norm * delta * t / s2) ** 2 / 12.0
    return math.sqrt(var)


def prepare_columns(
    instance: Instance,
    lp_solution: LpSolution,
    pool,
    t: int,
    params: RoundingParams,
) -> FilteredColumns:
    """Rotate and standardize the candidate columns of one pool.

    The rotation sends u* to the last axis, making the first m-1 coordinates
    of the rotated columns standard normal; the last coordinate is centered
    at mu = delta*t/2 and rescaled by sigma so all entries are standardized.
    """
    pool = np.asarray(pool, dtype=int)
    if pool.size == 0:
        raise ValueError("pool of candidate columns is empty")
    m = instance.m
    u_norm = float(np.linalg.norm(lp_solution.u_star))
    rot = _rotation(lp_solution.u_star)
    rotated = rot @ instance.A[:, pool]
    mu_t = params.delta * t / 2.0
    sigma_t = sigma_last(u_norm, params.delta, t)
    normalized = rotated.copy()
    normalized[m - 1, :] = (normalized[m - 1, :] - mu_t) / sigma_t
    return FilteredColumns(
        indices=pool,
        rotated=rotated,
        normalized=normalized,
        mu_t=mu_t,
        sigma_t=sigma_t,
    )


def _event_flags(instance: Instance, lp_solution: LpSolution) -> dict[str, float]:
    n = instance.n
    u_norm = float(np.linalg.norm(lp_solution.u_star))
    col_limit = 4.0 * math.sqrt(math.log(n)) + math.sqrt(instance.m)
    s_cols = lp_solution.s
    cols_ok = True
    if s_cols.size:
        cols_ok = bool(
            np.linalg.norm(instance.A[:, s_cols], axis=0).max() < col_limit
        )
    return {
        "u_norm": u_norm,
        "event_u_norm_ok": float(u_norm <= 3.0),
        "event_n0_ok": float(lp_solution.n0.size >= n / 500.0),
        "event_cols_ok": float(cols_ok),
    }


def round_pipeline(
    instance: Instance,
    lp_solution: LpSolution,
    params: RoundingParams,
    rng: RngHandle,
    *,
    thin: bool = False,
) -> RoundingCertificate:
    """Run the full rounding pipeline and certify the resulting gap.

    The discrepancy tolerance is params.theta_prime / (2*sqrt(m)); `thin`
    applies the band rejection step to the filtered set before pooling (a
    fidelity device that discards usable columns, off by default).  A failed
    flip-set search is reported in the certificate, not raised.
    """
    a, b, c = instance.A, instance.b, instance.c
    m, n = instance.m, instance.n
    x_star = lp_solution.x_star
    u_star = lp_solution.u_star

    theta_prime = params.theta_prime
    theta = theta_prime / (2.0 * math.sqrt(m))

    diagnostics = _event_flags(instance, lp_solution)
    diagnostics["theta"] = theta
    diagnostics["theta_prime"] = theta_prime

    x_prime, round_l2 = randomized_round(x_star, a, rng.derive(0))
    diagnostics["round_l2"] = round_l2

    if lp_solution.s.size == 0:
        # integral optimum: nothing to repair
        slack_inf = float(np.abs(a @ (x_prime - x_star)).max(initial=0.0))
        certified = lp_solution.value - float(c @ x_prime)
        diagnostics["t_delta_k"] = 0.0
        diagnostics["gap_formula_total"] = gap_formula(x_prime, u_star, instance).total
        return RoundingCertificate(
            x_prime=x_prime,
            flip_set=(),
            x_double_prime=x_prime,
            feasible=bool(np.all(a @ x_prime <= b + FEAS_CHECK_TOL)),
            slack_inf_norm=slack_inf,
            certified_gap=certified,
            pool_index_used=None,
            diagnostics=diagnostics,
        )

    d = a @ (x_star - x_prime)
    d_prime = d - theta_prime

    z = filter_reduced_costs(instance, lp_solution, params.delta, params.t)
    diagnostics["z_raw_size"] = float(z.size)
    if thin:
        u_norm = diagnostics["u_norm"]
        nu = params.delta * params.t
        gen = rng.derive(1).gen
        keep = []
        for i in z:
            slack_cost = -float(lp_solution.reduced_costs[i])
            if gen.random() < band_accept_prob(u_norm, nu, slack_cost):
                keep.append(i)
        z = np.asarray(keep, dtype=int)
    diagnostics["z_size"] = float(z.size)

    a_mult = math.ceil(2.0 * math.sqrt(m))
    pool_size = a_mult * params.k
    need = pool_size * params.t
    diagnostics["pool_size"] = float(pool_size)
    diagnostics["pools"] = float(params.t)
    if z.size < need:
        raise PoolTooSmallError(
            f"filtered set has {z.size} columns; {need} required "
            f"({params.t} pools of {pool_size})"
        )

    # cheapest flips first: pools in order of reduced-cost magnitude, so
    # the first success pays the smallest objective price
    z = z[np.argsort(np.abs(lp_solution.reduced_costs[z]), kind="stable")]

    rot = _rotation(u_star)
    rotated_target = rot @ d_prime
    use_exact = exact_enum_size(pool_size, params.k) <= EXACT_ENUM_BUDGET
    best_dev = math.inf
    evaluations = 0
    for l in range(params.t):
        pool = z[l * pool_size : (l + 1) * pool_size]
        fc = prepare_columns(instance, lp_solution, pool, params.t, params)
        target = rotated_target.copy()
        target[m - 1] -= params.k * fc.mu_t
        target[m - 1] /= fc.sigma_t
        if l == 0:
            diagnostics["mu_t"] = fc.mu_t
            diagnostics["sigma_t"] = fc.sigma_t
            diagnostics["target_norm"] = float(np.linalg.norm(target))
        inst = DiscInstance(
            columns=fc.normalized, target=target, theta=theta, k=params.k
        )
        if use_exact:
            out = disc_exact(inst)
        else:
            out = disc_search(inst, rng.derive(2, l), restarts=params.max_restarts)
        evaluations += out.evaluations
        best_dev = min(best_dev, out.deviation)
        if not out.found:
            continue

        flips = tuple(int(i) for i in fc.indices[list(out.subset)])
        x2 = x_prime.copy()
        x2[list(flips)] = 1.0
        feasible = bool(np.all(a @ x2 <= b + FEAS_CHECK_TOL))
        slack_inf = float(np.abs(a @ (x2 - x_star)).max())
        certified = lp_solution.value - float(c @ x2)
        diagnostics["disc_best_dev"] = best_dev
        diagnostics["disc_evaluations"] = float(evaluations)
        diagnostics["t_delta_k"] = params.t * params.delta * params.k
        diagnostics["gap_formula_total"] = gap_formula(x2, u_star, instance).total
        return RoundingCertificate(
            x_prime=x_prime,
            flip_set=flips,
            x_double_prime=x2,
            feasible=feasible,
            slack_inf_norm=slack_inf,
            certified_gap=certified,
            pool_index_used=l,
            diagnostics=diagnostics,
        )

    diagnostics["disc_best_dev"] = best_dev
    diagnostics["disc_evaluations"] = float(evaluations)
    diagnostics["t_delta_k"] = params.t * params.delta * params.k
    slack_inf = float(np.abs(a @ (x_prime - x_star)).max())
    return RoundingCertificate(
        x_prime=x_prime,
        flip_set=(),
        x_double_prime=x_prime,
        feasible=False,
        slack_inf_norm=slack_inf,
        certified_gap=lp_solution.value - float(c @ x_prime),
        pool_index_used=None,
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
    flipped reduced-cost budget t * delta * k (zero when nothing was
    flipped), up to 1e-7.
    """
    if not certificate.feasible:
        raise ValueError("gap_chain_check requires a feasible certificate")
    u_norm = float(np.linalg.norm(lp_solution.u_star))
    budget = certificate.diagnostics.get("t_delta_k", 0.0)
    if not certificate.flip_set:
        budget = 0.0
    bound = (
        math.sqrt(instance.m) * u_norm * certificate.slack_inf_norm + budget + 1e-7
    )
    return certificate.certified_gap <= bound
