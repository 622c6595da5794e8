import collections
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import kstest

from giplab import lp, rounding
from giplab.discrepancy import ExactBudgetError
from giplab.experiments import SweepConfig, run_trial
from giplab.instance import BSpec, generate
from giplab.lp import solve_lp
from giplab.numerics import calibrate_theta, householder_to_axis
from giplab.rng import RngHandle, conditioned_column
from giplab.rounding import (
    FEAS_CHECK_TOL,
    PoolTooSmallError,
    RoundingBoundNotMetError,
    RoundingParams,
    exact_pool_k_cap,
    filter_reduced_costs,
    gap_chain_check,
    randomized_round,
    round_pipeline,
    sigma_last,
)

from oracles import exact_row_slack
from test_instance import make_instance


def solved(seed, m=2, n=400):
    inst = generate(m, n, BSpec.zeros(), RngHandle(seed))
    return inst, solve_lp(inst)


class TestRoundingParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            RoundingParams(k=0, delta=0.1, t=1, theta=0.1)
        with pytest.raises(ValueError):
            RoundingParams(k=1, delta=0.0, t=1, theta=0.1)
        with pytest.raises(ValueError):
            RoundingParams(k=1, delta=0.1, t=1, theta=0.0)
        for m in range(1, 4):
            cap = exact_pool_k_cap(m)
            with pytest.raises(ValueError, match=f"exact_pool_k_cap\\({m}\\) = {cap}"):
                RoundingParams.defaults(m, 400, k=cap + 1)

    def test_defaults_consistent(self):
        p = RoundingParams.defaults(2, 400)
        assert p.k == min(math.ceil(4 * (math.log(400) + 2)), exact_pool_k_cap(2))
        assert p.delta == pytest.approx(8.0 * math.sqrt(2) * p.k / 400)
        theta = calibrate_theta(2, p.k).theta
        assert p.theta == theta
        assert p.theta_prime(2) == pytest.approx(2.0 * math.sqrt(2) * theta)

    def test_pipeline_reports_calibrated_theta_exactly(self):
        # diag.theta must be calibrate_theta's value itself, not one rebuilt
        # from theta_prime, for every default calibration
        # (an integral LP optimum, x* = 0, returns right after the diagnostics)
        for m in range(1, 9):
            inst = make_instance(np.ones((m, 3)), np.zeros(m), -np.ones(3))
            sol = solve_lp(inst)
            assert sol.s.size == 0
            for k in range(1, exact_pool_k_cap(m) + 1):
                params = RoundingParams.defaults(m, 400, k=k)
                cert = round_pipeline(inst, sol, params, RngHandle(k))
                theta = calibrate_theta(m, k).theta
                assert cert.diagnostics["theta"] == theta
                assert cert.diagnostics["theta_prime"] == 2.0 * math.sqrt(m) * theta

    def test_k_cap_values(self):
        assert exact_pool_k_cap(1) == 11
        assert exact_pool_k_cap(2) == 8
        assert exact_pool_k_cap(3) == 7
        with pytest.raises(ValueError):
            exact_pool_k_cap(0)


class TestRandomizedRound:
    def test_integral_input_is_fixed_point(self):
        x = np.array([0.0, 1.0, 1.0, 0.0])
        a = np.ones((2, 4))
        out, norm = randomized_round(x, [], a, RngHandle(1))
        assert np.array_equal(out, x)
        assert norm == 0.0

    def test_single_fractional_half(self):
        # both roundings attain the bound exactly, so the first try succeeds
        a = np.array([[3.0], [4.0]])
        x = np.array([0.5])
        out, norm = randomized_round(x, [0], a, RngHandle(2), max_tries=2)
        assert out[0] in (0.0, 1.0)
        assert norm == pytest.approx(0.5 * 5.0)

    def test_norm_bound_met_on_random_instances(self):
        for seed in range(30):
            inst, sol = solved(3000 + seed, m=3, n=60)
            if sol.s.size == 0:
                continue
            out, norm = randomized_round(sol.x_star, sol.s, inst.A, RngHandle(seed))
            cmax = np.linalg.norm(inst.A[:, sol.s], axis=0).max()
            assert norm <= cmax * math.sqrt(sol.s.size) / 2.0 + 1e-9
            off = [i for i in range(inst.n) if i not in set(sol.s.tolist())]
            assert np.array_equal(out[off], np.round(sol.x_star[off]))

    def test_mean_norm_respects_variance_bound(self):
        # E||A(x*-x')|| <= Cmax sqrt(|S|)/2 over fresh roundings
        gen_inst = generate(3, 30, BSpec.zeros(), RngHandle(77))
        sol = solve_lp(gen_inst)
        if sol.s.size == 0:
            pytest.skip("integral optimum drawn")
        h = RngHandle(78)
        norms = []
        for _ in range(1000):
            _, norm = randomized_round(sol.x_star, sol.s, gen_inst.A, h,
                                       max_tries=10**6)
            norms.append(norm)
        cmax = np.linalg.norm(gen_inst.A[:, sol.s], axis=0).max()
        assert np.mean(norms) <= cmax * math.sqrt(sol.s.size) / 2.0 + 1e-9

    def test_bound_not_met_raises(self):
        a = np.array([[1.0, 1.0]])
        x = np.array([0.5, 0.5])
        with pytest.raises(RoundingBoundNotMetError):
            # max_tries=0 forces the failure branch regardless of draws
            randomized_round(x, [0, 1], a, RngHandle(3), max_tries=0)


class TestFilterReducedCosts:
    def test_wide_filter_keeps_all_of_n0(self):
        inst, sol = solved(31, n=100)
        width = float(np.abs(sol.reduced_costs[sol.n0]).max()) + 1.0
        z = filter_reduced_costs(sol, width, 1)
        assert set(z.tolist()) == set(sol.n0.tolist())

    def test_zero_width_typically_empty(self):
        inst, sol = solved(32, n=100)
        z = filter_reduced_costs(sol, 1e-300, 1)
        assert z.size == 0

    def test_membership_is_exact(self):
        inst, sol = solved(33, n=200)
        delta, t = 0.05, 3
        z = set(filter_reduced_costs(sol, delta, t).tolist())
        for i in sol.n0:
            expected = abs(sol.reduced_costs[i]) <= t * delta
            assert (int(i) in z) == expected

    def test_rate_matches_conditional_law(self):
        # fraction of the zero support passing the filter vs a Monte Carlo
        # estimate from the conditional column law
        inst, sol = solved(34, m=2, n=500)
        t_delta = 0.1
        z = filter_reduced_costs(sol, t_delta, 1)
        frac = z.size / sol.n0.size
        h = RngHandle(35)
        hits = 0
        trials = 20_000
        for _ in range(trials):
            c, a = conditioned_column(sol.u_star, h)
            if abs(c - sol.u_star @ a) <= t_delta:
                hits += 1
        mc = hits / trials
        sigma = math.sqrt(mc * (1 - mc) / trials + frac * (1 - frac) / sol.n0.size)
        assert abs(frac - mc) <= 5.0 * sigma + 0.02


class TestPrepareColumns:
    def test_sigma_limits(self):
        assert sigma_last(3.0, 1e-12, 1) ** 2 == pytest.approx(0.1, rel=1e-6)
        assert sigma_last(0.0, 0.5, 2) ** 2 == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("seed, theta, pool", [(42, None, 0), (402, 0.002, 1)])
    def test_found_flip_set_meets_theta_standardized(self, seed, theta, pool):
        # rebuild the search's view of a found flip set from first principles:
        # rotate u* onto the last axis, center the last coordinate of the k
        # flipped columns and of the slack target d' = A(x* - x') - theta'
        # at k * mu with mu = delta * t / 2, and scale it by sigma
        inst, sol = solved(seed)
        params = RoundingParams.defaults(2, 400, theta=theta)
        cert = round_pipeline(inst, sol, params, RngHandle(seed))
        assert cert.flip_set and cert.pool_index_used == pool
        m, k = inst.m, params.k
        rot = householder_to_axis(sol.u_star, axis=-1)
        mu = params.delta * params.t / 2.0
        sigma = sigma_last(float(np.linalg.norm(sol.u_star)), params.delta, params.t)
        flips = list(cert.flip_set)
        total = rot @ inst.A[:, flips].sum(axis=1)
        target = rot @ (inst.A @ (sol.x_star - cert.x_prime) - params.theta_prime(m))
        total[m - 1] = (total[m - 1] - k * mu) / sigma
        target[m - 1] = (target[m - 1] - k * mu) / sigma
        deviation = float(np.abs(total - target).max())
        # the search sums the same terms in another order: allow 1e-12 of rounding
        assert deviation <= params.theta + 1e-12
        assert cert.diagnostics["disc_best_dev"] == pytest.approx(deviation, abs=1e-12)
        assert cert.diagnostics["mu_t"] == mu
        assert cert.diagnostics["sigma_t"] == sigma

    def test_rotated_head_coordinates_standard_normal(self):
        # draw fresh conditional columns, filter, rotate: the first m-1
        # coordinates must look standard normal (KS at level 0.01)
        m = 3
        u = np.array([0.4, 1.1, 0.2])
        h = RngHandle(38)
        cols = []
        t_delta = 0.6
        while len(cols) < 1500:
            c, a = conditioned_column(u, h)
            if abs(c - u @ a) <= t_delta:
                cols.append(a)
        rot = householder_to_axis(u)
        rotated = rot @ np.array(cols).T
        for j in range(m - 1):
            assert kstest(rotated[j], "norm").pvalue > 0.01


class TestRoundPipeline:
    def test_integral_lp_short_circuit(self):
        inst = make_instance([[1.0, 1.0]], [3.0], [1.0, 1.0])
        sol = solve_lp(inst)
        params = RoundingParams.defaults(1, 2, k=1, t=1)
        cert = round_pipeline(inst, sol, params, RngHandle(4))
        assert cert.feasible
        assert cert.flip_set == ()
        assert cert.certified_gap <= 1e-7
        assert np.array_equal(cert.x_double_prime, cert.x_prime)
        assert gap_chain_check(cert, inst, sol)

    def test_pool_too_small(self):
        inst, sol = solved(39, n=60)
        if sol.s.size == 0:
            pytest.skip("integral optimum drawn")
        params = RoundingParams.defaults(2, 60, k=8, t=5)
        with pytest.raises(PoolTooSmallError):
            round_pipeline(inst, sol, params, RngHandle(5))

    def test_successful_run_structure(self):
        inst, sol = solved(42)
        params = RoundingParams.defaults(2, 400)
        cert = round_pipeline(inst, sol, params, RngHandle(6))
        assert cert.feasible
        x2 = cert.x_double_prime
        # x'' is binary, differs from x' exactly on the flip set
        assert set(np.unique(x2).tolist()) <= {0.0, 1.0}
        diff = np.flatnonzero(x2 != cert.x_prime)
        assert set(diff.tolist()) == set(cert.flip_set)
        assert np.all(inst.A @ x2 <= inst.b + 1e-7)
        # flips come from the zero support with filtered reduced costs
        n0 = set(sol.n0.tolist())
        for i in cert.flip_set:
            assert i in n0
            assert abs(sol.reduced_costs[i]) <= params.t * params.delta
        # certified gap agrees with the gap formula cross-check
        assert cert.certified_gap == pytest.approx(
            cert.diagnostics["gap_formula_total"], abs=1e-7
        )
        assert cert.certified_gap >= -1e-7
        assert gap_chain_check(cert, inst, sol)

    def test_pipeline_reads_the_partition_of_its_lp_solution(self, monkeypatch):
        # solve_lp finds the fractional support of x* once; the pipeline
        # reads it and the entries at 0 and 1, each classified once, on
        # its first read
        calls = collections.Counter()

        def counted(name):
            classify = getattr(lp, name)
            return lambda x: calls.update([name]) or classify(x)

        for name in ("_fractional", "_at_bounds"):
            monkeypatch.setattr(lp, name, counted(name))
        inst, sol = solved(42)
        assert calls == {"_fractional": 1} and sol.s.size > 0
        cert = round_pipeline(inst, sol, RoundingParams.defaults(2, 400), RngHandle(6))
        assert cert.feasible and cert.flip_set
        assert calls == {"_fractional": 1, "_at_bounds": 1}
        assert not hasattr(rounding, "support_partition")

    def test_flip_count_and_pools_disjoint(self):
        inst, sol = solved(43)
        params = RoundingParams.defaults(2, 400)
        cert = round_pipeline(inst, sol, params, RngHandle(7))
        if cert.feasible and cert.flip_set:
            assert len(cert.flip_set) == params.k
            assert len(set(cert.flip_set)) == params.k

    def test_determinism(self):
        inst, sol = solved(44)
        params = RoundingParams.defaults(2, 400)
        a = round_pipeline(inst, sol, params, RngHandle(8))
        b = round_pipeline(inst, sol, params, RngHandle(8))
        assert a.flip_set == b.flip_set
        assert a.certified_gap == b.certified_gap

    def test_slack_bounded_by_two_theta_prime(self):
        inst, sol = solved(45)
        params = RoundingParams.defaults(2, 400)
        cert = round_pipeline(inst, sol, params, RngHandle(9))
        if cert.feasible and cert.flip_set:
            assert cert.slack_inf_norm <= 2.0 * params.theta_prime(2) + 1e-12

    def test_failure_reports_best_deviation(self):
        inst, sol = solved(48)
        if sol.s.size == 0:
            pytest.skip("integral optimum drawn")
        # absurdly tight tolerance forces NoFlipSetFound, reported not raised
        params = RoundingParams.defaults(2, 400, theta=1e-14)
        cert = round_pipeline(inst, sol, params, RngHandle(11))
        assert not cert.feasible
        assert cert.flip_set == ()
        assert cert.diagnostics["disc_best_dev"] > 0.0


EVENT_KEYS = {
    "u_norm", "event_u_norm_ok", "event_n0_ok", "event_cols_ok",
    "theta", "theta_prime", "round_l2", "t_delta_k",
}
SEARCH_KEYS = EVENT_KEYS | {
    "z_size", "pool_size", "pools", "mu_t", "sigma_t", "target_norm",
    "disc_best_dev", "disc_evaluations",
}


class TestOutcomeDiagnostics:
    """The diagnostics keys and `feasible` of each pipeline outcome."""

    def test_short_circuit(self):
        inst = make_instance([[1.0, 1.0]], [3.0], [1.0, 1.0])
        sol = solve_lp(inst)
        params = RoundingParams.defaults(1, 2, k=1, t=1)
        cert = round_pipeline(inst, sol, params, RngHandle(4))
        assert set(cert.diagnostics) == EVENT_KEYS | {"gap_formula_total"}
        assert cert.feasible and cert.pool_index_used is None
        assert cert.diagnostics["t_delta_k"] == 0.0

    def test_flipped(self):
        inst, sol = solved(42)
        params = RoundingParams.defaults(2, 400)
        cert = round_pipeline(inst, sol, params, RngHandle(6))
        assert set(cert.diagnostics) == SEARCH_KEYS | {"gap_formula_total"}
        assert cert.feasible and len(cert.flip_set) == params.k
        assert cert.diagnostics["t_delta_k"] == params.t * params.delta * params.k

    def test_search_failed_is_infeasible_even_when_x_prime_fits(self):
        inst, sol = solved(44)
        params = RoundingParams.defaults(2, 400, theta=1e-14)
        cert = round_pipeline(inst, sol, params, RngHandle(11))
        assert set(cert.diagnostics) == SEARCH_KEYS
        assert np.all(inst.A @ cert.x_prime <= inst.b + 1e-9)
        assert not cert.feasible
        assert cert.flip_set == () and cert.pool_index_used is None
        assert np.array_equal(cert.x_double_prime, cert.x_prime)
        assert cert.diagnostics["disc_evaluations"] == params.t * math.comb(24, 8)

    def test_k_above_cap_has_no_fallback_search(self):
        # k = 9 is above the exact cap of 8 at m = 2: the pipeline refuses
        # the pool instead of searching it some other way
        inst, sol = solved(403)
        params = RoundingParams(
            k=9, delta=8.0 * math.sqrt(2) * 9 / 400, t=1,
            theta=calibrate_theta(2, 9).theta,
        )
        assert params.k > exact_pool_k_cap(2)
        with pytest.raises(ExactBudgetError):
            round_pipeline(inst, sol, params, RngHandle(403))


class TestGapChain:
    def test_requires_feasible(self):
        inst, sol = solved(48)
        params = RoundingParams.defaults(2, 400, theta=1e-14)
        cert = round_pipeline(inst, sol, params, RngHandle(12))
        if not cert.feasible:
            with pytest.raises(ValueError):
                gap_chain_check(cert, inst, sol)

    def test_hand_built_flip_case(self):
        # one constraint, fractional LP optimum x* = (0.3, 0, 0), u* = 1;
        # the two zero columns have reduced cost -0.1 and both provide slack,
        # so a single flip lands inside the generous tolerance
        inst = make_instance([[2.0, -1.0, -1.2]], [0.6], [2.0, -1.1, -1.3])
        sol = solve_lp(inst)
        assert sol.x_star[0] == pytest.approx(0.3, abs=1e-9)
        assert sorted(sol.s.tolist()) == [0]
        assert sol.u_star[0] == pytest.approx(1.0, abs=1e-9)
        params = RoundingParams.defaults(1, 3, k=1, delta=2.0, t=1, theta=1.0)
        cert = round_pipeline(inst, sol, params, RngHandle(13))
        assert cert.feasible
        assert cert.flip_set == (2,)
        assert np.array_equal(cert.x_double_prime, [0.0, 0.0, 1.0])
        assert cert.certified_gap == pytest.approx(1.9, abs=1e-9)
        u_norm = float(np.linalg.norm(sol.u_star))
        bound = (
            math.sqrt(inst.m) * u_norm * cert.slack_inf_norm
            + params.t * params.delta * params.k
            + 1e-7
        )
        assert cert.certified_gap <= bound
        assert gap_chain_check(cert, inst, sol)


class TestExactCertificateSlack:
    def test_round_cert_certificates(self, monkeypatch):
        # the feasible certificates of perfbench's round_cert configuration
        # (m=2, n=400, b zeros, one pool per trial) at 20 streams: the exact
        # rational slack of A x'' <= b breaks no row by more than
        # FEAS_CHECK_TOL, and the float slack the pipeline tested is it up
        # to roundoff
        certs = []
        pipeline = rounding.round_pipeline

        def recorded(instance, lp_solution, params, rng):
            certs.append((instance, pipeline(instance, lp_solution, params, rng)))
            return certs[-1][1]

        monkeypatch.setattr(rounding, "round_pipeline", recorded)
        cfg = SweepConfig(m_list=(2,), n_list=(400,), seeds_per_cell=20, seed=10,
                          b_spec="zeros", rounding="auto", t=1, parallelism=1)
        for stream, m, n, _ in cfg.trials():
            run_trial(cfg, stream, m, n)
        feasible = [(inst, cert) for inst, cert in certs if cert.feasible]
        for inst, cert in feasible:
            exact = exact_row_slack(inst.A, inst.b, cert.x_double_prime)
            assert min(exact) >= -FEAS_CHECK_TOL
            slack = inst.b - inst.A @ cert.x_double_prime
            assert np.allclose([float(v) for v in exact], slack, rtol=0.0, atol=1e-10)
        assert len(feasible) >= 10
        assert sum(len(cert.flip_set) > 0 for _, cert in feasible) >= 5

    def test_oracle_is_exact_on_a_hand_row(self):
        # 0.1 + 0.2 exceeds 0.3 as the rationals the floats are
        [slack] = exact_row_slack([[0.1, 0.2, 5.0]], [0.3], [1.0, 1.0, 0.0])
        assert slack == Fraction(0.3) - Fraction(0.1) - Fraction(0.2) < 0
