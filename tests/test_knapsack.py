import math

import numpy as np
import pytest

from giplab.instance import BSpec, generate
from giplab import knapsack
from giplab.knapsack import (
    CountBudgetError,
    expectation_bound,
    knapsack_count,
    knapsack_expectation_mc,
    logcon_tail_check,
    reduced_cost_knapsack,
    sphere_net,
)
from giplab.lp import solve_lp
from giplab.bnb import ipgap
from giplab.rng import RngHandle

from oracles import count_small_weight_subsets, count_subsets_exhaustive


class TestKnapsackCount:
    def test_nothing_fits(self):
        assert knapsack_count([2.0, 3.0], 1.0).count == 1

    def test_everything_fits(self):
        assert knapsack_count([0.1] * 12, 100.0).count == 2**12

    def test_hand_enumeration(self):
        assert knapsack_count([0.2, 0.3, 0.7], 0.5).count == 4

    @pytest.mark.parametrize("method", ["dfs_pruned", "meet_in_middle"])
    def test_no_weights_count_the_empty_set(self, method):
        assert knapsack_count([], 0.0, method=method).count == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            knapsack_count([-0.1], 1.0)
        with pytest.raises(ValueError):
            knapsack_count([0.1], -1.0)
        with pytest.raises(ValueError):
            knapsack_count(np.ones(49), 1.0, method="meet_in_middle")
        with pytest.raises(ValueError):
            knapsack_count([0.1], 1.0, method="greedy")

    @pytest.mark.parametrize("method", ["dfs_pruned", "meet_in_middle"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1])
    def test_non_finite_or_negative_weight_refused(self, method, bad):
        # a NaN weight once passed the sign check and the methods then
        # counted [nan, 0.5, 0.5] at capacity 1.0 as 4 and 8
        with pytest.raises(ValueError, match="finite and nonnegative"):
            knapsack_count([bad, 0.5, 0.5], 1.0, method=method)

    def test_dfs_counts_beyond_mim_limit(self):
        # the empty set and the 49 singletons fit
        kc = knapsack_count(np.ones(49), 1.0)
        assert kc.method == "dfs_pruned" and kc.count == 50

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_exhaustive_oracle(self, seed):
        gen = np.random.default_rng(seed)
        n = 10 + seed % 6
        w = gen.random(n)
        cap = float(gen.random() * n * 0.4)
        expect = count_subsets_exhaustive(w, cap)
        assert knapsack_count(w, cap, method="dfs_pruned").count == expect
        assert knapsack_count(w, cap, method="meet_in_middle").count == expect

    @pytest.mark.parametrize("seed", range(20))
    def test_methods_agree_at_scale(self, seed):
        gen = np.random.default_rng(100 + seed)
        n = 20 + seed % 11
        w = gen.random(n) * 2.0
        cap = float(gen.random() * 3.0)
        a = knapsack_count(w, cap, method="dfs_pruned").count
        b = knapsack_count(w, cap, method="meet_in_middle").count
        assert a == b

    def test_near_ceiling_size(self):
        gen = np.random.default_rng(9)
        w = gen.random(40)
        assert knapsack_count(w, 100.0).count == 2**40
        # at a tiny capacity only the few small items participate, so the
        # exhaustive oracle on that filtered set is exact for the full problem
        cap = 0.05
        relevant = w[w <= cap + 1e-9]
        expect = count_subsets_exhaustive(relevant, cap)
        assert knapsack_count(w, cap).count == expect

    def test_deep_dfs_needs_no_recursion(self):
        # the exclude chain runs through every large weight: a recursive DFS
        # would go about 2000 frames deep
        w = np.random.default_rng(11).random(2000)
        cap = 0.003
        expect = count_small_weight_subsets(w, cap)
        assert expect > 1
        assert knapsack_count(w, cap).count == expect

    def test_monotone_in_capacity_and_permutation_invariant(self):
        gen = np.random.default_rng(7)
        w = gen.random(15)
        caps = sorted(gen.random(5) * 4.0)
        counts = [knapsack_count(w, c).count for c in caps]
        assert counts == sorted(counts)
        shuffled = w.copy()
        gen.shuffle(shuffled)
        assert knapsack_count(shuffled, caps[2]).count == counts[2]


def reduced_cost_case(m, n, seed):
    inst = generate(m, n, BSpec.zeros(), RngHandle(71, seed))
    sol = solve_lp(inst)
    return np.abs(inst.A.T @ sol.u_star - inst.c), ipgap(inst)


class TestDfsAgainstMim:
    """Exact integer counts: the DFS must equal meet-in-the-middle at the
    sizes where the proxy used to need meet-in-the-middle."""

    @pytest.mark.parametrize(
        "m,n", [(m, n) for m in (2, 3) for n in (32, 36, 40, 44, 48)]
    )
    def test_reduced_cost_weights(self, m, n):
        weights, gap = reduced_cost_case(m, n, 10 * m + n)
        dfs = knapsack_count(weights, gap, method="dfs_pruned").count
        assert dfs == knapsack_count(weights, gap, method="meet_in_middle").count

    def test_reduced_cost_weights_scaled_gap(self):
        # larger capacities than the exact gap give larger counts
        for m, n in ((2, 40), (3, 44)):
            weights, gap = reduced_cost_case(m, n, 5)
            for cap in (0.25, 1.0, 3.0 * gap + 0.5):
                dfs = knapsack_count(weights, cap, method="dfs_pruned").count
                mim = knapsack_count(weights, cap, method="meet_in_middle").count
                assert dfs == mim

    @pytest.mark.parametrize("seed", range(8))
    def test_random_weights(self, seed):
        gen = np.random.default_rng(300 + seed)
        n = 32 + 2 * seed
        w = gen.random(n)
        cap = float(gen.uniform(0.5, 1.5))
        dfs = knapsack_count(w, cap, method="dfs_pruned").count
        assert dfs == knapsack_count(w, cap, method="meet_in_middle").count


class TestVisitBudget:
    def test_partial_count_is_a_lower_bound(self, monkeypatch):
        w = np.random.default_rng(12).random(36)
        cap = 1.2
        true = knapsack_count(w, cap, method="meet_in_middle").count
        monkeypatch.setattr(knapsack, "DFS_VISIT_BUDGET", 500)
        with pytest.raises(CountBudgetError) as info:
            knapsack_count(w, cap)
        assert 500 < info.value.visits <= 500 + w.size + 1
        assert 0 < info.value.partial_count <= true

    def test_budget_counts_nodes_not_leaves(self, monkeypatch):
        # 7 fitting subsets, but the first leaf lies past 30 weights that
        # never fit
        w = np.array([10.0] * 30 + [0.1] * 3)
        assert knapsack_count(w, 0.25).count == 7
        monkeypatch.setattr(knapsack, "DFS_VISIT_BUDGET", 30)
        with pytest.raises(CountBudgetError) as info:
            knapsack_count(w, 0.25)
        assert info.value.visits > 30 and info.value.partial_count <= 7

    def test_visits_bounded_by_n_plus_one_times_count(self, monkeypatch):
        for seed in range(5):
            gen = np.random.default_rng(400 + seed)
            w = gen.random(40)
            cap = float(gen.uniform(0.2, 1.0))
            true = knapsack_count(w, cap, method="meet_in_middle").count
            monkeypatch.setattr(knapsack, "DFS_VISIT_BUDGET", (w.size + 1) * true)
            assert knapsack_count(w, cap).count == true


class TestExpectationMc:
    def test_zero_capacity_counts_one(self):
        mean, stderr, _ = knapsack_expectation_mc(
            12, "uniform01", 0.0, 50, RngHandle(41)
        )
        assert mean == 1.0 and stderr == 0.0

    def test_bound_respected_on_grid(self):
        for n in (10, 20):
            for g in (0.1, 0.5, 1.0, 2.0):
                mean, stderr, bound = knapsack_expectation_mc(
                    n, "uniform01", g, 200, RngHandle(42, n * 10 + int(g * 10))
                )
                assert mean + 3.0 * stderr <= bound

    def test_lower_bound_remark(self):
        # with uniform weights, small elements alone produce 2^floor(sqrt(ng))
        # fitting subsets at least half the time
        n, g = 20, 1.0
        floor_pow = 2 ** int(math.isqrt(int(n * g)))
        hits = 0
        trials = 400
        for trial in range(trials):
            w = RngHandle(43, trial).gen.random(n)
            if knapsack_count(w, g).count >= floor_pow:
                hits += 1
        assert hits / trials >= 0.5

    def test_alternative_laws(self):
        for law in ("absgauss", "absmix:0.5"):
            mean, _, bound = knapsack_expectation_mc(10, law, 0.5, 100, RngHandle(44))
            assert 1.0 <= mean <= bound


class TestReducedCostKnapsack:
    def test_gap_zero_counts_zero_weight_subsets(self):
        # the optimal dual zeroes the reduced costs of the basic coordinates,
        # so capacity 0 admits exactly the subsets of those; a generic
        # multiplier leaves only the empty set
        inst = generate(2, 20, BSpec.zeros(), RngHandle(45))
        sol = solve_lp(inst)
        weights = np.abs(inst.A.T @ sol.u_star - inst.c)
        zero_weights = int(np.sum(weights <= 1e-12 * inst.n))
        assert reduced_cost_knapsack(sol, 0.0).count == 2**zero_weights
        generic = sol.u_star + np.array([0.1, 0.2])
        generic_weights = np.abs(inst.A.T @ generic - inst.c)
        assert knapsack_count(generic_weights, 0.0).count == 1

    def test_huge_gap_counts_everything(self):
        inst = generate(2, 15, BSpec.zeros(), RngHandle(46))
        sol = solve_lp(inst)
        total = float(np.abs(inst.A.T @ sol.u_star - inst.c).sum())
        assert reduced_cost_knapsack(sol, total + 1.0).count == 2**15

    def test_tree_size_against_proxy(self):
        # measured best-bound tree sizes next to the knapsack proxy count;
        # recorded relationship, not a theorem at desk scale
        from giplab.bnb import solve_ip

        ratios = []
        for s in range(20):
            inst = generate(2, 18, BSpec.zeros(), RngHandle(47, s))
            sol = solve_lp(inst)
            gap = ipgap(inst)
            count = reduced_cost_knapsack(sol, gap).count
            tree = solve_ip(inst).nodes_created
            assert count >= 1
            ratios.append(tree / count)
        assert np.isfinite(ratios).all()


class TestLogconTail:
    def test_rate_zero_for_gaussian(self):
        assert logcon_tail_check(1, 200, 200, RngHandle(48)) == 0.0

    def test_l1_row_scale(self):
        # for fixed u, ||u' W||_1 / n concentrates near E|N(0,1)| ~ 0.798
        w = RngHandle(49).gen.standard_normal((2, 400))
        u = np.array([1.0, 0.0])
        val = float(np.abs(u @ w).sum()) / 400
        assert 0.7 <= val <= 0.9

    def test_determinism_and_validation(self):
        a = logcon_tail_check(2, 300, 50, RngHandle(50))
        b = logcon_tail_check(2, 300, 50, RngHandle(50))
        assert a == b
        with pytest.raises(ValueError):
            logcon_tail_check(3, 1000, 10, RngHandle(1))
        with pytest.raises(ValueError):
            logcon_tail_check(1, 50, 10, RngHandle(1))
        assert logcon_tail_check(1, 50, 10, RngHandle(1), allow_small=True) >= 0.0


class TestSphereNet:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_unit_vectors(self, d):
        net = sphere_net(d)
        assert np.allclose(np.linalg.norm(net, axis=1), 1.0, atol=1e-12)

    def test_covering_radius_d2(self):
        net = sphere_net(2)
        gen = np.random.default_rng(3)
        for _ in range(500):
            v = gen.standard_normal(2)
            v /= np.linalg.norm(v)
            assert np.linalg.norm(net - v, axis=1).min() <= 0.25

    def test_covering_radius_d3(self):
        net = sphere_net(3)
        gen = np.random.default_rng(4)
        for _ in range(2000):
            v = gen.standard_normal(3)
            v /= np.linalg.norm(v)
            assert np.linalg.norm(net - v, axis=1).min() <= 0.25
