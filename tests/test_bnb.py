import numpy as np
import pytest

from giplab.bnb import branch_variable, brute_force_ip, ipgap, solve_ip
from giplab.instance import BSpec, generate
from giplab.lp import InfeasibleError
from giplab.rng import RngHandle

from oracles import milp_oracle
from test_instance import make_instance


class TestHandCases:
    def test_single_variable_tree(self):
        res = solve_ip(make_instance([[1.0]], [0.5], [1.0]))
        assert res.status == "Optimal"
        assert res.opt_value == pytest.approx(0.0, abs=1e-12)
        assert np.array_equal(res.x_opt, [0.0])
        assert res.nodes_created == 3
        assert res.nodes_expanded == 2

    def test_integral_lp_gives_singleton_tree(self):
        res = solve_ip(make_instance([[1.0, 1.0]], [3.0], [1.0, 1.0]))
        assert res.status == "Optimal"
        assert res.nodes_created == 1
        assert res.opt_value == pytest.approx(2.0)

    def test_node_limit(self):
        inst = generate(2, 16, BSpec.zeros(), RngHandle(31))
        full = solve_ip(inst)
        if full.nodes_created > 2:
            res = solve_ip(inst, node_limit=2)
            assert res.status == "NodeLimit"
            assert res.best_bound is not None
            assert res.best_bound >= full.opt_value - 1e-9

    def test_infeasible_ip(self):
        # x >= 0.5 and x <= 0.75 admits no binary point
        inst = make_instance([[-1.0], [1.0]], [-0.5, 0.75], [1.0])
        res = solve_ip(inst)
        assert res.status == "Infeasible"
        assert res.x_opt is None


class TestBruteForce:
    def test_all_infeasible(self):
        inst = make_instance([[-1.0], [1.0]], [-0.5, 0.75], [1.0])
        val, x = brute_force_ip(inst)
        assert val is None and x is None

    def test_unconstrained_maximum(self):
        inst = generate(2, 12, BSpec.explicit([1e6, 1e6]), RngHandle(32))
        val, x = brute_force_ip(inst)
        assert np.array_equal(x, (inst.c > 0).astype(float))
        assert val == pytest.approx(float(np.maximum(inst.c, 0.0).sum()))

    def test_size_refused(self):
        inst = generate(1, 26, BSpec.zeros(), RngHandle(33))
        with pytest.raises(ValueError):
            brute_force_ip(inst)


class TestExactness:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force(self, seed):
        m = 1 + seed % 4
        n = 10 + seed % 5
        b_spec = BSpec.zeros() if seed % 2 else BSpec.gaussian()
        inst = generate(m, n, b_spec, RngHandle(600 + seed))
        bf_val, _ = brute_force_ip(inst)
        try:
            res = solve_ip(inst)
        except InfeasibleError:
            assert bf_val is None
            return
        if res.status == "Infeasible":
            assert bf_val is None
        else:
            assert res.opt_value == pytest.approx(bf_val, abs=1e-9)


class TestAblation:
    @pytest.mark.parametrize("seed", range(8))
    def test_pruning_never_grows_tree(self, seed):
        inst = generate(2, 13, BSpec.zeros(), RngHandle(700 + seed))
        pruned = solve_ip(inst, prune=True)
        unpruned = solve_ip(inst, prune=False)
        assert pruned.nodes_created <= unpruned.nodes_created
        assert pruned.opt_value == pytest.approx(unpruned.opt_value, abs=1e-9)

    def test_first_frac_rule(self):
        inst = generate(2, 14, BSpec.zeros(), RngHandle(801))
        a = solve_ip(inst, branch_rule="most-frac")
        b = solve_ip(inst, branch_rule="first-frac")
        assert a.opt_value == pytest.approx(b.opt_value, abs=1e-9)


class TestBranchVariable:
    def test_most_fractional(self):
        assert branch_variable(np.array([1.0, 0.5, 0.0])) == 1

    def test_tie_breaks_low_index(self):
        assert branch_variable(np.array([0.4, 0.6])) == 0

    def test_integral_errors(self):
        with pytest.raises(ValueError):
            branch_variable(np.array([0.0, 1.0]))


class TestHighsDifferential:
    """solve_ip against HiGHS milp past brute-force sizes (n 26-60)."""

    @staticmethod
    def _instance(i):
        m = 1 + i % 4
        n = 26 + (i * 7) % 35
        if i % 3 == 0:
            b_spec = BSpec.zeros()
        elif i % 3 == 1:
            b_spec = BSpec.gaussian()
        else:
            # row budgets from clearly infeasible to slack
            b_spec = BSpec.scaled_ones([(-0.3, -0.1, 0.05)[(i // 3) % 3]] * m)
        return generate(m, n, b_spec, RngHandle(4200, i))

    def test_optimum_and_node_limit_bracket(self):
        rel = 1e-7
        brackets = 0
        for i in range(24):
            inst = self._instance(i)
            truth = milp_oracle(inst.A, inst.b, inst.c)
            res = solve_ip(inst)
            assert (res.status == "Infeasible") == (truth is None), i
            if truth is None:
                continue
            assert res.status == "Optimal", i
            tol = rel * (1.0 + abs(truth))
            assert abs(res.opt_value - truth) <= tol, i
            limit = res.nodes_created // 3
            if limit < 1:
                continue
            cut = solve_ip(inst, node_limit=limit)
            if cut.status != "NodeLimit":
                continue
            brackets += 1
            if cut.opt_value is not None:
                assert cut.opt_value <= truth + tol, i
            assert truth <= cut.best_bound + tol, i
        assert brackets > 0


class TestIpGap:
    def test_integral_lp_gap_zero(self):
        assert ipgap(make_instance([[1.0, 1.0]], [3.0], [1.0, 1.0])) == 0.0

    def test_hand_gap(self):
        assert ipgap(make_instance([[1.0]], [0.5], [1.0])) == pytest.approx(0.5)

    def test_gap_nonnegative(self):
        for s in range(20):
            inst = generate(2, 12, BSpec.zeros(), RngHandle(900 + s))
            assert ipgap(inst) >= 0.0

    def test_tree_size_envelope(self):
        # recorded scaling: fitted exponent kappa of tree ~ n^kappa must be
        # finite and the medians must stay far below n^4 at these sizes
        meds = {}
        for n in (20, 40, 80):
            trees = [
                solve_ip(
                    generate(2, n, BSpec.zeros(), RngHandle(8000, s)),
                    node_limit=200_000,
                ).nodes_created
                for s in range(30)
            ]
            meds[n] = float(np.median(trees))
            assert meds[n] <= n**4
        design = np.vstack([np.log([20.0, 40.0, 80.0]), np.ones(3)]).T
        kappa = float(
            np.linalg.lstsq(
                design, np.log([meds[n] for n in (20, 40, 80)]), rcond=None
            )[0][0]
        )
        assert np.isfinite(kappa)

    def test_median_gap_shrinks_with_n(self):
        # the typical exact gap trends down with n at m = 2, b = 0
        gaps_small, gaps_large = [], []
        for s in range(50):
            gaps_small.append(ipgap(generate(2, 50, BSpec.zeros(), RngHandle(960, s))))
            gaps_large.append(ipgap(generate(2, 200, BSpec.zeros(), RngHandle(961, s))))
        assert np.median(gaps_large) < np.median(gaps_small)
