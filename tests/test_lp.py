import numpy as np
import pytest

from giplab.instance import BSpec, generate
from giplab.lp import (
    InfeasibleError,
    IterationLimitError,
    dual_value,
    gap_formula,
    resample_zero_column,
    solve_box_lp,
    solve_lp,
)
from giplab.numerics import theory_params
from giplab.rng import RngHandle

from oracles import linprog_oracle, lp_vertex_oracle
from test_instance import make_instance


class TestSolveLpHandCases:
    def test_single_variable(self):
        sol = solve_lp(make_instance([[1.0]], [0.5], [1.0]))
        assert sol.x_star[0] == pytest.approx(0.5, abs=1e-9)
        assert sol.value == pytest.approx(0.5, abs=1e-9)
        assert sol.u_star[0] == pytest.approx(1.0, abs=1e-9)
        assert list(sol.s) == [0]

    def test_slack_constraint(self):
        sol = solve_lp(make_instance([[1.0, 1.0]], [3.0], [1.0, 1.0]))
        assert np.allclose(sol.x_star, [1.0, 1.0], atol=1e-9)
        assert sol.value == pytest.approx(2.0, abs=1e-9)
        assert sol.u_star[0] == pytest.approx(0.0, abs=1e-9)
        assert list(sol.n1) == [0, 1]

    def test_infeasible_with_farkas(self):
        inst = make_instance([[-1.0], [1.0]], [-0.9, 0.5], [1.0])
        with pytest.raises(InfeasibleError) as exc_info:
            solve_lp(inst)
        u = exc_info.value.farkas_u
        assert u is not None and np.all(u >= 0.0)
        # aggregated row must be violated everywhere in the box
        w = inst.A.T @ u
        box_min = np.minimum(w, 0.0).sum()
        assert box_min > inst.b @ u + 1e-9

    def test_iteration_limit(self):
        inst = generate(3, 60, BSpec.zeros(), RngHandle(3))
        with pytest.raises(IterationLimitError):
            solve_lp(inst, max_pivots=2)

    def test_pivot_budget_covers_both_phases(self):
        inst = generate(3, 400, BSpec.zeros(), RngHandle(1))
        # the crash start breaks a row, so phase one runs before phase two
        assert np.any(inst.A @ (inst.c > 0) > inst.b)
        pivots = solve_lp(inst).pivots
        assert solve_lp(inst, max_pivots=pivots + 1).pivots == pivots
        with pytest.raises(IterationLimitError, match=f"budget of {pivots} exhausted"):
            solve_lp(inst, max_pivots=pivots)


class TestStartRule:
    """Every solve starts its free structurals with c_j > 0 at the upper
    bound and the rest at the lower bound."""

    @pytest.mark.parametrize(
        "m, n, beta", [(1, 50, 1.0), (3, 400, 1.0), (8, 1000, 2.5)]
    )
    def test_feasible_start_needs_no_pivot(self, m, n, beta):
        inst = generate(m, n, BSpec.scaled_ones([beta] * m), RngHandle(31, n))
        assert np.all(inst.A @ (inst.c > 0) <= inst.b)
        sol = solve_lp(inst)
        assert sol.pivots == 0
        assert np.array_equal(sol.x_star, (inst.c > 0).astype(float))

    def test_nonpositive_costs_with_nonnegative_b_need_no_pivot(self):
        gen = np.random.default_rng(32)
        a = gen.standard_normal((4, 200))
        c = -np.abs(gen.standard_normal(200))
        c[::7] = 0.0
        sol = solve_lp(make_instance(a, np.abs(gen.standard_normal(4)), c))
        assert sol.pivots == 0
        assert np.array_equal(sol.x_star, np.zeros(200))

    def test_variable_fixed_by_its_box_starts_at_lower(self):
        inst = generate(2, 40, BSpec.scaled_ones([1.0, 1.0]), RngHandle(33))
        up = np.flatnonzero(inst.c > 0)[:6]
        lower = np.zeros(40)
        upper = np.ones(40)
        lower[up[:2]] = upper[up[:2]] = 0.0
        lower[up[2:4]] = upper[up[2:4]] = 1.0
        # narrower than the pivot tolerance: fixed, so it stays at lower
        lower[up[4:]] = 0.5
        upper[up[4:]] = 0.5 + 5e-12
        res = solve_box_lp(inst.A, inst.b, inst.c, lower, upper)
        assert res.pivots == 0
        assert np.array_equal(res.x[up], [0.0, 0.0, 1.0, 1.0, 0.5, 0.5])


class TestHighsLpDifferential:
    """Root LPs and branch-and-bound child boxes against scipy's HiGHS
    `linprog`: values to 1e-7 relative, infeasibility verdicts exactly, and
    every Farkas vector certifies its verdict."""

    SHAPES = [
        (1, 40), (2, 120), (3, 300), (4, 60), (5, 500), (6, 200), (8, 80), (8, 1000)
    ]
    RECIPES = [
        "zeros", "gaussian", "scaled_ones+", "scaled_ones-", "scaled_ones--", "explicit"
    ]

    @staticmethod
    def _b_spec(recipe, m):
        return {
            "zeros": BSpec.zeros,
            "gaussian": BSpec.gaussian,
            "scaled_ones+": lambda: BSpec.scaled_ones([0.05] * m),
            "scaled_ones-": lambda: BSpec.scaled_ones([-0.1] * m),
            # row 0 below its box minimum (about -0.4 n) once n is not tiny
            "scaled_ones--": lambda: BSpec.scaled_ones([-0.45] + [0.0] * (m - 1)),
            "explicit": lambda: BSpec.explicit(np.linspace(-2.0, 2.0, m)),
        }[recipe]()

    @staticmethod
    def _child_boxes(inst, gen):
        n = inst.n
        for k in range(6):
            lower, upper = np.zeros(n), np.ones(n)
            idx = gen.choice(n, int(gen.integers(1, max(2, n // 4))), replace=False)
            if k % 3 == 0:
                # against the start point: c_j > 0 at 0 and c_j < 0 at 1
                vals = (inst.c[idx] < 0).astype(float)
            elif k % 3 == 1:
                vals = gen.integers(0, 2, idx.size).astype(float)
            else:
                # push row 0 up: its positive entries at 1
                idx = idx[inst.A[0, idx] > 0]
                vals = np.ones(idx.size)
            lower[idx] = upper[idx] = vals
            yield lower, upper

    @staticmethod
    def _check(inst, lower, upper, solve):
        ref = linprog_oracle(inst.A, inst.b, inst.c, lower, upper)
        try:
            value = solve()
        except InfeasibleError as exc:
            assert ref is None, f"giplab infeasible, HiGHS optimum {ref!r}"
            w = inst.A.T @ exc.farkas_u
            assert np.all(exc.farkas_u >= 0.0)
            assert np.minimum(w * lower, w * upper).sum() > inst.b @ exc.farkas_u
            return False
        assert ref is not None, f"HiGHS infeasible, giplab optimum {value!r}"
        assert abs(value - ref) <= 1e-7 * max(1.0, abs(ref))
        return True

    @pytest.mark.parametrize("recipe", RECIPES)
    @pytest.mark.parametrize("m, n", SHAPES)
    def test_root_and_child_boxes(self, m, n, recipe):
        inst = generate(m, n, self._b_spec(recipe, m), RngHandle(7, 1000 * m + n))
        lower, upper = np.zeros(n), np.ones(n)
        self._check(inst, lower, upper, lambda: solve_lp(inst).value)
        gen = np.random.default_rng([m, n, self.RECIPES.index(recipe)])
        for lower, upper in self._child_boxes(inst, gen):
            self._check(
                inst, lower, upper,
                lambda: solve_box_lp(inst.A, inst.b, inst.c, lower, upper).value,
            )


class TestSolveLpAgainstOracle:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_vertex_enumeration(self, seed):
        rng = RngHandle(100 + seed)
        m = 1 + seed % 3
        n = 6 + seed % 3
        b_spec = BSpec.zeros() if seed % 2 else BSpec.gaussian()
        inst = generate(m, n, b_spec, rng)
        status, ref_val, _ = lp_vertex_oracle(inst.A, inst.b, inst.c)
        if status == "infeasible":
            with pytest.raises(InfeasibleError):
                solve_lp(inst)
        else:
            sol = solve_lp(inst)
            assert sol.value == pytest.approx(ref_val, abs=1e-9)


class TestSolutionStructure:
    @pytest.mark.parametrize("seed", range(10))
    def test_invariants(self, seed):
        inst = generate(3, 50, BSpec.zeros(), RngHandle(200 + seed))
        sol = solve_lp(inst)
        assert np.all(inst.A @ sol.x_star <= inst.b + 1e-7)
        assert np.all(sol.x_star >= -1e-12) and np.all(sol.x_star <= 1.0 + 1e-12)
        assert np.all(sol.u_star >= 0.0)
        parts = np.concatenate([sol.n0, sol.n1, sol.s])
        assert sorted(parts.tolist()) == list(range(inst.n))
        assert sol.s.size <= inst.m
        assert abs(sol.value - dual_value(sol.u_star, inst)) <= 1e-7 * (1 + abs(sol.value))

    @pytest.mark.parametrize("seed", range(10))
    def test_complementary_slackness(self, seed):
        inst = generate(2, 40, BSpec.gaussian(), RngHandle(300 + seed))
        sol = solve_lp(inst)
        r = inst.c - inst.A.T @ sol.u_star
        assert np.all(sol.x_star * np.maximum(-r, 0.0) <= 1e-7)
        assert np.all((1.0 - sol.x_star) * np.maximum(r, 0.0) <= 1e-7)
        assert np.all(sol.u_star * (inst.b - inst.A @ sol.x_star) <= 1e-7)

    @pytest.mark.parametrize("seed", range(10))
    def test_zero_support_reduced_cost_sign(self, seed):
        inst = generate(3, 60, BSpec.zeros(), RngHandle(400 + seed))
        sol = solve_lp(inst)
        assert np.all(sol.reduced_costs[sol.n0] <= 1e-9)


class TestDualValue:
    def test_u_zero_gives_positive_part_sum(self):
        inst = generate(2, 30, BSpec.zeros(), RngHandle(17))
        assert dual_value(np.zeros(2), inst) == pytest.approx(
            float(np.maximum(inst.c, 0.0).sum())
        )

    def test_weak_duality_random_pairs(self):
        inst = generate(2, 25, BSpec.gaussian(), RngHandle(18))
        gen = np.random.default_rng(5)
        for _ in range(1000):
            u = np.abs(gen.standard_normal(2))
            x = gen.random(25)
            if np.all(inst.A @ x <= inst.b):
                assert dual_value(u, inst) >= float(inst.c @ x) - 1e-9

    def test_negative_u_rejected(self):
        inst = generate(1, 5, BSpec.zeros(), RngHandle(1))
        with pytest.raises(ValueError):
            dual_value(np.array([-1.0]), inst)


class TestGapFormula:
    def test_at_optimum(self):
        inst = generate(3, 40, BSpec.zeros(), RngHandle(19))
        sol = solve_lp(inst)
        gb = gap_formula(sol.x_star, sol.u_star, inst)
        assert gb.total <= 1e-7

    def test_x0_u0(self):
        inst = generate(2, 20, BSpec.gaussian(), RngHandle(20))
        gb = gap_formula(np.zeros(20), np.zeros(2), inst)
        assert gb.total == pytest.approx(float(np.maximum(inst.c, 0.0).sum()))

    def test_identity_on_random_pairs(self):
        inst = generate(3, 30, BSpec.gaussian(), RngHandle(21))
        gen = np.random.default_rng(6)
        for _ in range(1000):
            x = gen.random(30)
            u = np.abs(gen.standard_normal(3))
            gb = gap_formula(x, u, inst)
            defn = dual_value(u, inst) - float(inst.c @ x)
            assert abs(defn - gb.total) <= 1e-9
            assert gb.total == gb.slack_term + gb.cost_term

    def test_bounds_violations_rejected(self):
        inst = generate(1, 3, BSpec.zeros(), RngHandle(1))
        with pytest.raises(ValueError):
            gap_formula(np.array([1.5, 0.0, 0.0]), np.zeros(1), inst)


class TestResampleZeroColumn:
    def test_requires_zero_support_index(self):
        inst = generate(2, 20, BSpec.zeros(), RngHandle(22))
        sol = solve_lp(inst)
        not_zero = [i for i in range(20) if i not in set(sol.n0.tolist())]
        with pytest.raises(ValueError):
            resample_zero_column(inst, sol, not_zero[0], RngHandle(1))

    def test_resampled_column_satisfies_sign(self):
        inst = generate(2, 30, BSpec.zeros(), RngHandle(23))
        sol = solve_lp(inst)
        h = RngHandle(24)
        for _ in range(50):
            i = int(sol.n0[0])
            new = resample_zero_column(inst, sol, i, h)
            assert new.c[i] - sol.u_star @ new.A[:, i] <= 0.0

    def test_optimum_stable_under_resampling(self):
        # redrawing a zero column from its conditional law keeps the optimum
        inst = generate(2, 40, BSpec.zeros(), RngHandle(25))
        sol = solve_lp(inst)
        h = RngHandle(26)
        gen = np.random.default_rng(3)
        stable = 0
        trials = 500
        for _ in range(trials):
            i = int(gen.choice(sol.n0))
            new = resample_zero_column(inst, sol, i, h)
            new_sol = solve_lp(new)
            others = [j for j in range(inst.n) if j != i]
            if (
                abs(new_sol.value - sol.value) <= 1e-7
                and np.allclose(new_sol.x_star[others], sol.x_star[others], atol=1e-7)
                and i in set(new_sol.n0.tolist())
            ):
                stable += 1
        assert stable / trials >= 0.99


class TestDualNormStatistics:
    def test_dual_and_zero_count_events(self):
        # b = 0, eps = 1/9: value, dual-norm, and zero-count events should
        # each hold on at least 95% of 200 seeds at m=3, n=300
        m, n, seeds = 3, 300, 200
        params = theory_params(1.0 / 9.0, 0.0)
        value_ok = u_ok = n0_ok = 0
        for s in range(seeds):
            inst = generate(m, n, BSpec.zeros(), RngHandle(4000, s))
            sol = solve_lp(inst)
            if sol.value >= params.alpha * n:
                value_ok += 1
            if np.linalg.norm(sol.u_star) <= 3.0:
                u_ok += 1
            if sol.n0.size >= n / 500.0:
                n0_ok += 1
        assert value_ok / seeds >= 0.95
        assert u_ok / seeds >= 0.95
        assert n0_ok / seeds >= 0.99
