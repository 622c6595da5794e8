import collections
import copy
import dataclasses
import itertools
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from giplab import bnb, lp
from giplab.instance import BSpec, generate
from giplab.lp import (
    InfeasibleError,
    IterationLimitError,
    dual_value,
    gap_formula,
    resample_zero_column,
    solve_box_lp,
    solve_lp,
    support_partition,
)
from giplab.numerics import theory_params
from giplab.rng import RngHandle

from oracles import (
    exact_basis_check,
    exact_farkas_margin,
    linprog_oracle,
    lp_vertex_oracle,
)
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
        # the crash start breaks a row, so the solve takes dual pivots
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

    def test_variable_fixed_by_its_box_starts_at_lower(self, monkeypatch):
        # a child fixes x_j at 0 or 1 with sgn 0, so a fixed structural
        # never enters a later pivot and ends at its value; twelve fixings
        # down one chain of children, each of a fractional variable or,
        # when there is none, of one at 1, at 0 and 1 in turn
        inst = generate(3, 40, BSpec.zeros(), RngHandle(35))
        entered = []
        exchange = lp._Simplex._exchange

        def recorded(core, pos, e, w, to_upper):
            entered.append(e)
            exchange(core, pos, e, w, to_upper)

        monkeypatch.setattr(lp._Simplex, "_exchange", recorded)
        sol = solve_lp(inst)
        entered.clear()
        fixed = {}
        for step in range(12):
            j = int(sol.s[0]) if sol.s.size else next(
                int(k) for k in np.flatnonzero(sol.x_star == 1.0) if k not in fixed)
            side = float(step % 2)
            start = len(entered)
            sol = solve_box_lp(sol, j, side)
            fixed[j] = side
            assert not set(entered[start:]) & set(fixed)
            core = sol.simplex
            for k, v in fixed.items():
                assert sol.x_star[k] == v and core.sgn[k] == 0.0
                assert core.lower[k] == core.upper[k] == v
        assert len(entered) >= 20


class TestDataFinite:
    """An instance refuses A, b or c with an entry that is not finite, so
    no solve sees one, and the simplex never carries it into a value of
    nan."""

    @pytest.mark.parametrize("part, entry", [
        ("A", np.inf), ("A", np.nan), ("b", -np.inf), ("b", np.nan),
        ("c", np.nan), ("c", np.inf),
    ], ids=["inf-A", "nan-A", "inf-b", "nan-b", "nan-c", "inf-c"])
    def test_refused(self, part, entry):
        inst = generate(2, 10, BSpec.gaussian(), RngHandle(1))
        data = {"A": inst.A.copy(), "b": inst.b.copy(), "c": inst.c.copy()}
        data[part].flat[3 % data[part].size] = entry
        with pytest.raises(ValueError, match=f"^{part} contains non-finite entries$"):
            make_instance(data["A"], data["b"], data["c"])

    def test_one_by_two(self):
        # an inf in A and a NaN in c of a 1 x 2 LP, each alone
        a, b, c = np.array([[1.0, 2.0]]), np.array([1.0]), np.array([1.0, -1.0])
        for a_, c_ in ((np.array([[np.inf, 2.0]]), c), (a, np.array([np.nan, -1.0]))):
            with pytest.raises(ValueError, match="contains non-finite entries"):
                make_instance(a_, b, c_)


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
    def _child_fixings(inst, gen):
        """Six sets of fixings (idx, vals): x_idx = vals."""
        n = inst.n
        for k in range(6):
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
            yield idx, vals

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

    BETAS = [-0.09, -0.03, 0.03, 0.3]

    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_scaled_ones_roots(self, m, beta):
        # row budgets beta * n, from tight to slack: the value agrees with
        # HiGHS and no row is broken by more than the feasibility tolerance
        n = 1000
        inst = generate(m, n, BSpec.scaled_ones([beta] * m),
                        RngHandle(8, 10 * m + self.BETAS.index(beta)))
        sol = solve_lp(inst)
        ref = linprog_oracle(inst.A, inst.b, inst.c)
        assert ref is not None
        assert abs(sol.value - ref) <= 1e-7 * max(1.0, abs(ref))
        assert np.max(inst.A @ sol.x_star - inst.b) <= lp.FEAS_TOL

    @pytest.mark.parametrize("recipe", RECIPES)
    @pytest.mark.parametrize("m, n", SHAPES)
    def test_root_and_child_boxes(self, m, n, recipe):
        # each child box is reached from the root by a chain of children,
        # one fixing per solve, and checked at the chain's end, or at the
        # step whose box the chain proves infeasible
        inst = generate(m, n, self._b_spec(recipe, m), RngHandle(7, 1000 * m + n))
        if not self._check(inst, np.zeros(n), np.ones(n), lambda: solve_lp(inst).value):
            return
        root = solve_lp(inst)
        gen = np.random.default_rng([m, n, self.RECIPES.index(recipe)])
        for idx, vals in self._child_fixings(inst, gen):
            lower, upper = np.zeros(n), np.ones(n)
            parent = root
            for j, side in zip(idx.tolist(), vals.tolist()):
                lower[j] = upper[j] = side
                try:
                    parent = solve_box_lp(parent, j, side)
                except InfeasibleError:
                    self._check(inst, lower, upper,
                                lambda: solve_box_lp(parent, j, side).value)
                    break
            else:
                self._check(inst, lower, upper, lambda: parent.value)


class TestWarmStart:
    """Children, each its parent's box with one variable fixed, re-solved
    by dual simplex from the parent's final simplex state, against the
    cold solve of the substituted LP: the fixed columns F dropped, b -
    A_F x_F for b and c_F x_F added to the value."""

    @staticmethod
    def _instance(i):
        m = 1 + i % 4
        n = (24, 60, 120, 200)[(i // 4) % 4]
        b_spec = BSpec.zeros() if i % 2 else BSpec.gaussian()
        return generate(m, n, b_spec, RngHandle(4300, i))

    @staticmethod
    def _fixed(lower, upper, j, side):
        lower, upper = lower.copy(), upper.copy()
        lower[j] = upper[j] = side
        return lower, upper

    @staticmethod
    def _substituted(inst, lower, upper):
        """(free, x_F, offset, instance): the free columns, the values of
        the fixed ones, c_F x_F and the LP over the free columns with b -
        A_F x_F; the instance is None when every column is fixed."""
        free = lower < upper
        x_f = lower[~free]
        a_f = inst.A[:, ~free]
        offset = float(inst.c[~free] @ x_f)
        if not free.any():
            return free, x_f, offset, None
        return free, x_f, offset, make_instance(
            inst.A[:, free], inst.b - a_f @ x_f, inst.c[free])

    @staticmethod
    def _check_certificate(inst, lower, upper, res):
        """Strong duality and complementary slackness of (res.x_star,
        res.duals), computed from the basic duals themselves."""
        a, b, c, y, x = inst.A, inst.b, inst.c, res.duals, res.x_star
        tol = 1e-9 * max(1.0, abs(res.value))
        r = c - a.T @ y
        assert np.all(y >= -1e-9)
        assert abs(b @ y + np.maximum(r * lower, r * upper).sum() - res.value) <= tol
        assert np.all(np.abs(y * (b - a @ x)) <= 1e-9)
        assert np.all((x - lower) * np.maximum(-r, 0.0) <= 1e-9)
        assert np.all((upper - x) * np.maximum(r, 0.0) <= 1e-9)

    @staticmethod
    def _with_binv(sol, binv):
        """sol with its carried inverse replaced, and the last pass's basic
        values taken on it, as the solve would have left them."""
        core = copy.copy(sol.simplex)
        core.binv, core.xb = binv, (binv @ core.rhs_n).tolist()
        return dataclasses.replace(sol, simplex=core)

    @classmethod
    def _warm_and_cold(cls, inst, parent, j, side):
        """The child of parent fixing x_j at side, warm, and the cold
        solve of its substituted LP, checked against each other; None when
        both find the box infeasible.  When every column is fixed, the
        cold side is the slack b - A x_F itself, and None stands for it."""
        box = parent.simplex
        lower, upper = cls._fixed(box.lower[:inst.n], box.upper[:inst.n], j, side)
        free, x_f, offset, sub = cls._substituted(inst, lower, upper)
        try:
            if sub is None:
                if (inst.b - inst.A @ lower < -lp.FEAS_TOL).any():
                    raise InfeasibleError("the fixed point breaks a row")
                cold = None
            else:
                cold = solve_lp(sub)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                solve_box_lp(parent, j, side)
            return None
        warm = solve_box_lp(parent, j, side)
        assert np.array_equal(warm.simplex.lower[:inst.n], lower)
        assert np.array_equal(warm.simplex.upper[:inst.n], upper)
        assert np.array_equal(warm.x_star[~free], x_f)
        cold_value = offset + (cold.value if cold is not None else 0.0)
        assert abs(warm.value - cold_value) <= 1e-9 * max(1.0, abs(cold_value))
        assert np.all(inst.A @ warm.x_star <= inst.b + 1e-7)
        assert np.all((lower <= warm.x_star) & (warm.x_star <= upper))
        cls._check_certificate(inst, lower, upper, warm)
        bound_gap, rc_gap, value = exact_basis_check(
            inst.A, inst.b, inst.c, lower, upper, warm.simplex.basis, warm.simplex.x_n)
        assert bound_gap <= lp.FEAS_TOL and rc_gap <= lp.RC_TOL
        assert abs(value - Fraction(warm.value)) <= 1e-9 * (1 + abs(warm.value))
        for res in filter(None, (warm, cold)):
            cls._check_inverse(res)
            TestCarriedState._check(res.simplex)
        if cold is not None:
            cls._check_certificate(sub, np.zeros(sub.n), np.ones(sub.n), cold)
        return warm, cold

    @staticmethod
    def _check_inverse(res):
        """The carried basis inverse inverts the final basis."""
        core = res.simplex
        bmat = core.mat[:, core.basis]
        residual = core.binv @ bmat - np.eye(len(core.basis))
        assert np.linalg.norm(residual, np.inf) <= 1e-10

    def test_fixings_from_the_root_and_down_one_path(self):
        pivots = {"warm": 0, "cold": 0}
        solves = 0
        for i in range(32):
            inst = self._instance(i)
            root = solve_lp(inst)
            pairs = []
            for j in root.s:
                for side in (0.0, 1.0):
                    pairs.append(self._warm_and_cold(inst, root, j, side))
            # three fixings down one path, each re-solved from its parent
            x, start = root.x_star, root
            for depth in range(3):
                frac = support_partition(x)[2]
                if frac.size == 0:
                    break
                pair = self._warm_and_cold(inst, start, frac[0], float(depth % 2))
                pairs.append(pair)
                if pair is None:
                    break
                x, start = pair[0].x_star, pair[0]
            for warm, cold in filter(None, pairs):
                pivots["warm"] += warm.pivots
                pivots["cold"] += cold.pivots
                solves += 1
        assert solves >= 100
        assert pivots["warm"] <= pivots["cold"]

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.data())
    def test_warm_and_cold_agree_on_random_boxes(self, data):
        # entries on a quarter grid, so zeros, ties and degenerate vertices
        # come up; fixings of any variables, basic or not, keep the parent's
        # basis dual feasible, and each is solved from the one before
        m = data.draw(st.integers(1, 4), label="m")
        n = data.draw(st.integers(3, 12), label="n")
        grid = st.integers(-8, 8).map(lambda v: v / 4.0)
        a = np.array(data.draw(st.lists(grid, min_size=m * n, max_size=m * n),
                               label="A")).reshape(m, n)
        b = np.array(data.draw(st.lists(grid, min_size=m, max_size=m), label="b"))
        c = np.array(data.draw(st.lists(grid, min_size=n, max_size=n), label="c"))
        inst = make_instance(a, b + 1.0, c)
        fixings = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.sampled_from((0.0, 1.0))),
            min_size=1, max_size=3, unique_by=lambda f: f[0]), label="fixings")
        try:
            parent = solve_lp(inst)
        except InfeasibleError:
            return
        self._check_inverse(parent)
        for j, side in fixings:
            pair = self._warm_and_cold(inst, parent, j, side)
            if pair is None:
                return
            parent = pair[0]

    @staticmethod
    def _count_refactors(monkeypatch):
        """Every fresh inverse, by cause, and a check that each returned
        solution's `refactors` counts those made during its solve and that
        the basic values it keeps for its children are on its final
        inverse, for the warm children and the cold solves alike."""
        causes = []
        refactor = lp._Simplex._refactor

        def counted(core, cause):
            causes.append(cause)
            refactor(core, cause)

        def checked(solve):
            def run(*args, **kwargs):
                start = len(causes)
                res = solve(*args, **kwargs)
                seen = collections.Counter(causes[start:])
                assert res.refactors == {k: seen[k] for k in res.refactors}
                core = res.simplex
                assert core.xb == (core.binv @ core.rhs_n).tolist()
                return res
            return run

        monkeypatch.setattr(lp._Simplex, "_refactor", counted)
        for name in ("solve_box_lp", "solve_lp"):
            monkeypatch.setattr(sys.modules[__name__], name, checked(getattr(lp, name)))
        return causes

    def test_drifted_inverse_is_refactorized(self, monkeypatch):
        # every entry of the parent's inverse off by 1e-3: the exit checks
        # must catch it, refactorize, and still reach the cold optimum
        causes = self._count_refactors(monkeypatch)
        solves = 0
        for i in range(16):
            inst = self._instance(i)
            root = solve_lp(inst)
            drifted = self._with_binv(root, root.simplex.binv + 1e-3)
            for j in root.s:
                for side in (0.0, 1.0):
                    solves += self._warm_and_cold(inst, drifted, j, side) is not None
        assert solves >= 30 and causes.count("exit_check") > 0

    def test_tiny_pivot_is_refactorized(self, monkeypatch):
        # every pivot element read as zero: each basis change inverts the
        # new basis afresh instead of a product-form step, and is counted
        causes = self._count_refactors(monkeypatch)
        monkeypatch.setattr(lp._Simplex, "_exchange", _tiny_pivots(lambda: True))
        pivots = 0
        for i in range(8):
            inst = self._instance(i)
            root = solve_lp(inst)
            assert root.refactors["tiny_pivot"] == root.pivots
            pivots += root.pivots
            for j in root.s:
                for side in (0.0, 1.0):
                    pair = self._warm_and_cold(inst, root, j, side)
                    if pair is not None:
                        assert pair[0].refactors["tiny_pivot"] == pair[0].pivots
                        pivots += pair[0].pivots
        assert pivots > 0 and causes.count("tiny_pivot") >= pivots

    def test_unproved_verdict_is_refactorized(self, monkeypatch):
        # the parent's inverse shrunk by 1e-14: the branched row breaks its
        # new bound, but no entry of its carried row clears PIV_TOL, so the
        # verdict is taken again on a fresh inverse, which finds the pivots
        causes = self._count_refactors(monkeypatch)
        verdicts = 0
        for i in range(16):
            inst = self._instance(i)
            root = solve_lp(inst)
            shrunk = self._with_binv(root, root.simplex.binv * 1e-14)
            for j in root.s:
                pair = self._warm_and_cold(inst, shrunk, j, 1.0)
                if pair is not None:
                    assert pair[0].refactors["verdict"] == 1
                    verdicts += 1
        assert verdicts >= 10 and causes.count("verdict") >= verdicts

    def test_siblings_start_from_one_unchanged_parent(self):
        # side 0 then side 1 from one parent result, as in the tree: side 1
        # matches side 1 solved from an untouched copy, bit for bit; the
        # row and reduced costs the parent keeps for its children are
        # read-only, and they, the two ratio tests and the basic values
        # stay unchanged and the same objects across siblings
        def state(res):
            core = res.simplex
            return (res.x_star, res.duals, res.value, res.pivots, core.basis,
                    core.sgn, core.x_n, core.binv)

        def carried(core):
            return [np.array(v, copy=True) for v in (
                core.lower, core.upper, core.basis, core.binv, core.sgn,
                core.x_n, core.low_b, core.upp_b, core.rhs_n, core.xb)]

        moved = 0
        for i in range(16):
            inst = self._instance(i)
            parent, alone = solve_lp(inst), solve_lp(inst)
            before = carried(parent.simplex)
            for j in parent.s:
                parent.child_bounds(j)
                (_, row, d, tests), xb = parent._branch_row(j), parent.simplex.xb
                kept = (row.copy(), d.copy(), xb, copy.deepcopy(tests))
                assert not (row.flags.writeable or d.flags.writeable)
                try:
                    moved += solve_box_lp(parent, j, 0.0).pivots > 0
                except InfeasibleError:
                    pass
                try:
                    expected = state(solve_box_lp(alone, j, 1.0))
                except InfeasibleError:
                    with pytest.raises(InfeasibleError):
                        solve_box_lp(parent, j, 1.0)
                else:
                    got = state(solve_box_lp(parent, j, 1.0))
                    for g, e in zip(got, expected):
                        assert np.array_equal(g, e)
                again = parent._branch_row(j)
                assert again[1] is row and again[2] is d and again[3] is tests
                assert parent.simplex.xb is xb and xb == kept[2]
                for now, then in zip((row, d), kept[:2]):
                    assert np.array_equal(now, then)
                for now, then in zip(tests, kept[3]):
                    assert (now is None) == (then is None)
                    if now is not None:
                        for a, b in zip(now, then):
                            assert np.array_equal(a, b)
            for now, then in zip(carried(parent.simplex), before):
                assert np.array_equal(now, then)
        assert moved >= 10

    def test_fixing_outside_the_parent_box_is_refused(self):
        inst = generate(2, 24, BSpec.zeros(), RngHandle(5))
        root = solve_lp(inst)
        j = int(root.s[0])
        child = solve_box_lp(root, j, 0.0)
        for start in ((root, inst.n, 0.0), (root, -1, 1.0), (root, j, 0.5 + 1.0),
                      (child, j, 1.0), (root, j, np.nan)):
            with pytest.raises(ValueError, match="not inside the parent's box"):
                solve_box_lp(*start)
        # a variable already fixed may be fixed again at the same value
        again = solve_box_lp(child, j, 0.0)
        assert again.value == child.value and again.pivots == 0

    def test_child_bounds_of_a_nonbasic_variable_is_refused(self):
        inst = generate(2, 24, BSpec.zeros(), RngHandle(5))
        root = solve_lp(inst)
        basic = root.simplex.basis.tolist()
        j = next(k for k in range(inst.n) if k not in basic)
        with pytest.raises(ValueError, match=rf"^x_{j} is not basic$"):
            root.child_bounds(j)
        # the refusal keeps nothing, and the fixing still re-solves
        assert "_row" not in root.__dict__
        child = solve_box_lp(root, j, root.x_star[j])
        assert child.pivots == 0 and child.value == root.value

    def test_infeasible_child_falls_back_to_a_farkas_proof(self, monkeypatch):
        # row 0 at -0.3 n: with x_21 at 1 no point of the box fits it
        inst = generate(1, 24, BSpec.scaled_ones([-0.3]), RngHandle(4400, 12))
        root = solve_lp(inst)
        lower, upper = self._fixed(np.zeros(24), np.ones(24), 21, 1.0)
        outcomes = []
        dual_run = lp._Simplex.dual_run

        def recorded(core):
            outcomes.append(dual_run(core))
            return outcomes[-1]

        monkeypatch.setattr(lp._Simplex, "dual_run", recorded)
        with pytest.raises(InfeasibleError) as exc_info:
            solve_box_lp(root, 21, 1.0)
        # a violated row with no entering candidate: dual_run returns the
        # Farkas vector that is raised
        u = exc_info.value.farkas_u
        assert len(outcomes) == 1 and outcomes[0] is u
        w = inst.A.T @ u
        assert np.all(u >= 0.0)
        assert np.minimum(w * lower, w * upper).sum() - inst.b @ u > 1e-3

    def test_infeasible_child_margin_is_the_parent_s(self):
        # a child solves its parent's LP, so the margin in the error comes
        # from the parent's A, b and the Farkas vector over the child's box,
        # and an instance with other data gives another margin
        inst = generate(1, 24, BSpec.scaled_ones([-0.3]), RngHandle(4400, 12))
        other = generate(1, 24, BSpec.gaussian(), RngHandle(4401, 12))
        root = solve_lp(inst)
        lower, upper = self._fixed(np.zeros(24), np.ones(24), 21, 1.0)
        with pytest.raises(InfeasibleError) as exc_info:
            solve_box_lp(root, 21, 1.0)
        found = re.fullmatch(r"LP infeasible: aggregated row violates the box by (\S+)",
                             str(exc_info.value))
        assert found is not None
        u = exc_info.value.farkas_u
        exact = exact_farkas_margin(inst.A, inst.b, u, lower, upper)
        assert exact > 0
        assert float(found[1]) == pytest.approx(float(exact), rel=1e-3)
        assert float(found[1]) != pytest.approx(
            float(exact_farkas_margin(other.A, other.b, u, lower, upper)), rel=1e-3)

    def test_first_pivot_takes_the_bound_s_ratio_test(self, monkeypatch):
        # every child whose parent kept the branched row (x_j basic) enters,
        # on its first pivot, the column its parent's child_bounds ratio
        # test for that side picks: among the eligible columns whose ratio
        # is within RC_TOL of the least, the first of largest |alpha_k|.
        # Each instance is solved again with its last column twice its
        # first, (c, A) and all: the twins' ratios are equal bit for bit
        # and the twin's |alpha_k| twice as large, so the tie rule decides
        kept, first_entered = {}, {}
        seen = collections.Counter()
        bounds, branch, exchange = (
            lp.LpSolution.child_bounds, lp._Simplex.branch, lp._Simplex._exchange)

        def bounded(sol, j):
            out = bounds(sol, j)
            kept[id(sol.simplex), j] = (sol, out, sol._branch_row(j))
            return out

        def branched(parent, j, side, first):
            core = branch(parent, j, side, first)
            if first is not None:
                sol, out, row = kept[id(parent), j]
                assert all(a is b for a, b in zip(first, row))
                test = row[3][side]
                # the bound of that side is read from the same test
                if test is None:
                    assert out[side] == -np.inf
                else:
                    delta = sol.x_star[j] if side == 0 else 1.0 - sol.x_star[j]
                    u = sol.value - delta * test[3]
                    assert out[side] == u + 1e-9 * (1.0 + abs(u))
                # the child itself is kept, so no other solve reuses its id
                first_entered[id(core)] = (test, None, core)
            return core

        def exchanged(core, pos, e, w, to_upper):
            pending = first_entered.get(id(core))
            if pending is not None and pending[1] is None:
                first_entered[id(core)] = (pending[0], e, core)
            exchange(core, pos, e, w, to_upper)

        monkeypatch.setattr(lp.LpSolution, "child_bounds", bounded)
        monkeypatch.setattr(lp._Simplex, "branch", branched)
        monkeypatch.setattr(lp._Simplex, "_exchange", exchanged)
        for m in (2, 3):
            for n in (24, 32):
                for seed in range(8):
                    for b_spec in (BSpec.zeros(), BSpec.scaled_ones([-0.05] * m)):
                        inst = generate(m, n, b_spec, RngHandle(5100 + seed, 10 * m + n))
                        twin = inst.with_column(n - 1, 2.0 * inst.c[0], 2.0 * inst.A[:, 0])
                        for case in (inst, twin):
                            try:
                                bnb.solve_ip(case)
                            except InfeasibleError:
                                pass
                        for test, e, _ in first_entered.values():
                            if test is None:
                                seen["no_candidate"] += 1
                                continue
                            eligible, mag, ratios, least = test
                            assert least == min(ratios.tolist())
                            ties = [k for k, t in enumerate(ratios.tolist())
                                    if t <= least + lp.RC_TOL]
                            pick = max(ties, key=lambda k: (mag[k], -k))
                            assert e == eligible[pick]
                            seen["checked"] += 1
                            seen["tied"] += len(ties) > 1
                            seen["larger_alpha_won"] += pick != ties[0]
                        first_entered.clear()
        assert seen["checked"] >= 1000 and seen["no_candidate"] >= 1
        assert seen["tied"] >= 5 and seen["larger_alpha_won"] >= 1

    def test_dual_infeasible_start_raises_with_the_column(self, monkeypatch):
        # every structural at its upper bound with the slacks basic: rows
        # break, and costs c_j < 0 sit at the wrong bound, so the dual
        # simplex ends at a basis whose reduced costs certify no optimum
        m, n = 3, 60
        inst = generate(m, n, BSpec.scaled_ones([-0.1] * m), RngHandle(4600, n))
        start = all_at_upper(inst.A, inst.b, inst.c)
        cores = []
        certify = lp._Simplex.certify

        def recorded(core):
            cores.append(core)
            return certify(core)

        monkeypatch.setattr(lp._Simplex, "certify", recorded)
        with pytest.raises(ArithmeticError) as exc_info:
            solve_box_lp(*start)
        message = str(exc_info.value)
        assert "np.float64(" not in message
        found = re.fullmatch(
            r"dual simplex ended dual infeasible: column (\d+) has reduced cost (\S+)",
            message)
        assert found is not None
        e, d = int(found[1]), float(found[2])
        core = cores[-1]
        assert core.pivots >= 1 and e not in core.basis.tolist()
        # a column at its lower bound would gain from rising, one at its
        # upper bound from falling
        at_lower = core.x_n[e] == core.lower[e]
        assert at_lower != (core.x_n[e] == core.upper[e])
        assert (d > lp.RC_TOL) if at_lower else (d < -lp.RC_TOL)
        gamma = np.concatenate([inst.c, np.zeros(m)])
        assert np.array_equal(core.gamma, gamma)
        y = np.linalg.solve(core.mat[:, core.basis].T, gamma[core.basis])
        assert d == pytest.approx((gamma - core.mat.T @ y)[e], rel=1e-9)


def put_all_at_upper(core):
    """Move every structural of the start `core` to its upper bound, with
    the slacks still basic: a start that is not dual feasible once some
    c_j < 0."""
    core.sgn[:core.n], core.x_n[:core.n] = -1.0, 1.0


def all_at_upper(a, b, c):
    """A child start (parent, j, side) with every structural of max c @ x,
    a @ x <= b at its upper bound and the slacks basic, and the fixing of
    a structural with c_j > 0 at the bound it sits at: the start is not
    dual feasible."""
    m, n = a.shape
    core = lp._Simplex(a, b, c, None)
    put_all_at_upper(core)
    start = lp.LpSolution(x_star=np.ones(n), value=float(c.sum()), duals=np.zeros(m),
                          pivots=0, refactors=core.refactors, simplex=core)
    return start, int(np.argmax(c)), 1.0


def _tiny_pivots(when):
    """`_Simplex._exchange` reading the pivot element as zero whenever
    when() is true, which forces the tiny-pivot refactorization."""
    exchange = lp._Simplex._exchange

    def tiny(core, pos, e, w, to_upper):
        if when():
            w = w.copy()
            w[pos] = 0.0
        exchange(core, pos, e, w, to_upper)

    return tiny


class TestCarriedState:
    """The signed mask, nonbasic point and basic bounds `_Simplex` carries
    across pivots equal the ones recomputed from the basis, the box and
    the bound each nonbasic column sits at, at the start of every cold
    solve and child and after every pivot of a small tree grid.  A
    child's box is its parent's with one variable fixed, and the row,
    reduced costs and basic values its first pass reads from the parent
    are the ones that pass would compute."""

    @staticmethod
    def _check(state):
        m, width = state.mat.shape
        assert state.lower.shape == state.upper.shape == (width,)
        assert np.unique(state.basis).size == state.basis.size == m
        nonbasic = np.ones(width, dtype=bool)
        nonbasic[state.basis] = False
        # a nonbasic column at its upper bound, else at its lower bound;
        # a basic one reads 0
        at_upper = nonbasic & (state.x_n == state.upper)
        free = state.upper - state.lower > lp.PIV_TOL
        sgn = np.where(nonbasic & free, np.where(at_upper, -1.0, 1.0), 0.0)
        x_n = np.where(at_upper, state.upper, np.where(nonbasic, state.lower, 0.0))
        assert np.array_equal(state.sgn, sgn)
        assert np.array_equal(state.x_n, x_n)
        assert state.low_b == state.lower[state.basis].tolist()
        assert state.upp_b == state.upper[state.basis].tolist()

    @classmethod
    def _check_child(cls, core, parent, j, side):
        cls._check(core)
        n = core.mat.shape[1] - core.mat.shape[0]
        assert core.mat is parent.mat and core.gamma is parent.gamma
        for box, bound in ((core.lower, parent.lower), (core.upper, parent.upper)):
            expected = bound.copy()
            expected[j] = side
            assert np.array_equal(box, expected)
            assert np.array_equal(box[n:], bound[n:])
        assert np.array_equal(core.basis, parent.basis)
        assert np.array_equal(core.binv, parent.binv)
        if j not in parent.basis.tolist():
            assert core.first is None
            return
        r, s, d, tests = core.first
        assert core.basis[r] == j
        assert not (s.flags.writeable or d.flags.writeable)
        rhs_n = core.rhs - core.mat @ core.x_n
        assert np.array_equal(core.rhs_n, rhs_n)
        assert list(core.xb) == (core.binv @ rhs_n).tolist()
        assert np.array_equal(s, (core.mat.T @ core.binv[r]) * core.sgn)
        gamma = parent.gamma
        assert np.array_equal(d, gamma - core.mat.T @ (gamma[core.basis] @ core.binv))
        # the ratio tests of the columns that move x_j down, then up
        rise, fall = s < -lp.PIV_TOL, s > lp.PIV_TOL
        for test, moves in zip(tests, (fall, rise)):
            eligible = np.flatnonzero(moves)
            if eligible.size == 0:
                assert test is None
                continue
            ratios = np.abs(d[eligible]) / np.abs(s[eligible])
            assert np.array_equal(test[0], eligible)
            assert np.array_equal(test[1], np.abs(s[eligible]))
            assert np.array_equal(test[2], ratios)
            assert type(test[3]) is float and test[3] == ratios.min()

    def test_after_every_pivot(self, monkeypatch):
        seen = collections.Counter()
        init = lp._Simplex.__init__
        branch = lp._Simplex.branch
        solve = bnb.solve_box_lp

        def started(core, *args):
            init(core, *args)
            self._check(core)
            seen["solves"] += 1

        def branched(parent, j, side, *args):
            core = branch(parent, j, side, *args)
            self._check_child(core, parent, j, side)
            seen["solves"] += 1
            seen["seeded"] += core.first is not None
            return core

        # every seventh basis change takes the tiny-pivot path
        tiny = _tiny_pivots(lambda: seen["pivots"] % 7 == 3)

        def pivoted(core, *args):
            tiny(core, *args)
            self._check(core)
            seen["pivots"] += 1

        def solved(*args, **kwargs):
            res = solve(*args, **kwargs)
            core = res.simplex
            self._check(core)
            assert core.xb == (core.binv @ core.rhs_n).tolist()
            seen["tiny"] += res.refactors["tiny_pivot"]
            return res

        monkeypatch.setattr(lp._Simplex, "__init__", started)
        monkeypatch.setattr(lp._Simplex, "branch", branched)
        monkeypatch.setattr(lp._Simplex, "_exchange", pivoted)
        monkeypatch.setattr(bnb, "solve_box_lp", solved)
        for m in (2, 3):
            for n in (24, 32):
                specs = (BSpec.zeros(), BSpec.gaussian(), BSpec.scaled_ones([-0.1] * m))
                for k, b_spec in enumerate(specs):
                    for seed in range(6):
                        inst = generate(m, n, b_spec, RngHandle(4900 + seed, 10 * m + k))
                        try:
                            res = bnb.solve_ip(inst)
                        except InfeasibleError:
                            continue
                        seen["infeasible"] += res.children_infeasible
        assert seen["solves"] >= 1000 and seen["pivots"] >= 1500
        assert seen["seeded"] >= 900
        assert seen["infeasible"] >= 5 and seen["tiny"] >= 100


class TestExactCertificates:
    """Optimal bases, one-pivot keys and Farkas vectors checked in rational
    arithmetic by `oracles.exact_basis_check` and `exact_farkas_margin`,
    which share no code with the solver: every float datum is the rational
    it is."""

    @staticmethod
    def _exact(inst, sol):
        core = sol.simplex
        n = inst.n
        return exact_basis_check(inst.A, inst.b, inst.c, core.lower[:n], core.upper[:n],
                                 core.basis, core.x_n)

    @pytest.mark.parametrize("m, n", [(8, 4000), (5, 2000), (3, 1000), (2, 400)])
    def test_lp_cli_roots(self, m, n):
        for i, b_spec in enumerate((BSpec.zeros(), BSpec.gaussian(),
                                    BSpec.scaled_ones([0.02] * m))):
            inst = generate(m, n, b_spec, RngHandle(i))
            sol = solve_lp(inst)
            bound_gap, rc_gap, value = self._exact(inst, sol)
            assert bound_gap <= lp.FEAS_TOL and rc_gap <= lp.RC_TOL
            assert abs(value - Fraction(sol.value)) <= 1e-9 * (1 + abs(sol.value))

    def test_the_oracle_sees_a_start_that_is_not_optimal(self):
        inst = generate(3, 400, BSpec.zeros(), RngHandle(1))
        start = lp._Simplex(inst.A, inst.b, inst.c, 1)
        bound_gap, rc_gap, _ = exact_basis_check(
            inst.A, inst.b, inst.c, np.zeros(400), np.ones(400), start.basis, start.x_n)
        # the crash start breaks a row (TestSolveLpHandCases) and is dual feasible
        assert bound_gap > 1.0 and rc_gap == 0

    def test_tree_children_keys_and_farkas_vectors(self, monkeypatch):
        # both children of every node a tree bounds: an optimal basis exact
        # within tolerance and a key at least its exact value, or a Farkas
        # vector with a positive exact margin over the child's box
        bounded = []
        child_bounds = lp.LpSolution.child_bounds

        def recorded(sol, j):
            bounded.append((sol, j, child_bounds(sol, j)))
            return bounded[-1][2]

        monkeypatch.setattr(lp.LpSolution, "child_bounds", recorded)
        feasible = infeasible = 0
        for m, n, k, seed in itertools.product((2, 3), (24, 32), range(3), range(3)):
            b_spec = (BSpec.zeros(), BSpec.gaussian(), BSpec.scaled_ones([-0.1] * m))[k]
            inst = generate(m, n, b_spec, RngHandle(2704 + k, 10 * m + n + seed))
            bounded.clear()
            bnb.solve_ip(inst)
            for parent, j, keys in bounded:
                for side, key in enumerate(keys):
                    try:
                        child = solve_box_lp(parent, j, side)
                    except InfeasibleError as exc:
                        # the parent's box with x_j fixed
                        lower = parent.simplex.lower[:n].copy()
                        upper = parent.simplex.upper[:n].copy()
                        lower[j] = upper[j] = side
                        margin = exact_farkas_margin(inst.A, inst.b, exc.farkas_u, lower, upper)
                        assert margin > 0
                        infeasible += 1
                        continue
                    bound_gap, rc_gap, value = self._exact(inst, child)
                    assert bound_gap <= lp.FEAS_TOL and rc_gap <= lp.RC_TOL
                    assert Fraction(key) >= value
                    feasible += 1
        assert feasible > 900 and infeasible > 20


class TestCheckOptimum:
    def test_shifted_value_breaks_strong_duality(self):
        # the dual side is b u + sum (c - A'u)^+, as dual_value computes it
        inst = generate(3, 40, BSpec.zeros(), RngHandle(19))
        sol = solve_lp(inst)
        lp._check_optimum(inst, sol)
        shifted = dataclasses.replace(sol, value=sol.value + 1e-3)
        with pytest.raises(ArithmeticError) as exc_info:
            lp._check_optimum(inst, shifted)
        found = re.fullmatch(r"strong duality violated: primal (\S+) vs dual (\S+)",
                             str(exc_info.value))
        assert found is not None
        assert float(found[1]) == shifted.value
        assert float(found[2]) == dual_value(sol.u_star, inst)


class TestOneResultType:
    def test_root_solve_is_the_box_solve(self):
        # solve_lp is the one loop `_run` from the crash start plus its
        # checks, and a child runs that loop too: one type, and every field
        # and derived quantity bit for bit, also for a child that fixes a
        # nonbasic variable where it sits, which takes no pivot
        fields = ("x_star", "value", "u_star", "reduced_costs", "n0", "n1",
                  "s", "pivots")
        solved = 0
        for i in range(50):
            m = 1 + i % 4
            n = (20, 60, 150, 400)[(i // 4) % 4]
            b_spec = BSpec.zeros() if i % 2 else BSpec.gaussian()
            inst = generate(m, n, b_spec, RngHandle(4700, i))
            start = lp._Simplex(inst.A, inst.b, inst.c, None)
            try:
                sol = solve_lp(inst)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    lp._run(start)
                continue
            run = lp._run(start)
            j = next(k for k in range(n) if k not in sol.simplex.basis.tolist())
            child = solve_box_lp(sol, j, sol.x_star[j])
            assert child.pivots == 0
            for other, names in ((run, fields), (child, fields[:-1])):
                assert type(sol) is type(other) is lp.LpSolution
                for name in names:
                    assert np.array_equal(getattr(sol, name), getattr(other, name)), name
            solved += 1
        assert solved >= 40

class TestLazyFields:
    """`u_star`, `reduced_costs`, `s`, `n0` and `n1` are computed on first
    read and kept; a solution is frozen."""

    LAZY = ("u_star", "reduced_costs", "s", "n0", "n1")

    @staticmethod
    def _counted(monkeypatch):
        calls = collections.Counter()
        for name in ("_fractional", "_at_bounds"):
            classify = getattr(lp, name)
            monkeypatch.setattr(
                lp, name, lambda x, name=name, f=classify: calls.update([name]) or f(x))
        return calls

    def test_each_is_computed_once_and_kept(self, monkeypatch):
        # a child, as solve_lp's checks read them on a root
        inst = generate(3, 40, BSpec.gaussian(), RngHandle(2701))
        root = solve_lp(inst)
        j = int(root.s[0])
        calls = self._counted(monkeypatch)
        sol = solve_box_lp(root, j, 0.0)
        assert not calls
        first = {name: getattr(sol, name) for name in self.LAZY}
        assert calls == {"_fractional": 1, "_at_bounds": 1}
        for name in self.LAZY:
            assert getattr(sol, name) is first[name], name
        assert calls == {"_fractional": 1, "_at_bounds": 1}
        assert np.array_equal(first["u_star"], np.maximum(sol.duals, 0.0))
        assert sum(first[name].size for name in ("n0", "n1", "s")) == 40

    def test_a_child_never_read_computes_none(self, monkeypatch):
        inst = generate(2, 24, BSpec.zeros(), RngHandle(5))
        root = solve_lp(inst)
        j = int(root.s[0])
        before = set(vars(root))
        calls = self._counted(monkeypatch)
        children = [solve_box_lp(root, j, side) for side in (0, 1)]
        assert not calls
        for child in children:
            assert set(vars(child)) == {f.name for f in dataclasses.fields(child)}
        # the children read the parent's kept row, not its lazy fields
        assert set(vars(root)) - before <= {"_row"}

    def test_fields_cannot_be_assigned(self):
        inst = generate(2, 24, BSpec.gaussian(), RngHandle(2702))
        sol = solve_lp(inst)
        names = [f.name for f in dataclasses.fields(sol)] + list(self.LAZY)
        for name in names:
            kept = getattr(sol, name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(sol, name, kept)
            assert getattr(sol, name) is kept


class TestEnteringRule:
    """`lp._entering`, the one rule for the columns that can enter a dual
    pivot, shared by the dual simplex and `LpSolution.child_bounds`."""

    def test_hand_row(self):
        lo, up, basic = "lower", "upper", "basic"
        tol = lp.PIV_TOL
        # (place, alpha_k, free) per column
        cols = [
            (basic, -1.0, True),   # basic: excluded
            (lo, -1.0, True),      # from lower, alpha < 0: rises
            (lo, 1.0, True),       # from lower, alpha > 0: falls
            (up, 1.0, True),       # from upper, alpha > 0: rises
            (up, -1.0, True),      # from upper, alpha < 0: falls
            (lo, -1.0, False),     # fixed by its box: excluded
            (up, 1.0, False),      # fixed by its box: excluded
            (lo, -tol, True),      # |alpha_k| == PIV_TOL: excluded
            (up, tol, True),       # |alpha_k| == PIV_TOL: excluded
            (lo, 0.0, True),       # zero entry: excluded
            (lo, -2.0 * tol, True),  # just above PIV_TOL: rises
            (basic, 1.0, True),    # basic: excluded
        ]
        place = np.array([k[0] for k in cols])
        alpha = np.array([k[1] for k in cols])
        free = np.array([k[2] for k in cols])
        sgn = np.where(free & (place != basic), np.where(place == up, -1.0, 1.0), 0.0)
        rise, fall = lp._entering(alpha * sgn)
        assert np.flatnonzero(rise).tolist() == [1, 3, 10]
        assert np.flatnonzero(fall).tolist() == [2, 4]

    def test_pivots_and_child_bounds_use_it(self, monkeypatch):
        calls = []
        entering = lp._entering
        monkeypatch.setattr(
            lp, "_entering", lambda *args: calls.append(1) or entering(*args))
        sol = solve_lp(generate(2, 24, BSpec.zeros(), RngHandle(5)))
        assert len(calls) >= sol.pivots > 0
        solves = len(calls)
        sol.child_bounds(int(sol.s[0]))
        assert len(calls) == solves + 1


class TestDotLayouts:
    """The simplex takes its small products with ndarray.dot, which costs
    about half of `@` on operands this size.  For each operand layout it
    passes to .dot, the two give the same bits.  The strided structural
    block mat[:, :n] transposed is left out: `.dot` gave other bits
    there, so `LpSolution.reduced_costs` keeps `@` on it."""

    @staticmethod
    def _draws():
        gen = np.random.default_rng(2401)
        for m in range(1, 9):
            for n in (24, 40, 100, 400, 1000, 4000):
                for _ in range(4):
                    mat = np.zeros((m, n + m))
                    mat[:, :n] = gen.standard_normal((m, n))
                    mat[:, n:] = np.eye(m)
                    basis = gen.choice(n + m, m, replace=False)
                    yield m, n, mat, basis, gen

    def test_dot_is_matmul_on_the_simplex_layouts(self):
        draws = 0
        for m, n, mat, basis, gen in self._draws():
            bmat = mat[:, basis]
            binv = np.linalg.inv(bmat)
            x, v = gen.standard_normal(n + m), gen.standard_normal(m)
            e, r = int(gen.integers(n + m)), int(gen.integers(m))
            for a, b in (
                (mat, x),              # b - N x_N: C-contiguous [A | I]
                (mat.T, binv[r]),      # a pivot row: the transpose, a row of binv
                (mat.T, v),            # reduced costs and certify's duals
                (v, binv),             # gamma_B binv
                (binv, v),             # basic values
                (binv, mat[:, e]),     # the pivot column: strided
                (binv, bmat),          # the inverse test: fancy-indexed basis
                (x[:n], mat[0, :n]),   # the value c @ x
            ):
                assert np.array_equal(a.dot(b), a @ b)
            draws += 1
        assert draws == 8 * 6 * 4

    def test_reduced_costs_keep_matmul_on_the_strided_block(self):
        # the strided mat[:, :n].T is the one layout left on `@`, as .dot
        # gave other bits there: the kept reduced costs are that product
        for i in range(12):
            m = 1 + i % 8
            inst = generate(m, 40, BSpec.gaussian(), RngHandle(2402, i))
            sol = solve_lp(inst)
            core = sol.simplex
            want = core.gamma[:40] - core.mat[:, :40].T @ sol.u_star
            assert sol.reduced_costs.tobytes() == want.tobytes()


class TestDirectSolve:
    """`lp._solve`, the LAPACK gesv gufunc that np.linalg.solve wraps,
    called directly by certify and the Farkas verdict."""

    def test_bit_equal_to_numpy_for_b_and_its_transpose(self):
        gen = np.random.default_rng(2201)
        ill = 0
        for m in range(1, 9):
            for k in range(20):
                bmat = gen.standard_normal((m, m))
                if m > 1 and k % 4 == 0:
                    # singular values from 1 down to 1e-12: condition near 1e12
                    u, _, vt = np.linalg.svd(bmat)
                    bmat = (u * np.logspace(0, -12, m)) @ vt
                    ill += np.linalg.cond(bmat) > 1e11
                rhs, rhs_t = gen.standard_normal(m), gen.standard_normal(m)
                got = lp._solve((bmat, rhs), (bmat.T, rhs_t))
                want = np.linalg.solve(bmat, rhs), np.linalg.solve(bmat.T, rhs_t)
                for g, w in zip(got, want):
                    assert g.tobytes() == w.tobytes()
        assert ill >= 30

    def test_bit_equal_on_the_bases_of_real_solves(self):
        solved = 0
        for i in range(12):
            m = 1 + i % 4
            inst = generate(m, 40, BSpec.gaussian(), RngHandle(2202, i))
            sol = solve_lp(inst)
            core = sol.simplex
            bmat = core.mat[:, core.basis]
            got = lp._solve((bmat, core.rhs_n), (bmat.T, core.gamma[core.basis]))
            want = (np.linalg.solve(bmat, core.rhs_n),
                    np.linalg.solve(bmat.T, core.gamma[core.basis]))
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()
            assert np.array_equal(sol.duals, got[1])
            solved += 1
        assert solved == 12

    @pytest.mark.parametrize("bmat", [
        np.zeros((1, 1)),
        np.ones((2, 2)),
        np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 5.0]]),
    ])
    def test_singular_basis_raises_without_a_warning(self, bmat):
        m = len(bmat)
        errors = np.geterr()
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(bmat, np.ones(m))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError) as exc_info:
                lp._solve((np.eye(m), np.ones(m)), (bmat, np.ones(m)))
        assert type(exc_info.value) is ArithmeticError
        assert str(exc_info.value) == "simplex basis became singular"
        assert np.geterr() == errors


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
