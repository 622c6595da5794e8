import ast
import collections
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from giplab import bnb, lp
from giplab.bnb import ipgap, solve_ip
from giplab.instance import BSpec, generate
from giplab.lp import InfeasibleError, solve_lp
from giplab.rng import RngHandle

from oracles import bnb_tree_oracle, brute_force_ip, carried_box, linprog_oracle, milp_oracle
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

    @pytest.mark.parametrize("limit", [float("nan"), 0, 0.5, -1])
    def test_node_limit_below_one_is_refused(self, limit):
        # NaN fails the check too, where it would otherwise run unlimited
        inst = generate(2, 24, BSpec.zeros(), RngHandle(5))
        with pytest.raises(ValueError, match="node_limit must be >= 1"):
            solve_ip(inst, node_limit=limit)

    def test_infeasible_ip(self):
        # x >= 0.5 and x <= 0.75 admits no binary point
        inst = make_instance([[-1.0], [1.0]], [-0.5, 0.75], [1.0])
        res = solve_ip(inst)
        assert res.status == "Infeasible"
        assert res.x_opt is None


class TestResultAtEachExit:
    """The full result for each way the search can end."""

    @pytest.mark.parametrize("a, b, c, node_limit, expected", [
        # root LP infeasible: x >= 0.9 and x <= 0.5
        ([[-1.0], [1.0]], [-0.9, 0.5], [1.0], 10,
         ("Infeasible", None, None, 1, 0, None)),
        # LP feasible, but both children of the root are infeasible
        ([[-1.0], [1.0]], [-0.5, 0.75], [1.0], 10,
         ("Infeasible", None, None, 3, 1, None)),
        # node limit at the fractional root: best_bound is its LP value
        ([[1.0]], [0.5], [1.0], 1,
         ("NodeLimit", None, None, 1, 1, 0.5)),
        # the last open node is dominated by the incumbent
        ([[1.0, 1.0]], [1.5], [1.0, 1.0], 10,
         ("Optimal", 1.0, [0.0, 1.0], 5, 3, 1.0)),
        # the open list empties
        ([[1.0]], [0.5], [1.0], 10,
         ("Optimal", 0.0, [0.0], 3, 2, 0.0)),
    ])
    def test_result(self, a, b, c, node_limit, expected):
        res = solve_ip(make_instance(a, b, c), node_limit=node_limit)
        x = None if res.x_opt is None else res.x_opt.tolist()
        got = (res.status, res.opt_value, x, res.nodes_created,
               res.nodes_expanded, res.best_bound)
        assert got == expected

    def test_child_counters(self):
        # both children of the root are solved and proved infeasible
        res = solve_ip(make_instance([[-1.0], [1.0]], [-0.5, 0.75], [1.0]))
        assert (res.children_solved, res.children_infeasible) == (2, 2)
        # of the four children, two are expanded, one is solved and then
        # dominated by the incumbent, and one is never solved
        res = solve_ip(make_instance([[1.0, 1.0]], [1.5], [1.0, 1.0]))
        assert (res.nodes_created, res.nodes_expanded) == (5, 3)
        assert (res.children_solved, res.children_infeasible) == (3, 0)

    @pytest.mark.parametrize("a, b, c, node_limit, peak", [
        # root LP infeasible: the open list never holds an entry
        ([[-1.0], [1.0]], [-0.9, 0.5], [1.0], 10, 0),
        # integral root: the root alone
        ([[1.0, 1.0]], [3.0], [1.0, 1.0], 10, 1),
        # the root's two children, both infeasible
        ([[-1.0], [1.0]], [-0.5, 0.75], [1.0], 10, 2),
        # the root's down child stays open while its up child is solved
        # and expanded into two more
        ([[1.0, 1.0]], [1.5], [1.0, 1.0], 10, 3),
        # the node limit stops the second expansion before it pushes
        ([[1.0, 1.0]], [1.5], [1.0, 1.0], 3, 2),
    ])
    def test_peak_open(self, a, b, c, node_limit, peak):
        res = solve_ip(make_instance(a, b, c), node_limit=node_limit)
        assert res.peak_open == peak

    def test_node_limit_one_bounds_by_the_root_lp(self):
        inst = generate(2, 16, BSpec.zeros(), RngHandle(31))
        res = solve_ip(inst, node_limit=1)
        assert (res.status, res.nodes_created, res.nodes_expanded) == (
            "NodeLimit", 1, 1)
        assert res.best_bound == solve_lp(inst).value


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


class TestBranchVariable:
    """The variable the root's children fix: the most fractional one."""

    @staticmethod
    def _first_branch(monkeypatch, caps):
        # one row x_j <= caps[j] per variable, so the root LP point is caps
        n = len(caps)
        fixed = []
        solve_box_lp = bnb.solve_box_lp

        def recorded(parent, j, side):
            fixed.append(j)
            return solve_box_lp(parent, j, side)

        monkeypatch.setattr(bnb, "solve_box_lp", recorded)
        solve_ip(make_instance(np.eye(n), caps, np.ones(n)))
        return int(fixed[0])

    def test_most_fractional(self, monkeypatch):
        assert self._first_branch(monkeypatch, [0.2, 0.5, 0.9]) == 1

    def test_tie_breaks_low_index(self, monkeypatch):
        assert self._first_branch(monkeypatch, [1.0, 0.75, 0.25]) == 1

    def test_each_expanded_node_classified_once(self, classify_calls):
        # the integrality test and the branching rule share one fractional
        # support, computed when a node is read and never for a child that
        # is not expanded, and no node classifies its entries at 0;
        # TestFrozenTrees checks the branching
        res = solve_ip(generate(2, 24, BSpec.zeros(), RngHandle(5)))
        assert res.status == "Optimal" and res.nodes_expanded > 5
        assert res.nodes_created > res.nodes_expanded
        assert classify_calls == {"_fractional": res.nodes_expanded}


class TestHighsDifferential:
    """solve_ip against HiGHS milp past brute-force sizes (n 26-60, and
    400)."""

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

    def test_optimum_at_the_paper_size(self):
        # n = 400, where the paper's claims are measured: m 2 and 3, b zeros
        # or the edge scaled_ones -0.1 / sqrt(m) per row (|b|_2 = n / 10)
        for i in range(12):
            m = 2 + i % 2
            if (i // 2) % 2:
                b_spec = BSpec.scaled_ones([-0.1 / math.sqrt(m)] * m)
            else:
                b_spec = BSpec.zeros()
            inst = generate(m, 400, b_spec, RngHandle(4210, i))
            truth = milp_oracle(inst.A, inst.b, inst.c)
            res = solve_ip(inst)
            assert truth is not None and res.status == "Optimal", i
            assert abs(res.opt_value - truth) <= 1e-9 * (1.0 + abs(truth)), i


class TestTreeOracle:
    """Tree size, optimum and NodeLimit bracket against a best-bound search
    whose node LPs HiGHS solves when each node is created."""

    @pytest.mark.parametrize("m, n, bspec", [
        (m, n, bspec) for m in (2, 3) for n in (24, 32, 40)
        for bspec in ("zeros", "gaussian")
    ] + [(2, 40, "scaled_ones 0.05 0.05")])
    def test_tree_matches_oracle(self, m, n, bspec):
        for seed in range(2):
            inst = generate(m, n, BSpec.parse(bspec), RngHandle(5300 + seed, 100 * m + n))
            full = solve_ip(inst)
            cut = max(1, full.nodes_created // 3)
            for limit, res in ((1_000_000, full), (cut, solve_ip(inst, node_limit=cut))):
                status, inc, created, expanded, best = bnb_tree_oracle(
                    inst.A, inst.b, inst.c, node_limit=limit)
                key = (seed, limit)
                assert (res.status, res.nodes_created, res.nodes_expanded) == (
                    status, created, expanded), key
                for got, want in ((res.opt_value, inc), (res.best_bound, best)):
                    if want is None:
                        assert got is None, key
                    else:
                        assert got == pytest.approx(want, rel=1e-7, abs=1e-7), key


class TestOnePivotBound:
    """The key a child is pushed with bounds its LP value from above."""

    def test_bound_holds_on_tree_nodes(self, monkeypatch):
        seen = []
        bounds = lp.LpSolution.child_bounds

        def recorded(node, j):
            keys = bounds(node, j)
            n = node.x_star.size
            lower, upper = carried_box(node.simplex)
            seen.append((inst, j, lower[:n], upper[:n], keys))
            return keys

        monkeypatch.setattr(lp.LpSolution, "child_bounds", recorded)
        # the last instance's up child has no entering column: x >= 0.5,
        # x <= 0.75, and raising x only shrinks the slack that is nonbasic
        for inst in [
            generate(m, 32, bspec, RngHandle(5400 + seed, 100 * m))
            for m in (2, 3)
            for bspec in (BSpec.zeros(), BSpec.gaussian(), BSpec.scaled_ones([0.05] * m))
            for seed in range(2)
        ] + [make_instance([[-1.0], [1.0]], [-0.5, 0.75], [1.0])]:
            solve_ip(inst)
        assert len(seen) > 50
        unbounded = 0
        for inst, j, lower, upper, keys in seen:
            for side, key in enumerate(keys):
                lo, up = lower.copy(), upper.copy()
                (up if side == 0 else lo)[j] = float(side)
                value = linprog_oracle(inst.A, inst.b, inst.c, lo, up)
                if key == -np.inf:
                    unbounded += 1
                    assert value is None
                elif value is not None:
                    assert key >= value
        assert unbounded > 0

    @pytest.mark.parametrize("lowered", [
        lambda keys: (keys[0] - 1.0, keys[1] - 1.0),
        lambda keys: (-np.inf, -np.inf),
    ])
    def test_key_below_the_child_value_raises(self, monkeypatch, lowered):
        bounds = lp.LpSolution.child_bounds
        monkeypatch.setattr(lp.LpSolution, "child_bounds",
                            lambda *args: lowered(bounds(*args)))
        with pytest.raises(ArithmeticError, match="above its pushed key") as exc_info:
            solve_ip(generate(2, 24, BSpec.zeros(), RngHandle(5)))
        # the key prints as a plain float, as the other lp/bnb messages do
        assert "np.float64(" not in str(exc_info.value)

    def test_integral_point_outside_a_row_raises(self):
        # a root LP point that is integral but breaks A x <= b
        inst = generate(2, 24, BSpec.zeros(), RngHandle(5))
        ones = np.ones(inst.n)
        assert (inst.A @ ones > inst.b + 1e-7).any()
        root = dataclasses.replace(solve_lp(inst), x_star=ones)
        with pytest.raises(ArithmeticError, match="^integral node LP point is infeasible$"):
            solve_ip(inst, root=root)


class TestModuleBoundary:
    def test_bnb_imports_no_private_lp_name(self):
        tree = ast.parse(Path(bnb.__file__).read_text())
        private = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module == "giplab.lp" or (node.level == 1 and node.module == "lp"))
            for alias in node.names
            if alias.name.startswith("_")
        ]
        assert private == []

    def test_one_cold_start(self):
        # `_Simplex(` builds a crash start, and only solve_lp builds one;
        # every other solve starts from a parent (`_Simplex.branch`)
        src = Path(lp.__file__).parent
        callers = []
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text())
            for func in ast.walk(tree):
                if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(func):
                    if isinstance(node, ast.Call) and (
                            getattr(node.func, "id", None) == "_Simplex"
                            or getattr(node.func, "attr", None) == "_Simplex"):
                        callers.append((path.name, func.name))
        assert callers == [("lp.py", "solve_lp")]

    def test_lp_calls_go_through_the_module_globals(self):
        # perfbench's tracer replaces giplab.bnb.solve_lp and
        # giplab.bnb.solve_box_lp, so bnb imports both at module level
        # from lp, calls them by those names and never binds them locally
        tree = ast.parse(Path(bnb.__file__).read_text())
        names = {"solve_lp", "solve_box_lp"}
        imported = {alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                    and node.module == "lp" and node.level == 1 for alias in node.names}
        assert names <= imported
        called = collections.Counter(
            node.func.id for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in names)
        assert set(called) == names
        bound = [node for node in ast.walk(tree)
                 if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                     or isinstance(node, ast.arg)) and
                 getattr(node, "id", getattr(node, "arg", None)) in names]
        assert bound == []
        assert not [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    and node.attr in names]


class TestFrozenTrees:
    """Tree shape and optimum, recorded before child LPs were warm-started;
    a change to how nodes are solved must leave them exactly as they are."""

    # (m, n, seed, bspec, nodes_created, nodes_expanded, opt_value); the
    # instance is generate(m, n, bspec, RngHandle(5100 + seed, 100 * m + n))
    TABLE = [
        (2, 24, 0, 'zeros', 33, 17, 11.280946132148296),
        (2, 24, 1, 'zeros', 7, 4, 8.258468375633335),
        (2, 24, 0, 'gaussian', 49, 25, 11.706383416105359),
        (2, 24, 1, 'gaussian', 1, 1, 8.405038770970405),
        (2, 40, 0, 'zeros', 177, 89, 12.056023273431096),
        (2, 40, 1, 'zeros', 93, 47, 8.902196628291643),
        (2, 40, 0, 'gaussian', 53, 27, 11.805365284540839),
        (2, 40, 1, 'gaussian', 121, 61, 8.929210363976951),
        (2, 60, 0, 'zeros', 27, 14, 21.99218962556663),
        (2, 60, 1, 'zeros', 51, 26, 26.278335201668444),
        (2, 60, 0, 'gaussian', 1, 1, 22.01383666200618),
        (2, 60, 1, 'gaussian', 59, 30, 26.170377641953685),
        (3, 24, 0, 'zeros', 43, 22, 5.4427497957791875),
        (3, 24, 1, 'zeros', 11, 6, 6.33771039053828),
        (3, 24, 0, 'gaussian', 25, 13, 5.423544942773253),
        (3, 24, 1, 'gaussian', 15, 8, 6.689753322797402),
        (3, 40, 0, 'zeros', 7, 4, 13.848345525269902),
        (3, 40, 1, 'zeros', 73, 37, 14.91321875498495),
        (3, 40, 0, 'gaussian', 5, 3, 13.877892571206049),
        (3, 40, 1, 'gaussian', 9, 5, 15.826337772287172),
        (3, 60, 0, 'zeros', 27, 14, 19.61200315423658),
        (3, 60, 1, 'zeros', 255, 128, 17.226817005082477),
        (3, 60, 0, 'gaussian', 51, 26, 19.881884770871743),
        (3, 60, 1, 'gaussian', 369, 185, 16.87040900145519),
    ]

    @pytest.mark.parametrize("m, n, seed, bspec, created, expanded, opt", TABLE)
    def test_tree_matches_record(self, m, n, seed, bspec, created, expanded, opt):
        inst = generate(m, n, BSpec.parse(bspec), RngHandle(5100 + seed, 100 * m + n))
        res = solve_ip(inst)
        assert (res.nodes_created, res.nodes_expanded, res.opt_value) == (
            created, expanded, opt)
        # every expanded child was solved; no child is solved twice
        assert expanded - 1 <= res.children_solved <= created - 1
        assert 0 <= res.children_infeasible <= res.children_solved - (expanded - 1)
        # the caller's root solve gives the same tree
        res = solve_ip(inst, root=solve_lp(inst))
        assert (res.nodes_created, res.nodes_expanded, res.opt_value) == (
            created, expanded, opt)


class TestIpGap:
    def test_integral_lp_gap_zero(self):
        assert ipgap(make_instance([[1.0, 1.0]], [3.0], [1.0, 1.0])) == 0.0

    def test_hand_gap(self):
        assert ipgap(make_instance([[1.0]], [0.5], [1.0])) == pytest.approx(0.5)

    def test_node_limit_raises(self):
        # the root is fractional, so one node leaves the gap open
        with pytest.raises(RuntimeError, match="^node limit reached"):
            ipgap(make_instance([[1.0]], [0.5], [1.0]), node_limit=1)

    def test_lp_feasible_ip_infeasible_raises(self):
        # 0.4 <= x <= 0.5 holds for the LP and for no binary x
        inst = make_instance([[1.0], [-1.0]], [0.5, -0.4], [1.0])
        assert solve_lp(inst).value == pytest.approx(0.5)
        with pytest.raises(InfeasibleError, match="^IP infeasible"):
            ipgap(inst)

    def test_root_lp_solved_once(self, solve_lp_calls):
        inst = generate(2, 24, BSpec.zeros(), RngHandle(905))
        assert ipgap(inst) > 0.0
        assert solve_lp_calls == [inst]
        solve_ip(inst)  # without a root, solve_ip solves its own
        assert len(solve_lp_calls) == 2

    def test_integrality_gap_clips_roundoff_only(self):
        assert bnb.integrality_gap(2.5, 2.0) == 0.5
        assert bnb.integrality_gap(2.0, 2.0 + 1e-9) == 0.0
        with pytest.raises(ArithmeticError, match="negative integrality gap"):
            bnb.integrality_gap(2.0, 2.0 + 1e-6)

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
