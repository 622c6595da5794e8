import argparse
import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from giplab import bnb, cli, experiments, lp, rounding
from giplab.experiments import (
    CSV_HEADER,
    ExperimentRecord,
    SweepConfig,
    gap_sweep,
    records_to_csv,
    run_trial,
    stats_check,
    tree_sweep,
)
from giplab import knapsack
from giplab.instance import BSpec, generate
from giplab.bnb import ipgap
from giplab.lp import solve_lp
from giplab.rng import RngHandle

from oracles import count_small_weight_subsets
from test_lp import put_all_at_upper

SRC = str(Path(__file__).resolve().parent.parent / "src")


def small_config(**over):
    base = dict(
        m_list=(2,),
        n_list=(12, 16),
        seeds_per_cell=4,
        seed=11,
        b_spec="zeros",
        rounding="never",
        parallelism=1,
    )
    base.update(over)
    return SweepConfig(**base)


class TestSweepConfig:
    def test_json_roundtrip(self):
        cfg = small_config()
        again = SweepConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig.from_json('{"m_list": [1], "n_list": [5], "bogus": 3}')
        for key, value in (("max_restarts", "50"), ("record_timings", "false")):
            with pytest.raises(ValueError, match=key):
                SweepConfig.from_json(
                    f'{{"m_list": [1], "n_list": [5], "{key}": {value}}}'
                )

    def test_readme_config_loads(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
        assert len(blocks) == 1
        cfg = SweepConfig.from_json(blocks[0])
        assert cfg.m_list == (2,) and cfg.out == "sweep.csv"

    def test_readme_command_lines_parse(self):
        # every flag README shows must still exist, and every subcommand
        # must be shown
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("## Command line", 1)[1]
        block = re.search(r"```\n(.*?)```", section, flags=re.S)[1]
        lines = [line.split("#", 1)[0] for line in block.splitlines()]
        commands = [shlex.split(line) for line in lines if line.strip()]
        parser = cli.build_parser()
        for argv in commands:
            assert argv[0] == "giplab"
            parser.parse_args(argv[1:])
        subparsers = next(action for action in parser._actions
                          if isinstance(action, argparse._SubParsersAction))
        assert sorted(argv[1] for argv in commands) == sorted(subparsers.choices)

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(m_list=())
        with pytest.raises(ValueError):
            small_config(rounding="sometimes")
        with pytest.raises(ValueError, match="exact_pool_k_cap"):
            small_config(m_list=(2,), k=9)
        with pytest.raises(ValueError):
            small_config(k=0)
        for key, value in (("node_limit", 0), ("seeds_per_cell", 0),
                           ("parallelism", 0), ("parallelism", -2)):
            with pytest.raises(ValueError, match=rf"^{key} must be >= 1$"):
                small_config(**{key: value})
        for key, value in (("n_list", 0), ("n_list", -5), ("m_list", 0)):
            with pytest.raises(ValueError, match=rf"{key} .*>= 1, got {value}$"):
                small_config(**{key: (value,)})
        for bad in (dict(m_list=(2.7,)), dict(n_list=(12.9,)),
                    dict(seeds_per_cell=1.5), dict(seeds_per_cell=True),
                    dict(seed=-1), dict(seed=2**64), dict(b_spec="bogus"),
                    dict(m_list=(2, 3), b_spec="scaled_ones 0.1 0.2")):
            with pytest.raises(ValueError):
                small_config(**bad)

    @pytest.mark.parametrize("cores, workers", [(None, 1), (2, 2), (16, 8)])
    def test_unset_parallelism_takes_the_cores_up_to_eight(
            self, monkeypatch, cores, workers):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert experiments._parallelism(small_config(parallelism=None)) == workers
        assert experiments._parallelism(small_config(parallelism=3)) == 3

    def test_b_spec_count_rule_is_the_instance_rule(self):
        # a config and a generated instance refuse a recipe of the wrong
        # length with one rule and one message
        message = "^b_spec 'explicit' has 3 values, expected 2$"
        with pytest.raises(ValueError, match=message):
            small_config(b_spec="explicit 1 2 3", m_list=(2,))
        with pytest.raises(ValueError, match=message):
            generate(2, 12, BSpec.explicit([1, 2, 3]), RngHandle(0))

    def test_trial_enumeration_sorted(self):
        cfg = small_config(m_list=(3, 2), n_list=(16, 12), seeds_per_cell=2)
        trials = cfg.trials()
        assert [t[0] for t in trials] == list(range(8))
        assert trials[0][1:] == (2, 12, 0)
        assert trials[-1][1:] == (3, 16, 1)


class TestRunTrial:
    def test_row_is_recomputable(self):
        cfg = small_config()
        a = run_trial(cfg, 3, 2, 16)
        b = run_trial(cfg, 3, 2, 16)
        assert a.to_csv_row() == b.to_csv_row()

    def test_matches_direct_solves(self):
        cfg = small_config()
        rec = run_trial(cfg, 5, 2, 12)
        inst = generate(2, 12, BSpec.zeros(), RngHandle(11, 5))
        sol = solve_lp(inst)
        assert rec.lp_value == pytest.approx(sol.value, abs=1e-12)
        assert rec.ipgap == pytest.approx(ipgap(inst), abs=1e-12)
        assert rec.ipgap >= -1e-7
        assert rec.n0 + rec.s <= 12

    def test_exact_ip_trial_solves_its_root_lp_once(self, solve_lp_calls):
        cfg = small_config()
        for stream in range(4):
            rec = run_trial(cfg, stream, 2, 16)
            assert rec.status == "ok" and rec.tree_size >= 1
            assert len(solve_lp_calls) == stream + 1

    def test_certified_bound_mode_beyond_ip_budget(self):
        cfg = small_config(
            n_list=(400,), seeds_per_cell=1, rounding="auto", exact_ip_max_n=30
        )
        rec = run_trial(cfg, 0, 2, 400)
        assert rec.status in ("cert_bound", "pool_too_small")
        assert rec.ip_value is None
        if rec.round_ok:
            assert rec.cert_gap is not None and rec.cert_gap >= -1e-7

    @pytest.mark.parametrize("excess, status", [(1e-9, "ok"), (1e-6, "error:ArithmeticError")])
    def test_negative_gap_rule(self, monkeypatch, excess, status):
        # an IP value above the LP value by roundoff clips to a zero gap; by
        # more than 1e-7 it is an error, as in bnb.ipgap
        solve_ip = bnb.solve_ip

        def inflated(instance, **kwargs):
            res = solve_ip(instance, **kwargs)
            root = kwargs["root"]
            return dataclasses.replace(res, opt_value=root.value + excess)

        monkeypatch.setattr(bnb, "solve_ip", inflated)
        rec = run_trial(small_config(), 1, 2, 12)
        assert rec.status == status
        if status == "ok":
            assert rec.ipgap == 0.0
        else:
            # a failed trial keeps no field but its identity and status
            cells = ["1", "2", "12", "zeros"] + [""] * 10 + ["0"] * 3 + [status]
            assert rec.to_csv_row() == ",".join(cells)
            with pytest.raises(ArithmeticError, match="negative integrality gap"):
                ipgap(generate(2, 12, BSpec.zeros(), RngHandle(11, 1)))


LP_CELLS = {"lp_value", "u_norm", "n0", "s"}
TREE_CELLS = {"tree_size", "nodes_expanded"}
IP_CELLS = {"ip_value", "ipgap"}
ROUND_CELLS = {"round_ok", "cert_gap"}


class TestTrialStatusRows:
    """Each failure status `run_trial` writes on a one-cell config, and the
    CSV cells that row leaves empty."""

    @staticmethod
    def _empty_cells(rec):
        cells = dict(zip(CSV_HEADER.split(","), rec.to_csv_row().split(",")))
        return {key for key, value in cells.items() if value == ""}

    def test_lp_infeasible(self):
        # b = -n: the row sum of A's negative entries stays well above it
        cfg = small_config(m_list=(1,), n_list=(12,), seeds_per_cell=1,
                           b_spec="scaled_ones -1")
        rec = run_trial(cfg, 0, 1, 12)
        assert rec.status == "lp_infeasible"
        assert self._empty_cells(rec) == LP_CELLS | TREE_CELLS | IP_CELLS | ROUND_CELLS

    def test_lp_iteration_limit(self, monkeypatch):
        solve_lp = lp.solve_lp
        monkeypatch.setattr(lp, "solve_lp",
                            lambda instance: solve_lp(instance, max_pivots=1))
        rec = run_trial(small_config(n_list=(12,), seeds_per_cell=1), 0, 2, 12)
        assert rec.status == "lp_iteration_limit"
        assert self._empty_cells(rec) == LP_CELLS | TREE_CELLS | IP_CELLS | ROUND_CELLS

    def test_node_limit(self):
        cfg = small_config(n_list=(12,), seeds_per_cell=1, node_limit=1)
        rec = run_trial(cfg, 0, 2, 12)
        assert rec.status == "NodeLimit"
        assert rec.s > 0 and rec.tree_size >= 1
        assert self._empty_cells(rec) == IP_CELLS | ROUND_CELLS

    def test_round_bound_not_met(self, monkeypatch):
        randomized_round = rounding.randomized_round
        monkeypatch.setattr(
            rounding, "randomized_round",
            lambda x_star, frac, a, rng: randomized_round(x_star, frac, a, rng,
                                                          max_tries=0))
        cfg = small_config(n_list=(12,), seeds_per_cell=1, rounding="always")
        rec = run_trial(cfg, 0, 2, 12)
        assert rec.status == "round_bound_not_met"
        assert rec.s > 0 and rec.round_ok is False and rec.ip_value is not None
        assert self._empty_cells(rec) == {"cert_gap"}

    def test_dual_infeasible_lp_is_an_arithmetic_error(self, monkeypatch):
        # a root start with every structural at its upper bound is not
        # dual feasible, and the solve ends with a reduced cost of the
        # wrong sign
        init = lp._Simplex.__init__

        def from_all_at_upper(core, *args):
            init(core, *args)
            put_all_at_upper(core)

        monkeypatch.setattr(lp._Simplex, "__init__", from_all_at_upper)
        cfg = small_config(m_list=(3,), n_list=(60,), seeds_per_cell=1,
                           b_spec="scaled_ones -0.1 -0.1 -0.1")
        rec = run_trial(cfg, 0, 3, 60)
        assert rec.status == "error:ArithmeticError"
        assert self._empty_cells(rec) == LP_CELLS | TREE_CELLS | IP_CELLS | ROUND_CELLS


class TestSweeps:
    def test_gap_sweep_shape_and_order(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = small_config(out=str(out))
        records = gap_sweep(cfg)
        assert len(records) == 8
        text = out.read_text()
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 9
        seeds = [int(line.split(",")[0]) for line in lines[1:]]
        assert seeds == list(range(8))

    def test_rerun_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        gap_sweep(small_config(out=str(out1)))
        gap_sweep(small_config(out=str(out2)))
        assert out1.read_bytes() == out2.read_bytes()

    def test_parallel_equals_serial(self, tmp_path):
        out1 = tmp_path / "serial.csv"
        out2 = tmp_path / "par.csv"
        gap_sweep(small_config(out=str(out1), parallelism=1))
        gap_sweep(small_config(out=str(out2), parallelism=2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_import_leaves_out_the_process_pool(self):
        # the pool is imported on the parallel path only, so the import of
        # the package, which every process pays, does not load it
        code = ("import sys, giplab.experiments, giplab.cli\n"
                "print('concurrent.futures.process' in sys.modules)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=env, check=True)
        assert res.stdout.strip() == "False"

    def test_tree_sweep_side_file(self, tmp_path):
        out = tmp_path / "tree.csv"
        cfg = small_config(out=str(out), n_list=(12,), seeds_per_cell=3)
        records = tree_sweep(cfg)
        side = tmp_path / "tree.csv.knap.csv"
        assert side.exists()
        lines = side.read_text().splitlines()
        assert lines[0] == "seed,m,n,ipgap,tree_size,knap_count,envelope"
        assert len(lines) == 4
        for rec in records:
            assert rec.knap_count is not None and rec.knap_count >= 1
            assert rec.tree_size >= 1

    def test_tree_sweep_proxy_rows_beyond_mim_limit(self, tmp_path):
        out = tmp_path / "tree60.csv"
        cfg = small_config(
            out=str(out), n_list=(60,), seeds_per_cell=8, seed=7,
            exact_ip_max_n=60,
        )
        records = tree_sweep(cfg)
        rows = (tmp_path / "tree60.csv.knap.csv").read_text().splitlines()[1:]
        assert len(rows) == len(records) == 8
        for rec, row in zip(records, rows):
            assert rec.status == "ok"
            inst = generate(2, 60, BSpec.zeros(), RngHandle(cfg.seed, rec.seed))
            sol = solve_lp(inst)
            weights = np.abs(inst.A.T @ sol.u_star - inst.c)
            expect = count_small_weight_subsets(weights, rec.ipgap)
            assert rec.knap_count == expect
            assert row.split(",")[:6] == [
                str(rec.seed), "2", "60", repr(rec.ipgap), str(rec.tree_size),
                str(expect),
            ]
        assert max(r.knap_count for r in records) > 1

    def test_tree_sweep_counts_below_mim_limit_unchanged(self):
        # (stream, m, n, tree_size, knap_count) as written when the proxy
        # was counted by meet-in-the-middle above n = 30
        cfg = small_config(
            m_list=(2, 3), n_list=(32, 40, 48), seeds_per_cell=2, seed=2024,
            exact_ip_max_n=48,
        )
        got = [(r.seed, r.m, r.n, r.tree_size, r.knap_count) for r in tree_sweep(cfg)]
        assert got == [
            (0, 2, 32, 7, 8), (1, 2, 32, 21, 10), (2, 2, 40, 1, 1),
            (3, 2, 40, 5, 2), (4, 2, 48, 1, 1), (5, 2, 48, 27, 56),
            (6, 3, 32, 3, 2), (7, 3, 32, 9, 2), (8, 3, 40, 9, 4),
            (9, 3, 40, 1, 1), (10, 3, 48, 143, 152), (11, 3, 48, 1, 1),
        ]

    def test_count_budget_keeps_ip_fields(self, tmp_path, monkeypatch):
        out = tmp_path / "budget.csv"
        cfg = small_config(
            out=str(out), n_list=(60,), seeds_per_cell=3, seed=7,
            exact_ip_max_n=60,
        )
        full = tree_sweep(cfg)
        # stream 2 counts 204 subsets; one visit cannot finish that count
        assert full[2].knap_count > 1
        monkeypatch.setattr(knapsack, "DFS_VISIT_BUDGET", 1)
        capped = tree_sweep(cfg)
        starved = capped[2]
        assert starved.status == "ok"
        assert starved.knap_count is None
        assert starved.ip_value == full[2].ip_value
        assert starved.tree_size == full[2].tree_size
        assert starved.to_csv_row() == full[2].to_csv_row()
        rows = (tmp_path / "budget.csv.knap.csv").read_text().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == [
            r.seed for r in capped if r.knap_count is not None
        ]

    def test_gap_below_certificate_when_both_present(self):
        cfg = small_config(
            n_list=(24,), seeds_per_cell=10, rounding="always",
            k=2, t=1, delta=16 * np.sqrt(2) * 2 / 24,
        )
        both = 0
        for stream, m, n, _ in cfg.trials():
            rec = run_trial(cfg, stream, m, n)
            if rec.ipgap is not None and rec.cert_gap is not None:
                both += 1
                assert rec.ipgap <= rec.cert_gap + 1e-7
        assert both >= 1

    def test_timings_zero_by_default(self, tmp_path):
        out = tmp_path / "t.csv"
        gap_sweep(small_config(out=str(out), seeds_per_cell=2, n_list=(12,)))
        for line in out.read_text().splitlines()[1:]:
            cells = line.split(",")
            assert cells[14] == "0" and cells[15] == "0" and cells[16] == "0"


class TestStatsCheck:
    def test_fixed_events_come_from_rounding(self, monkeypatch):
        monkeypatch.setattr(rounding, "fixed_events", lambda *args: (False, True))
        freqs = stats_check(m=2, n=60, seeds=4, master_seed=4)["frequencies"]
        assert freqs["u_norm_le_3"] == 0.0 and freqs["n0_ge_n_over_500"] == 1.0

    def test_zero_b_alpha(self):
        summary = stats_check(m=2, n=80, seeds=30, master_seed=3)
        assert summary["alpha_mean"] == pytest.approx(
            0.75 / np.sqrt(2 * np.pi), abs=1e-12
        )
        freqs = summary["frequencies"]
        assert set(freqs) == {
            "value_ge_alpha_n",
            "u_norm_le_bound",
            "n0_ge_beta_bound",
            "u_norm_le_3",
            "n0_ge_n_over_500",
        }
        for value in freqs.values():
            assert 0.0 <= value <= 1.0

    def test_infeasible_lps_are_counted(self):
        # a negative b whose delta is still inside theory_params' range
        spec = "scaled_ones -0.2 -0.2"
        summary = stats_check(m=2, n=50, seeds=20, master_seed=1, b_spec=spec)
        failures = 0
        for j in range(20):
            try:
                solve_lp(generate(2, 50, BSpec.parse(spec), RngHandle(1, j)))
            except lp.InfeasibleError:
                failures += 1
        assert summary["lp_failures"] == failures > 0
        # a seed whose LP failed meets no event
        for value in summary["frequencies"].values():
            assert value <= (20 - failures) / 20

    def test_deterministic(self):
        a = stats_check(m=2, n=60, seeds=10, master_seed=4)
        b = stats_check(m=2, n=60, seeds=10, master_seed=4)
        assert a == b


class TestRecordCsv:
    def test_none_renders_empty(self):
        rec = ExperimentRecord(seed=1, m=2, n=10, bspec="zeros")
        row = rec.to_csv_row()
        assert row.startswith("1,2,10,zeros,")
        assert ",," in row

    def test_header_columns_are_fields_or_timings(self):
        fields = {f.name for f in dataclasses.fields(ExperimentRecord)}
        columns = CSV_HEADER.split(",")
        assert [c for c in columns if c not in fields] == ["lp_ms", "ip_ms", "round_ms"]
        assert fields - set(columns) == {"knap_count"}

    def test_header_is_frozen(self):
        assert CSV_HEADER == (
            "seed,m,n,bspec,lp_value,ip_value,ipgap,tree_size,nodes_expanded,"
            "u_norm,n0,s,round_ok,cert_gap,lp_ms,ip_ms,round_ms,status"
        )

    def test_csv_text_roundtrip_floats(self):
        rec = ExperimentRecord(
            seed=0, m=1, n=5, bspec="zeros", lp_value=1.0 / 3.0, ipgap=0.1
        )
        text = records_to_csv([rec])
        cells = text.splitlines()[1].split(",")
        assert float(cells[4]) == 1.0 / 3.0
