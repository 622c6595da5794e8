import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from giplab.cli import main, run_cli

from test_instance import HEADER_ERRORS

SRC = str(Path(__file__).resolve().parent.parent / "src")


def cli(*args):
    """In-process invocation; returns the exit code."""
    return run_cli(list(args))


def cli_proc(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "giplab.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestGenLpIp:
    def test_gen_then_lp_smoke(self, tmp_path, capsys):
        path = str(tmp_path / "a.gip")
        assert cli("gen", "--m", "2", "--n", "50", "--b", "zeros",
                   "--seed", "1", "--out", path) == 0
        capsys.readouterr()
        assert cli("lp", path) == 0
        out = capsys.readouterr().out
        assert "value:" in out and "pivots:" in out and "n0_size:" in out

    def test_lp_value_matches_library(self, tmp_path, capsys):
        from giplab.fileformat import read_instance
        from giplab.lp import solve_lp

        path = str(tmp_path / "a.gip")
        cli("gen", "--m", "2", "--n", "30", "--b", "gaussian",
            "--seed", "9", "--out", path)
        capsys.readouterr()
        cli("lp", path)
        out = capsys.readouterr().out
        printed = float(next(l for l in out.splitlines() if l.startswith("value:")).split()[1])
        assert printed == solve_lp(read_instance(path)).value

    def test_ip_subcommand(self, tmp_path, capsys):
        path = str(tmp_path / "a.gip")
        cli("gen", "--m", "1", "--n", "12", "--b", "zeros",
            "--seed", "2", "--out", path)
        capsys.readouterr()
        assert cli("ip", path, "--node-limit", "100000") == 0
        out = capsys.readouterr().out
        assert "status: Optimal" in out
        assert "nodes_created:" in out

    def test_lp_infeasible_prints_farkas_vector(self, tmp_path, capsys):
        from giplab.fileformat import read_instance
        from giplab.lp import InfeasibleError, solve_lp

        path = str(tmp_path / "a.gip")
        cli("gen", "--m", "2", "--n", "5", "--b", "explicit:-100,-100",
            "--seed", "3", "--out", path)
        capsys.readouterr()
        assert cli("lp", path) == 0
        out = capsys.readouterr().out.splitlines()
        with pytest.raises(InfeasibleError) as info:
            solve_lp(read_instance(path))
        farkas = " ".join(repr(float(v)) for v in info.value.farkas_u)
        assert out == ["status: infeasible", f"farkas_u: {farkas}"]

    def test_ip_node_limit_prints_bracket(self, tmp_path, capsys):
        from giplab.bnb import solve_ip
        from giplab.fileformat import read_instance

        path = str(tmp_path / "a.gip")
        cli("gen", "--m", "2", "--n", "30", "--b", "zeros",
            "--seed", "1", "--out", path)
        capsys.readouterr()
        assert cli("ip", path, "--node-limit", "1") == 0
        out = capsys.readouterr().out.splitlines()
        res = solve_ip(read_instance(path), node_limit=1)
        assert res.status == "NodeLimit" and res.best_bound is not None
        assert out[0] == "status: NodeLimit"
        assert f"best_bound: {res.best_bound!r}" in out

    # the LP-infeasible report is checked the same way by
    # test_lp_infeasible_prints_farkas_vector
    @pytest.mark.parametrize("m, n, b, seed", [
        (2, 50, "zeros", 1),
        (8, 4000, "gaussian", 0),
        (3, 1000, "scaled_ones:0.02", 2),
    ])
    def test_lp_report_matches_entry_by_entry_formatting(self, tmp_path, capsys,
                                                         m, n, b, seed):
        from giplab.fileformat import read_instance
        from giplab.lp import solve_lp

        path = str(tmp_path / "a.gip")
        cli("gen", "--m", str(m), "--n", str(n), "--b", b, "--seed", str(seed),
            "--out", path)
        capsys.readouterr()
        assert cli("lp", path) == 0
        out = capsys.readouterr().out.splitlines()
        sol = solve_lp(read_instance(path))
        nz = np.flatnonzero(sol.x_star > 1e-12)
        assert nz.size > 0
        assert out[1:3] == [
            "x_nonzero: " + " ".join(f"{i}={float(sol.x_star[i])!r}" for i in nz),
            "u_star: " + " ".join(repr(float(v)) for v in sol.u_star),
        ]

    def test_missing_file_exits_one(self, capsys):
        assert cli("ip", "missing.gip") == 1
        err = capsys.readouterr().err
        assert "missing.gip" in err

    def test_unknown_flag_exits_one(self, capsys):
        assert cli("lp", "x.gip", "--frobnicate") == 1
        err = capsys.readouterr().err
        assert "--frobnicate" in err

    def test_malformed_instance_exits_one(self, tmp_path, capsys):
        # a bad number, then b-spec lines the BSpec constructor refuses
        for document in (
            "GIPLAB v1\n2 2\nzeros\n0\nnot-a-number\n",
            "GIPLAB v1\n1 1\nscaled_ones\n0\n0.0\n1.0\n1.0\n",
            "GIPLAB v1\n1 1\nexplicit nan\n0\n0.0\n1.0\n1.0\n",
        ):
            bad = tmp_path / "bad.gip"
            bad.write_text(document)
            assert cli("lp", str(bad)) == 1
            assert f"error: bad instance file {bad}: " in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", HEADER_ERRORS)
    def test_bad_header_exits_one(self, tmp_path, capsys, doc, message):
        bad = tmp_path / "bad.gip"
        bad.write_bytes(doc)
        assert cli("lp", str(bad)) == 1
        assert capsys.readouterr() == ("", f"error: bad instance file {bad}: {message}\n")

    def test_gen_bad_explicit_length_exits_one(self, tmp_path, capsys):
        out = str(tmp_path / "x.gip")
        assert cli("gen", "--m", "3", "--n", "4", "--b", "explicit:1.0,2.0",
                   "--seed", "0", "--out", out) == 1
        assert "explicit" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["explicit:1,,2", "scaled_ones:0.1,", "explicit:"])
    def test_gen_empty_b_field_exits_one(self, tmp_path, capsys, token):
        out = tmp_path / "x.gip"
        assert cli("gen", "--m", "2", "--n", "4", "--b", token,
                   "--seed", "0", "--out", str(out)) == 1
        assert capsys.readouterr() == (
            "", f"error: bad --b recipe {token!r}: could not convert string to float: ''\n")
        assert not out.exists()

    def test_usage_error_without_subcommand(self):
        assert cli() == 1


class TestFileErrors:
    """A file named on the command line that cannot be opened gives one
    `error: cannot open <path>: <reason>` line and exit 1."""

    @staticmethod
    def _error(path, code):
        return f"error: cannot open {path}: {os.strerror(code)}\n"

    def test_lp_on_a_directory(self, tmp_path, capsys):
        assert cli("lp", str(tmp_path)) == 1
        assert capsys.readouterr().err == self._error(tmp_path, errno.EISDIR)

    def test_gen_into_a_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.giplab"
        assert cli("gen", "--m", "2", "--n", "5", "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.err == self._error(out, errno.ENOENT)
        assert captured.out == ""

    def test_config_is_a_directory(self, tmp_path, capsys):
        assert cli("gap-sweep", "--config", str(tmp_path)) == 1
        assert capsys.readouterr().err == self._error(tmp_path, errno.EISDIR)

    @pytest.mark.parametrize("command", ["gap-sweep", "tree-sweep"])
    def test_sweep_out_in_a_missing_directory_fails_before_any_trial(
            self, tmp_path, capsys, monkeypatch, command):
        from giplab import experiments

        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiments, "run_trial", no_trial)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(
            m_list=[2], n_list=[12], seeds_per_cell=2, parallelism=1,
        )))
        missing = tmp_path / "missing"
        assert cli(command, "--config", str(cfg_path),
                   "--out", str(missing / "s.csv")) == 1
        assert capsys.readouterr().err == self._error(missing, errno.ENOENT)


class TestWriteErrors:
    """A write the OS refuses after the file opened (a full disk raises on
    the flush, with no filename) gives one `error: <reason>` line, exit 1
    and no traceback."""

    NO_SPACE = f"error: {os.strerror(errno.ENOSPC)}\n"

    @staticmethod
    def _no_space(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def test_gen(self, tmp_path, capsys, monkeypatch):
        from giplab import cli as cli_module

        monkeypatch.setattr(cli_module, "write_instance", self._no_space)
        assert cli("gen", "--m", "2", "--n", "5", "--out", str(tmp_path / "x.gip")) == 1
        assert capsys.readouterr() == ("", self.NO_SPACE)

    def test_sweep_out(self, tmp_path, capsys, monkeypatch):
        from giplab import experiments

        monkeypatch.setattr(experiments, "write_csv", self._no_space)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(
            m_list=[2], n_list=[12], seeds_per_cell=1, rounding="never",
            parallelism=1,
        )))
        assert cli("gap-sweep", "--config", str(cfg_path),
                   "--out", str(tmp_path / "s.csv")) == 1
        assert capsys.readouterr() == ("", self.NO_SPACE)


@pytest.mark.parametrize("command", [
    "ip {path} --node-limit 0",
    "round {path} --k 0",
    "round {path} --k 9",
    "round {path} --t 0",
    "round {path} --delta -1",
    "round {path} --delta nan",
    "round {path} --theta inf",
    "round {path} --theta nan",
    "disc-mc --m 0 --k 2",
    "disc-mc --m 1 --k 2 --trials 100 --target-norm nan",
    "knap-mc --n 10 --g nan --trials 5",
    "stats --m 2 --n 60 --epsilon 0.5",
    "stats --m 2 --n 60 --seeds 0",
    "stats --m 2 --n 60 --b bogus",
    "stats --m 2 --n 60 --b scaled_ones:0.3,0.1,0.2",
])
def test_rejected_flag_value_exits_one(tmp_path, capsys, command):
    path = str(tmp_path / "a.gip")
    cli("gen", "--m", "2", "--n", "20", "--b", "zeros", "--seed", "1",
        "--out", path)
    capsys.readouterr()
    assert cli(*command.format(path=path).split()) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


class TestRound:
    def test_round_prints_certificate(self, tmp_path, capsys):
        path = str(tmp_path / "a.gip")
        cli("gen", "--m", "2", "--n", "400", "--b", "zeros",
            "--seed", "42", "--out", path)
        capsys.readouterr()
        code = cli("round", path, "--seed", "7")
        out = capsys.readouterr().out
        assert code == 0
        assert "feasible:" in out and "certified_gap:" in out
        assert "pool_index_used:" in out

    def test_round_full_x_prints_the_rounded_point(self, tmp_path, capsys):
        from giplab.fileformat import read_instance
        from giplab.lp import solve_lp
        from giplab.rng import RngHandle
        from giplab.rounding import RoundingParams, round_pipeline

        path = str(tmp_path / "a.gip")
        cli("gen", "--m", "2", "--n", "400", "--b", "zeros",
            "--seed", "42", "--out", path)
        capsys.readouterr()
        assert cli("round", path, "--seed", "7") == 0
        short = capsys.readouterr().out
        assert cli("round", path, "--seed", "7", "--full-x") == 0
        out = capsys.readouterr().out
        inst = read_instance(path)
        cert = round_pipeline(inst, solve_lp(inst),
                              RoundingParams.defaults(inst.m, inst.n), RngHandle(7))
        ones = " ".join(str(i) for i in np.flatnonzero(cert.x_double_prime > 0.5))
        assert out == short + f"x_ones: {ones}\n"

    def test_round_pool_too_small_exits_two(self, tmp_path, capsys):
        path = str(tmp_path / "a.gip")
        cli("gen", "--m", "2", "--n", "40", "--b", "zeros",
            "--seed", "39", "--out", path)
        capsys.readouterr()
        code = cli("round", path, "--k", "8", "--t", "5")
        err = capsys.readouterr().err
        assert code == 2
        assert "columns" in err

    def test_round_on_an_infeasible_lp_exits_two(self, tmp_path, capsys):
        path = str(tmp_path / "a.gip")
        cli("gen", "--m", "2", "--n", "5", "--b", "explicit:-100,-100",
            "--seed", "3", "--out", path)
        capsys.readouterr()
        assert cli("round", path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: LP stage failed: ")
        assert len(captured.err.splitlines()) == 1


class TestParserKept:
    """run_cli builds its parser once per process; no flag value of one
    call reaches the next."""

    def test_parser_built_once(self, monkeypatch, capsys):
        from giplab import cli as cli_module

        builds = []
        build = cli_module.build_parser
        monkeypatch.setattr(cli_module, "build_parser",
                            lambda: builds.append(1) or build())
        cli_module._parser.cache_clear()
        assert cli("bogus") == 1
        assert cli("bogus") == 1
        assert len(builds) == 1

    def test_round_full_x_does_not_leak(self, tmp_path, capsys):
        path = str(tmp_path / "a.gip")
        cli("gen", "--m", "2", "--n", "400", "--b", "zeros",
            "--seed", "42", "--out", path)
        assert cli("round", path, "--seed", "7", "--full-x") == 0
        assert "x_ones:" in capsys.readouterr().out
        assert cli("round", path, "--seed", "7") == 0
        assert "x_ones:" not in capsys.readouterr().out

    def test_gen_seed_does_not_leak(self, tmp_path):
        paths = [tmp_path / f"{name}.gip" for name in ("five", "default", "zero")]
        for path, seed in zip(paths, (["--seed", "5"], [], ["--seed", "0"])):
            assert cli("gen", "--m", "2", "--n", "20", *seed,
                       "--out", str(path)) == 0
        five, default, zero = (path.read_bytes() for path in paths)
        assert default == zero != five


class TestSweepCli:
    def test_gap_sweep_writes_configured_csv(self, tmp_path, capsys):
        cfg = dict(
            m_list=[2], n_list=[12], seeds_per_cell=3, seed=5,
            b_spec="zeros", rounding="never", parallelism=1,
            out=str(tmp_path / "s.csv"),
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli("gap-sweep", "--config", str(cfg_path)) == 0
        capsys.readouterr()
        text = (tmp_path / "s.csv").read_text()
        assert text.splitlines()[0].startswith("seed,m,n,bspec")
        assert len(text.splitlines()) == 4

    def test_gap_sweep_without_out_writes_csv_to_stdout(self, tmp_path, capsys):
        cfg = dict(
            m_list=[2], n_list=[12, 24], seeds_per_cell=2, seed=5,
            b_spec="gaussian", rounding="always", parallelism=1,
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli("gap-sweep", "--config", str(cfg_path)) == 0
        out = capsys.readouterr().out
        path = tmp_path / "s.csv"
        assert cli("gap-sweep", "--config", str(cfg_path), "--out", str(path)) == 0
        assert out == path.read_text()
        assert len(out.splitlines()) == 5

    def test_bad_config_exits_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"m_list": [2]}')
        assert cli("gap-sweep", "--config", str(cfg_path)) == 1
        # bad rounding or solver values are refused before any trial runs
        out = tmp_path / "s.csv"
        for bad in ({"k": 9}, {"k": 0, "rounding": "always"}, {"node_limit": 0},
                    {"m_list": [2.7]}, {"n_list": [12.9]}, {"seeds_per_cell": 1.5},
                    {"n_list": [0]}, {"n_list": [-5]},
                    {"seed": -1}, {"b_spec": "bogus"}, {"b_spec": 5},
                    {"m_list": [2, 3], "b_spec": "scaled_ones 0.1 0.2"}):
            cfg_path.write_text(json.dumps({
                "m_list": [2], "n_list": [30], "seeds_per_cell": 1,
                "parallelism": 1, "out": str(out), **bad,
            }))
            capsys.readouterr()
            assert cli("gap-sweep", "--config", str(cfg_path)) == 1
            assert capsys.readouterr().err.startswith("error: bad config:")
            assert not out.exists()

    @pytest.mark.parametrize("text, problem", [
        ('"abc"', 'a config must be a JSON object, got "abc"'),
        ("5", "a config must be a JSON object, got 5"),
        ("null", "a config must be a JSON object, got null"),
        ('{"m_list": [2], "n_list": 12}', "n_list must be a JSON array, got 12"),
    ], ids=["string", "number", "null", "n_list_number"])
    def test_config_of_the_wrong_json_type_exits_one(self, tmp_path, capsys, text, problem):
        # the message names the value of the wrong type, and no trial runs
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        out = tmp_path / "s.csv"
        assert cli("gap-sweep", "--config", str(cfg_path), "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad config: {problem}\n"
        assert not out.exists()

    def test_missing_config_exits_one(self, capsys):
        assert cli("gap-sweep", "--config", "nope.json") == 1

    def test_console_entry_exits_with_the_status(self, monkeypatch, capsys):
        # the `giplab` console script is cli.main
        monkeypatch.setattr(sys, "argv", ["giplab", "gap-sweep", "--config", "nope.json"])
        with pytest.raises(SystemExit) as exc_info:
            main()
        assert exc_info.value.code == 1

    def test_tree_sweep_out_flag_overrides_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(
            m_list=[2], n_list=[12], seeds_per_cell=2, seed=5,
            rounding="never", parallelism=1,
        )))
        out = tmp_path / "t.csv"
        assert cli("tree-sweep", "--config", str(cfg_path), "--out", str(out)) == 0
        assert capsys.readouterr().out == f"wrote {out}: 2 rows\n"
        assert len(out.read_text().splitlines()) == 3

    def test_tree_sweep_without_out_exits_one_before_any_trial(
            self, tmp_path, capsys, monkeypatch):
        # the knapsack counts have no place on stdout, so tree-sweep needs a
        # file to write them beside
        from giplab import experiments

        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiments, "run_trial", no_trial)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(
            m_list=[2], n_list=[12], seeds_per_cell=3, parallelism=1,
        )))
        assert cli("tree-sweep", "--config", str(cfg_path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: bad config: tree-sweep needs out, as it "
                                "writes the knapsack counts to <out>.knap.csv\n")

    @pytest.mark.parametrize("value", [0, -2, 1.5, "two", "abc"])
    @pytest.mark.parametrize("command", ["gap-sweep", "tree-sweep"])
    def test_bad_parallelism_exits_one(self, tmp_path, capsys, command, value):
        # the config holds the one worker count, checked when it loads
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "s.csv"
        cfg_path.write_text(json.dumps(dict(
            m_list=[2], n_list=[12], seeds_per_cell=1, rounding="never",
            parallelism=value, out=str(out),
        )))
        assert cli(command, "--config", str(cfg_path)) == 1
        rule = ("must be >= 1" if isinstance(value, int)
                else f"must hold integers, got {value!r}")
        assert capsys.readouterr().err == f"error: bad config: parallelism {rule}\n"
        assert not out.exists()


class TestMonteCarloCommands:
    def test_disc_mc_row(self, capsys):
        assert cli("disc-mc", "--m", "1", "--k", "2", "--trials", "200",
                   "--seed", "3") == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "m,k,a,theta,trials,successes,rate,stderr,mode"
        cells = out[1].split(",")
        assert cells[0] == "1" and cells[1] == "2" and cells[2] == "2"
        assert cells[8] == "exact"

    def test_disc_mc_reports_search_mode_above_the_budget(self, capsys, monkeypatch):
        from giplab import discrepancy

        monkeypatch.setattr(discrepancy, "EXACT_ENUM_BUDGET", 5)  # C(4, 2) = 6
        assert cli("disc-mc", "--m", "1", "--k", "2", "--trials", "100",
                   "--seed", "3") == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1].split(",")[8] == "search"

    def test_knap_mc_row(self, capsys):
        assert cli("knap-mc", "--n", "10", "--g", "0.5", "--trials", "100",
                   "--seed", "3") == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "n,g,trials,mean,stderr,bound,violations"
        cells = out[1].split(",")
        assert float(cells[3]) >= 1.0
        assert cells[6] in ("0", "1")

    def test_stats_json(self, capsys):
        assert cli("stats", "--m", "2", "--n", "60", "--seeds", "10") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["m"] == 2
        assert "frequencies" in payload

    def test_stats_reads_the_gen_b_recipe(self, capsys):
        assert cli("stats", "--m", "2", "--n", "50", "--seeds", "3",
                   "--b", "scaled_ones:0.3") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["b_spec"] == "scaled_ones 0.3 0.3"
        assert payload["lp_failures"] == 0


class TestSubprocessEntry:
    def test_module_entry_help(self):
        res = cli_proc("--help")
        assert res.returncode == 0
        assert "gen" in res.stdout and "knap-mc" in res.stdout

    def test_module_entry_exit_codes(self, tmp_path):
        res = cli_proc("ip", "missing.gip")
        assert res.returncode == 1
        path = str(tmp_path / "x.gip")
        assert cli_proc("gen", "--m", "1", "--n", "8", "--b", "zeros",
                        "--seed", "0", "--out", path).returncode == 0
        assert cli_proc("ip", path).returncode == 0

    def test_each_subcommand_loads_only_its_modules(self, tmp_path):
        # a fresh process: the in-process tests already hold every module
        script = """
import sys

def loaded():
    return {m for m in sys.modules if m.split(".")[0] == "giplab"}

import giplab.cli as cli
start = {"giplab", "giplab.instance", "giplab.rng", "giplab.lp", "giplab.cli", "giplab.fileformat"}
assert loaded() == start, sorted(loaded())
assert "json" not in sys.modules
path = sys.argv[1]
assert cli.run_cli(["gen", "--m", "1", "--n", "30", "--seed", "1", "--out", path]) == 0
assert cli.run_cli(["lp", path]) == 0
assert loaded() == start, sorted(loaded())
# ordered so that no call's modules were loaded by an earlier one
for argv, modules in [
    (["ip", path], {"giplab.bnb"}),
    (["knap-mc", "--n", "8", "--g", "0.5", "--trials", "5"], {"giplab.knapsack"}),
    (["disc-mc", "--m", "1", "--k", "2", "--trials", "100"],
     {"giplab.discrepancy", "giplab.numerics"}),
    (["round", path, "--k", "2", "--t", "1"], {"giplab.rounding"}),
    (["stats", "--m", "1", "--n", "8", "--seeds", "2"], {"giplab.experiments", "json"}),
]:
    assert not modules & sys.modules.keys(), argv
    assert cli.run_cli(argv) == 0, argv
    assert modules <= sys.modules.keys(), argv
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        res = subprocess.run([sys.executable, "-c", script, str(tmp_path / "a.gip")],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr

    @pytest.mark.parametrize("module", ["giplab.experiments", "giplab.bnb"])
    def test_solvers_leave_the_file_format_unloaded(self, module):
        # no paper claim reads or writes a file, so a sweep never loads it
        script = f"import sys, {module}\nassert 'giplab.fileformat' not in sys.modules"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env)
        assert res.returncode == 0, res.stderr

    def test_file_commands_read_and_write_through_the_format_module(self):
        # the names the benchmark traces on giplab.cli are the codec's own
        from giplab import cli as cli_module, fileformat

        assert cli_module.read_instance is fileformat.read_instance
        assert cli_module.write_instance is fileformat.write_instance
