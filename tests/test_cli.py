import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from giplab.cli import run_cli

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
        from giplab.instance import read_instance
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

    def test_missing_file_exits_one(self, capsys):
        assert cli("ip", "missing.gip") == 1
        err = capsys.readouterr().err
        assert "missing.gip" in err

    def test_unknown_flag_exits_one(self, capsys):
        assert cli("lp", "x.gip", "--frobnicate") == 1
        err = capsys.readouterr().err
        assert "--frobnicate" in err

    def test_malformed_instance_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.gip"
        bad.write_text("GIPLAB v1\n2 2\nzeros\n0\nnot-a-number\n")
        assert cli("lp", str(bad)) == 1
        assert "bad instance file" in capsys.readouterr().err

    def test_gen_bad_explicit_length_exits_one(self, tmp_path, capsys):
        out = str(tmp_path / "x.gip")
        assert cli("gen", "--m", "3", "--n", "4", "--b", "explicit:1.0,2.0",
                   "--seed", "0", "--out", out) == 1
        assert "explicit" in capsys.readouterr().err

    def test_usage_error_without_subcommand(self):
        assert cli() == 1


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

    def test_round_pool_too_small_exits_two(self, tmp_path, capsys):
        path = str(tmp_path / "a.gip")
        cli("gen", "--m", "2", "--n", "40", "--b", "zeros",
            "--seed", "39", "--out", path)
        capsys.readouterr()
        code = cli("round", path, "--k", "8", "--t", "5")
        err = capsys.readouterr().err
        assert code == 2
        assert "columns" in err


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

    def test_bad_config_exits_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"m_list": [2]}')
        assert cli("gap-sweep", "--config", str(cfg_path)) == 1
        # bad rounding or solver values are refused before any trial runs
        out = tmp_path / "s.csv"
        for bad in ({"k": 9}, {"k": 0, "rounding": "always"}, {"node_limit": 0}):
            cfg_path.write_text(json.dumps(dict(
                m_list=[2], n_list=[30], seeds_per_cell=1, parallelism=1,
                out=str(out), **bad,
            )))
            capsys.readouterr()
            assert cli("gap-sweep", "--config", str(cfg_path)) == 1
            assert capsys.readouterr().err.startswith("error: bad config:")
            assert not out.exists()

    def test_missing_config_exits_one(self, capsys):
        assert cli("gap-sweep", "--config", "nope.json") == 1

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

    @pytest.mark.parametrize("value", ["abc", "1.5", "two"])
    @pytest.mark.parametrize("command", ["gap-sweep", "tree-sweep"])
    def test_malformed_threads_env_exits_one(self, tmp_path, capsys,
                                             monkeypatch, command, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(
            m_list=[2], n_list=[12], seeds_per_cell=1, rounding="never",
        )))
        monkeypatch.setenv("GIPLAB_THREADS", value)
        assert cli(command, "--config", str(cfg_path)) == 1
        err = capsys.readouterr().err
        assert err == f"error: GIPLAB_THREADS must be an integer, got {value!r}\n"


class TestMonteCarloCommands:
    def test_disc_mc_row(self, capsys):
        assert cli("disc-mc", "--m", "1", "--k", "2", "--trials", "200",
                   "--seed", "3") == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "m,k,a,theta,trials,successes,rate,stderr,mode"
        cells = out[1].split(",")
        assert cells[0] == "1" and cells[1] == "2" and cells[2] == "2"
        assert cells[8] == "exact"

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
