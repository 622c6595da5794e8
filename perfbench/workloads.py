"""The three benchmark workloads: how their ops are made, run and checked.

Every op goes through a public entry point of giplab:
``experiments.SweepConfig.trials()`` + ``experiments.run_trial`` (the serial
path of ``gap_sweep``/``tree_sweep``) or ``cli.run_cli``.  Inputs come only
from the workload seed.  Checks run after the timed phase and use
independent oracles (scipy's HiGHS ``linprog`` and ``milp``, the other
knapsack counting method) plus, at the default seed, stored reference
outputs.  ``build_ops`` runs in a process of its own, so the oracle
imports it needs stay out of the measured process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from dataclasses import dataclass

import numpy as np

# trial streams per (m, n) cell; only the first few are used, but a fixed
# value keeps every trial's stream id independent of the run length
STREAMS_PER_CELL = 5000
LP_TOL = 1e-7      # relative agreement with HiGHS
REF_TOL = 1e-9     # relative agreement with the stored reference outputs
MIN_OPS = 20       # ops a run makes at least, and a timed loop never cuts
# round_pipeline outcomes of a trial that ran the subset search
SEARCHED = ("flipped", "search_failed")


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def highs_lp(inst):
    """(status, value, raw result) of the LP relaxation from scipy's HiGHS."""
    from scipy.optimize import linprog

    res = linprog(-inst.c, A_ub=inst.A, b_ub=inst.b, bounds=(0, 1), method="highs")
    return res.status, (-float(res.fun) if res.status == 0 else None), res


def highs_ip(inst) -> float | None:
    from scipy.optimize import Bounds, LinearConstraint, milp

    res = milp(
        -inst.c,
        constraints=LinearConstraint(inst.A, -np.inf, inst.b),
        integrality=np.ones(inst.n),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0.0},
    )
    return -float(res.fun) if res.status == 0 else None


def compare_reference(ref, got, path="") -> list[str]:
    """Differences between a stored canonical output and a fresh one:
    discrete fields exactly, floats to REF_TOL relative."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return [f"{path}: keys {sorted(set(ref) ^ set(got))} differ"]
        out = []
        for key in ref:
            out += compare_reference(ref[key], got[key], f"{path}.{key}")
        return out
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out += compare_reference(r, g, f"{path}[{i}]")
        return out
    if isinstance(ref, float) and isinstance(got, float):
        return [] if close(ref, got, REF_TOL) else [f"{path}: {got!r} != {ref!r}"]
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {got!r} != {ref!r}"]
    return []


def search_outcome(outcome: str, evaluations: int) -> str:
    """The rounding outcome, or "search_skipped" when the pipeline reports
    a search outcome but its discrepancy search evaluated no subset."""
    return "search_skipped" if outcome in SEARCHED and not evaluations else outcome


def outcome_problems(outcome: str) -> list[str]:
    if outcome in SEARCHED:
        return []
    return [f"rounding outcome {outcome!r}: the op must run the subset search"]


@dataclass(frozen=True)
class Workload:
    name: str
    ops_per_second: float  # sizing: ops a run makes per second asked for
    cycle: int           # op counts are whole multiples of this
    op_span: str         # span the benchmark opens around each op
    fires: tuple         # spans that must record calls in a traced run
    searches: bool = False  # every op must reach the rounding subset search

    def op_count(self, seconds: float) -> int:
        """seconds * ops_per_second ops in whole cycles, at least MIN_OPS so
        the latency tail has ten samples beyond it."""
        n = max(seconds * self.ops_per_second, MIN_OPS)
        return self.cycle * math.ceil(n / self.cycle)

    def trace_count(self, n_ops: int) -> int:
        """Ops of a traced run (four passes): a quarter of an untraced run,
        whole cycles."""
        return self.cycle * max(1, round(n_ops / 4 / self.cycle))

    def observe(self, ctx, op, out) -> dict:
        """Outputs the checks need beyond the op's own, gathered after the
        timed phase; they join the canonical output compared with the
        reference."""
        return {}


# --------------------------------------------------------------------------
# tree_exact / round_cert: one op = one sweep trial


_RECORD_FIELDS = (
    "seed", "m", "n", "bspec", "lp_value", "ip_value", "ipgap", "tree_size",
    "nodes_expanded", "u_norm", "n0", "s", "round_ok", "cert_gap", "status",
    "knap_count",
)


def _trial_config(name: str, seed: int):
    from giplab import experiments

    if name == "tree_exact":
        return experiments.SweepConfig(
            m_list=(2, 3), n_list=(24, 32, 40), seeds_per_cell=STREAMS_PER_CELL,
            seed=seed, b_spec="zeros", rounding="never", exact_ip_max_n=40,
            parallelism=1,
        )
    # one pool per trial: each op that reaches rounding runs exactly one
    # C(24,8) subset search, so op cost does not depend on how many pools
    # a seed happens to need
    return experiments.SweepConfig(
        m_list=(2,), n_list=(400,), seeds_per_cell=STREAMS_PER_CELL,
        seed=seed, b_spec="zeros", rounding="auto", t=1, parallelism=1,
    )


def _trial_instance(cfg, stream, m, n):
    from giplab.instance import BSpec, generate
    from giplab.rng import RngHandle

    return generate(m, n, BSpec.parse(cfg.b_spec), RngHandle(cfg.seed, stream))


def _reaches_search(cfg, stream, m, n) -> bool:
    """HiGHS says the LP optimum is fractional and one pool's worth of zero
    columns passes the reduced-cost filter, so the trial runs the subset
    search instead of short-circuiting before it."""
    from giplab import rounding

    inst = _trial_instance(cfg, stream, m, n)
    status, _, res = highs_lp(inst)
    if status != 0:
        return False
    x = res.x
    if not np.any((x > 1e-6) & (x < 1.0 - 1e-6)):
        return False
    params = rounding.RoundingParams.defaults(m, n, t=cfg.t)
    u = np.maximum(-res.ineqlin.marginals, 0.0)
    rc = inst.c - inst.A.T @ u
    zero = x <= 1e-9
    filtered = int(np.sum(zero & (np.abs(rc) <= params.t * params.delta)))
    need = math.ceil(2.0 * math.sqrt(m)) * params.k * params.t
    return filtered >= need + 2  # margin against HiGHS/simplex rounding


class TrialWorkload(Workload):
    def build_ops(self, seed: int, count: int) -> list:
        cfg = _trial_config(self.name, seed)
        by_cell: dict = {}
        for stream, m, n, _ in cfg.trials():
            by_cell.setdefault((m, n), []).append((stream, m, n))
        cells = [by_cell[key] for key in sorted(by_cell)]
        ops = []
        for j in range(STREAMS_PER_CELL):
            for cell in cells:
                op = cell[j]
                if self.searches and not _reaches_search(cfg, *op):
                    continue
                ops.append(op)
                if len(ops) == count:
                    return ops
        raise ValueError("not enough trial streams for the requested op count")

    def context(self, seed: int, root: str):
        return _trial_config(self.name, seed)

    def run_op(self, ctx, op):
        from giplab import experiments

        stream, m, n = op
        return experiments.run_trial(
            ctx, stream, m, n, with_knapsack=self.name == "tree_exact"
        )

    def canonical(self, op, rec) -> dict:
        out = {"op": list(op)}
        for key in _RECORD_FIELDS:
            value = getattr(rec, key)
            out[key] = int(value) if isinstance(value, np.integer) else value
        return out

    def observe(self, ctx, op, rec) -> dict:
        """round_cert: the rounding outcome.  The trial record reads
        round_ok=False alike for a failed search, a pool too small and an
        unmet rounding bound.  A certificate with s > 0 can only come from a
        flip set the search found; any other trial is run once more with the
        tracer installed and the outcome read from its spans."""
        if not self.searches:
            return {}
        if rec.round_ok and rec.s > 0:
            return {"outcome": "flipped"}
        from spans import Tracer, rounding_by_op

        tracer = Tracer()
        tracer.install()
        try:
            self.run_op(ctx, op)
        finally:
            tracer.uninstall()
        outcome, evals = rounding_by_op(tracer.spans).get(None, ("not_called", 0))
        return {"outcome": search_outcome(outcome, evals)}

    def check(self, ctx, op, rec, seen) -> list[str]:
        from giplab import knapsack, lp

        stream, m, n = op
        want = "ok" if self.name == "tree_exact" else "cert_bound"
        if rec.status != want:
            return [f"status {rec.status!r}, expected {want!r}"]
        inst = _trial_instance(ctx, stream, m, n)
        errs = []
        status, value, _ = highs_lp(inst)
        if status != 0 or not close(rec.lp_value, value, LP_TOL):
            errs.append(f"lp_value {rec.lp_value!r} vs HiGHS {value!r}")
        if self.searches:
            if rec.round_ok is None:
                errs.append("rounding did not run")
            elif rec.round_ok and not rec.cert_gap >= -LP_TOL:
                errs.append(f"negative certified gap {rec.cert_gap!r}")
            return errs + outcome_problems(seen["outcome"])
        ip = highs_ip(inst)
        if ip is None or not close(rec.ip_value, ip, LP_TOL):
            errs.append(f"ip_value {rec.ip_value!r} vs HiGHS milp {ip!r}")
        if not rec.nodes_expanded <= rec.tree_size:
            errs.append("more nodes expanded than created")
        # the proxy count must agree with the other counting algorithm
        sol = lp.solve_lp(inst)
        weights = np.abs(inst.A.T @ sol.u_star - inst.c)
        other = "dfs_pruned" if n > knapsack.DFS_MAX_N else "meet_in_middle"
        count = knapsack.knapsack_count(weights, rec.ipgap, method=other).count
        if count != rec.knap_count:
            errs.append(f"knap_count {rec.knap_count} vs {other} {count}")
        return errs

    def cleanup(self, ctx) -> None:
        pass


# --------------------------------------------------------------------------
# lp_cli: one op = `giplab gen` then `giplab lp` on the written file

# largest first: a run of 6.5 cycles gives the first six combos one op more,
# which puts the median inside the (5,2000,scaled_ones) latency mode and p75
# inside (8,4000,scaled_ones).  With whole cycles both fall on a gap between
# two modes and jump from seed to seed.
_LP_GRID = ((8, 4000), (5, 2000), (3, 1000), (2, 400))
_LP_B = ("zeros", "gaussian", "scaled_ones:0.02")


def _cli_bspec(token: str, m: int):
    from giplab.instance import BSpec

    if token.startswith("scaled_ones:"):
        return BSpec("scaled_ones", (float(token.split(":", 1)[1]),) * m)
    return BSpec(token)


def _parse_lp_output(text: str) -> dict:
    """Canonical `giplab lp` output.  The pivot count is left out: it is a
    work count, which a faster simplex changes while the optimum stays."""
    fields = {}
    for line in text.splitlines():
        key, _, rest = line.partition(":")
        fields[key] = rest.strip()
    if fields.get("status") == "infeasible":
        return {"status": "infeasible",
                "farkas_u": [float(v) for v in fields["farkas_u"].split()]}
    ones, frac = [], []
    for tok in fields["x_nonzero"].split():
        i, v = tok.split("=")
        if abs(float(v) - 1.0) <= REF_TOL:
            ones.append(i)
        else:
            frac.append([int(i), float(v)])
    return {
        "status": "optimal",
        "value": float(fields["value"]),
        "u_star": [float(v) for v in fields["u_star"].split()],
        "x_ones_sha256": hashlib.sha256(" ".join(ones).encode()).hexdigest(),
        "x_frac": frac,
        "n0_size": int(fields["n0_size"]),
        "s_size": int(fields["s_size"]),
    }


class CliWorkload(Workload):
    def build_ops(self, seed: int, count: int) -> list:
        combos = [(m, n, b) for (m, n) in _LP_GRID for b in _LP_B]
        return [
            (*combos[i % len(combos)], (seed * 1_000_003 + i) % 2**63)
            for i in range(count)
        ]

    def context(self, seed: int, root: str):
        tmp = os.path.join(root, ".perfbench_tmp")
        os.makedirs(tmp, exist_ok=True)
        return os.path.join(tmp, f"lp_cli_{os.getpid()}.giplab")

    def run_op(self, path, op):
        from giplab import cli

        m, n, b, gen_seed = op
        gen_out, lp_out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(gen_out):
            gen_rc = cli.run_cli(["gen", "--m", str(m), "--n", str(n), "--b", b,
                                  "--seed", str(gen_seed), "--out", path])
        with contextlib.redirect_stdout(lp_out):
            lp_rc = cli.run_cli(["lp", path])
        return gen_rc, gen_out.getvalue(), lp_rc, lp_out.getvalue()

    def canonical(self, op, out) -> dict:
        gen_rc, gen_text, lp_rc, lp_text = out
        body = _parse_lp_output(lp_text) if lp_rc == 0 else {"raw": lp_text}
        # "wrote <path>: m=.. n=.. b_spec=..": the path differs between runs
        return {"op": list(op), "gen_rc": gen_rc, "gen": gen_text.split(": ", 1)[-1],
                "lp_rc": lp_rc, **body}

    def check(self, path, op, out, seen) -> list[str]:
        from giplab.instance import generate
        from giplab.rng import RngHandle

        gen_rc, gen_text, lp_rc, lp_text = out
        if gen_rc != 0 or lp_rc != 0 or not gen_text.startswith("wrote "):
            return [f"exit codes gen={gen_rc} lp={lp_rc}"]
        m, n, b, gen_seed = op
        parsed = _parse_lp_output(lp_text)
        inst = generate(m, n, _cli_bspec(b, m), RngHandle(gen_seed))
        status, value, _ = highs_lp(inst)
        if parsed["status"] == "infeasible":
            return [] if status == 2 else [f"infeasible, HiGHS status {status}"]
        errs = []
        if status != 0 or not close(parsed["value"], value, LP_TOL):
            errs.append(f"value {parsed['value']!r} vs HiGHS {value!r}")
        if parsed["s_size"] > m:
            errs.append("more fractional coordinates than rows")
        return errs

    def cleanup(self, path) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(path))


WORKLOADS = {
    w.name: w
    for w in (
        TrialWorkload(
            "tree_exact",
            ops_per_second=20.0, cycle=6, op_span="experiments.trial",
            fires=("instance.generate", "lp.solve_lp", "lp.child", "bnb.solve_ip",
                   "knapsack.reduced_cost_knapsack", "experiments.trial"),
        ),
        TrialWorkload(
            "round_cert",
            ops_per_second=0.8, cycle=1, op_span="experiments.trial",
            fires=("instance.generate", "lp.solve_lp", "rounding.round_pipeline",
                   "discrepancy.exact", "experiments.trial"),
            searches=True,
        ),
        CliWorkload(
            "lp_cli",
            ops_per_second=3.1, cycle=6, op_span="cli.pair",
            fires=("cli.run_cli", "instance.generate", "instance.write",
                   "instance.read", "lp.solve_lp", "cli.pair"),
        ),
    )
}
