"""Sweep harness: seeded trials over (m, n) grids with deterministic CSV output.

Every trial is identified by (master seed, stream index); the stream index
enumerates (m, n, seed_index) cells in sorted order, so any row can be
recomputed in isolation from the config alone.  Workers may run in parallel
(GIPLAB_THREADS overrides the config), but rows are buffered and emitted in
deterministic order, so parallel and serial runs produce identical files.

Timing columns are written as zero unless the config opts in; real wall
times would break byte-level reproducibility of re-runs.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import bnb, knapsack, lp, rounding
from .instance import BSpec, generate
from .numerics import theory_params
from .rng import RngHandle

__all__ = [
    "CSV_HEADER",
    "SweepConfig",
    "ExperimentRecord",
    "gap_sweep",
    "tree_sweep",
    "stats_check",
    "records_to_csv",
    "write_csv",
]

CSV_HEADER = (
    "seed,m,n,bspec,lp_value,ip_value,ipgap,tree_size,nodes_expanded,"
    "u_norm,n0,s,round_ok,cert_gap,lp_ms,ip_ms,round_ms,status"
)


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: grid, seeding, solver budgets, rounding parameters.

    `rounding` is "auto" (run the pipeline only when the exact IP budget is
    exceeded), "always", or "never".  k/delta/t/theta default to the
    per-cell calibrated values when left as None; every cell's values are
    checked here, before any trial runs.
    """

    m_list: tuple[int, ...]
    n_list: tuple[int, ...]
    seeds_per_cell: int = 10
    seed: int = 0
    b_spec: str = "zeros"
    k: int | None = None
    delta: float | None = None
    t: int | None = None
    theta: float | None = None
    node_limit: int = 1_000_000
    exact_ip_max_n: int = 30
    rounding: str = "auto"
    out: str | None = None
    parallelism: int | None = None
    record_timings: bool = False

    def __post_init__(self):
        if not self.m_list or not self.n_list:
            raise ValueError("m_list and n_list must be nonempty")
        if self.seeds_per_cell < 1:
            raise ValueError("seeds_per_cell must be >= 1")
        if self.rounding not in ("auto", "always", "never"):
            raise ValueError("rounding must be auto, always, or never")
        if self.node_limit < 1:
            raise ValueError("node_limit must be >= 1")
        for m in self.m_list:
            for n in self.n_list:
                _cell_params(self, m, n)

    @classmethod
    def from_json(cls, text: str) -> "SweepConfig":
        data = json.loads(text)
        for key in ("m_list", "n_list"):
            if key in data:
                data[key] = tuple(int(v) for v in data[key])
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def trials(self) -> list[tuple[int, int, int, int]]:
        """(stream, m, n, seed_index) in deterministic order."""
        out = []
        stream = 0
        for m in sorted(self.m_list):
            for n in sorted(self.n_list):
                for j in range(self.seeds_per_cell):
                    out.append((stream, m, n, j))
                    stream += 1
        return out


@dataclass(frozen=True, eq=False)
class ExperimentRecord:
    """One CSV row; None fields render as empty cells."""

    seed: int
    m: int
    n: int
    bspec: str
    lp_value: float | None = None
    ip_value: float | None = None
    ipgap: float | None = None
    tree_size: int | None = None
    nodes_expanded: int | None = None
    u_norm: float | None = None
    n0: int | None = None
    s: int | None = None
    round_ok: bool | None = None
    cert_gap: float | None = None
    lp_ms: int = 0
    ip_ms: int = 0
    round_ms: int = 0
    status: str = "ok"
    knap_count: int | None = None   # tree sweeps only; side file
    knap_bound: float | None = None

    def to_csv_row(self, record_timings: bool = False) -> str:
        def cell(v):
            if v is None:
                return ""
            if isinstance(v, bool):
                return "1" if v else "0"
            if isinstance(v, float):
                return repr(v)
            return str(v)

        ms = (self.lp_ms, self.ip_ms, self.round_ms) if record_timings else (0, 0, 0)
        cells = [
            cell(self.seed), cell(self.m), cell(self.n), self.bspec,
            cell(self.lp_value), cell(self.ip_value), cell(self.ipgap),
            cell(self.tree_size), cell(self.nodes_expanded), cell(self.u_norm),
            cell(self.n0), cell(self.s), cell(self.round_ok), cell(self.cert_gap),
            cell(ms[0]), cell(ms[1]), cell(ms[2]), self.status,
        ]
        return ",".join(cells)


def _cell_params(cfg: SweepConfig, m: int, n: int) -> rounding.RoundingParams:
    return rounding.RoundingParams.defaults(
        m, n, k=cfg.k, delta=cfg.delta, t=cfg.t, theta=cfg.theta
    )


def run_trial(cfg: SweepConfig, stream: int, m: int, n: int,
              with_knapsack: bool = False) -> ExperimentRecord:
    """Solve one seeded trial; failures land in the status column."""
    rec = dict(seed=stream, m=m, n=n, bspec=cfg.b_spec)
    try:
        return _run_trial_body(cfg, stream, m, n, with_knapsack, rec)
    except Exception as exc:  # never abort a sweep on one bad cell
        return ExperimentRecord(
            seed=stream, m=m, n=n, bspec=cfg.b_spec,
            status=f"error:{type(exc).__name__}",
        )


def _run_trial_body(cfg, stream, m, n, with_knapsack, rec) -> ExperimentRecord:
    handle = RngHandle(cfg.seed, stream)
    b_spec = BSpec.parse(cfg.b_spec)
    inst = generate(m, n, b_spec, handle)

    t0 = time.perf_counter()
    try:
        sol = lp.solve_lp(inst)
    except lp.InfeasibleError:
        return ExperimentRecord(**rec, status="lp_infeasible")
    except lp.IterationLimitError:
        return ExperimentRecord(**rec, status="lp_iteration_limit")
    rec["lp_ms"] = int(1000 * (time.perf_counter() - t0))
    rec["lp_value"] = sol.value
    rec["u_norm"] = float(np.linalg.norm(sol.u_star))
    rec["n0"] = int(sol.n0.size)
    rec["s"] = int(sol.s.size)

    status = "ok"
    exact_ip = n <= cfg.exact_ip_max_n
    if exact_ip:
        t0 = time.perf_counter()
        res = bnb.solve_ip(inst, node_limit=cfg.node_limit)
        rec["ip_ms"] = int(1000 * (time.perf_counter() - t0))
        rec["tree_size"] = res.nodes_created
        rec["nodes_expanded"] = res.nodes_expanded
        if res.status == "Optimal":
            rec["ip_value"] = res.opt_value
            rec["ipgap"] = max(sol.value - res.opt_value, 0.0)
        else:
            status = "NodeLimit" if res.status == "NodeLimit" else "ip_infeasible"
    else:
        status = "cert_bound"

    do_round = cfg.rounding == "always" or (cfg.rounding == "auto" and not exact_ip)
    if do_round:
        params = _cell_params(cfg, m, n)
        t0 = time.perf_counter()
        try:
            cert = rounding.round_pipeline(inst, sol, params, handle.derive(9))
            rec["round_ok"] = cert.feasible
            if cert.feasible:
                rec["cert_gap"] = cert.certified_gap
        except rounding.PoolTooSmallError:
            rec["round_ok"] = False
            status = status if status != "ok" else "pool_too_small"
        except rounding.RoundingBoundNotMetError:
            rec["round_ok"] = False
            status = status if status != "ok" else "round_bound_not_met"
        rec["round_ms"] = int(1000 * (time.perf_counter() - t0))

    if with_knapsack and exact_ip and rec.get("ipgap") is not None:
        try:
            kc = knapsack.reduced_cost_knapsack(sol, rec["ipgap"])
        except knapsack.CountBudgetError:
            pass  # the trial keeps its LP and IP fields, without a proxy row
        else:
            rec["knap_count"] = kc.count
            rec["knap_bound"] = knapsack.expectation_bound(n, rec["ipgap"])

    return ExperimentRecord(**rec, status=status)


def _run_trial_star(args):
    return run_trial(*args)


def _parallelism(cfg: SweepConfig) -> int:
    env = os.environ.get("GIPLAB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"GIPLAB_THREADS must be an integer, got {env!r}"
            ) from None
    if cfg.parallelism is not None:
        return max(1, cfg.parallelism)
    return min(os.cpu_count() or 1, 8)


def _run_sweep(cfg: SweepConfig, with_knapsack: bool) -> list[ExperimentRecord]:
    trials = cfg.trials()
    jobs = [(cfg, stream, m, n, with_knapsack) for (stream, m, n, _) in trials]
    workers = _parallelism(cfg)
    if workers <= 1 or len(jobs) <= 1:
        records = [_run_trial_star(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_trial_star, jobs, chunksize=4))
    # map preserves submission order, which is the deterministic trial order
    return records


def gap_sweep(cfg: SweepConfig) -> list[ExperimentRecord]:
    """One record per (m, n, seed): LP value, exact gap where the IP budget
    allows, and the rounding certificate as a flagged upper bound beyond it."""
    records = _run_sweep(cfg, with_knapsack=False)
    if cfg.out:
        write_csv(records, cfg.out, record_timings=cfg.record_timings)
    return records


def tree_sweep(cfg: SweepConfig) -> list[ExperimentRecord]:
    """gap_sweep plus the reduced-cost knapsack proxy and the
    e**(2*sqrt(2*n*gap)) envelope; the proxies go to a side file
    `<out>.knap.csv` since the main header is fixed."""
    records = _run_sweep(cfg, with_knapsack=True)
    if cfg.out:
        write_csv(records, cfg.out, record_timings=cfg.record_timings)
        side = cfg.out + ".knap.csv"
        with open(side, "w", encoding="utf-8") as fh:
            fh.write("seed,m,n,ipgap,tree_size,knap_count,envelope\n")
            for r in records:
                if r.knap_count is None:
                    continue
                fh.write(
                    f"{r.seed},{r.m},{r.n},{repr(r.ipgap)},{r.tree_size},"
                    f"{r.knap_count},{repr(r.knap_bound)}\n"
                )
    return records


def stats_check(
    m: int,
    n: int,
    seeds: int,
    master_seed: int = 0,
    b_spec: str = "zeros",
    epsilon: float = 1.0 / 9.0,
) -> dict:
    """Empirical frequencies of the dual-norm / value / zero-count events.

    Reports both the parameterized events (value >= alpha*n, the dual-norm
    bound from epsilon and delta, zero count >= (1-beta)*n - m) and the
    fixed-constant variants (dual norm <= 3, zero count >= n/500) that the
    rounding pipeline conditions on.
    """
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    spec = BSpec.parse(b_spec)
    counts = {
        "value_ge_alpha_n": 0,
        "u_norm_le_bound": 0,
        "n0_ge_beta_bound": 0,
        "u_norm_le_3": 0,
        "n0_ge_n_over_500": 0,
    }
    alphas = []
    lp_failures = 0
    for j in range(seeds):
        handle = RngHandle(master_seed, j)
        inst = generate(m, n, spec, handle)
        delta = math.sqrt(2.0 * math.pi) * float(
            np.linalg.norm(np.minimum(inst.b, 0.0))
        ) / n
        params = theory_params(epsilon, delta)
        alphas.append(params.alpha)
        try:
            sol = lp.solve_lp(inst)
        except (lp.InfeasibleError, lp.IterationLimitError):
            lp_failures += 1
            continue
        u_norm = float(np.linalg.norm(sol.u_star))
        if sol.value >= params.alpha * n:
            counts["value_ge_alpha_n"] += 1
        if u_norm <= params.dual_norm_bound:
            counts["u_norm_le_bound"] += 1
        if sol.n0.size >= (1.0 - params.beta) * n - m:
            counts["n0_ge_beta_bound"] += 1
        if u_norm <= 3.0:
            counts["u_norm_le_3"] += 1
        if sol.n0.size >= n / 500.0:
            counts["n0_ge_n_over_500"] += 1
    freq = {key: val / seeds for key, val in counts.items()}
    return {
        "m": m,
        "n": n,
        "seeds": seeds,
        "master_seed": master_seed,
        "b_spec": b_spec,
        "epsilon": epsilon,
        "alpha_mean": float(np.mean(alphas)),
        "lp_failures": lp_failures,
        "frequencies": freq,
    }


def records_to_csv(records, record_timings: bool = False) -> str:
    lines = [CSV_HEADER]
    lines.extend(r.to_csv_row(record_timings) for r in records)
    return "\n".join(lines) + "\n"


def write_csv(records, path, record_timings: bool = False) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(records_to_csv(records, record_timings))
