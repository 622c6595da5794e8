"""Sweep harness: seeded trials over (m, n) grids with deterministic CSV output.

Every trial is identified by (master seed, stream index); the stream index
enumerates (m, n, seed_index) cells in sorted order, so any row can be
recomputed in isolation from the config alone.  Workers may run in parallel
(`parallelism`, the config's one worker count), but rows are buffered and
emitted in deterministic order, so parallel and serial runs produce
identical files.

Rows are laid out by the frozen CSV_HEADER.  Its three timing columns are
always written as zero; real wall times would break byte-level
reproducibility of re-runs.
"""

from __future__ import annotations

import json
import math
import os
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
    "run_trial",
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
    checked here, before any trial runs, as are the integer fields, the
    seed range and the b recipe against every m.  `parallelism` is the
    number of worker processes, min(cores, 8) when left as None.
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

    def __post_init__(self):
        if not self.m_list or not self.n_list:
            raise ValueError("m_list and n_list must be nonempty")
        ints = [(key, getattr(self, key)) for key in (
            "seeds_per_cell", "seed", "node_limit", "exact_ip_max_n")]
        ints += [(key, getattr(self, key)) for key in ("k", "t", "parallelism")
                 if getattr(self, key) is not None]
        ints += [("m_list", v) for v in self.m_list]
        ints += [("n_list", v) for v in self.n_list]
        for key, value in ints:
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{key} must hold integers, got {value!r}")
        for key in ("m_list", "n_list"):
            for value in getattr(self, key):
                if value < 1:
                    raise ValueError(f"{key} entries must be >= 1, got {value!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must lie in [0, 2**64)")
        if not isinstance(self.b_spec, str):
            raise ValueError(f"b_spec must be a recipe string, got {self.b_spec!r}")
        spec = BSpec.parse(self.b_spec)
        for m in self.m_list:
            spec.check_count(m)
        if self.seeds_per_cell < 1:
            raise ValueError("seeds_per_cell must be >= 1")
        if self.rounding not in ("auto", "always", "never"):
            raise ValueError("rounding must be auto, always, or never")
        if self.node_limit < 1:
            raise ValueError("node_limit must be >= 1")
        if self.parallelism is not None and self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        for m in self.m_list:
            for n in self.n_list:
                _cell_params(self, m, n)

    @classmethod
    def from_json(cls, text: str) -> "SweepConfig":
        data = json.loads(text)
        for key in ("m_list", "n_list"):
            if key in data:
                data[key] = tuple(data[key])
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


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)


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
    status: str = "ok"
    knap_count: int | None = None   # tree sweeps only; side file

    def to_csv_row(self) -> str:
        """The cells under CSV_HEADER; the timing columns, which are no
        fields, read 0."""
        return ",".join(_cell(getattr(self, key, 0)) for key in CSV_HEADER.split(","))


def _cell_params(cfg: SweepConfig, m: int, n: int) -> rounding.RoundingParams:
    return rounding.RoundingParams.defaults(
        m, n, k=cfg.k, delta=cfg.delta, t=cfg.t, theta=cfg.theta
    )


def run_trial(cfg: SweepConfig, stream: int, m: int, n: int,
              with_knapsack: bool = False) -> ExperimentRecord:
    """Solve one seeded trial; failures land in the status column."""
    fields = {}
    try:
        status = _solve_trial(cfg, stream, m, n, with_knapsack, fields)
    except Exception as exc:  # never abort a sweep on one bad cell
        fields, status = {}, f"error:{type(exc).__name__}"
    return ExperimentRecord(
        seed=stream, m=m, n=n, bspec=cfg.b_spec, status=status, **fields
    )


def _solve_trial(cfg, stream, m, n, with_knapsack, rec) -> str:
    """Fill `rec` with the trial's record fields and return its status."""
    handle = RngHandle(cfg.seed, stream)
    inst = generate(m, n, BSpec.parse(cfg.b_spec), handle)
    try:
        sol = lp.solve_lp(inst)
    except lp.InfeasibleError:
        return "lp_infeasible"
    except lp.IterationLimitError:
        return "lp_iteration_limit"
    rec["lp_value"] = sol.value
    rec["u_norm"] = float(np.linalg.norm(sol.u_star))
    rec["n0"] = int(sol.n0.size)
    rec["s"] = int(sol.s.size)

    status = "ok"
    exact_ip = n <= cfg.exact_ip_max_n
    if exact_ip:
        res = bnb.solve_ip(inst, node_limit=cfg.node_limit, root=sol)
        rec["tree_size"] = res.nodes_created
        rec["nodes_expanded"] = res.nodes_expanded
        if res.status == "Optimal":
            rec["ip_value"] = res.opt_value
            rec["ipgap"] = bnb.integrality_gap(sol.value, res.opt_value)
        else:
            status = "NodeLimit" if res.status == "NodeLimit" else "ip_infeasible"
    else:
        status = "cert_bound"

    do_round = cfg.rounding == "always" or (cfg.rounding == "auto" and not exact_ip)
    if do_round:
        params = _cell_params(cfg, m, n)
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

    if with_knapsack and rec.get("ipgap") is not None:
        try:
            kc = knapsack.reduced_cost_knapsack(sol, rec["ipgap"])
        except knapsack.CountBudgetError:
            pass  # the trial keeps its LP and IP fields, without a proxy row
        else:
            rec["knap_count"] = kc.count
    return status


def _parallelism(cfg: SweepConfig) -> int:
    if cfg.parallelism is not None:
        return cfg.parallelism
    return min(os.cpu_count() or 1, 8)


def _run_sweep(cfg: SweepConfig, with_knapsack: bool) -> list[ExperimentRecord]:
    """Every trial's record in the deterministic trial order (map keeps
    submission order); the CSV goes to cfg.out when it is set."""
    jobs = [(cfg, stream, m, n, with_knapsack) for (stream, m, n, _) in cfg.trials()]
    workers = _parallelism(cfg)
    if workers <= 1 or len(jobs) <= 1:
        records = [run_trial(*job) for job in jobs]
    else:
        # imported here: a serial sweep, and every import of the package,
        # does not pay for the process-pool machinery
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run_trial, *zip(*jobs), chunksize=4))
    if cfg.out:
        write_csv(records, cfg.out)
    return records


def gap_sweep(cfg: SweepConfig) -> list[ExperimentRecord]:
    """One record per (m, n, seed): LP value, exact gap where the IP budget
    allows, and the rounding certificate as a flagged upper bound beyond it."""
    return _run_sweep(cfg, with_knapsack=False)


def tree_sweep(cfg: SweepConfig) -> list[ExperimentRecord]:
    """gap_sweep plus the reduced-cost knapsack proxy and the
    e**(2*sqrt(2*n*gap)) envelope; the proxies go to a side file
    `<out>.knap.csv` since the main header is fixed."""
    records = _run_sweep(cfg, with_knapsack=True)
    if cfg.out:
        with open(cfg.out + ".knap.csv", "w", encoding="utf-8") as fh:
            fh.write("seed,m,n,ipgap,tree_size,knap_count,envelope\n")
            for r in records:
                if r.knap_count is None:
                    continue
                envelope = knapsack.expectation_bound(r.n, r.ipgap)
                cells = (r.seed, r.m, r.n, r.ipgap, r.tree_size, r.knap_count, envelope)
                fh.write(",".join(map(_cell, cells)) + "\n")
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
        u_norm_ok, n0_ok = rounding.fixed_events(u_norm, sol.n0.size, n)
        counts["u_norm_le_3"] += u_norm_ok
        counts["n0_ge_n_over_500"] += n0_ok
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


def records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    lines.extend(r.to_csv_row() for r in records)
    return "\n".join(lines) + "\n"


def write_csv(records, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(records_to_csv(records))
