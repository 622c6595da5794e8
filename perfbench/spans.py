"""In-memory span tracing around giplab's public functions.

A :class:`Tracer` replaces module attributes with wrappers that record one
span per call: name, start, end, parent span, op id and a few work counts
read from the call's result.  Each function is wrapped under the name its
caller looks it up by: modules that bind a function with ``from ... import``
get their own wrapper, because patching the defining module would not reach
them.  Spans stay in memory; :func:`layer_metrics` turns them into the
per-layer metrics after the run.
"""

from __future__ import annotations

import importlib
import math
import os
import time
from dataclasses import dataclass, field

# (module, attribute, span name).  The first block is bound by
# ``from ... import`` in its caller, the second is looked up via the module.
TARGETS = (
    ("giplab.bnb", "solve_box_lp", "lp.child"),
    ("giplab.bnb", "solve_lp", "lp.solve_lp"),
    ("giplab.rounding", "disc_exact", "discrepancy.exact"),
    ("giplab.rounding", "disc_search", "discrepancy.search"),
    ("giplab.experiments", "generate", "instance.generate"),
    ("giplab.cli", "generate", "instance.generate"),
    ("giplab.cli", "read_instance", "instance.read"),
    ("giplab.cli", "write_instance", "instance.write"),
    ("giplab.lp", "solve_lp", "lp.solve_lp"),
    ("giplab.bnb", "solve_ip", "bnb.solve_ip"),
    ("giplab.rounding", "round_pipeline", "rounding.round_pipeline"),
    ("giplab.knapsack", "reduced_cost_knapsack", "knapsack.reduced_cost_knapsack"),
    ("giplab.cli", "run_cli", "cli.run_cli"),
)

CERT_TOL = 1e-7


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    op: int | None = None
    counts: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Seconds of each span not covered by its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def _rounding_outcome(tracer, span, args, result, exc):
    from giplab import rounding

    if isinstance(exc, rounding.PoolTooSmallError):
        span.counts["outcome"] = "pool_too_small"
        return
    if isinstance(exc, rounding.RoundingBoundNotMetError):
        span.counts["outcome"] = "bound_not_met"
        return
    if exc is not None:
        return
    instance, lp_solution = args[0], args[1]
    if lp_solution.s.size == 0:
        outcome = "short_circuit"
    elif result.flip_set:
        outcome = "flipped"
    else:
        outcome = "search_failed"
    span.counts["outcome"] = outcome
    if result.feasible:
        slack = instance.A @ result.x_double_prime - instance.b
        if float(slack.max()) > CERT_TOL:
            tracer.cert_failures.append(
                (tracer.op, f"A x'' exceeds b by {float(slack.max())!r}"))
        if not rounding.gap_chain_check(result, instance, lp_solution):
            tracer.cert_failures.append((tracer.op, "gap_chain_check rejected a certificate"))


def _record(name, tracer, span, args, result, exc):
    from giplab.lp import InfeasibleError

    c = span.counts
    if name == "lp.solve_lp" or name == "lp.child":
        if exc is None:
            c["pivots"] = int(result.pivots)
        elif isinstance(exc, InfeasibleError):
            c["infeasible"] = 1
    elif name == "bnb.solve_ip" and exc is None:
        c["nodes_created"] = int(result.nodes_created)
        c["nodes_expanded"] = int(result.nodes_expanded)
    elif name.startswith("discrepancy.") and exc is None:
        c["evaluations"] = int(result.evaluations)
        c["found"] = int(result.found)
    elif name == "knapsack.reduced_cost_knapsack" and exc is None:
        c["method"] = result.method
        if result.method == "meet_in_middle":
            half = result.n // 2
            c["mim_sums"] = (1 << half) + (1 << (result.n - half))
    elif name == "instance.write" and exc is None:
        c["file_bytes"] = os.path.getsize(args[0])
    elif name == "rounding.round_pipeline":
        _rounding_outcome(tracer, span, args, result, exc)


class Tracer:
    """Collects spans; :meth:`install` wraps every target, :meth:`uninstall`
    puts the original objects back."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.cert_failures: list[tuple[int | None, str]] = []  # (op, reason)
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op=self.op))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self.stack.pop()
        return span

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span = tracer.close(idx)
                _record(name, tracer, span, args, None, exc)
                raise
            span = tracer.close(idx)
            _record(name, tracer, span, args, result, None)
            return result

        wrapper.__wrapped__ = fn
        wrapper.perfbench_span = name
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, name in TARGETS:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()


def wrapped_targets() -> list[str]:
    """Targets currently holding a tracer wrapper (empty when none is installed)."""
    out = []
    for mod_name, attr, _ in TARGETS:
        mod = importlib.import_module(mod_name)
        if hasattr(getattr(mod, attr), "perfbench_span"):
            out.append(f"{mod_name}.{attr}")
    return out


def work_counts(spans: list[Span]) -> dict:
    """Exact work counts of a traced pass; two passes over the same ops must
    give equal dicts."""
    out: dict = {}
    for s in spans:
        key = s.name
        out[key + ".calls"] = out.get(key + ".calls", 0) + 1
        for k, v in s.counts.items():
            if isinstance(v, str):
                k, v = f"{k}.{v}", 1
            out[f"{key}.{k}"] = out.get(f"{key}.{k}", 0) + v
    return out


def rounding_by_op(spans: list[Span]) -> dict:
    """op id -> (round_pipeline outcome, subsets the discrepancy search
    evaluated in that op), for every op that called round_pipeline.  An
    outcome of "raised" is an exception the pipeline does not type."""
    outcome, evals = {}, {}
    for s in spans:
        if s.name == "rounding.round_pipeline":
            outcome[s.op] = s.counts.get("outcome", "raised")
        elif s.name.startswith("discrepancy."):
            evals[s.op] = evals.get(s.op, 0) + s.counts.get("evaluations", 0)
    return {op: (o, evals.get(op, 0)) for op, o in outcome.items()}


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of one traced pass, keyed by the BENCHMARK.json names."""
    selfs = self_times(spans)
    ms: dict = {}
    self_ms: dict = {}
    for s, st in zip(spans, selfs):
        ms[s.name] = ms.get(s.name, 0.0) + 1000.0 * (s.end - s.start)
        self_ms[s.name] = self_ms.get(s.name, 0.0) + 1000.0 * st
    w = work_counts(spans)

    def g(key):
        return w.get(key, 0)

    lp_pivots = g("lp.solve_lp.pivots")
    child_pivots = g("lp.child.pivots")
    exact_evals = g("discrepancy.exact.evaluations")
    searched = g("discrepancy.exact.calls") + g("discrepancy.search.calls")
    nodes = g("bnb.solve_ip.nodes_created")
    rcalls = g("rounding.round_pipeline.calls")
    flipped = g("rounding.round_pipeline.outcome.flipped")
    return {
        "instance.generate.calls": g("instance.generate.calls"),
        "instance.generate.ms": ms.get("instance.generate", 0.0),
        "instance.write.ms": ms.get("instance.write", 0.0),
        "instance.read.ms": ms.get("instance.read", 0.0),
        "instance.file_bytes": g("instance.write.file_bytes"),
        "lp.solve_lp.calls": g("lp.solve_lp.calls"),
        "lp.solve_lp.ms": ms.get("lp.solve_lp", 0.0),
        "lp.solve_lp.pivots": lp_pivots,
        "lp.solve_lp.us_per_pivot": 1000.0 * _ratio(ms.get("lp.solve_lp", 0.0), lp_pivots),
        "lp.child.calls": g("lp.child.calls"),
        "lp.child.ms": ms.get("lp.child", 0.0),
        "lp.child.pivots": child_pivots,
        "lp.child.infeasible": g("lp.child.infeasible"),
        "lp.child.us_per_pivot": 1000.0 * _ratio(ms.get("lp.child", 0.0), child_pivots),
        "bnb.solve_ip.calls": g("bnb.solve_ip.calls"),
        "bnb.self_ms": self_ms.get("bnb.solve_ip", 0.0),
        "bnb.nodes_created": nodes,
        "bnb.nodes_expanded": g("bnb.solve_ip.nodes_expanded"),
        "bnb.ms_per_node": _ratio(ms.get("bnb.solve_ip", 0.0), nodes),
        "rounding.calls": rcalls,
        "rounding.self_ms": self_ms.get("rounding.round_pipeline", 0.0),
        "rounding.short_circuit": g("rounding.round_pipeline.outcome.short_circuit"),
        "rounding.flipped": flipped,
        "rounding.search_failed": g("rounding.round_pipeline.outcome.search_failed"),
        "rounding.pool_too_small": g("rounding.round_pipeline.outcome.pool_too_small"),
        "rounding.bound_not_met": g("rounding.round_pipeline.outcome.bound_not_met"),
        "rounding.flip_ratio": _ratio(flipped, rcalls),
        "discrepancy.exact.calls": g("discrepancy.exact.calls"),
        "discrepancy.exact.ms": ms.get("discrepancy.exact", 0.0),
        "discrepancy.exact.evaluations": exact_evals,
        "discrepancy.exact.ns_per_eval": 1e6 * _ratio(ms.get("discrepancy.exact", 0.0), exact_evals),
        "discrepancy.found_ratio": _ratio(
            g("discrepancy.exact.found") + g("discrepancy.search.found"), searched
        ),
        "discrepancy.search.calls": g("discrepancy.search.calls"),
        "discrepancy.search.ms": ms.get("discrepancy.search", 0.0),
        "knapsack.calls": g("knapsack.reduced_cost_knapsack.calls"),
        "knapsack.ms": ms.get("knapsack.reduced_cost_knapsack", 0.0),
        "knapsack.dfs.calls": g("knapsack.reduced_cost_knapsack.method.dfs_pruned"),
        "knapsack.mim.calls": g("knapsack.reduced_cost_knapsack.method.meet_in_middle"),
        "knapsack.mim.sums_computed": g("knapsack.reduced_cost_knapsack.mim_sums"),
        "experiments.trial.self_ms": self_ms.get("experiments.trial", 0.0),
        "cli.self_ms": self_ms.get("cli.run_cli", 0.0),
    }
