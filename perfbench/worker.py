"""One workload process, launched by run.py with the thread pins set.

    worker.py --probe WORKLOAD
        import what the workload's first op needs, then print the monotonic
        clock and the machine-speed scale; run.py turns them into one
        set-up time sample.

    worker.py --build W --seed S --seconds T --trace 0|1
        print the run's ops as JSON.  Choosing them may take scipy's HiGHS,
        which giplab does not import, so it runs in a process of its own.

    worker.py --workload W --seed S --seconds T --trace 0|1 < ops.json
        untraced: time a closed loop of ops, with machine-speed calibration
        between ops, then check every output.
        traced: untraced, traced, untraced and traced passes over the same
        ops; work counts of the two traced passes must be equal.
    The last stdout line is a JSON object for run.py.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

PINS = {"GIPLAB_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def probe(name: str) -> None:
    if name == "lp_cli":
        from giplab import cli  # noqa: F401
    else:
        from giplab import experiments  # noqa: F401
    ready = time.monotonic()
    from calibrate import Calibrator

    calibrator = Calibrator()
    calibrator.samples = [calibrator.kernel() for _ in range(3)]
    print(ready, calibrator.scale(), flush=True)


def environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{k: os.environ.get(k) for k in PINS},
    }


@dataclass
class Pass:
    outputs: list
    latencies: list      # seconds per op
    mids: list           # perf_counter at each op's midpoint
    errors: dict         # op index -> reason
    wall: float


def run_pass(w, ctx, ops, cap_s, tracer=None, calibrator=None) -> Pass:
    """Closed loop, one client: each op starts when the previous one ended.
    Past cap_s it stops, but only after MIN_OPS ops.  The calibrator, if
    given, runs between ops, outside the latencies."""
    from workloads import MIN_OPS

    p = Pass([], [], [], {}, 0.0)
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if i >= MIN_OPS and time.perf_counter() - start > cap_s:
            break
        if calibrator is not None:
            calibrator.tick()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = w.run_op(ctx, op)
            else:
                tracer.op = i
                idx = tracer.open(w.op_span)
                try:
                    out = w.run_op(ctx, op)
                finally:
                    tracer.close(idx)
        except Exception as exc:
            out = None
            p.errors[i] = f"raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        p.latencies.append(t1 - t0)
        p.mids.append((t0 + t1) / 2.0)
        p.outputs.append(out)
    p.wall = time.perf_counter() - start
    return p


def load_reference(name: str, seed: int):
    path = os.path.join(HERE, "reference", f"{name}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    return ref["ops"] if ref["seed"] == seed else None


def check_all(w, ctx, ops, outputs, errors, reference) -> dict:
    """Failure reason per op index; an op fails on a raise, an error status,
    an oracle disagreement or a reference mismatch.  What the workload
    observes after the op joins its canonical output."""
    from workloads import compare_reference

    failures = dict(errors)
    for i, out in enumerate(outputs):
        if i in failures:
            continue
        try:
            seen = w.observe(ctx, ops[i], out)
            errs = w.check(ctx, ops[i], out, seen)
            if reference is not None and i < len(reference):
                got = json.loads(json.dumps({**w.canonical(ops[i], out), **seen}))
                errs += compare_reference(reference[i], got)
        except Exception as exc:
            errs = [f"check raised {type(exc).__name__}: {exc}"]
        if errs:
            failures[i] = "; ".join(errs[:3])
    return failures


def untraced(w, ctx, ops, seconds, seed) -> dict:
    from calibrate import Calibrator
    from spans import wrapped_targets
    from stats import tail

    cap = min(3.0 * seconds, 120.0)
    calibrator = Calibrator()
    w.run_op(ctx, ops[0])  # warm-up: first-call costs are not part of an op
    gc.collect()
    timed = run_pass(w, ctx, ops, cap, calibrator=calibrator)
    calibrator.tick(force=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t0 = time.perf_counter()
    failures = check_all(w, ctx, ops, timed.outputs, timed.errors,
                         load_reference(w.name, seed))
    check_s = time.perf_counter() - t0
    wrapped = wrapped_targets()
    lat = timed.latencies
    passed = len(lat) - len(failures)
    scales = [calibrator.scale_at(t) for t in timed.mids]
    scaled = [x * f for x, f in zip(lat, scales)]
    pct, tail_s, count = tail(scaled)
    return {
        "attempted": len(lat),
        "failed": len(failures),
        "problems": [f"untraced run found wrappers on {wrapped}"] if wrapped else [],
        "failures": {str(k): v for k, v in sorted(failures.items())[:20]},
        "metrics": {
            "ops_per_s": passed / sum(scaled),
            "op_p50_ms": 1000.0 * statistics.median(scaled),
            "op_tail_ms": 1000.0 * tail_s,
            "peak_rss_mb": rss_mb,
        },
        "tail_percentile": pct,
        "samples": count,
        "wall_clock": {
            "ops_per_s": passed / sum(lat),
            "op_p50_ms": 1000.0 * statistics.median(lat),
            "op_tail_ms": 1000.0 * tail(lat)[1],
            "timed_s": sum(lat),
        },
        "speed_scale_median": statistics.median(scales),
        "calibrations": len(calibrator.samples),
        "check_s": check_s,
    }


def scaled_time(p: Pass, calibrator) -> float:
    return sum(x * calibrator.scale_at(t) for x, t in zip(p.latencies, p.mids))


def traced(w, ctx, ops, seed) -> dict:
    """Passes: untraced (warm-up, outputs for the checks), traced, untraced,
    traced.  The overhead compares the last two, scaled to the reference
    machine speed; layer metrics come from the last traced pass and must
    repeat the work counts of the first."""
    from calibrate import Calibrator
    from spans import (TARGETS, Tracer, layer_metrics, rounding_by_op, work_counts,
                       wrapped_targets)
    from workloads import outcome_problems, search_outcome

    cap = float("inf")
    originals = [getattr(importlib.import_module(m), a) for m, a, _ in TARGETS]
    base = run_pass(w, ctx, ops, cap)
    tracer = Tracer()
    calibrator = Calibrator()
    passes = []
    for _ in range(2):
        tracer.spans = []
        tracer.install()
        try:
            traced_pass = run_pass(w, ctx, ops, cap, tracer, calibrator)
        finally:
            tracer.uninstall()
        passes.append((traced_pass, tracer.spans))
        if len(passes) == 1:
            untraced_pass = run_pass(w, ctx, ops, cap, calibrator=calibrator)
    calibrator.tick(force=True)
    problems = []
    restored = [getattr(importlib.import_module(m), a) for m, a, _ in TARGETS]
    if any(a is not b for a, b in zip(originals, restored)) or wrapped_targets():
        problems.append("wrapped attributes were not restored")
    counts = [work_counts(spans) for _, spans in passes]
    if counts[0] != counts[1]:
        diff = sorted(k for k in set(counts[0]) | set(counts[1])
                      if counts[0].get(k) != counts[1].get(k))
        problems.append(f"work counts differ between traced passes: {diff}")
    silent = [name for name in w.fires if not counts[0].get(name + ".calls")]
    if silent:
        problems.append(f"wrappers recorded no calls: {silent}")

    failures = check_all(w, ctx, ops, base.outputs, base.errors,
                         load_reference(w.name, seed))
    for p, spans in passes:
        rounded = rounding_by_op(spans)
        for i, out in enumerate(p.outputs):
            if w.searches and i not in p.errors:
                outcome = search_outcome(*rounded.get(i, ("not_called", 0)))
                for reason in outcome_problems(outcome):
                    failures.setdefault(i, "traced: " + reason)
            if i in p.errors:
                failures.setdefault(i, p.errors[i])
            elif i not in base.errors and w.canonical(ops[i], out) != w.canonical(
                    ops[i], base.outputs[i]):
                failures.setdefault(i, "traced output differs from untraced")
    for i, reason in tracer.cert_failures:
        failures.setdefault(i, reason)
    metrics = layer_metrics(passes[1][1])
    metrics["trace.overhead"] = (scaled_time(untraced_pass, calibrator)
                                 / scaled_time(passes[1][0], calibrator))
    return {
        "attempted": len(ops),
        "failed": len(failures),
        "problems": problems,
        "failures": {str(k): v for k, v in sorted(failures.items())[:20]},
        "metrics": metrics,
        "work_counts": counts[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--probe")
    parser.add_argument("--build")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.probe:
        probe(args.probe)
        return 0
    unpinned = {k: os.environ.get(k) for k, v in PINS.items() if os.environ.get(k) != v}
    if unpinned:
        print(f"error: thread pins not set: {unpinned}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.build:
        w = WORKLOADS[args.build]
        n_ops = w.op_count(args.seconds)
        if args.trace:
            n_ops = w.trace_count(n_ops)
        print(json.dumps(w.build_ops(args.seed, n_ops)), flush=True)
        return 0
    w = WORKLOADS[args.workload]
    ops = [tuple(op) for op in json.load(sys.stdin)]
    ctx = w.context(args.seed, ROOT)
    try:
        result = traced(w, ctx, ops, args.seed) if args.trace else untraced(
            w, ctx, ops, args.seconds, args.seed)
    finally:
        w.cleanup(ctx)
    result["environment"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
