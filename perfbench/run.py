"""giplab benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload tree_exact|round_cert|lp_cli \
        --seed N --seconds T --trace 0|1

Run from the root of a giplab source checkout; the package is imported from
its ``src/`` directory.  Every process this starts is pinned to one thread
(GIPLAB_THREADS, OPENBLAS_NUM_THREADS, OMP_NUM_THREADS).  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer ones.  The last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the lines
above it give failure reasons, the tail percentile and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from worker import PINS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tree_exact", "round_cert", "lp_cli")
SETUP_PROBES = 4
DEADLINE_S = 170.0


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINS)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_seconds(workload: str, env: dict) -> list[float]:
    """Process start to ready-for-the-first-op, once per fresh process, scaled
    to the reference machine speed.  The first probe only fills the bytecode
    cache and is not counted."""
    samples = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--probe", workload],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        if i:
            ready, scale = (float(v) for v in proc.stdout.split()[-2:])
            samples.append((ready - t0) * scale)
    return samples


def worker(args: list[str], env: dict, stdin: str, started: float) -> str:
    """Last stdout line of one worker.py process."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args], input=stdin,
        env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=DEADLINE_S - (time.monotonic() - started),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[:2]} exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "giplab", "__init__.py")):
        print(f"error: no giplab sources under {ROOT}/src", file=sys.stderr)
        return 2

    units = declared_units(args.trace)
    env = child_env()
    setup = [] if args.trace else setup_seconds(args.workload, env)
    run_args = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
    ops = worker(["--build", args.workload, *run_args], env, "", started)
    res = json.loads(worker(["--workload", args.workload, *run_args], env, ops, started))

    values = res["metrics"] if args.trace else dict(res["metrics"], setup_s=statistics.median(setup))
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    detail = {k: v for k, v in res.items() if k not in ("metrics", "attempted", "failed")}
    detail["failed_share"] = res["failed"] / res["attempted"]
    if setup:
        detail["setup_samples_s"] = setup
    print(json.dumps({"workload": args.workload, "seed": args.seed, **detail}))
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": res["failed"] == 0 and not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.TimeoutExpired, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
