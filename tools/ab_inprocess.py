"""One-process A/B of two giplab source trees on perfbench's tree_exact ops.

    python3 tools/ab_inprocess.py PARENT_SRC CHANGE_SRC [--seed 10] [--rounds 9]

PARENT_SRC and CHANGE_SRC are directories that each hold a ``giplab``
package (a checkout's ``src/``).  Each is loaded under a package name of its
own, ``giplab_parent`` and ``giplab_change``; the package imports its
modules relatively, so the two live side by side in one process.  The ops
are the ones ``perfbench/run.py --workload tree_exact --seed SEED`` times
in BENCHMARK.json's ``run_seconds`` (504 ``run_trial(...,
with_knapsack=True)`` calls at 25 s), built by perfbench's own
``build_ops``.  Every round runs each op on both sides back to back,
parent first on even ops and change first on odd ones, and sums each
side's op times.  It prints each round's ratio (change time / parent
time) and the median ratio over the rounds; a ratio above 1 means the
change is slower.  Every record must be equal on both sides, or the run
stops (records are compared by repr, as the two packages define the
record type twice).

One process, one thread: the thread pins perfbench sets are set here
before numpy is imported.  The benchmark's own pairs (separate processes,
25 s each) cannot resolve a change of a few percent; this can.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from worker import PINS  # noqa: E402

os.environ.update(PINS)

import workloads  # noqa: E402


def load(src: str, name: str):
    """The giplab package under `src`, imported as `name`."""
    init = os.path.join(src, "giplab", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    importlib.import_module(f"{name}.experiments")
    return pkg


@contextlib.contextmanager
def as_giplab(pkg):
    """`pkg` stands in for `giplab` while perfbench builds its ops and
    config, which import giplab by that name."""
    sys.modules["giplab"] = pkg
    try:
        yield
    finally:
        del sys.modules["giplab"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--seed", type=int, default=10)
    parser.add_argument("--rounds", type=int, default=9)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    sides = [load(args.parent_src, "giplab_parent"), load(args.change_src, "giplab_change")]
    work = workloads.WORKLOADS["tree_exact"]
    configs = []
    for pkg in sides:
        with as_giplab(pkg):
            configs.append(work.context(args.seed, ""))
            ops = work.build_ops(args.seed, work.op_count(seconds))
    runs = [(pkg.experiments.run_trial, cfg) for pkg, cfg in zip(sides, configs)]

    print(f"{len(ops)} tree_exact ops at seed {args.seed}, {args.rounds} rounds")
    ratios = []
    for rnd in range(args.rounds):
        total = [0.0, 0.0]
        for i, (stream, m, n) in enumerate(ops):
            recs = [None, None]
            for k in ((0, 1) if i % 2 == 0 else (1, 0)):
                run, cfg = runs[k]
                t0 = time.perf_counter()
                recs[k] = run(cfg, stream, m, n, with_knapsack=True)
                total[k] += time.perf_counter() - t0
            if repr(recs[0]) != repr(recs[1]):
                print(f"op {(stream, m, n)}: records differ\n  parent {recs[0]}\n"
                      f"  change {recs[1]}", file=sys.stderr)
                return 1
        ratios.append(total[1] / total[0])
        print(f"round {rnd}: parent {total[0]:.4f} s  change {total[1]:.4f} s  "
              f"ratio {ratios[-1]:.4f}", flush=True)
    print(f"median ratio (change / parent) over {len(ratios)} rounds: "
          f"{statistics.median(ratios):.4f} (min {min(ratios):.4f}, max {max(ratios):.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
