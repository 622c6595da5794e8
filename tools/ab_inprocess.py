"""One-process A/B of two giplab source trees on one of perfbench's workloads.

    python3 tools/ab_inprocess.py PARENT_SRC CHANGE_SRC
        [--workload tree_exact|round_cert|lp_cli] [--seed 10] [--rounds 9]

PARENT_SRC and CHANGE_SRC are directories that each hold a ``giplab``
package (a checkout's ``src/``).  Each is loaded under a package name of its
own, ``giplab_parent`` and ``giplab_change``; the package imports its
modules relatively, so the two live side by side in one process.  The ops
are the ones ``perfbench/run.py --workload WORKLOAD --seed SEED`` times in
BENCHMARK.json's ``run_seconds``, built by perfbench's own ``build_ops``,
and each side runs them with the workload's own ``run_op``: tree_exact
(the default) and round_cert call ``experiments.run_trial``, lp_cli runs
``giplab gen`` then ``giplab lp`` through ``cli.run_cli`` on one file.
Every round runs each op on both sides back to back, parent first on even
ops and change first on odd ones, and times each op.  It prints each
round's total-time ratio (change time / parent time) and its p50 ratio
(the change's median op time / the parent's, the in-process counterpart
of perfbench's ``op_p50_ms``), then the median of each over the rounds; a
ratio above 1 means the change is slower.  Every output must be equal on
both sides, or the run stops: trial records are compared by repr (the two
packages define the record type twice), and an lp_cli op must print the
same ``gen`` and ``lp`` output and leave the same file bytes on both
sides.

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
import tempfile
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
    for module in ("experiments", "cli"):
        importlib.import_module(f"{name}.{module}")
    return pkg


@contextlib.contextmanager
def as_giplab(pkg):
    """`pkg` and its modules stand in for `giplab` and its modules, which
    perfbench imports by those names."""
    prefix = pkg.__name__ + "."
    alias = {"giplab": pkg}
    for key, module in list(sys.modules.items()):
        if key.startswith(prefix):
            alias["giplab." + key[len(prefix):]] = module
    sys.modules.update(alias)
    try:
        yield
    finally:
        for key in alias:
            del sys.modules[key]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        default="tree_exact")
    parser.add_argument("--seed", type=int, default=10)
    parser.add_argument("--rounds", type=int, default=9)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    sides = [load(args.parent_src, "giplab_parent"), load(args.change_src, "giplab_change")]
    work = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as root:
        # a trial context is a SweepConfig of the side's own package; an
        # lp_cli context is the file path, the same on both sides
        ctxs = []
        for pkg in sides:
            with as_giplab(pkg):
                ctxs.append(work.context(args.seed, root))
                ops = work.build_ops(args.seed, work.op_count(seconds))
        try:
            return compare(work, ctxs, ops, sides, args)
        finally:
            work.cleanup(ctxs[0])


def compare(work, ctxs, ops, sides, args) -> int:
    print(f"{len(ops)} {work.name} ops at seed {args.seed}, {args.rounds} rounds")
    ratios, p50s = [], []
    for rnd in range(args.rounds):
        times = ([], [])
        for i, op in enumerate(ops):
            outs = [None, None]
            for k in ((0, 1) if i % 2 == 0 else (1, 0)):
                with as_giplab(sides[k]):
                    t0 = time.perf_counter()
                    out = work.run_op(ctxs[k], op)
                    times[k].append(time.perf_counter() - t0)
                if work.name == "lp_cli":
                    with open(ctxs[k], "rb") as fh:
                        out = (out, fh.read())
                outs[k] = out
            if repr(outs[0]) != repr(outs[1]):
                print(f"op {op}: outputs differ\n  parent {outs[0]!r:.500}\n"
                      f"  change {outs[1]!r:.500}", file=sys.stderr)
                return 1
        total = [sum(side) for side in times]
        p50 = [statistics.median(side) for side in times]
        ratios.append(total[1] / total[0])
        p50s.append(p50[1] / p50[0])
        print(f"round {rnd}: parent {total[0]:.4f} s  change {total[1]:.4f} s  "
              f"ratio {ratios[-1]:.4f}  p50 {p50[0] * 1e3:.3f} / {p50[1] * 1e3:.3f} ms  "
              f"p50 ratio {p50s[-1]:.4f}", flush=True)
    for name, series in (("ratio", ratios), ("p50 ratio", p50s)):
        print(f"median {name} (change / parent) over {len(series)} rounds: "
              f"{statistics.median(series):.4f} (min {min(series):.4f}, max {max(series):.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
