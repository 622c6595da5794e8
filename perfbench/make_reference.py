"""Write the reference outputs checked at the default seed.

    GIPLAB_THREADS=1 OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 \
        PYTHONPATH=src python3 perfbench/make_reference.py [WORKLOAD ...]

Each file holds the canonical output of every op an untraced run at the
default seed and --seconds RUN_SECONDS makes, in op order, with what the
workload observes after the op (round_cert: the rounding outcome).  Only rewrite
them at a commit whose outputs are known to be right: a run at the default
seed fails every op whose output differs.
"""

from __future__ import annotations

import json
import os
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 0
RUN_SECONDS = 25


def main(names) -> None:
    for name in names or sorted(WORKLOADS):
        w = WORKLOADS[name]
        ops = w.build_ops(DEFAULT_SEED, w.op_count(RUN_SECONDS))
        ctx = w.context(DEFAULT_SEED, os.path.dirname(HERE))
        try:
            rows = []
            for op in ops:
                out = w.run_op(ctx, op)
                rows.append({**w.canonical(op, out), **w.observe(ctx, op, out)})
        finally:
            w.cleanup(ctx)
        path = os.path.join(HERE, "reference", f"{name}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"seed": DEFAULT_SEED, "ops": rows}, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {path}: {len(rows)} ops")


if __name__ == "__main__":
    main(sys.argv[1:])
