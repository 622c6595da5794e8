"""Bytes each open branch-and-bound entry holds, read by tracemalloc.

    python3 tools/node_bytes.py M N SEED STREAM NODE_LIMIT

Run it from the repository root.  It generates the M x N instance with
b = 0 from ``RngHandle(SEED, STREAM)``, then runs one
``bnb.solve_ip(instance, node_limit=NODE_LIMIT)``, root LP included, under
``tracemalloc``.  It prints the traced peak divided by the tree's
``peak_open`` in KiB per open entry, with ``nodes_created``, ``peak_open``,
the traced peak in MB and the wall time of the traced solve.  Tracing
slows the solve several times over, so the time is not the untraced one.

Only the standard library and giplab are used.  Each open entry holds the
LP state its child re-solves from, so the figure tracks what one node
costs in memory (ROADMAP item 13), as a data point, not a benchmark.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from giplab import bnb  # noqa: E402
from giplab.instance import BSpec, generate  # noqa: E402
from giplab.rng import RngHandle  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for name in ("m", "n", "seed", "stream", "node_limit"):
        parser.add_argument(name, type=int)
    args = parser.parse_args(argv)
    inst = generate(args.m, args.n, BSpec.zeros(), RngHandle(args.seed, args.stream))
    tracemalloc.start()
    start = time.perf_counter()
    res = bnb.solve_ip(inst, node_limit=args.node_limit)
    wall = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(f"kib_per_open_entry: {peak / 1024 / res.peak_open:.2f}")
    print(f"nodes_created: {res.nodes_created}")
    print(f"peak_open: {res.peak_open}")
    print(f"peak_mb: {peak / 1e6:.1f}")
    print(f"wall_s: {wall:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
