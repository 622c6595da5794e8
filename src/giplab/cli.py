"""Command line interface.

Subcommands: gen, lp, ip, round, gap-sweep, tree-sweep, stats, disc-mc,
knap-mc.  Exit codes: 0 success, 1 usage error (bad flags, a named file that
cannot be opened or parsed), 2 computational failure (budget exhausted,
pipeline could not run).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

# Each handler imports the modules it runs when it is first called, so a
# process started for one subcommand neither loads nor compiles the solvers
# of the others; gen and lp need only these.
from . import lp
from .fileformat import InstanceFormatError, read_instance, write_instance
from .instance import BSpec, generate
from .rng import RngHandle

USAGE_ERROR = 1
RUN_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _parse_b_token(token: str, m: int) -> BSpec:
    if token in ("zeros", "gaussian"):
        return BSpec(token)
    for kind in ("scaled_ones", "explicit"):
        if token.startswith(kind + ":"):
            try:
                values = [float(v) for v in token[len(kind) + 1 :].split(",")]
            except ValueError as exc:
                raise ValueError(f"bad --b recipe {token!r}: {exc}") from None
            if len(values) == 1 and kind == "scaled_ones":
                values = values * m
            return BSpec(kind, tuple(values))
    raise ValueError(f"bad b recipe: {token!r}")


def _load(path: str):
    try:
        return read_instance(path)
    except InstanceFormatError as exc:
        raise ValueError(f"bad instance file {path}: {exc}") from None


def _cmd_gen(args) -> int:
    b_spec = _parse_b_token(args.b, args.m)
    inst = generate(args.m, args.n, b_spec, RngHandle(args.seed))
    write_instance(args.out, inst)
    print(f"wrote {args.out}: m={inst.m} n={inst.n} b_spec={inst.meta.b_spec}")
    return 0


def _cmd_lp(args) -> int:
    inst = _load(args.instance)
    try:
        sol = lp.solve_lp(inst)
    except lp.InfeasibleError as exc:
        print("status: infeasible")
        print("farkas_u: " + " ".join(map(repr, exc.farkas_u.tolist())))
        return 0
    print(f"value: {sol.value!r}")
    nz = np.flatnonzero(sol.x_star > 1e-12)
    pairs = zip(nz.tolist(), sol.x_star[nz].tolist())
    print("x_nonzero: " + " ".join(f"{i}={v!r}" for i, v in pairs))
    print("u_star: " + " ".join(map(repr, sol.u_star.tolist())))
    print(f"n0_size: {sol.n0.size}")
    print(f"s_size: {sol.s.size}")
    print(f"pivots: {sol.pivots}")
    return 0


def _cmd_ip(args) -> int:
    from . import bnb

    inst = _load(args.instance)
    res = bnb.solve_ip(inst, node_limit=args.node_limit)
    print(f"status: {res.status}")
    if res.opt_value is not None:
        ones = np.flatnonzero(res.x_opt > 0.5)
        print(f"value: {res.opt_value!r}")
        print("x_ones: " + " ".join(str(i) for i in ones))
    if res.status == "NodeLimit" and res.best_bound is not None:
        print(f"best_bound: {res.best_bound!r}")
    print(f"nodes_created: {res.nodes_created}")
    print(f"nodes_expanded: {res.nodes_expanded}")
    return 0


def _cmd_round(args) -> int:
    from . import rounding

    inst = _load(args.instance)
    try:
        sol = lp.solve_lp(inst)
    except (lp.InfeasibleError, lp.IterationLimitError) as exc:
        raise RuntimeError(f"LP stage failed: {exc}") from None
    params = rounding.RoundingParams.defaults(
        inst.m, inst.n,
        k=args.k, delta=args.delta, t=args.t, theta=args.theta,
    )
    cert = rounding.round_pipeline(inst, sol, params, RngHandle(args.seed))
    print(f"feasible: {int(cert.feasible)}")
    print(f"certified_gap: {cert.certified_gap!r}")
    print(f"slack_inf_norm: {cert.slack_inf_norm!r}")
    print(f"flip_set: {' '.join(str(i) for i in cert.flip_set)}")
    pool = "-" if cert.pool_index_used is None else str(cert.pool_index_used)
    print(f"pool_index_used: {pool}")
    for key in sorted(cert.diagnostics):
        print(f"diag.{key}: {cert.diagnostics[key]!r}")
    if args.full_x:
        ones = np.flatnonzero(cert.x_double_prime > 0.5)
        print("x_ones: " + " ".join(str(i) for i in ones))
    return 0


def _read_config(args):
    from . import experiments

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = experiments.SweepConfig.from_json(fh.read())
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad config: {exc}") from None
    if args.out:
        cfg = dataclasses.replace(cfg, out=args.out)
    return cfg


def _cmd_sweep(args) -> int:
    from . import experiments

    cfg = _read_config(args)
    if cfg.out:
        # a missing output directory fails here, not after every trial
        os.scandir(os.path.dirname(cfg.out) or ".").close()
    records = getattr(experiments, args.sweep)(cfg)
    if not cfg.out:
        sys.stdout.write(experiments.records_to_csv(records))
    else:
        print(f"wrote {cfg.out}: {len(records)} rows")
    return 0


def _cmd_stats(args) -> int:
    import json

    from . import experiments

    summary = experiments.stats_check(
        m=args.m, n=args.n, seeds=args.seeds,
        master_seed=args.seed, b_spec=_parse_b_token(args.b, args.m).descriptor(),
        epsilon=args.epsilon,
    )
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_disc_mc(args) -> int:
    from . import discrepancy
    from .numerics import calibrate_theta

    params = calibrate_theta(args.m, args.k)
    target = np.zeros(args.m)
    if args.target_norm:
        target[0] = args.target_norm
    rate, stderr = discrepancy.disc_success_mc(
        args.m, args.k, args.dist, target, args.trials, RngHandle(args.seed)
    )
    exact = discrepancy.fits_exact_budget(params.universe, args.k)
    mode = "exact" if exact else "search"
    successes = round(rate * args.trials)
    print("m,k,a,theta,trials,successes,rate,stderr,mode")
    print(
        f"{args.m},{args.k},{params.a},{params.theta!r},{args.trials},"
        f"{successes},{rate!r},{stderr!r},{mode}"
    )
    return 0


def _cmd_knap_mc(args) -> int:
    from . import knapsack

    mean, stderr, bound = knapsack.knapsack_expectation_mc(
        args.n, args.dist, args.g, args.trials, RngHandle(args.seed)
    )
    violations = int(mean + 3.0 * stderr > bound)
    print("n,g,trials,mean,stderr,bound,violations")
    print(
        f"{args.n},{args.g!r},{args.trials},{mean!r},{stderr!r},"
        f"{bound!r},{violations}"
    )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="giplab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded instance file")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", default="zeros",
                   help="zeros | gaussian | scaled_ones:v[,v...] | explicit:v,...")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("lp", help="solve the LP relaxation of an instance file")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_lp)

    p = sub.add_parser("ip", help="solve the binary IP exactly")
    p.add_argument("instance")
    p.add_argument("--node-limit", type=int, default=1_000_000)
    p.set_defaults(func=_cmd_ip)

    p = sub.add_parser("round", help="run the rounding pipeline")
    p.add_argument("instance")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--full-x", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_round)

    p = sub.add_parser("gap-sweep", help="gap scaling sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep, sweep="gap_sweep")

    p = sub.add_parser("tree-sweep", help="tree-size sweep with knapsack proxy")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep, sweep="tree_sweep")

    p = sub.add_parser("stats", help="dual-norm / value / zero-count statistics")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seeds", type=int, default=200)
    p.add_argument("--b", default="zeros")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=1.0 / 9.0)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("disc-mc", help="subset-selection success probability")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dist", default="gaussian",
                   help="gaussian | mixture:EPS")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target-norm", type=float, default=0.0)
    p.set_defaults(func=_cmd_disc_mc)

    p = sub.add_parser("knap-mc", help="knapsack count expectation envelope")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", type=float, required=True)
    p.add_argument("--dist", default="uniform01",
                   help="uniform01 | absgauss | absmix:EPS")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_knap_mc)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser of `run_cli`, built on its first call and kept for the
    process; parsing reads it and leaves it unchanged."""
    return build_parser()


def run_cli(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except OSError as exc:
        # a named file that cannot be opened, or a write the OS refuses
        where = "" if exc.filename is None else f"cannot open {exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        # a flag value, config or instance file the library rejects
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUN_ERROR


def main() -> None:
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
