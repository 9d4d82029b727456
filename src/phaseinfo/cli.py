"""Command-line front end.

Exit codes: 0 on success, 2 on invalid input (bad flags, unreadable or
malformed files, out-of-range parameters, sizes too large to allocate), 3
when an optimization completed and produced output but did not converge.
"""

import argparse
import functools
import os
import sys

import numpy as np

from .bounds import _require_run, bound_report
from .circular import information_report
from .errors import PhaseinfoError
from .measurement import record_to_dict, sample_outcomes
from .optimizer import OptimizerConfig, bound_sweep, optimize_state
from .serialize import dumps_json, format_float
from .states import load_state, state_to_dict

__all__ = ["main", "entry"]

_LOG2 = float(np.log(2.0))


def _require_out(out_path):
    # Refuse an --out that cannot be opened before any work is done.
    if out_path is None:
        return
    if not out_path or os.path.isdir(out_path):
        raise PhaseinfoError("--out %r is not a file path" % out_path)
    parent = os.path.dirname(out_path) or "."
    if not os.path.isdir(parent):
        raise PhaseinfoError("--out parent %r is not an existing directory" % parent)


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _add_search(parser):
    parser.add_argument("--starts", type=int, default=OptimizerConfig.starts, metavar="K")
    parser.add_argument("--tol", type=float, default=OptimizerConfig.convergence_tol, metavar="T")
    parser.add_argument("--max-iters", type=int, default=OptimizerConfig.max_iters, metavar="I")
    parser.add_argument("--seed", type=int, default=OptimizerConfig.seed)


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="phaseinfo",
        description="Bayesian information analysis of canonical phase measurement",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="information report for a state file")
    p.set_defaults(run=_cmd_info)
    p.add_argument("--state", required=True, metavar="FILE", help="state JSON file")
    p.add_argument(
        "--bits",
        action="store_true",
        help="also report entropy and information converted to bits",
    )

    p = sub.add_parser("optimize", help="search for the best state at one cutoff")
    p.set_defaults(run=_cmd_optimize)
    p.add_argument("--max-photon", required=True, type=int, metavar="N")
    _add_search(p)

    p = sub.add_parser("sweep", help="optimal information for every cutoff up to N")
    p.set_defaults(run=_cmd_sweep)
    p.add_argument("--n-max", required=True, type=int, metavar="N", dest="max_photon")
    _add_search(p)

    p = sub.add_parser("simulate", help="draw canonical outcomes at a true phase")
    p.set_defaults(run=_cmd_simulate)
    p.add_argument("--state", required=True, metavar="FILE", help="state JSON file")
    p.add_argument(
        "--true-phase",
        required=True,
        type=float,
        metavar="X",
        help="true phase in radians",
    )
    p.add_argument("--shots", required=True, type=int, metavar="M")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("bounds", help="repeated-measurement bound table")
    p.set_defaults(run=_cmd_bounds)
    p.add_argument("--state", required=True, metavar="FILE", help="state JSON file")
    p.add_argument(
        "--modes",
        default="1,4,16,64",
        metavar="LIST",
        help="comma-separated measurement counts (default 1,4,16,64)",
    )
    p.add_argument("--trials", type=int, default=500, metavar="T")
    p.add_argument("--seed", type=int, default=0)

    for p in sub.choices.values():
        p.add_argument(
            "--grid",
            type=int,
            default=4096,
            metavar="G",
            help="quadrature grid size, a power of two >= 64 (default 4096)",
        )
        p.add_argument(
            "--out", metavar="FILE", help="write the result here instead of stdout"
        )
    return parser


def _cmd_info(args):
    report = information_report(load_state(args.state), args.grid)
    doc = report.to_dict()
    if args.bits:
        doc["entropy_bits"] = report.entropy / _LOG2
        doc["mutual_information_bits"] = report.mutual_information / _LOG2
    _emit(dumps_json(doc), args.out)
    return 0


def _search_config(args):
    return OptimizerConfig(
        max_photon=args.max_photon,
        grid_size=args.grid,
        starts=args.starts,
        convergence_tol=args.tol,
        max_iters=args.max_iters,
        seed=args.seed,
    )


def _cmd_optimize(args):
    result = optimize_state(_search_config(args))
    doc = {
        "max_photon": args.max_photon,
        "information_nats": result.information,
        "state": state_to_dict(result.state),
        "per_start": list(result.per_start),
        "converged": result.converged,
    }
    _emit(dumps_json(doc), args.out)
    return 0 if result.converged else 3


def _cmd_sweep(args):
    points = bound_sweep(_search_config(args))
    lines = ["N,information_nats,converged"]
    for pt in points:
        flag = "true" if pt.converged else "false"
        lines.append("%d,%s,%s" % (pt.state.max_photon, format_float(pt.information), flag))
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if all(pt.converged for pt in points) else 3


def _cmd_simulate(args):
    state = load_state(args.state)
    record = sample_outcomes(
        state, args.true_phase, args.shots, args.seed, grid_size=args.grid
    )
    _emit(dumps_json(record_to_dict(record)), args.out)
    return 0


def _cmd_bounds(args):
    state = load_state(args.state)
    try:
        modes = [int(tok) for tok in args.modes.split(",") if tok.strip()]
    except ValueError:
        raise PhaseinfoError("--modes must be a comma-separated list of integers")
    if not modes:
        raise PhaseinfoError("--modes must name at least one measurement count")
    for m in modes:
        _require_run(m, args.trials, args.seed, args.grid)
    lines = ["M,mc_information,mc_stderr,chain_bound,asymptote"]
    for m in modes:
        report = bound_report(
            state, m, trials=args.trials, seed=args.seed, grid_size=args.grid
        )
        values = (report.mc_information, report.mc_stderr, report.chain_upper_bound,
                  report.asymptotic_value)
        cells = ["" if v is None else format_float(v) for v in values]
        lines.append(",".join(["%d" % report.modes] + cells))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _require_out(args.out)
        return args.run(args)
    except (PhaseinfoError, OSError, MemoryError) as exc:
        # numpy may refuse an impossible allocation with an empty MemoryError.
        print("error: %s" % (str(exc) or "out of memory"), file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
