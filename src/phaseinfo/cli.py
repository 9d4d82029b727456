"""Command-line front end.

Exit codes: 0 on success, 2 on invalid input (bad flags, unreadable or
malformed files, out-of-range parameters, sizes too large to allocate), 3
when an optimization completed and produced output but did not converge.
"""

import argparse
import sys

import numpy as np

from .bounds import bound_report
from .circular import information_report, validate_grid_size
from .errors import PhaseinfoError
from .measurement import record_to_dict, sample_outcomes
from .optimizer import OptimizerConfig, bound_sweep, optimize_state
from .serialize import dumps_json, format_float
from .states import load_state, state_to_dict

__all__ = ["main", "entry"]

_LOG2 = float(np.log(2.0))


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _add_grid(parser):
    parser.add_argument(
        "--grid",
        type=int,
        default=4096,
        metavar="G",
        help="quadrature grid size, a power of two >= 64 (default 4096)",
    )


def _add_out(parser):
    parser.add_argument(
        "--out", metavar="FILE", help="write the result here instead of stdout"
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="phaseinfo",
        description="Bayesian information analysis of canonical phase measurement",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="information report for a state file")
    p.add_argument("--state", required=True, metavar="FILE", help="state JSON file")
    p.add_argument(
        "--bits",
        action="store_true",
        help="also report entropy and information converted to bits",
    )
    _add_grid(p)
    _add_out(p)

    p = sub.add_parser("optimize", help="search for the best state at one cutoff")
    p.add_argument("--max-photon", required=True, type=int, metavar="N")
    p.add_argument("--starts", type=int, default=16, metavar="K")
    p.add_argument("--step-init", type=float, default=0.1, metavar="S")
    p.add_argument("--tol", type=float, default=1e-10, metavar="T")
    p.add_argument("--max-iters", type=int, default=10_000, metavar="I")
    p.add_argument("--seed", type=int, default=0)
    _add_grid(p)
    _add_out(p)

    p = sub.add_parser("sweep", help="optimal information for every cutoff up to N")
    p.add_argument("--n-max", required=True, type=int, metavar="N")
    p.add_argument("--starts", type=int, default=16, metavar="K")
    p.add_argument("--tol", type=float, default=1e-10, metavar="T")
    p.add_argument("--max-iters", type=int, default=10_000, metavar="I")
    p.add_argument("--seed", type=int, default=0)
    _add_grid(p)
    _add_out(p)

    p = sub.add_parser("simulate", help="draw canonical outcomes at a true phase")
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
    _add_grid(p)
    _add_out(p)

    p = sub.add_parser("bounds", help="repeated-measurement bound table")
    p.add_argument("--state", required=True, metavar="FILE", help="state JSON file")
    p.add_argument(
        "--modes",
        default="1,4,16,64",
        metavar="LIST",
        help="comma-separated measurement counts (default 1,4,16,64)",
    )
    p.add_argument("--trials", type=int, default=500, metavar="T")
    p.add_argument("--seed", type=int, default=0)
    _add_grid(p)
    _add_out(p)

    return parser


def _cmd_info(args):
    state = load_state(args.state)
    grid = validate_grid_size(args.grid)
    report = information_report(state, grid)
    doc = report.to_dict()
    if args.bits:
        doc["entropy_bits"] = report.entropy / _LOG2
        doc["mutual_information_bits"] = report.mutual_information / _LOG2
    _emit(dumps_json(doc), args.out)
    return 0


def _cmd_optimize(args):
    config = OptimizerConfig(
        max_photon=args.max_photon,
        grid_size=args.grid,
        starts=args.starts,
        step_init=args.step_init,
        convergence_tol=args.tol,
        max_iters=args.max_iters,
        seed=args.seed,
    )
    result = optimize_state(config)
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
    config = OptimizerConfig(
        max_photon=0,
        grid_size=args.grid,
        starts=args.starts,
        convergence_tol=args.tol,
        max_iters=args.max_iters,
        seed=args.seed,
    )
    points = bound_sweep(args.n_max, config)
    lines = ["N,information_nats,converged"]
    for pt in points:
        lines.append(
            "%d,%s,%s"
            % (
                pt.max_photon,
                format_float(pt.information),
                "true" if pt.converged else "false",
            )
        )
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
    lines = ["M,mc_information,mc_stderr,chain_bound,asymptote"]
    for m in modes:
        report = bound_report(
            state, m, trials=args.trials, seed=args.seed, grid_size=args.grid
        )
        asym = "" if report.asymptotic_value is None else format_float(report.asymptotic_value)
        lines.append(
            "%d,%s,%s,%s,%s"
            % (
                report.modes,
                format_float(report.mc_information),
                format_float(report.mc_stderr),
                format_float(report.chain_upper_bound),
                asym,
            )
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "optimize": _cmd_optimize,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "bounds": _cmd_bounds,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except PhaseinfoError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy refuses an impossible allocation (a huge --grid) up front.
        print("error: %s" % (str(exc) or "out of memory"), file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
