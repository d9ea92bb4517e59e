"""Command line front end.

Two subcommands:

``xychain run <config> [--out file.csv] [--engine analytic|oracle]``
    Parse a scenario config, run it and write a CSV table of measures.

``xychain selftest [--fast]``
    Cross-check the analytic engines against the 12-site
    exact-diagonalization oracle.

Exit codes: 0 on success, 1 when ``selftest`` finds a comparison outside
its tolerance (or on anything unexpected), 2 for configuration or capability
problems, 3 for numerical-health failures.
"""

import argparse
import dataclasses
import sys

from .errors import ConfigError, NumericalHealthError, XYChainError
from .scenarios import parse_config_file, run_scenario, write_csv


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="xychain",
        description="Entanglement dynamics in the anisotropic XY chain.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario config")
    run_p.add_argument("config", help="path to a key = value config file")
    run_p.add_argument("--out", default=None,
                       help="CSV output path (default: stdout)")
    run_p.add_argument("--engine", default=None,
                       choices=("analytic", "oracle"),
                       help="override the engine named in the config")

    self_p = sub.add_parser("selftest",
                            help="compare analytic engines to the oracle")
    self_p.add_argument("--fast", action="store_true",
                        help="reduced parameter matrix")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            from .selftest import run_selftest
            return 0 if run_selftest(fast=args.fast) else 1

        config = parse_config_file(args.config)
        if args.engine is not None:
            config = dataclasses.replace(config, engine=args.engine)
        rows = run_scenario(config)
        if args.out is None:
            write_csv(rows, sys.stdout)
        else:
            with open(args.out, "w", encoding="ascii") as handle:
                write_csv(rows, handle)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalHealthError as exc:
        print(f"numerical health: {exc}", file=sys.stderr)
        return 3
    except XYChainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
