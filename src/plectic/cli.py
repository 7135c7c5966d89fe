"""Command-line entry point: `plectic verify <scenario> [options]`."""

import argparse
import sys

from .errors import PlecticError
from .runner import DEFAULT_FLOOR, run
from .scenario import SUITES, load_scenario, read_int


def integer(text):
    """An int in the int keys' grammar, quoted as they are in an error."""
    return read_int(text, "", argparse.ArgumentTypeError)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="plectic",
        description="Verify p-adic plectic identities on scenario files.")
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument("scenario", help="path to a scenario file")
    verify.add_argument("--suite", action="append", choices=SUITES,
                        help="run only the named suite (repeatable)")
    verify.add_argument("--precision", type=integer, default=None,
                        help="override working precision (base-p digits)")
    verify.add_argument("--seed", type=integer, default=None,
                        help="override the scenario RNG seed")
    verify.add_argument("--floor", type=integer, default=DEFAULT_FLOOR,
                        help="pass/fail margin floor in digits")
    verify.add_argument("--report", default=None,
                        help="also write the report to this path")
    verify.add_argument("--format", choices=("human", "kv"), default="human",
                        help="report format")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        report = run(load_scenario(args.scenario, args.precision),
                     suites=args.suite, floor=args.floor, seed=args.seed)
        rendered = (report.render_kv() if args.format == "kv"
                    else report.render_human())
        if args.report:  # before stdout, so a failed write prints nothing
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(rendered)
    except (OSError, UnicodeDecodeError, PlecticError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    sys.stdout.write(rendered)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
