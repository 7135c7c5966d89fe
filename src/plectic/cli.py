"""Command-line entry point: `plectic verify <scenario> [options]`."""

import argparse
import sys

from .errors import PlecticError
from .runner import DEFAULT_FLOOR, SUITE_ORDER, run
from .scenario import SUITES, load_scenario


def build_parser():
    parser = argparse.ArgumentParser(
        prog="plectic",
        description="Verify p-adic plectic identities on scenario files.")
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument("scenario", help="path to a scenario file")
    verify.add_argument("--suite", action="append", choices=SUITES,
                        help="run only the named suite (repeatable)")
    verify.add_argument("--precision", type=int, default=None,
                        help="override working precision (base-p digits)")
    verify.add_argument("--seed", type=int, default=None,
                        help="override the scenario RNG seed")
    verify.add_argument("--floor", type=int, default=DEFAULT_FLOOR,
                        help="pass/fail margin floor in digits")
    verify.add_argument("--report", default=None,
                        help="also write the report to this path")
    verify.add_argument("--format", choices=("human", "kv"), default="human",
                        help="report format")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    try:
        from .scenario import parse_scenario

        if args.precision is not None:
            lines = [ln for ln in text.splitlines()
                     if not ln.split("#")[0].strip().startswith("precision")]
            text = "\n".join(lines) + "\nprecision = %d\n" % args.precision
        scenario = parse_scenario(text)
    except PlecticError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    if args.floor > scenario.precision:
        # margins are capped at the precision, so no check could pass
        print("error: floor %d exceeds the working precision %d"
              % (args.floor, scenario.precision), file=sys.stderr)
        return 2
    suites = tuple(args.suite) if args.suite else None
    report = run(scenario, suites=suites, floor=args.floor, seed=args.seed)
    rendered = report.render_kv() if args.format == "kv" else report.render_human()
    sys.stdout.write(rendered)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
