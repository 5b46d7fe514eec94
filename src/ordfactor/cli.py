"""The ordfactor command line.

Subcommands: check, decompose, enumerate-m, classify, toporep, orderrep,
report.  Instances come from files (--instance) or generators (--gen
NAME:ARGS).  Exit codes: 0 when every requested check passes or is
inapplicable, 1 when at least one check is false, 2 on input or usage
errors.  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .instances import (
    Caps,
    ParseError,
    decompose_report,
    enumerate_report,
    generate,
    parse_instance,
    run_checks,
    to_runtime,
)
from .monoid import InstanceError, NotApplicableError
from .poset import PosetError
from .reporting import Report


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ordfactor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "check": "run selected conditions",
        "decompose": "decompose elements into prime powers",
        "enumerate-m": "enumerate the power-ideal family",
        "classify": "Krull/Dedekind/UFD/PID verdicts",
        "toporep": "topological representation checks",
        "orderrep": "order representation onto chain powers",
        "report": "run every condition",
    }
    for name, help_ in commands.items():
        p = sub.add_parser(name, help=help_)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--instance", metavar="FILE", help="instance file")
        src.add_argument("--gen", metavar="NAME:ARGS", help="built-in generator")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--cap-m", type=int, default=20000, help="ideal enumeration cap")
        p.add_argument("--seed", type=int, default=None, help="seed override for random:size")
        if name == "check":
            p.add_argument(
                "--conditions",
                default="all",
                help="comma-separated condition list, or 'all'",
            )
        if name == "decompose":
            p.add_argument("--element", default=None, help="single element label")
    return parser


def _load(args):
    if args.gen:
        token = args.gen
        if args.seed is not None and token.startswith("random:") and "," not in token:
            token = f"{token},{args.seed}"
        return generate(token)
    with open(args.instance, "r", encoding="utf-8") as fh:
        return to_runtime(parse_instance(fh.read()))


def _emit(report: Report, fmt: str) -> int:
    out = report.to_json() if fmt == "json" else report.to_text()
    sys.stdout.write(out)
    return report.exit_code()


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.cap_m < 1:
            parser.error(f"argument --cap-m: must be at least 1, got {args.cap_m}")
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        target = _load(args)
        caps = Caps(cap_m=args.cap_m)
        if args.command == "check":
            conditions = (
                "all" if args.conditions == "all" else tuple(args.conditions.split(","))
            )
            return _emit(run_checks(target, conditions, caps), args.format)
        if args.command == "report":
            return _emit(run_checks(target, "all", caps), args.format)
        if args.command == "decompose":
            return _emit(decompose_report(target, args.element), args.format)
        if args.command == "enumerate-m":
            return _emit(enumerate_report(target, caps), args.format)
        if args.command == "classify":
            return _emit(run_checks(target, ("classify",), caps), args.format)
        if args.command == "toporep":
            return _emit(run_checks(target, ("toporep",), caps), args.format)
        if args.command == "orderrep":
            return _emit(run_checks(target, ("orderrep",), caps), args.format)
        raise AssertionError("unreachable")  # pragma: no cover
    except (ParseError, InstanceError, PosetError, NotApplicableError, OSError) as err:
        sys.stderr.write(f"ordfactor: {err}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
