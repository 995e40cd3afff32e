"""Command-line front end.

Exit codes: 0 when every requested check passes, 1 when any check fails,
2 on usage or I/O errors.  ``verify injection`` below the map's
``regular_from`` (gamma below t = 4) prints that caveat to stderr after the
output, one ``warning:`` line that leaves the exit code alone.  All output
is deterministic; there is no randomness anywhere in the pipeline.
"""

from __future__ import annotations

import argparse
import sys
from collections import deque

from . import checks, hookgf, injections
from .series import csv_lines

SERIES_NAMES = ("bt1", "bt2", "bt3", *hookgf.PIECES)

class _Command:
    """One command of a ``hooks`` line, whose parser is built only when argparse selects it.

    ``_add_commands`` hands this class to ``add_subparsers`` as its public
    ``parser_class`` hook, so each ``add_parser`` call makes a ``_Command`` from
    the keyword arguments it would give a parser (``prog`` included) and the
    command's ``add_flags``.  The real parser, flags included, is built on the
    first ``parse_known_args`` call.  That is exact: argparse calls
    ``parse_known_args`` only on the sub-parser a word of argv selects, and
    help screens, usage lines and invalid-choice errors read only the help and
    the names that ``add_parser`` files itself.  So a command that argv does
    not name is never built, and ``verify`` builds only the one of its own
    commands it hands words to.
    """

    def __init__(self, add_flags, **kwargs):
        self.add_flags, self.kwargs, self.parser = add_flags, kwargs, None

    def parse_known_args(self, args, namespace):
        if self.parser is None:
            self.parser = argparse.ArgumentParser(**self.kwargs)
            self.add_flags(self.parser)
        return self.parser.parse_known_args(args, namespace)


def _add_commands(parser: argparse.ArgumentParser, dest: str, commands) -> None:
    """Register ``commands``, (name, help text, add_flags) triples, under ``dest`` of ``parser``."""
    sub = parser.add_subparsers(dest=dest, required=True, parser_class=_Command)
    for name, summary, add_flags in commands:
        sub.add_parser(name, help=summary, add_flags=add_flags)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hooks",
        description="Hook-length counts over t-regular partitions, two ways, "
        "with mechanical verification of the related identities.",
    )
    _add_commands(parser, "command", (
        ("count", "one hook count b(t, k, n)", _count_flags),
        ("series", "emit a named series as CSV", _series_flags),
        ("verify", "run a verification suite", _verify_flags),
    ))
    return parser


def _count_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("enum", "gf"), default="enum")
    p.set_defaults(run=_cmd_count)


def _series_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--name", choices=SERIES_NAMES, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(run=_cmd_series)


def _verify_flags(p: argparse.ArgumentParser) -> None:
    _add_commands(p, "verify_what", (
        ("identity", "decomposition identities", _identity_flags),
        ("injection", "certify an injection exhaustively", _injection_flags),
        ("theorem", "theorem-level sign checks", _theorem_flags),
    ))


def _identity_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--which", choices=tuple(checks.IDENTITIES), required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--order", type=int, default=200)
    p.add_argument("--format", choices=tuple(checks.FORMATS), default="human")
    p.set_defaults(run=_cmd_verify_identity)


def _injection_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--map", choices=tuple(injections.MAPS), required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=tuple(checks.FORMATS), default="human")
    p.set_defaults(run=_cmd_verify_injection)


def _theorem_flags(p: argparse.ArgumentParser) -> None:
    thm12, oracle = checks.CHECKS["thm12"].defaults, checks.CHECKS["oracle"].defaults
    p.add_argument("--which", choices=tuple(checks.CHECKS), required=True)
    p.add_argument("--t", type=int, help=f"for thm12 (default {thm12['t']})")
    p.add_argument("--order", type=int)
    p.add_argument("--t-max", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--k-max", type=int, help=f"for oracle (default {oracle['k_max']})")
    p.add_argument(
        "--full",
        action="store_true",
        default=None,
        help="for thm12: extend the order to 100 past the theorem bound "
        "(0.7 s and 19 MiB at t=3, 7 s and 43 MiB at t=4, 76 s and 148 MiB at t=5)",
    )
    p.add_argument("--format", choices=tuple(checks.FORMATS), default="human")
    p.set_defaults(run=_cmd_verify_theorem)


def _cmd_count(args) -> int:
    # each method's table checks t and k; a negative n is named as n, not as the order
    order = max(args.n, 0)
    if args.method == "enum":
        count = hookgf.btk_enum_table((args.t,), order, (args.k,))[args.t][args.k, order]
    else:
        table = hookgf.hook_table(args.t, args.k, order)
        count = deque(hookgf.coefficients(args.t, table, order), maxlen=1)[0]
    if args.n < 0:
        raise ValueError("n must be nonnegative")
    print(count)
    return 0


def _cmd_series(args) -> int:
    if args.name in hookgf.PIECES:
        table = hookgf.piece_table(args.name, args.t)
    else:
        table = hookgf.hook_table(args.t, int(args.name[-1]), args.order)
    # written as the blocks are computed, so a long order holds T and one block
    for line in csv_lines(hookgf.coefficients(args.t, table, args.order)):
        print(line)
    return 0


def _cmd_verify_identity(args) -> int:
    check = checks.run_identity_check(args.which, (args.t,), args.order)
    checks.emit(check, args.format, sys.stdout)
    return 0 if check.passed else 1


def _cmd_verify_injection(args) -> int:
    reports = injections.verify_injection_range(args.map, args.t, args.n_max)
    if not sum(r.domain_size for r in reports):
        raise ValueError(
            f"{args.map} at t={args.t} has an empty domain for every n in "
            f"{reports[0].n}..{args.n_max}; the check scans nothing"
        )
    checks.emit(reports, args.format, sys.stdout)
    regular_from = injections.MAPS[args.map].regular_from
    if args.t < regular_from:  # the paper proves the images t-regular from there on
        caveat = f"{args.map} images need not stay {args.t}-regular for t < {regular_from}"
        print(f"warning: {caveat}", file=sys.stderr)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_verify_theorem(args) -> int:
    defaults, run = checks.CHECKS[args.which]
    every = {name for spec in checks.CHECKS.values() for name in spec.defaults}
    given = {name: v for name, v in vars(args).items() if name in every and v is not None}
    unread = ["--" + name.replace("_", "-") for name in given if name not in defaults]
    if unread:
        raise ValueError(f"--which {args.which} does not read {', '.join(unread)}")
    check = run(**{**defaults, **given})  # a given value, zero included, beats the default
    checks.emit(check, args.format, sys.stdout)
    return 0 if check.passed else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
    return 2


def run() -> None:
    sys.exit(main())
