"""Command-line front end: classpoly / search / verify / tables.

classpoly, search and tables print JSON to stdout (big integers as decimal
strings) and verify its status word; diagnostics go to stderr.
Exit codes: 0 success, 1 ordinary (verify), 2 rounding not proven at the
sized precision, 3 l-bound exhausted, 4 unverified-large (verify), 64 usage
error, 65 supersingular-at-p precondition, 66 real-j case (h outside j_p(S)).
Any other ValueError or ArithmeticError, such as an unparsable --h (which
takes ``n`` or ``n/d``) or a non-positive count or bound, exits 64.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .classpoly import PrecisionExhaustedError, build_PD
from .intmath import FactorBudget
from .levels import level
from .quadforms import fundamental_unit
from .hauptmodul import jp_arc_interval
from .sssearch import RealJCaseError, SupersingularAtPError, search, search_polynomial
from .ssverify import VERIFY_EFFORT_BOUND, QuadSurd, verify_certificate

EXIT_OK = 0
EXIT_ORDINARY = 1
EXIT_PRECISION = 2
EXIT_BOUND = 3
EXIT_UNVERIFIED = 4
EXIT_USAGE = 64
EXIT_SUPERSINGULAR_AT_P = 65
EXIT_REAL_J = 66

# the statuses that answer ``heegner verify``; any other exits 64
VERIFY_EXIT = {"supersingular": EXIT_OK, "ordinary": EXIT_ORDINARY,
               "unverified-large": EXIT_UNVERIFIED}

# how ``main`` reports a failure: the first row whose type matches wins, and
# an exception of no listed type propagates
FAILURE_EXIT = {
    SupersingularAtPError: EXIT_SUPERSINGULAR_AT_P,
    RealJCaseError: EXIT_REAL_J,
    PrecisionExhaustedError: EXIT_PRECISION,
    ValueError: EXIT_USAGE,
    ArithmeticError: EXIT_USAGE,
}

# the count and runtime limits a command may take, each of which must be positive;
# the precision is never a setting, because each class polynomial sizes its own
LIMITS = ("count", "ell_bound", "factor_budget", "verify_bound")

# --h is n or n/d, each an integer as int() reads it (its white space is \s but \x1c-\x1f)
_INTEGER = r"[^\S\x1c-\x1f]*([+-]?\d+(?:_\d+)*)[^\S\x1c-\x1f]*"
H_FORM = re.compile(f"{_INTEGER}(?:/{_INTEGER})?")


def int_list(text: str) -> tuple[int, ...]:
    """A comma-separated list of integers; argparse names the option whose
    value this fails on."""
    return tuple(int(v) for v in text.split(",") if v)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="heegner", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    cp = sub.add_parser("classpoly", help="construct a class polynomial")
    cp.set_defaults(run=_cmd_classpoly)
    cp.add_argument("--p", type=int, required=True)
    group = cp.add_mutually_exclusive_group(required=True)
    group.add_argument("--D", type=int)
    group.add_argument("--ell", type=int)

    se = sub.add_parser("search", help="find supersingular primes for a point")
    se.set_defaults(run=_cmd_search)
    se.add_argument("--p", type=int, required=True)
    se.add_argument("--h", type=str, required=True, help='rational "n/d"')
    se.add_argument("--avoid", type=int_list, default="", help="comma-separated primes")
    se.add_argument("--count", type=int, default=1)
    se.add_argument("--ell-bound", type=int, default=500)
    se.add_argument("--factor-budget", type=int, default=FactorBudget.rho_iterations,
                    help="ECM effort of the whole search, in rho iterations; the "
                    "denominator and every numerator draw on it")
    se.add_argument("--verify-bound", type=int, default=VERIFY_EFFORT_BOUND)

    ve = sub.add_parser("verify", help="test supersingularity of a j-invariant")
    ve.set_defaults(run=_cmd_verify)
    ve.add_argument("--j", type=str, required=True, help='"(u+v*sqrt(m))/w"')
    ve.add_argument("--q", type=int, required=True)
    ve.add_argument("--verify-bound", type=int, default=VERIFY_EFFORT_BOUND)

    ta = sub.add_parser("tables", help="print level data and derived constants")
    ta.set_defaults(run=_cmd_tables)
    ta.add_argument("--p", type=int, required=True)
    return parser


def _cmd_classpoly(args) -> int:
    if args.D is not None:
        poly = build_PD(args.D, args.p)
    else:
        poly, _ = search_polynomial(args.p, args.ell)
    print(poly.to_json())
    return EXIT_OK


def _cmd_search(args) -> int:
    if (form := H_FORM.fullmatch(args.h)) is None:
        raise ValueError(f"--h {args.h} is not an integer n or a fraction n/d")
    num, den = map(int, form.groups(default="1"))
    if not den:
        raise ValueError(f"--h {args.h} has a zero denominator")
    h = Fraction(num, den)
    certs = search(args.p, h, sigma=args.avoid,
                   count=args.count, ell_bound=args.ell_bound,
                   budget=FactorBudget(rho_iterations=args.factor_budget),
                   effort_bound=args.verify_bound)
    found = 0
    for cert in certs:
        found += len(cert.selected)
        print(cert.to_json())
    if found < args.count:
        print(f"l bound {args.ell_bound} exhausted after {found} of {args.count} primes",
              file=sys.stderr)
        return EXIT_BOUND
    return EXIT_OK


def _cmd_verify(args) -> int:
    j = QuadSurd.from_string(args.j)
    status = verify_certificate((args.q,), j, args.verify_bound)[args.q]
    if status not in VERIFY_EXIT:
        raise ValueError(f"{status} at q = {args.q}")
    print(status)
    return VERIFY_EXIT[status]


def _cmd_tables(args) -> int:
    p = args.p
    lev = level(p)
    data: dict = {"p": p, "supersingular_jp": {"values": list(lev.supersingular),
                                               "provenance": "table"}}
    if lev.brandt is not None:
        data["brandt"] = {"matrix": [list(row) for row in lev.brandt], "provenance": "table"}
    if lev.real_arc:
        c, d = fundamental_unit(p)
        lo, hi = jp_arc_interval(p)
        data["fundamental_unit"] = {"c": c, "d": d, "provenance": "derived"}
        data["arc_interval"] = {"inf": lo, "sup": hi, "provenance": "derived"}
    if not lev.searchable:
        data["note"] = f"theorem not proven for p={p}"
    print(json.dumps(data))
    return EXIT_OK


def _attach_negative_values(argv):
    """``--h -1/2`` as ``--h=-1/2``: argparse takes a token that starts with
    '-' and is not a plain number for an option, so a negative fraction is
    attached to the flag before it."""
    out = []
    for token in argv:
        if out and out[-1].startswith("--") and token[:1] == "-" and token[1:2].isdigit():
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_attach_negative_values(argv))
    try:
        if min(getattr(args, name, 1) for name in LIMITS) <= 0:
            raise ValueError("the count and the bounds must be positive")
        return args.run(args)
    except tuple(FAILURE_EXIT) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in FAILURE_EXIT.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
