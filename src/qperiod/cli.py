"""Command-line front end: one binary, one subcommand per checker.

One table, COMMANDS, drives the subcommands.  Its row for a subcommand
holds the help text, the adders of its arguments, and one function that
computes and returns the JSON report together with a callable that
renders the text lines.  `build_parser` builds every subparser from the
table and `main` runs the chosen row; main is the one place that prints a
report.  A new subcommand is one function that returns (report, text)
and one more row in COMMANDS.

The library checks every argument and refuses a bad one with
`modular.InputError`, which main reports as a usage error.  The CLI
checks only what names one of its own flags: an empty --primes, the
--max-cosets cap and an unreadable --pd.  Where the library would check
an argument only after some work, a row calls that same library rule
first, so every refusal comes before the work it guards.

JSON output (--json) is the scripting contract: field order is fixed, so
identical inputs produce byte-identical bytes, and integers that do not
fit exactly in a double travel as decimal strings.  The default table
output is for humans and aligns coefficient columns.  Every JSON field
and text line is built here, next to each other in the row's function;
the library returns plain results, and `qpoly.poly_to_json` is the one
serializer shared with it.

Exit codes: 0 success (a failed congruence is still a successful check),
2 usage error (bad flags, an InputError from the library, an input over a
cost cap), 1 computation error, or an output pipe its reader closed (with
nothing on stderr)."""
from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from typing import Callable, NamedTuple

from .cyclo import CyclotomicInt, require_depth
from .liedata import build_root_system, constants, gauss_report, require_level
from .linkdiag import (
    closure, jones, murasugi_check, parse_braid, parse_pd, require_period, yokota_check,
)
from .modular import InputError, encode_int
from .qpoly import HalfLaurent, poly_to_json
from .tau import coeff_table, obstruction_test, period_discriminant, require_manifold_level, tau_for

MANIFOLD_IDS = {"poincare": "poincare", "brieskorn237": "brieskorn_2_3_7", "s3": "s3"}

# a gauss report sums all r^rank cosets three times, about 5.5 to 7 us per
# coset in all with Python 3.11 on one core of a shared Xeon, so the default
# allows some 1.1 to 1.4 s of work
GAUSS_MAX_COSETS = 200_000

CANDIDATE_V_RULE = (
    "v = -2*a1/a0 mod r, the unique twist matching the first-order rule "
    "a1(xi^v * conj(x)) = -a1(x) - v*a0(x)"
)

# what a row's function returns: the JSON report, and its text lines,
# rendered only for table output
Report = tuple[dict, Callable[[], list[str]]]


def aligned(header: tuple[str, ...], rows) -> list[str]:
    """The header and rows as lines of right-aligned columns, two spaces
    apart."""
    text_rows = [header] + [tuple(str(c) for c in row) for row in rows]
    widths = [max(len(row[i]) for row in text_rows) for i in range(len(header))]
    return ["  ".join(s.rjust(w) for s, w in zip(row, widths)) for row in text_rows]


def factor_text(factorization) -> str:
    """Prime-power pairs as 'p^e * q * ...', empty for no factors."""
    return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in factorization)


def cyclo_json(x: CyclotomicInt) -> dict:
    return {"r": x.r, "coeffs": [encode_int(c) for c in x.coeffs]}


def cyclo_text(x: CyclotomicInt) -> str:
    """The nonzero canonical coordinates as a sum of c, c*xi and c*xi^i tokens."""
    powers = ["", "*xi"] + [f"*xi^{i}" for i in range(2, x.r - 1)]
    return " + ".join(f"{c}{power}" for c, power in zip(x.coeffs, powers) if c) or "0"


def poly_text(f: HalfLaurent) -> str:
    """Render as a sorted sum of c*t^(e) tokens, half exponents as k/2."""
    tokens = (f"{c}*t^({k // 2})" if k % 2 == 0 else f"{c}*t^({k}/2)" for k, c in f.terms)
    return " + ".join(tokens) or "0"


def _depth(args, mid: str, default: int) -> int:
    """--depth or the default.  tau checks its level and the table its
    depth, but the table only after tau is computed, so both rules run
    here first, in that order."""
    require_manifold_level(mid, args.r)
    depth = default if args.depth is None else args.depth
    require_depth(depth, args.r)
    return depth


def _parse_primes(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")


def _load_link(args):
    """The PlanarDiagram of --braid's closure or the one read from --pd, so
    that jones and yokota have one path for both."""
    if args.braid is not None:
        return closure(parse_braid(args.braid))
    try:
        with open(args.pd, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        args.sub.error(f"cannot read {args.pd}: {exc}")
    return parse_pd(text)


def _congruence(name: str, rep) -> Report:
    def text() -> list[str]:
        if rep.passed:
            return [f"{name} p={rep.p} PASS"]
        return [f"{name} p={rep.p} FAIL", f"residual {poly_text(rep.residual)}"]

    report = {
        "passed": rep.passed,
        "p": rep.p,
        "lhs": poly_to_json(rep.lhs),
        "rhs": poly_to_json(rep.rhs),
        "residual": poly_to_json(rep.residual),
    }
    return report, text


# ---------------------------------------------------------------------------
# subcommands: compute and return (report, text)


def _tau(args) -> Report:
    mid = MANIFOLD_IDS[args.manifold]
    depth = _depth(args, mid, min(3, args.r - 2))
    value = tau_for(mid, args.r).value
    rows = coeff_table(value, depth)
    report = {
        "manifold": mid,
        "r": args.r,
        "value": cyclo_json(value),
        "a": [[n, a] for n, a in rows],
    }
    return report, lambda: [
        f"manifold {mid}",
        f"r {args.r}",
        f"value {cyclo_text(value)}",
        *aligned(("n", "a_n"), rows),
    ]


def _obstruct(args) -> Report:
    mid = MANIFOLD_IDS[args.manifold]
    require_manifold_level(mid, args.r)  # before --type and --rank
    rs = build_root_system(args.type, args.rank)
    rep = obstruction_test(tau_for(mid, args.r).value, args.r, rs)
    report = {
        "manifold": mid,
        "r": args.r,
        "verdict": rep.verdict,
        "admissible_v": list(rep.admissible_v),
        "a": [[n, a] for n, a in rep.a_table],
    }
    return report, lambda: [
        f"manifold {mid}",
        f"r {args.r}",
        f"verdict {rep.verdict}",
        "admissible_v " + (" ".join(str(v) for v in rep.admissible_v) or "(none)"),
        *aligned(("n", "a_n"), rep.a_table),
    ]


def _discriminant(args) -> Report:
    mid = MANIFOLD_IDS[args.manifold]
    if not args.primes:
        args.sub.error("--primes is an empty list; give at least one prime level > 4")
    rep = period_discriminant(mid, args.primes)

    def text() -> list[str]:
        factors = factor_text(rep.factorization) or "(none)"
        return [f"manifold {mid}", *aligned(("r", "v", "delta"), rep.residues),
                f"lifted {rep.lifted}", f"factors {factors}"]

    report = {
        "manifold": mid,
        "rule": CANDIDATE_V_RULE,
        "residues": [[r, v, delta] for r, v, delta in rep.residues],
        "dropped": [],
        "lifted": encode_int(rep.lifted),
        "factors": [[p, e] for p, e in rep.factorization],
    }
    return report, text


def _ohtsuki(args) -> Report:
    mid = MANIFOLD_IDS[args.manifold]
    depth = _depth(args, mid, args.r - 2)
    rows = coeff_table(tau_for(mid, args.r).value, depth)
    report = {"manifold": mid, "r": args.r, "a": [[n, a] for n, a in rows]}
    return report, lambda: aligned(("n", "a_n"), rows)


def _jones(args) -> Report:
    v = jones(_load_link(args))
    return poly_to_json(v), lambda: [poly_text(v)]


def _murasugi(args) -> Report:
    require_period(args.p)  # before the braid is parsed
    return _congruence("murasugi", murasugi_check(parse_braid(args.braid), args.p))


def _yokota(args) -> Report:
    require_period(args.p)  # before the link is loaded
    return _congruence("yokota", yokota_check(_load_link(args), args.p))


def _gauss(args) -> Report:
    rs = build_root_system(args.type, args.rank)
    require_level(rs, args.r)  # before the coset cap
    cosets = args.r**args.rank
    if cosets > args.max_cosets:
        args.sub.error(
            f"r^rank = {args.r}^{args.rank} = {cosets} cosets exceeds the limit of "
            f"{args.max_cosets}; raise it with --max-cosets"
        )
    rep = gauss_report(rs, args.r)
    report = {
        "type": rep.family,
        "rank": rep.rank,
        "r": rep.r,
        "gamma": cyclo_json(rep.gamma),
        "ker": rep.ker_size,
        "magnitude_ok": rep.magnitude_ok,
        "ratio_ok": rep.ratio_ok,
        "omega": rep.omega_sign,
    }
    return report, lambda: [
        f"type {rep.family}",
        f"rank {rep.rank}",
        f"r {rep.r}",
        f"gamma {cyclo_text(rep.gamma)}",
        f"ker {rep.ker_size}",
        f"group {rep.group_size}",
        f"magnitude_ok {rep.magnitude_ok}",
        f"ratio_ok {rep.ratio_ok}",
        f"omega {rep.omega_sign}",
    ]


def _liedata(args) -> Report:
    rs = build_root_system(args.type, args.rank)
    cs = constants(rs)
    rows = [
        ("d", cs.d),
        ("D", cs.D),
        ("h", cs.h),
        ("h_dual", cs.h_dual),
        ("det", cs.det_cartan),
        ("weyl_order", cs.weyl_order),
        ("positive_roots", len(rs.positive_roots)),
    ]
    return {"type": rs.family, "rank": rs.rank, **dict(rows)}, lambda: [
        f"type {rs.family}",
        f"rank {rs.rank}",
        *aligned(("constant", "value"), rows),
    ]


# ---------------------------------------------------------------------------
# argument adders and the command table


def _add_manifold(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--manifold",
        required=True,
        choices=sorted(MANIFOLD_IDS),
        help="which manifold's invariant to use",
    )


def _add_link_source(sub: argparse.ArgumentParser) -> None:
    src = sub.add_mutually_exclusive_group(required=True)
    src.add_argument("--braid", help='braid word, e.g. "strands 2 : 1 1 1"')
    src.add_argument("--pd", metavar="FILE", help="planar diagram file")


def _add_system(sub: argparse.ArgumentParser, required: bool) -> None:
    sub.add_argument(
        "--type",
        required=required,
        default=None if required else "A",
        choices=list("ABCDEFG"),
        help="root system family",
    )
    sub.add_argument(
        "--rank",
        type=int,
        required=required,
        default=None if required else 1,
        help="root system rank",
    )


def _option(*flags: str, **kwargs) -> Callable[[argparse.ArgumentParser], None]:
    """The adder of one argument."""
    return lambda sub: sub.add_argument(*flags, **kwargs)


def _depth_option(default: str) -> Callable[[argparse.ArgumentParser], None]:
    return _option("--depth", type=int, default=None, help=f"last coefficient row (default {default})")


_LEVEL = _option("--r", type=int, required=True, help="prime level")
_PERIOD = _option("--p", type=int, required=True, help="odd prime period")
_PRIMES = _option(
    "--primes", type=_parse_primes, required=True, metavar="N,N,...", help="comma-separated prime levels"
)
_MAX_COSETS = _option(
    "--max-cosets",
    type=int,
    default=GAUSS_MAX_COSETS,
    metavar="N",
    help=f"refuse levels with more than N = r^rank cosets (default {GAUSS_MAX_COSETS})",
)
_SYSTEM = partial(_add_system, required=True)


class Command(NamedTuple):
    help: str
    arguments: tuple[Callable[[argparse.ArgumentParser], None], ...]
    run: Callable[[argparse.Namespace], Report]


# one row per subcommand, in the order that --help lists them
COMMANDS = {
    "tau": Command("invariant value and low Ohtsuki coefficients",
                   (_add_manifold, _LEVEL, _depth_option("3")), _tau),
    "obstruct": Command("twisted-conjugation periodicity obstruction",
                        (_add_manifold, _LEVEL, partial(_add_system, required=False)), _obstruct),
    "discriminant": Command("period discriminant: one integer defect reduced over prime levels",
                            (_add_manifold, _PRIMES), _discriminant),
    "ohtsuki": Command("(1-xi)-adic coefficient table of an invariant",
                       (_add_manifold, _LEVEL, _depth_option("r-2")), _ohtsuki),
    "jones": Command("Jones polynomial of a braid closure or diagram", (_add_link_source,), _jones),
    "murasugi": Command("periodicity congruence for a braid and odd prime",
                        (_option("--braid", required=True, help='braid word, e.g. "strands 2 : 1"'),
                         _PERIOD), _murasugi),
    "yokota": Command("Jones self-congruence test at an odd prime period",
                      (_add_link_source, _PERIOD), _yokota),
    "gauss": Command("Gauss sum, kernel size, magnitude and ratio checks",
                     (_SYSTEM, _LEVEL, _MAX_COSETS), _gauss),
    "liedata": Command("root system constants", (_SYSTEM,), _liedata),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qperiod",
        description="Exact quantum invariants at prime roots of unity and "
        "congruence obstructions to periodicity.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        for add in command.arguments:
            add(sub)
        sub.add_argument("--json", action="store_true", help="emit a JSON report instead of a table")
        sub.set_defaults(sub=sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, text = COMMANDS[args.subcommand].run(args)
        print(json.dumps(report) if args.json else "\n".join(text()))
        sys.stdout.flush()
    except InputError as exc:
        # a refused argument or an input over a cost cap; InputError is a
        # ValueError, so this clause comes first
        args.sub.error(str(exc))
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # a level so large that one element of Z[xi] does not fit
        print("error: out of memory", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so that the flush at
        # interpreter exit does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
