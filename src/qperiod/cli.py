"""Command-line front end: one binary, one subcommand per checker.

One table, COMMANDS, drives the subcommands.  Its row for a subcommand
holds the help text, the adders of its arguments, and one function that
checks the arguments, computes, and returns the JSON report together
with a callable that renders the text lines.  `build_parser` builds every
subparser from the table and `main` runs the chosen row; main is the one
place that prints a report.  A new subcommand is one function that
returns (report, text) and one more row in COMMANDS.

JSON output (--json) is the scripting contract: field order is fixed, so
identical inputs produce byte-identical bytes, and integers that do not
fit exactly in a double travel as decimal strings.  The default table
output is for humans and aligns coefficient columns.

Exit codes: 0 success (a failed congruence is still a successful check),
2 usage error (bad flags, eagerly rejected arguments, an input over a cost
cap), 1 computation error, or an output pipe its reader closed (with
nothing on stderr)."""
from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from typing import Callable, NamedTuple

from .cyclo import NotDivisibleError
from .liedata import build_root_system, constants, gauss_report
from .linkdiag import (
    BraidWord,
    WidthLimitError,
    jones,
    jones_of_braid,
    murasugi_check,
    parse_braid,
    parse_pd,
    yokota_check,
    yokota_check_braid,
)
from .modular import is_prime
from .qpoly import poly_text, poly_to_json
from .tau import coeff_table, obstruction_test, period_discriminant, tau_for

MANIFOLD_IDS = {"poincare": "poincare", "brieskorn237": "brieskorn_2_3_7", "s3": "s3"}

# a gauss report sums all r^rank cosets three times, about 22 us per coset
# in all with Python 3.11 on one Xeon core, so the default allows some 4.5 s
# of work
GAUSS_MAX_COSETS = 200_000

# what a row's function returns: the JSON report, and its text lines,
# rendered only for table output
Report = tuple[dict, Callable[[], list[str]]]


def _algebra_name(family: str, rank: int) -> str:
    if family == "A":
        return f"sl{rank + 1}"
    if family == "B":
        return f"so{2 * rank + 1}"
    if family == "C":
        return f"sp{2 * rank}"
    if family == "D":
        return f"so{2 * rank}"
    return f"{family.lower()}{rank}"


def aligned(header: tuple[str, ...], rows) -> list[str]:
    """The header and rows as lines of right-aligned columns, two spaces
    apart."""
    text_rows = [header] + [tuple(str(c) for c in row) for row in rows]
    widths = [max(len(row[i]) for row in text_rows) for i in range(len(header))]
    return ["  ".join(s.rjust(w) for s, w in zip(row, widths)) for row in text_rows]


def factor_text(factorization) -> str:
    """Prime-power pairs as 'p^e * q * ...', empty for no factors."""
    return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in factorization)


def _is_prime(sub: argparse.ArgumentParser, name: str, n: int) -> bool:
    """is_prime(n), where n too large to decide is a usage error."""
    try:
        return is_prime(n)
    except ValueError as exc:
        sub.error(f"{name} = {n}: {exc}")


def _require_prime(sub: argparse.ArgumentParser, name: str, n: int) -> None:
    if not _is_prime(sub, name, n):
        sub.error(f"{name} = {n} must be prime")


def _require_odd_prime(sub: argparse.ArgumentParser, name: str, n: int) -> None:
    _require_prime(sub, name, n)
    if n == 2:
        sub.error(f"{name} = 2 must be an odd prime")


def _manifold_at_level(args) -> str:
    """The manifold id of --manifold, once --r is a level for it: an odd
    prime for s3, a prime above d*h_dual = 4 for the others."""
    mid = MANIFOLD_IDS[args.manifold]
    if mid == "s3":
        _require_odd_prime(args.sub, "r", args.r)
    else:
        _require_prime(args.sub, "r", args.r)
        if args.r <= 4:
            args.sub.error(f"r = {args.r} must exceed d*h_dual = 4 for sl2")
    return mid


def _depth(args, default: int) -> int:
    depth = default if args.depth is None else args.depth
    if not 0 <= depth <= args.r - 2:
        args.sub.error(f"depth = {depth} must lie in [0, r-2] = [0, {args.r - 2}]")
    return depth


def _build_system(sub: argparse.ArgumentParser, family: str, rank: int):
    try:
        return build_root_system(family, rank)
    except ValueError as exc:
        sub.error(str(exc))


def _parse_primes(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")


def _load_braid(sub: argparse.ArgumentParser, text: str) -> BraidWord:
    try:
        return parse_braid(text)
    except ValueError as exc:
        sub.error(str(exc))


def _load_link(args):
    """The BraidWord of --braid or the PlanarDiagram read from --pd."""
    if args.braid is not None:
        return _load_braid(args.sub, args.braid)
    try:
        with open(args.pd, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        args.sub.error(f"cannot read {args.pd}: {exc}")
    return parse_pd(text)


def _congruence(name: str, p: int, rep) -> Report:
    def text() -> list[str]:
        if rep.passed:
            return [f"{name} p={p} PASS"]
        return [f"{name} p={p} FAIL", f"residual {poly_text(rep.residual)}"]

    return rep.to_json(), text


# ---------------------------------------------------------------------------
# subcommands: check the arguments, compute, return (report, text)


def _tau(args) -> Report:
    mid = _manifold_at_level(args)
    depth = _depth(args, min(3, args.r - 2))
    value = tau_for(mid, args.r)
    rows = coeff_table(value.value, depth)
    return value.to_json() | {"a": [[n, a] for n, a in rows]}, lambda: [
        f"manifold {mid}",
        f"r {args.r}",
        f"value {value.value}",
        *aligned(("n", "a_n"), rows),
    ]


def _obstruct(args) -> Report:
    mid = _manifold_at_level(args)
    rs = _build_system(args.sub, args.type, args.rank)
    rep = obstruction_test(tau_for(mid, args.r).value, args.r, rs)
    return rep.to_json(mid), lambda: [
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
    for r in args.primes:
        if not _is_prime(args.sub, "level r", r) or r <= 4:
            args.sub.error(f"level r = {r} must be a prime > 4")
    rep = period_discriminant(mid, args.primes)

    def text() -> list[str]:
        factors = factor_text(rep.factorization) or "(none)"
        return [f"manifold {mid}", *aligned(("r", "v", "delta"), rep.residues),
                f"lifted {rep.lifted}", f"factors {factors}"]

    return rep.to_json(), text


def _ohtsuki(args) -> Report:
    mid = _manifold_at_level(args)
    depth = _depth(args, args.r - 2)
    rows = coeff_table(tau_for(mid, args.r).value, depth)
    report = {"manifold": mid, "r": args.r, "a": [[n, a] for n, a in rows]}
    return report, lambda: aligned(("n", "a_n"), rows)


def _jones(args) -> Report:
    link = _load_link(args)
    v = jones_of_braid(link) if isinstance(link, BraidWord) else jones(link)
    return poly_to_json(v), lambda: [poly_text(v)]


def _murasugi(args) -> Report:
    _require_odd_prime(args.sub, "p", args.p)
    b = _load_braid(args.sub, args.braid)
    return _congruence("murasugi", args.p, murasugi_check(b, args.p))


def _yokota(args) -> Report:
    _require_odd_prime(args.sub, "p", args.p)
    link = _load_link(args)
    check = yokota_check_braid if isinstance(link, BraidWord) else yokota_check
    return _congruence("yokota", args.p, check(link, args.p))


def _gauss(args) -> Report:
    sub = args.sub
    rs = _build_system(sub, args.type, args.rank)
    _require_prime(sub, "r", args.r)
    bound = constants(rs).d * constants(rs).h_dual
    if args.r <= bound:
        sub.error(
            f"r = {args.r} must exceed d*h_dual = {bound} for {_algebra_name(args.type, args.rank)}"
        )
    cosets = args.r**args.rank
    if cosets > args.max_cosets:
        sub.error(
            f"r^rank = {args.r}^{args.rank} = {cosets} cosets exceeds the limit of "
            f"{args.max_cosets}; raise it with --max-cosets"
        )
    rep = gauss_report(rs, args.r)
    return rep.to_json(), lambda: [
        f"type {rep.family}",
        f"rank {rep.rank}",
        f"r {rep.r}",
        f"gamma {rep.gamma}",
        f"ker {rep.ker_size}",
        f"group {rep.group_size}",
        f"magnitude_ok {rep.magnitude_ok}",
        f"ratio_ok {rep.ratio_ok}",
        f"omega {rep.omega_sign}",
    ]


def _liedata(args) -> Report:
    rs = _build_system(args.sub, args.type, args.rank)
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
    "discriminant": Command("CRT-lifted period discriminant over prime levels",
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
    except WidthLimitError as exc:
        # a cost refusal, so a usage error; WidthLimitError is a ValueError
        args.sub.error(str(exc))
    except (ValueError, NotDivisibleError, ArithmeticError) as exc:
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
