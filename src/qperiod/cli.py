"""Command-line front end: one binary, one subcommand per checker.

JSON output (--json) is the scripting contract: field order is fixed, so
identical inputs produce byte-identical bytes, and integers that do not
fit exactly in a double travel as decimal strings.  The default table
output is for humans and aligns coefficient columns.

Exit codes: 0 success (a failed congruence is still a successful check),
2 usage error (bad flags, eagerly rejected arguments), 1 computation
error, or an output pipe its reader closed (with nothing on stderr)."""
from __future__ import annotations

import argparse
import json
import os
import sys

from .cyclo import NotDivisibleError
from .liedata import build_root_system, constants, gauss_report
from .linkdiag import (
    BraidWord,
    CrossingLimitError,
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

# a gauss report sums all r^rank cosets four times, about 30 us per coset
# with Python 3.11 on one Xeon core, so the default allows some 6 s of work
GAUSS_MAX_COSETS = 200_000


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


def _aligned(header: tuple[str, ...], rows) -> list[str]:
    text_rows = [header] + [tuple(str(c) for c in row) for row in rows]
    widths = [max(len(row[i]) for row in text_rows) for i in range(len(header))]
    return ["  ".join(s.rjust(w) for s, w in zip(row, widths)) for row in text_rows]


def _emit_json(obj: dict) -> int:
    print(json.dumps(obj))
    return 0


def _require_prime(sub: argparse.ArgumentParser, name: str, n: int) -> None:
    if not is_prime(n):
        sub.error(f"{name} = {n} must be prime")


def _manifold_at_level(args) -> str:
    """The manifold id of --manifold, once --r is a level for it: any prime
    for s3, a prime above d*h_dual = 4 for the others."""
    mid = MANIFOLD_IDS[args.manifold]
    _require_prime(args.sub, "r", args.r)
    if mid != "s3" and args.r <= 4:
        args.sub.error(f"r = {args.r} must exceed d*h_dual = 4 for sl2")
    return mid


def _depth(args, default: int) -> int:
    depth = default if args.depth is None else args.depth
    if not 0 <= depth <= args.r - 2:
        args.sub.error(f"depth = {depth} must lie in [0, r-2] = [0, {args.r - 2}]")
    return depth


def _require_odd_prime_period(args) -> None:
    _require_prime(args.sub, "p", args.p)
    if args.p == 2:
        args.sub.error("p = 2 must be an odd prime")


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


def _report_congruence(name: str, args, rep) -> int:
    if args.json:
        return _emit_json(rep.to_json())
    print(f"{name} p={args.p} {'PASS' if rep.passed else 'FAIL'}")
    if not rep.passed:
        print(f"residual {poly_text(rep.residual)}")
    return 0


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_tau(args) -> int:
    mid = _manifold_at_level(args)
    depth = _depth(args, min(3, args.r - 2))
    value = tau_for(mid, args.r)
    rows = coeff_table(value.value, depth)
    if args.json:
        return _emit_json(value.to_json() | {"a": [[n, a] for n, a in rows]})
    print(f"manifold {mid}")
    print(f"r {args.r}")
    print(f"value {value.value}")
    for line in _aligned(("n", "a_n"), rows):
        print(line)
    return 0


def _cmd_obstruct(args) -> int:
    mid = _manifold_at_level(args)
    rs = _build_system(args.sub, args.type, args.rank)
    rep = obstruction_test(tau_for(mid, args.r).value, args.r, rs)
    if args.json:
        return _emit_json(rep.to_json(mid))
    print(f"manifold {mid}")
    print(f"r {args.r}")
    print(f"verdict {rep.verdict}")
    print("admissible_v " + (" ".join(str(v) for v in rep.admissible_v) or "(none)"))
    for line in _aligned(("n", "a_n"), rep.a_table):
        print(line)
    return 0


def _cmd_discriminant(args) -> int:
    sub = args.sub
    mid = MANIFOLD_IDS[args.manifold]
    for r in args.primes:
        if not is_prime(r) or r <= 4:
            sub.error(f"level r = {r} must be a prime > 4")
    rep = period_discriminant(mid, args.primes)
    if args.json:
        return _emit_json(rep.to_json())
    print(f"manifold {mid}")
    for line in _aligned(("r", "v", "delta"), rep.residues):
        print(line)
    if rep.dropped:
        print("dropped " + " ".join(str(r) for r in rep.dropped))
    print(f"lifted {rep.lifted}")
    factors = " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in rep.factorization)
    print(f"factors {factors or '(none)'}")
    return 0


def _cmd_ohtsuki(args) -> int:
    mid = _manifold_at_level(args)
    depth = _depth(args, args.r - 2)
    x = tau_for(mid, args.r).value
    rows = coeff_table(x, depth)
    if args.json:
        return _emit_json({"manifold": mid, "r": args.r, "a": [[n, a] for n, a in rows]})
    for line in _aligned(("n", "a_n"), rows):
        print(line)
    return 0


def _cmd_jones(args) -> int:
    link = _load_link(args)
    v = jones_of_braid(link) if isinstance(link, BraidWord) else jones(link)
    if args.json:
        return _emit_json(poly_to_json(v))
    print(poly_text(v))
    return 0


def _cmd_murasugi(args) -> int:
    _require_odd_prime_period(args)
    b = _load_braid(args.sub, args.braid)
    return _report_congruence("murasugi", args, murasugi_check(b, args.p))


def _cmd_yokota(args) -> int:
    _require_odd_prime_period(args)
    link = _load_link(args)
    if isinstance(link, BraidWord):
        rep = yokota_check_braid(link, args.p)
    else:
        rep = yokota_check(link, args.p)
    return _report_congruence("yokota", args, rep)


def _cmd_gauss(args) -> int:
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
    if args.json:
        return _emit_json(rep.to_json())
    print(f"type {rep.family}")
    print(f"rank {rep.rank}")
    print(f"r {rep.r}")
    print(f"gamma {rep.gamma}")
    print(f"ker {rep.ker_size}")
    print(f"group {rep.group_size}")
    print(f"magnitude_ok {rep.magnitude_ok}")
    print(f"ratio_ok {rep.ratio_ok}")
    print(f"omega {rep.omega_sign}")
    return 0


def _cmd_liedata(args) -> int:
    sub = args.sub
    rs = _build_system(sub, args.type, args.rank)
    cs = constants(rs)
    if args.json:
        return _emit_json(
            {
                "type": rs.family,
                "rank": rs.rank,
                "d": cs.d,
                "D": cs.D,
                "h": cs.h,
                "h_dual": cs.h_dual,
                "det": cs.det_cartan,
                "weyl_order": cs.weyl_order,
                "positive_roots": len(rs.positive_roots),
            }
        )
    rows = [
        ("d", cs.d),
        ("D", cs.D),
        ("h", cs.h),
        ("h_dual", cs.h_dual),
        ("det", cs.det_cartan),
        ("weyl_order", cs.weyl_order),
        ("positive_roots", len(rs.positive_roots)),
    ]
    print(f"type {rs.family}")
    print(f"rank {rs.rank}")
    for line in _aligned(("constant", "value"), rows):
        print(line)
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_manifold(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--manifold",
        required=True,
        choices=sorted(MANIFOLD_IDS),
        help="which manifold's invariant to use",
    )


def _add_json(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", help="emit a JSON report instead of a table")


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qperiod",
        description="Exact quantum invariants at prime roots of unity and "
        "congruence obstructions to periodicity.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("tau", help="invariant value and low Ohtsuki coefficients")
    _add_manifold(sub)
    sub.add_argument("--r", type=int, required=True, help="prime level")
    sub.add_argument("--depth", type=int, default=None, help="last coefficient row (default 3)")
    _add_json(sub)
    sub.set_defaults(func=_cmd_tau, sub=sub)

    sub = subs.add_parser("obstruct", help="twisted-conjugation periodicity obstruction")
    _add_manifold(sub)
    sub.add_argument("--r", type=int, required=True, help="prime level")
    _add_system(sub, required=False)
    _add_json(sub)
    sub.set_defaults(func=_cmd_obstruct, sub=sub)

    sub = subs.add_parser("discriminant", help="CRT-lifted period discriminant over prime levels")
    _add_manifold(sub)
    sub.add_argument(
        "--primes",
        type=_parse_primes,
        required=True,
        metavar="N,N,...",
        help="comma-separated prime levels",
    )
    _add_json(sub)
    sub.set_defaults(func=_cmd_discriminant, sub=sub)

    sub = subs.add_parser("ohtsuki", help="(1-xi)-adic coefficient table of an invariant")
    _add_manifold(sub)
    sub.add_argument("--r", type=int, required=True, help="prime level")
    sub.add_argument("--depth", type=int, default=None, help="last coefficient row (default r-2)")
    _add_json(sub)
    sub.set_defaults(func=_cmd_ohtsuki, sub=sub)

    sub = subs.add_parser("jones", help="Jones polynomial of a braid closure or diagram")
    _add_link_source(sub)
    _add_json(sub)
    sub.set_defaults(func=_cmd_jones, sub=sub)

    sub = subs.add_parser("murasugi", help="periodicity congruence for a braid and odd prime")
    sub.add_argument("--braid", required=True, help='braid word, e.g. "strands 2 : 1"')
    sub.add_argument("--p", type=int, required=True, help="odd prime period")
    _add_json(sub)
    sub.set_defaults(func=_cmd_murasugi, sub=sub)

    sub = subs.add_parser("yokota", help="Jones self-congruence test at an odd prime period")
    _add_link_source(sub)
    sub.add_argument("--p", type=int, required=True, help="odd prime period")
    _add_json(sub)
    sub.set_defaults(func=_cmd_yokota, sub=sub)

    sub = subs.add_parser("gauss", help="Gauss sum, kernel size, magnitude and ratio checks")
    _add_system(sub, required=True)
    sub.add_argument("--r", type=int, required=True, help="prime level")
    sub.add_argument(
        "--max-cosets",
        type=int,
        default=GAUSS_MAX_COSETS,
        metavar="N",
        help=f"refuse levels with more than N = r^rank cosets (default {GAUSS_MAX_COSETS})",
    )
    _add_json(sub)
    sub.set_defaults(func=_cmd_gauss, sub=sub)

    sub = subs.add_parser("liedata", help="root system constants")
    _add_system(sub, required=True)
    _add_json(sub)
    sub.set_defaults(func=_cmd_liedata, sub=sub)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except (ValueError, CrossingLimitError, NotDivisibleError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so that the flush at
        # interpreter exit does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
