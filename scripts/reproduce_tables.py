"""Regenerate the headline tables: low Ohtsuki coefficients of the two
Brieskorn invariants, their twisted conjugates, the obstruction verdicts,
and the CRT-lifted period discriminants.

Run as: python3 scripts/reproduce_tables.py
"""
from __future__ import annotations

from qperiod.cli import aligned, factor_text
from qperiod.cyclo import ohtsuki_digits
from qperiod.tau import (
    obstruction_test,
    period_discriminant,
    tau_brieskorn237,
    tau_poincare,
    twist_conjugate,
)

POINCARE_LEVELS = (5, 7, 11, 13, 17, 19)
BRIESKORN_LEVELS = (5, 7, 11, 13, 17)


def print_table(title: str, header: tuple[str, ...], rows) -> None:
    print(title)
    for line in aligned(header, rows):
        print("  " + line)
    print()


def coefficient_rows(tau_fn, levels):
    for r in levels:
        x = tau_fn(r).value
        d = ohtsuki_digits(x, 3)
        dbar = ohtsuki_digits(twist_conjugate(x, -12), 3)
        yield (r, d[0], d[1], d[2], d[3], dbar[3])


def main() -> None:
    print_table(
        "poincare: a_n and the -12-twisted conjugate a_3",
        ("r", "a0", "a1", "a2", "a3", "a3~"),
        coefficient_rows(tau_poincare, POINCARE_LEVELS),
    )
    print_table(
        "brieskorn_2_3_7: a_n and the -12-twisted conjugate a_3",
        ("r", "a0", "a1", "a2", "a3", "a3~"),
        coefficient_rows(tau_brieskorn237, BRIESKORN_LEVELS),
    )

    verdict_rows = []
    for name, tau_fn, levels in (
        ("poincare", tau_poincare, POINCARE_LEVELS),
        ("brieskorn_2_3_7", tau_brieskorn237, BRIESKORN_LEVELS),
    ):
        for r in levels:
            rep = obstruction_test(tau_fn(r).value, r)
            vs = " ".join(str(v) for v in rep.admissible_v) or "-"
            verdict_rows.append((name, r, rep.verdict, vs))
    print_table("obstruction verdicts", ("manifold", "r", "verdict", "admissible v"), verdict_rows)

    for name, levels in (
        ("poincare", (7, 11, 13, 17)),
        ("brieskorn_2_3_7", (11, 13, 17, 19)),
    ):
        rep = period_discriminant(name, levels)
        print_table(
            f"{name} discriminant: lifted = {rep.lifted} = {factor_text(rep.factorization)}",
            ("r", "v", "delta"),
            rep.residues,
        )


if __name__ == "__main__":
    main()
