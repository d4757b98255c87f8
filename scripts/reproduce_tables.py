"""Regenerate the headline tables: low Ohtsuki coefficients of the two
Brieskorn invariants, their twisted conjugates, the obstruction verdicts,
and the period discriminants, one integer defect reduced over the levels.

Run as: python3 scripts/reproduce_tables.py
"""
from __future__ import annotations

from qperiod.cli import aligned, factor_text
from qperiod.cyclo import ohtsuki_digits, twist_conjugate
from qperiod.tau import discriminant_integers, obstruction_test, period_discriminant, tau_for

MANIFOLDS = (
    ("poincare", (5, 7, 11, 13, 17, 19)),
    ("brieskorn_2_3_7", (5, 7, 11, 13, 17)),
)


def print_table(title: str, header: tuple[str, ...], rows) -> None:
    print(title)
    for line in aligned(header, rows):
        print("  " + line)
    print()


def coefficient_rows(name, levels, v):
    for r in levels:
        x = tau_for(name, r).value
        d = ohtsuki_digits(x, 3)
        dbar = ohtsuki_digits(twist_conjugate(x, v), 3)
        yield (r, d[0], d[1], d[2], d[3], dbar[3])


def main() -> None:
    for name, levels in MANIFOLDS:
        # the twist v = -2 c_1 that the discriminant reads, -12 for both
        _, v, _ = discriminant_integers(name)
        print_table(
            f"{name}: a_n and the {v}-twisted conjugate a_3",
            ("r", "a0", "a1", "a2", "a3", "a3~"),
            coefficient_rows(name, levels, v),
        )

    verdict_rows = []
    for name, levels in MANIFOLDS:
        for r in levels:
            rep = obstruction_test(tau_for(name, r).value, r)
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
