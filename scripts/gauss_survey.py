"""Survey the Gauss-sum magnitude and ratio checks across every supported
root system at its two smallest admissible primes (levels capped so the
r^rank coset sum stays fast).

Run as: python3 scripts/gauss_survey.py
"""
from __future__ import annotations

from qperiod.cli import GAUSS_MAX_COSETS, aligned
from qperiod.liedata import RANK_CAPS, admissible_r, build_root_system, constants, gauss_report


def small_admissible_levels(rs, count: int = 2):
    cs = constants(rs)
    found = []
    r = cs.d * cs.h_dual + 1
    while len(found) < count and r ** rs.rank <= GAUSS_MAX_COSETS:
        if admissible_r(rs, r):
            found.append(r)
        r += 1
    return found


def main() -> None:
    rows = []
    for family, (lo, hi) in sorted(RANK_CAPS.items()):
        for rank in range(lo, hi + 1):
            rs = build_root_system(family, rank)
            for r in small_admissible_levels(rs):
                rep = gauss_report(rs, r)
                rows.append(
                    (
                        f"{family}{rank}",
                        r,
                        rep.ker_size,
                        rep.group_size,
                        "ok" if rep.magnitude_ok else "BAD",
                        "ok" if rep.ratio_ok else "BAD",
                        rep.omega_sign if rep.ratio_ok else "-",
                    )
                )
    for line in aligned(("system", "r", "ker", "group", "magnitude", "ratio", "omega"), rows):
        print(line)


if __name__ == "__main__":
    main()
