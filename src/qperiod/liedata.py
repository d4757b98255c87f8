"""Root systems from Cartan matrices, their numerical constants, and the
Gauss sums controlling the unknot normalization of the projective
quantum invariants.

Conventions: the symmetrized bilinear form is (alpha_i|alpha_j) =
d_i a_{ij}, so short roots have square length 2 and (rho|alpha_i) = d_i.
All root and weight coordinates are taken in the simple-root basis;
positive roots then have nonnegative integer coordinates, and so does
2 rho, their sum.

Everything is integer arithmetic.  The constants come from root heights,
the pairings (beta|rho) and the cofactors of the Cartan matrix.  The
Gauss sum's exponent at a coset mu is

    (mu|mu)/2 + (mu|rho) = sum_i mu_i (d_i (mu_i + 1) + sum_(j > i) d_i a_ij mu_j),

since (alpha_i|alpha_i) = 2 d_i and (alpha_i|rho) = d_i; every term is
an integer, so no parity check is needed, and each coset costs one pass
over the nonzero upper Cartan entries.  The
unknot normaliser F = gamma / prod(1 - xi^(beta|rho)) is never computed:
its ratio law F = +-xi^(-E) conj F is decided on gamma itself, by one
re-indexing with `cyclo.twist_conjugate` and no division.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple

from .cyclo import CyclotomicInt, twist_conjugate
from .modular import InputError, is_prime, require_prime

RANK_CAPS = {"A": (1, 6), "B": (2, 5), "C": (2, 5), "D": (4, 5), "F": (4, 4), "G": (2, 2)}


def _cartan_and_symmetrizers(family: str, rank: int) -> tuple[list[list[int]], list[int]]:
    lo, hi = RANK_CAPS.get(family, (0, -1))
    if not lo <= rank <= hi:
        raise InputError(f"unsupported root system {family}{rank}")
    a = [[2 * (i == j) for j in range(rank)] for i in range(rank)]

    def chain(i: int, j: int) -> None:
        a[i][j] = a[j][i] = -1

    if family in ("A", "B", "C", "D"):
        for i in range(rank - 1):
            chain(i, i + 1)
    if family == "A":
        d = [1] * rank
    elif family == "B":
        # last simple root short; double arrow toward it
        a[rank - 1][rank - 2] = -2
        d = [2] * (rank - 1) + [1]
    elif family == "C":
        a[rank - 2][rank - 1] = -2
        d = [1] * (rank - 1) + [2]
    elif family == "D":
        a[rank - 1][rank - 2] = a[rank - 2][rank - 1] = 0
        chain(rank - 3, rank - 1)
        d = [1] * rank
    elif family == "G":
        a = [[2, -1], [-3, 2]]
        d = [3, 1]
    else:  # F
        a = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]]
        d = [2, 2, 1, 1]
    return a, d


class RootSystem(NamedTuple("RootSystem", [
    ("family", str), ("rank", int), ("cartan", tuple[tuple[int, ...], ...]), ("d", tuple[int, ...]),
    ("positive_roots", tuple[tuple[int, ...], ...]), ("two_rho", tuple[int, ...]),
])):
    """Simple root system with the symmetrized invariant form."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int, cartan: tuple[tuple[int, ...], ...], d: tuple[int, ...],
                positive_roots: tuple[tuple[int, ...], ...], two_rho: tuple[int, ...]) -> RootSystem:
        self = super().__new__(cls, family, rank, cartan, d, positive_roots, two_rho)
        l = rank
        for i in range(l):
            for j in range(l):
                if d[i] * cartan[i][j] != d[j] * cartan[j][i]:
                    raise ValueError("symmetrized Cartan matrix is not symmetric")
        simple = {tuple(1 * (k == i) for k in range(l)) for i in range(l)}
        roots = set(positive_roots)
        if not simple <= roots:
            raise ValueError("simple roots missing from the positive roots")
        for beta in roots:
            if any(c < 0 for c in beta):
                raise ValueError("positive root with a negative coordinate")
        for i in range(l):
            e_i = tuple(1 * (k == i) for k in range(l))
            if self.bilinear(two_rho, e_i) != 2 * d[i]:
                raise ValueError("(rho|alpha_i) = d_i violated")
        return self

    def bilinear(self, x, y):
        """(x|y) for coordinate vectors in the simple-root basis."""
        total = 0
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if yj:
                    total += xi * yj * self.d[i] * self.cartan[i][j]
        return total

    def rho_pairing(self, x) -> int:
        """(x|rho) = sum x_i d_i, since (alpha_i|rho) = d_i."""
        return sum(c * di for c, di in zip(x, self.d))


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Generate positive roots by reflection closure from the simple roots
    and sum them to 2 rho; supports types A1..A6, B2..B5, C2..C5, D4..D5, F4, G2."""
    a, d = _cartan_and_symmetrizers(family, rank)
    simple = [tuple(1 * (k == i) for k in range(rank)) for i in range(rank)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        beta = frontier.pop()
        for i in range(rank):
            coef = sum(a[i][j] * c for j, c in enumerate(beta))
            new = list(beta)
            new[i] -= coef
            cand = tuple(new)
            if cand not in roots and all(c >= 0 for c in cand) and any(cand):
                roots.add(cand)
                frontier.append(cand)
    positive = tuple(sorted(roots, key=lambda b: (sum(b), b)))
    two_rho = tuple(sum(b[i] for b in positive) for i in range(rank))
    return RootSystem(family, rank, tuple(tuple(row) for row in a), tuple(d), positive, two_rho)


class LieConstants(NamedTuple):
    """d = max symmetrizer, D = weight-form denominator bound, Coxeter and
    dual Coxeter numbers, |X/Y|, and the Weyl group order."""

    d: int
    D: int
    h: int
    h_dual: int
    det_cartan: int
    weyl_order: int


def _cofactor(m: list[list[int]], i: int, j: int) -> int:
    """The (i, j) cofactor of the square integer matrix m: the signed
    determinant of m without row i and column j, expanded along its first
    row."""
    minor = [row[:j] + row[j + 1:] for k, row in enumerate(m) if k != i]
    det = sum(c * _cofactor(minor, 0, k) for k, c in enumerate(minor[0]) if c) if minor else 1
    return (-1) ** (i + j) * det


@lru_cache(maxsize=None)
def constants(rs: RootSystem) -> LieConstants:
    """The LieConstants of rs, read off its roots and Cartan matrix A.

    h is one more than the height of the highest short root paired with
    rho, and h_dual one more than the largest (beta|rho) over d.  det is
    det A and D comes from its cofactors: the fundamental weights are
    omega_i = A^-1 e_i in the simple-root basis, so (omega_i|alpha_j) has
    denominator det / gcd(det, d_j adj(A)_ji) and D is their lcm.  The
    Weyl group order comes from the root heights: the exponents m_i are
    the dual partition of the height counts (Kostant), and
    |W| = prod(m_i + 1)."""
    l = rs.rank
    d_max = max(rs.d)
    lengths = [rs.bilinear(b, b) for b in rs.positive_roots]
    short_len = min(lengths)
    short = [b for b, ln in zip(rs.positive_roots, lengths) if ln == short_len]
    top_height = max(sum(b) for b in short)
    top_short = [b for b in short if sum(b) == top_height]
    if len(top_short) != 1:
        raise AssertionError("highest short root is not unique")
    h = 1 + rs.rho_pairing(top_short[0])
    h_dual, rest = divmod(max(rs.rho_pairing(b) for b in rs.positive_roots), d_max)
    if rest:
        raise AssertionError("dual Coxeter number came out fractional")
    a = [list(row) for row in rs.cartan]
    det = sum(a[0][j] * _cofactor(a, 0, j) for j in range(l))
    denom = 1
    for i in range(l):
        for j in range(l):
            denom = lcm(denom, det // gcd(det, rs.d[j] * _cofactor(a, i, j)))
    # Kostant: with n_k positive roots of height k, the exponent m occurs
    # n_m - n_(m+1) times, and |W| is the product of the m + 1
    heights = [sum(b) for b in rs.positive_roots]
    n = [heights.count(k) for k in range(max(heights) + 2)]
    weyl_order = 1
    for m in range(1, len(n) - 1):
        weyl_order *= (m + 1) ** (n[m] - n[m + 1])
    return LieConstants(d_max, denom, h, 1 + h_dual, det, weyl_order)


def _algebra_name(rs: RootSystem) -> str:
    """The Lie algebra of rs, as sl2, so5 or g2."""
    l = rs.rank
    names = {"A": f"sl{l + 1}", "B": f"so{2 * l + 1}", "C": f"sp{2 * l}", "D": f"so{2 * l}"}
    return names.get(rs.family, f"{rs.family.lower()}{l}")


def require_level(rs: RootSystem, r: int) -> None:
    """Refuse r unless it is a prime above d*h_dual, where the Gauss sum
    and the unknot normaliser are defined."""
    require_prime("r", r)
    cs = constants(rs)
    bound = cs.d * cs.h_dual
    if r <= bound:
        raise InputError(f"r = {r} must exceed d*h_dual = {bound} for {_algebra_name(rs)}")


def gauss_sum(rs: RootSystem, r: int) -> CyclotomicInt:
    """Sum of xi^((mu|mu)/2 + (mu|rho)) over the r^l root-lattice cosets,
    each exponent summed term by term over the nonzero upper Cartan
    entries d_i a_ij, j > i, of row i (see the module docstring)."""
    require_level(rs, r)
    rows = [
        (i, d, [(j, d * a) for j, a in enumerate(rs.cartan[i][i + 1:], i + 1) if a])
        for i, d in enumerate(rs.d)
    ]
    counts = [0] * r
    for mu in itertools.product(range(r), repeat=rs.rank):
        e = 0
        for i, d, upper in rows:
            c = mu[i]
            if c:
                e += c * (d * (c + 1) + sum(g * mu[j] for j, g in upper))
        counts[e % r] += 1
    # the canonical coordinates are counts[i] - counts[r-1]; the counts take
    # few distinct values, so each difference is made once and shared by
    # the coordinates that have it, which keeps a stored report small
    top = counts[-1]
    coordinate = {c: c - top for c in counts}
    return CyclotomicInt(r, tuple(coordinate[c] for c in counts[:-1]))


def verify_gauss_magnitude(rs: RootSystem, r: int) -> bool:
    """The magnitude law |gamma|^2 = r^l as the identity
    gamma * conj(gamma) = r^l in Z[xi].

    For prime r > d*h_dual the Gram form is nondegenerate mod r, so
    gamma never vanishes."""
    gamma = gauss_sum(rs, r)
    return gamma * twist_conjugate(gamma, 0) == CyclotomicInt.from_int(r, r**rs.rank)


def verify_ratio(rs: RootSystem, r: int) -> tuple[bool, int]:
    """The ratio law F(+) = omega * xi^(-E) * F(-) in Z[xi], with
    F(+) = gamma / D, D = prod(1 - xi^(beta|rho)) over the N positive
    roots beta, F(-) = conj F(+), E = ((r+1)^2+2)|rho|^2 and omega = +-1.

    Returns (True, omega) when one sign makes it an identity and
    (False, 0) when neither does.  With |rho|^2 = (2rho|2rho)/4, E is
    ((r+1)^2+2)(2rho|2rho)/4.  Each factor has
    1 - xi^-e = -xi^-e (1 - xi^e), so conj D = (-1)^N xi^(-S) D with
    S = sum (beta|rho) = (2rho|2rho)/2, and the law reads
    gamma / D = omega (-1)^N xi^(S-E) conj(gamma) / D.  D is nonzero and
    Z[xi] is a domain, so multiplying by D is exact both ways: the law
    holds exactly when gamma = omega (-1)^N xi^(S-E) conj(gamma), a
    twisted conjugate of gamma with no division."""
    require_level(rs, r)
    norm = rs.bilinear(rs.two_rho, rs.two_rho)
    # r is odd, so (r+1)^2 + 2 = 2 mod 4; (2rho|2rho) is an even lattice norm
    exponent = ((r + 1) ** 2 + 2) * norm // 4
    gamma = gauss_sum(rs, r)
    target = twist_conjugate(gamma, norm // 2 - exponent)
    if len(rs.positive_roots) % 2:
        target = -target
    if gamma == target:
        return True, 1
    if gamma == -target:
        return True, -1
    return False, 0


def admissible_r(rs: RootSystem, r: int) -> bool:
    """Prime r large enough and coprime to |X/Y| and the Weyl order."""
    if not is_prime(r):
        return False
    cs = constants(rs)
    return r > cs.d * cs.h_dual and gcd(r, cs.det_cartan * cs.weyl_order) == 1


class GaussReport(NamedTuple):
    """Summary of the Gauss-sum checks for one (root system, r) pair."""

    # gauss_report admits only r > d*h_dual, which exceeds every prime
    # factor (at most 7) of the Gram determinant prod(d_i) det A: no kernel;
    # a class attribute, not a field, since it carries no annotation
    ker_size = 1

    family: str
    rank: int
    r: int
    gamma: CyclotomicInt
    magnitude_ok: bool
    ratio_ok: bool
    omega_sign: int

    @property
    def group_size(self) -> int:
        """r^rank, the number of root-lattice cosets."""
        return self.r**self.rank


def gauss_report(rs: RootSystem, r: int) -> GaussReport:
    gamma = gauss_sum(rs, r)
    ratio_ok, omega = verify_ratio(rs, r)
    return GaussReport(
        family=rs.family,
        rank=rs.rank,
        r=r,
        gamma=gamma,
        magnitude_ok=verify_gauss_magnitude(rs, r),
        ratio_ok=ratio_ok,
        omega_sign=omega,
    )
