"""Root systems from Cartan matrices, their numerical constants, and the
Gauss sums controlling the unknot normalization of the projective
quantum invariants.

Conventions: the symmetrized bilinear form is (alpha_i|alpha_j) =
d_i a_{ij}, so short roots have square length 2 and (rho|alpha_i) = d_i.
All root and weight coordinates are taken in the simple-root basis;
positive roots then have nonnegative integer coordinates.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .cyclo import (
    CyclotomicInt,
    NotDivisibleError,
    cyclo_to_json,
    divide_by_one_minus_xi_power,
    make,
)
from .modular import is_prime

RANK_CAPS = {"A": (1, 6), "B": (2, 5), "C": (2, 5), "D": (4, 5), "F": (4, 4), "G": (2, 2)}


def _cartan_and_symmetrizers(family: str, rank: int) -> tuple[list[list[int]], list[int]]:
    lo, hi = RANK_CAPS.get(family, (0, -1))
    if not lo <= rank <= hi:
        raise ValueError(f"unsupported root system {family}{rank}")
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


@dataclass(frozen=True)
class RootSystem:
    """Simple root system with the symmetrized invariant form."""

    family: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    d: tuple[int, ...]
    positive_roots: tuple[tuple[int, ...], ...]
    rho_coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        l = self.rank
        for i in range(l):
            for j in range(l):
                if self.d[i] * self.cartan[i][j] != self.d[j] * self.cartan[j][i]:
                    raise ValueError("symmetrized Cartan matrix is not symmetric")
        simple = {tuple(1 * (k == i) for k in range(l)) for i in range(l)}
        roots = set(self.positive_roots)
        if not simple <= roots:
            raise ValueError("simple roots missing from the positive roots")
        for beta in roots:
            if any(c < 0 for c in beta):
                raise ValueError("positive root with a negative coordinate")
        for i in range(l):
            e_i = tuple(1 * (k == i) for k in range(l))
            if self.bilinear(self.rho_coords, e_i) != self.d[i]:
                raise ValueError("(rho|alpha_i) = d_i violated")

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


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Generate positive roots by reflection closure from the simple roots
    and solve for rho; supports types A1..A6, B2..B5, C2..C5, D4..D5, F4, G2."""
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
    twice_rho = [sum(b[i] for b in positive) for i in range(rank)]
    rho = tuple(Fraction(c, 2) for c in twice_rho)
    return RootSystem(family, rank, tuple(tuple(row) for row in a), tuple(d), positive, rho)


@dataclass(frozen=True)
class LieConstants:
    """d = max symmetrizer, D = weight-form denominator bound, Coxeter and
    dual Coxeter numbers, |X/Y|, and the Weyl group order."""

    d: int
    D: int
    h: int
    h_dual: int
    det_cartan: int
    weyl_order: int


def _det_fraction(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    m = [row[:] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return det


def _solve_linear(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    n = len(rows)
    m = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col])
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


@lru_cache(maxsize=None)
def constants(rs: RootSystem) -> LieConstants:
    """The LieConstants of rs, read off its roots and Cartan matrix.

    h is one more than the height of the highest short root paired with
    rho, h_dual comes from the largest (beta|rho), D from the inverse Gram
    matrix, and the Weyl group order from the root heights: the exponents
    m_i are the dual partition of the height counts (Kostant), and
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
    h = 1 + int(rs.bilinear(top_short[0], rs.rho_coords))
    pairings = [rs.bilinear(b, rs.rho_coords) for b in rs.positive_roots]
    h_dual_frac = 1 + Fraction(max(pairings), d_max)
    if h_dual_frac.denominator != 1:
        raise AssertionError("dual Coxeter number came out fractional")
    gram = [[Fraction(rs.d[i] * rs.cartan[i][j]) for j in range(l)] for i in range(l)]
    det = _det_fraction([[Fraction(c) for c in row] for row in rs.cartan])
    if det.denominator != 1:
        raise AssertionError("Cartan determinant came out fractional")
    denom = 1
    weights = [_solve_linear(gram, [Fraction(rs.d[i]) * (j == i) for j in range(l)]) for i in range(l)]
    for i in range(l):
        for j in range(l):
            denom = lcm(denom, (rs.d[j] * weights[i][j]).denominator)
    # Kostant: with n_k positive roots of height k, the exponent m occurs
    # n_m - n_(m+1) times, and |W| is the product of the m + 1
    heights = [sum(b) for b in rs.positive_roots]
    n = [heights.count(k) for k in range(max(heights) + 2)]
    weyl_order = 1
    for m in range(1, len(n) - 1):
        weyl_order *= (m + 1) ** (n[m] - n[m + 1])
    return LieConstants(d_max, denom, h, int(h_dual_frac), int(det), weyl_order)


def _require_admissible_size(rs: RootSystem, r: int) -> None:
    if not is_prime(r):
        raise ValueError(f"r = {r} is not prime")
    cs = constants(rs)
    if r <= cs.d * cs.h_dual:
        raise ValueError(f"r = {r} must exceed d*h_dual = {cs.d * cs.h_dual}")


def gauss_sum(rs: RootSystem, r: int) -> CyclotomicInt:
    """Sum of xi^((mu|mu)/2 + (mu|rho)) over the r^l root-lattice cosets."""
    _require_admissible_size(rs, r)
    l = rs.rank
    gram = [[rs.d[i] * rs.cartan[i][j] for j in range(l)] for i in range(l)]
    counts = [0] * r
    for mu in itertools.product(range(r), repeat=l):
        q = 0
        for i in range(l):
            ci = mu[i]
            if ci:
                row = gram[i]
                q += ci * (ci * row[i] + 2 * sum(mu[j] * row[j] for j in range(i + 1, l)))
        if q % 2:
            raise RuntimeError("(mu|mu) came out odd on the root lattice")
        e = q // 2 + sum(c * di for c, di in zip(mu, rs.d))
        counts[e % r] += 1
    return make(r, enumerate(counts))


def kernel_size(rs: RootSystem, r: int) -> int:
    """r^(l - rank of the Gram matrix over the r-element field)."""
    if not is_prime(r):
        raise ValueError(f"r = {r} is not prime")
    l = rs.rank
    m = [[rs.d[i] * rs.cartan[i][j] % r for j in range(l)] for i in range(l)]
    rank = 0
    row = 0
    for col in range(l):
        pivot = next((k for k in range(row, l) if m[k][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = pow(m[row][col], -1, r)
        m[row] = [x * inv % r for x in m[row]]
        for k in range(l):
            if k != row and m[k][col]:
                f = m[k][col]
                m[k] = [(x - f * y) % r for x, y in zip(m[k], m[row])]
        rank += 1
        row += 1
    return r ** (l - rank)


def f_unknot(rs: RootSystem, r: int, sign: int = 1) -> CyclotomicInt:
    """Unknot normalization value, exactly: gamma over
    prod(1 - xi^(beta|rho)) over the positive roots beta, conjugated for
    sign -1.  The quotient always lies in Z[xi].

    Each factor 1 - xi^e, e = (beta|rho) * sign, is the Galois twist of
    1 - xi by e, so the quotient is a chain of |Phi+| exact O(r) divisions
    by (1 - xi) between twists.  The chain cannot fail: for prime
    r > d*h_dual the Gram form is nondegenerate mod r, so gamma times its
    conjugate is r^l and gamma has (1 - xi)-adic valuation l(r-1)/2, at
    least |Phi+| = l*h/2 because r > h."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    _require_admissible_size(rs, r)
    quotient = gauss_sum(rs, r)
    if sign == -1:
        quotient = quotient.conjugate()
    for beta in rs.positive_roots:
        e = int(rs.bilinear(beta, rs.rho_coords)) * sign
        try:
            quotient = divide_by_one_minus_xi_power(quotient, e)
        except NotDivisibleError as exc:
            raise AssertionError("unknot normalization left Z[xi]") from exc  # unreachable
    return quotient


def verify_gauss_magnitude(rs: RootSystem, r: int) -> bool:
    """The magnitude law |gamma|^2 = r^l as the identity
    gamma * conj(gamma) = r^l in Z[xi].

    For prime r > d*h_dual the Gram form is nondegenerate mod r, so
    kernel_size is 1 and gamma never vanishes."""
    gamma = gauss_sum(rs, r)
    return gamma * gamma.conjugate() == CyclotomicInt.from_int(r, r**rs.rank)


def verify_ratio(rs: RootSystem, r: int) -> tuple[bool, int]:
    """The ratio law F(+) = omega * xi^(-E) * F(-) in Z[xi], with
    E = ((r+1)^2+2)|rho|^2 and omega = +-1.

    Returns (True, omega) when one sign makes it an identity and
    (False, 0) when neither does.  Raises if E is not an integer, which
    would require 2r-th roots.  Multiplying by xi^(-E) moves the
    coefficient of xi^i to xi^(i-E), so it is a re-indexing."""
    _require_admissible_size(rs, r)
    rho_sq = rs.bilinear(rs.rho_coords, rs.rho_coords)
    exponent = ((r + 1) ** 2 + 2) * Fraction(rho_sq)
    if exponent.denominator != 1:
        raise ValueError(f"exponent ((r+1)^2+2)|rho|^2 = {exponent} is not integral")
    f_plus = f_unknot(rs, r, 1)
    f_minus = f_unknot(rs, r, -1)
    target = make(r, ((i - int(exponent), c) for i, c in enumerate(f_minus.coeffs)))
    if f_plus == target:
        return True, 1
    if f_plus == -target:
        return True, -1
    return False, 0


def admissible_r(rs: RootSystem, r: int) -> bool:
    """Prime r large enough and coprime to |X/Y| and the Weyl order."""
    if not is_prime(r):
        return False
    cs = constants(rs)
    return r > cs.d * cs.h_dual and gcd(r, cs.det_cartan * cs.weyl_order) == 1


@dataclass(frozen=True)
class GaussReport:
    """Summary of the Gauss-sum checks for one (root system, r) pair."""

    family: str
    rank: int
    r: int
    gamma: CyclotomicInt
    ker_size: int
    group_size: int
    magnitude_ok: bool
    ratio_ok: bool
    omega_sign: int

    def to_json(self) -> dict:
        return {
            "type": self.family,
            "rank": self.rank,
            "r": self.r,
            "gamma": cyclo_to_json(self.gamma),
            "ker": self.ker_size,
            "magnitude_ok": self.magnitude_ok,
            "ratio_ok": self.ratio_ok,
            "omega": self.omega_sign,
        }


def gauss_report(rs: RootSystem, r: int) -> GaussReport:
    gamma = gauss_sum(rs, r)
    ratio_ok, omega = verify_ratio(rs, r)
    return GaussReport(
        family=rs.family,
        rank=rs.rank,
        r=r,
        gamma=gamma,
        ker_size=kernel_size(rs, r),
        group_size=r**rs.rank,
        magnitude_ok=verify_gauss_magnitude(rs, r),
        ratio_ok=ratio_ok,
        omega_sign=omega,
    )

