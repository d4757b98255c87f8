"""Closed-form quantum invariants of the two Brieskorn homology spheres
at prime roots of unity, Ohtsuki coefficient tables, the conjugation
obstruction to r-periodicity, the quotient congruence for prime-fold
branched covers, and the lift of the resulting discriminants.

Both spheres are Brieskorn spheres Sigma(p1, p2, p3), and tau is the
radial limit of a false theta series (Lawrence and Zagier; Hikami).  Let
P = p1 p2 p3, M = 2P and chi(n) = e1 e2 e3 at n = P (1 + e1/p1 + e2/p2 +
e3/p3) mod M, 0 elsewhere.  At a prime level r, with (a, b, c) from EICHLER,

    xi^a (1 - xi) tau = b - S / (2Mr),
    S = sum_{0<n<Mr} n chi(n) xi^(c + (n^2 - 1)/(2M)),

an Eichler sum of 8r monomials with integer exponents: n^2 = 1 mod 2M
wherever chi(n) != 0.  2Mr divides every canonical coordinate of S and
1 - xi divides the quotient, both identities, so a remainder in either is
a fault; that one division by 1 - xi ends an O(r) level.

The rest reads only the low Ohtsuki digits, which cost O(r) each: a
coefficient table to depth d is O(d * r), so the `tau` and `obstruct`
tables are O(r) per level, and only the full `ohtsuki` table is O(r^2).
The obstruction searches no twists: conjugation fixes the first nonzero
digit a_k up to the sign (-1)^k, and the next digit then admits at most
v = k - 2 a_(k+1) / a_k (Ohtsuki), which one O(r) comparison of residue
vectors decides.  The quotient congruence takes no polynomial gcd: its
ideal is all of Z[xi] unless p = +-1 mod r, and (p) when it is.

The discriminant reads four integers.  tau is also sum_n q^f(n) W(n) at
q = xi, W(n) = prod_{k=n+1}^{2n+1} (1 - q^k) / (1 - q).  W(n) lies in
(1 - q)^n and r in (1 - xi)^4, so at every prime level r >= 5 the digits
a_0 .. a_3 are the Taylor coefficients c_0 .. c_3 at q = 1 of the terms
n <= 3, reduced mod r.  The twist and the defect are integers too, so a
level costs O(1); c_0 = 1, so none is dropped.  Every residue reduces
the one integer defect, so the lift needs no Chinese remaindering.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import factorial, prod

from .cyclo import CyclotomicInt, divide_power_vector, ohtsuki_digits
from .liedata import RootSystem, admissible_r, build_root_system
from .modular import InputError, factorize, is_prime_argument, require_prime
from .qpoly import HalfLaurent

# the front exponent f(n) of each closed-form invariant sum_n xi^f(n) W(n)
FRONT_EXPONENTS = {"poincare": lambda n: n, "brieskorn_2_3_7": lambda n: -n * (n + 2)}
# (p1, p2, p3), a, b, c of each Eichler identity xi^a (1 - xi) tau = b - S / (2Mr)
EICHLER = {"poincare": ((2, 3, 5), 1, -1, 0), "brieskorn_2_3_7": ((2, 3, 7), 0, 0, 1)}


@dataclass(frozen=True)
class TauValue:
    """One manifold invariant at one prime level."""

    value: CyclotomicInt


def require_manifold_level(manifold_id: str, r: int) -> None:
    """Refuse r unless it is a level for the manifold: an odd prime for
    s3, a prime above d*h_dual = 4 for the others."""
    if manifold_id == "s3":
        require_prime("r", r, odd=True)
        return
    require_prime("r", r)
    if r <= 4:
        raise InputError(f"r = {r} must exceed d*h_dual = 4 for sl2")


def _character(ps: tuple[int, ...]) -> dict[int, int]:
    """chi(n) = e1 e2 e3 at n = P (1 + e1/p1 + e2/p2 + e3/p3) mod 2P, P = p1 p2 p3."""
    p = prod(ps)
    signs = product((1, -1), repeat=len(ps))
    return {(p + sum(e * p // q for e, q in zip(es, ps))) % (2 * p): prod(es) for es in signs}


def _eichler_tau(manifold_id: str, r: int) -> CyclotomicInt:
    ps, a, b, c = EICHLER[manifold_id]
    m = 2 * prod(ps)
    y = [0] * r
    for rho, sign in _character(ps).items():
        for n in range(rho, m * r, m):
            y[(c + (n * n - 1) // (2 * m)) % r] += sign * n
    q, rems = map(list, zip(*(divmod(y[-1] - v, 2 * m * r) for v in y)))  # -S / (2Mr)
    if any(rems):
        raise AssertionError(f"2Mr does not divide the Eichler sum of {manifold_id} at r = {r}")
    q[0] += b
    if sum(q) % r:
        raise AssertionError(f"1 - xi does not divide the Eichler quotient of {manifold_id} at r = {r}")
    return CyclotomicInt(r, tuple(divide_power_vector(q[a:] + q[:a])[:-1]))  # xi^-a q / (1 - xi)


def tau_poincare(r: int) -> TauValue:
    """Invariant of the Poincare sphere (-1 surgery on the left trefoil)."""
    require_manifold_level("poincare", r)
    return TauValue(_eichler_tau("poincare", r))


def tau_brieskorn237(r: int) -> TauValue:
    """Invariant of the Brieskorn sphere Sigma(2,3,7)."""
    require_manifold_level("brieskorn_2_3_7", r)
    return TauValue(_eichler_tau("brieskorn_2_3_7", r))


def tau_s3(r: int) -> TauValue:
    """Normalization baseline: the empty surgery has invariant 1."""
    require_manifold_level("s3", r)
    return TauValue(CyclotomicInt.one(r))


def tau_for(manifold_id: str, r: int) -> TauValue:
    if manifold_id == "poincare":
        return tau_poincare(r)
    if manifold_id == "brieskorn_2_3_7":
        return tau_brieskorn237(r)
    if manifold_id == "s3":
        return tau_s3(r)
    raise InputError(f"unknown manifold {manifold_id!r}")


# ---------------------------------------------------------------------------
# coefficient tables


def coeff_table(x: CyclotomicInt, depth: int) -> tuple[tuple[int, int], ...]:
    """Rows (n, a_n) of the Ohtsuki expansion of x, n = 0..depth."""
    return tuple(enumerate(ohtsuki_digits(x, depth)))


def _self_twists(x: CyclotomicInt, head: tuple[int, ...]) -> tuple[int, ...]:
    """Every v in [0, r) with x = xi^v conj(x) mod r, in increasing order,
    given the leading Ohtsuki digits head = (a_0, .., a_d) of x.

    Modulo r, Z[xi] is F_r[h] / (h^(r-1)) with h = 1 - xi, the digits are
    the coefficients in h, and conjugation sends h to -h / (1 - h).  If a_k
    is the first nonzero digit, the twist xi^v conj(x) = (1 - h)^v conj(x)
    starts (-1)^k (a_k h^k - (a_(k+1) + (v - k) a_k) h^(k+1)).  So an odd
    k admits no v, and an even k admits at most v = k - 2 a_(k+1) / a_k
    (Ohtsuki), which one comparison confirms.  On the power basis
    xi^0 .. xi^(r-1), top coordinate 0, the twist of x has coordinates
    x_((v - j) mod r), and the congruence is equality of the two residue
    vectors: at j = v + 1 it forces the twist's top coordinate, which is
    subtracted off in canonical coordinates, to vanish mod r (r is odd).
    k and a_(k+1) are read from head, or from the full digit table when
    a_0 .. a_(d-1) all vanish; no invariant needs it, since a_0 = c_0 = 1.
    x = 0 mod r, every digit 0, admits every v.  The cost is O(r), and
    O(r^2) with the full table.
    """
    r = x.r
    if not any(head[:-1]):
        head = ohtsuki_digits(x, r - 2)
    k = next((n for n, a in enumerate(head) if a), None)
    if k is None:
        return tuple(range(r))
    if k % 2:
        return ()
    v = (k - 2 * head[k + 1] * pow(head[k], -1, r)) % r
    pv = [c % r for c in x.coeffs] + [0]
    return (v,) if pv[v::-1] + pv[:v:-1] == pv else ()


# ---------------------------------------------------------------------------
# the conjugation obstruction


@dataclass(frozen=True)
class ObstructionReport:
    """The twists v in [0, r) with x = xi^v * conj(x) mod r.

    An empty admissible_v set at an admissible level r rules out
    r-periodicity of the manifold carrying x.  a_table holds the
    coefficient rows of x itself.
    """

    admissible_v: tuple[int, ...]
    a_table: tuple[tuple[int, int], ...]
    verdict: str


def obstruction_test(x: CyclotomicInt, r: int, rs: RootSystem | None = None) -> ObstructionReport:
    if rs is None:
        rs = build_root_system("A", 1)
    if x.r != r:
        raise ValueError("x lives at the wrong root of unity")
    table = coeff_table(x, min(3, r - 2))
    found = _self_twists(x, tuple(a for _, a in table))
    if not admissible_r(rs, r):
        verdict = "inadmissible_r"
    elif found:
        verdict = "not_obstructed"
    else:
        verdict = "obstructed"
    return ObstructionReport(found, table, verdict)


# ---------------------------------------------------------------------------
# the quotient congruence


def quotient_congruence_test(
    x_m: CyclotomicInt, x_m_prime: CyclotomicInt, p: int, r: int
) -> tuple[int, ...]:
    """All u in [0, 2r) with x_m = (-xi)^u * (x_m')^p modulo the ideal
    (p, (xi+xi^-1)^p - (xi+xi^-1)) of Z[xi].

    An empty result is evidence (in the Z[xi] image of the full ring)
    against the manifold of x_m being a p-fold cyclic branched cover of
    the manifold of x_m'.  p must not divide r times 2, the Weyl order of
    A1.  Modulo p, Frobenius gives x^p = sigma_p(x), the Galois re-index
    xi -> xi^p, so the generator spans the same ideal with p as
    xi^p + xi^-p - xi - xi^-1 = (xi^p - xi)(1 - xi^-(p+1)).  A root z of
    the cyclotomic polynomial mod p that kills it has z^(p-1) = 1 or
    z^(p+1) = 1, so unless p = +-1 mod r the ideal is all of Z[xi] and
    every u passes.  If p = +-1 mod r the generator is 0 and the ideal is
    (p): u passes when the power-basis vectors of both sides differ mod p
    by a constant vector, a multiple of 1 + xi + ... + xi^(r-1) = 0, that
    is when their cyclic differences agree mod p.  The shift u rotates the
    differences dy of sigma_p(x_m') by u and multiplies them by (-1)^u.
    The differences dx of x_m sum to 0, so unless they vanish they are not
    constant mod p, and r is prime, so their r rotations are distinct:
    each sign admits at most one rotation, found by one string search of
    the doubled +-dy, and its u in [0, 2r) is the one of that parity."""
    require_prime("p", p)
    if x_m.r != r or x_m_prime.r != r:
        raise ValueError("invariants live at the wrong root of unity")
    if (2 * r) % p == 0:
        raise InputError(f"p = {p} must not divide r times the Weyl order")
    if p % r not in (1, r - 1):
        return tuple(range(2 * r))
    x, y = [*x_m.coeffs, 0], [*x_m_prime.galois(p).coeffs, 0]  # power basis
    dx = [(x[(i + 1) % r] - x[i]) % p for i in range(r)]
    dy = [(y[(i + 1) % r] - y[i]) % p for i in range(r)]
    if not any(dx):
        return () if any(dy) else tuple(range(2 * r))
    found = []
    pattern = "".join(f",{d}" for d in dx) + ","
    for sign in (1, -1):
        # dx[i] = sign dy[(i - s) mod r] puts dx at index -s of the doubled sign dy
        text = "".join(f",{sign * d % p}" for d in dy * 2)
        j = text.find(pattern)
        if j >= 0:
            s = -text.count(",", 0, j) % r
            found.append(s if s % 2 == (sign < 0) else s + r)
    return tuple(sorted(found))


# ---------------------------------------------------------------------------
# discriminant lifting


def _taylor_at_one(p: HalfLaurent) -> tuple[int, ...]:
    """c_0 .. c_3 with p = sum_n c_n (1 - q)^n mod (1 - q)^4, p Laurent in q:
    q^k, stored under key 2k, is sum_n (-1)^n binom(k, n) (1 - q)^n, any k."""
    return tuple(
        (-1) ** n * sum(c * prod(range(k // 2, k // 2 - n, -1)) for k, c in p.terms) // factorial(n)
        for n in range(4)
    )


def discriminant_integers(manifold_id: str) -> tuple[tuple[int, ...], int, int]:
    """(c, v, delta) over Z: c_0 .. c_3 of P(q) = sum_{n<=3} q^f(n) W(n) at
    q = 1, v = -2 c_1 and delta = c_3(P) - c_3(q^v P(1/q)), which reduce mod
    any prime r >= 5 to the level-r digits, twist and defect."""
    one = HalfLaurent.monomial(0)
    if manifold_id == "s3":
        head = one
    elif manifold_id in FRONT_EXPONENTS:
        head, window = HalfLaurent(), one
        for n in range(4):
            if n:  # W(n) = W(n-1)(1 + q^n)(1 - q^(2n+1))
                window = window * (HalfLaurent.monomial(2 * n) + one)
                window = window * (one - HalfLaurent.monomial(4 * n + 2))
            head = head + HalfLaurent.monomial(2 * FRONT_EXPONENTS[manifold_id](n)) * window
    else:
        raise InputError(f"unknown manifold {manifold_id!r}")
    c = _taylor_at_one(head)
    v = -2 * c[1]  # c_0 = 1: W(0) = 1 and every later window vanishes at q = 1
    return c, v, c[3] - _taylor_at_one(HalfLaurent.monomial(2 * v) * head.mirror())[3]


@dataclass(frozen=True)
class DiscriminantReport:
    """Per-prime twisted-conjugate defects and their lift to an integer.

    Any admissible prime period of the manifold must divide `lifted`;
    residues rows are (r, v, delta) with delta = a3(x) - a3(xi^v conj x)
    taken mod r at the rule-selected twist v.  Every row reduces the one
    integer defect of `discriminant_integers`, so `lifted` is that defect
    reduced into (-M/2, M/2], M the product of the levels: the defect
    itself once M exceeds twice its size."""

    residues: tuple[tuple[int, int, int], ...]
    lifted: int
    factorization: tuple[tuple[int, int], ...]


def period_discriminant(manifold_id: str, primes) -> DiscriminantReport:
    """The twisted-conjugate defect of the invariants at each level, and
    its lift to a single integer whose prime factors bound the possible
    periods.  The levels are checked in the order given."""
    levels = list(primes)
    for r in levels:
        if not is_prime_argument("level r", r) or r <= 4:
            raise InputError(f"level r = {r} must be a prime > 4")
    prime_list = sorted(set(levels))
    _, v, delta = discriminant_integers(manifold_id)
    if not prime_list:
        raise InputError("need at least one level")
    rows = tuple((r, v % r, delta % r) for r in prime_list)
    modulus = prod(prime_list)
    lifted = delta % modulus
    if 2 * lifted > modulus:
        lifted -= modulus
    factors = factorize(abs(lifted)) if lifted else ()
    return DiscriminantReport(rows, lifted, factors)
