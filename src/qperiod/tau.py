"""Closed-form quantum invariants of the two Brieskorn homology spheres
at prime roots of unity, Ohtsuki coefficient tables, the conjugation
obstruction to r-periodicity, the quotient congruence for prime-fold
branched covers, and the lift of the resulting discriminants.

Both invariants are sums  sum_n xi^f(n) W(n)  with the window

    W(n) = (1 + xi + ... + xi^n) * prod_{k=n+2}^{2n+1} (1 - xi^k)
         = prod_{k=n+1}^{2n+1} (1 - xi^k) / (1 - xi),

where the geometric sum absorbs the global (1 - xi)^{-1} prefactor and
keeps every term in Z[xi].  The series terminates: once 2n+1 >= r the
window [n+1, 2n+1] contains a multiple of r, so W(n) = 0, and only
n < (r-1)/2 contributes.

Consecutive windows share all but three factors, and
1 - xi^(2n) = (1 - xi^n)(1 + xi^n) cancels the one that leaves:

    W(0) = 1,   W(n) = W(n-1) (1 + xi^n) (1 - xi^(2n+1)).

The sum is accumulated on plain integer vectors in Z[T]/(T^r - 1), where
each binomial factor is one shift and add, so a window costs O(r), a
level O(r^2) and no step divides; the total is folded into canonical
coordinates once at the end.

The rest reads only the low Ohtsuki digits, which cost O(r) each: a
coefficient table to depth d is O(d * r), so the `tau` and `obstruct`
tables are O(r) per level, and only the full `ohtsuki` table is O(r^2).
The obstruction searches no twists: conjugation fixes the first nonzero
digit a_k up to the sign (-1)^k, and the next digit then admits at most
v = k - 2 a_(k+1) / a_k (Ohtsuki), which one O(r) comparison of residue
vectors decides.  The quotient congruence takes no polynomial gcd: its
ideal is all of Z[xi] unless p = +-1 mod r, and (p) when it is.

The discriminant reads four integers.  W(n) lies in (1 - q)^n and r in
(1 - xi)^4, so at every prime level r >= 5 the digits a_0 .. a_3 are the
Taylor coefficients c_0 .. c_3 at q = 1 of the terms n <= 3, reduced mod
r.  The twist and the defect are integers too, so a level costs O(1);
c_0 = 1, so none is dropped.  Every residue reduces the one integer
defect, so the lift needs no Chinese remaindering.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod

from .cyclo import CyclotomicInt, cyclo_to_json, make, ohtsuki_digits
from .liedata import RootSystem, admissible_r, build_root_system
from .modular import InputError, encode_int, factorize, is_prime_argument, require_prime
from .qpoly import HalfLaurent

MANIFOLDS = ("poincare", "brieskorn_2_3_7", "s3")
# the front exponent f(n) of each closed-form invariant sum_n xi^f(n) W(n)
FRONT_EXPONENTS = {"poincare": lambda n: n, "brieskorn_2_3_7": lambda n: -n * (n + 2)}

CANDIDATE_V_RULE = (
    "v = -2*a1/a0 mod r, the unique twist matching the first-order rule "
    "a1(xi^v * conj(x)) = -a1(x) - v*a0(x)"
)


@dataclass(frozen=True)
class TauValue:
    """One manifold invariant at one prime level."""

    manifold_id: str
    value: CyclotomicInt

    def to_json(self) -> dict:
        return {"manifold": self.manifold_id, "r": self.value.r, "value": cyclo_to_json(self.value)}


def require_manifold_level(manifold_id: str, r: int) -> None:
    """Refuse r unless it is a level for the manifold: an odd prime for
    s3, a prime above d*h_dual = 4 for the others."""
    if manifold_id == "s3":
        require_prime("r", r, odd=True)
        return
    require_prime("r", r)
    if r <= 4:
        raise InputError(f"r = {r} must exceed d*h_dual = 4 for sl2")


def _times_binomial(w: list[int], sign: int, k: int) -> list[int]:
    """w * (1 + sign * T^k) in Z[T]/(T^r - 1), for 0 < k < r."""
    return [a + sign * b for a, b in zip(w, w[-k:] + w[:-k])]


def _tau_sum(r: int, front_exponent) -> CyclotomicInt:
    total = [0] * r
    window = [1] + [0] * (r - 1)
    for n in range((r - 1) // 2):
        if n:
            window = _times_binomial(_times_binomial(window, 1, n), -1, 2 * n + 1)
        s = front_exponent(n) % r
        total = [a + b for a, b in zip(total, window[-s:] + window[:-s])]
    return make(r, enumerate(total))


def tau_poincare(r: int) -> TauValue:
    """Invariant of the Poincare sphere (-1 surgery on the left trefoil)."""
    require_manifold_level("poincare", r)
    return TauValue("poincare", _tau_sum(r, FRONT_EXPONENTS["poincare"]))


def tau_brieskorn237(r: int) -> TauValue:
    """Invariant of the Brieskorn sphere Sigma(2,3,7)."""
    require_manifold_level("brieskorn_2_3_7", r)
    return TauValue("brieskorn_2_3_7", _tau_sum(r, FRONT_EXPONENTS["brieskorn_2_3_7"]))


def tau_s3(r: int) -> TauValue:
    """Normalization baseline: the empty surgery has invariant 1."""
    require_manifold_level("s3", r)
    return TauValue("s3", CyclotomicInt.one(r))


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

    r: int
    admissible_v: tuple[int, ...]
    a_table: tuple[tuple[int, int], ...]
    verdict: str

    def to_json(self, manifold: str) -> dict:
        return {
            "manifold": manifold,
            "r": self.r,
            "verdict": self.verdict,
            "admissible_v": [int(v) for v in self.admissible_v],
            "a": [[n, a] for n, a in self.a_table],
        }


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
    return ObstructionReport(r, found, table, verdict)


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
    (p): u passes when the coordinates of both sides agree mod p."""
    require_prime("p", p)
    if x_m.r != r or x_m_prime.r != r:
        raise ValueError("invariants live at the wrong root of unity")
    if (2 * r) % p == 0:
        raise InputError(f"p = {p} must not divide r times the Weyl order")
    if p % r not in (1, r - 1):
        return tuple(range(2 * r))
    power = x_m_prime.galois(p)
    target = [c % p for c in x_m.coeffs]
    found = []
    for u in range(2 * r):
        # (-xi)^u * power re-indexes coordinates: xi^i moves to xi^(i+u)
        sign = -1 if u % 2 else 1
        shifted = make(r, ((i + u, sign * c) for i, c in enumerate(power.coeffs)))
        if [c % p for c in shifted.coeffs] == target:
            found.append(u)
    return tuple(found)


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
    if manifold_id == "s3":
        head = HalfLaurent.one()
    elif manifold_id in FRONT_EXPONENTS:
        head = HalfLaurent.zero()
        window = HalfLaurent.one()
        for n in range(4):
            if n:  # the recurrence of _tau_sum: W(n) = W(n-1)(1 + q^n)(1 - q^(2n+1))
                window = window * (HalfLaurent.monomial(2 * n) + 1)
                window = window * (1 - HalfLaurent.monomial(4 * n + 2))
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

    manifold_id: str
    candidate_v_rule: str
    residues: tuple[tuple[int, int, int], ...]
    lifted: int
    factorization: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {
            "manifold": self.manifold_id,
            "rule": self.candidate_v_rule,
            "residues": [[r, v, delta] for r, v, delta in self.residues],
            "dropped": [],
            "lifted": encode_int(self.lifted),
            "factors": [[p, e] for p, e in self.factorization],
        }


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
    return DiscriminantReport(manifold_id, CANDIDATE_V_RULE, rows, lifted, factors)
