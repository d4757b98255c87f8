"""Closed-form quantum invariants of the two Brieskorn homology spheres
at prime roots of unity, Ohtsuki coefficient tables, the conjugation
obstruction to r-periodicity, the quotient congruence for prime-fold
branched covers, and CRT lifting of the resulting discriminants.

Both invariants are sums  sum_n xi^f(n) W(n)  with the window

    W(n) = (1 + xi + ... + xi^n) * prod_{k=n+2}^{2n+1} (1 - xi^k)
         = prod_{k=n+1}^{2n+1} (1 - xi^k) / (1 - xi),

where the geometric sum absorbs the global (1 - xi)^{-1} prefactor and
keeps every term in Z[xi].  The series terminates: once 2n+1 >= r the
window [n+1, 2n+1] contains a multiple of r, so W(n) = 0, and only
n < (r-1)/2 contributes.

Consecutive windows share all but three factors:

    W(0) = 1,   W(n+1) = W(n) (1 - xi^(2n+2)) (1 - xi^(2n+3)) / (1 - xi^(n+1)).

The sum is accumulated on plain integer vectors on the power basis
xi^0 .. xi^(r-1), where each binomial factor is a shift and subtract, and
the division is `cyclo.divide_power_vector`, an exact O(r) running sum
along the single cycle of the walk i -> i + n + 1 (gcd(n+1, r) = 1).  A
window costs O(r), so a level costs O(r^2); the total is folded into
canonical coordinates once at the end.

The rest reads only the low Ohtsuki digits, which cost O(r) each: a
coefficient table to depth d is O(d * r), so the `tau` and `obstruct`
tables are O(r) per level, and only the full `ohtsuki` table is O(r^2).
Each twisted conjugate xi^v conj(x) is a re-indexing of coordinates, and
the obstruction search over all r twists is one string match of the
residue vector against its reverse, O(r) in all.

The discriminant reads four integers.  W(n) lies in (1 - q)^n and r in
(1 - xi)^4, so at every prime level r >= 5 the digits a_0 .. a_3 are the
Taylor coefficients c_0 .. c_3 at q = 1 of the terms n <= 3, reduced mod
r.  The twist and the defect are integers too, so a level costs O(1);
c_0 = 1, so none is dropped.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod

from .cyclo import CyclotomicInt, cyclo_to_json, divide_power_vector, make, ohtsuki_digits
from .liedata import RootSystem, admissible_r, build_root_system
from .modular import crt_symmetric, encode_int, factorize, fp_divides, fp_gcd, is_prime
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


def _require_level(r: int) -> None:
    if not is_prime(r) or r < 5:
        raise ValueError(f"r = {r} must be a prime >= 5")


def _shift_subtract(w: list[int], k: int) -> list[int]:
    """w * (1 - T^k) in Z[T]/(T^r - 1), for 0 < k < r."""
    return [a - b for a, b in zip(w, w[-k:] + w[:-k])]


def _tau_sum(r: int, front_exponent) -> CyclotomicInt:
    total = [0] * r
    window = [1] + [0] * (r - 1)
    for n in range((r - 1) // 2):
        if n:
            window = _shift_subtract(window, 2 * n)
            window = _shift_subtract(window, 2 * n + 1)
            window = divide_power_vector(window, n)
        s = front_exponent(n) % r
        total = [a + b for a, b in zip(total, window[-s:] + window[:-s])]
    return make(r, enumerate(total))


def tau_poincare(r: int) -> TauValue:
    """Invariant of the Poincare sphere (-1 surgery on the left trefoil)."""
    _require_level(r)
    return TauValue("poincare", _tau_sum(r, FRONT_EXPONENTS["poincare"]))


def tau_brieskorn237(r: int) -> TauValue:
    """Invariant of the Brieskorn sphere Sigma(2,3,7)."""
    _require_level(r)
    return TauValue("brieskorn_2_3_7", _tau_sum(r, FRONT_EXPONENTS["brieskorn_2_3_7"]))


def tau_s3(r: int) -> TauValue:
    """Normalization baseline: the empty surgery has invariant 1."""
    if not is_prime(r):
        raise ValueError(f"r = {r} must be prime")
    return TauValue("s3", CyclotomicInt.one(r))


def tau_for(manifold_id: str, r: int) -> TauValue:
    if manifold_id == "poincare":
        return tau_poincare(r)
    if manifold_id == "brieskorn_2_3_7":
        return tau_brieskorn237(r)
    if manifold_id == "s3":
        return tau_s3(r)
    raise ValueError(f"unknown manifold {manifold_id!r}")


# ---------------------------------------------------------------------------
# coefficient tables


def coeff_table(x: CyclotomicInt, depth: int) -> tuple[tuple[int, int], ...]:
    """Rows (n, a_n) of the Ohtsuki expansion of x, n = 0..depth."""
    return tuple(enumerate(ohtsuki_digits(x, depth)))


def _self_twists(x: CyclotomicInt) -> tuple[int, ...]:
    """Every v in [0, r) with x = xi^v conj(x) mod r, in increasing order
    and in O(r) in all.

    On the power basis xi^0 .. xi^(r-1), top coordinate 0, the twist t of
    x has t_j = x_((v - j) mod r), and the congruence says
    x_j = t_j - t_(r-1) mod r.  At j = v + 1, where t_j = 0, that gives
    t_(r-1) = x_(v+1) = -t_(r-1), so t_(r-1) = 0 mod r (r is odd) and the
    congruence is equality of the two residue vectors.  So the v are read
    off the places where the residue vector occurs in its reverse written
    twice, at offset r - 1 - v, and one Knuth-Morris-Pratt pass finds them.
    """
    r = x.r
    pv = [c % r for c in x.coeffs] + [0]
    rev = pv[::-1]
    return tuple(r - 1 - s for s in reversed(_occurrences(pv, rev + rev[:-1])))


def _occurrences(pattern: list[int], text: list[int]) -> list[int]:
    """The offsets where pattern occurs in text, in increasing order, by
    Knuth-Morris-Pratt in O(len(pattern) + len(text))."""
    border = [0] * len(pattern)  # longest proper border of pattern[:i + 1]
    k = 0
    for i in range(1, len(pattern)):
        while k and pattern[i] != pattern[k]:
            k = border[k - 1]
        if pattern[i] == pattern[k]:
            k += 1
        border[i] = k
    found = []
    k = 0
    for i, ch in enumerate(text):
        while k and ch != pattern[k]:
            k = border[k - 1]
        if ch == pattern[k]:
            k += 1
        if k == len(pattern):
            found.append(i + 1 - k)
            k = border[k - 1]
    return found


# ---------------------------------------------------------------------------
# the conjugation obstruction


@dataclass(frozen=True)
class ObstructionReport:
    """Search result for x = xi^v * conj(x) mod r over all twists v.

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
    found = _self_twists(x)
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
    xi -> xi^p, so neither (x_m')^p nor the generator is multiplied out:
    the generator is xi^p + xi^-p - xi - xi^-1, which spans the same
    ideal with p."""
    if not is_prime(p):
        raise ValueError(f"p = {p} must be prime")
    if x_m.r != r or x_m_prime.r != r:
        raise ValueError("invariants live at the wrong root of unity")
    if (2 * r) % p == 0:
        raise ValueError(f"p = {p} must not divide r times the Weyl order")
    gen = make(r, {p: 1, -p: 1, 1: -1, -1: -1})
    power = x_m_prime.galois(p)
    # modulo p the ring is GF(p)[T] / (1 + T + ... + T^(r-1)), where (gen) is
    # generated by g = gcd(1 + T + ... + T^(r-1), gen), so membership in
    # (p, gen) is divisibility by g over GF(p); g is the same for every u
    g = fp_gcd([1] * r, list(gen.coeffs), p)
    found = []
    for u in range(2 * r):
        # (-xi)^u * power re-indexes coordinates: xi^i moves to xi^(i+u)
        sign = -1 if u % 2 else 1
        shifted = make(r, ((i + u, sign * c) for i, c in enumerate(power.coeffs)))
        if fp_divides(g, list((x_m - shifted).coeffs), p):
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
        for n in range(4):
            window = HalfLaurent.from_dict({2 * j: 1 for j in range(n + 1)})
            for k in range(n + 2, 2 * n + 2):
                window = window * (1 - HalfLaurent.monomial(2 * k))
            head = head + HalfLaurent.monomial(2 * FRONT_EXPONENTS[manifold_id](n)) * window
    else:
        raise ValueError(f"unknown manifold {manifold_id!r}")
    c = _taylor_at_one(head)
    v = -2 * c[1]  # c_0 = 1: W(0) = 1 and every later window vanishes at q = 1
    return c, v, c[3] - _taylor_at_one(HalfLaurent.monomial(2 * v) * head.mirror())[3]


@dataclass(frozen=True)
class DiscriminantReport:
    """Per-prime twisted-conjugate defects, CRT-lifted to an integer.

    Any admissible prime period of the manifold must divide `lifted`;
    residues rows are (r, v, delta) with delta = a3(x) - a3(xi^v conj x)
    taken mod r at the rule-selected twist v."""

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
    """CRT-lift the twisted-conjugate defect of the level-r invariants to
    a single integer whose prime factors bound the possible periods."""
    prime_list = sorted(set(primes))
    for r in prime_list:
        if not is_prime(r) or r <= 4:
            raise ValueError(f"level {r} must be a prime > 4")
    _, v, delta = discriminant_integers(manifold_id)
    rows = tuple((r, v % r, delta % r) for r in prime_list)
    lifted = crt_symmetric([(r, d) for r, _, d in rows])
    factors = factorize(abs(lifted)) if lifted else ()
    return DiscriminantReport(manifold_id, CANDIDATE_V_RULE, rows, lifted, factors)
