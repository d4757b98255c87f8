"""Reference routines the tests check the package against.

None of them is used by the package.  `complex_eval` is the independent
numeric image of an element of Z[xi], `ideal_member` the one-shift-at-a-time
route that `tau.quotient_congruence_test` batches, `schoolbook_product` the
coordinate double loop that the packed Z[xi] product replaced, and the two
identity checks are facts about Z[T] and the eta moduli that the
congruences rest on.  The small predicates below them (divisibility,
residues, braid permutations, free loops, root pairings, the resummed
Ohtsuki expansion) state in the tests what a result must satisfy.
"""
from __future__ import annotations

import cmath
import math

from qperiod.cyclo import CyclotomicInt, OhtsukiExpansion, make
from qperiod.liedata import RootSystem
from qperiod.linkdiag import BraidWord, PlanarDiagram
from qperiod.modular import fp_divides, fp_gcd, fp_trim, is_prime
from qperiod.qpoly import HalfLaurent, eta, quantum_integer, reduce_mod


def complex_eval(x: CyclotomicInt, which_root: int = 1) -> complex:
    """Numeric image of x under xi -> exp(2 pi i k / r), gcd(k, r) = 1."""
    if math.gcd(which_root, x.r) != 1:
        raise ValueError("which_root must be invertible mod r")
    w = 2j * cmath.pi * which_root / x.r
    return sum(c * cmath.exp(w * i) for i, c in enumerate(x.coeffs))


def ideal_member(x: CyclotomicInt, p: int, gen: CyclotomicInt) -> bool:
    """Whether x lies in the ideal (p, gen) of Z[xi].

    Modulo p the ring becomes GF(p)[T] / (1 + T + ... + T^(r-1)), where the
    ideal generated by gen is principal with generator
    g = gcd(gen, 1 + T + ... + T^(r-1)); membership is divisibility by g.
    A constant gcd means the ideal is the whole ring mod p, and a zero
    generator leaves the pure congruence x = 0 mod p.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if x.r != gen.r:
        raise ValueError(f"mixed rings: r={x.r} vs r={gen.r}")
    g = fp_gcd([1] * x.r, fp_trim(list(gen.coeffs), p), p)
    if len(g) == 1:
        return True
    return fp_divides(g, fp_trim(list(x.coeffs), p), p)


def binomial_expansion_identity(r: int) -> bool:
    """Check 1 + T + ... + T^(r-1) = sum_{k=1}^{r} C(r, k) (T - 1)^(k-1)
    as an exact identity in Z[T]."""
    lhs = [1] * r
    rhs = [0] * r
    pw = [1]  # (T - 1)^(k-1)
    for k in range(1, r + 1):
        cc = math.comb(r, k)
        for i, c in enumerate(pw):
            rhs[i] += cc * c
        nxt = [0] * (len(pw) + 1)
        for i, c in enumerate(pw):
            nxt[i] -= c
            nxt[i + 1] += c
        pw = nxt
    return lhs == rhs


def remark_identity_check(p: int) -> bool:
    """Verify (t + 1) eta_p(t) = q^(-p/2) ([2]^p - [2]) under
    sqrt(q) -> -1/sqrt(t), coefficientwise mod p."""
    lhs = (HalfLaurent.monomial(2) + 1) * eta(p)
    two = quantum_integer(2)
    rhs = (HalfLaurent.monomial(-p) * (two**p - two)).substitute_neg_inv_sqrt()
    return coeffs_divisible_by(lhs - rhs, p)


def schoolbook_product(x: CyclotomicInt, y: CyclotomicInt) -> CyclotomicInt:
    """x * y by the O(r^2) double loop over coordinates."""
    r = x.r
    acc = [0] * r
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            acc[(i + j) % r] += a * b
    return CyclotomicInt(r, tuple(c - acc[r - 1] for c in acc[:-1]))


def epsilon_residue(x: CyclotomicInt) -> int:
    """Image of x in Z/r under xi -> 1, as a representative in [0, r)."""
    return sum(x.coeffs) % x.r


def divisible_by(x: CyclotomicInt, m: int) -> bool:
    """Whether x lies in the ideal m Z[xi], i.e. every coordinate does."""
    if m <= 0:
        raise ValueError("divisor must be a positive integer")
    return all(c % m == 0 for c in x.coeffs)


def one_minus_xi(r: int) -> CyclotomicInt:
    return make(r, {0: 1, 1: -1})


def reconstruct(e: OhtsukiExpansion) -> CyclotomicInt:
    """Resum digits and remainder; inverse of ohtsuki_expansion."""
    base = one_minus_xi(e.r)
    out = CyclotomicInt.zero(e.r)
    pw = CyclotomicInt.one(e.r)
    for an in e.a:
        out = out + pw * an
        pw = pw * base
    return out + pw * e.remainder


def coeffs_divisible_by(f: HalfLaurent, m: int) -> bool:
    if m <= 0:
        raise ValueError("divisor must be a positive integer")
    return all(c % m == 0 for _, c in f.terms)


def congruent_mod(f: HalfLaurent, h: HalfLaurent, p: int, g: HalfLaurent) -> bool:
    """Whether f and h agree modulo the ideal (p, g)."""
    return reduce_mod(f - h, p, g).is_zero


def braid_permutation(b: BraidWord) -> tuple[int, ...]:
    """perm[s] = bottom position reached by the strand starting at top s."""
    strand_at = list(range(b.strands))
    for w in b.letters:
        i = abs(w) - 1
        strand_at[i], strand_at[i + 1] = strand_at[i + 1], strand_at[i]
    perm = [0] * b.strands
    for pos, s in enumerate(strand_at):
        perm[s] = pos
    return tuple(perm)


def braid_component_count(b: BraidWord) -> int:
    perm = braid_permutation(b)
    seen = [False] * b.strands
    count = 0
    for s in range(b.strands):
        if not seen[s]:
            count += 1
            while not seen[s]:
                seen[s] = True
                s = perm[s]
    return count


def free_loop_count(d: PlanarDiagram) -> int:
    """The components of d that meet no crossing."""
    crossing_arcs = {a for x in d.crossings for a in x}
    return sum(1 for comp in d.components if comp[0] not in crossing_arcs)


def pairing(rs: RootSystem, beta, i: int) -> int:
    """<beta, alpha_i^vee>, integral on the root lattice."""
    return sum(rs.cartan[i][j] * c for j, c in enumerate(beta))
