"""Reference routines the tests check the package against.

None of them is used by the package.  `complex_eval` is the independent
numeric image of an element of Z[xi], `ideal_member` the one-shift-at-a-time
route that `tau.quotient_congruence_test` batches, `schoolbook_product` the
coordinate double loop that the packed Z[xi] product replaced, and the two
identity checks are facts about Z[T] and the eta moduli that the
congruences rest on.
"""
from __future__ import annotations

import cmath
import math

from qperiod.cyclo import CyclotomicInt
from qperiod.modular import fp_divides, fp_gcd, fp_trim, is_prime
from qperiod.qpoly import HalfLaurent, eta, quantum_integer


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
    return (lhs - rhs).coeffs_divisible_by(p)


def schoolbook_product(x: CyclotomicInt, y: CyclotomicInt) -> CyclotomicInt:
    """x * y by the O(r^2) double loop over coordinates."""
    r = x.r
    acc = [0] * r
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            acc[(i + j) % r] += a * b
    return CyclotomicInt(r, tuple(c - acc[r - 1] for c in acc[:-1]))
