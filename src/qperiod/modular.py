"""Shared number-theoretic helpers.

Primality, dense polynomial arithmetic over a prime field, Chinese
remaindering with symmetric representatives, and trial-division
factorization.  Everything here works on plain Python integers, so all
results are exact at any size.
"""
from __future__ import annotations

import math

# the first 13 primes as Miller-Rabin bases decide primality exactly below
# psi_13 (Sorenson and Webster, Math. Comp. 86, 2017); the first 12 only
# below psi_12 = 318665857834031151167461, a strong pseudoprime to them
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981

# json interop: integers beyond IEEE-754 exactness travel as decimal strings
_JSON_INT_LIMIT = 2**53


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below
    psi_13 = 3317044064679887385961981; ValueError from there on."""
    if n >= _MR_LIMIT:
        raise ValueError(f"primality is decided only below {_MR_LIMIT}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# dense polynomials over GF(p): list of coefficients, index = degree,
# coefficients reduced into [0, p), no trailing zeros, zero poly = []

def fp_trim(coeffs: list[int], p: int) -> list[int]:
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def fp_rem(num: list[int], den: list[int], p: int) -> list[int]:
    """Euclidean remainder of num mod den over GF(p).  den must be nonzero."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero over GF(p)")
    inv = pow(den[-1], -1, p)
    rem = list(num)
    while len(rem) >= len(den):
        lead = rem[-1]
        if lead:
            q = lead * inv % p
            off = len(rem) - len(den)
            for i, c in enumerate(den):
                rem[off + i] = (rem[off + i] - q * c) % p
        rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over GF(p); gcd(0, 0) = 0."""
    a, b = fp_trim(a, p), fp_trim(b, p)
    while b:
        a, b = b, fp_rem(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def fp_divides(den: list[int], num: list[int], p: int) -> bool:
    den, num = fp_trim(den, p), fp_trim(num, p)
    if not num:
        return True
    if not den:
        return False
    return not fp_rem(num, den, p)


# ---------------------------------------------------------------------------

def crt_symmetric(pairs: list[tuple[int, int]]) -> int:
    """Combine residue pairs (modulus, residue) into the representative in
    (-M/2, M/2] where M is the product of the moduli.

    Moduli must be pairwise coprime.
    """
    if not pairs:
        raise ValueError("need at least one residue pair")
    m_total, x = 1, 0
    for m, res in pairs:
        if m < 2:
            raise ValueError(f"modulus {m} is not usable")
        if math.gcd(m, m_total) != 1:
            raise ValueError(f"moduli are not pairwise coprime at {m}")
        # lift x from m_total to m_total * m
        inc = (res - x) * pow(m_total, -1, m) % m
        x += inc * m_total
        m_total *= m
    x %= m_total
    if 2 * x > m_total:
        x -= m_total
    return x


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as (prime, multiplicity) pairs."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: list[tuple[int, int]] = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def encode_int(n: int) -> int | str:
    """Render n for JSON: plain int while exact in a double, else decimal text."""
    return n if -_JSON_INT_LIMIT <= n <= _JSON_INT_LIMIT else str(n)

