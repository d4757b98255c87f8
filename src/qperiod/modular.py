"""Shared number-theoretic helpers.

Primality, the remainder of dense polynomials over a prime field, and
trial-division factorization.  Everything here works on plain Python
integers, so all results are exact at any size.

Every layer refuses an inadmissible argument with InputError, worded
for the user: a ValueError that the CLI reports as a usage error.
"""
from __future__ import annotations

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


class InputError(ValueError):
    """An argument refused before any work, in words the user can act on."""


def is_prime_argument(name: str, n: int) -> bool:
    """is_prime(n) for the argument called name; InputError where n is
    too large to decide."""
    try:
        return is_prime(n)
    except ValueError as exc:
        raise InputError(f"{name} = {n}: {exc}") from None


def require_prime(name: str, n: int, odd: bool = False) -> None:
    """Refuse the argument name = n unless it is prime, and odd if asked."""
    if not is_prime_argument(name, n):
        raise InputError(f"{name} = {n} must be prime")
    if odd and n == 2:
        raise InputError(f"{name} = 2 must be an odd prime")


# ---------------------------------------------------------------------------
# dense polynomials over GF(p): list of coefficients, index = degree,
# coefficients reduced into [0, p), no trailing zeros, zero poly = []

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

