"""Deterministic primality at the edges of its proven range."""
from __future__ import annotations

import pytest

from qperiod.modular import factorize, is_prime

# the least strong pseudoprimes to the first 12 and to the first 13 primes
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_is_prime_matches_a_sieve():
    n = 20000
    sieve = [True] * n
    sieve[0] = sieve[1] = False
    for p in range(2, n):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(range(p * p, n, p))
    assert [k for k in range(-5, n) if is_prime(k)] == [k for k in range(n) if sieve[k]]


def test_psi_12_is_composite():
    # both factors are prime by trial division
    factors = (399165290221, 798330580441)
    assert PSI_12 == factors[0] * factors[1]
    assert all(factorize(p) == ((p, 1),) and is_prime(p) for p in factors)
    assert not is_prime(PSI_12)


@pytest.mark.parametrize(
    "n, prime",
    [(2**61 - 1, True), (2**67 - 1, False), (PSI_13 - 1, False)],
)
def test_is_prime_decides_below_psi_13(n, prime):
    assert is_prime(n) is prime


@pytest.mark.parametrize("n", [PSI_13, PSI_13 + 1, 2**89 - 1])
def test_is_prime_refuses_from_psi_13_on(n):
    with pytest.raises(ValueError, match=str(PSI_13)):
        is_prime(n)
