"""Deterministic primality at the edges of its proven range, and the
packed product of integer polynomials against the pair loop."""
from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import dict_product
from qperiod.modular import factorize, is_prime, poly_mul
from qperiod.qpoly import HalfLaurent

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


# -- the packed product ------------------------------------------------------

# the coefficients at and just inside 2^(8w-1), where the digit width w
# steps up, for w = 1 .. 4
WIDTH_EDGES = [s * (2 ** (8 * w - 1) - d) for w in range(1, 5) for d in (0, 1) for s in (1, -1)]
coefficients = st.one_of(
    st.integers(-9, 9), st.integers(-(10**30), 10**30), st.sampled_from(WIDTH_EDGES)
)


@st.composite
def laurent(draw):
    """Up to 8 terms on one exponent step of 1, 2, 4 or 6 from an offset
    that is mostly negative; zero and monomials included."""
    step = draw(st.sampled_from([1, 2, 4, 6]))
    offset = draw(st.integers(-40, 5))
    places = draw(st.sets(st.integers(0, 12), max_size=8))
    return HalfLaurent.from_dict({offset + step * i: draw(coefficients) for i in places})


ZERO, ONE = HalfLaurent(), HalfLaurent.monomial(0)
DELTA = HalfLaurent.from_dict({4: -1, -4: -1})


@settings(max_examples=300, deadline=None)
@given(laurent(), laurent())
@example(ZERO, DELTA)
@example(DELTA, ZERO)
@example(HalfLaurent.monomial(-7, -(10**30)), DELTA)
@example(HalfLaurent.monomial(-6, 2**7), HalfLaurent.monomial(4, -(2**7)))
def test_packed_product_matches_the_pair_loop(f, g):
    want = dict_product(f, g)
    assert poly_mul(f.terms, g.terms) == dict(want.terms)
    assert f * g == want


@settings(max_examples=100, deadline=None)
@given(laurent(), st.integers(0, 5))
@example(ZERO, 0)
@example(ZERO, 3)
@example(HalfLaurent.monomial(-3, -(2**15)), 4)
def test_power_matches_repeated_pair_loops(f, n):
    want = ONE
    for _ in range(n):
        want = dict_product(want, f)
    assert f**n == want


@pytest.mark.parametrize("c", WIDTH_EDGES)
def test_packed_product_at_each_digit_width_edge(c):
    # the edge coefficient alone, and as the largest of a longer factor
    # whose product coefficients reach the bound on the digits
    for f, g in (
        ([(-5, c)], [(0, 1)]),
        ([(-8, c), (-4, 1 - c)], [(-6, c), (-2, c), (2, -c)]),
    ):
        want = dict_product(HalfLaurent.from_dict(dict(f)), HalfLaurent.from_dict(dict(g)))
        assert poly_mul(f, g) == dict(want.terms)
