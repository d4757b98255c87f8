"""Half-exponent Laurent polynomials: quantum integers, eta moduli,
modular reduction, and the bridging identity."""
from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import congruent_mod, remark_identity_check
from qperiod.cli import poly_text
from qperiod.qpoly import (
    HalfLaurent,
    eta,
    poly_to_json,
    quantum_integer,
    reduce_mod,
)

small_polys = st.dictionaries(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-6, max_value=6),
    max_size=6,
).map(HalfLaurent.from_dict)


# -- arithmetic container ---------------------------------------------------


def test_from_dict_sorts_and_drops_zeros():
    f = HalfLaurent.from_dict({2: 0, 4: -1, 0: 3})
    assert f.terms == ((0, 3), (4, -1))


def test_quantum_integer_values():
    assert quantum_integer(0).is_zero
    assert quantum_integer(1) == HalfLaurent.monomial(0)
    # [2] = q^(1/2) + q^(-1/2)
    assert quantum_integer(2) == HalfLaurent.from_dict({1: 1, -1: 1})
    # [3] = q + 1 + q^(-1)
    assert quantum_integer(3) == HalfLaurent.from_dict({2: 1, 0: 1, -2: 1})
    with pytest.raises(ValueError):
        quantum_integer(-1)


def test_quantum_integer_product_identity():
    # [2]^2 = [3] + 1, a standard check on the balanced normalization
    assert quantum_integer(2) ** 2 == quantum_integer(3) + HalfLaurent.monomial(0)


@settings(max_examples=60, deadline=None)
@given(small_polys)
def test_mirror_is_involution(f):
    assert f.mirror().mirror() == f


@settings(max_examples=60, deadline=None)
@given(small_polys)
def test_substitution_is_involution(f):
    assert f.substitute_neg_inv_sqrt().substitute_neg_inv_sqrt() == f


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_substitution_is_ring_map(f, g):
    sub = HalfLaurent.substitute_neg_inv_sqrt
    assert sub(f * g) == sub(f) * sub(g)
    assert sub(f + g) == sub(f) + sub(g)


def test_substitution_golden_case():
    # q^(1/2) -> -t^(-1/2), q^(-1) -> t
    f = HalfLaurent.from_dict({1: 1, -2: 5})
    assert f.substitute_neg_inv_sqrt() == HalfLaurent.from_dict({-1: -1, 2: 5})


# -- eta moduli -------------------------------------------------------------


def test_eta_golden_values():
    # eta_3 = 1 - 2t + t^2 = (1 - t)^2
    assert eta(3) == HalfLaurent.from_dict({0: 1, 2: -2, 4: 1})
    # eta_5 = 1 - t - t^3 + t^4: the alternating sum has +t^2, the
    # correction removes it exactly
    assert eta(5) == HalfLaurent.from_dict({0: 1, 2: -1, 6: -1, 8: 1})


def test_eta_is_palindromic():
    for p in (3, 5, 7, 11):
        e = eta(p)
        deg = e.max_exp
        assert e == HalfLaurent.from_dict({deg - k: c for k, c in e.terms})


def test_eta_rejects_two_and_composites():
    with pytest.raises(ValueError):
        eta(2)
    with pytest.raises(ValueError):
        eta(9)


# -- modular reduction ------------------------------------------------------


def t_poly(d):
    return HalfLaurent.from_dict({2 * k: c for k, c in d.items()})


def test_reduce_mod_basic_membership():
    g = t_poly({0: -1, 3: 1})  # t^3 - 1
    f = t_poly({0: -1, 6: 1})  # t^6 - 1 = (t^3-1)(t^3+1)
    assert reduce_mod(f, 5, g).is_zero
    assert not reduce_mod(t_poly({1: 1}), 5, g).is_zero


def test_reduce_mod_clears_half_exponents():
    # t - 1 is in (p, t^(1/2) - 1) since t - 1 = (t^(1/2)-1)(t^(1/2)+1)
    g = HalfLaurent.from_dict({1: 1, 0: -1})
    f = t_poly({1: 1, 0: -1})
    assert reduce_mod(f, 3, g).is_zero


def test_reduce_mod_normal_form_is_reduced():
    g = t_poly({0: -1, 5: 1})
    f = t_poly({-4: -1, -3: 1, -1: 1}) - HalfLaurent.monomial(0)
    nf = reduce_mod(f, 5, g)
    assert not nf.is_zero
    assert all(0 <= c < 5 for _, c in nf.terms)
    assert nf.max_exp < 10  # degree below the cleared generator


def test_reduce_mod_rejects_bad_generators():
    with pytest.raises(ValueError):
        reduce_mod(t_poly({0: 1}), 5, HalfLaurent())
    with pytest.raises(ValueError):
        reduce_mod(t_poly({0: 1}), 5, t_poly({0: 1, 2: 5}))  # leading coeff 0 mod 5
    with pytest.raises(ValueError):
        reduce_mod(t_poly({0: 1}), 5, t_poly({1: 5, 2: 1}))  # trailing coeff 0 mod 5
    with pytest.raises(ValueError):
        reduce_mod(t_poly({0: 1}), 6, t_poly({0: 1, 1: 1}))  # composite p


@settings(max_examples=50, deadline=None)
@given(small_polys)
def test_reduce_mod_absorbs_generator_multiples(f):
    g = t_poly({0: 1, 1: 2, 2: 1})
    assert reduce_mod(f * g, 5, g).is_zero


@pytest.mark.parametrize("p", (3, 5, 7))
def test_congruent_mod_reflexive_and_shift_invariant(p):
    rng = random.Random(90 + p)
    g = eta(p)
    for _ in range(25):
        f = HalfLaurent.from_dict(
            {rng.randint(-6, 6): rng.randint(-4, 4) for _ in range(4)}
        )
        m = HalfLaurent.from_dict({rng.randint(-3, 3): rng.randint(-3, 3)})
        assert congruent_mod(f, f, p, g)
        assert congruent_mod(f, f + m * g, p, g)
        assert congruent_mod(f, f + m * HalfLaurent.monomial(0, p), p, g)


def test_trefoil_value_lands_in_eta3_ideal():
    # V(trefoil) - 1 factors as -(t-1)^2 (t^2+t+1) = -eta_3 (t^2+t+1),
    # the hand-checkable instance of the periodicity congruence
    v = t_poly({4: -1, 3: 1, 1: 1})
    assert congruent_mod(v, HalfLaurent.monomial(0), 3, eta(3))
    v_mirror = v.mirror()
    assert congruent_mod(v_mirror, HalfLaurent.monomial(0), 3, eta(3))


# -- the bridging identity --------------------------------------------------


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
def test_remark_identity(p):
    assert remark_identity_check(p)


def test_remark_identity_fails_off_prime_scale():
    # the congruence is mod p; the two sides differ over Z
    p = 3
    lhs = (HalfLaurent.monomial(2) + HalfLaurent.monomial(0)) * eta(p)
    two = quantum_integer(2)
    rhs = (HalfLaurent.monomial(-p) * (two**p - two)).substitute_neg_inv_sqrt()
    assert lhs != rhs


# -- serialization ----------------------------------------------------------


def test_poly_text_formats():
    assert poly_text(HalfLaurent()) == "0"
    f = t_poly({-4: -1, -3: 1, -1: 1})
    assert poly_text(f) == "-1*t^(-4) + 1*t^(-3) + 1*t^(-1)"
    g = HalfLaurent.from_dict({5: 2})
    assert poly_text(g) == "2*t^(5/2)"
    assert poly_text(HalfLaurent.from_dict({-5: 2})) == "2*t^(-5/2)"


def test_poly_json_roundtrip():
    f = HalfLaurent.from_dict({-3: 2**60, 0: -1, 4: 7})
    obj = json.loads(json.dumps(poly_to_json(f)))
    assert obj["var"] == "t"
    assert obj["terms"] == [[-3, str(2**60)], [0, -1], [4, 7]]
    assert HalfLaurent.from_dict({k: int(c) for k, c in obj["terms"]}) == f
