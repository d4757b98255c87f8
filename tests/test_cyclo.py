"""Cyclotomic-integer arithmetic: golden values, ring axioms, expansions."""
from __future__ import annotations

import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qperiod.cyclo as cyclo_module
import qperiod.modular as modular
from oracles import (
    binomial_expansion_identity,
    complex_eval,
    divide_by_one_minus_xi,
    divisible_by,
    epsilon_residue,
    ideal_member,
    one_minus_xi,
    reconstruct,
    schoolbook_product,
    twisted_division,
)
from qperiod.cyclo import (
    CyclotomicInt,
    NotDivisibleError,
    divide_power_vector,
    make,
    ohtsuki_digits,
    ohtsuki_expansion,
    twist_conjugate,
)
from qperiod.cli import cyclo_json
from qperiod.modular import is_prime

RS = (5, 7, 11)


def rand_elt(r: int, rng: random.Random, lo: int = -9, hi: int = 9) -> CyclotomicInt:
    return CyclotomicInt(r, tuple(rng.randint(lo, hi) for _ in range(r - 1)))


def divide(x: CyclotomicInt) -> CyclotomicInt:
    """x / (1 - xi) by cyclo.divide_power_vector, on canonical coordinates."""
    return CyclotomicInt(x.r, tuple(divide_power_vector([*x.coeffs, 0])[:-1]))


# -- construction and canonical form ---------------------------------------


def test_make_reduces_high_powers():
    # xi^5 = 1 at r=5; xi^4 folds into the basis
    assert make(5, {5: 1}) == CyclotomicInt.one(5)
    assert make(5, {4: 1}) == CyclotomicInt(5, (-1, -1, -1, -1))
    assert make(5, {-1: 1}) == make(5, {4: 1})


def test_make_accumulates_colliding_powers():
    # 1 - xi^5 = 0 exactly, even though both monomials land on power 0
    assert not any(make(5, [(0, 1), (5, -1)]).coeffs)


def test_product_golden_value():
    # (1 + xi)(1 + xi^4) = 1 - xi^2 - xi^3 at r = 5
    x = make(5, {0: 1, 1: 1})
    y = make(5, {0: 1, 4: 1})
    assert (x * y).coeffs == (1, 0, -1, -1)


def test_invalid_r_rejected():
    with pytest.raises(ValueError):
        make(6, ())
    with pytest.raises(ValueError):
        make(2, ())
    with pytest.raises(ValueError):
        CyclotomicInt(5, (1, 2, 3))


def test_each_ring_is_checked_once(monkeypatch):
    calls = []
    real_is_prime = modular.is_prime

    def counting_is_prime(n):
        calls.append(n)
        return real_is_prime(n)

    monkeypatch.setattr(modular, "is_prime", counting_is_prime)
    cyclo_module._check_r.cache_clear()
    for _ in range(3):
        assert epsilon_residue(one_minus_xi(101) * one_minus_xi(101)) == 0
        # a rejected level is not remembered, so it is refused every time
        with pytest.raises(ValueError):
            make(91, ())
    assert calls == [101, 91, 91, 91]


def test_mixed_ring_rejected():
    with pytest.raises(ValueError):
        CyclotomicInt.one(5) + CyclotomicInt.one(7)
    with pytest.raises(ValueError):
        CyclotomicInt.one(5) * CyclotomicInt.one(7)


@pytest.mark.parametrize("r", RS)
def test_ring_axioms_random_triples(r):
    # 200 random triples per ring: associativity, commutativity,
    # distributivity, and the defining relation sum xi^i = 0
    rng = random.Random(1000 + r)
    for _ in range(200):
        x, y, z = (rand_elt(r, rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
    assert not any(make(r, {i: 1 for i in range(r)}).coeffs)


def elements(r: int):
    coords = st.integers(-(2**70), 2**70) | st.integers(-3, 3)
    return st.lists(coords, min_size=r - 1, max_size=r - 1).map(lambda c: CyclotomicInt(r, tuple(c)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([3, 5, 7, 11, 13, 47]).flatmap(lambda r: st.tuples(elements(r), elements(r))))
def test_product_matches_schoolbook(pair):
    # the packed product against the coordinate double loop, with zero,
    # small, huge and mixed-sign coordinates
    x, y = pair
    assert x * y == schoolbook_product(x, y)
    assert x * make(x.r, ()) == make(x.r, ())


@pytest.mark.parametrize("r", RS)
def test_canonical_form_is_stable_under_relation(r):
    # adding any multiple of 1 + xi + ... + xi^(r-1) cannot change an element
    rng = random.Random(2000 + r)
    for _ in range(50):
        x = rand_elt(r, rng)
        shift = rng.randint(-5, 5)
        monos = list(enumerate(x.coeffs)) + [(i, shift) for i in range(r)]
        assert make(r, monos) == x


# -- structure maps ---------------------------------------------------------


def test_conjugate_golden_value():
    x = make(5, {0: 1, 1: 2, 2: 2, 3: 1})
    assert twist_conjugate(x, 0) == make(5, {0: 1, 4: 2, 3: 2, 2: 1})
    assert twist_conjugate(x, 0).coeffs == (-1, -2, -1, 0)


@pytest.mark.parametrize("r", RS)
def test_galois_is_ring_automorphism(r):
    rng = random.Random(3000 + r)
    for _ in range(60):
        x, y = rand_elt(r, rng), rand_elt(r, rng)
        j = rng.randrange(1, r)
        assert (x * y).galois(j) == x.galois(j) * y.galois(j)
        assert (x + y).galois(j) == x.galois(j) + y.galois(j)


@pytest.mark.parametrize("r", RS)
def test_conjugate_is_involution(r):
    rng = random.Random(4000 + r)
    for _ in range(40):
        x = rand_elt(r, rng)
        assert twist_conjugate(twist_conjugate(x, 0), 0) == x


def test_galois_rejects_zero_exponent():
    with pytest.raises(ValueError):
        CyclotomicInt.one(5).galois(5)


@pytest.mark.parametrize("r", RS)
def test_epsilon_is_ring_map_to_z_mod_r(r):
    rng = random.Random(5000 + r)
    for _ in range(60):
        x, y = rand_elt(r, rng), rand_elt(r, rng)
        assert epsilon_residue(x + y) == (epsilon_residue(x) + epsilon_residue(y)) % r
        assert epsilon_residue(x * y) == (epsilon_residue(x) * epsilon_residue(y)) % r
    assert epsilon_residue(make(r, {1: 1})) == 1


def test_divisible_by():
    x = make(5, {0: 10, 1: -5, 3: 15})
    assert divisible_by(x, 5)
    assert not divisible_by(x, 3)
    with pytest.raises(ValueError):
        divisible_by(x, 0)


def test_complex_eval_on_near_full_sum():
    import cmath

    for r in (5, 7):
        x = make(r, {i: 1 for i in range(r - 1)})
        expect = -cmath.exp(2j * cmath.pi * (r - 1) / r)
        assert abs(complex_eval(x) - expect) < 1e-12


def test_complex_eval_respects_galois_choice():
    x = make(7, {1: 1})
    import cmath

    assert abs(complex_eval(x, 3) - cmath.exp(2j * cmath.pi * 3 / 7)) < 1e-12
    with pytest.raises(ValueError):
        complex_eval(x, 7)


# -- division by (1 - xi) and the digit expansion ---------------------------


def test_divide_golden_values():
    # (1 - xi^3) / (1 - xi) = 1 + xi + xi^2
    x = make(5, {0: 1, 3: -1})
    assert divide(x) == make(5, {0: 1, 1: 1, 2: 1})
    # (2 xi + 2 xi^2 + xi^3) / (1 - xi) = xi^3 + xi^2 - 1
    y = make(5, {1: 2, 2: 2, 3: 1})
    assert divide(y) == make(5, {0: -1, 2: 1, 3: 1})


def test_divide_rejects_nonmembers():
    with pytest.raises(NotDivisibleError):
        divide(CyclotomicInt.one(5))


@pytest.mark.parametrize("r", RS)
def test_divide_inverts_multiplication(r):
    rng = random.Random(6000 + r)
    for _ in range(60):
        w = rand_elt(r, rng)
        assert divide(one_minus_xi(r) * w) == w


# an element of Z[xi] at a small prime level, with an exponent e that is
# 1, in [2, r-1], or negative as in the conjugated chain of f_unknot
twisted_cases = st.sampled_from((3, 5, 7, 11, 13, 31)).flatmap(
    lambda r: st.tuples(
        st.lists(st.integers(-50, 50), min_size=r - 1, max_size=r - 1).map(
            lambda cs: CyclotomicInt(r, tuple(cs))
        ),
        st.just(1) | st.integers(2, r - 1) | st.integers(-(r - 1), -1),
    )
)


def outcome(division, *args):
    try:
        return division(*args)
    except NotDivisibleError:
        return "not divisible"


@settings(max_examples=120, deadline=None)
@given(twisted_cases)
def test_division_matches_both_references(case):
    # on a member x (1 - xi^e) and on x itself, member or not, the one
    # division agrees with the partial sums and with the twist-divide-twist
    # route at e = 1
    x, e = case
    for y in (x * make(x.r, {0: 1, e: -1}), x):
        want = outcome(divide_by_one_minus_xi, y)
        assert outcome(divide, y) == want == outcome(twisted_division, y, 1)


@settings(max_examples=80, deadline=None)
@given(twisted_cases, st.integers(-50, 50))
def test_power_vector_division_of_any_representative(case, top):
    # tau divides vectors whose top coordinate is not 0: every
    # representative of a member divides, and the quotient's top coordinate
    # is 0
    x, _ = case
    y = [c + top for c in (x * one_minus_xi(x.r)).coeffs] + [top]
    q = divide_power_vector(y)
    assert q[-1] == 0
    assert CyclotomicInt(x.r, tuple(q[:-1])) == x


@settings(max_examples=80, deadline=None)
@given(twisted_cases)
def test_twisted_division_inverts_multiplication(case):
    # the oracle behind f_unknot and mirror_unknot divides by 1 - xi^e for
    # every unit e
    x, e = case
    r = x.r
    assert twisted_division(x * make(r, {0: 1, e: -1}), e) == x


@settings(max_examples=80, deadline=None)
@given(twisted_cases)
def test_twisted_division_rejects_nonmembers(case):
    x, e = case
    if epsilon_residue(x) == 0:
        x = x + CyclotomicInt.one(x.r)
    with pytest.raises(NotDivisibleError):
        twisted_division(x, e)


def test_twisted_division_golden_value_and_zero_exponent():
    # (1 - xi^6) / (1 - xi^2) = 1 + xi^2 + xi^4
    assert twisted_division(make(7, {0: 1, 6: -1}), 2) == make(7, {0: 1, 2: 1, 4: 1})
    with pytest.raises(ValueError):
        twisted_division(make(7, ()), 14)


def test_expansion_golden_value():
    # 1 + xi = 2 - (1 - xi), so the digits open with [2, r-1 mod r = 4, ...]
    exp = ohtsuki_expansion(make(5, {0: 1, 1: 1}))
    assert exp.a == (2, 4, 0, 0)


@pytest.mark.parametrize("r", RS)
def test_expansion_roundtrip_random(r):
    # 100 random elements per ring reconstruct exactly
    rng = random.Random(7000 + r)
    for _ in range(100):
        x = rand_elt(r, rng, -50, 50)
        exp = ohtsuki_expansion(x)
        assert all(0 <= a < r for a in exp.a)
        assert len(exp.a) == r - 1
        assert reconstruct(exp) == x


@pytest.mark.parametrize("r", RS)
def test_expansion_digits_well_defined_mod_r(r):
    # perturbing x by r * z never changes a_n mod r for n <= r-2
    rng = random.Random(8000 + r)
    for _ in range(30):
        x, z = rand_elt(r, rng), rand_elt(r, rng)
        assert ohtsuki_expansion(x).a == ohtsuki_expansion(x + z * CyclotomicInt.from_int(r, r)).a


def wide_coeffs(r: int) -> list[int]:
    rng = random.Random(r)
    return [rng.randint(-(10**30), 10**30) for _ in range(r - 1)]


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([p for p in range(3, 62) if is_prime(p)]).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.lists(st.integers(-(10**30), 10**30) | st.integers(-9, 9),
                     min_size=r - 1, max_size=r - 1),
        )
    )
)
@example((101, wide_coeffs(101)))
@example((211, wide_coeffs(211)))
def test_ohtsuki_digits_match_full_expansion(data):
    # the binomial digits agree with the peeled expansion at every depth
    r, coeffs = data
    x = CyclotomicInt(r, tuple(coeffs))
    full = ohtsuki_expansion(x).a
    for depth in range(r - 1):
        assert ohtsuki_digits(x, depth) == full[: depth + 1]


@pytest.mark.parametrize("depth", (-1, 6, 100))
def test_ohtsuki_digits_rejects_depth_out_of_range(depth):
    with pytest.raises(ValueError, match="depth"):
        ohtsuki_digits(CyclotomicInt.one(7), depth)


@pytest.mark.parametrize("depth", (0, 1, 3, 99))
def test_ohtsuki_digits_makes_no_division(monkeypatch, depth):
    # every digit is a binomial sum mod r, so no digit divides by 1 - xi
    x = rand_elt(101, random.Random(depth))
    want = ohtsuki_expansion(x).a[: depth + 1]
    calls = []

    def counted(y):
        calls.append(y)
        return divide_power_vector(y)

    monkeypatch.setattr(cyclo_module, "divide_power_vector", counted)
    assert ohtsuki_digits(x, depth) == want
    assert calls == []


@pytest.mark.parametrize("r", (3, 5, 7, 11, 13))
def test_integer_r_has_vanishing_digits(r):
    # every digit of the constant r vanishes, the digit-level trace of
    # r = (unit) * (1 - xi)^(r-1)
    exp = ohtsuki_expansion(CyclotomicInt.from_int(r, r))
    assert exp.a == (0,) * (r - 1)


@pytest.mark.parametrize("r", (3, 5, 7, 11, 13))
def test_binomial_expansion_identity(r):
    assert binomial_expansion_identity(r)


# -- ideal membership -------------------------------------------------------


def half_trace_generator(r: int, p: int) -> CyclotomicInt:
    """(xi + xi^-1)^p - (xi + xi^-1), the quotient-criterion generator."""
    h = make(r, {1: 1, r - 1: 1})
    power = h
    for _ in range(p - 1):
        power = power * h
    return power + (-h)


def test_ideal_member_trivial_cases():
    one, zero = CyclotomicInt.one(5), make(5, ())
    assert ideal_member(CyclotomicInt.from_int(5, 3), 3, zero)
    assert ideal_member(one + (-one), 3, zero)
    assert not ideal_member(one, 3, zero)


def test_ideal_member_with_constant_gcd_accepts_everything():
    # at (p, r) = (3, 5) the generator is coprime to the cyclotomic
    # polynomial mod 3, so the ideal is the whole ring
    g = half_trace_generator(5, 3)
    assert ideal_member(CyclotomicInt.one(5), 3, g)


def test_ideal_member_with_nonconstant_gcd_rejects_one():
    # (p, r) = (5, 3) and (11, 5): the generator shares a factor with the
    # cyclotomic polynomial mod p and the unit stays outside
    for p, r in ((5, 3), (11, 5)):
        g = half_trace_generator(r, p)
        assert not ideal_member(CyclotomicInt.one(r), p, g)
        assert ideal_member(CyclotomicInt.from_int(r, p), p, g)


def test_ideal_member_contains_generator_combinations():
    rng = random.Random(42)
    r, p = 7, 5
    g = half_trace_generator(r, p)
    for _ in range(25):
        u, v = rand_elt(r, rng), rand_elt(r, rng)
        assert ideal_member(u * g + v * CyclotomicInt.from_int(r, p), p, g)


def test_ideal_member_validates_inputs():
    with pytest.raises(ValueError):
        ideal_member(CyclotomicInt.one(5), 4, make(5, ()))
    with pytest.raises(ValueError):
        ideal_member(CyclotomicInt.one(5), 3, make(7, ()))


# -- serialization ----------------------------------------------------------


def test_json_roundtrip_small_and_huge():
    x = make(5, {0: 1, 1: 2**60, 3: -7})
    obj = json.loads(json.dumps(cyclo_json(x)))
    assert obj["coeffs"][1] == str(2**60)  # beyond 2^53 travels as text
    assert isinstance(obj["coeffs"][0], int)
    assert obj["r"] == 5
    assert [int(c) for c in obj["coeffs"]] == list(x.coeffs)
