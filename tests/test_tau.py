"""Invariant values, obstruction verdicts, quotient congruences, and the
discriminant lift, pinned against hand-checked small cases and collected
congruence tables."""
from __future__ import annotations

import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import divisible_by, ideal_member
from qperiod.cyclo import CyclotomicInt, make, ohtsuki_expansion
from qperiod.liedata import build_root_system
from qperiod.tau import (
    DiscriminantReport,
    TauValue,
    coeff_table,
    crt_lift,
    obstruction_test,
    period_discriminant,
    quotient_congruence_test,
    tau_brieskorn237,
    tau_for,
    tau_poincare,
    tau_s3,
    twist_conjugate,
    _tau_sum,
)
from qperiod.modular import is_prime

A1 = build_root_system("A", 1)
FRONTS = {"poincare": lambda n: n, "brieskorn_2_3_7": lambda n: -n * (n + 2)}


def digits(x: CyclotomicInt) -> tuple[int, ...]:
    return ohtsuki_expansion(x).a


def reference_twist(x: CyclotomicInt, v: int) -> CyclotomicInt:
    """xi^v conj(x) as a Z[xi] product: the multiply that twist_conjugate's
    re-indexing replaced, kept as its reference."""
    return CyclotomicInt.power(x.r, v % x.r) * x.conjugate()


# ---------------------------------------------------------------------------
# the invariants themselves


def test_tau_poincare_r5_closed_form() -> None:
    # n=0 term 1, n=1 term xi(1+xi)(1-xi^3), n>=2 terms vanish; total folds
    # to 1 + 2 xi + 2 xi^2 + xi^3
    assert tau_poincare(5).value.coeffs == (1, 2, 2, 1)


def test_tau_s3_is_one() -> None:
    assert tau_s3(7).value == CyclotomicInt.one(7)


@pytest.mark.parametrize("r", [4, 6, 9, 3, 2])
def test_tau_rejects_bad_level(r: int) -> None:
    with pytest.raises(ValueError):
        tau_poincare(r)
    with pytest.raises(ValueError):
        tau_brieskorn237(r)


def test_tau_value_ring_mismatch_rejected() -> None:
    with pytest.raises(ValueError, match="wrong root of unity"):
        TauValue("custom", 7, CyclotomicInt.one(5))


def test_tau_for_dispatch() -> None:
    assert tau_for("poincare", 5).value == tau_poincare(5).value
    assert tau_for("brieskorn_2_3_7", 5).value == tau_brieskorn237(5).value
    assert tau_for("s3", 5).manifold_id == "s3"
    with pytest.raises(ValueError, match="unknown manifold"):
        tau_for("lens_5_1", 5)


# ---------------------------------------------------------------------------
# the term-by-term reference for _tau_sum: each window rebuilt from scratch
# as a dense product in Z[xi], about r^4 per level


def _geometric(r: int, n: int) -> CyclotomicInt:
    return make(r, [(j, 1) for j in range(n + 1)])


def _window(r: int, n: int) -> CyclotomicInt:
    """(1+xi+...+xi^n) * prod_{k=n+2}^{2n+1} (1 - xi^k)."""
    term = _geometric(r, n)
    for k in range(n + 2, 2 * n + 2):
        term = term * make(r, [(0, 1), (k, -1)])
        if term.is_zero:
            break
    return term


def _reference_sum(r: int, front, terms: int) -> CyclotomicInt:
    return sum(
        (CyclotomicInt.power(r, front(n) % r) * _window(r, n) for n in range(terms)),
        CyclotomicInt.zero(r),
    )


@pytest.mark.parametrize("r", [5, 7, 11])
def test_truncation_is_safe(r: int) -> None:
    # terms with n >= r-1 vanish because the factor window [n+2, 2n+1]
    # then contains a multiple of r (absorbing the geometric factor only
    # shortens the window by its first slot, n+1, which is a multiple of
    # r exactly when the whole term already dies elsewhere for n <= 2r)
    for front in FRONTS.values():
        assert _reference_sum(r, front, r - 1) == _reference_sum(r, front, 2 * r)


@pytest.mark.parametrize("manifold", sorted(FRONTS))
@pytest.mark.parametrize("r", [r for r in range(5, 62) if is_prime(r)])
def test_tau_sum_matches_window_reference(r: int, manifold: str) -> None:
    front = FRONTS[manifold]
    assert _tau_sum(r, front) == _reference_sum(r, front, r - 1)


# collected congruence table: a1 = 6 for both manifolds at every good prime
@pytest.mark.parametrize("r", [7, 11, 13, 17, 19])
def test_poincare_low_coefficients(r: int) -> None:
    start = time.monotonic()
    d = digits(tau_poincare(r).value)
    assert d[0] == 1
    assert d[1] == 6 % r
    assert d[3] == 464 % r
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("r", [11, 13, 17])
def test_brieskorn_low_coefficients(r: int) -> None:
    d = digits(tau_brieskorn237(r).value)
    assert d[1] == 6 % r
    assert d[3] == 1064 % r


@pytest.mark.parametrize("r", [11, 13])
@pytest.mark.parametrize("j", [0, 1, 2])
def test_poincare_twisted_first_coefficient(r: int, j: int) -> None:
    d = digits(twist_conjugate(tau_poincare(r).value, j))
    assert d[1] == (-6 - j) % r


@pytest.mark.parametrize("r", [11, 13])
def test_poincare_twist_minus_twelve(r: int) -> None:
    d = digits(twist_conjugate(tau_poincare(r).value, -12))
    assert d[3] == (-16) % r


@pytest.mark.parametrize("r", [11, 13, 17])
def test_brieskorn_twist_minus_twelve(r: int) -> None:
    d = digits(twist_conjugate(tau_brieskorn237(r).value, -12))
    assert d[3] == (-280) % r


# ---------------------------------------------------------------------------
# coefficient tables


def test_coeff_table_rows() -> None:
    x = tau_poincare(7).value
    rows = coeff_table(x, 3)
    assert rows == tuple((n, digits(x)[n]) for n in range(4))


def test_coeff_table_depth_bounds() -> None:
    x = tau_poincare(5).value
    assert len(coeff_table(x, 3)) == 4
    with pytest.raises(ValueError, match="depth"):
        coeff_table(x, 4)
    with pytest.raises(ValueError, match="depth"):
        coeff_table(x, -1)


# ---------------------------------------------------------------------------
# obstruction reports


@pytest.mark.parametrize(
    "r, want",
    [(5, (3,)), (7, ()), (11, ()), (13, ())],
)
def test_poincare_obstruction(r: int, want: tuple[int, ...]) -> None:
    rep = obstruction_test(tau_poincare(r).value, r, A1)
    assert rep.admissible_v == want
    assert rep.verdict == ("not_obstructed" if want else "obstructed")


@pytest.mark.parametrize(
    "r, want",
    [(5, ()), (7, (2,)), (11, ()), (13, ())],
)
def test_brieskorn_obstruction(r: int, want: tuple[int, ...]) -> None:
    rep = obstruction_test(tau_brieskorn237(r).value, r, A1)
    assert rep.admissible_v == want
    assert rep.verdict == ("not_obstructed" if want else "obstructed")


def test_s3_admits_only_identity_twist() -> None:
    rep = obstruction_test(tau_s3(7).value, 7, A1)
    assert rep.admissible_v == (0,)
    assert rep.verdict == "not_obstructed"


def test_obstruction_inadmissible_level() -> None:
    # B2 needs r > 6, so r = 5 is out regardless of the element
    rep = obstruction_test(CyclotomicInt.one(5), 5, build_root_system("B", 2))
    assert rep.verdict == "inadmissible_r"


def test_obstruction_ring_mismatch() -> None:
    with pytest.raises(ValueError, match="wrong root of unity"):
        obstruction_test(CyclotomicInt.one(5), 7, A1)


def test_obstruction_json_shape() -> None:
    rep = obstruction_test(tau_poincare(7).value, 7, A1)
    obj = rep.to_json("poincare")
    assert set(obj) == {"manifold", "r", "verdict", "admissible_v", "a"}
    assert obj["verdict"] == "obstructed"
    assert obj["a"][0] == [0, 1]


def test_obstruction_twisted_tables_cover_admissible() -> None:
    rep = obstruction_test(tau_poincare(5).value, 5, A1)
    assert tuple(v for v, _ in rep.twisted_tables) == rep.admissible_v
    v, rows = rep.twisted_tables[0]
    assert rows == coeff_table(twist_conjugate(tau_poincare(5).value, v), 3)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 4).flatmap(
        lambda v: st.tuples(
            st.just(v),
            st.lists(st.integers(-9, 9), min_size=4, max_size=4),
            st.lists(st.integers(-3, 3), min_size=4, max_size=4),
        )
    )
)
def test_constructed_symmetric_element_is_admitted(data) -> None:
    # x = y + xi^v conj(y) satisfies x = xi^v conj(x) on the nose, and
    # adding r * z leaves the congruence intact
    v, y_coeffs, z_coeffs = data
    r = 5
    y = make(r, enumerate(y_coeffs))
    z = make(r, enumerate(z_coeffs))
    x = y + twist_conjugate(y, v) + z * r
    rep = obstruction_test(x, r, A1)
    assert v in rep.admissible_v
    assert rep.verdict == "not_obstructed"


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([p for p in range(3, 62) if is_prime(p)]).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.lists(st.integers(-(10**30), 10**30) | st.integers(-9, 9),
                     min_size=r - 1, max_size=r - 1),
            st.integers(-3 * r, 3 * r) | st.integers(-(10**20), 10**20),
        )
    )
)
def test_twist_conjugate_matches_product_reference(data) -> None:
    r, coeffs, v = data
    x = CyclotomicInt(r, tuple(coeffs))
    assert twist_conjugate(x, v) == reference_twist(x, v)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([p for p in range(5, 42) if is_prime(p)]).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.lists(st.integers(-50, 50), min_size=r - 1, max_size=r - 1),
            st.integers(0, r - 1),
            st.lists(st.integers(-3, 3), min_size=r - 1, max_size=r - 1),
        )
    )
)
def test_obstruction_search_matches_brute_force_on_symmetric_elements(data) -> None:
    # x = y + xi^v conj(y) + r z admits v and possibly more twists; the
    # search must find exactly those the reference products admit
    r, y_coeffs, v, z_coeffs = data
    y = CyclotomicInt(r, tuple(y_coeffs))
    x = y + reference_twist(y, v) + CyclotomicInt(r, tuple(z_coeffs)) * r
    want = tuple(u for u in range(r) if divisible_by(x - reference_twist(x, u), r))
    assert v in want
    assert obstruction_test(x, r, A1).admissible_v == want


@pytest.mark.parametrize("manifold", sorted(FRONTS))
@pytest.mark.parametrize("r", [r for r in range(5, 140) if is_prime(r)])
def test_obstruction_matches_brute_force_search(r: int, manifold: str) -> None:
    # the re-indexed search finds exactly the twists that the Z[xi]
    # products of the reference admit, with the same tables
    x = tau_for(manifold, r).value
    want = tuple(v for v in range(r) if divisible_by(x - reference_twist(x, v), r))
    rep = obstruction_test(x, r, A1)
    assert rep.admissible_v == want
    depth = min(3, r - 2)
    assert rep.twisted_tables == tuple(
        (v, tuple(enumerate(digits(reference_twist(x, v))[: depth + 1]))) for v in want
    )


# ---------------------------------------------------------------------------
# twist covariance of the low digits


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([5, 7]).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.lists(st.integers(-20, 20), min_size=r - 1, max_size=r - 1),
            st.integers(0, 12),
        )
    )
)
def test_twist_fixes_constant_digit(data) -> None:
    r, coeffs, v = data
    x = make(r, enumerate(coeffs))
    assert digits(twist_conjugate(x, v))[0] == digits(x)[0]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([5, 7, 11]).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.lists(st.integers(-20, 20), min_size=r - 1, max_size=r - 1),
        )
    )
)
def test_first_order_twist_rule(data) -> None:
    # a1(xi^v conj x) = -a1(x) - v a0(x) mod r, for every v
    r, coeffs = data
    x = make(r, enumerate(coeffs))
    d = digits(x)
    for v in range(r):
        assert digits(twist_conjugate(x, v))[1] == (-d[1] - v * d[0]) % r


# ---------------------------------------------------------------------------
# quotient congruence


def test_quotient_congruence_rules_out_eleven_fold_cover() -> None:
    # the Poincare sphere is not an 11-fold cyclic branched cover of
    # anything with trivial invariant: no twist works at r = 5
    assert quotient_congruence_test(tau_poincare(5).value, CyclotomicInt.one(5), 11, 5, A1) == ()


def test_quotient_congruence_trivial_pair() -> None:
    one = CyclotomicInt.one(5)
    assert 0 in quotient_congruence_test(one, one, 11, 5, A1)


def test_quotient_congruence_detects_constructed_cover() -> None:
    y = tau_poincare(5).value
    xm = -(CyclotomicInt.power(5, 3)) * y**11
    found = quotient_congruence_test(xm, y, 11, 5, A1)
    assert 3 in found


@pytest.mark.parametrize("p", [4, 9, 1])
def test_quotient_congruence_requires_prime_p(p: int) -> None:
    one = CyclotomicInt.one(5)
    with pytest.raises(ValueError, match="prime"):
        quotient_congruence_test(one, one, p, 5, A1)


@pytest.mark.parametrize("p", [2, 5])
def test_quotient_congruence_rejects_small_p(p: int) -> None:
    # p must avoid r and the Weyl order (2 for A1)
    one = CyclotomicInt.one(5)
    with pytest.raises(ValueError, match="Weyl"):
        quotient_congruence_test(one, one, p, 5, A1)


def test_quotient_congruence_ring_mismatch() -> None:
    with pytest.raises(ValueError, match="wrong root of unity"):
        quotient_congruence_test(CyclotomicInt.one(5), CyclotomicInt.one(7), 11, 5, A1)


SMALL_PRIMES = [p for p in range(3, 200) if is_prime(p)]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([5, 7, 11, 13, 17, 19, 23]).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.sampled_from(sorted(FRONTS) + ["s3"]),
            st.sampled_from(sorted(FRONTS) + ["s3"]),
            st.sampled_from([p for p in SMALL_PRIMES if p % r in (1, r - 1)])
            | st.sampled_from([p for p in SMALL_PRIMES if p % r]),
        )
    )
)
def test_quotient_congruence_matches_ideal_member(data) -> None:
    # the shift set equals the one found by asking ideal_member for each u;
    # p = +-1 mod r is where (xi+xi^-1)^p - (xi+xi^-1) has a nonconstant
    # gcd with the cyclotomic polynomial mod p
    r, m, m_prime, p = data
    x_m, y = tau_for(m, r).value, tau_for(m_prime, r).value
    half_trace = make(r, {1: 1, r - 1: 1})
    gen = half_trace**p - half_trace
    want = tuple(
        u
        for u in range(2 * r)
        if ideal_member(x_m - (-1) ** u * CyclotomicInt.power(r, u) * y**p, p, gen)
    )
    assert quotient_congruence_test(x_m, y, p, r, A1) == want


# ---------------------------------------------------------------------------
# CRT lifting and the period discriminants


def test_crt_lift_small() -> None:
    assert crt_lift([(7, 6), (11, 6)]) == 6
    assert crt_lift([(7, 3), (11, 7)]) == -4


def test_crt_lift_of_shared_coefficient() -> None:
    pairs = [(r, digits(tau_poincare(r).value)[1]) for r in (7, 11)]
    assert crt_lift(pairs) == 6


def test_crt_lift_validation() -> None:
    with pytest.raises(ValueError, match="repeated"):
        crt_lift([(7, 1), (7, 2)])
    with pytest.raises(ValueError, match="not prime"):
        crt_lift([(6, 1)])
    with pytest.raises(ValueError, match="insufficient"):
        crt_lift([(7, 3)], magnitude_bound=10)


def test_poincare_discriminant() -> None:
    start = time.monotonic()
    rep = period_discriminant("poincare", [7, 11, 13, 17])
    assert rep.lifted == 480
    assert rep.factorization == ((2, 5), (3, 1), (5, 1))
    assert [(r, d) for r, _, d in rep.residues] == [(7, 4), (11, 7), (13, 12), (17, 4)]
    assert rep.dropped == ()
    assert time.monotonic() - start < 5.0


def test_brieskorn_discriminant() -> None:
    rep = period_discriminant("brieskorn_2_3_7", [11, 13, 17, 19])
    assert rep.lifted == 1344
    assert rep.factorization == ((2, 6), (3, 1), (7, 1))
    assert [(r, d) for r, _, d in rep.residues] == [(11, 2), (13, 5), (17, 1), (19, 14)]


def test_discriminant_primes_divide_lift() -> None:
    # the excluded-period reading: any admissible period must divide the
    # lift, and 480 = 2^5 * 3 * 5 carries exactly the periods 2, 3, 5
    rep = period_discriminant("poincare", [7, 11, 13, 17])
    assert sorted(p for p, _ in rep.factorization) == [2, 3, 5]
    rep = period_discriminant("brieskorn_2_3_7", [11, 13, 17, 19])
    assert sorted(p for p, _ in rep.factorization) == [2, 3, 7]


HEADLINE = {"poincare": ([7, 11, 13, 17], 480), "brieskorn_2_3_7": ([11, 13, 17, 19], 1344)}
LEVELS_TO_139 = [r for r in range(5, 140) if is_prime(r)]


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(sorted(HEADLINE)), st.sets(st.sampled_from(LEVELS_TO_139)))
@example("poincare", set(LEVELS_TO_139))
@example("brieskorn_2_3_7", set(LEVELS_TO_139))
def test_more_levels_never_move_the_lift(manifold: str, extra: set[int]) -> None:
    levels, lifted = HEADLINE[manifold]
    # level by level first: a wrong residue then fails here, instead of
    # leaving a huge lift for the trial-division factorization
    for r in extra:
        assert (period_discriminant(manifold, [r]).lifted - lifted) % r == 0
    assert period_discriminant(manifold, set(levels) | extra).lifted == lifted


def test_s3_discriminant_is_zero() -> None:
    rep = period_discriminant("s3", [7, 11])
    assert rep.lifted == 0
    assert rep.factorization == ()
    assert all(v == 0 and d == 0 for _, v, d in rep.residues)


def test_discriminant_level_validation() -> None:
    with pytest.raises(ValueError, match="prime"):
        period_discriminant("poincare", [7, 9])
    with pytest.raises(ValueError, match="prime"):
        period_discriminant("poincare", [3, 7])
    with pytest.raises(ValueError, match="unknown manifold"):
        period_discriminant("nope", [7, 11])


def test_discriminant_json_shape() -> None:
    obj = period_discriminant("poincare", [7, 11, 13, 17]).to_json()
    assert set(obj) == {"manifold", "rule", "residues", "dropped", "lifted", "factors"}
    assert obj["lifted"] == 480
    assert obj["factors"] == [[2, 5], [3, 1], [5, 1]]
    assert isinstance(obj, dict) and isinstance(obj["residues"][0], list)


def test_discriminant_report_is_frozen() -> None:
    rep = period_discriminant("s3", [7, 11])
    assert isinstance(rep, DiscriminantReport)
    with pytest.raises(AttributeError):
        rep.lifted = 1  # type: ignore[misc]
