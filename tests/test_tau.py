"""Invariant values, obstruction verdicts, quotient congruences, and the
discriminant lift, pinned against hand-checked small cases and collected
congruence tables."""
from __future__ import annotations

import json
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    crt_symmetric,
    divisible_by,
    ideal_member,
    level_discriminant_row,
    one_minus_xi,
    self_twists_by_rotation,
    shifts_by_constant_difference,
    window_tau_sum,
)
from qperiod.cli import main
from qperiod.cyclo import CyclotomicInt, OhtsukiExpansion, make, ohtsuki_expansion, twist_conjugate
from qperiod.liedata import GaussReport, LieConstants, RootSystem, build_root_system, gauss_report
from qperiod.linkdiag import BraidWord, CongruenceReport, PlanarDiagram, closure, yokota_check
from qperiod.qpoly import HalfLaurent
from qperiod.tau import (
    EICHLER,
    DiscriminantReport,
    ObstructionReport,
    TauValue,
    coeff_table,
    discriminant_integers,
    obstruction_test,
    period_discriminant,
    quotient_congruence_test,
    tau_brieskorn237,
    tau_for,
    tau_poincare,
    tau_s3,
    _character,
)
from qperiod.modular import is_prime

A1 = build_root_system("A", 1)
LEVELS_TO_2000 = [r for r in range(5, 2000) if is_prime(r)]
FRONTS = {"poincare": lambda n: n, "brieskorn_2_3_7": lambda n: -n * (n + 2)}
MANIFOLDS = ("poincare", "brieskorn_2_3_7", "s3")


def digits(x: CyclotomicInt) -> tuple[int, ...]:
    return ohtsuki_expansion(x).a


def nth_power(x: CyclotomicInt, n: int) -> CyclotomicInt:
    """x^n for n >= 0 as an explicit product."""
    out = CyclotomicInt.one(x.r)
    for _ in range(n):
        out = out * x
    return out


def reference_twist(x: CyclotomicInt, v: int) -> CyclotomicInt:
    """xi^v conj(x) as a Z[xi] product: the multiply that twist_conjugate's
    re-indexing replaced, kept as its reference; conj is the Galois map
    xi -> xi^(r-1), so the reference shares no code with twist_conjugate."""
    return CyclotomicInt.power(x.r, v % x.r) * x.galois(x.r - 1)


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


def test_tau_for_dispatch() -> None:
    assert tau_for("poincare", 5).value == tau_poincare(5).value
    assert tau_for("brieskorn_2_3_7", 5).value == tau_brieskorn237(5).value
    assert tau_for("s3", 5).value == tau_s3(5).value == CyclotomicInt.one(5)
    with pytest.raises(ValueError, match="unknown manifold"):
        tau_for("lens_5_1", 5)


# ---------------------------------------------------------------------------
# the Eichler sum against the window sum of the oracles, and that against
# the term-by-term reference: each window rebuilt from scratch as a dense
# product in Z[xi], about r^4 per level


def _geometric(r: int, n: int) -> CyclotomicInt:
    return make(r, [(j, 1) for j in range(n + 1)])


def _window(r: int, n: int) -> CyclotomicInt:
    """(1+xi+...+xi^n) * prod_{k=n+2}^{2n+1} (1 - xi^k)."""
    term = _geometric(r, n)
    for k in range(n + 2, 2 * n + 2):
        term = term * make(r, [(0, 1), (k, -1)])
        if not any(term.coeffs):
            break
    return term


def _reference_sum(r: int, front, terms: int) -> CyclotomicInt:
    return sum(
        (CyclotomicInt.power(r, front(n) % r) * _window(r, n) for n in range(terms)),
        make(r, ()),
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
    assert window_tau_sum(r, front) == _reference_sum(r, front, r - 1)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(FRONTS)), st.sampled_from(LEVELS_TO_2000))
@example("poincare", 5)
@example("brieskorn_2_3_7", 1999)
def test_eichler_sum_matches_window_sum(manifold: str, r: int) -> None:
    assert tau_for(manifold, r).value == window_tau_sum(r, FRONTS[manifold])


@pytest.mark.parametrize(
    "manifold, plus, minus",
    [
        ("poincare", {1, 11, 19, 29}, {31, 41, 49, 59}),
        ("brieskorn_2_3_7", {13, 29, 43, 83}, {1, 41, 55, 71}),
    ],
)
def test_character_has_the_published_residues(manifold: str, plus: set, minus: set) -> None:
    # Lawrence-Zagier mod 60 and Hikami mod 84, derived from the triple
    assert _character(EICHLER[manifold][0]) == dict.fromkeys(plus, 1) | dict.fromkeys(minus, -1)


@pytest.mark.parametrize(
    "manifold, corrupt",
    [("poincare", ((3, 3, 5), 1, -1, 0)), ("brieskorn_2_3_7", ((2, 5, 5), 0, 0, 1))],
)
def test_corrupt_eichler_constant_fails_divisibility(monkeypatch, manifold: str, corrupt) -> None:
    # the division by 2Mr is an identity, so a wrong triple is a fault, not an input error
    monkeypatch.setitem(EICHLER, manifold, corrupt)
    with pytest.raises(AssertionError, match="2Mr does not divide"):
        tau_for(manifold, 11)


@pytest.mark.parametrize("r", [7, 11, 13, 17])
@pytest.mark.parametrize(
    "corrupt",
    [((2, 3, 7), 1, -1, 0), ((2, 3, 11), 1, -1, 0), ((1, 3, 5), 1, -1, 0), ((3, 5, 7), 1, -1, 0),
     ((2, 3, 5), 1, 0, 0), ((2, 3, 5), 1, -2, 0)],
)
def test_corrupt_eichler_constant_fails_division(monkeypatch, corrupt, r: int) -> None:
    # these rows pass the 2Mr check, but 1 - xi dividing the quotient is an
    # identity too, so its failure is a fault and not a ValueError, which
    # the CLI would report as a computation error
    monkeypatch.setitem(EICHLER, "poincare", corrupt)
    with pytest.raises(AssertionError, match="1 - xi does not divide .* poincare at r = "):
        tau_for("poincare", r)


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


def test_obstruction_json_shape(capsys) -> None:
    assert main(["obstruct", "--manifold", "poincare", "--r", "7", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert list(obj) == ["manifold", "r", "verdict", "admissible_v", "a"]
    assert obj["verdict"] == "obstructed"
    assert obj["a"][0] == [0, 1]


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
    x = y + twist_conjugate(y, v) + z * CyclotomicInt.from_int(r, r)
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
            st.integers(0, r - 1),
            st.booleans(),
        )
    )
)
@example((101, [(-1) ** i * i for i in range(100)], 17, [i % 7 - 3 for i in range(100)], 4, False))
@example((101, [i * i % 23 - 11 for i in range(100)], 90, [0] * 100, 6, False))
def test_obstruction_search_matches_brute_force_on_symmetric_elements(data) -> None:
    # x = y + xi^v conj(y) + r z admits v and possibly more twists.  Since
    # conj(1 - xi) = -xi^-1 (1 - xi), x (1 - xi)^j admits v + j for even j;
    # j sweeps the (1 - xi)-adic valuation through odd and even values, and
    # j = r - 1 or dropping y makes the element 0 mod r; j >= 4 zeroes
    # a_0 .. a_3, so the search reads the full digit table.  The search must
    # find exactly the twists the reference products admit
    r, y_coeffs, v, z_coeffs, j, zero = data
    y = make(r, ()) if zero else CyclotomicInt(r, tuple(y_coeffs))
    x = y + reference_twist(y, v) + CyclotomicInt(r, tuple(z_coeffs)) * CyclotomicInt.from_int(r, r)
    x = x * nth_power(one_minus_xi(r), j)
    want = tuple(u for u in range(r) if divisible_by(x + (-reference_twist(x, u)), r))
    if j % 2 == 0:
        assert (v + j) % r in want
    assert obstruction_test(x, r, A1).admissible_v == want == self_twists_by_rotation(x)


@pytest.mark.parametrize("manifold", sorted(FRONTS))
@pytest.mark.parametrize("r", [r for r in range(5, 140) if is_prime(r)])
def test_obstruction_matches_brute_force_search(r: int, manifold: str) -> None:
    # the re-indexed search finds exactly the twists that the Z[xi]
    # products of the reference admit
    x = tau_for(manifold, r).value
    want = tuple(v for v in range(r) if divisible_by(x + (-reference_twist(x, v)), r))
    assert obstruction_test(x, r, A1).admissible_v == want


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(MANIFOLDS), st.sampled_from(LEVELS_TO_2000))
@example("poincare", 5)
@example("brieskorn_2_3_7", 7)
@example("s3", 1999)
def test_twist_search_matches_rotation_route(manifold: str, r: int) -> None:
    # the one string match finds the twists, in the same order, that
    # comparing one rotated vector per v finds
    x = tau_for(manifold, r).value
    assert obstruction_test(x, r, A1).admissible_v == self_twists_by_rotation(x)


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
    assert quotient_congruence_test(tau_poincare(5).value, CyclotomicInt.one(5), 11, 5) == ()


def test_quotient_congruence_trivial_pair() -> None:
    one = CyclotomicInt.one(5)
    assert 0 in quotient_congruence_test(one, one, 11, 5)


def test_quotient_congruence_detects_constructed_cover() -> None:
    y = tau_poincare(5).value
    xm = -(CyclotomicInt.power(5, 3)) * nth_power(y, 11)
    found = quotient_congruence_test(xm, y, 11, 5)
    assert 3 in found


@pytest.mark.parametrize("p", [4, 9, 1])
def test_quotient_congruence_requires_prime_p(p: int) -> None:
    one = CyclotomicInt.one(5)
    with pytest.raises(ValueError, match="prime"):
        quotient_congruence_test(one, one, p, 5)


@pytest.mark.parametrize("p", [2, 5])
def test_quotient_congruence_rejects_small_p(p: int) -> None:
    # p must avoid r and the Weyl order (2 for A1)
    one = CyclotomicInt.one(5)
    with pytest.raises(ValueError, match="Weyl"):
        quotient_congruence_test(one, one, p, 5)


def test_quotient_congruence_ring_mismatch() -> None:
    with pytest.raises(ValueError, match="wrong root of unity"):
        quotient_congruence_test(CyclotomicInt.one(5), CyclotomicInt.one(7), 11, 5)


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
    assert quotient_congruence_test(x_m, y, p, r) == shifts_by_ideal_member(x_m, y, p)


def signed_shift(y: CyclotomicInt, u: int) -> CyclotomicInt:
    """(-xi)^u y."""
    shifted = CyclotomicInt.power(y.r, u) * y
    return -shifted if u % 2 else shifted


def shifts_by_ideal_member(x_m: CyclotomicInt, y: CyclotomicInt, p: int) -> tuple[int, ...]:
    """Every u in [0, 2r) with x_m - (-xi)^u y^p in the ideal
    (p, (xi+xi^-1)^p - (xi+xi^-1)), one ideal_member call per u."""
    r = y.r
    half_trace = make(r, {1: 1, r - 1: 1})
    gen = nth_power(half_trace, p) + (-half_trace)
    y_p = nth_power(y, p)
    return tuple(u for u in range(2 * r) if ideal_member(x_m + (-signed_shift(y_p, u)), p, gen))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([5, 7, 11, 13]).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.sampled_from([p for p in SMALL_PRIMES if p % r in (1, r - 1)]),
            st.lists(st.integers(-50, 50), min_size=r - 1, max_size=r - 1),
            st.integers(0, 2 * r - 1),
            st.lists(st.integers(-3, 3), min_size=r - 1, max_size=r - 1),
            st.booleans(),
        )
    )
)
def test_quotient_congruence_finds_planted_covers(data) -> None:
    # x_m = (-xi)^u y^p + p z plants the shift u; with planted false, x_m is
    # p z alone.  The constant-difference rule admits exactly the shifts
    # that ideal membership admits
    r, p, y_coeffs, u, z_coeffs, planted = data
    y = CyclotomicInt(r, tuple(y_coeffs))
    x_m = CyclotomicInt(r, tuple(z_coeffs)) * CyclotomicInt.from_int(r, p)
    if planted:
        x_m = x_m + signed_shift(nth_power(y, p), u)
    found = quotient_congruence_test(x_m, y, p, r)
    assert found == shifts_by_ideal_member(x_m, y, p)
    if planted:
        assert u in found


COVER_LEVELS = [r for r in range(3, 80) if is_prime(r)]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(COVER_LEVELS).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.sampled_from([p for p in range(3, 2000) if is_prime(p) and p % r in (1, r - 1)]),
            st.lists(st.integers(-50, 50), min_size=r - 1, max_size=r - 1),
            st.lists(st.integers(-50, 50), min_size=r - 1, max_size=r - 1),
            st.integers(0, 2 * r - 1),
            st.sampled_from(["planted", "random", "x zero", "y zero", "both zero"]),
        )
    )
)
@example((5, 11, [0] * 4, [0] * 4, 0, "random"))
@example((7, 13, [1, 0, 0, 0, 0, 0], [2] * 6, 3, "planted"))
def test_quotient_congruence_matches_the_shift_loop(data) -> None:
    # planted: x_m = (-xi)^u sigma_p(y) + p z; random: x_m = z; a zero
    # side is p times its random element
    r, p, y_coeffs, z_coeffs, u, kind = data
    y, z = CyclotomicInt(r, tuple(y_coeffs)), CyclotomicInt(r, tuple(z_coeffs))
    p_times = CyclotomicInt.from_int(r, p)
    x_m = z * p_times if kind in ("x zero", "both zero") else z
    if kind == "planted":
        x_m = signed_shift(y.galois(p), u) + z * p_times
    if kind in ("y zero", "both zero"):
        y = y * p_times
    found = quotient_congruence_test(x_m, y, p, r)
    assert found == shifts_by_constant_difference(x_m, y, p)
    if kind in ("planted", "both zero"):
        assert u in found


# ---------------------------------------------------------------------------
# CRT lifting and the period discriminants


def test_crt_lift_small() -> None:
    assert crt_symmetric([(7, 6), (11, 6)]) == 6
    assert crt_symmetric([(7, 3), (11, 7)]) == -4


def test_crt_lift_of_shared_coefficient() -> None:
    pairs = [(r, digits(tau_poincare(r).value)[1]) for r in (7, 11)]
    assert crt_symmetric(pairs) == 6


def test_crt_lift_validation() -> None:
    with pytest.raises(ValueError, match="coprime"):
        crt_symmetric([(7, 1), (7, 2)])
    with pytest.raises(ValueError, match="not usable"):
        crt_symmetric([(1, 0)])
    with pytest.raises(ValueError, match="at least one"):
        crt_symmetric([])


LEVELS_TO_200 = [r for r in range(5, 200) if is_prime(r)]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(MANIFOLDS),
    st.lists(st.sampled_from(LEVELS_TO_200), min_size=1, max_size=4, unique=True),
)
@example("poincare", [5, 7])
@example("brieskorn_2_3_7", [5, 11])
@example("brieskorn_2_3_7", [5, 7, 11])
# levels past the first product over twice the defect, in any order
@example("poincare", [19, 5, 7, 11, 13, 17])
@example("brieskorn_2_3_7", LEVELS_TO_200)
@example("s3", [7, 5])
def test_lift_is_the_crt_of_the_residues(manifold: str, levels: list[int]) -> None:
    rep = period_discriminant(manifold, levels)
    assert rep.lifted == crt_symmetric([(r, d) for r, _, d in rep.residues])


@pytest.mark.parametrize(
    "manifold, levels, lifted",
    [
        ("poincare", [5, 7], -10),
        ("brieskorn_2_3_7", [5, 11], 24),
        ("brieskorn_2_3_7", [5, 7, 11], 189),
    ],
)
def test_lift_below_twice_the_defect(manifold: str, levels: list[int], lifted: int) -> None:
    # a product of levels below twice the defect lifts to its symmetric
    # residue, not to the defect
    assert period_discriminant(manifold, levels).lifted == lifted


def test_poincare_discriminant() -> None:
    start = time.monotonic()
    rep = period_discriminant("poincare", [7, 11, 13, 17])
    assert rep.lifted == 480
    assert rep.factorization == ((2, 5), (3, 1), (5, 1))
    assert [(r, d) for r, _, d in rep.residues] == [(7, 4), (11, 7), (13, 12), (17, 4)]
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


@pytest.mark.parametrize(
    "manifold, c, delta",
    [
        ("poincare", (1, 6, 45, 464), 480),
        ("brieskorn_2_3_7", (1, 6, 69, 1064), 1344),
        ("s3", (1, 0, 0, 0), 0),
    ],
)
def test_discriminant_integers_are_exact(manifold: str, c: tuple, delta: int) -> None:
    # the defect is an integer, so its prime factors bound the periods at
    # every prime level r >= 5, not only at the sampled ones
    assert discriminant_integers(manifold) == (c, -2 * c[1], delta)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(MANIFOLDS), st.sampled_from(LEVELS_TO_2000))
@example("poincare", 5)
@example("brieskorn_2_3_7", 7)
def test_discriminant_row_matches_level_route(manifold: str, r: int) -> None:
    # one level read from the integers equals the digits of tau at that level
    assert period_discriminant(manifold, [r]).residues == (level_discriminant_row(manifold, r),)


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
    with pytest.raises(ValueError, match="at least one level"):
        period_discriminant("poincare", [])


def test_discriminant_json_shape(capsys) -> None:
    assert main(["discriminant", "--manifold", "poincare", "--primes", "7,11,13,17", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert list(obj) == ["manifold", "rule", "residues", "dropped", "lifted", "factors"]
    assert obj["dropped"] == []
    assert obj["lifted"] == 480
    assert obj["factors"] == [[2, 5], [3, 1], [5, 1]]
    assert isinstance(obj, dict) and isinstance(obj["residues"][0], list)


TREFOIL = BraidWord(2, (1, 1, 1))
# each class the package returns or validates: a builder of a fresh value,
# and one of its fields
VALUE_TYPES = {
    CyclotomicInt: (lambda: CyclotomicInt(5, (1, 0, -1, 2)), "coeffs"),
    HalfLaurent: (lambda: HalfLaurent(((-1, 2), (3, 1))), "terms"),
    RootSystem: (lambda: RootSystem("A", 1, ((2,),), (1,), ((1,),), (1,)), "rank"),
    BraidWord: (lambda: BraidWord(3, (1, -2)), "letters"),
    PlanarDiagram: (lambda: closure(TREFOIL), "signs"),
    TauValue: (lambda: tau_for("poincare", 7), "value"),
    ObstructionReport: (lambda: obstruction_test(tau_for("poincare", 7).value, 7), "verdict"),
    DiscriminantReport: (lambda: period_discriminant("s3", [7, 11]), "lifted"),
    LieConstants: (lambda: LieConstants(1, 2, 2, 2, 2, 2), "h"),
    GaussReport: (lambda: gauss_report(A1, 5), "gamma"),
    OhtsukiExpansion: (lambda: ohtsuki_expansion(tau_for("poincare", 7).value), "a"),
    CongruenceReport: (lambda: yokota_check(closure(TREFOIL), 3), "passed"),
}


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_value_types_are_immutable_values(cls) -> None:
    # built twice, a value is two equal objects with one hash; it has no
    # instance dict and no field can be assigned; and an int is no operand
    # of the ring elements, so 2 * x is refused rather than taken as a
    # repetition
    build, field = VALUE_TYPES[cls]
    x, y = build(), build()
    assert type(x) is cls and x is not y
    assert x == y and hash(x) == hash(y)
    assert not hasattr(x, "__dict__")
    with pytest.raises(AttributeError):
        setattr(x, field, getattr(y, field))
    if cls in (CyclotomicInt, HalfLaurent):
        with pytest.raises(TypeError):
            2 * x
