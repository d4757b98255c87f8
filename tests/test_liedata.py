"""Root-system construction against classical tables, the exact
Gauss-sum magnitude and ratio laws against a numeric cross-check, and
the Gauss sum, the unknot normalization, its mirror, the integer Cartan
determinant, weight denominator and Weyl order against the brute-force
and rational routines they replaced."""
from __future__ import annotations

import cmath
import dataclasses
import json
import random
from fractions import Fraction
from math import lcm

import pytest

import oracles
import qperiod.liedata as liedata_module
from oracles import (
    complex_eval,
    det_fraction,
    divide_by_one_minus_xi,
    f_unknot,
    gauss_sum_by_definition,
    kernel_size,
    mirror_unknot,
    one_minus_xi,
    pairing,
    solve_linear,
)
from qperiod.cli import main
from qperiod.cyclo import CyclotomicInt, make, twist_conjugate
from qperiod.liedata import (
    RANK_CAPS,
    GaussReport,
    admissible_r,
    build_root_system,
    constants,
    gauss_report,
    gauss_sum,
    require_level,
    verify_gauss_magnitude,
    verify_ratio,
)
from qperiod.modular import is_prime

ALL_SYSTEMS = (
    [("A", l) for l in range(1, 7)]
    + [("B", l) for l in range(2, 6)]
    + [("C", l) for l in range(2, 6)]
    + [("D", 4), ("D", 5), ("F", 4), ("G", 2)]
)


def levels(family: str, rank: int, coset_cap: int) -> list[int]:
    """Every prime r > d*h_dual with r^rank <= coset_cap."""
    cs = constants(build_root_system(family, rank))
    r = cs.d * cs.h_dual + 1
    out = []
    while r**rank <= coset_cap:
        if is_prime(r):
            out.append(r)
        r += 1
    return out


# every (system, level) whose Gauss sum has at most 5000 cosets
SWEEP = [(f, l, r) for f, l in ALL_SYSTEMS for r in levels(f, l, 5000)]

# classical tables: (family, rank) -> (h, h_dual, det_cartan, weyl_order)
CLASSICAL = {
    ("A", 1): (2, 2, 2, 2),
    ("A", 2): (3, 3, 3, 6),
    ("A", 3): (4, 4, 4, 24),
    ("A", 6): (7, 7, 7, 5040),
    ("B", 2): (4, 3, 2, 8),
    ("B", 3): (6, 5, 2, 48),
    ("B", 5): (10, 9, 2, 3840),
    ("C", 3): (6, 4, 2, 48),
    ("C", 5): (10, 6, 2, 3840),
    ("D", 4): (6, 6, 4, 192),
    ("D", 5): (8, 8, 4, 1920),
    ("F", 4): (12, 9, 1, 1152),
    ("G", 2): (6, 4, 1, 12),
}


def test_a1_structure():
    rs = build_root_system("A", 1)
    assert rs.positive_roots == ((1,),)
    assert rs.two_rho == (1,)
    assert rs.bilinear((1,), (1,)) == 2


def test_a2_structure():
    rs = build_root_system("A", 2)
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1)}
    assert rs.two_rho == (2, 2)


def test_b2_structure():
    rs = build_root_system("B", 2)
    assert rs.d == (2, 1)
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1), (1, 2)}


def test_g2_has_six_positive_roots():
    assert len(build_root_system("G", 2).positive_roots) == 6


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_positive_root_count_is_rank_times_h_over_two(family, rank):
    rs = build_root_system(family, rank)
    cs = constants(rs)
    assert len(rs.positive_roots) == rank * cs.h // 2


def orbit_weyl_order(rs) -> int:
    """|W| as the size of the Weyl orbit of 2 rho, which is regular, so
    its stabilizer is trivial; walked by simple reflections."""
    orbit = {rs.two_rho}
    frontier = [rs.two_rho]
    while frontier:
        x = frontier.pop()
        for i in range(rs.rank):
            y = list(x)
            y[i] -= pairing(rs, x, i)
            cand = tuple(y)
            if cand not in orbit:
                orbit.add(cand)
                frontier.append(cand)
    return len(orbit)


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_weyl_order_from_heights_matches_orbit_walk(family, rank):
    rs = build_root_system(family, rank)
    assert constants(rs).weyl_order == orbit_weyl_order(rs)


def test_all_supported_systems_are_listed():
    assert sorted(ALL_SYSTEMS) == sorted(
        (f, l) for f, (lo, hi) in RANK_CAPS.items() for l in range(lo, hi + 1)
    )


@pytest.mark.parametrize("family,rank", sorted(CLASSICAL))
def test_classical_constants(family, rank):
    cs = constants(build_root_system(family, rank))
    assert (cs.h, cs.h_dual, cs.det_cartan, cs.weyl_order) == CLASSICAL[(family, rank)]


@pytest.mark.parametrize(
    "family,rank,D",
    [("A", 1, 2), ("A", 2, 3), ("A", 3, 4), ("B", 2, 1), ("B", 3, 2),
     ("C", 3, 1), ("D", 4, 2), ("D", 5, 4), ("F", 4, 1), ("G", 2, 1)],
)
def test_weight_form_denominators(family, rank, D):
    assert constants(build_root_system(family, rank)).D == D


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_integer_det_and_denominator_match_rational_elimination(family, rank):
    # det A by elimination over Q, and D as the lcm of the denominators of
    # d_j (A^-1)_ji, each column of A^-1 solved from the Gram matrix
    rs = build_root_system(family, rank)
    l = rs.rank
    det = det_fraction([[Fraction(c) for c in row] for row in rs.cartan])
    gram = [[Fraction(rs.d[i] * rs.cartan[i][j]) for j in range(l)] for i in range(l)]
    denom = 1
    for i in range(l):
        weight = solve_linear(gram, [Fraction(rs.d[i] * (j == i)) for j in range(l)])
        for j in range(l):
            denom = lcm(denom, (rs.d[j] * weight[j]).denominator)
    cs = constants(rs)
    assert (cs.det_cartan, cs.D) == (det, denom)


def test_rho_norms():
    # |rho|^2 = (2 rho|2 rho) / 4: 1/2 for A1, 5 for B2, 14 for G2
    for family, rank, norm in [("A", 1, Fraction(1, 2)), ("B", 2, 5), ("G", 2, 14)]:
        rs = build_root_system(family, rank)
        assert rs.bilinear(rs.two_rho, rs.two_rho) == 4 * norm


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_rho_pairing_is_half_the_two_rho_form(family, rank):
    rs = build_root_system(family, rank)
    rng = random.Random(20261018 + rank)
    for _ in range(200):
        mu = tuple(rng.randrange(-9, 10) for _ in range(rank))
        assert 2 * rs.rho_pairing(mu) == rs.bilinear(mu, rs.two_rho)


@pytest.mark.parametrize("family,rank", [("E", 6), ("E", 8), ("A", 7), ("A", 0), ("B", 1), ("D", 3), ("D", 6), ("H", 2)])
def test_unsupported_systems_rejected(family, rank):
    with pytest.raises(ValueError, match="unsupported"):
        build_root_system(family, rank)


def test_build_is_cached():
    assert build_root_system("A", 2) is build_root_system("A", 2)


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_root_lattice_norms_are_even(family, rank):
    rs = build_root_system(family, rank)
    rng = random.Random(20260822 + rank)
    for _ in range(1000):
        mu = tuple(rng.randrange(-9, 10) for _ in range(rank))
        assert rs.bilinear(mu, mu) % 2 == 0


# ---------------------------------------------------------------------------
# Gauss sums


def test_gauss_sum_a1_r5():
    rs = build_root_system("A", 1)
    assert gauss_sum(rs, 5) == make(5, {0: 2, 1: 1, 2: 2})


def test_gauss_sum_a1_r7():
    rs = build_root_system("A", 1)
    want = make(7, [(k * k + k, 1) for k in range(7)])
    assert gauss_sum(rs, 7) == want


def test_gauss_sum_validation():
    rs = build_root_system("A", 1)
    with pytest.raises(ValueError, match="r = 9 must be prime"):
        gauss_sum(rs, 9)
    with pytest.raises(ValueError, match="must exceed"):
        gauss_sum(build_root_system("B", 2), 5)  # d*h_dual = 6


def test_kernel_sizes():
    a1 = build_root_system("A", 1)
    a2 = build_root_system("A", 2)
    assert kernel_size(a1, 5) == 1
    assert kernel_size(a1, 2) == 2
    assert kernel_size(a2, 3) == 3
    assert kernel_size(a2, 5) == 1


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_no_kernel_at_any_admitted_level(monkeypatch, family, rank):
    # r > d*h_dual exceeds every prime factor of the Gram determinant, so
    # the report's constant ker = 1 is the elimination's answer
    rs = build_root_system(family, rank)
    admitted = levels(family, rank, 499**rank)  # every prime level below 500
    assert admitted and all(kernel_size(rs, r) == 1 for r in admitted)
    # only the kernel is read: a stub sum that keeps the level check
    # spares the r^l cosets at the smallest level
    def stub(rs, r):
        require_level(rs, r)
        return CyclotomicInt.one(r)

    monkeypatch.setattr(liedata_module, "gauss_sum", stub)
    assert gauss_report(rs, admitted[0]).ker_size == 1


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2)])
@pytest.mark.parametrize("r", [5, 7, 11, 13])
def test_gauss_magnitude_grid(family, rank, r):
    assert verify_gauss_magnitude(build_root_system(family, rank), r)


def test_f_unknot_a1_r5_divides_exactly():
    rs = build_root_system("A", 1)
    num = f_unknot(rs, 5)
    assert num == divide_by_one_minus_xi(gauss_sum(rs, 5))
    assert num * one_minus_xi(5) == gauss_sum(rs, 5)


def test_f_unknot_sign_is_conjugation():
    # the mirror chain conj(gamma) / prod(1 - xi^-(beta|rho)) is conj F
    for family, rank, r in [("A", 1, 5), ("A", 1, 7), ("A", 2, 7)]:
        rs = build_root_system(family, rank)
        value_p = complex_eval(f_unknot(rs, r))
        value_m = complex_eval(mirror_unknot(rs, r))
        assert abs(value_m - value_p.conjugate()) < 1e-9
        assert mirror_unknot(rs, r) == twist_conjugate(f_unknot(rs, r), 0)


def test_f_unknot_fraction_consistency():
    # the quotient must reproduce gamma over the root-pairing product
    for family, rank, r in [("A", 1, 11), ("A", 2, 5), ("A", 2, 11)]:
        rs = build_root_system(family, rank)
        lhs = complex_eval(f_unknot(rs, r))
        gamma = complex_eval(gauss_sum(rs, r))
        prod = 1 + 0j
        for beta in rs.positive_roots:
            e = rs.rho_pairing(beta)
            prod *= 1 - complex_eval(CyclotomicInt.power(r, e))
        assert abs(lhs - gamma / prod) < 1e-9


# reference: the extended Euclid over Fraction that f_unknot divided by
# before the chain of twisted divisions


def _q_trim(f: list[Fraction]) -> list[Fraction]:
    while f and not f[-1]:
        f.pop()
    return f


def _q_divmod(f: list[Fraction], g: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    f = _q_trim(f[:])
    q = [Fraction(0)] * max(0, len(f) - len(g) + 1)
    inv = 1 / g[-1]
    while len(f) >= len(g):
        shift = len(f) - len(g)
        c = f[-1] * inv
        q[shift] = c
        for i, gc in enumerate(g):
            f[shift + i] -= c * gc
        _q_trim(f)
    return _q_trim(q), f


def euclid_quotient(num: CyclotomicInt, den: CyclotomicInt) -> CyclotomicInt | None:
    """num/den in Z[xi] if the quotient is integral, else None: invert den
    modulo the r-th cyclotomic polynomial over Q by extended Euclid,
    multiply, and check integrality."""
    r = num.r
    phi = [Fraction(1)] * r
    g = _q_trim([Fraction(c) for c in den.coeffs])
    r0, r1 = phi, g
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while _q_trim(r1[:]):
        q, rem = _q_divmod(r0, r1)
        r0, r1 = r1, rem
        prod = [Fraction(0)] * (len(q) + len(s1))
        for i, qc in enumerate(q):
            if qc:
                for j, sc in enumerate(s1):
                    prod[i + j] += qc * sc
        s0, s1 = s1, _q_trim([a - b for a, b in zip(s0 + [Fraction(0)] * len(prod), prod + [Fraction(0)] * len(s0))])
    assert len(r0) == 1, "denominator is a zero divisor mod the cyclotomic polynomial"
    u = [c / r0[0] for c in s0]
    f = [Fraction(c) for c in num.coeffs]
    prod = [Fraction(0)] * (len(f) + len(u))
    for i, fc in enumerate(f):
        if fc:
            for j, uc in enumerate(u):
                prod[i + j] += fc * uc
    _, rem = _q_divmod(prod, phi)
    rem += [Fraction(0)] * (r - 1 - len(rem))
    if any(c.denominator != 1 for c in rem):
        return None
    return CyclotomicInt(r, tuple(int(c) for c in rem[: r - 1]))


def unknot_factors(rs, sign: int) -> list[int]:
    return [rs.rho_pairing(beta) * sign for beta in rs.positive_roots]


def signed_unknot(rs, r: int, sign: int) -> CyclotomicInt:
    """F for sign 1; for sign -1 its conjugate, checked against the mirror
    chain of divisions."""
    num = f_unknot(rs, r)
    if sign == 1:
        return num
    assert twist_conjugate(num, 0) == mirror_unknot(rs, r)
    return twist_conjugate(num, 0)


def times_one_minus_xi_power(x: CyclotomicInt, e: int) -> CyclotomicInt:
    """x (1 - xi^e) by rotating coordinates, O(r)."""
    return x + (-make(x.r, {i + e: c for i, c in enumerate(x.coeffs)}))


@pytest.mark.parametrize("family,rank,r", [c for c in SWEEP if c[2] < 80])
@pytest.mark.parametrize("sign", [1, -1])
def test_f_unknot_matches_euclid_reference(family, rank, r, sign):
    rs = build_root_system(family, rank)
    den = CyclotomicInt.one(r)
    for e in unknot_factors(rs, sign):
        den = den * make(r, {0: 1, e: -1})
    gamma = gauss_sum(rs, r)
    num = signed_unknot(rs, r, sign)
    assert num == euclid_quotient(gamma if sign == 1 else twist_conjugate(gamma, 0), den)


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_f_unknot_times_denominator_is_gamma(family, rank):
    # reaches A1 up to r = 997, where the Euclid reference takes seconds
    # per level
    rs = build_root_system(family, rank)
    for r in levels(family, rank, 5000):
        if r > 1000:
            break
        gamma = gauss_sum(rs, r)
        for sign, want in ((1, gamma), (-1, twist_conjugate(gamma, 0))):
            num = signed_unknot(rs, r, sign)
            for e in unknot_factors(rs, sign):
                num = times_one_minus_xi_power(num, e)
            assert num == want, (r, sign)


def test_euclid_reference_sees_non_integral_quotients():
    # 1/(1 - xi) is not in Z[xi]; (1 - xi^2)/(1 - xi) = 1 + xi is
    assert euclid_quotient(CyclotomicInt.one(7), one_minus_xi(7)) is None
    assert euclid_quotient(make(7, {0: 1, 2: -1}), one_minus_xi(7)) == make(7, {0: 1, 1: 1})


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2)])
@pytest.mark.parametrize("r", [5, 7, 11])
def test_ratio_law_grid(family, rank, r):
    ok, omega = verify_ratio(build_root_system(family, rank), r)
    assert ok is True
    assert omega in (1, -1)


# the benchmark's gauss_report set: every supported system at each
# admissible r < 50 with r^l <= 5000
ADMISSIBLE_SWEEP = [
    (f, l, r) for f, l, r in SWEEP if r < 50 and admissible_r(build_root_system(f, l), r)
]


# F4 adds the one double bond inside the chain rather than at its end; the
# sweep has no level of it, since its smallest, r = 19, has 130,321 cosets
@pytest.mark.parametrize("family,rank,r", [*ADMISSIBLE_SWEEP, ("F", 4, 19)])
def test_gauss_sum_matches_its_definition(family, rank, r):
    rs = build_root_system(family, rank)
    assert gauss_sum(rs, r) == gauss_sum_by_definition(rs, r)


@pytest.mark.parametrize("family,rank,r", ADMISSIBLE_SWEEP)
def test_exact_laws_agree_with_numeric_cross_check(family, rank, r):
    rs = build_root_system(family, rank)
    z = complex_eval(gauss_sum(rs, r))
    assert verify_gauss_magnitude(rs, r) is (abs(abs(z) ** 2 - r**rank) < 1e-9 * r**rank)
    ratio = complex_eval(f_unknot(rs, r)) / complex_eval(mirror_unknot(rs, r))
    exponent = ((r + 1) ** 2 + 2) * Fraction(rs.bilinear(rs.two_rho, rs.two_rho), 4)
    target = cmath.exp(-2j * cmath.pi * int(exponent) / r)
    numeric = [omega for omega in (1, -1) if abs(ratio - omega * target) < 1e-9]
    assert verify_ratio(rs, r) == ((True, numeric[0]) if numeric else (False, 0))


def test_magnitude_law_holds_where_a_float_tolerance_failed():
    # |gamma|^2 = r^l to within 1e-9 failed in floating point here
    assert verify_gauss_magnitude(build_root_system("A", 1), 6871)
    assert verify_gauss_magnitude(build_root_system("A", 2), 167)


def test_magnitude_law_fails_on_a_wrong_gauss_sum(monkeypatch):
    rs = build_root_system("A", 2)
    exact = gauss_sum
    assert verify_gauss_magnitude(rs, 7)
    monkeypatch.setattr(liedata_module, "gauss_sum", lambda rs, r: exact(rs, r) + exact(rs, r))
    assert verify_gauss_magnitude(rs, 7) is False


def test_gauss_report_sums_three_times(monkeypatch):
    # the report's gamma, the magnitude law's and the ratio law's
    rs = build_root_system("A", 2)
    calls = []

    def counting_gauss_sum(rs, r):
        calls.append((rs, r))
        return gauss_sum(rs, r)

    monkeypatch.setattr(liedata_module, "gauss_sum", counting_gauss_sum)
    gauss_report(rs, 7)
    assert calls == [(rs, 7)] * 3


def test_ratio_law_fails_on_a_twisted_gauss_sum(monkeypatch):
    # xi * gamma keeps |gamma|, but its twisted conjugate picks up xi^-1,
    # so the two sides of the ratio law differ by a factor xi^2
    rs = build_root_system("A", 2)
    exact = gauss_sum
    assert verify_ratio(rs, 7)[0] is True
    monkeypatch.setattr(
        liedata_module, "gauss_sum", lambda rs, r: CyclotomicInt.power(r, 1) * exact(rs, r)
    )
    assert verify_gauss_magnitude(rs, 7)
    assert verify_ratio(rs, 7) == (False, 0)


def chain_verdict(rs, r: int) -> tuple[bool, int]:
    """The ratio law by the division chain that the rule on gamma
    replaced: F from f_unknot, then F = +-xi^(-E) conj F."""
    f = f_unknot(rs, r)
    exponent = ((r + 1) ** 2 + 2) * rs.bilinear(rs.two_rho, rs.two_rho) // 4
    target = twist_conjugate(f, -exponent)
    if f == target:
        return True, 1
    if f == -target:
        return True, -1
    return False, 0


def feed_gauss_sum(monkeypatch, gamma: CyclotomicInt) -> None:
    """Make verify_ratio and the oracle chain both read gamma."""
    for module in (liedata_module, oracles):
        monkeypatch.setattr(module, "gauss_sum", lambda rs, r: gamma)


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_ratio_rule_matches_the_division_chain(monkeypatch, family, rank):
    # every prime level with r^l <= 20,000, but A1 stops at r < 5000: its
    # 2,261 levels below 20,000 cost about a minute of Gauss sums (Python
    # 3.11, shared 2-CPU Xeon)
    rs = build_root_system(family, rank)
    for r in levels(family, rank, 5000 if rank == 1 else 20000):
        feed_gauss_sum(monkeypatch, gauss_sum(rs, r))
        verdict = verify_ratio(rs, r)
        assert verdict[0] is True, r
        assert verdict == chain_verdict(rs, r), r


@pytest.mark.parametrize("family,rank,r", ADMISSIBLE_SWEEP)
def test_ratio_rule_matches_the_chain_on_perturbed_sums(monkeypatch, family, rank, r):
    # +-xi^k gamma and conj gamma keep the chain exact; only k = 0 keeps
    # the law, and the rule must agree with the chain on every verdict
    rs = build_root_system(family, rank)
    gamma = gauss_sum(rs, r)
    shifted = [CyclotomicInt.power(r, k) * gamma for k in (0, 1, 2, r - 1)]
    perturbed = shifted + [-x for x in shifted]
    verdicts = []
    for fake in (*perturbed, twist_conjugate(gamma, 0)):
        feed_gauss_sum(monkeypatch, fake)
        verdicts.append(verify_ratio(rs, r))
        assert verdicts[-1] == chain_verdict(rs, r)
    assert [ok for ok, _ in verdicts[:8]] == [True, False, False, False] * 2


def test_ratio_rejects_small_r():
    with pytest.raises(ValueError):
        verify_ratio(build_root_system("A", 1), 2)


def test_admissible_r_examples():
    a1 = build_root_system("A", 1)
    a2 = build_root_system("A", 2)
    assert admissible_r(a1, 5)
    assert not admissible_r(a1, 2)
    assert not admissible_r(a2, 3)
    assert admissible_r(a2, 5)
    assert not admissible_r(a1, 9)


def test_gauss_report_json(capsys):
    assert main(["gauss", "--type", "A", "--rank", "1", "--r", "5", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert list(obj) == ["type", "rank", "r", "gamma", "ker", "magnitude_ok", "ratio_ok", "omega"]
    assert obj["type"] == "A" and obj["rank"] == 1 and obj["r"] == 5
    assert obj["ker"] == 1 and obj["magnitude_ok"] is True and obj["ratio_ok"] is True
    assert obj["omega"] in (1, -1)
    report = gauss_report(build_root_system("A", 1), 5)
    assert isinstance(report, GaussReport)
    assert report.group_size == 5


def test_gauss_reports_are_lean():
    # a report stores its seven computed values and no instance dict; the
    # kernel size is the class constant 1, the group size is derived, and
    # equal coordinates of gamma share one int
    names = [f.name for f in dataclasses.fields(GaussReport)]
    assert names == ["family", "rank", "r", "gamma", "magnitude_ok", "ratio_ok", "omega_sign"]
    for family, rank, r in [("A", 1, 5), ("A", 3, 13), ("B", 2, 7), ("G", 2, 13)]:
        report = gauss_report(build_root_system(family, rank), r)
        assert not hasattr(report, "__dict__") and not hasattr(report.gamma, "__dict__")
        assert report.ker_size == 1 and report.group_size == r**rank
        coeffs = report.gamma.coeffs
        assert len({id(c) for c in coeffs}) == len(set(coeffs))
