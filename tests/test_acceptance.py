"""Acceptance gate: the ten headline checks, one printed verdict line per
criterion.  Run with -s (or directly as a script) to see the lines."""
from __future__ import annotations

import json
import random
import time

from oracles import (
    binomial_expansion_identity,
    complex_eval,
    kernel_size,
    reconstruct,
    remark_identity_check,
)
from qperiod.cyclo import CyclotomicInt, cyclo_to_json, make, ohtsuki_expansion, twist_conjugate
from qperiod.liedata import build_root_system, gauss_sum, verify_ratio
from qperiod.linkdiag import (
    BraidWord,
    jones_of_braid,
    murasugi_check,
    two_strand_invariant,
    yokota_check_braid,
)
from qperiod.qpoly import HalfLaurent
from qperiod.tau import obstruction_test, period_discriminant, tau_brieskorn237, tau_poincare


def _verdict(num: int, label: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"criterion {num:02d} {label}: FAIL")
        raise
    print(f"criterion {num:02d} {label}: PASS")


def _digits(x: CyclotomicInt) -> tuple[int, ...]:
    return ohtsuki_expansion(x).a


# ---------------------------------------------------------------------------


def _c01() -> None:
    for r in (7, 11, 13, 17, 19):
        start = time.monotonic()
        d = _digits(tau_poincare(r).value)
        assert d[1] == 6 % r, f"a1 at r={r}"
        assert d[3] == 464 % r, f"a3 at r={r}"
        assert time.monotonic() - start < 1.0, f"too slow at r={r}"


def test_criterion_01_poincare_low_coefficients() -> None:
    _verdict(1, "poincare a1=6 a3=464 at five primes under 1s each", _c01)


def _c02() -> None:
    for r in (11, 13):
        x = tau_poincare(r).value
        for j in (0, 1, 2):
            assert _digits(twist_conjugate(x, j))[1] == (-6 - j) % r, f"a1 twist j={j} r={r}"
        assert _digits(twist_conjugate(x, -12))[3] == (-16) % r, f"a3 twist -12 r={r}"


def test_criterion_02_poincare_twisted_conjugates() -> None:
    _verdict(2, "twisted conjugates a1=-6-j and a3(-12 twist)=-16", _c02)


def _c03() -> None:
    for r in (11, 13, 17):
        x = tau_brieskorn237(r).value
        assert _digits(x)[3] == 1064 % r, f"a3 at r={r}"
        assert _digits(twist_conjugate(x, -12))[3] == (-280) % r, f"twisted a3 at r={r}"


def test_criterion_03_brieskorn_table() -> None:
    _verdict(3, "brieskorn_2_3_7 a3=1064 and twisted a3=-280", _c03)


def _c04() -> None:
    start = time.monotonic()
    rep = period_discriminant("poincare", [7, 11, 13, 17])
    assert rep.lifted == 480
    assert rep.factorization == ((2, 5), (3, 1), (5, 1))
    rep = period_discriminant("brieskorn_2_3_7", [11, 13, 17, 19])
    assert rep.lifted == 1344
    assert rep.factorization == ((2, 6), (3, 1), (7, 1))
    assert time.monotonic() - start < 5.0


def test_criterion_04_period_discriminants() -> None:
    _verdict(4, "discriminants lift to 480=2^5*3*5 and 1344=2^6*3*7 under 5s", _c04)


def _c05() -> None:
    for r in (7, 11, 13):
        assert obstruction_test(tau_poincare(r).value, r).admissible_v == (), f"poincare r={r}"
    assert obstruction_test(tau_poincare(5).value, 5).admissible_v != ()
    for r in (5, 11, 13):
        assert obstruction_test(tau_brieskorn237(r).value, r).admissible_v == (), f"brieskorn r={r}"
    assert obstruction_test(tau_brieskorn237(7).value, 7).admissible_v != ()


def test_criterion_05_obstruction_verdicts() -> None:
    _verdict(5, "obstruction empty/non-empty exactly at the stated primes", _c05)


def _c06() -> None:
    sigma = BraidWord(2, (1,))
    checks = [lambda p=p: murasugi_check(sigma, p).passed for p in (3, 5, 7)]
    checks += [lambda p=p: yokota_check_braid(BraidWord(2, (1,) * p), p).passed for p in (3, 5, 7)]
    checks.append(lambda: not yokota_check_braid(BraidWord(2, (1, 1, 1)), 5).passed)
    for check in checks:
        start = time.monotonic()
        assert check()
        assert time.monotonic() - start < 1.0


def test_criterion_06_link_congruences() -> None:
    _verdict(6, "murasugi passes p=3,5,7; yokota passes T(2,p), fails trefoil p=5", _c06)


def _c07() -> None:
    for p in (3, 5, 7, 11):
        assert remark_identity_check(p), f"p={p}"


def test_criterion_07_remark_identity() -> None:
    _verdict(7, "eta identity (t+1)eta_p = q^(-p/2)([2]^p-[2]) mod p", _c07)


def _c08() -> None:
    for family, rank, levels in (("A", 1, (5, 7, 11, 13)), ("A", 2, (5, 7, 11))):
        rs = build_root_system(family, rank)
        for r in levels:
            z = complex_eval(gauss_sum(rs, r))
            want = kernel_size(rs, r) * r**rank
            assert abs(abs(z) ** 2 - want) < 1e-9, f"{family}{rank} r={r}"


def test_criterion_08_gauss_magnitude() -> None:
    _verdict(8, "|gamma|^2 = ker * r^rank within 1e-9", _c08)


def _c09() -> None:
    for family, rank in (("A", 1), ("A", 2)):
        rs = build_root_system(family, rank)
        for r in (5, 7, 11):
            ok, omega = verify_ratio(rs, r)
            assert ok is True and omega in (1, -1), f"{family}{rank} r={r}"


def test_criterion_09_ratio_law() -> None:
    _verdict(9, "unknot-value ratio is an exact sign for A1 and A2", _c09)


def _c10() -> None:
    start = time.monotonic()
    rng = random.Random(20260822)
    for r in (5, 7, 11):
        for _ in range(100):
            a = make(r, enumerate(rng.randrange(-50, 51) for _ in range(r - 1)))
            b = make(r, enumerate(rng.randrange(-50, 51) for _ in range(r - 1)))
            c = make(r, enumerate(rng.randrange(-50, 51) for _ in range(r - 1)))
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert reconstruct(ohtsuki_expansion(a)) == a
            obj = json.loads(json.dumps(cyclo_to_json(a)))
            assert make(obj["r"], enumerate(int(c) for c in obj["coeffs"])) == a
    for r in (3, 5, 7, 11, 13):
        assert binomial_expansion_identity(r), f"binomial identity r={r}"
    # skein coherence: positive crossing (trefoil), negative-free smoothing
    # triple closed from the two-strand braids sigma^3, sigma, sigma^2
    p2 = {
        w: two_strand_invariant(jones_of_braid(BraidWord(2, (1,) * w))) for w in (1, 2, 3)
    }
    q = HalfLaurent.monomial(2)
    q_inv = HalfLaurent.monomial(-2)
    z = HalfLaurent.monomial(1) - HalfLaurent.monomial(-1)
    assert q * p2[3] - q_inv * p2[1] == z * p2[2]
    for r in (5, 7, 11):
        for _ in range(25):
            x = make(r, enumerate(rng.randrange(-30, 31) for _ in range(r - 1)))
            d = ohtsuki_expansion(x).a
            for v in range(r):
                got = ohtsuki_expansion(twist_conjugate(x, v)).a[1]
                assert got == (-d[1] - v * d[0]) % r, f"twist rule r={r} v={v}"
    assert time.monotonic() - start < 60.0


def test_criterion_10_property_suites() -> None:
    _verdict(10, "ring axioms, roundtrips, binomial identity, skein, twist rule", _c10)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion_"):
            fn()
