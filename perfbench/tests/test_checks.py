"""Each checker accepts the program's genuine output and rejects the same
output with one thing changed."""
import json

import pytest

import checks as C
from qperiod import cyclo, liedata, linkdiag, tau
from workloads import LinkPD, pd_refused_shape, relabelled_pd_text


def bumped(seq, i, by=1):
    out = list(seq)
    out[i] += by
    return out


@pytest.mark.parametrize("manifold", ["poincare", "brieskorn_2_3_7"])
def test_tau_value_rejects_one_changed_coefficient(manifold):
    x = list(tau.tau_for(manifold, 13).value.coeffs)
    C.check_tau_value(manifold, 13, x)
    with pytest.raises(C.CheckError):
        C.check_tau_value(manifold, 13, bumped(x, 5))


def test_ohtsuki_digits_reject_one_changed_digit():
    x = tau.tau_poincare(11).value
    digits = list(cyclo.ohtsuki_expansion(x).a)
    C.check_ohtsuki_digits(11, x.coeffs, digits)
    with pytest.raises(C.CheckError):
        C.check_ohtsuki_digits(11, x.coeffs, bumped(digits, 4) if digits[4] < 10 else bumped(digits, 4, -1))
    with pytest.raises(C.CheckError):
        C.check_rows([[0, digits[0]], [1, digits[1] ^ 1]], digits, "rows")


def test_obstruction_rejects_flipped_verdict_and_wrong_twists():
    for r in (7, 13):
        x = tau.tau_poincare(r).value
        rep = tau.obstruction_test(x, r)
        C.check_obstruction(r, x.coeffs, rep.admissible_v, rep.verdict)
        flipped = "obstructed" if rep.verdict == "not_obstructed" else "not_obstructed"
        with pytest.raises(C.CheckError):
            C.check_obstruction(r, x.coeffs, rep.admissible_v, flipped)
        with pytest.raises(C.CheckError):
            C.check_obstruction(r, x.coeffs, list(rep.admissible_v) + [r - 1], rep.verdict)


def test_discriminant_rejects_wrong_lift_and_factors():
    rep = tau.period_discriminant("poincare", [7, 11, 13, 17])
    C.check_discriminant("poincare", rep.lifted, rep.factorization, headline=True)
    with pytest.raises(C.CheckError):
        C.check_discriminant("poincare", rep.lifted * 7, [[2, 5], [3, 1], [5, 1], [7, 1]], headline=False)
    with pytest.raises(C.CheckError):
        C.check_discriminant("poincare", rep.lifted, [[2, 4], [3, 1], [5, 1]], headline=True)
    with pytest.raises(C.CheckError):
        C.check_discriminant("brieskorn_2_3_7", 480, rep.factorization, headline=True)


@pytest.mark.parametrize("m, mp, p, r", [
    ("poincare", "poincare", 29, 7),         # p = 1 (mod 7): ideal (p)
    ("s3", "s3", 41, 7),                     # p = -1 (mod 7)
    ("brieskorn_2_3_7", "poincare", 103, 11),  # p = 4 (mod 11): unit ideal
])
def test_cover_rejects_wrong_u_set(m, mp, p, r):
    x, xp = tau.tau_for(m, r).value, tau.tau_for(mp, r).value
    found = tau.quotient_congruence_test(x, xp, p, r)
    C.check_cover(x.coeffs, xp.coeffs, p, r, found)
    wrong = [u for u in found if u != found[0]] if found else [0]
    with pytest.raises(C.CheckError):
        C.check_cover(x.coeffs, xp.coeffs, p, r, wrong)


def test_cover_expected_set_on_trivial_cover():
    # x = x' = 1: 1 = (-xi)^u mod p only for u = 0
    one = [1] + [0] * 5
    assert C.expected_cover_set(one, one, 29, 7) == [0]
    assert C.expected_cover_set(one, one, 5, 7) == list(range(14))


def test_braid_components_and_linking():
    assert C.braid_components(2, [1, 1]) == 2
    assert C.braid_components(3, [1, 2]) == 1
    assert C.braid_lk_doubled(2, [1, 1]) == 2          # Hopf link: lk = 1
    assert C.braid_lk_doubled(2, [1, 1, 1]) == 0       # trefoil: one component
    assert C.braid_lk_doubled(3, [1, -1, 2, 2]) == 2


def test_link_checks_reject_flipped_verdict_and_changed_coefficient():
    b = linkdiag.parse_braid("strands 3 : 1 -2 1 -2 1")
    mu, lk2 = C.braid_components(3, b.letters), C.braid_lk_doubled(3, b.letters)
    for p in (3, 5, 7):
        rep = linkdiag.yokota_check_braid(b, p)
        C.check_yokota(rep.lhs.terms, lk2, p, rep.passed, "yokota")
        with pytest.raises(C.CheckError):
            C.check_yokota(rep.lhs.terms, lk2, p, not rep.passed, "yokota")
    trefoil = linkdiag.yokota_check_braid(linkdiag.parse_braid("strands 2 : 1 1 1"), 5)
    assert trefoil.passed is False
    C.check_yokota(trefoil.lhs.terms, 0, 5, False, "trefoil")
    terms = [list(t) for t in rep.lhs.terms]
    C.check_jones_at_one(terms, mu, "V(1)")
    terms[0][1] += 1
    with pytest.raises(C.CheckError):
        C.check_jones_at_one(terms, mu, "V(1)")


@pytest.mark.parametrize("family, rank, r", [("A", 2, 7), ("G", 2, 13), ("B", 2, 11)])
def test_gauss_rejects_changed_coefficient_kernel_and_verdict(family, rank, r):
    rs = liedata.build_root_system(family, rank)
    rep = liedata.gauss_report(rs, r)
    gram = [[rs.d[a] * rs.cartan[a][b] for b in range(rank)] for a in range(rank)]
    gamma = list(rep.gamma.coeffs)
    C.check_gauss(rank, r, gamma, gram, rep.ker_size, rep.magnitude_ok, rep.ratio_ok)
    with pytest.raises(C.CheckError):
        C.check_gauss(rank, r, bumped(gamma, 2), gram, rep.ker_size, True, True)
    with pytest.raises(C.CheckError):
        C.check_gauss(rank, r, gamma, gram, r, True, True)
    with pytest.raises(C.CheckError):
        C.check_gauss(rank, r, gamma, gram, rep.ker_size, True, False)


def test_relabelled_pd_parses_to_the_same_jones():
    import random

    b = linkdiag.parse_braid("strands 3 : 1 -2 1 2 -1 2")
    d = linkdiag.closure(b)
    text = relabelled_pd_text(d.crossings, [list(c) for c in d.components], random.Random(3))
    assert text != linkdiag.pd_text(d)
    assert linkdiag.jones(linkdiag.parse_pd(text)) == linkdiag.jones_of_braid(b)


def test_refused_shape_is_the_one_parse_pd_refuses():
    # over all short words on 3 strands, parse_pd refuses a closure
    # exactly when it has a two-arc component that only passes over
    import itertools

    found = False
    words = (w for n in (2, 3, 4) for w in itertools.product([1, -1, 2, -2], repeat=n))
    for letters in words:
        d = linkdiag.closure(linkdiag.BraidWord(3, letters))
        text = linkdiag.pd_text(d)
        if pd_refused_shape(d.crossings, d.components):
            found = True
            with pytest.raises(ValueError):
                linkdiag.parse_pd(text)
        else:
            linkdiag.parse_pd(text)
    assert found


def test_link_pd_workload_rejects_jones_changed_by_relabelling(tmp_path, monkeypatch):
    import worker

    monkeypatch.setattr(LinkPD, "CROSSINGS", [3, 4, 4, 5, 6])
    wl = LinkPD(5, str(tmp_path))
    wl.setup(worker.import_program())
    outs, lat = [], []
    worker.run_round(wl.ops, lat, outs)
    assert worker.check_rounds(wl, [outs]) == []
    i = next(i for i, s in enumerate(wl.specs) if s[0] == "jones")
    obj = json.loads(outs[i])
    obj["terms"][0][1] += 2
    bad = list(outs)
    bad[i] = json.dumps(obj)
    errors = worker.check_rounds(wl, [bad])
    assert errors and all(e.startswith(f"op {i}:") or "relabelling" in e for e in errors)
