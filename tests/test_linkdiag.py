"""Diagram calculus tests: brackets, Jones values against the knot tables,
move invariance, and the periodicity congruence checks."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import braid_component_count, braid_permutation, free_loop_count
from qperiod.linkdiag import (
    DEFAULT_CROSSING_CAP,
    BraidWord,
    CrossingLimitError,
    PlanarDiagram,
    bracket_of_braid,
    braid_power,
    closure,
    jones,
    jones_of_braid,
    kauffman_bracket,
    linking_data,
    murasugi_check,
    p2_check,
    parse_braid,
    parse_pd,
    pd_text,
    two_strand_invariant,
    yokota_check,
    yokota_check_braid,
)
from qperiod.qpoly import HalfLaurent, quantum_integer

H = HalfLaurent.from_dict

TREFOIL_PD = """
X(1,4,2,5)
X(3,6,4,1)
X(5,2,6,3)
component 1 2 3 4 5 6
"""

FIGURE8_PD = """
X(4,2,5,1)
X(8,6,1,5)
X(6,3,7,4)
X(2,7,3,8)
component 1 2 3 4 5 6 7 8
"""

HOPF_PD = """
X(1,4,2,3)
X(3,2,4,1)
component 1 2
component 3 4
"""


def braid(text: str) -> BraidWord:
    return parse_braid(text)


# ---------------------------------------------------------------------------
# braid words


def test_parse_braid():
    b = braid("strands 3 : 1 -2 1")
    assert b.strands == 3 and b.letters == (1, -2, 1)
    assert parse_braid("strands 2 :").letters == ()
    assert b.writhe == 1


@pytest.mark.parametrize(
    "text",
    ["strands 3 : 3", "strands 2 : 0", "strands 0 :", "3 : 1", "strands 2 , 1"],
)
def test_parse_braid_rejects(text):
    with pytest.raises(ValueError):
        parse_braid(text)


def test_braid_power():
    b = braid("strands 2 : 1 -1")
    assert braid_power(b, 3).letters == (1, -1) * 3
    with pytest.raises(ValueError):
        braid_power(b, 0)


def test_braid_permutation_and_components():
    assert braid_permutation(braid("strands 3 : 1 2")) == (2, 0, 1)
    assert braid_component_count(braid("strands 3 : 1 2")) == 1
    assert braid_component_count(braid("strands 3 :")) == 3
    assert braid_component_count(braid("strands 2 : 1 1")) == 2


# ---------------------------------------------------------------------------
# closure structure


def test_closure_trefoil_structure():
    d = closure(braid("strands 2 : 1 1 1"))
    assert len(d.crossings) == 3
    assert d.signs == (1, 1, 1)
    assert len(d.components) == 1
    assert sum(d.signs) == 3


def test_closure_unused_strand_gives_free_loop():
    d = closure(BraidWord(3, (1,)))
    assert free_loop_count(d) == 1
    assert len(d.components) == 2


def test_closure_component_count_matches_permutation():
    for text in ["strands 2 : 1", "strands 2 : 1 1", "strands 3 : 1 2",
                 "strands 3 : 1 -2 1", "strands 4 : 1 3", "strands 3 :"]:
        b = braid(text)
        assert len(closure(b).components) == braid_component_count(b)


# ---------------------------------------------------------------------------
# bracket goldens (A-variable, doubled exponent keys)


def test_bracket_positive_kink():
    assert bracket_of_braid(braid("strands 2 : 1")) == H({6: -1})


def test_bracket_trefoil():
    want = H({10: -1, -6: -1, -14: 1})  # -A^5 - A^(-3) + A^(-7)
    assert bracket_of_braid(braid("strands 2 : 1 1 1")) == want
    assert kauffman_bracket(closure(braid("strands 2 : 1 1 1"))) == want


def test_bracket_hopf():
    assert bracket_of_braid(braid("strands 2 : 1 1")) == H({8: -1, -8: -1})


@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i])),
                max_size=6,
            ),
        )
    )
)
@settings(max_examples=40, deadline=None)
def test_bracket_statesum_matches_transfer(nw):
    n, word = nw
    b = BraidWord(n, tuple(word))
    assert kauffman_bracket(closure(b)) == bracket_of_braid(b)


def test_crossing_cap():
    # 2^25 states would take hours, so this returns only if the refusal
    # comes before any work
    d = closure(BraidWord(2, (1,) * (DEFAULT_CROSSING_CAP + 1)))
    with pytest.raises(CrossingLimitError, match="25 crossings exceeds the state-sum cap 24"):
        kauffman_bracket(d)


# ---------------------------------------------------------------------------
# Jones goldens (t-variable, doubled exponent keys)


def test_jones_unknot_variants():
    assert jones_of_braid(braid("strands 1 :")) == HalfLaurent.one()
    assert jones_of_braid(braid("strands 2 : 1")) == HalfLaurent.one()
    assert jones_of_braid(braid("strands 2 : -1")) == HalfLaurent.one()


def test_jones_trefoils():
    right = H({8: -1, 6: 1, 2: 1})  # -t^4 + t^3 + t
    assert jones_of_braid(braid("strands 2 : 1 1 1")) == right
    assert jones_of_braid(braid("strands 2 : -1 -1 -1")) == right.mirror()


def test_jones_hopf():
    assert jones_of_braid(braid("strands 2 : 1 1")) == H({1: -1, 5: -1})


def test_jones_figure_eight():
    want = H({-4: 1, -2: -1, 0: 1, 2: -1, 4: 1})
    assert jones_of_braid(braid("strands 3 : 1 -2 1 -2")) == want


def test_jones_two_component_unlink():
    d = parse_pd("component 1\ncomponent 2")
    assert jones(d) == H({1: -1, -1: -1})


def test_jones_mirror_property():
    for text in ["strands 2 : 1 1 1", "strands 3 : 1 -2 1 -2", "strands 3 : 1 2 1"]:
        b = braid(text)
        m = BraidWord(b.strands, tuple(-w for w in b.letters))
        assert jones_of_braid(m) == jones_of_braid(b).mirror()


# ---------------------------------------------------------------------------
# move invariance


def test_bracket_reidemeister_two_three():
    assert bracket_of_braid(braid("strands 3 : 1 -1 2")) == bracket_of_braid(braid("strands 3 : 2"))
    assert bracket_of_braid(braid("strands 3 : 1 2 1")) == bracket_of_braid(braid("strands 3 : 2 1 2"))


def test_jones_markov_invariance():
    base = jones_of_braid(braid("strands 2 : 1 1 1"))
    assert jones_of_braid(braid("strands 3 : 1 1 1 2")) == base
    assert jones_of_braid(braid("strands 3 : 1 1 1 -2")) == base
    conj = jones_of_braid(braid("strands 3 : 1 1 2 -1"))
    assert conj == jones_of_braid(braid("strands 3 : 1 2"))


# ---------------------------------------------------------------------------
# planar diagram files


def test_parse_pd_trefoil_table():
    d = parse_pd(TREFOIL_PD)
    assert d.signs == (-1, -1, -1)
    assert jones(d) == H({-8: -1, -6: 1, -2: 1})  # -t^(-4) + t^(-3) + t^(-1)


def test_parse_pd_figure_eight_table():
    d = parse_pd(FIGURE8_PD)
    assert d.signs == (1, 1, -1, -1)
    assert jones(d) == H({-4: 1, -2: -1, 0: 1, 2: -1, 4: 1})


def test_parse_pd_minimal_hopf():
    d = parse_pd(HOPF_PD)
    assert d.signs == (-1, -1)
    assert jones(d) == H({-1: -1, -5: -1})


def test_parse_pd_kinks():
    neg = parse_pd("X(1,2,2,1)\ncomponent 1 2")
    assert neg.signs == (-1,)
    assert jones(neg) == HalfLaurent.one()
    pos = parse_pd("X(1,1,2,2)\ncomponent 1 2")
    assert pos.signs == (1,)
    assert jones(pos) == HalfLaurent.one()


def test_pd_text_round_trip():
    for text in [TREFOIL_PD, FIGURE8_PD, HOPF_PD]:
        d = parse_pd(text)
        assert parse_pd(pd_text(d)) == d


def test_closure_round_trips_through_pd_text():
    for text in ["strands 2 : 1 1", "strands 2 : 1 1 1", "strands 3 : 1 -2 1 -2",
                 "strands 3 : 1 2", "strands 2 : -1 -1"]:
        d = closure(braid(text))
        back = parse_pd(pd_text(d))
        assert back == d  # in particular the derived signs agree


@pytest.mark.parametrize(
    "text, message",
    [
        ("X(1,4,2,5)\n", "orientation block missing"),
        ("X(1,4,2,5)\ncomponent 1 2 4 5", "exactly once"),
        (TREFOIL_PD.replace("component 1 2 3 4 5 6", "component 6 5 4 3 2 1"), "under-strand must run"),
        ("X(1,4,2,5)\ncomponent 1 2", "missing from components"),
        ("X(1,3,2,3)\ncomponent 1 2\ncomponent 3", "cannot orient"),
        ("component 1 1", "listed twice"),
    ],
)
def test_parse_pd_rejects(text, message):
    with pytest.raises(ValueError, match=message):
        parse_pd(text)


def test_diagram_validation():
    with pytest.raises(ValueError, match="one sign per crossing"):
        PlanarDiagram(((1, 2, 2, 1),), (), ((1, 2),))
    with pytest.raises(ValueError, match="at least one component"):
        PlanarDiagram((), (), ())


# ---------------------------------------------------------------------------
# linking data


def test_linking_trefoil():
    ld = linking_data(closure(braid("strands 2 : 1 1 1")))
    assert ld.matrix == ((3,),)
    assert ld.writhe == 3
    assert ld.total_lk_doubled == 0


def test_linking_hopf():
    ld = linking_data(closure(braid("strands 2 : 1 1")))
    assert ld.matrix == ((0, 1), (1, 0))
    assert ld.writhe == 2
    assert ld.total_lk_doubled == 2


def test_linking_torus_two_four():
    ld = linking_data(closure(braid("strands 2 : 1 1 1 1")))
    assert ld.matrix == ((0, 2), (2, 0))
    assert ld.total_lk_doubled == 4


# ---------------------------------------------------------------------------
# skein coherence of the two-strand invariant


def test_two_strand_invariant_of_unknot():
    assert two_strand_invariant(HalfLaurent.one()) == quantum_integer(2)


def test_skein_relation_on_crossing_change():
    p_plus = two_strand_invariant(jones_of_braid(braid("strands 2 : 1 1 1")))
    p_minus = two_strand_invariant(jones_of_braid(braid("strands 2 : 1")))
    p_zero = two_strand_invariant(jones_of_braid(braid("strands 2 : 1 1")))
    q = HalfLaurent.monomial(2)
    q_inv = HalfLaurent.monomial(-2)
    half = HalfLaurent.monomial(1) - HalfLaurent.monomial(-1)
    assert q * p_plus - q_inv * p_minus == half * p_zero


# ---------------------------------------------------------------------------
# periodicity congruences


FAMILY = [
    "strands 2 : 1",
    "strands 2 : 1 1",
    "strands 2 : 1 -1",
    "strands 2 : 1 1 1",
    "strands 3 : 1 2",
    "strands 3 : 1 -2",
    "strands 3 : 1 2 1",
]


@pytest.mark.parametrize("text", FAMILY)
@pytest.mark.parametrize("p", [3, 5, 7])
def test_murasugi_congruence_on_periodic_closures(text, p):
    report = murasugi_check(braid(text), p)
    assert report.passed, report.residual


@pytest.mark.parametrize("text", FAMILY)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_p2_congruence_on_periodic_closures(text, p):
    report = p2_check(braid(text), p)
    assert report.passed, report.residual


def test_murasugi_rejects_bad_period():
    with pytest.raises(ValueError):
        murasugi_check(braid("strands 2 : 1"), 2)
    with pytest.raises(ValueError):
        murasugi_check(braid("strands 2 : 1"), 9)


def test_yokota_trefoil():
    b = braid("strands 2 : 1 1 1")
    assert yokota_check_braid(b, 3).passed
    assert not yokota_check_braid(b, 5).passed
    d = parse_pd(TREFOIL_PD)
    assert yokota_check(d, 3).passed
    assert not yokota_check(d, 5).passed


def test_yokota_torus_knots():
    assert yokota_check_braid(braid("strands 2 : 1 1 1 1 1"), 5).passed
    assert yokota_check_braid(braid("strands 2 : 1 1 1 1 1 1 1"), 7).passed


def test_yokota_amphichiral_always_passes():
    d = parse_pd(FIGURE8_PD)
    for p in (3, 5, 7):
        assert yokota_check(d, p).passed


def test_yokota_rejects_even_period():
    with pytest.raises(ValueError):
        yokota_check_braid(braid("strands 2 : 1 1 1"), 2)


def test_report_json():
    report = murasugi_check(braid("strands 2 : 1"), 3)
    obj = report.to_json()
    assert obj["passed"] is True and obj["p"] == 3
    assert set(obj) == {"passed", "p", "lhs", "rhs", "residual"}
