"""Diagram calculus tests: brackets, Jones values against the knot tables,
move invariance, and the periodicity congruence checks."""
from __future__ import annotations

import json
import random
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    braid_component_count,
    braid_permutation,
    free_loop_count,
    state_sum_bracket,
    transfer_bracket,
)
from qperiod import linkdiag
from qperiod.cli import main
from qperiod.linkdiag import (
    BOUNDARY_WIDTH_CAP,
    POWER_BITS_CAP,
    BraidWord,
    PlanarDiagram,
    WidthLimitError,
    bracket_of_braid,
    closure,
    doubled_linking,
    jones,
    jones_of_braid,
    kauffman_bracket,
    murasugi_check,
    p2_check,
    parse_braid,
    parse_pd,
    pd_text,
    two_strand_invariant,
    yokota_check,
    yokota_check_braid,
)
from qperiod.modular import InputError
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

# every other PD rule holds, but the two components cross three times
ODD_CROSSING_PD = """
X(4,3,2,6)
X(1,5,6,2)
X(5,3,4,1)
component 1 6 3
component 5 4 2
"""


def braid(text: str) -> BraidWord:
    return parse_braid(text)


def braid_words(max_strands: int, max_letters: int, min_letters: int = 0):
    """Braids on 2..max_strands strands with min_letters..max_letters letters."""
    return st.integers(2, max_strands).flatmap(
        lambda n: st.lists(
            st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i])),
            min_size=min_letters,
            max_size=max_letters,
        ).map(lambda word: BraidWord(n, tuple(word)))
    )


# ---------------------------------------------------------------------------
# braid words


def test_parse_braid():
    b = braid("strands 3 : 1 -2 1")
    assert b.strands == 3 and b.letters == (1, -2, 1)
    assert parse_braid("strands 2 :").letters == ()
    assert parse_braid("strands 2 :1").letters == parse_braid("strands 2 : 1 ").letters == (1,)
    assert b.writhe == 1


@pytest.mark.parametrize(
    "text",
    [
        "strands 3 : 3", "strands 2 : 0", "strands 0 :", "3 : 1", "strands 2 , 1",
        # letters run together
        "strands 2 : 1-1", "strands 3 : 1 2-1",
    ],
)
def test_parse_braid_rejects(text):
    with pytest.raises(InputError):
        parse_braid(text)


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


@given(braid_words(4, 6))
@settings(max_examples=40, deadline=None)
def test_bracket_statesum_matches_transfer(b):
    assert kauffman_bracket(closure(b)) == state_sum_bracket(closure(b)) == transfer_bracket(b)


@given(braid_words(6, 6), st.sampled_from([1, 2, 3, 5]))
@settings(max_examples=40, deadline=None)
@example(parse_braid("strands 6 : 1 -2 3 -4 5 1"), 5)
def test_bracket_of_braid_powers_matches_transfer(b, p):
    bp = BraidWord(b.strands, b.letters * p)
    assert bracket_of_braid(bp) == transfer_bracket(bp)


@given(braid_words(3, 120, min_letters=40))
@settings(max_examples=30, deadline=None)
def test_bracket_of_long_narrow_words_matches_transfer(b):
    # arcs open and close over many steps on a boundary of a few arcs
    assert kauffman_bracket(closure(b)) == transfer_bracket(b)


WIDE = parse_braid("strands 12 : " + " ".join(["1 -2 3 -4 5 -6 7 -8 9 -10 11"] * 14))


def test_width_cap():
    # contracting WIDE would take hours, so this returns only if the
    # refusal comes before any state is built
    message = f"boundary width 24 exceeds the cap {BOUNDARY_WIDTH_CAP}"
    with pytest.raises(WidthLimitError, match=message):
        kauffman_bracket(closure(WIDE))
    with pytest.raises(WidthLimitError, match=message):
        bracket_of_braid(WIDE)
    with pytest.raises(WidthLimitError, match=message):
        yokota_check_braid(WIDE, 3)
    with pytest.raises(WidthLimitError, match=message):
        murasugi_check(BraidWord(12, WIDE.letters[:22]), 7)
    # many crossings on a narrow boundary are cheap
    long = BraidWord(2, (1,) * 25)
    assert kauffman_bracket(closure(long)) == transfer_bracket(long)


def test_braid_entry_points_bypass_the_pd_entry_point(monkeypatch):
    # a caller that wraps kauffman_bracket by name, as perfbench's tracer
    # does with a 2^c work measure, sees only diagram calls
    def refuse(d):
        raise AssertionError("braid path went through kauffman_bracket")

    monkeypatch.setattr(linkdiag, "kauffman_bracket", refuse)
    b = braid("strands 3 : 1 -2 1 -2")
    assert murasugi_check(b, 3).passed
    assert yokota_check_braid(b, 3).passed
    assert jones_of_braid(b) == H({-4: 1, -2: -1, 0: 1, 2: -1, 4: 1})


# ---------------------------------------------------------------------------
# Jones goldens (t-variable, doubled exponent keys)


def test_jones_unknot_variants():
    assert jones_of_braid(braid("strands 1 :")) == HalfLaurent.monomial(0)
    assert jones_of_braid(braid("strands 2 : 1")) == HalfLaurent.monomial(0)
    assert jones_of_braid(braid("strands 2 : -1")) == HalfLaurent.monomial(0)


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
    assert jones(neg) == HalfLaurent.monomial(0)
    pos = parse_pd("X(1,1,2,2)\ncomponent 1 2")
    assert pos.signs == (1,)
    assert jones(pos) == HalfLaurent.monomial(0)


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


def relabelled(d: PlanarDiagram, rng) -> PlanarDiagram:
    """d with its arcs renamed, its crossings reordered and each component
    rotated, the components shuffled."""
    arcs = sorted(d.arcs)
    names = dict(zip(arcs, rng.sample(range(1, 4 * len(arcs) + 1), len(arcs))))
    order = rng.sample(range(len(d.crossings)), len(d.crossings))
    comps = []
    for comp in rng.sample(d.components, len(d.components)):
        k = rng.randrange(len(comp))
        comps.append(tuple(names[a] for a in comp[k:] + comp[:k]))
    return PlanarDiagram(
        tuple(tuple(names[a] for a in d.crossings[k]) for k in order),
        tuple(d.signs[k] for k in order),
        tuple(comps),
    )


def orientable(d: PlanarDiagram) -> bool:
    """Whether every two-arc component of d passes under somewhere, which
    parse_pd needs to orient it."""
    under = {x[0] for x in d.crossings} | {x[2] for x in d.crossings}
    return not any(len(comp) == 2 and not set(comp) & under for comp in d.components)


@given(braid_words(5, 10), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_parse_pd_orients_relabelled_closures(b, rng):
    # parse_pd derives closure's signs under any relabelling, and refuses
    # exactly when a two-arc component never passes under, where no
    # orientation can be derived
    d = closure(b)
    want = relabelled(d, rng)
    if orientable(d):
        assert parse_pd(pd_text(want)) == want
    else:
        with pytest.raises(ValueError, match="cannot orient"):
            parse_pd(pd_text(want))


def side_by_side(d: PlanarDiagram, e: PlanarDiagram) -> PlanarDiagram:
    """The split diagram of d and e, e's arcs renamed past d's."""
    shift = max(d.arcs)
    return PlanarDiagram(
        d.crossings + tuple(tuple(a + shift for a in x) for x in e.crossings),
        d.signs + e.signs,
        d.components + tuple(tuple(a + shift for a in comp) for comp in e.components),
    )


# one braid with at most ten letters, or two with at most ten between them
braid_pairs = braid_words(5, 10).flatmap(
    lambda b: st.tuples(st.just(b), st.none() | braid_words(4, 10 - len(b.letters)))
)


@given(braid_pairs, st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
@example((BraidWord(3, ()), None), random.Random(0))  # no crossing, three free loops
@example((BraidWord(5, (1, -1, 1)), None), random.Random(1))  # three free loops beside a kink
@example((BraidWord(4, (1, 3, -2, 1, 3, -2, 1, 3, -2, 1)), None), random.Random(2))  # ten crossings
@example((BraidWord(3, (1, -2, 1, -2)), BraidWord(2, (1, 1, 1))), random.Random(3))  # split
@example((BraidWord(2, (1,)), BraidWord(2, (-1,))), random.Random(4))  # two kinks
def test_bracket_matches_state_sum_on_relabelled_diagrams(pair, rng):
    # strands that no letter touches close to free loops, an empty word
    # gives a diagram with no crossing at all, and a pair of braids gives
    # a split diagram, which the contraction finishes one part at a time
    b, other = pair
    d = closure(b) if other is None else side_by_side(closure(b), closure(other))
    assume(orientable(d))
    parsed = parse_pd(pd_text(relabelled(d, rng)))
    assert kauffman_bracket(parsed) == state_sum_bracket(parsed)


@pytest.mark.parametrize(
    "text, message",
    [
        ("X(1,4,2,5)\n", "orientation block missing"),
        ("X(1,4,2,5)\ncomponent 1 2 4 5", "exactly once"),
        (TREFOIL_PD.replace("component 1 2 3 4 5 6", "component 6 5 4 3 2 1"), "under-strand must run"),
        ("X(1,4,2,5)\ncomponent 1 2", "missing from components"),
        ("X(1,3,2,3)\ncomponent 1 2\ncomponent 3", "cannot orient"),
        ("component 1 1", "listed twice"),
        ("component 1 2", "component 1 2 meets no crossing"),
        (TREFOIL_PD + "component 7 8 9", "component 7 8 9 meets no crossing"),
        (ODD_CROSSING_PD, "odd inter-component crossing sum"),
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
    with pytest.raises(ValueError, match="a free loop is one arc"):
        PlanarDiagram((), (), ((1,), (2, 3)))


@given(braid_words(5, 10))
@settings(max_examples=60, deadline=None)
def test_braid_closures_cross_between_components_evenly(b):
    # two closed curves in the plane cross an even number of times, so the
    # closure of any braid passes the parity rule of the PD rules
    d = closure(b)
    comp_of = {a: i for i, comp in enumerate(d.components) for a in comp}
    meets = Counter(frozenset((comp_of[x[0]], comp_of[x[1]])) for x in d.crossings)
    assert all(n % 2 == 0 for pair, n in meets.items() if len(pair) == 2)


# ---------------------------------------------------------------------------
# linking number


def test_linking_trefoil():
    assert doubled_linking(closure(braid("strands 2 : 1 1 1"))) == 0


def test_linking_hopf():
    assert doubled_linking(closure(braid("strands 2 : 1 1"))) == 2


def test_linking_torus_two_four():
    assert doubled_linking(closure(braid("strands 2 : 1 1 1 1"))) == 4


# ---------------------------------------------------------------------------
# skein coherence of the two-strand invariant


def test_two_strand_invariant_of_unknot():
    assert two_strand_invariant(HalfLaurent.monomial(0)) == quantum_integer(2)


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


@pytest.mark.parametrize("check", [murasugi_check, p2_check])
@pytest.mark.parametrize("text, p", [("strands 100 :", 31), ("strands 2 : 1 1 1", 1_000_000_007)])
def test_power_cap_refuses_before_work(check, text, p):
    # the 10^9-fold trefoil word could not even be built, so this returns
    # only if the refusal comes first
    with pytest.raises(InputError, match=f"more than the cap of {POWER_BITS_CAP}"):
        check(braid(text), p)


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


def test_report_json(capsys):
    assert main(["murasugi", "--braid", "strands 2 : 1", "--p", "3", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["passed"] is True and obj["p"] == 3
    assert list(obj) == ["passed", "p", "lhs", "rhs", "residual"]
