"""Braid words, planar link diagrams, bracket/Jones evaluation, and the
classical periodicity congruences.

Conventions, fixed once and used everywhere:

* Braid strands run downward; the letter +i crosses the strand at position
  i+1 over the strand at position i and counts as a positive crossing, so
  the writhe of a closure is the exponent sum of the word.  With the
  bracket and normalization below this makes the closure of sigma_1^3 the
  trefoil with V = -t^4 + t^3 + t, matching the usual knot tables.
* A crossing is stored as X(a, b, c, d): the four arc labels
  counterclockwise around the crossing starting at the incoming under-arc,
  so the under-strand runs a -> c and the over-strand joins b and d.  The
  A-smoothing joins (a, b) and (c, d); the B-smoothing joins (a, d) and
  (b, c).  With arc orientations known, the crossing is positive exactly
  when the over-strand runs d -> b.
* A PD file lists each component's arcs in flow order and the signs are
  derived from it.  A two-arc component takes its direction from a
  crossing where it passes under; one that only passes over has no
  derivable orientation, and the file is refused.
* Bracket polynomials live in the variable A with loop value
  -A^2 - A^(-2) and <unknot> = 1; the Jones polynomial is
  (-A)^(-3w) <D> under t = A^(-4), reported in the t-normalization.

One bracket engine serves planar diagrams and braid words alike: it
contracts the crossings one at a time, greedily ordered so that the open
boundary stays narrow, and carries one coefficient polynomial per planar
matching of that boundary.  Its cost grows with the number of matchings
of the widest boundary times the crossing count, not as 2^c; on a braid
closure the boundary stays near twice the strand count whatever the word
length, so words raised to prime powers stay cheap.  A diagram whose
boundary would be wider than a fixed cap is refused before any state is
built.  Each periodicity check compares two Jones-type values modulo
(p, generator) and reports through one routine.
"""
from __future__ import annotations

import re
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

from .modular import InputError, require_prime
from .qpoly import HalfLaurent, eta, quantum_integer, reduce_mod

# A boundary of w arcs carries up to Catalan(w/2) matchings, about 4x more
# per two arcs.  At width 18 the 84-crossing closure of the 9-strand word
# (1 -2 3 -4 5 -6 7 -8 1 -2 3 -4)^7 took 7 to 9 s and its 9th power (108
# crossings) 17 to 20 s, in two runs with Python 3.11 on one core of a
# shared Xeon.  The greedy order keeps a braid closure's boundary near
# twice its strand count, so the cap admits braids on about 9 strands.
BOUNDARY_WIDTH_CAP = 18


class WidthLimitError(InputError):
    """Bracket refused: the contraction's open boundary would be wider
    than BOUNDARY_WIDTH_CAP arcs, so it would carry too many matchings."""


# ---------------------------------------------------------------------------
# braid words


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group: letters +-i act on positions i, i+1."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise InputError("braid needs at least one strand")
        for w in self.letters:
            if w == 0 or abs(w) >= self.strands:
                raise InputError(f"letter {w} invalid for {self.strands} strands")

    @property
    def writhe(self) -> int:
        return sum(1 if w > 0 else -1 for w in self.letters)


def parse_braid(text: str) -> BraidWord:
    """Parse 'strands N : w1 w2 ...'; an empty letter list is allowed."""
    m = re.fullmatch(r"\s*strands\s+(\d+)\s*:\s*((?:-?\d+(?:\s+|$))*)", text)
    if not m:
        raise InputError(f"cannot parse braid {text!r}; expected 'strands N : w1 w2 ...'")
    strands = int(m.group(1))
    letters = tuple(int(tok) for tok in m.group(2).split())
    return BraidWord(strands, letters)


# ---------------------------------------------------------------------------
# planar diagrams


@dataclass(frozen=True)
class PlanarDiagram:
    """An oriented link diagram.

    crossings[k] is the X(a, b, c, d) tuple of crossing k and signs[k] its
    sign under the stored orientations.  components lists each link
    component as the cyclic sequence of its arcs in flow order; circles
    with no crossing appear as singleton components, and a component of
    several arcs is refused unless it meets a crossing.  Two components
    must cross an even number of times, as closed curves in the plane do.
    """

    crossings: tuple[tuple[int, int, int, int], ...]
    signs: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.signs) != len(self.crossings):
            raise ValueError("one sign per crossing required")
        if not self.components:
            raise ValueError("diagram needs at least one component")
        _check_crossings(self.crossings, _successors(self.components))
        uses: dict[int, int] = {}
        for x in self.crossings:
            for a in x:
                uses[a] = uses.get(a, 0) + 1
        for a, n in uses.items():
            if n != 2:
                raise ValueError(f"arc {a} must appear exactly twice at crossings, saw {n}")
        for comp in self.components:
            if len(comp) == 1 and comp[0] in uses:
                raise ValueError(f"arc {comp[0]} cannot both cross and close a free loop")
            if len(comp) > 1 and uses.keys().isdisjoint(comp):
                arcs = " ".join(map(str, comp))
                raise ValueError(f"component {arcs} meets no crossing; a free loop is one arc")
        # two closed curves in the plane cross an even number of times
        comp_of = {a: i for i, comp in enumerate(self.components) for a in comp}
        meets = Counter(frozenset((comp_of[x[0]], comp_of[x[1]])) for x in self.crossings)
        if any(n % 2 for pair, n in meets.items() if len(pair) == 2):
            raise ValueError("odd inter-component crossing sum; diagram is malformed")

    @property
    def arcs(self) -> tuple[int, ...]:
        return tuple(a for comp in self.components for a in comp)


def _successors(components: Sequence[Sequence[int]]) -> dict[int, int]:
    """The next arc along each arc's component; an arc listed twice is refused."""
    succ: dict[int, int] = {}
    for comp in components:
        for i, a in enumerate(comp):
            if a in succ:
                raise ValueError(f"arc {a} listed twice in components")
            succ[a] = comp[(i + 1) % len(comp)]
    return succ


def _check_crossings(crossings: Sequence[tuple[int, int, int, int]], succ: dict[int, int]) -> None:
    """Every arc at a crossing lies on a component, and each under-strand
    runs a -> c along it."""
    for a, b, c, d in crossings:
        for arc in (a, b, c, d):
            if arc not in succ:
                raise ValueError(f"arc {arc} at a crossing is missing from components")
        if succ[a] != c:
            raise ValueError(f"crossing X({a},{b},{c},{d}): under-strand must run {a} -> {c}")


def closure(b: BraidWord) -> PlanarDiagram:
    """Trace closure of a braid, with arcs labeled and oriented downward."""
    n = b.strands
    current = list(range(1, n + 1))
    next_arc = n + 1
    raw: list[tuple[int, int, int, int]] = []
    signs: list[int] = []
    for w in b.letters:
        i = abs(w) - 1
        left, right = current[i], current[i + 1]
        bl, br = next_arc, next_arc + 1
        next_arc += 2
        if w > 0:
            # right strand passes over, exiting bottom-left
            raw.append((left, bl, br, right))
            signs.append(1)
        else:
            raw.append((right, left, bl, br))
            signs.append(-1)
        current[i], current[i + 1] = bl, br
    # the closure identifies the bottom arc at each position with the top
    # arc there; that bottom arc is the top arc itself or a fresh label
    top = {current[pos]: pos + 1 for pos in range(n)}
    reps = sorted({top.get(a, a) for a in range(1, next_arc)})
    relabel = {rep: i + 1 for i, rep in enumerate(reps)}
    label = {a: relabel[top.get(a, a)] for a in range(1, next_arc)}
    crossings = tuple(tuple(label[a] for a in x) for x in raw)
    # successor map gives the oriented components
    succ: dict[int, int] = {}
    for (a, bb, c, d), s in zip(crossings, signs):
        succ[a] = c
        if s > 0:
            succ[d] = bb
        else:
            succ[bb] = d
    comps: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for a in range(1, len(reps) + 1):
        if a not in seen:
            cyc = [a]
            while succ.get(cyc[-1], a) != a:  # an arc at no crossing is a free loop
                cyc.append(succ[cyc[-1]])
            seen.update(cyc)
            comps.append(tuple(cyc))
    return PlanarDiagram(crossings, tuple(signs), tuple(comps))


def parse_pd(text: str) -> PlanarDiagram:
    """Parse a planar-diagram file: X(a,b,c,d) lines in the convention
    above plus 'component a1 a2 ...' lines giving flow order.

    Crossing signs are derived from the component orientations, so the
    orientation block is mandatory and must cover every arc.
    """
    crossings: list[tuple[int, int, int, int]] = []
    comps: list[tuple[int, ...]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.fullmatch(r"X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)", line)
        if m:
            crossings.append(tuple(int(g) for g in m.groups()))
            continue
        m = re.fullmatch(r"component((?:\s+\d+)+)", line)
        if m:
            comps.append(tuple(int(tok) for tok in m.group(1).split()))
            continue
        raise ValueError(f"line {lineno}: cannot parse {line!r}")
    if not comps:
        raise ValueError("orientation block missing: need 'component ...' lines")
    succ = _successors(comps)
    _check_crossings(crossings, succ)
    signs = _derive_signs(tuple(crossings), succ)
    return PlanarDiagram(tuple(crossings), signs, tuple(comps))


def _derive_signs(
    crossings: tuple[tuple[int, int, int, int], ...], succ: dict[int, int]
) -> tuple[int, ...]:
    """Signs from orientation: positive iff the over-strand runs d -> b.

    When the over-strand's arcs b, d form a two-arc component, the
    successor map is cyclically symmetric and does not pick a direction.
    The component's other passage breaks the tie when it runs under
    there, since slot a is always an arrival and slot c a departure.  When
    it passes over there too, that passage is the same symmetric pair, so
    no orientation can be derived and the diagram is refused.
    """
    spots: dict[int, list[tuple[int, int]]] = {}
    for k, x in enumerate(crossings):
        for slot, e in enumerate(x):
            spots.setdefault(e, []).append((k, slot))
    over_in: dict[int, int] = {}  # crossing -> arc the over-strand arrives on
    undecided: list[int] = []
    for k, (a, bb, c, d) in enumerate(crossings):
        d_then_b, b_then_d = succ[d] == bb, succ[bb] == d
        if not d_then_b and not b_then_d:
            raise ValueError(
                f"crossing X({a},{bb},{c},{d}): over-strand {bb}-{d} has no orientation"
            )
        if d_then_b != b_then_d:
            over_in[k] = d if d_then_b else bb
            continue
        for slot, arc, other in ((1, bb, d), (3, d, bb)):
            elsewhere = [s for s in spots[arc] if s != (k, slot)]
            if len(elsewhere) == 1 and elsewhere[0][1] in (0, 2):
                # the arc arrives at its other slot iff it departs here
                over_in[k] = other if elsewhere[0][1] == 0 else arc
                break
        else:
            undecided.append(k)
    if undecided:
        ks = ", ".join(map(str, undecided))
        raise ValueError(f"cannot orient the over-strand at crossings {ks}")
    for e, where in spots.items():
        kinds = sorted(slot == 0 or (slot != 2 and crossings[k][slot] == over_in[k])
                       for k, slot in where)
        if kinds != [False, True]:
            raise ValueError(f"arc {e} does not arrive exactly once and depart exactly once")
    return tuple(1 if over_in[k] == x[3] else -1 for k, x in enumerate(crossings))


def pd_text(d: PlanarDiagram) -> str:
    lines = [f"X({a},{b},{c},{e})" for a, b, c, e in d.crossings]
    lines += ["component " + " ".join(str(a) for a in comp) for comp in d.components]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# linking number


def doubled_linking(d: PlanarDiagram) -> int:
    """Twice the total linking number: the sum of the signs at the
    crossings where two different components meet."""
    comp_of = {a: i for i, comp in enumerate(d.components) for a in comp}
    return sum(s for x, s in zip(d.crossings, d.signs) if comp_of[x[0]] != comp_of[x[1]])


# ---------------------------------------------------------------------------
# bracket by contraction over boundary matchings


def kauffman_bracket(d: PlanarDiagram) -> HalfLaurent:
    """The bracket of a planar diagram, exact; refused before any work
    when the contraction's boundary is wider than BOUNDARY_WIDTH_CAP."""
    return _contract(d)


def bracket_of_braid(b: BraidWord) -> HalfLaurent:
    """The bracket of the closure of b."""
    return _contract(closure(b))


# smoothing -> (A-exponent step as a doubled key, the slots it joins as an
# involution on the slots a, b, c, d)
_SMOOTHINGS = ((2, (1, 0, 3, 2)), (-2, (3, 2, 1, 0)))
_DELTA_POWERS = ({0: 1}, {4: -1, -4: -1}, {8: 1, 0: 2, -8: 1})  # delta^0, ^1, ^2


def _contraction_order(crossings: Sequence[tuple[int, int, int, int]]) -> tuple[list[int], int]:
    """The crossings in contraction order, and the largest boundary width
    along it.

    The next crossing is the one with the most arcs whose other end is
    already contracted, the lowest index among ties, so each step opens as
    few boundary arcs as it can.  An arc with both ends at one crossing
    never opens."""
    where: dict[int, list[int]] = {}
    for k, x in enumerate(crossings):
        for a in x:
            where.setdefault(a, []).append(k)
    score = [0] * len(crossings)
    waiting = [set(range(len(crossings))), set(), set(), set(), set()]  # by score
    order: list[int] = []
    width = widest = 0
    while any(waiting):
        best = max(s for s in range(5) if waiting[s])
        k = min(waiting[best])
        waiting[best].remove(k)
        order.append(k)
        for a in set(crossings[k]):
            j, jj = where[a]
            if j == jj:
                continue
            other = jj if j == k else j
            if other in waiting[score[other]]:
                waiting[score[other]].remove(other)
                score[other] += 1
                waiting[score[other]].add(other)
                width += 1
            else:
                width -= 1
        widest = max(widest, width)
    return order, widest


def _add_product(poly: dict[int, int], factor: dict[int, int], into: dict[int, int]) -> None:
    """into += poly * factor, on dicts keyed by the doubled exponent."""
    for k, c in poly.items():
        for dk, dc in factor.items():
            into[k + dk] = into.get(k + dk, 0) + c * dc


def _slot_paths(link: list[int], joins: tuple[int, ...]) -> tuple[list[tuple[int, int]], int]:
    """The strands through one smoothed crossing: link[s] is the slot that
    slot s reaches outside the crossing, or -1 when it reaches an open
    boundary arc; joins pairs the slots inside it.  Returns the pairs of
    slots that leave on boundary arcs and the number of closed loops."""
    seen = [False] * 4
    paths = []
    for s in range(4):
        if link[s] < 0 and not seen[s]:
            seen[s] = True
            t = joins[s]
            while link[t] >= 0:
                seen[t] = True
                t = link[t]
                seen[t] = True
                t = joins[t]
            seen[t] = True
            paths.append((s, t))
    loops = 0
    for s in range(4):
        if not seen[s]:
            loops += 1
            while not seen[s]:
                seen[s] = seen[joins[s]] = True
                s = link[joins[s]]
    return paths, loops


def _contract(d: PlanarDiagram) -> HalfLaurent:
    """Contract the crossings one at a time in _contraction_order.

    After each step the open boundary is the list of arcs with one end
    contracted.  A state is the planar matching the contracted part makes
    on them, as a tuple of partner positions, and carries its coefficients
    keyed by the doubled A-exponent.  Contracting a crossing smooths it
    both ways, follows each strand through it to its new partner, and
    multiplies by delta = -A^2 - A^(-2) for each loop that closes.  The
    last crossing closes at least one loop in every state, so there the
    factor is delta^(loops - 1) and the result needs no division by delta.
    An arc at no crossing is a free loop and adds one more factor delta.
    """
    order, widest = _contraction_order(d.crossings)
    if widest > BOUNDARY_WIDTH_CAP:
        raise WidthLimitError(
            f"contraction boundary width {widest} exceeds the cap {BOUNDARY_WIDTH_CAP}"
        )
    at_crossings = {a for x in d.crossings for a in x}
    free = sum(a not in at_crossings for a in d.arcs)
    if not order:
        free -= 1  # the one loop the unknot's bracket does not count
    states: dict[tuple[int, ...], dict[int, int]] = {(): {0: 1}}
    boundary: list[int] = []
    for step, k in enumerate(order):
        x = d.crossings[k]
        pos = {a: i for i, a in enumerate(boundary)}
        at_slot = [-1] * len(boundary)  # boundary position -> its slot here
        old = []  # (slot, boundary position) of the arcs this crossing closes
        fixed = [-1] * 4  # slot -> the other slot of an arc with both ends here
        opened = []
        for s, a in enumerate(x):
            if a in pos:
                at_slot[pos[a]] = s
                old.append((s, pos[a]))
            elif x.count(a) == 2:
                fixed[s] = next(t for t in range(4) if t != s and x[t] == a)
            else:
                opened.append(s)
        kept = [i for i, s in enumerate(at_slot) if s < 0]
        renum = [-1] * len(boundary)
        for j, i in enumerate(kept):
            renum[i] = j
        opened_at = [-1] * 4  # slot -> boundary position of the arc it opens
        for j, s in enumerate(opened):
            opened_at[s] = len(kept) + j
        boundary = [boundary[i] for i in kept] + [x[s] for s in opened]
        last = step == len(order) - 1
        # where the strands through the crossing go depends only on which
        # of its slots the state joins outside it, so each pattern is
        # smoothed once
        smoothed: dict[tuple[int, ...], list] = {}
        nxt: dict[tuple[int, ...], dict[int, int]] = {}
        for m, poly in states.items():
            key = tuple(at_slot[m[i]] for _, i in old)
            if key not in smoothed:
                link = fixed[:]
                for (s, _), t in zip(old, key):
                    link[s] = t
                smoothed[key] = []
                for e, joins in _SMOOTHINGS:
                    pairs, loops = _slot_paths(link, joins)
                    factor = {dk + e: dc for dk, dc in _DELTA_POWERS[loops - last].items()}
                    smoothed[key].append((pairs, factor))
            ends = opened_at[:]
            for (s, i), t in zip(old, key):
                if t < 0:
                    ends[s] = renum[m[i]]
            base = [renum[m[i]] for i in kept] + [0] * len(opened)
            for pairs, factor in smoothed[key]:
                nm = base[:]
                for s, t in pairs:
                    nm[ends[s]], nm[ends[t]] = ends[t], ends[s]
                nm = tuple(nm)
                if nm not in nxt:
                    nxt[nm] = {}
                _add_product(poly, factor, nxt[nm])
        states = nxt
    (poly,) = states.values()
    for _ in range(free):
        out: dict[int, int] = {}
        _add_product(poly, _DELTA_POWERS[1], out)
        poly = out
    return HalfLaurent.from_dict(poly)


# ---------------------------------------------------------------------------
# Jones normalization


def _bracket_to_jones(bracket: HalfLaurent, writhe: int) -> HalfLaurent:
    """(-A)^(-3w) <D> followed by t = A^(-4), reported in t."""
    sign = -1 if writhe % 2 else 1
    normalized = bracket * HalfLaurent.monomial(-6 * writhe, sign)
    out: dict[int, int] = {}
    for k, c in normalized.terms:
        # k is the doubled A-exponent 2e; the t-term is t^(-e/4)
        if k % 4:
            raise AssertionError("normalized bracket exponent not a multiple of 4")
        out[-k // 4] = c
    return HalfLaurent.from_dict(out)


def jones(d: PlanarDiagram) -> HalfLaurent:
    """Jones polynomial of an oriented diagram, in the t-normalization."""
    return _bracket_to_jones(kauffman_bracket(d), sum(d.signs))


def jones_of_braid(b: BraidWord) -> HalfLaurent:
    """Jones polynomial of the closure of b."""
    return _bracket_to_jones(bracket_of_braid(b), b.writhe)


def two_strand_invariant(v_jones: HalfLaurent) -> HalfLaurent:
    """The 2-variable-free skein invariant P_2 in the q-normalization:
    [2] times the Jones value carried through sqrt(q) -> -1/sqrt(t)."""
    return quantum_integer(2) * v_jones.substitute_neg_inv_sqrt()


# ---------------------------------------------------------------------------
# periodicity congruence checks


@dataclass(frozen=True)
class CongruenceReport:
    """Outcome of one congruence test mod (p, generator)."""

    passed: bool
    p: int
    lhs: HalfLaurent
    rhs: HalfLaurent
    residual: HalfLaurent


def require_period(p: int) -> None:
    """Refuse p unless it is an odd prime, the periods the Murasugi and
    Yokota congruences speak of."""
    require_prime("p", p, odd=True)


def _congruence(lhs: HalfLaurent, rhs: HalfLaurent, p: int, gen: HalfLaurent) -> CongruenceReport:
    residual = reduce_mod(lhs - rhs, p, gen)
    return CongruenceReport(residual.is_zero, p, lhs, rhs, residual)


def murasugi_check(b: BraidWord, p: int) -> CongruenceReport:
    """Compare the closure of b^p against the p-th power of the closure of
    b modulo (p, eta_p(t)); the congruence holds whenever the big link is
    p-periodic with the small one as quotient, which is true here by
    construction."""
    require_period(p)
    big = jones_of_braid(BraidWord(b.strands, b.letters * p))
    return _congruence(big, jones_of_braid(b) ** p, p, eta(p))


def p2_check(b: BraidWord, p: int) -> CongruenceReport:
    """Same comparison for the q-normalized two-strand invariant modulo
    (p, [2]^p - [2]); p = 2 is allowed here."""
    require_prime("p", p)
    two = quantum_integer(2)
    lhs = two_strand_invariant(jones_of_braid(BraidWord(b.strands, b.letters * p)))
    rhs = two_strand_invariant(jones_of_braid(b)) ** p
    return _congruence(lhs, rhs, p, two**p - two)


def yokota_check(d: PlanarDiagram, p: int) -> CongruenceReport:
    """Self-congruence V(t) = t^(2 lk) V(1/t) mod (p, t^p - 1), a necessary
    condition for p-periodicity; odd primes only."""
    require_period(p)
    return _yokota(jones(d), d, p)


def yokota_check_braid(b: BraidWord, p: int) -> CongruenceReport:
    """yokota_check for a braid closure; the one closure feeds both the
    bracket and the linking number."""
    require_period(p)
    d = closure(b)
    return _yokota(_bracket_to_jones(_contract(d), b.writhe), d, p)


def _yokota(v: HalfLaurent, d: PlanarDiagram, p: int) -> CongruenceReport:
    rhs = HalfLaurent.monomial(2 * doubled_linking(d)) * v.mirror()
    return _congruence(v, rhs, p, HalfLaurent.from_dict({2 * p: 1, 0: -1}))  # t^p - 1
