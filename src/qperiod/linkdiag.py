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
* Bracket polynomials live in the variable A with loop value
  -A^2 - A^(-2) and <unknot> = 1; the Jones polynomial is
  (-A)^(-3w) <D> under t = A^(-4), reported in the t-normalization.

Two bracket evaluators are provided and cross-checked in the tests: a
direct state sum over a planar diagram (exponential in crossings, guarded
by a cap) and a Temperley-Lieb transfer evaluation along a braid word
(polynomial in word length for fixed strand count), which keeps the
periodicity checks fast for words raised to prime powers.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .modular import is_prime
from .qpoly import HalfLaurent, eta, poly_to_json, quantum_integer, reduce_mod

LOOP_VALUE = HalfLaurent.from_dict({4: -1, -4: -1})  # -A^2 - A^(-2)

DEFAULT_CROSSING_CAP = 24


class CrossingLimitError(ValueError):
    """State-sum bracket refused: too many crossings for 2^c enumeration."""


# ---------------------------------------------------------------------------
# braid words


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group: letters +-i act on positions i, i+1."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise ValueError("braid needs at least one strand")
        for w in self.letters:
            if w == 0 or abs(w) >= self.strands:
                raise ValueError(f"letter {w} invalid for {self.strands} strands")

    @property
    def writhe(self) -> int:
        return sum(1 if w > 0 else -1 for w in self.letters)


def parse_braid(text: str) -> BraidWord:
    """Parse 'strands N : w1 w2 ...'; an empty letter list is allowed."""
    m = re.fullmatch(r"\s*strands\s+(\d+)\s*:\s*((?:-?\d+\s*)*)", text)
    if not m:
        raise ValueError(f"cannot parse braid {text!r}; expected 'strands N : w1 w2 ...'")
    strands = int(m.group(1))
    letters = tuple(int(tok) for tok in m.group(2).split())
    return BraidWord(strands, letters)


def braid_power(b: BraidWord, p: int) -> BraidWord:
    if p < 1:
        raise ValueError("braid power must be >= 1")
    return BraidWord(b.strands, b.letters * p)


# ---------------------------------------------------------------------------
# planar diagrams


@dataclass(frozen=True)
class PlanarDiagram:
    """An oriented link diagram.

    crossings[k] is the X(a, b, c, d) tuple of crossing k and signs[k] its
    sign under the stored orientations.  components lists each link
    component as the cyclic sequence of its arcs in flow order; circles
    with no crossing appear as singleton components.
    """

    crossings: tuple[tuple[int, int, int, int], ...]
    signs: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.signs) != len(self.crossings):
            raise ValueError("one sign per crossing required")
        if not self.components:
            raise ValueError("diagram needs at least one component")
        comp_arcs: list[int] = [a for comp in self.components for a in comp]
        if len(set(comp_arcs)) != len(comp_arcs):
            raise ValueError("components must partition the arcs")
        uses: dict[int, int] = {}
        for x in self.crossings:
            for a in x:
                uses[a] = uses.get(a, 0) + 1
        arcset = set(comp_arcs)
        for a, n in uses.items():
            if a not in arcset:
                raise ValueError(f"arc {a} appears at a crossing but in no component")
            if n != 2:
                raise ValueError(f"arc {a} must appear exactly twice at crossings, saw {n}")
        succ = self._successors()
        for (a, _, c, _), _s in zip(self.crossings, self.signs):
            if succ[a] != c:
                raise ValueError(f"under-strand {a} -> {c} contradicts component order")
        for comp in self.components:
            if len(comp) == 1 and comp[0] in uses:
                raise ValueError(f"arc {comp[0]} cannot both cross and close a free loop")

    def _successors(self) -> dict[int, int]:
        succ: dict[int, int] = {}
        for comp in self.components:
            for i, a in enumerate(comp):
                succ[a] = comp[(i + 1) % len(comp)]
        return succ

    @property
    def arcs(self) -> tuple[int, ...]:
        return tuple(a for comp in self.components for a in comp)


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
    # the closure identifies the bottom arc at each position with the top arc
    parent = list(range(next_arc))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for pos in range(n):
        ra, rb = find(pos + 1), find(current[pos])
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    reps = sorted({find(a) for a in range(1, next_arc)})
    relabel = {rep: i + 1 for i, rep in enumerate(reps)}
    label = {a: relabel[find(a)] for a in range(1, next_arc)}
    crossings = tuple(tuple(label[a] for a in x) for x in raw)
    # successor map gives the oriented components
    succ: dict[int, int] = {}
    for (a, bb, c, d), s in zip(crossings, signs):
        succ[a] = c
        if s > 0:
            succ[d] = bb
        else:
            succ[bb] = d
    all_arcs = sorted(set(label.values()))
    for a in all_arcs:
        succ.setdefault(a, a)  # free loop
    comps: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for a in all_arcs:
        if a in seen:
            continue
        cyc = [a]
        seen.add(a)
        nxt = succ[a]
        while nxt != a:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = succ[nxt]
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
    succ: dict[int, int] = {}
    for comp in comps:
        for i, a in enumerate(comp):
            if a in succ:
                raise ValueError(f"arc {a} listed twice in components")
            succ[a] = comp[(i + 1) % len(comp)]
    for a, bb, c, d in crossings:
        for arc in (a, bb, c, d):
            if arc not in succ:
                raise ValueError(f"arc {arc} at a crossing is missing from components")
        if succ.get(a) != c:
            raise ValueError(f"crossing X({a},{bb},{c},{d}): under-strand must run {a} -> {c}")
    signs = _derive_signs(tuple(crossings), succ)
    return PlanarDiagram(tuple(crossings), signs, tuple(comps))


def _derive_signs(
    crossings: tuple[tuple[int, int, int, int], ...], succ: dict[int, int]
) -> tuple[int, ...]:
    """Signs from orientation: positive iff the over-strand runs d -> b.

    When the over-strand's two arcs form a two-arc component, the
    successor map is cyclically symmetric and does not pick a direction;
    then the arcs' other crossing slots break the tie (a slot is always an
    arrival, c always a departure, and every arc arrives exactly once and
    departs exactly once), propagated until all crossings resolve.
    """
    occurrences: dict[int, list[tuple[int, int]]] = {}
    for k, x in enumerate(crossings):
        for slot, e in enumerate(x):
            occurrences.setdefault(e, []).append((k, slot))
    over_in: dict[int, int] = {}  # crossing -> arc the over-strand arrives on

    def slot_arrival(k: int, slot: int) -> bool | None:
        if slot == 0:
            return True
        if slot == 2:
            return False
        if k not in over_in:
            return None
        return crossings[k][slot] == over_in[k]

    def other_slot_arrival(e: int, here: tuple[int, int]) -> bool | None:
        spots = [s for s in occurrences[e] if s != here]
        if len(spots) != 1:
            return None  # both occurrences inside one over-pass; hopeless
        return slot_arrival(*spots[0])

    pending = set(range(len(crossings)))
    while pending:
        progressed = False
        for k in sorted(pending):
            a, bb, c, d = crossings[k]
            d_then_b = succ.get(d) == bb
            b_then_d = succ.get(bb) == d
            if not d_then_b and not b_then_d:
                raise ValueError(
                    f"crossing X({a},{bb},{c},{d}): over-strand {bb}-{d} has no orientation"
                )
            if d_then_b and not b_then_d:
                over_in[k] = d
            elif b_then_d and not d_then_b:
                over_in[k] = bb
            else:
                arrives = other_slot_arrival(bb, (k, 1))
                if arrives is not None:
                    # bb arrives at its other slot iff it departs here
                    over_in[k] = d if arrives else bb
                else:
                    arrives = other_slot_arrival(d, (k, 3))
                    if arrives is None:
                        continue
                    over_in[k] = bb if arrives else d
            pending.discard(k)
            progressed = True
        if not progressed:
            ks = ", ".join(str(k) for k in sorted(pending))
            raise ValueError(f"cannot orient the over-strand at crossings {ks}")
    for e, spots in occurrences.items():
        kinds = sorted(slot_arrival(*s) for s in spots)
        if kinds != [False, True]:
            raise ValueError(f"arc {e} does not arrive exactly once and depart exactly once")
    return tuple(1 if over_in[k] == x[3] else -1 for k, x in enumerate(crossings))


def pd_text(d: PlanarDiagram) -> str:
    lines = [f"X({a},{b},{c},{e})" for a, b, c, e in d.crossings]
    lines += ["component " + " ".join(str(a) for a in comp) for comp in d.components]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# linking data


@dataclass(frozen=True)
class LinkingData:
    """Symmetric linking matrix in the blackboard framing.

    Diagonal entries are self-writhes; off-diagonal entries are pairwise
    linking numbers.  total_lk_doubled is the sum of the entries above the
    diagonal, which is twice the total linking number of the link.
    """

    matrix: tuple[tuple[int, ...], ...]
    writhe: int
    total_lk_doubled: int


def linking_data(d: PlanarDiagram) -> LinkingData:
    comp_of: dict[int, int] = {}
    for ci, comp in enumerate(d.components):
        for a in comp:
            comp_of[a] = ci
    m = len(d.components)
    acc = [[0] * m for _ in range(m)]
    for (a, bb, _c, _dd), s in zip(d.crossings, d.signs):
        cu, co = comp_of[a], comp_of[bb]
        if cu == co:
            acc[cu][cu] += s
        else:
            acc[cu][co] += s
            acc[co][cu] += s
    total = sum(acc[i][j] for i in range(m) for j in range(i + 1, m))
    for i in range(m):
        for j in range(m):
            if i != j:
                if acc[i][j] % 2:
                    raise ValueError("odd inter-component crossing sum; diagram is malformed")
                acc[i][j] //= 2
    return LinkingData(tuple(tuple(row) for row in acc), sum(d.signs), total)


# ---------------------------------------------------------------------------
# bracket by state sum


def kauffman_bracket(d: PlanarDiagram) -> HalfLaurent:
    """Direct 2^c state sum; exact, intended for desk-scale diagrams, and
    refused before any work above DEFAULT_CROSSING_CAP crossings."""
    c = len(d.crossings)
    if c > DEFAULT_CROSSING_CAP:
        raise CrossingLimitError(f"{c} crossings exceeds the state-sum cap {DEFAULT_CROSSING_CAP}")
    arcs = sorted(set(d.arcs))
    idx = {a: i for i, a in enumerate(arcs)}
    n_arcs = len(arcs)
    counts: dict[tuple[int, int], int] = {}
    for state in range(1 << c):
        parent = list(range(n_arcs))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x: int, y: int) -> None:
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[ry] = rx

        for k, (a, bb, cc, dd) in enumerate(d.crossings):
            if state >> k & 1:
                union(idx[a], idx[dd])
                union(idx[bb], idx[cc])
            else:
                union(idx[a], idx[bb])
                union(idx[cc], idx[dd])
        loops = len({find(i) for i in range(n_arcs)})
        n_b = bin(state).count("1")
        key = (c - 2 * n_b, loops)
        counts[key] = counts.get(key, 0) + 1
    out = HalfLaurent.zero()
    delta_pow: dict[int, HalfLaurent] = {0: HalfLaurent.one()}

    def dpow(e: int) -> HalfLaurent:
        if e not in delta_pow:
            delta_pow[e] = dpow(e - 1) * LOOP_VALUE
        return delta_pow[e]

    for (a_exp, loops), mult in sorted(counts.items()):
        out = out + HalfLaurent.monomial(2 * a_exp, mult) * dpow(loops - 1)
    return out


# ---------------------------------------------------------------------------
# bracket by Temperley-Lieb transfer along a braid word


def _apply_cupcap(match: tuple[int, ...], bi: int, bj: int) -> tuple[tuple[int, ...], int]:
    """Join the partners of bottom points bi, bj and re-cap them.

    Returns the new matching and the number of closed loops removed (0/1).
    """
    p, q = match[bi], match[bj]
    m = list(match)
    if p == bj:
        return tuple(m), 1
    m[p], m[q] = q, p
    m[bi], m[bj] = bj, bi
    return tuple(m), 0


def bracket_of_braid(b: BraidWord) -> HalfLaurent:
    """Bracket of the closure of b via planar-matching transfer.

    Positive letters expand as A * (identity) + A^(-1) * (cup-cap),
    negative letters with the two weights exchanged; the trace closure
    joins top point i to bottom point i."""
    n = b.strands
    ident = tuple(list(range(n, 2 * n)) + list(range(n)))
    states: dict[tuple[int, ...], HalfLaurent] = {ident: HalfLaurent.one()}
    for w in b.letters:
        i = abs(w) - 1
        bi, bj = n + i, n + i + 1
        weight_id = HalfLaurent.monomial(2 if w > 0 else -2)
        weight_e = HalfLaurent.monomial(-2 if w > 0 else 2)
        nxt: dict[tuple[int, ...], HalfLaurent] = {}
        for m, cf in states.items():
            prev = nxt.get(m)
            add = cf * weight_id
            nxt[m] = add if prev is None else prev + add
            m2, nl = _apply_cupcap(m, bi, bj)
            w_e = cf * weight_e
            if nl:
                w_e = w_e * LOOP_VALUE
            prev = nxt.get(m2)
            nxt[m2] = w_e if prev is None else prev + w_e
        states = {m: cf for m, cf in nxt.items() if not cf.is_zero}
    out = HalfLaurent.zero()
    for m, cf in states.items():
        seen = [False] * (2 * n)
        loops = 0
        for start in range(2 * n):
            if seen[start]:
                continue
            loops += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = m[x]  # cross the tangle
                seen[x] = True
                x = x + n if x < n else x - n  # close around
        dl = HalfLaurent.one()
        for _ in range(loops - 1):
            dl = dl * LOOP_VALUE
        out = out + cf * dl
    return out


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
    """Jones polynomial of the closure of b, via the transfer bracket."""
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

    def to_json(self, var: str = "t") -> dict:
        return {
            "passed": self.passed,
            "p": self.p,
            "lhs": poly_to_json(self.lhs, var),
            "rhs": poly_to_json(self.rhs, var),
            "residual": poly_to_json(self.residual, var),
        }


def murasugi_check(b: BraidWord, p: int) -> CongruenceReport:
    """Compare the closure of b^p against the p-th power of the closure of
    b modulo (p, eta_p(t)); the congruence holds whenever the big link is
    p-periodic with the small one as quotient, which is true here by
    construction."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"need an odd prime period, got {p}")
    lhs = jones_of_braid(braid_power(b, p))
    rhs = jones_of_braid(b) ** p
    residual = reduce_mod(lhs - rhs, p, eta(p))
    return CongruenceReport(residual.is_zero, p, lhs, rhs, residual)


def p2_check(b: BraidWord, p: int) -> CongruenceReport:
    """Same comparison for the q-normalized two-strand invariant modulo
    (p, [2]^p - [2]); p = 2 is allowed here."""
    if not is_prime(p):
        raise ValueError(f"need a prime period, got {p}")
    two = quantum_integer(2)
    gen = two**p - two
    lhs = two_strand_invariant(jones_of_braid(braid_power(b, p)))
    rhs = two_strand_invariant(jones_of_braid(b)) ** p
    residual = reduce_mod(lhs - rhs, p, gen)
    return CongruenceReport(residual.is_zero, p, lhs, rhs, residual)


def _yokota_from_jones(v: HalfLaurent, lk_doubled: int, p: int) -> CongruenceReport:
    lhs = v
    rhs = HalfLaurent.monomial(2 * lk_doubled) * v.mirror()
    gen = HalfLaurent.from_dict({2 * p: 1, 0: -1})  # t^p - 1
    residual = reduce_mod(lhs - rhs, p, gen)
    return CongruenceReport(residual.is_zero, p, lhs, rhs, residual)


def yokota_check(d: PlanarDiagram, p: int) -> CongruenceReport:
    """Self-congruence V(t) = t^(2 lk) V(1/t) mod (p, t^p - 1), a necessary
    condition for p-periodicity; odd primes only."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"need an odd prime period, got {p}")
    return _yokota_from_jones(jones(d), linking_data(d).total_lk_doubled, p)


def yokota_check_braid(b: BraidWord, p: int) -> CongruenceReport:
    """yokota_check for a braid closure, with the Jones value computed by
    the transfer bracket so long powers stay cheap."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"need an odd prime period, got {p}")
    lk2 = linking_data(closure(b)).total_lk_doubled
    return _yokota_from_jones(jones_of_braid(b), lk2, p)
