"""Reference routines the tests check the package against.

None of them is used by the package.  `complex_eval` is the independent
numeric image of an element of Z[xi], `ideal_member` the one-shift-at-a-time
route, a gcd and a division over GF(p) (`fp_gcd`, `fp_divides`), that
`tau.quotient_congruence_test` replaced by reading p mod r,
`schoolbook_product` the coordinate double loop that the packed Z[xi]
product replaced, `dict_product` the pair loop over terms that
`modular.poly_mul` replaced in `HalfLaurent.__mul__`,
`divide_by_one_minus_xi` the partial-sum division by 1 - xi that
`cyclo.divide_power_vector` replaced, `twisted_division` the
twist-divide-twist route to 1 - xi^e, e any unit mod r, which serves
`f_unknot` and `mirror_unknot`, the chains of divisions by
1 - xi^(beta|rho) and by 1 - xi^-(beta|rho) that the twisted conjugate of
gamma in `liedata.verify_ratio` replaced,
`kernel_size` the Gram elimination mod r that `liedata.gauss_report`
replaced by the constant 1 at every level it admits,
`gauss_sum_by_definition` the Gauss sum with each exponent read off the
bilinear form and the rho pairing, which the one pass over the upper
Cartan entries in `liedata.gauss_sum` replaced,
`det_fraction` and `solve_linear` the rational elimination that
the integer cofactors of `liedata.constants` replaced,
`level_discriminant_row` the per-level route through tau in Z[xi] that
the integers of `tau.discriminant_integers` replaced, `window_tau_sum`
the O(r^2) sum of windows W(n) that the Eichler sum of `tau` replaced,
`state_sum_bracket` the one-state-at-a-time enumeration and
`transfer_bracket` the Temperley-Lieb transfer along a braid word that
the contraction behind `linkdiag.kauffman_bracket` and
`linkdiag.bracket_of_braid` replaced,
`self_twists_by_rotation` the one-comparison-per-twist search that the
digit rule in `tau` replaced, `shifts_by_constant_difference` the
one-comparison-per-shift loop that the rotation search of
`tau.quotient_congruence_test` replaced, `crt_symmetric` the Chinese remaindering
that `tau.period_discriminant` replaced by reducing one integer, and the two
identity checks are facts about Z[T] and the eta moduli that the
congruences rest on.  The small predicates below them (divisibility,
residues, braid permutations, free loops, root pairings, the resummed
Ohtsuki expansion) state in the tests what a result must satisfy.
"""
from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

from qperiod.cyclo import (
    CyclotomicInt,
    NotDivisibleError,
    OhtsukiExpansion,
    make,
    ohtsuki_digits,
    twist_conjugate,
)
from qperiod.liedata import RootSystem, gauss_sum
from qperiod.linkdiag import BraidWord, PlanarDiagram
from qperiod.modular import fp_rem, is_prime
from qperiod.qpoly import HalfLaurent, eta, quantum_integer, reduce_mod
from qperiod.tau import tau_for

LOOP_VALUE = HalfLaurent.from_dict({4: -1, -4: -1})  # -A^2 - A^(-2)


def complex_eval(x: CyclotomicInt, which_root: int = 1) -> complex:
    """Numeric image of x under xi -> exp(2 pi i k / r), gcd(k, r) = 1."""
    if math.gcd(which_root, x.r) != 1:
        raise ValueError("which_root must be invertible mod r")
    w = 2j * cmath.pi * which_root / x.r
    return sum(c * cmath.exp(w * i) for i, c in enumerate(x.coeffs))


def fp_trim(coeffs: list[int], p: int) -> list[int]:
    """A dense polynomial over GF(p): coefficients reduced into [0, p),
    index = degree, no trailing zeros, zero poly = []."""
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over GF(p); gcd(0, 0) = 0."""
    a, b = fp_trim(a, p), fp_trim(b, p)
    while b:
        a, b = b, fp_rem(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def fp_divides(den: list[int], num: list[int], p: int) -> bool:
    den, num = fp_trim(den, p), fp_trim(num, p)
    if not num:
        return True
    if not den:
        return False
    return not fp_rem(num, den, p)


def ideal_member(x: CyclotomicInt, p: int, gen: CyclotomicInt) -> bool:
    """Whether x lies in the ideal (p, gen) of Z[xi].

    Modulo p the ring becomes GF(p)[T] / (1 + T + ... + T^(r-1)), where the
    ideal generated by gen is principal with generator
    g = gcd(gen, 1 + T + ... + T^(r-1)); membership is divisibility by g.
    A constant gcd means the ideal is the whole ring mod p, and a zero
    generator leaves the pure congruence x = 0 mod p.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if x.r != gen.r:
        raise ValueError(f"mixed rings: r={x.r} vs r={gen.r}")
    g = fp_gcd([1] * x.r, fp_trim(list(gen.coeffs), p), p)
    if len(g) == 1:
        return True
    return fp_divides(g, fp_trim(list(x.coeffs), p), p)


def binomial_expansion_identity(r: int) -> bool:
    """Check 1 + T + ... + T^(r-1) = sum_{k=1}^{r} C(r, k) (T - 1)^(k-1)
    as an exact identity in Z[T]."""
    lhs = [1] * r
    rhs = [0] * r
    pw = [1]  # (T - 1)^(k-1)
    for k in range(1, r + 1):
        cc = math.comb(r, k)
        for i, c in enumerate(pw):
            rhs[i] += cc * c
        nxt = [0] * (len(pw) + 1)
        for i, c in enumerate(pw):
            nxt[i] -= c
            nxt[i + 1] += c
        pw = nxt
    return lhs == rhs


def remark_identity_check(p: int) -> bool:
    """Verify (t + 1) eta_p(t) = q^(-p/2) ([2]^p - [2]) under
    sqrt(q) -> -1/sqrt(t), coefficientwise mod p."""
    lhs = (HalfLaurent.monomial(2) + HalfLaurent.monomial(0)) * eta(p)
    two = quantum_integer(2)
    rhs = (HalfLaurent.monomial(-p) * (two**p - two)).substitute_neg_inv_sqrt()
    return coeffs_divisible_by(lhs - rhs, p)


def schoolbook_product(x: CyclotomicInt, y: CyclotomicInt) -> CyclotomicInt:
    """x * y by the O(r^2) double loop over coordinates."""
    r = x.r
    acc = [0] * r
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            acc[(i + j) % r] += a * b
    return CyclotomicInt(r, tuple(c - acc[r - 1] for c in acc[:-1]))


def dict_product(f: HalfLaurent, g: HalfLaurent) -> HalfLaurent:
    """f * g by the double loop over pairs of terms."""
    acc: dict[int, int] = {}
    for k1, c1 in f.terms:
        for k2, c2 in g.terms:
            k = k1 + k2
            acc[k] = acc.get(k, 0) + c1 * c2
    return HalfLaurent.from_dict(acc)


def divide_by_one_minus_xi(x: CyclotomicInt) -> CyclotomicInt:
    """Exact quotient x / (1 - xi) as plain partial sums; requires the
    coefficient sum of x to vanish mod r.

    The canonical polynomial of x gains an exact factor of (1 - T) after
    subtracting (sum/r) copies of 1 + T + ... + T^(r-1), and the quotient
    coefficients are its partial sums.
    """
    r = x.r
    s = sum(x.coeffs)
    if s % r != 0:
        raise NotDivisibleError(
            f"element with coefficient-sum residue {s % r} is not divisible by (1 - xi)"
        )
    c = s // r
    out = []
    run = 0
    for a in x.coeffs:
        run += a - c
        out.append(run)
    assert run - c == 0
    return CyclotomicInt(r, tuple(out))


def twisted_division(x: CyclotomicInt, e: int) -> CyclotomicInt:
    """Exact quotient x / (1 - xi^e) for e invertible mod r: the Galois
    twist xi -> xi^e carries 1 - xi to 1 - xi^e, so the quotient is the
    twist by e of (x twisted by 1/e) / (1 - xi)."""
    return divide_by_one_minus_xi(x.galois(pow(e, -1, x.r))).galois(e)


def gauss_sum_by_definition(rs: RootSystem, r: int) -> CyclotomicInt:
    """Sum of xi^((mu|mu)/2 + (mu|rho)) over the r^l root-lattice cosets,
    with (mu|mu) from the whole Gram matrix; it is even on the root
    lattice."""
    return make(r, (
        (rs.bilinear(mu, mu) // 2 + rs.rho_pairing(mu), 1)
        for mu in itertools.product(range(r), repeat=rs.rank)
    ))


def f_unknot(rs: RootSystem, r: int) -> CyclotomicInt:
    """The unknot normaliser gamma over prod(1 - xi^(beta|rho)) over the
    positive roots beta, one exact division per root.  The chain cannot
    fail: for prime r > d*h_dual, gamma times its conjugate is r^l, so
    gamma has (1 - xi)-adic valuation l(r-1)/2, at least |Phi+| = l*h/2
    because r > h."""
    quotient = gauss_sum(rs, r)
    for beta in rs.positive_roots:
        quotient = twisted_division(quotient, rs.rho_pairing(beta))
    return quotient


def mirror_unknot(rs: RootSystem, r: int) -> CyclotomicInt:
    """conj(gamma) over prod(1 - xi^-(beta|rho)) over the positive roots
    beta, one exact division per root."""
    quotient = twist_conjugate(gauss_sum(rs, r), 0)
    for beta in rs.positive_roots:
        quotient = twisted_division(quotient, -rs.rho_pairing(beta))
    return quotient


def kernel_size(rs: RootSystem, r: int) -> int:
    """r^(l - rank of the Gram matrix over the r-element field), r prime,
    by Gauss-Jordan elimination."""
    l = rs.rank
    m = [[rs.d[i] * rs.cartan[i][j] % r for j in range(l)] for i in range(l)]
    rank = 0
    for col in range(l):
        pivot = next((k for k in range(rank, l) if m[k][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, r)
        m[rank] = [x * inv % r for x in m[rank]]
        for k in range(l):
            if k != rank and m[k][col]:
                f = m[k][col]
                m[k] = [(x - f * y) % r for x, y in zip(m[k], m[rank])]
        rank += 1
    return r ** (l - rank)


def det_fraction(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over Q."""
    n = len(rows)
    m = [row[:] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return det


def solve_linear(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """The solution of rows * x = rhs by Gauss-Jordan elimination over Q;
    rows must be invertible."""
    n = len(rows)
    m = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col])
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def level_discriminant_row(manifold_id: str, r: int) -> tuple[int, int, int]:
    """(r, v, delta) from the invariant at level r: its digits a_0 .. a_3,
    the twist v = -2 a_1 / a_0 mod r and delta = a_3(x) - a_3(xi^v conj x)
    mod r, in O(r) for the invariant."""
    x = tau_for(manifold_id, r).value
    a0, a1, _, a3 = ohtsuki_digits(x, 3)
    v = (-2 * a1 * pow(a0, -1, r)) % r
    return r, v, (a3 - ohtsuki_digits(twist_conjugate(x, v), 3)[3]) % r


def window_tau_sum(r: int, front_exponent) -> CyclotomicInt:
    """sum_n xi^f(n) W(n) over n < (r-1)/2, with the windows
    W(n) = prod_{k=n+1}^{2n+1} (1 - xi^k) / (1 - xi) built by the recurrence
    W(0) = 1, W(n) = W(n-1) (1 + xi^n) (1 - xi^(2n+1)) as shift-and-add
    steps on power-basis vectors: O(r) per window, O(r^2) per level.  Once
    2n+1 >= r the window holds a multiple of r, so W(n) = 0."""

    def times_binomial(w: list[int], sign: int, k: int) -> list[int]:
        return [a + sign * b for a, b in zip(w, w[-k:] + w[:-k])]  # w * (1 + sign xi^k)

    total = [0] * r
    window = [1] + [0] * (r - 1)
    for n in range((r - 1) // 2):
        if n:
            window = times_binomial(times_binomial(window, 1, n), -1, 2 * n + 1)
        s = front_exponent(n) % r
        total = [a + b for a, b in zip(total, window[-s:] + window[:-s])]
    return make(r, enumerate(total))


def state_sum_bracket(d: PlanarDiagram) -> HalfLaurent:
    """The bracket of d one state at a time: for each of the 2^c states a
    fresh union-find over the arcs, its loops counted as the distinct roots."""
    c = len(d.crossings)
    arcs = sorted(set(d.arcs))
    idx = {a: i for i, a in enumerate(arcs)}
    counts: dict[tuple[int, int], int] = {}
    for state in range(1 << c):
        parent = list(range(len(arcs)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x: int, y: int) -> None:
            parent[find(y)] = find(x)

        for k, (a, bb, cc, dd) in enumerate(d.crossings):
            if state >> k & 1:
                union(idx[a], idx[dd])
                union(idx[bb], idx[cc])
            else:
                union(idx[a], idx[bb])
                union(idx[cc], idx[dd])
        key = (c - 2 * bin(state).count("1"), len({find(i) for i in range(len(arcs))}))
        counts[key] = counts.get(key, 0) + 1
    out = HalfLaurent()
    for (a_exp, loops), mult in counts.items():
        out = out + HalfLaurent.monomial(2 * a_exp, mult) * LOOP_VALUE ** (loops - 1)
    return out


def apply_cupcap(match: tuple[int, ...], bi: int, bj: int) -> tuple[tuple[int, ...], int]:
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


def transfer_bracket(b: BraidWord) -> HalfLaurent:
    """Bracket of the closure of b via planar-matching transfer.

    Positive letters expand as A * (identity) + A^(-1) * (cup-cap),
    negative letters with the two weights exchanged; the trace closure
    joins top point i to bottom point i."""
    n = b.strands
    ident = tuple(list(range(n, 2 * n)) + list(range(n)))
    states: dict[tuple[int, ...], HalfLaurent] = {ident: HalfLaurent.monomial(0)}
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
            m2, nl = apply_cupcap(m, bi, bj)
            w_e = cf * weight_e
            if nl:
                w_e = w_e * LOOP_VALUE
            prev = nxt.get(m2)
            nxt[m2] = w_e if prev is None else prev + w_e
        states = {m: cf for m, cf in nxt.items() if not cf.is_zero}
    out = HalfLaurent()
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
        out = out + cf * LOOP_VALUE ** (loops - 1)
    return out


def self_twists_by_rotation(x: CyclotomicInt) -> tuple[int, ...]:
    """Every v in [0, r) with x = xi^v conj(x) mod r, comparing the
    residue vector with its twist once per v, O(r^2) in all."""
    r = x.r
    pv = [c % r for c in x.coeffs] + [0]
    return tuple(v for v in range(r) if pv[v::-1] + pv[:v:-1] == pv)


def shifts_by_constant_difference(
    x_m: CyclotomicInt, x_m_prime: CyclotomicInt, p: int
) -> tuple[int, ...]:
    """Every u in [0, 2r) with (-xi)^u sigma_p(x_m') - x_m a constant
    power-basis vector mod p, one O(r) comparison per u, O(r^2) in all:
    the shifts of the quotient congruence when p = +-1 mod r."""
    r = x_m.r
    x, y = [*x_m.coeffs, 0], [*x_m_prime.galois(p).coeffs, 0]
    found = []
    for u in range(2 * r):
        # (-xi)^u sigma_p(x_m') has power-basis coordinates (-1)^u y[(i - u) mod r]
        sign = -1 if u % 2 else 1
        diffs = ((sign * y[(i - u) % r] - x[i]) % p for i in range(r))
        first = next(diffs)
        if all(d == first for d in diffs):
            found.append(u)
    return tuple(found)


def crt_symmetric(pairs: list[tuple[int, int]]) -> int:
    """Combine residue pairs (modulus, residue) into the representative in
    (-M/2, M/2] where M is the product of the moduli.

    Moduli must be pairwise coprime.
    """
    if not pairs:
        raise ValueError("need at least one residue pair")
    m_total, x = 1, 0
    for m, res in pairs:
        if m < 2:
            raise ValueError(f"modulus {m} is not usable")
        if math.gcd(m, m_total) != 1:
            raise ValueError(f"moduli are not pairwise coprime at {m}")
        # lift x from m_total to m_total * m
        inc = (res - x) * pow(m_total, -1, m) % m
        x += inc * m_total
        m_total *= m
    x %= m_total
    if 2 * x > m_total:
        x -= m_total
    return x


def epsilon_residue(x: CyclotomicInt) -> int:
    """Image of x in Z/r under xi -> 1, as a representative in [0, r)."""
    return sum(x.coeffs) % x.r


def divisible_by(x: CyclotomicInt, m: int) -> bool:
    """Whether x lies in the ideal m Z[xi], i.e. every coordinate does."""
    if m <= 0:
        raise ValueError("divisor must be a positive integer")
    return all(c % m == 0 for c in x.coeffs)


def one_minus_xi(r: int) -> CyclotomicInt:
    return make(r, {0: 1, 1: -1})


def reconstruct(e: OhtsukiExpansion) -> CyclotomicInt:
    """Resum digits and remainder; inverse of ohtsuki_expansion."""
    base = one_minus_xi(e.r)
    out = make(e.r, ())
    pw = CyclotomicInt.one(e.r)
    for an in e.a:
        out = out + pw * CyclotomicInt.from_int(e.r, an)
        pw = pw * base
    return out + pw * e.remainder


def coeffs_divisible_by(f: HalfLaurent, m: int) -> bool:
    if m <= 0:
        raise ValueError("divisor must be a positive integer")
    return all(c % m == 0 for _, c in f.terms)


def congruent_mod(f: HalfLaurent, h: HalfLaurent, p: int, g: HalfLaurent) -> bool:
    """Whether f and h agree modulo the ideal (p, g)."""
    return reduce_mod(f - h, p, g).is_zero


def braid_permutation(b: BraidWord) -> tuple[int, ...]:
    """perm[s] = bottom position reached by the strand starting at top s."""
    strand_at = list(range(b.strands))
    for w in b.letters:
        i = abs(w) - 1
        strand_at[i], strand_at[i + 1] = strand_at[i + 1], strand_at[i]
    perm = [0] * b.strands
    for pos, s in enumerate(strand_at):
        perm[s] = pos
    return tuple(perm)


def braid_component_count(b: BraidWord) -> int:
    perm = braid_permutation(b)
    seen = [False] * b.strands
    count = 0
    for s in range(b.strands):
        if not seen[s]:
            count += 1
            while not seen[s]:
                seen[s] = True
                s = perm[s]
    return count


def free_loop_count(d: PlanarDiagram) -> int:
    """The components of d that meet no crossing."""
    crossing_arcs = {a for x in d.crossings for a in x}
    return sum(1 for comp in d.components if comp[0] not in crossing_arcs)


def pairing(rs: RootSystem, beta, i: int) -> int:
    """<beta, alpha_i^vee>, integral on the root lattice."""
    return sum(rs.cartan[i][j] * c for j, c in enumerate(beta))
