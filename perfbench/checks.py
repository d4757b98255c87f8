"""Output checks that do not trust the program under test.

Every checker takes plain data (ints, lists, dicts, as the program's JSON
or report fields carry them) and raises CheckError on the first
disagreement.  The arithmetic here is written from the definitions, on
different representations than the program uses:

* elements of Z[xi] are length-r vectors modulo T^r - 1, and two vectors
  name the same element when their difference is a constant vector
  (a multiple of 1 + T + ... + T^(r-1));
* the invariants are evaluated as plain series in GF(q) at an element of
  order r, with q = 1 (mod r);
* link congruences mod (p, t^p - 1) are decided by folding doubled
  exponents mod 2p and coefficients mod p.

None of the expected values is a stored copy of a program output.
"""
from __future__ import annotations

import random


class CheckError(AssertionError):
    """An output disagrees with the independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# small number theory


def is_prime(n: int) -> bool:
    """Trial division; the benchmark only meets small numbers here."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def primes_1_mod(r: int, count: int, start: int = 10**6) -> list[int]:
    """The first `count` primes q > start with q = 1 (mod r)."""
    out = []
    q = start - start % r + 1
    while len(out) < count:
        q += r
        if is_prime(q):
            out.append(q)
    return out


def element_of_order(r: int, q: int) -> int:
    """An element of exact order r (prime) in GF(q)*, q = 1 (mod r)."""
    rng = random.Random(q * 1000003 + r)
    while True:
        z = pow(rng.randrange(2, q - 1), (q - 1) // r, q)
        if z != 1:
            return z


# ---------------------------------------------------------------------------
# Z[xi] as length-r vectors mod T^r - 1


def vec(coeffs, r: int) -> list[int]:
    """Canonical coordinates (length r - 1) to a length-r vector."""
    require(len(coeffs) == r - 1, f"need {r - 1} coordinates, got {len(coeffs)}")
    return [int(c) for c in coeffs] + [0]


def canon(w: list[int]) -> list[int]:
    """Canonical coordinates: subtract the top coordinate everywhere."""
    top = w[-1]
    return [c - top for c in w[:-1]]


def vmul(a: list[int], b: list[int]) -> list[int]:
    r = len(a)
    out = [0] * r
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[(i + j) % r] += x * y
    return out


def vsub(a: list[int], b: list[int]) -> list[int]:
    return [x - y for x, y in zip(a, b)]


def vgalois(w: list[int], j: int) -> list[int]:
    """xi -> xi^j."""
    r = len(w)
    out = [0] * r
    for i, c in enumerate(w):
        out[i * j % r] += c
    return out


def vshift(w: list[int], k: int) -> list[int]:
    """Multiply by xi^k."""
    r = len(w)
    k %= r
    return w[r - k:] + w[: r - k] if k else list(w)


def divisible(w: list[int], m: int) -> bool:
    return all(c % m == 0 for c in canon(w))


# ---------------------------------------------------------------------------
# manifold_levels


def series_exponent(manifold: str, n: int) -> int:
    if manifold == "poincare":
        return n
    if manifold == "brieskorn_2_3_7":
        return -n * (n + 2)
    raise CheckError(f"no series for manifold {manifold!r}")


def tau_series_mod(manifold: str, r: int, z: int, q: int) -> int:
    """(1 - z)^(-1) * sum_n z^f(n) prod_{k=n+1}^{2n+1} (1 - z^k) in GF(q).

    Terms with n >= r - 1 vanish because their window holds a multiple of
    r, so the sum stops there."""
    total = 0
    for n in range(r - 1):
        term = pow(z, series_exponent(manifold, n) % r, q)
        for k in range(n + 1, 2 * n + 2):
            term = term * (1 - pow(z, k, q)) % q
        total += term
    return total * pow(1 - z, -1, q) % q


def check_tau_value(manifold: str, r: int, coeffs, n_moduli: int = 3) -> None:
    """The Z[xi] value, evaluated at an element of order r in GF(q), equals
    the invariant's series summed there, for several q = 1 (mod r)."""
    require(len(coeffs) == r - 1, f"tau({manifold}, {r}): {len(coeffs)} coordinates")
    for q in primes_1_mod(r, n_moduli):
        z = element_of_order(r, q)
        got = sum(int(c) * pow(z, i, q) for i, c in enumerate(coeffs)) % q
        want = tau_series_mod(manifold, r, z, q)
        require(got == want, f"tau({manifold}, {r}) disagrees with its series mod {q}")


def check_ohtsuki_digits(r: int, x_coeffs, digits) -> None:
    """Full table: digits in [0, r) and x - sum a_n (1 - xi)^n = 0 (mod r)."""
    require(len(digits) == r - 1, f"r = {r}: expected {r - 1} digits, got {len(digits)}")
    require(all(0 <= a < r for a in digits), f"r = {r}: digit outside [0, r)")
    acc = [0] * r
    one_minus = [1, r - 1] + [0] * (r - 2)  # 1 - T, reduced mod r
    for a in reversed(digits):
        acc = [c % r for c in vmul(acc, one_minus)]
        acc[0] += a
    require(divisible(vsub(vec(x_coeffs, r), acc), r),
            f"r = {r}: digits do not resum to the value mod r")


def check_rows(rows, digits, what: str) -> None:
    """A truncated coefficient table is a prefix of the verified digits."""
    require(len(rows) >= 1, f"{what}: empty table")
    for i, row in enumerate(rows):
        require(list(row) == [i, digits[i]], f"{what}: row {i} is {row}, want {[i, digits[i]]}")


def twist_set(r: int, x_coeffs) -> list[int]:
    """All v in [0, r) with x = xi^v conj(x) (mod r)."""
    x = vec(x_coeffs, r)
    xbar = vgalois(x, r - 1)
    return [v for v in range(r) if divisible(vsub(x, vshift(xbar, v)), r)]


def check_obstruction(r: int, x_coeffs, admissible_v, verdict: str) -> None:
    """admissible_v recomputed mod r; every prime r >= 5 is an admissible
    level for sl2, so the verdict is 'obstructed' exactly when no twist fits."""
    want = twist_set(r, x_coeffs)
    require(list(admissible_v) == want, f"r = {r}: admissible_v {admissible_v}, want {want}")
    want_verdict = "not_obstructed" if want else "obstructed"
    require(verdict == want_verdict, f"r = {r}: verdict {verdict!r}, want {want_verdict!r}")


HEADLINE = {"poincare": (480, (2, 3, 5)), "brieskorn_2_3_7": (1344, (2, 3, 7))}


def check_discriminant(manifold: str, lifted: int, factors, headline: bool) -> None:
    """Headline sets lift to 480 / 1344; any set's lifted value has only
    the prime factors the paper allows, and the factor list is exact."""
    value, allowed = HEADLINE[manifold]
    if headline:
        require(lifted == value, f"{manifold}: headline lifted {lifted}, want {value}")
    require(lifted != 0, f"{manifold}: lifted value is 0")
    got = [p for p, e in factors for _ in range(e)]
    require(got == prime_factors(abs(lifted)), f"{manifold}: factors {factors} of {lifted}")
    require(set(got) <= set(allowed), f"{manifold}: lifted {lifted} has a factor outside {allowed}")


# ---------------------------------------------------------------------------
# cover_congruence


def expected_cover_set(x_m, x_mp, p: int, r: int) -> list[int]:
    """u in [0, 2r) with x_m = (-xi)^u x_m'^p mod (p, (xi+1/xi)^p - (xi+1/xi)).

    For p = +-1 (mod r), Frobenius fixes xi + 1/xi, so the generator lies
    in (p) and the ideal is (p); there x'^p = sigma_p(x') (mod p).  For any
    other p the generator is a unit mod p at every root of the cyclotomic
    polynomial, the ideal is the whole ring, and every u qualifies."""
    if p % r not in (1, r - 1):
        return list(range(2 * r))
    a = vec(x_m, r)
    frob = vgalois(vec(x_mp, r), p)
    out = []
    for u in range(2 * r):
        shifted = vshift(frob, u)
        if u % 2:
            shifted = [-c for c in shifted]
        if divisible(vsub(a, shifted), p):
            out.append(u)
    return out


def check_cover(x_m, x_mp, p: int, r: int, found) -> None:
    want = expected_cover_set(x_m, x_mp, p, r)
    require(list(found) == want, f"r = {r}, p = {p}: u-set {list(found)}, want {want}")


# ---------------------------------------------------------------------------
# links: doubled-exponent polynomials as dicts {k: c} for c * t^(k/2)


def braid_components(strands: int, letters) -> int:
    perm = list(range(strands))
    for w in letters:
        i = abs(w) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen = [False] * strands
    count = 0
    for s in range(strands):
        if not seen[s]:
            count += 1
            while not seen[s]:
                seen[s] = True
                s = perm[s]
    return count


def braid_lk_doubled(strands: int, letters) -> int:
    """Sum of the signs of crossings between different components, which
    is twice the total linking number of the closure."""
    at = list(range(strands))  # at[pos] = strand starting at top position
    crossings = []
    for w in letters:
        i = abs(w) - 1
        crossings.append((at[i], at[i + 1], 1 if w > 0 else -1))
        at[i], at[i + 1] = at[i + 1], at[i]
    # closing the braid joins the strand that ends at position pos to the
    # strand that starts there
    comp = list(range(strands))

    def find(x: int) -> int:
        while comp[x] != x:
            x = comp[x]
        return x

    for pos, s in enumerate(at):
        a, b = find(pos), find(s)
        if a != b:
            comp[a] = b
    return sum(sign for s1, s2, sign in crossings if find(s1) != find(s2))


def poly(terms) -> dict[int, int]:
    out: dict[int, int] = {}
    for k, c in terms:
        out[int(k)] = out.get(int(k), 0) + int(c)
    return {k: c for k, c in out.items() if c}


def check_jones_at_one(terms, mu: int, what: str) -> None:
    """V(1) = (-2)^(mu - 1) for a link of mu components."""
    total = sum(int(c) for _, c in terms)
    require(total == (-2) ** (mu - 1), f"{what}: V(1) = {total}, want {(-2) ** (mu - 1)}")


def fold(f: dict[int, int], p: int) -> dict[int, int]:
    """Image in GF(p)[s]/(s^(2p) - 1), s = t^(1/2)."""
    out: dict[int, int] = {}
    for k, c in f.items():
        key = k % (2 * p)
        out[key] = (out.get(key, 0) + c) % p
    return {k: c for k, c in out.items() if c}


def yokota_holds(v: dict[int, int], lk_doubled: int, p: int) -> bool:
    """V(t) = t^(2 lk) V(1/t) mod (p, t^p - 1), decided by folding."""
    mirrored = {2 * lk_doubled - k: c for k, c in v.items()}
    diff = dict(v)
    for k, c in mirrored.items():
        diff[k] = diff.get(k, 0) - c
    return not fold(diff, p)


def check_yokota(v_terms, lk_doubled: int, p: int, passed: bool, what: str) -> None:
    want = yokota_holds(poly(v_terms), lk_doubled, p)
    require(passed == want, f"{what}: yokota verdict {passed}, folding gives {want}")


# ---------------------------------------------------------------------------
# lie_gauss


def gram_rank_mod(gram, r: int) -> int:
    m = [[c % r for c in row] for row in gram]
    rank = 0
    for col in range(len(m)):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, r)
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] * inv
                m[i] = [(x - f * y) % r for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def check_gauss(rank: int, r: int, gamma, gram, ker: int, magnitude_ok: bool, ratio_ok: bool) -> None:
    """gamma conj(gamma) = r^l exactly; every Galois twist of gamma is
    +-xi^k gamma; the kernel size is recomputed; both numeric laws hold."""
    what = f"rank {rank}, r = {r}"
    require(magnitude_ok is True and ratio_ok is True, f"{what}: a numeric law failed")
    require(ker == r ** (rank - gram_rank_mod(gram, r)), f"{what}: kernel size {ker}")
    g = vec(gamma, r)
    norm = canon(vmul(g, vgalois(g, r - 1)))
    require(norm == [r**rank] + [0] * (r - 2), f"{what}: gamma * conj(gamma) != r^{rank}")
    for j in range(2, r):
        twist = canon(vgalois(g, j))
        ok = False
        for k in range(r):
            s = canon(vshift(g, k))
            if twist == s or twist == [-c for c in s]:
                ok = True
                break
        require(ok, f"{what}: sigma_{j}(gamma) is not +-xi^k gamma")
