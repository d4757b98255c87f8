"""Laurent polynomials with half-integer exponents over Z.

A term c * v^(k/2) is stored under the doubled exponent key k, so all keys
are plain integers and arithmetic never touches floating point.  The same
container serves polynomials in q, in t, and in the bracket variable.

Two substitutions matter downstream: mirroring (v -> 1/v, negate every
exponent) and the sign-twisted inversion sqrt(q) -> -1/sqrt(t) that turns
quantum-group normalizations into classical Jones normalizations.

reduce_mod implements ideal membership in Z[v^(1/2), v^(-1/2)] modulo
(p, g): write everything in the variable s = v^(1/2), clear denominators by
a unit power of s, and take the Euclidean remainder mod the cleared
generator over GF(p).  The cleared generator must keep invertible leading
and trailing coefficients mod p, which is what makes the s-power a unit in
the quotient and the remainder a faithful membership certificate.
"""
from __future__ import annotations

from dataclasses import dataclass
from .modular import encode_int, fp_rem, require_prime


@dataclass(frozen=True)
class HalfLaurent:
    """Immutable sparse Laurent polynomial with doubled-exponent keys.

    terms is sorted by exponent and stores no zero coefficients, so equal
    polynomials always compare equal structurally.
    """

    terms: tuple[tuple[int, int], ...] = ()

    @classmethod
    def from_dict(cls, d: dict[int, int]) -> HalfLaurent:
        return cls(tuple(sorted((k, c) for k, c in d.items() if c)))

    @classmethod
    def monomial(cls, k_doubled: int, coeff: int = 1) -> HalfLaurent:
        """coeff * v^(k_doubled / 2)."""
        return cls(((k_doubled, coeff),)) if coeff else cls(())

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return self.terms[0][0]

    @property
    def max_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return self.terms[-1][0]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: HalfLaurent) -> HalfLaurent:
        acc = dict(self.terms)
        for k, c in other.terms:
            acc[k] = acc.get(k, 0) + c
        return HalfLaurent.from_dict(acc)

    def __neg__(self) -> HalfLaurent:
        return HalfLaurent(tuple((k, -c) for k, c in self.terms))

    def __sub__(self, other: HalfLaurent) -> HalfLaurent:
        return self + (-other)

    def __mul__(self, other: HalfLaurent) -> HalfLaurent:
        acc: dict[int, int] = {}
        for k1, c1 in self.terms:
            for k2, c2 in other.terms:
                k = k1 + k2
                acc[k] = acc.get(k, 0) + c1 * c2
        return HalfLaurent.from_dict(acc)

    def __pow__(self, n: int) -> HalfLaurent:
        if n < 0:
            raise ValueError("negative powers are not closed here")
        out = HalfLaurent.monomial(0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- substitutions ------------------------------------------------------

    def mirror(self) -> HalfLaurent:
        """v -> 1/v; an involution."""
        return HalfLaurent.from_dict({-k: c for k, c in self.terms})

    def substitute_neg_inv_sqrt(self) -> HalfLaurent:
        """sqrt(v) -> -1 / sqrt(w): v^(k/2) becomes (-1)^k w^(-k/2).

        Self-inverse, and it exchanges the q-normalized and t-normalized
        forms of the same link invariant.
        """
        return HalfLaurent.from_dict(
            {-k: (-c if k % 2 else c) for k, c in self.terms}
        )


def quantum_integer(n: int) -> HalfLaurent:
    """[n] = (q^(n/2) - q^(-n/2)) / (q^(1/2) - q^(-1/2)), the balanced
    geometric sum q^((n-1)/2) + q^((n-3)/2) + ... + q^(-(n-1)/2)."""
    if n < 0:
        raise ValueError("quantum integer index must be nonnegative")
    return HalfLaurent.from_dict({n - 1 - 2 * k: 1 for k in range(n)})


def eta(p: int) -> HalfLaurent:
    """The congruence modulus sum_{j<p} (-t)^j - t^((p-1)/2) for odd primes."""
    require_prime("p", p, odd=True)
    acc: dict[int, int] = {2 * j: (-1) ** j for j in range(p)}
    acc[p - 1] = acc.get(p - 1, 0) - 1
    return HalfLaurent.from_dict(acc)


# ---------------------------------------------------------------------------
# modular reduction

def _clear_to_fp_vector(f: HalfLaurent, p: int, shift: int) -> list[int]:
    """Coefficients of s^shift * f over GF(p), index = s-degree; shift
    must be at least -min_exp."""
    out = [0] * (f.max_exp + shift + 1)
    for k, c in f.terms:
        out[k + shift] = c % p
    return out


def reduce_mod(f: HalfLaurent, p: int, g: HalfLaurent) -> HalfLaurent:
    """Normal form of f modulo the ideal (p, g) in Z[v^(1/2), v^(-1/2)].

    The result is the Euclidean remainder of a unit multiple of f modulo
    the cleared generator over GF(p), with coefficients in [0, p); it is
    zero exactly when f lies in the ideal.  The generator must be nonzero
    with leading and trailing coefficients invertible mod p.
    """
    require_prime("p", p)
    if g.is_zero:
        raise ValueError("zero generator: reduce coefficients mod p instead")
    gv = _clear_to_fp_vector(g, p, -g.min_exp)
    if gv[-1] == 0:
        raise ValueError("generator leading coefficient is not invertible mod p")
    if gv[0] == 0:
        raise ValueError("generator trailing coefficient vanishes mod p; "
                         "clearing by a unit power is then unsound")
    if f.is_zero:
        return HalfLaurent()
    fv = _clear_to_fp_vector(f, p, max(0, -f.min_exp))
    rem = fp_rem(fv, gv, p)
    return HalfLaurent.from_dict({i: c for i, c in enumerate(rem) if c})


# ---------------------------------------------------------------------------
# serialization

def poly_to_json(f: HalfLaurent) -> dict:
    return {"var": "t", "terms": [[k, encode_int(c)] for k, c in f.terms]}

