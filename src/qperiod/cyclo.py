"""Exact arithmetic in Z[xi] for xi a primitive r-th root of unity, r prime.

Elements are integer coordinate vectors in the canonical basis
1, xi, ..., xi^(r-2).  Because r is prime, the minimal polynomial of xi is
1 + T + ... + T^(r-1), so xi^(r-1) = -(1 + xi + ... + xi^(r-2)) and every
element has exactly one coordinate vector.  That makes equality testing,
integer divisibility, and the (1 - xi)-adic expansion coefficientwise.
The ring operations take two elements of one ring; an integer enters as
`CyclotomicInt.from_int`.  A product is `modular.poly_mul`, the one
product of integer polynomials, on the coordinates, folded by `make`.

The (1 - xi)-adic expansion writes x as

    x = a_0 + a_1 (1 - xi) + ... + a_{r-2} (1 - xi)^{r-2} + x' (1 - xi)^{r-1}

with each a_n in [0, r).  Put xi = 1 - h in the canonical coordinates:
x = sum_i x_i (1 - h)^i is a polynomial in h of degree at most r - 2, and
r lies in (h^(r-1)), so every digit is a binomial sum mod r,

    a_n = (-1)^n sum_i x_i C(i, n)  mod r.

`ohtsuki_digits(x, depth)` builds the binomials one column at a time by
Pascal's rule, C(i, n+1) = sum_{j<i} C(j, n), on residues mod r: O(r) per
digit and no division.  `ohtsuki_expansion(x)` keeps the peeling
reference, which also returns the cofactor x'.

One routine, `divide_power_vector`, divides exactly by 1 - xi, in O(r)
on the power basis xi^0 .. xi^(r-1): one running sum.

One re-indexing, `twist_conjugate`, gives the twisted conjugate
xi^v conj(x) in O(r): the conjugation obstruction x = xi^v conj(x) of
`tau`, and the magnitude law gamma conj(gamma) = r^l and the ratio law
gamma = +-(-1)^N xi^(S-E) conj(gamma) of `liedata` all read it.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import mul
from typing import Iterable, Mapping, NamedTuple

from .modular import InputError, poly_mul, require_prime


# A digit table costs r * (depth + 1) steps: the whole ohtsuki command took
# 0.64 s for the full table at r = 3001 (9.0 million steps), 5.5 s for the
# one at r = 10,007 and 1.4 s to depth 99 at r = 99,991, with Python 3.11
# on a shared 2-CPU sandbox
DIGIT_TABLE_CAP = 10_000_000


class NotDivisibleError(ValueError):
    """Raised when exact division by (1 - xi) is requested outside its ideal."""


@lru_cache(maxsize=None)
def _check_r(r: int) -> None:
    # memoised, so each ring is checked once; a call that raises is not cached
    require_prime("r", r, odd=True)


class CyclotomicInt(NamedTuple("CyclotomicInt", [("r", int), ("coeffs", tuple[int, ...])])):
    """An element of Z[xi] in canonical coordinates.

    coeffs[i] holds the coefficient of xi^i for 0 <= i <= r-2.  Instances
    are immutable; all operations return new values, so sharing across
    threads is safe.
    """

    __slots__ = ()

    def __new__(cls, r: int, coeffs: tuple[int, ...]) -> CyclotomicInt:
        _check_r(r)
        if len(coeffs) != r - 1:
            raise ValueError(f"need {r - 1} coefficients for r={r}, got {len(coeffs)}")
        return super().__new__(cls, r, coeffs)

    # -- constructors -------------------------------------------------------

    @classmethod
    def one(cls, r: int) -> CyclotomicInt:
        return cls.from_int(r, 1)

    @classmethod
    def from_int(cls, r: int, n: int) -> CyclotomicInt:
        _check_r(r)
        return cls(r, (n,) + (0,) * (r - 2))

    @classmethod
    def power(cls, r: int, k: int) -> CyclotomicInt:
        """The basis vector for xi^k, any integer k."""
        return make(r, {k: 1})

    # -- ring operations ----------------------------------------------------

    def _check_same_ring(self, other: CyclotomicInt) -> None:
        if self.r != other.r:
            raise ValueError(f"mixed rings: r={self.r} vs r={other.r}")

    def __add__(self, other: CyclotomicInt) -> CyclotomicInt:
        self._check_same_ring(other)
        return CyclotomicInt(self.r, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> CyclotomicInt:
        return CyclotomicInt(self.r, tuple(-a for a in self.coeffs))

    def __mul__(self, other: CyclotomicInt) -> CyclotomicInt:
        self._check_same_ring(other)
        return make(self.r, poly_mul(enumerate(self.coeffs), enumerate(other.coeffs)))

    def __rmul__(self, other: object) -> object:
        return NotImplemented  # an int operand is refused, not a tuple repetition

    # -- structure maps -----------------------------------------------------

    def galois(self, j: int) -> CyclotomicInt:
        """The automorphism xi -> xi^j; j must be invertible mod r."""
        if j % self.r == 0:
            raise ValueError("galois exponent must be nonzero mod r")
        return make(self.r, {(i * j) % self.r: c for i, c in enumerate(self.coeffs)})


def make(r: int, monomials: Mapping[int, int] | Iterable[tuple[int, int]]) -> CyclotomicInt:
    """Build the canonical form of sum c * xi^power from (power, c) data.

    Powers may be any integers; they are reduced mod r and like powers
    accumulate before canonicalization.
    """
    _check_r(r)
    items = monomials.items() if isinstance(monomials, Mapping) else monomials
    acc = [0] * r
    for power, c in items:
        acc[power % r] += c
    return CyclotomicInt(r, tuple(c - acc[-1] for c in acc[:-1]))


def twist_conjugate(x: CyclotomicInt, v: int) -> CyclotomicInt:
    """xi^v times the complex conjugate of x: the coefficient of xi^i
    moves to xi^(v - i), in O(r)."""
    return make(x.r, ((v - i, c) for i, c in enumerate(x.coeffs)))


def divide_power_vector(y: list[int]) -> list[int]:
    """Exact quotient y / (1 - xi) in O(r), with y and the quotient on the
    power basis xi^0 .. xi^(r-1); the quotient's top coordinate is 0, so
    dropping it leaves canonical coordinates.

    The coefficient sum s of y decides divisibility: (1 - xi) holds y
    exactly when s = 0 mod r, and NotDivisibleError is raised outside it.
    After subtracting s/r copies of 1 + xi + ... + xi^(r-1), which is 0,
    the quotient q satisfies q_i = y_i + q_(i-1): one running sum, which
    ends at s - r (s/r) = 0 on the top coordinate.
    """
    r = len(y)
    s = sum(y)
    if s % r != 0:
        raise NotDivisibleError(
            f"element with coefficient-sum residue {s % r} is not divisible by (1 - xi)"
        )
    c = s // r
    return list(accumulate(v - c for v in y))


class OhtsukiExpansion(NamedTuple):
    """Digits of the (1 - xi)-adic expansion.

    a[n] in [0, r) is the coefficient of (1 - xi)^n for n = 0 .. r-2, and
    remainder is the exact cofactor of (1 - xi)^(r-1).
    """

    r: int
    a: tuple[int, ...]
    remainder: CyclotomicInt


def require_depth(depth: int, r: int) -> None:
    """Refuse a depth outside [0, r-2], since an element of Z[xi] has
    r - 1 Ohtsuki digits, or a table of more than DIGIT_TABLE_CAP steps."""
    if not 0 <= depth <= r - 2:
        raise InputError(f"depth = {depth} must lie in [0, r-2] = [0, {r - 2}]")
    if r * (depth + 1) > DIGIT_TABLE_CAP:
        raise InputError(
            f"r * (depth + 1) = {r * (depth + 1)} exceeds the digit-table cap of {DIGIT_TABLE_CAP}"
        )


def ohtsuki_digits(x: CyclotomicInt, depth: int) -> tuple[int, ...]:
    """The digits a_0 .. a_depth of the (1 - xi)-adic expansion of x, for
    0 <= depth <= r-2, in O(depth * r) on residues mod r:
    a_n = (-1)^n sum_i x_i C(i, n) mod r."""
    require_depth(depth, x.r)
    r = x.r
    residues = [c % r for c in x.coeffs]
    column = [1] * (r - 1)  # C(i, n) for i = n .. r-2
    digits = []
    for n in range(depth + 1):
        digits.append((-1) ** n * sum(map(mul, residues[n:], column)) % r)
        column = [c % r for c in accumulate(column[:-1])]
    return tuple(digits)


def ohtsuki_expansion(x: CyclotomicInt) -> OhtsukiExpansion:
    """All r-1 digits of the (1 - xi)-adic expansion of x and the
    remainder, in O(r^2) by peeling: each step takes the coefficient-sum
    residue as the digit and divides the rest exactly by (1 - xi).  The
    reference that ohtsuki_digits is tested against."""
    r = x.r
    cur = [*x.coeffs, 0]
    digits = []
    for _ in range(r - 1):
        digits.append(sum(cur) % r)
        cur[0] -= digits[-1]
        cur = divide_power_vector(cur)
    return OhtsukiExpansion(r, tuple(digits), CyclotomicInt(r, tuple(cur[:-1])))

