"""Exact arithmetic in Z[xi] for xi a primitive r-th root of unity, r prime.

Elements are integer coordinate vectors in the canonical basis
1, xi, ..., xi^(r-2).  Because r is prime, the minimal polynomial of xi is
1 + T + ... + T^(r-1), so xi^(r-1) = -(1 + xi + ... + xi^(r-2)) and every
element has exactly one coordinate vector.  That makes equality testing,
integer divisibility, and the (1 - xi)-adic expansion coefficientwise.

The (1 - xi)-adic expansion writes x as

    x = a_0 + a_1 (1 - xi) + ... + a_{r-2} (1 - xi)^{r-2} + x' (1 - xi)^{r-1}

with each a_n in [0, r).  The digits are produced by alternating the
coefficient-sum residue map (xi -> 1) with exact division by (1 - xi).
Both are O(r) on the coordinate vector, so `ohtsuki_digits(x, depth)`
costs O(depth * r) and the full `ohtsuki_expansion(x)` O(r^2); one
peeling loop serves both.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Mapping

from .modular import encode_int, is_prime


class NotDivisibleError(ValueError):
    """Raised when exact division by (1 - xi) is requested outside its ideal."""


@lru_cache(maxsize=None)
def _check_r(r: int) -> None:
    # memoised, so each ring is checked once; a call that raises is not cached
    if r < 3 or not is_prime(r):
        raise ValueError(f"r must be a prime >= 3, got {r}")


@dataclass(frozen=True)
class CyclotomicInt:
    """An element of Z[xi] in canonical coordinates.

    coeffs[i] holds the coefficient of xi^i for 0 <= i <= r-2.  Instances
    are immutable; all operations return new values, so sharing across
    threads is safe.
    """

    r: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_r(self.r)
        if len(self.coeffs) != self.r - 1:
            raise ValueError(
                f"need {self.r - 1} coefficients for r={self.r}, got {len(self.coeffs)}"
            )

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, r: int) -> CyclotomicInt:
        _check_r(r)
        return cls(r, (0,) * (r - 1))

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

    def __add__(self, other: CyclotomicInt | int) -> CyclotomicInt:
        if isinstance(other, int):
            other = CyclotomicInt.from_int(self.r, other)
        self._check_same_ring(other)
        return CyclotomicInt(self.r, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> CyclotomicInt:
        return CyclotomicInt(self.r, tuple(-a for a in self.coeffs))

    def __sub__(self, other: CyclotomicInt | int) -> CyclotomicInt:
        if isinstance(other, int):
            other = CyclotomicInt.from_int(self.r, other)
        return self + (-other)

    def __rsub__(self, other: int) -> CyclotomicInt:
        return CyclotomicInt.from_int(self.r, other) - self

    def __mul__(self, other: CyclotomicInt | int) -> CyclotomicInt:
        if isinstance(other, int):
            return CyclotomicInt(self.r, tuple(other * a for a in self.coeffs))
        self._check_same_ring(other)
        # Kronecker substitution: pack each factor's power-basis vector as
        # the base-2^(8 * width) digits of one integer, so that a single
        # big-integer product (Karatsuba) carries every convolution sum.
        # Each vector is first shifted by its minimum, a multiple of
        # 1 + xi + ... + xi^(r-1) = 0, so every digit is nonnegative, and
        # width bytes hold each factor's digits and any convolution sum.
        r = self.r
        a, b = _nonnegative_powers(self), _nonnegative_powers(other)
        width = (max(1, *a) * max(1, *b) * r).bit_length() // 8 + 1
        packed = _pack(a, width) * _pack(b, width)
        digits = packed.to_bytes(2 * r * width, "little")
        acc = [0] * r
        for k in range(2 * r - 1):
            acc[k % r] += int.from_bytes(digits[k * width:(k + 1) * width], "little")
        return _fold_power_vector(r, acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> CyclotomicInt:
        if n < 0:
            raise ValueError("negative powers leave Z[xi]")
        out = CyclotomicInt.one(self.r)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure maps -----------------------------------------------------

    def galois(self, j: int) -> CyclotomicInt:
        """The automorphism xi -> xi^j; j must be invertible mod r."""
        if j % self.r == 0:
            raise ValueError("galois exponent must be nonzero mod r")
        return make(self.r, {(i * j) % self.r: c for i, c in enumerate(self.coeffs)})

    def conjugate(self) -> CyclotomicInt:
        """Complex conjugation, xi -> xi^(r-1)."""
        return self.galois(self.r - 1)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*xi")
            else:
                parts.append(f"{c}*xi^{i}")
        return " + ".join(parts) if parts else "0"


def _nonnegative_powers(x: CyclotomicInt) -> list[int]:
    """Coordinates of x on the power basis xi^0 .. xi^(r-1), all >= 0."""
    low = min(0, *x.coeffs)
    return [c - low for c in x.coeffs] + [-low]


def _pack(v: list[int], width: int) -> int:
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in v), "little")


def _fold_power_vector(r: int, acc: list[int]) -> CyclotomicInt:
    # acc has length r; eliminate the xi^(r-1) coordinate with the relation
    # xi^(r-1) = -(1 + xi + ... + xi^(r-2))
    top = acc[r - 1]
    return CyclotomicInt(r, tuple(acc[i] - top for i in range(r - 1)))


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
    return _fold_power_vector(r, acc)


def divide_by_one_minus_xi(x: CyclotomicInt) -> CyclotomicInt:
    """Exact quotient x / (1 - xi); requires the coefficient sum of x to
    vanish mod r, which characterizes membership in the ideal (1 - xi).

    The canonical polynomial of x gains an exact factor of (1 - T) after
    subtracting (sum/r) copies of 1 + T + ... + T^(r-1), and the quotient
    coefficients are plain partial sums.
    """
    r = x.r
    s = sum(x.coeffs)
    if s % r != 0:
        raise NotDivisibleError(
            f"element with coefficient-sum residue {s % r} is not divisible by (1 - xi)"
        )
    c = s // r
    g = [x.coeffs[i] - c for i in range(r - 1)] + [-c]
    out = []
    run = 0
    for i in range(r - 1):
        run += g[i]
        out.append(run)
    if run + g[r - 1] != 0:
        raise AssertionError("division bookkeeping failed")  # unreachable
    return CyclotomicInt(r, tuple(out))


def divide_by_one_minus_xi_power(x: CyclotomicInt, e: int) -> CyclotomicInt:
    """Exact quotient x / (1 - xi^e) for e invertible mod r (ValueError
    otherwise), in O(r).

    The Galois twist xi -> xi^e carries 1 - xi to 1 - xi^e, so the quotient
    is the twist by e of (x twisted by e^-1) / (1 - xi).  Both generate the
    ideal (1 - xi), so the same coefficient-sum test decides divisibility
    and NotDivisibleError is raised outside it.
    """
    return divide_by_one_minus_xi(x.galois(pow(e, -1, x.r))).galois(e)


@dataclass(frozen=True)
class OhtsukiExpansion:
    """Digits of the (1 - xi)-adic expansion.

    a[n] in [0, r) is the coefficient of (1 - xi)^n for n = 0 .. r-2, and
    remainder is the exact cofactor of (1 - xi)^(r-1).
    """

    r: int
    a: tuple[int, ...]
    remainder: CyclotomicInt


def _peel(r: int, cur: list[int], count: int) -> list[int]:
    """Peel count digits off the coordinate vector cur of an element of
    Z[xi], leaving in cur the cofactor of (1 - xi)^count.

    Each step takes the coefficient-sum residue a as the digit and divides
    cur - a exactly by (1 - xi), as in divide_by_one_minus_xi: with
    c = (sum - a) / r, the quotient's coordinates are the partial sums of
    cur - a - c * (1 + xi + ... + xi^(r-1)).
    """
    digits = []
    for _ in range(count):
        s = sum(cur)
        an = s % r
        digits.append(an)
        c = (s - an) // r
        cur[0] -= an
        cur[:] = accumulate(v - c for v in cur)
    return digits


def ohtsuki_digits(x: CyclotomicInt, depth: int) -> tuple[int, ...]:
    """The digits a_0 .. a_depth of the (1 - xi)-adic expansion of x, for
    0 <= depth <= r-2, in O(depth * r)."""
    if not 0 <= depth <= x.r - 2:
        raise ValueError(f"depth must lie in [0, {x.r - 2}]")
    return tuple(_peel(x.r, list(x.coeffs), depth + 1))


def ohtsuki_expansion(x: CyclotomicInt) -> OhtsukiExpansion:
    """All r-1 digits of the (1 - xi)-adic expansion of x and the
    remainder, in O(r^2)."""
    cur = list(x.coeffs)
    digits = _peel(x.r, cur, x.r - 1)
    return OhtsukiExpansion(x.r, tuple(digits), CyclotomicInt(x.r, tuple(cur)))


# ---------------------------------------------------------------------------
# serialization

def cyclo_to_json(x: CyclotomicInt) -> dict:
    return {"r": x.r, "coeffs": [encode_int(c) for c in x.coeffs]}

