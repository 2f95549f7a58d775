"""Exact arithmetic in Z[zeta] for zeta a primitive p**n-th root of unity.

Elements are dense integer coefficient vectors on the power basis
1, zeta, ..., zeta**(phi(p**n)-1) at a fixed level (p, n).  Levels never mix
implicitly: operands at different levels raise.  This ring carries the
values B_{n,chi} that `lfun.generalized_bernoulli` returns; norms and
pi-adic valuations are not taken here but in `lfun`, as rational products
over Galois orbits of characters.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

from .factor import is_prime


@dataclasses.dataclass(frozen=True)
class CyclotomicLevel:
    """The ring Z[zeta_{p**n}], identified by prime p and exponent n >= 1."""

    p: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("level exponent must be >= 1, got %r" % (self.n,))
        if self.p < 2 or not is_prime(self.p):
            raise ValueError("level base %r is not prime" % (self.p,))

    @property
    def modulus(self) -> int:
        """Order p**n of the root of unity."""
        return self.p**self.n

    @property
    def degree(self) -> int:
        """phi(p**n), the rank of the ring over Z."""
        return self.p ** (self.n - 1) * (self.p - 1)

    def __repr__(self):
        return "CyclotomicLevel(%d, %d)" % (self.p, self.n)


def _reduce(level: CyclotomicLevel, coeffs) -> tuple[int, ...]:
    # Fold exponents mod p**n, then eliminate zeta**e for e >= phi(p**n)
    # using 1 + zeta**q + ... + zeta**((p-1)q) = 0 with q = p**(n-1):
    # each zeta**((p-1)q + r) becomes -(zeta**r + zeta**(q+r) + ...).
    mod = level.modulus
    q = level.p ** (level.n - 1)
    full = [0] * mod
    for e, c in enumerate(coeffs):
        if c:
            full[e % mod] += c
    top = (level.p - 1) * q
    for r in range(q):
        c = full[top + r]
        if c:
            for t in range(level.p - 1):
                full[t * q + r] -= c
    return tuple(full[: level.degree])


@dataclasses.dataclass(frozen=True)
class CyclotomicElement:
    """Element of Z[zeta] at a fixed level, on the power basis."""

    level: CyclotomicLevel
    coeffs: tuple[int, ...]

    @staticmethod
    def make(level: CyclotomicLevel, coeffs) -> "CyclotomicElement":
        """Build from coefficients on any range of powers of zeta (exponent i
        gets coeffs[i]); exponents at or beyond phi(p**n) are reduced."""
        return CyclotomicElement(level, _reduce(level, coeffs))

    @staticmethod
    def zero(level: CyclotomicLevel) -> "CyclotomicElement":
        return CyclotomicElement(level, (0,) * level.degree)

    @staticmethod
    def integer(level: CyclotomicLevel, c: int) -> "CyclotomicElement":
        return CyclotomicElement(level, (c,) + (0,) * (level.degree - 1))

    @staticmethod
    def zeta_power(level: CyclotomicLevel, e: int) -> "CyclotomicElement":
        """zeta**e, reduced to the power basis."""
        e %= level.modulus
        return CyclotomicElement.make(level, [0] * e + [1])

    def __post_init__(self):
        if len(self.coeffs) != self.level.degree:
            raise ValueError(
                "coefficient vector has length %d, level needs %d"
                % (len(self.coeffs), self.level.degree)
            )

    def _check_level(self, other: "CyclotomicElement"):
        if self.level != other.level:
            raise ValueError(
                "cyclotomic level mismatch: %r vs %r" % (self.level, other.level)
            )

    def __add__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        self._check_level(other)
        return CyclotomicElement(
            self.level, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        self._check_level(other)
        return CyclotomicElement(
            self.level, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "CyclotomicElement":
        return CyclotomicElement(self.level, tuple(-a for a in self.coeffs))

    def scale(self, c: int) -> "CyclotomicElement":
        return CyclotomicElement(self.level, tuple(c * a for a in self.coeffs))

    def __mul__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        self._check_level(other)
        n = self.level.degree
        out = [0] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return CyclotomicElement.make(self.level, out)

    def __pow__(self, e: int) -> "CyclotomicElement":
        if e < 0:
            raise ValueError("negative powers leave the ring")
        result = CyclotomicElement.integer(self.level, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])


def galois_apply(x: CyclotomicElement, a: int) -> CyclotomicElement:
    """The automorphism zeta |-> zeta**a for gcd(a, p) = 1."""
    mod = x.level.modulus
    if math.gcd(a, x.level.p) != 1:
        raise ValueError("galois index %r not coprime to %d" % (a, x.level.p))
    out = [0] * mod
    for e, c in enumerate(x.coeffs):
        if c:
            out[(e * a) % mod] += c
    return CyclotomicElement.make(x.level, out)


@dataclasses.dataclass(frozen=True)
class CyclotomicRational:
    """numerator / denominator with numerator in Z[zeta], denominator in Z > 0.

    Normalized deterministically: denominator positive and coprime to the
    gcd of the numerator's coefficients.
    """

    numerator: CyclotomicElement
    denominator: int

    @staticmethod
    def make(numerator: CyclotomicElement, denominator: int) -> "CyclotomicRational":
        if denominator == 0:
            raise ZeroDivisionError("zero denominator")
        if denominator < 0:
            numerator, denominator = -numerator, -denominator
        content = 0
        for c in numerator.coeffs:
            content = math.gcd(content, c)
        g = math.gcd(content, denominator)
        if g > 1:
            numerator = CyclotomicElement(
                numerator.level, tuple(c // g for c in numerator.coeffs)
            )
            denominator //= g
        return CyclotomicRational(numerator, denominator)

    @staticmethod
    def from_rational(level: CyclotomicLevel, q: Fraction) -> "CyclotomicRational":
        return CyclotomicRational.make(
            CyclotomicElement.integer(level, q.numerator), q.denominator
        )

    @property
    def level(self) -> CyclotomicLevel:
        return self.numerator.level

    def __add__(self, other: "CyclotomicRational") -> "CyclotomicRational":
        return CyclotomicRational.make(
            self.numerator.scale(other.denominator)
            + other.numerator.scale(self.denominator),
            self.denominator * other.denominator,
        )

    def __neg__(self) -> "CyclotomicRational":
        return CyclotomicRational(-self.numerator, self.denominator)

    def __sub__(self, other: "CyclotomicRational") -> "CyclotomicRational":
        return self + (-other)

    def __mul__(self, other: "CyclotomicRational") -> "CyclotomicRational":
        return CyclotomicRational.make(
            self.numerator * other.numerator,
            self.denominator * other.denominator,
        )

    def scale_rational(self, q: Fraction) -> "CyclotomicRational":
        return CyclotomicRational.make(
            self.numerator.scale(q.numerator), self.denominator * q.denominator
        )

    def is_zero(self) -> bool:
        return self.numerator.is_zero()


def rational_part(x: CyclotomicRational) -> Fraction:
    """The value of x as a Fraction; raises if x is not rational.

    A non-rational argument signals an upstream computation bug (products
    over full Galois orbits must land in the fixed field Q).
    """
    if not x.numerator.is_rational():
        raise ValueError("element is not rational: %r" % (x,))
    return Fraction(x.numerator.coeffs[0], x.denominator)
