"""Values in Q(zeta) for zeta a primitive p**n-th root of unity.

Elements are dense integer coefficient vectors on the power basis
1, zeta, ..., zeta**(phi(p**n)-1) at a fixed level (p, n).  This is the
value type `lfun.generalized_bernoulli` returns: `CyclotomicElement.make`
reduces any exponent, and `CyclotomicRational.make` is canonical, so equal
values compare equal.  There is no ring arithmetic here; norms and pi-adic
valuations are taken in `lfun`, as rational products over Galois orbits.
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
    def integer(level: CyclotomicLevel, c: int) -> "CyclotomicElement":
        return CyclotomicElement(level, (c,) + (0,) * (level.degree - 1))

    def __post_init__(self):
        if len(self.coeffs) != self.level.degree:
            raise ValueError(
                "coefficient vector has length %d, level needs %d"
                % (len(self.coeffs), self.level.degree)
            )

    def scale(self, c: int) -> "CyclotomicElement":
        return CyclotomicElement(self.level, tuple(c * a for a in self.coeffs))

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])


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
            numerator, denominator = numerator.scale(-1), -denominator
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

    def scale_rational(self, q: Fraction) -> "CyclotomicRational":
        return CyclotomicRational.make(
            self.numerator.scale(q.numerator), self.denominator * q.denominator
        )


def rational_part(x: CyclotomicRational) -> Fraction:
    """The value of x as a Fraction; raises if x is not rational.

    A non-rational argument signals an upstream computation bug (products
    over full Galois orbits must land in the fixed field Q).
    """
    if not x.numerator.is_rational():
        raise ValueError("element is not rational: %r" % (x,))
    return Fraction(x.numerator.coeffs[0], x.denominator)
