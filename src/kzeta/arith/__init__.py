"""Exact arithmetic substrate: integers, rationals, polynomials, the
values in prime-power cyclotomic fields, and integer factorization.

Integers are Python int, rationals are fractions.Fraction (always reduced,
positive denominator); both are re-used as-is rather than wrapped.
"""

from .factor import (
    factorization_string,
    factorize,
    is_prime,
    primes_up_to,
    valuation,
)
from .poly import Poly, cyclotomic_polynomial_any, resultant
from .cyclo import (
    CyclotomicElement,
    CyclotomicLevel,
    CyclotomicRational,
    rational_part,
)

__all__ = [
    "CyclotomicElement",
    "CyclotomicLevel",
    "CyclotomicRational",
    "Poly",
    "cyclotomic_polynomial_any",
    "factorization_string",
    "factorize",
    "is_prime",
    "primes_up_to",
    "rational_part",
    "resultant",
    "valuation",
]
