"""Bernoulli numbers/polynomials and the power-sum polynomial machinery.

S_n(x) = (B_{n+1}(x) - B_{n+1})/(n+1) interpolates the power sums:
S_n(m) = 0**n + 1**n + ... + (m-1)**n.  d_n is the smallest positive integer
clearing its denominators, and f_n is the integer polynomial with
d_n * S_n(x) = (x-1) * f_n(x) (the factor exists because S_n(1) is the empty
sum).  These divisibility facts feed the congruence bounds for generalized
Bernoulli numbers downstream.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from fractions import Fraction

from .arith import Poly, primes_up_to

_bernoulli: list[Fraction] = [Fraction(1)]
_bernoulli_lock = threading.Lock()


def bernoulli_number(n: int) -> Fraction:
    """B_n, with B_0 = 1, B_1 = -1/2, B_n = 0 for odd n >= 3.

    Computed once by the recurrence sum_{i=0}^{n} C(n+1, i) B_i = 0 and
    memoized; the table only ever grows (safe under concurrent readers).
    """
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0, got %r" % (n,))
    if n >= len(_bernoulli):
        with _bernoulli_lock:
            while n >= len(_bernoulli):
                m = len(_bernoulli)
                acc = Fraction(0)
                for i in range(m):
                    acc += math.comb(m + 1, i) * _bernoulli[i]
                _bernoulli.append(-acc / (m + 1))
    return _bernoulli[n]


def bernoulli_polynomial(n: int) -> Poly:
    """B_n(x) = sum_{i=0}^{n} C(n, i) B_i x**(n-i)."""
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0, got %r" % (n,))
    coeffs = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        coeffs[n - i] = math.comb(n, i) * bernoulli_number(i)
    return Poly(coeffs)


def s_polynomial(n: int) -> Poly:
    """S_n(x) = (B_{n+1}(x) - B_{n+1}) / (n+1), of degree n+1.

    >>> s_polynomial(1).coeffs
    (Fraction(0, 1), Fraction(-1, 2), Fraction(1, 2))
    """
    if n < 0:
        raise ValueError("index must be >= 0, got %r" % (n,))
    b = bernoulli_polynomial(n + 1)
    shifted = b - Poly.const(bernoulli_number(n + 1))
    return shifted.map_coeffs(lambda c: Fraction(c) / (n + 1))


def powersum_denominator(n: int) -> int:
    """d_n: smallest positive integer with d_n * S_n(x) integral (d_0 = 1)."""
    if n < 0:
        raise ValueError("index must be >= 0, got %r" % (n,))
    if n == 0:
        return 1
    return s_polynomial(n).denominator_lcm()


def f_polynomial(n: int) -> Poly:
    """The unique integer f_n with d_n * S_n(x) = (x - 1) * f_n(x), n >= 1."""
    if n < 1:
        raise ValueError("f_n needs n >= 1, got %r" % (n,))
    return _cleared(n, s_polynomial(n))[1]


def _cleared(n: int, s: Poly) -> tuple[int, Poly]:
    """(d_n, f_n) from S_n = s.

    A nonzero remainder in the division by x - 1 would signal an arithmetic
    bug; it is asserted away rather than silently dropped.
    """
    d = s.denominator_lcm()
    quotient, remainder = divmod(s.map_coeffs(lambda c: int(c * d)), Poly((-1, 1)))
    if not remainder.is_zero():
        raise ArithmeticError("S_%d(1) != 0; power-sum division left %r" % (n, remainder))
    return d, quotient


def vsc_denominator(n: int) -> int:
    """Denominator of B_n for even n >= 2: the product of primes q with
    (q - 1) | n (von Staudt-Clausen).

    >>> vsc_denominator(12)
    2730
    """
    if n < 2 or n % 2 != 0:
        raise ValueError("von Staudt-Clausen applies to even n >= 2, got %r" % (n,))
    out = 1
    for q in primes_up_to(n + 1):
        if n % (q - 1) == 0:
            out *= q
    return out


def brute_power_sum(m: int, n: int) -> int:
    """Literal sum_{a=0}^{m-1} a**n; the independent oracle for S_n.

    >>> brute_power_sum(5, 2)
    30
    """
    if m < 1:
        raise ValueError("m must be >= 1, got %r" % (m,))
    if n < 0:
        raise ValueError("n must be >= 0, got %r" % (n,))
    return sum(a**n for a in range(m))


@dataclasses.dataclass(frozen=True)
class PowerSumData:
    """Bundle of S_n, d_n, f_n and the prime bound M_n for one index n."""

    n: int
    S: Poly
    d: int
    f: Poly
    M: Fraction


def power_sum_data(n: int) -> PowerSumData:
    """S_n, d_n, f_n and M_n for one n >= 1, building S_n once."""
    if n < 1:
        raise ValueError("power_sum_data needs n >= 1, got %r" % (n,))
    s = s_polynomial(n)
    d, f = _cleared(n, s)
    m = Fraction(n + 2, 2) if n % 2 == 0 else Fraction(n + 2, 3)
    return PowerSumData(n=n, S=s, d=d, f=f, M=m)
