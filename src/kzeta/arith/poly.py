"""Dense univariate polynomials with exact coefficients.

Coefficients are stored lowest degree first in a trimmed tuple (no trailing
zeros, zero polynomial is the empty tuple).  Entries may be int or
fractions.Fraction; the two mix freely.  Includes cyclotomic polynomials and
the integer resultant.  `lfun` takes its orbit norms as products of Galois
conjugates and calls neither; the resultant Res(Phi_d, P) is the same norm,
kept as API and as the oracle the tests check it against.  The resultant is
multi-modular (Collins): for monic f it first reduces g mod f over Z, then
computes Res mod primes p < 2**61 by the Euclidean algorithm over F_p and
rebuilds the exact value by CRT against the Hadamard bound on the Sylvester
determinant.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import threading
from fractions import Fraction

from .factor import is_prime


@dataclasses.dataclass(init=False, eq=True, frozen=True)
class Poly:
    """Polynomial sum(coeffs[i] * x**i).

    >>> x = Poly.x()
    >>> (x - 1) * (x + 1)
    Poly([-1, 0, 1])
    >>> (x**2 - 1) // (x - 1)
    Poly([1, 1])
    >>> Poly([1, 2]).evaluate(3)
    7
    """

    coeffs: tuple

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @staticmethod
    def x() -> "Poly":
        return Poly((0, 1))

    @staticmethod
    def const(c) -> "Poly":
        return Poly((c,))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        """Exact long division; raises if a coefficient step is inexact.

        Always succeeds over Fraction coefficients or for monic integer
        divisors, which covers every divisor used here.
        """
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        dq = len(rem) - len(other.coeffs) + 1
        if dq <= 0:
            return Poly(), self
        quo = [0] * dq
        for i in range(dq - 1, -1, -1):
            c = rem[i + other.degree]
            if c == 0:
                continue
            q = c / lead if isinstance(c, Fraction) or isinstance(lead, Fraction) else None
            if q is None:
                q, r = divmod(c, lead)
                if r != 0:
                    raise ValueError("inexact polynomial division over the integers")
            quo[i] = q
            for j, b in enumerate(other.coeffs):
                rem[i + j] -= q * b
        return Poly(quo), Poly(rem)

    def __floordiv__(self, other):
        q, _ = divmod(self, other)
        return q

    def __mod__(self, other):
        _, r = divmod(self, other)
        return r

    def evaluate(self, v):
        """Horner evaluation at v (int or Fraction)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def map_coeffs(self, fn) -> "Poly":
        return Poly([fn(c) for c in self.coeffs])

    def denominator_lcm(self) -> int:
        """lcm of coefficient denominators (1 for integer polynomials)."""
        return math.lcm(*(c.denominator for c in self.coeffs))

    def __repr__(self):
        return "Poly(%s)" % (list(self.coeffs),)


def _coerce(v) -> Poly:
    if isinstance(v, Poly):
        return v
    return Poly((v,))


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial_any(d: int) -> Poly:
    """Phi_d for arbitrary d >= 1, via (x**d - 1) / prod over proper divisors.

    >>> cyclotomic_polynomial_any(15).coeffs
    (1, -1, 0, 1, -1, 1, 0, -1, 1)
    >>> cyclotomic_polynomial_any(2).coeffs
    (1, 1)
    """
    if d < 1:
        raise ValueError("d must be positive")
    num = Poly([-1] + [0] * (d - 1) + [1])
    for e in range(1, d):
        if d % e == 0:
            q, r = divmod(num, cyclotomic_polynomial_any(e))
            assert r.is_zero()
            num = q
    return num


def resultant(f: Poly, g: Poly) -> int:
    """Res(f, g) for integer polynomials, by Collins' multi-modular method.

    For monic f this equals the product of g over the roots of f, i.e. the
    absolute norm of g(alpha) in Z[alpha] = Z[x]/(f); g is then first
    replaced by g mod f over Z, which leaves the resultant unchanged.  The
    resultant is computed mod primes p < 2**61 that do not divide
    lc(f)*lc(g), by the Euclidean algorithm over F_p, and rebuilt by CRT in
    the symmetric range once the modulus exceeds twice the Hadamard bound
    ||f||_2**deg(g) * ||g||_2**deg(f) on the Sylvester determinant.

    Raises TypeError for non-integer coefficients.

    >>> resultant(cyclotomic_polynomial_any(9), Poly([1, -1]))
    3
    >>> resultant(cyclotomic_polynomial_any(3), Poly([2]))
    4
    """
    for c in f.coeffs + g.coeffs:
        if not isinstance(c, int):
            raise TypeError("resultant needs integer coefficients, got %r" % (c,))
    n = f.degree
    if n < 0 or g.is_zero():
        return 0
    if n > 0 and f.coeffs[-1] == 1:
        g = g % f
        if g.is_zero():
            return 0
    m = g.degree
    if n == 0:
        return f.coeffs[0] ** m
    if m == 0:
        return g.coeffs[0] ** n
    # |Res| <= B with B**2 = (sum f_i**2)**m * (sum g_i**2)**n, so a modulus
    # above 2 * (isqrt(B**2) + 1) determines Res in the symmetric range.
    bound_sq = sum(c * c for c in f.coeffs) ** m * sum(c * c for c in g.coeffs) ** n
    target = 2 * (math.isqrt(bound_sq) + 1)
    lead = f.coeffs[-1] * g.coeffs[-1]
    fd = f.coeffs[::-1]
    gd = g.coeffs[::-1]
    value, modulus = 0, 1
    for p in _crt_primes():
        if modulus > target:
            break
        if lead % p == 0:
            continue
        r = _resultant_mod_p([c % p for c in fd], [c % p for c in gd], p)
        # Garner step: the unique value mod modulus*p matching both residues
        value += modulus * ((r - value % p) * pow(modulus, -1, p) % p)
        modulus *= p
    return value - modulus if 2 * value > modulus else value


def _resultant_mod_p(a: list[int], b: list[int], p: int) -> int:
    """Res(a, b) mod p for coefficient lists, highest degree first, with
    nonzero leading entries and degrees >= 1.

    Euclid: for r = a mod b of degree k, Res(a, b) = (-1)**(deg a * deg b)
    * lc(b)**(deg a - k) * Res(b, r).  After a first swap that puts the
    larger degree in a, every step keeps deg a >= deg b.
    """
    acc = 1
    if len(a) < len(b):
        a, b = b, a
        if (len(a) - 1) & (len(b) - 1) & 1:
            acc = -1
    while True:
        n, m = len(a) - 1, len(b) - 1
        if m == 0:
            return acc * pow(b[0], n, p) % p
        lc = b[0]
        inv = pow(lc, -1, p)
        tail = b[1:]
        rem = a[:]
        for i in range(n - m + 1):
            q = rem[i] * inv % p
            if q:
                for j, c in enumerate(tail, i + 1):
                    rem[j] = (rem[j] - q * c) % p
        rem = rem[n - m + 1 :]
        while rem and rem[0] == 0:
            del rem[0]
        if not rem:
            return 0
        if n & m & 1:
            acc = -acc
        acc = acc * pow(lc, n - len(rem) + 1, p) % p
        a, b = b, rem


_CRT_PRIMES: list[int] = []
_CRT_PRIMES_LOCK = threading.Lock()


def _crt_primes():
    """The primes below 2**61 in descending order, found lazily and cached."""
    i = 0
    while True:
        if i == len(_CRT_PRIMES):
            with _CRT_PRIMES_LOCK:
                if i == len(_CRT_PRIMES):
                    c = _CRT_PRIMES[-1] - 2 if _CRT_PRIMES else 2**61 - 1
                    while not is_prime(c):
                        c -= 2
                    _CRT_PRIMES.append(c)
        yield _CRT_PRIMES[i]
        i += 1
