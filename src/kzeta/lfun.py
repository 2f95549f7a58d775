"""Generalized Bernoulli numbers, Dirichlet L-values at negative odd
integers, and Dedekind zeta values of totally real abelian fields.

Everything is exact.  For a primitive character chi of conductor f and n >= 2,

    B_{n,chi} = f^(n-1) * sum_{a=1}^{f} chi(a) B_n(a/f)
              = (1 / (f*D)) * sum_a chi(a) * N_a

where D = lcm(denominator(B_0), ..., denominator(B_n)) and
N_a = D * sum_i C(n,i) B_i f^i a^(n-i) is an integer.  Characters of
prime-power order live in Z[zeta_{p^N}]; a full Galois orbit of characters of
arbitrary order d is handled through the norm form Res(Phi_d, P) / (f*D)^phi(d)
with P(y) = sum_a N_a y^(t_a), which never leaves the rationals.  The
resultant is multi-modular: P is reduced mod Phi_d over Z, Res is taken mod
word-sized primes by the Euclidean algorithm, and the exact integer is rebuilt
by CRT once the modulus passes twice the Hadamard bound.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import (
    CyclotomicElement,
    CyclotomicLevel,
    CyclotomicRational,
    Poly,
    cyclotomic_polynomial_any,
    factorize,
    is_prime,
    pi_valuation,
    resultant,
    valuation,
)
from .characters import DirichletCharacter, FieldSpec
from .powersum import bernoulli_number

RATIONAL_LEVEL = CyclotomicLevel(2, 1)  # Q(zeta_2) = Q; carries rational values


def _prime_power_base(d: int) -> int | None:
    fs = factorize(d)
    return fs[0][0] if len(fs) == 1 else None


def _bernoulli_denominator_lcm(n: int) -> int:
    return math.lcm(*(bernoulli_number(i).denominator for i in range(n + 1)))


def _numerator_coefficients(n: int, f: int, big_d: int) -> list[int]:
    """c_i = D * C(n,i) * B_i * f^i; then N_a = sum_i c_i a^(n-i)."""
    out = []
    fpow = 1
    for i in range(n + 1):
        c = bernoulli_number(i) * (big_d * math.comb(n, i) * fpow)
        if c.denominator != 1:
            raise AssertionError("Bernoulli denominator lcm was wrong")
        out.append(int(c))
        fpow *= f
    return out


def _value_buckets(chi: DirichletCharacter, n: int) -> tuple[int, int, dict[int, int]]:
    """Sum the integer weights N_a by the character exponent t of a, where
    chi(a) = zeta_ord^t.  The units a in [1, f] come from chi.walk(), so no
    discrete log is taken.

    Returns (f, D, {t: sum of N_a over a with chi(a) = zeta_ord^t}).
    """
    f = chi.conductor
    big_d = _bernoulli_denominator_lcm(n)
    coeffs = _numerator_coefficients(n, f, big_d)
    buckets: dict[int, int] = {}
    for a, t in chi.walk():
        a = a or f  # the walk mod 1 yields the residue 0
        v = 0
        for c in coeffs:
            v = v * a + c
        buckets[t] = buckets.get(t, 0) + v
    return f, big_d, buckets


def generalized_bernoulli(
    chi: DirichletCharacter, n: int, level: CyclotomicLevel | None = None
) -> CyclotomicRational:
    """B_{n,chi} for primitive chi of prime-power order, exactly.

    The result lives in Q(zeta_{p^N}) where p^b = ord(chi) and N >= b is
    taken from `level` (defaulting to the character's own level).  The
    trivial character gives the Bernoulli number B_n, carried at the
    degree-one level (2,1) unless a level is passed.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError("n must be an integer >= 2, got %r" % (n,))
    if not chi.is_primitive():
        raise ValueError(
            "character must be primitive (conductor %d != modulus %d)"
            % (chi.conductor, chi.modulus)
        )
    d = chi.order
    if d == 1:
        lv = RATIONAL_LEVEL if level is None else level
        return CyclotomicRational.from_rational(lv, bernoulli_number(n))
    p = _prime_power_base(d)
    if p is None:
        raise ValueError("character order %d is not a prime power" % (d,))
    b = valuation(d, p)
    if level is None:
        level = CyclotomicLevel(p, b)
    if level.p != p:
        raise ValueError("level prime %d does not match character order %d" % (level.p, d))
    if level.n < b:
        raise ValueError("level %d is below the character level %d" % (level.n, b))
    f, big_d, buckets = _value_buckets(chi, n)
    scale = p ** (level.n - b)
    raw = [0] * level.modulus
    for t, s in buckets.items():
        raw[t * scale] += s
    return CyclotomicRational.make(CyclotomicElement.make(level, raw), f * big_d)


def l_value_negative(
    chi: DirichletCharacter, k: int, level: CyclotomicLevel | None = None
) -> CyclotomicRational:
    """L(chi, -k) = -B_{k+1,chi} / (k+1) for odd k >= 1."""
    if not isinstance(k, int) or k < 1 or k % 2 == 0:
        raise ValueError("k must be an odd integer >= 1, got %r" % (k,))
    return generalized_bernoulli(chi, k + 1, level).scale_rational(Fraction(-1, k + 1))


def _orbit_l_product(chi: DirichletCharacter, k: int) -> Fraction:
    """Product of L(chi^a, -k) over a coprime to d = ord(chi), as a rational.

    With P(y) = sum_a N_a y^(t_a), the orbit product of the B_{k+1,chi^a}
    equals Res(Phi_d, P) / (f*D)^phi(d); the L-normalization contributes
    (-1/(k+1))^phi(d).
    """
    d = chi.order
    f, big_d, buckets = _value_buckets(chi, k + 1)
    coeffs = [0] * d
    for t, s in buckets.items():
        coeffs[t] += s
    pol = Poly(coeffs)
    phi_d = cyclotomic_polynomial_any(d)
    deg = phi_d.degree
    norm = 0 if pol.is_zero() else resultant(phi_d, pol)
    return Fraction(-1, k + 1) ** deg * Fraction(norm, (f * big_d) ** deg)


def zeta_value_negative(spec: FieldSpec, k: int) -> Fraction:
    """zeta_F(-k) for the totally real abelian field F, odd k >= 1.

    Artin factorization over the character group: the trivial character
    contributes zeta(-k) = -B_{k+1}/(k+1), and each Galois orbit of
    nontrivial characters contributes its rational norm-form product.
    """
    if not isinstance(k, int) or k < 1 or k % 2 == 0:
        raise ValueError("k must be an odd integer >= 1, got %r" % (k,))
    chars = spec.characters
    for chi in chars:
        if not chi.is_even:
            raise ValueError("field is not totally real (odd character present)")
    value = Fraction(-bernoulli_number(k + 1), k + 1)
    seen: set[DirichletCharacter] = set()
    for chi in sorted(chars, key=lambda c: c.sort_key()):
        if chi.is_trivial() or chi in seen:
            continue
        d = chi.order
        orbit = [chi**a for a in range(1, d) if math.gcd(a, d) == 1]
        for member in orbit:
            if member not in chars:
                raise ValueError("character group is not closed under Galois action")
        seen.update(orbit)
        value *= _orbit_l_product(chi, k)
    return value


def char_bernoulli_pi_valuation(
    chi: DirichletCharacter, k: int, level_n: int | None = None
) -> int:
    """v_pi(B_{k+1,chi}) at level p^N, where pi = 1 - zeta_{p^N}.

    The character must have order p^b > 1; N defaults to b.
    """
    if not isinstance(k, int) or k < 1 or k % 2 == 0:
        raise ValueError("k must be an odd integer >= 1, got %r" % (k,))
    d = chi.order
    if d == 1:
        raise ValueError("trivial character has no distinguished prime")
    p = _prime_power_base(d)
    if p is None:
        raise ValueError("character order %d is not a prime power" % (d,))
    b = valuation(d, p)
    n_level = b if level_n is None else level_n
    if n_level < b:
        raise ValueError("level %d is below the character level %d" % (n_level, b))
    value = generalized_bernoulli(chi, k + 1, CyclotomicLevel(p, n_level))
    v = pi_valuation(value)
    if v == math.inf:
        raise ArithmeticError("generalized Bernoulli number vanishes")
    return v


def product_valuation(spec: FieldSpec, p: int, k: int) -> Fraction:
    """Normalized valuation sum_{chi != chi0} v_pi(B_{k+1,chi}) / phi(p^N).

    N is the exponent of the p-group of characters; each summand is computed
    at the character's own level b and rescaled by p^(N-b), which is exactly
    the ramification index between the two levels.  The ceiling of the result
    is a lower bound for v_p of the integer character product.
    """
    if spec.kind not in ("max-p", "prime-cyclic"):
        raise ValueError("field spec must be a p-group subextension variant")
    if not isinstance(k, int) or k < 1 or k % 2 == 0:
        raise ValueError("k must be an odd integer >= 1, got %r" % (k,))
    if not is_prime(p) or p < k + 2:
        raise ValueError("need a prime p >= k+2; got p=%r, k=%r" % (p, k))
    if not spec.is_p_group(p):
        raise ValueError("character group is not a %d-group" % (p,))
    exponent = spec.group_exponent()
    if exponent == 1:
        return Fraction(0)
    n_top = valuation(exponent, p)
    total = 0
    for chi in spec.sorted_characters():
        if chi.is_trivial():
            continue
        b = valuation(chi.order, p)
        total += char_bernoulli_pi_valuation(chi, k) * p ** (n_top - b)
    return Fraction(total, (p - 1) * p ** (n_top - 1))
