"""Generalized Bernoulli numbers, Dirichlet L-values at negative odd
integers, and Dedekind zeta values of totally real abelian fields.

Everything is exact.  For a primitive character chi of conductor f and n >= 2,

    B_{n,chi} = f^(n-1) * sum_{a=1}^{f} chi(a) B_n(a/f)
              = (1 / (f*D)) * sum_a chi(a) * N_a

where D = lcm(denominator(B_0), ..., denominator(B_n)) and
N_a = D * sum_i C(n,i) B_i f^i a^(n-i) = D f^n B_n(a/f) is an integer.  The
weights N_a depend on (f, n) only, so they are computed once per conductor:
tabulated for a <= f/2 by running sums of their constant n-th forward
difference (by Horner's rule at each a when f/2 <= n), mirrored by
N_{f-a} = (-1)^n N_a, as B_n(1-x) = (-1)^n B_n(x), and gathered at the
units of a transversal of (Z/f)^* modulo {1, -1}.  The other half of the
units follows from the same mirror and chi(f-a) = chi(-1) chi(a).  Each
character then sums the shared weights by slices of its exponent pattern on
the generators; no unit is visited one at a time.  generalized_bernoulli
returns B_{n,chi} itself, in Z[zeta_{p^N}] for chi of prime-power order.
Zeta values, pi-adic valuations and product valuations go through two
integers per Galois orbit of characters of order d instead: the norm
N = N(P(zeta_d)) with P(y) = sum_a N_a y^(t_a), and the scale (f*D)^phi(d).
Their quotient is the product of B_{n,chi^a} over the orbit.  A zeta value
divides each orbit's norm and scale by their gcd and multiplies them into
one numerator and denominator; a valuation is v_p(N) - phi(d) v_p(f*D).
The orbits come from FieldSpec.orbits, one representative and the orbit
size phi(d) each; no conjugate is built.  The norm is the product of the
Galois conjugates sigma_a(P), a in (Z/d)^*, evaluated at x = 2^s modulo
M = Phi_d(2^s): sigma_a permutes the coefficients, so each conjugate's value
is one integer joined from s-bit slots, and phi(d) integer multiplies give
N mod M.  s is chosen so that the Parseval bound
|N|^2 <= (d * sum c_i^2 / phi(d))^phi(d) puts N below M/2.  Since p is
totally ramified in Q(zeta_{p^N}), the valuation at pi = 1 - zeta_{p^N} of
B_{n,chi}, chi of order p^b, is p^(N-b) times v_p of its orbit product.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from itertools import accumulate, repeat

from .arith import (
    CyclotomicElement,
    CyclotomicLevel,
    CyclotomicRational,
    factorize,
    is_prime,
    primes_up_to,
    resultant,  # not called here; bench/spans.py traces this binding
    valuation,
)
from .characters import DirichletCharacter, FieldSpec, unit_group
from .powersum import bernoulli_number

RATIONAL_LEVEL = CyclotomicLevel(2, 1)  # Q(zeta_2) = Q; carries rational values


def _require_odd_k(k: int) -> None:
    if not isinstance(k, int) or k < 1 or k % 2 == 0:
        raise ValueError("k must be an odd integer >= 1, got %r" % (k,))


def _prime_power(d: int) -> tuple[int, int]:
    """(p, b) with d = p**b, b >= 1."""
    fs = factorize(d)
    if len(fs) != 1:
        raise ValueError("character order %d is not a prime power" % (d,))
    return fs[0]


def _require_level_at_least(n: int, b: int) -> None:
    if n < b:
        raise ValueError("level %d is below the character level %d" % (n, b))


def _require_primitive(chi: DirichletCharacter) -> None:
    if not chi.is_primitive():
        raise ValueError(
            "character must be primitive (conductor %d != modulus %d)"
            % (chi.conductor, chi.modulus)
        )


def _bernoulli_denominator_lcm(n: int) -> int:
    """The lcm of the denominators of B_0, ..., B_n, read off without them.

    By von Staudt-Clausen the denominator of B_i, i >= 2 even, is the
    product of the primes ell with ell - 1 | i, and B_1 = -1/2.  So the lcm
    is squarefree, and its primes are those ell <= n + 1: take i = ell - 1,
    or i = 1 for ell = 2.

    >>> _bernoulli_denominator_lcm(6)
    210
    """
    return math.prod(primes_up_to(n + 1))


def _numerator_coefficients(n: int, f: int, big_d: int) -> list[int]:
    """c_i = D * C(n,i) * B_i * f^i; then N_a = sum_i c_i a^(n-i)."""
    out = []
    fpow = 1
    for i in range(n + 1):
        b = bernoulli_number(i)
        scale, rem = divmod(big_d, b.denominator)
        if rem:
            raise AssertionError("Bernoulli denominator lcm was wrong")
        out.append(scale * b.numerator * math.comb(n, i) * fpow)
        fpow *= f
    return out


def _transversal(f: int) -> tuple[tuple[tuple[int, int], ...], list[int]]:
    """The units of a transversal of (Z/f)^* modulo {1, -1}, in mixed-radix
    order, with its digits (generator index, radix), fastest first.

    Each generator g_i runs over its full order o_i, except the first 'odd'
    or 'minus' one, whose range is cut to [0, o_i/2).  -1 is g_i**(o_i/2) on
    every 'odd' and 'minus' component and 1 on the 'five' one, so multiplying
    by -1 moves that digit by o_i/2, and exactly one of a and -a is listed.
    Digits of radix 1 are dropped; the largest radix runs fastest.  Each
    digit doubles the list by one whole-list map until it has run its
    range.  f = 1 gives the one unit 1.

    >>> _transversal(7)  # 3 generates (Z/7)^*; -1 = 3**3
    (((0, 3),), [1, 3, 2])
    >>> _transversal(8)  # 7 = -1 is cut to radix 1; 5 keeps its order 2
    (((1, 2),), [1, 5])
    """
    group = unit_group(f)
    radices = [o for _, o in group.generators]
    signed = [i for i, loc in enumerate(group.locals_) if loc.kind != "five"]
    if signed:
        radices[signed[0]] //= 2
    digits = sorted(((i, r) for i, r in enumerate(radices) if r > 1), key=lambda x: -x[1])
    units = [1]
    for i, r in digits:
        g, size = group.generators[i][0], len(units)
        while len(units) < r * size:  # units[k*size + x] = units[x] * g**k
            step = pow(g, len(units) // size, f)
            units += [x * step % f for x in units]
        del units[r * size :]
    return tuple(digits), units


@functools.lru_cache(maxsize=16)
def _half_weights(f: int, n: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """The digits of _transversal(f) and N_a for each of its units a.

    N_a is a polynomial of degree n in a.  When f//2 <= n, N_0, ..., N_{f//2}
    are each taken by Horner's rule.  Otherwise its n-th forward difference
    is constant: N_0, ..., N_n by Horner's rule give the differences at
    a = 0, and n running sums of them, one add per entry per pass, give
    N_0, ..., N_{f//2}.  N_{f-a} = (-1)^n N_a mirrors them onto the other
    residues, and one itemgetter gathers the units in the transversal's
    order.  Orbits come grouped by conductor
    (FieldSpec.orbits is in sort order), so a few entries serve every orbit.

    >>> _half_weights(7, 2)  # D = 6; N_a = 6a^2 - 42a + 49 at a = 1, 3, 2
    (((0, 3),), (13, -23, -11))
    >>> _half_weights(7, 3)  # D = 6; N_a = 6a^3 - 63a^2 + 147a at 1, 3, 2
    (((0, 3),), (90, 36, 90))
    >>> _half_weights(8, 2), _half_weights(8, 3)  # units 1 and 5
    ((((1, 2),), (22, -26)), (((1, 2),), (126, -90)))
    """
    digits, units = _transversal(f)
    coeffs = _numerator_coefficients(n, f, _bernoulli_denominator_lcm(n))
    half = max(f // 2, 1)  # f = 1: the one unit is 1
    table = []  # N_0, ..., N_min(n, half) by Horner's rule
    for a in range(min(n, half) + 1):
        v = 0
        for c in coeffs:
            v = v * a + c
        table.append(v)
    if half > n:  # the rest by n running sums of the differences at 0
        for j in range(1, n + 1):
            for i in range(n, j - 1, -1):
                table[i] -= table[i - 1]
        sums = repeat(table[n], half + 1 - n)
        for start in reversed(table[:n]):
            sums = accumulate(sums, initial=start)
        table = list(sums)
    mirror = table[f - 1 - f // 2 : 0 : -1]  # N_a for a = f//2 + 1, ..., f - 1
    table += map(operator.neg, mirror) if n % 2 else mirror
    weights = operator.itemgetter(*units)(table)
    return digits, weights if len(units) > 1 else (weights,)  # one unit: the entry itself


def _value_buckets(chi: DirichletCharacter, n: int) -> tuple[int, int, list[int]]:
    """Sum the integer weights N_a by the character exponent t of a, where
    chi(a) = zeta_ord^t; chi must be primitive.

    The weights come from _half_weights, shared by every character of
    conductor f, over a transversal of (Z/f)^* modulo {1, -1}.  t of a
    position is sum_i k_i * s_i mod ord, with digit k_i and s_i = e_i*ord/o_i,
    so the sums need only slices: the slower digits fold into blocks, one per
    partial t, and the fastest digit, whose t repeats with period
    ord/gcd(ord, s_0), is summed by strided slices.  For prime f, the whole
    sum is sum(weights[r::ord]) per class r.  The other half follows from
    N_{f-a} = (-1)^n N_a, as B_n(1-x) = (-1)^n B_n(x), and
    chi(-a) = zeta_ord^shift chi(a), with shift = 0 for even chi and ord/2
    for odd chi: full[t] = half[t] + (-1)^n half[t - shift].

    Returns (f, D, buckets) with buckets[t] the sum of N_a over a with
    chi(a) = zeta_ord^t, for t in range(ord).
    """
    _require_primitive(chi)
    f, d = chi.conductor, chi.order
    big_d = _bernoulli_denominator_lcm(n)
    digits, weights = _half_weights(f, n)
    orders = chi.group.generators
    steps = [chi.exponents[i] * d // orders[i][1] % d for i, _ in digits]
    blocks = {0: weights}  # partial t of the slower digits -> faster digits
    size = len(weights)
    for (_, r), s in zip(digits[:0:-1], steps[:0:-1]):
        size //= r
        folded = {}
        for c, block in blocks.items():
            for k in range(r):
                t = (c + k * s) % d
                chunk = block[k * size : (k + 1) * size]
                folded[t] = list(map(operator.add, folded[t], chunk)) if t in folded else chunk
        blocks = folded
    s0 = steps[0] if steps else 0
    period = d // math.gcd(d, s0)
    half = [0] * d
    for c, block in blocks.items():
        for j in range(min(period, size)):
            half[(c + j * s0) % d] += sum(block[j::period])
    if f == 1:  # one unit, nothing to pair it with
        return f, big_d, half
    shift = 0 if chi.is_even else d // 2
    sign = -1 if n % 2 else 1
    return f, big_d, [half[t] + sign * half[t - shift] for t in range(d)]


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
    _require_primitive(chi)
    d = chi.order
    if d == 1:
        lv = RATIONAL_LEVEL if level is None else level
        return CyclotomicRational.from_rational(lv, bernoulli_number(n))
    p, b = _prime_power(d)
    if level is None:
        level = CyclotomicLevel(p, b)
    if level.p != p:
        raise ValueError("level prime %d does not match character order %d" % (level.p, d))
    _require_level_at_least(level.n, b)
    f, big_d, buckets = _value_buckets(chi, n)
    raw = [0] * level.modulus
    raw[:: p ** (level.n - b)] = buckets
    return CyclotomicRational.make(CyclotomicElement.make(level, raw), f * big_d)


def l_value_negative(
    chi: DirichletCharacter, k: int, level: CyclotomicLevel | None = None
) -> CyclotomicRational:
    """L(chi, -k) = -B_{k+1,chi} / (k+1) for odd k >= 1."""
    _require_odd_k(k)
    return generalized_bernoulli(chi, k + 1, level).scale_rational(Fraction(-1, k + 1))


def _cyclotomic_value(d: int, y: int) -> int:
    """The integer Phi_d(y) = prod_q (y^(d/q) - 1)^mu(q) over the squarefree
    divisors q of d, whose primes come from the cached unit_group(d).

    >>> from kzeta.arith import cyclotomic_polynomial_any
    >>> all(_cyclotomic_value(d, y) == cyclotomic_polynomial_any(d).evaluate(y)
    ...     for d in (1, 2, 9, 12, 15, 105) for y in (2, 10, 2**16))
    True
    >>> _cyclotomic_value(6, 2**8)  # 256^2 - 256 + 1
    65281
    """
    primes = {loc.prime for loc in unit_group(d).locals_}  # none for 2 when 2 || d
    if d % 2 == 0:
        primes.add(2)
    squarefree = [(1, 1)]  # (q, mu(q))
    for p in primes:
        squarefree += [(q * p, -mu) for q, mu in squarefree]
    num = den = 1
    for q, mu in squarefree:
        if mu > 0:
            num *= y ** (d // q) - 1
        else:
            den *= y ** (d // q) - 1
    return num // den


def _slot_bits(coeffs: list[int], d: int, phi: int) -> tuple[int, int]:
    """The slot width s and M = Phi_d(2^s) under which _orbit_norm reads N.

    s is the least multiple of 8 with s >= bits(max|c_i|) + 2, so that every
    c_i - min(c) <= 2 max|c_i| fills one s-bit slot, and with
    M^2 * phi^phi > 4 * (d * sum c_i^2)^phi.  That check proves M > 2|N|:
    by Parseval, |P|^2 summed over all d-th roots of unity is
    d * sum c_i^2, so by AM-GM over the phi primitive ones
    |N|^2 <= (d * sum c_i^2 / phi)^phi.

    >>> _slot_bits([1, -1, 0], 3, 2)  # |N| = 3 < Phi_3(2^8) / 2
    (8, 65793)
    """
    s = (max(map(abs, coeffs)).bit_length() + 9) // 8 * 8
    bound = 4 * (d * sum(map(operator.mul, coeffs, coeffs))) ** phi
    scale = phi**phi
    while True:
        modulus = _cyclotomic_value(d, 1 << s)
        if modulus * modulus * scale > bound:
            return s, modulus
        s += 8


def _orbit_norm(coeffs: list[int], d: int) -> int:
    """N_{Q(zeta_d)/Q}(P(zeta_d)) for P(x) = sum_i coeffs[i] x^i, len(coeffs) = d.

    In Z[x], prod_{a in (Z/d)^*} sigma_a(P)(x) = N (mod Phi_d(x)), where
    sigma_a(P) has the coefficient c_(a^-1 j mod d) at x^j.  At x = 2^s that
    makes N = prod_a sigma_a(P)(2^s) mod M, M = Phi_d(2^s), and _slot_bits
    picks s with M > 2|N|, so N is the symmetric residue.  Each
    sigma_a(P)(2^s) is one integer, joined from the s-bit slots of the
    coefficients, and the slots of the next conjugate are those of the last
    permuted by one fixed itemgetter per generator of unit_group(d), in
    mixed-radix order.  The coefficients are first shifted by -min(c_i), into
    [0, 2 max|c_i|], which fits an s-bit slot.  For d > 1 the shift adds a
    multiple of 1 + x + ... + x^(d-1), which every sigma_a fixes and every
    primitive d-th root of unity annuls, so N is unchanged; d = 1 gives c_0.
    M divides 2^(sd) - 1, so the running product is folded mod 2^(sd) - 1
    after each multiply and reduced mod M once at the end.

    >>> _orbit_norm([1, -1, 0], 3)  # 1 - zeta_3
    3
    >>> _orbit_norm([1, -1, 0, 0, 0, 0, 0, 0], 8)  # 1 - zeta_8, two generators
    2
    >>> _orbit_norm([5], 1), _orbit_norm([0, 0, 0, 0], 4)
    (5, 0)
    """
    if d == 1:
        return coeffs[0]
    if not any(coeffs):
        return 0
    group = unit_group(d)
    s, modulus = _slot_bits(coeffs, d, group.phi)
    nbytes, low = s // 8, min(coeffs)
    slots = tuple(
        map(int.to_bytes, map(low.__rsub__, coeffs), repeat(nbytes), repeat("little"))
    )
    width = s * d
    mask = (1 << width) - 1
    steps = [
        (operator.itemgetter(*[g * j % d for j in range(d)]), k) for g, k in group.generators
    ]
    digits = [0] * len(steps)
    product = 1
    while True:
        z = product * int.from_bytes(b"".join(slots), "little")
        product = (z & mask) + (z >> width)
        for i, (step, k) in enumerate(steps):  # k steps of g bring the slots back
            slots = step(slots)
            digits[i] += 1
            if digits[i] < k:
                break
            digits[i] = 0
        else:
            break
    norm = product % modulus
    return norm - modulus if 2 * norm > modulus else norm


def _orbit_valuation(chi: DirichletCharacter, n: int, p: int) -> int:
    """v_p of the orbit product N / (f*D)^phi(d) of B_{n,chi}; raises if it
    vanishes."""
    d = chi.order
    f, big_d, buckets = _value_buckets(chi, n)
    norm = _orbit_norm(buckets, d)
    if norm == 0:
        raise ArithmeticError("generalized Bernoulli number vanishes")
    return valuation(norm, p) - unit_group(d).phi * valuation(f * big_d, p)


def zeta_value_negative(spec: FieldSpec, k: int) -> Fraction:
    """zeta_F(-k) for the totally real abelian field F, odd k >= 1.

    Artin factorization over the character group: the trivial character
    contributes zeta(-k) = -B_{k+1}/(k+1), and each Galois orbit of size phi
    of nontrivial characters contributes the product of
    L(chi^a, -k) = -B_{k+1,chi^a}/(k+1), which is (-1)^phi N / scale with
    the integer norm N and scale = ((k+1) * f * D)^phi.  Each orbit's N and
    scale are divided by their gcd before they join the running numerator
    and denominator, so no factor common to one orbit is carried along; the
    one Fraction at the end reduces what the orbits share.
    """
    _require_odd_k(k)
    n = k + 1
    b = bernoulli_number(n)
    num, den = -b.numerator, b.denominator * n
    for chi, phi in spec.orbits:
        f, big_d, buckets = _value_buckets(chi, n)
        norm, scale = _orbit_norm(buckets, chi.order), (n * f * big_d) ** phi
        g = math.gcd(norm, scale)
        num *= norm // g if phi % 2 == 0 else -norm // g
        den *= scale // g
    return Fraction(num, den)


def char_bernoulli_pi_valuation(
    chi: DirichletCharacter, k: int, level_n: int | None = None
) -> int:
    """v_pi(B_{k+1,chi}) at level p^N, where pi = 1 - zeta_{p^N}.

    The character must be primitive of order p^b > 1; N defaults to b.  p is
    totally ramified in Q(zeta_{p^N}) with residue degree 1, so v_pi at level
    b is v_p of the norm, i.e. of the orbit product, and level N multiplies
    it by the ramification index p^(N-b).
    """
    _require_odd_k(k)
    d = chi.order
    if d == 1:
        raise ValueError("trivial character has no distinguished prime")
    p, b = _prime_power(d)
    n_level = b if level_n is None else level_n
    _require_level_at_least(n_level, b)
    _require_primitive(chi)
    return p ** (n_level - b) * _orbit_valuation(chi, k + 1, p)


def product_valuation(spec: FieldSpec, p: int, k: int) -> int:
    """v_p of the product of B_{k+1,chi} over the nontrivial characters chi.

    Exact: each Galois orbit contributes v_p of its rational orbit product,
    which is sum_{chi in orbit} v_pi(B_{k+1,chi}) / phi(p^N) at any common
    level p^N.
    """
    if spec.kind not in ("max-p", "prime-cyclic"):
        raise ValueError("field spec must be a p-group subextension variant")
    _require_odd_k(k)
    if not is_prime(p) or p < k + 2:
        raise ValueError("need a prime p >= k+2; got p=%r, k=%r" % (p, k))
    if not spec.is_p_group(p):
        raise ValueError("character group is not a %d-group" % (p,))
    return sum(_orbit_valuation(chi, k + 1, p) for chi, _ in spec.orbits)
