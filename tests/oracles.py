"""Slow, independent routes to character values, Bernoulli sums, Galois
orbits, group closure and primality, for the tests.

The library moves characters between moduli by exponent arithmetic and sums
the Bernoulli weights of a conductor by slices over half its units; neither
takes a discrete log.  These oracles take one (UnitGroupStructure.dlog,
Pohlig-Hellman with baby-step giant-step) per value instead, build
primitive() and lift_to() from single values, and walk every unit with its
character exponent, one Horner evaluation per unit, as the library did
before.

The library tabulates the weights N_a of a conductor f for a <= f/2 by
running sums of their n-th forward difference and gathers them in the
order of the transversal.  half_weights evaluates N_a by Horner's rule at
each unit of the transversal instead, as the library did before.

They also hold the primality test kzeta ran before its witness sets were
tiered by size: all twelve witnesses for every n below 2**64.

The library walks the Galois orbits of a field's characters on exponent
tuples (FieldSpec.orbits) and tests an explicit character set for closure
on the same tuples, lifted to one modulus: negations first, then sums
through a generating set.  galois_orbits builds every conjugate chi**a as a
character instead, and closure_error multiplies characters: it names a
missing inverse first and then tries all n**2 products.

The library keeps each Galois orbit's product of B_{n,chi^a} as two
integers, the norm N and the scale (f*D)^phi(d), divided by their gcd, and
makes one Fraction per zeta value.  orbit_bernoulli_product takes each
orbit's product as a Fraction N / (f*D)^phi(d) instead, as the library did
before; the tests multiply those Fractions into zeta values and take the
orbits' valuations from them.

The library takes an orbit norm as the product of the Galois conjugates
sigma_a(P) evaluated at 2^s modulo Phi_d(2^s).  orbit_norm_doubling
multiplies the conjugates as polynomials in Z[x]/(x^d - 1) by a doubling
chain and reads the norm off the trace of the result, as the library did
before.  Its slot width s has no oracle: it is defined by one exact rule
(the least multiple of 8 from the slot floor whose Phi_d(2^s) passes the
Parseval check), and the tests assert that rule directly.
"""

import math
import operator
from fractions import Fraction
from itertools import repeat

from kzeta import lfun
from kzeta.arith import factorize
from kzeta.characters import DirichletCharacter, unit_group


def element_from_exponents(group, exps):
    """The unit prod g_i**e_i mod m (0 for m = 1)."""
    out = 1
    for (g, o), e in zip(group.generators, exps):
        out = out * pow(g, e % o, group.modulus) % group.modulus
    return out if group.modulus > 1 else 0


def evaluate(chi, a):
    """Exponent t with chi(a) = zeta_{order}**t, or None when gcd(a, m) > 1."""
    ks = chi.group.dlog(a)
    if ks is None:
        return None
    ex = chi.group.exponent
    s = 0
    for e, k, (_, o) in zip(chi.exponents, ks, chi.group.generators):
        s += e * k * (ex // o)
    s %= ex
    step = ex // chi.order
    if s % step != 0:
        raise AssertionError("character value is not an order-th root of unity")
    return (s // step) % chi.order


def _from_values(chi, target, residues):
    exps = []
    for b, (_, o) in zip(residues, target.generators):
        t = evaluate(chi, b)
        if t is None or (t * o) % chi.order != 0:
            raise AssertionError("character does not factor through the target")
        exps.append(t * o // chi.order)
    return DirichletCharacter(target, tuple(exps))


def primitive(chi):
    """The primitive character inducing chi, from its values on lifts of the
    conductor's generators."""
    f = chi.conductor
    if f == chi.modulus:
        return chi
    target = unit_group(f)
    lifts = []
    for g, _ in target.generators:
        while math.gcd(g, chi.modulus) != 1:
            g += f
        lifts.append(g)
    return _from_values(chi, target, lifts)


def lift_to(chi, m):
    """The character mod m inducing chi, from its values on the generators."""
    if m % chi.modulus != 0:
        raise ValueError("can only lift to a multiple of the modulus")
    if m == chi.modulus:
        return chi
    target = unit_group(m)
    return _from_values(chi, target, [g for g, _ in target.generators])


def walk(chi):
    """Yield (a mod m, t) with chi(a) = zeta_{order}**t, once for every unit a.

    A mixed-radix odometer over the generators: stepping g_i multiplies a
    by g_i and adds e_i*order/o_i to t.  After o_i steps both are back
    where they started, so a digit that rolls over needs no correction
    of a or t.
    """
    m, d = chi.modulus, chi.order
    gens = [(g, o, e * d // o) for e, (g, o) in zip(chi.exponents, chi.group.generators)]
    if not gens:
        yield 1 % m, 0
        return
    (g0, o0, s0), rest = gens[0], gens[1:]
    digits = [0] * len(rest)
    a, t = 1, 0
    while True:
        for _ in range(o0):
            yield a, t
            a = a * g0 % m
            t = (t + s0) % d
        for i, (g, o, s) in enumerate(rest):
            a = a * g % m
            t = (t + s) % d
            digits[i] += 1
            if digits[i] < o:
                break
            digits[i] = 0
        else:
            return


def value_buckets(chi, n):
    """(f, D, buckets) for primitive chi, buckets[t] the sum of N_a over the
    units a in [1, f] with chi(a) = zeta_{order}**t, by walking every unit
    and evaluating N_a = sum_i c_i a**(n-i) by Horner's rule."""
    f = chi.conductor
    big_d = lfun._bernoulli_denominator_lcm(n)
    coeffs = lfun._numerator_coefficients(n, f, big_d)
    buckets = [0] * chi.order
    for a, t in walk(chi):
        a = a or f  # the walk mod 1 yields the residue 0
        v = 0
        for c in coeffs:
            v = v * a + c
        buckets[t] += v
    return f, big_d, buckets


def half_weights(f, n):
    """lfun._half_weights(f, n) by Horner's rule at each unit of the
    transversal, 2n big-int operations per unit."""
    digits, units = lfun._transversal(f)
    coeffs = lfun._numerator_coefficients(n, f, lfun._bernoulli_denominator_lcm(n))
    weights = repeat(coeffs[0], len(units))
    for c in coeffs[1:]:
        weights = map(operator.add, map(operator.mul, weights, units), repeat(c))
    return digits, tuple(weights)


def orbit_bernoulli_product(chi, n):
    """Product of B_{n,chi^a} over a in (Z/d)^*, d = ord(chi), as one Fraction
    N(P(zeta_d)) / (f*D)^phi(d), P(y) = sum_a N_a y^(t_a)."""
    d = chi.order
    f, big_d, buckets = lfun._value_buckets(chi, n)
    return Fraction(lfun._orbit_norm(buckets, d), (f * big_d) ** unit_group(d).phi)


def galois_orbits(chars):
    """One representative per Galois orbit {chi^a : gcd(a, ord chi) = 1} of
    the nontrivial characters, in sort order; raises if an orbit leaves
    `chars`."""
    seen = set()
    for chi in sorted(chars, key=lambda c: c.sort_key()):
        if chi.is_trivial() or chi in seen:
            continue
        d = chi.order
        orbit = [chi**a for a in range(1, d) if math.gcd(a, d) == 1]
        for member in orbit:
            if member not in chars:
                raise ValueError("character group is not closed under Galois action")
        seen.update(orbit)
        yield chi


def closure_error(chars):
    """A missing inverse if any character lacks one, otherwise a missing
    product from all n**2 products; None for a group."""
    if any(chi.inverse() not in chars for chi in chars):
        return "character set not closed under inversion"
    if any(chi * psi not in chars for chi in chars for psi in chars):
        return "character set not closed under products"
    return None


def is_prime_all_witnesses(n):
    """Miller-Rabin on n < 2**64 with all twelve primes up to 37 as witnesses,
    which decide every n below 2**64 (Sorenson & Webster)."""
    if n >= 2**64:
        raise ValueError("the twelve witnesses decide only n < 2**64")
    witnesses = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    if n in witnesses:
        return True
    if any(n % a == 0 for a in witnesses):
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in witnesses:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _conjugate(y, a, d):
    """sigma_a(y) in Z[x]/(x^d - 1): the coefficient of x^i moves to x^(a*i mod d)."""
    inv = pow(a, -1, d)
    return [y[inv * j % d] for j in range(d)]


def _pack(x, half, nbytes):
    """sum (x_i + half) * 2^(8*nbytes*i), for |x_i| < half."""
    slots = map(int.to_bytes, map(half.__add__, x), repeat(nbytes), repeat("little"))
    return int.from_bytes(b"".join(slots), "little")


def _cyclic_mul(x, y, d):
    """x*y in Z[x]/(x^d - 1), by one Kronecker-packed integer product.

    Each coefficient of the product is a sum of d terms x_i*y_j, so it has
    fewer than bits(d) + bits(max|x|) + bits(max|y|) bits; slots of
    W >= that + 2 bits, in whole bytes, hold it with room for the half-range
    offset 2^(W-1) that makes every slot nonnegative.  Reducing mod x^d - 1
    is reducing the packed integer mod M = 2^(dW) - 1.
    """
    bits = d.bit_length() + max(map(int.bit_length, x)) + max(map(int.bit_length, y))
    nbytes = (bits + 2 + 7) // 8
    w = 8 * nbytes
    half = 1 << (w - 1)
    offset = int.from_bytes(half.to_bytes(nbytes, "little") * d, "little")
    z = (_pack(x, half, nbytes) - offset) * (_pack(y, half, nbytes) - offset)
    mask = (1 << (d * w)) - 1
    s = (z & mask) + (z >> (d * w)) + offset
    # s = sum (coefficient + half) * 2^(iW) mod M; that sum lies in [0, M)
    while s < 0:
        s += mask
    while s >= mask:
        s -= mask
    data = s.to_bytes(d * nbytes, "little")
    slots = (data[i : i + nbytes] for i in range(0, d * nbytes, nbytes))
    return list(map(half.__rsub__, map(int.from_bytes, slots, repeat("little"))))


def _settle(u, v, d):
    """The product u*v, where None stands for 1."""
    return u if v is None else _cyclic_mul(u, v, d)


def _trace_of_product(u, v, d):
    """Tr_{Q(zeta_d)/Q} of (u*v)(zeta_d), for u, v in Z[x]/(x^d - 1); None is 1.

    Tr(zeta_d^i) is the Ramanujan sum c_d(i) = sum_{e | gcd(i, d)} mu(d/e) e,
    so Tr(y) = sum_{e | d} mu(d/e) e * (sum of y_i over e | i), and that sum
    is the constant term of y mod x^e - 1.  For y = u*v it is the dot product
    of u and v folded mod x^e - 1 with v's exponents negated, so u*v is never
    formed.
    """
    squarefree = [(1, 1)]  # (q, mu(q)) for the squarefree divisors q of d
    for p, _ in factorize(d):
        squarefree += [(q * p, -mu) for q, mu in squarefree]
    trace = 0
    for q, mu in squarefree:
        e = d // q
        if v is None:
            const = sum(u[::e])
        else:
            ue = [sum(u[r::e]) for r in range(e)] if q > 1 else u
            ve = [sum(v[r::e]) for r in range(e)] if q > 1 else v
            const = sum(map(operator.mul, ue, ve[:1] + ve[:0:-1]))
        trace += mu * e * const
    return trace


def orbit_norm_doubling(coeffs, d):
    """N_{Q(zeta_d)/Q}(P(zeta_d)) for P(x) = sum_i coeffs[i] x^i, len(coeffs) = d,
    as the product of sigma_a(P) over a in (Z/d)^* in Z[x]/(x^d - 1).

    Each cyclic factor <g> of order k of unit_group(d) replaces y by
    N(k) = prod_{i<k} sigma_{g^i}(y), built from
    N(2j) = N(j) * sigma_{g^j}(N(j)) and N(j+1) = y * sigma_g(N(j)) in
    O(log k) multiplies.  The result is the rational integer N modulo Phi_d,
    so its trace is phi(d) * N; the last multiply is left to
    _trace_of_product, which needs only the two factors.
    """
    if not any(coeffs):
        return 0
    group = unit_group(d)
    u, v = list(coeffs), None  # the product so far is u * v
    for g, k in group.generators:
        base = _settle(u, v, d)
        u, v, j = base, None, 1  # u * v = N(j)
        for bit in bin(k)[3:]:
            y = _settle(u, v, d)
            u, v, j = y, _conjugate(y, pow(g, j, d), d), 2 * j
            if bit == "1":
                u, v, j = base, _conjugate(_settle(u, v, d), g, d), j + 1
    norm, rem = divmod(_trace_of_product(u, v, d), group.phi)
    if rem:
        raise AssertionError("the trace of an orbit norm is not divisible by phi(%d)" % d)
    return norm
