"""Slow, independent routes to character values, for the tests.

The library moves characters between moduli by exponent arithmetic and sums
over units with DirichletCharacter.walk(); neither takes a discrete log.
These oracles take one (UnitGroupStructure.dlog, Pohlig-Hellman with
baby-step giant-step) per value instead, and build primitive() and lift_to()
from single values, as the library did before.
"""

import math

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
