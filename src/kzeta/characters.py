"""Structure of (Z/mZ)^* and exact Dirichlet character arithmetic.

A character is stored as an exponent vector on a fixed, deterministic set of
generators of (Z/mZ)^*: the smallest primitive root for each odd prime-power
factor, the residue -1 for the factor 4, and the pair (-1, 5) for 2**e with
e >= 3.  Values are abstract exponents t with chi(a) = zeta_ord**t, which
keeps characters level-free: consumers materialize zeta_ord**t in whatever
cyclotomic ring they need.

The generators are CRT lifts of local generators, so the exponent vector is
the list of local components, and moduli change (primitive(), lift_to(), and
through them * and **) by rescaling each exponent to the target generator's
order, with one cached level log per odd p (_level_log).  A character's value
on the unit prod g_i**k_i is zeta_ord**(sum_i k_i*e_i*ord/o_i), so sums over
units need no unit-by-unit walk: lfun lists the units of each conductor once,
in mixed-radix order on the generators, and sums by exponent pattern.  No
character value takes a discrete log; UnitGroupStructure.dlog (Pohlig-Hellman
with baby-step giant-step) is API.

A field's character group is held as exponent tuples on one unit group, and
walked by Galois orbits (FieldSpec.orbits): the conjugates chi**a of a tuple
x are the tuples a*x mod o_i, so each orbit is marked off on plain tuples and
only its representative becomes a DirichletCharacter.  Degree, conductor,
group exponent, the w-invariant and the zeta value all read the orbits;
FieldSpec.characters expands the conjugates for callers that want every
character.  FieldSpec.explicit checks closure on the same tuples.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math

from .arith import factorize, is_prime, valuation


def _bsgs(base: int, target: int, order: int, mod: int) -> int:
    """x in [0, order) with base**x = target (mod mod); base has the given order."""
    if order == 1:
        if target % mod != 1 % mod:
            raise ValueError("dlog does not exist")
        return 0
    m = math.isqrt(order - 1) + 1
    table: dict[int, int] = {}
    cur = 1
    for j in range(m):
        table.setdefault(cur, j)
        cur = cur * base % mod
    step = pow(base, -m, mod)
    gamma = target % mod
    for i in range(m):
        if gamma in table:
            return (i * m + table[gamma]) % order
        gamma = gamma * step % mod
    raise ValueError("dlog does not exist")


def _dlog_cyclic(
    a: int, g: int, order: int, order_factors: tuple[tuple[int, int], ...], mod: int
) -> int:
    """Discrete log of a in the cyclic group <g> of the given factored order."""
    rem, mods = 0, 1
    for q, e in order_factors:
        qe = q**e
        co = order // qe
        aq = pow(a, co, mod)
        gq = pow(g, co, mod)
        gamma = pow(gq, qe // q, mod)
        x = 0
        for i in range(e):
            h = pow(aq * pow(gq, -x, mod) % mod, qe // q ** (i + 1), mod)
            d = _bsgs(gamma, h, q, mod)
            x += d * q**i
        inv = pow(mods, -1, qe)
        rem = rem + mods * ((x - rem) * inv % qe)
        mods *= qe
    return rem % mods if mods > 1 else 0


def _smallest_primitive_root(q: int, p: int, phi_factors: list[tuple[int, int]]) -> int:
    """Smallest primitive root modulo the odd prime power q = p**e, given the
    factorization of phi(q)."""
    phi = q // p * (p - 1)
    g = 2
    while True:
        if g % p != 0 and all(pow(g, phi // r, q) != 1 for r, _ in phi_factors):
            return g
        g += 1


@dataclasses.dataclass(frozen=True)
class _LocalGen:
    """One generator of a CRT component, with everything dlog needs."""

    prime: int
    prime_power: int
    residue: int
    order: int
    order_factors: tuple[tuple[int, int], ...]
    kind: str  # 'odd' | 'minus' | 'five'

    def dlog(self, a: int) -> int:
        q = self.prime_power
        a %= q
        if self.kind == "minus":
            return 0 if a % 4 == 1 or q <= 2 else 1
        if self.kind == "five":
            if a % 4 == 3:
                a = (-a) % q
            return _dlog_cyclic(a, 5, self.order, self.order_factors, q)
        return _dlog_cyclic(a, self.residue, self.order, self.order_factors, q)


@dataclasses.dataclass(frozen=True)
class UnitGroupStructure:
    """(Z/mZ)^* as a product of explicit cyclic groups."""

    modulus: int
    generators: tuple[tuple[int, int], ...]  # (residue mod m, order)
    locals_: tuple[_LocalGen, ...]

    @property
    def phi(self) -> int:
        out = 1
        for _, o in self.generators:
            out *= o
        return out

    @property
    def exponent(self) -> int:
        out = 1
        for _, o in self.generators:
            out = math.lcm(out, o)
        return out

    def dlog(self, a: int) -> tuple[int, ...] | None:
        """Exponent vector of a on the generators, or None if gcd(a, m) > 1."""
        if math.gcd(a, self.modulus) != 1:
            return None
        return tuple(loc.dlog(a) for loc in self.locals_)


def _crt_lift(local_res: int, q: int, m: int) -> int:
    """Residue mod m that is local_res mod q and 1 mod m/q."""
    rest = m // q
    if rest == 1:
        return local_res % m
    inv = pow(rest, -1, q)
    return (1 + rest * ((local_res - 1) * inv % q)) % m


@functools.lru_cache(maxsize=None)
def unit_group(m: int) -> UnitGroupStructure:
    """CRT decomposition of (Z/mZ)^* with deterministic generators.

    >>> unit_group(7).generators
    ((3, 6),)
    >>> unit_group(8).generators
    ((7, 2), (5, 2))
    """
    if m < 1:
        raise ValueError("modulus must be >= 1, got %r" % (m,))
    gens: list[tuple[int, int]] = []
    locs: list[_LocalGen] = []
    for p, e in factorize(m):
        q = p**e
        if p == 2:
            if e >= 2:
                locs.append(_LocalGen(2, q, q - 1, 2, ((2, 1),), "minus"))
                gens.append((_crt_lift(q - 1, q, m), 2))
            if e >= 3:
                locs.append(_LocalGen(2, q, 5, q // 4, ((2, e - 2),), "five"))
                gens.append((_crt_lift(5, q, m), q // 4))
        else:
            phi = q // p * (p - 1)
            phi_factors = factorize(phi)
            g = _smallest_primitive_root(q, p, phi_factors)
            locs.append(_LocalGen(p, q, g, phi, tuple(phi_factors), "odd"))
            gens.append((_crt_lift(g, q, m), phi))
    return UnitGroupStructure(m, tuple(gens), tuple(locs))


@functools.lru_cache(maxsize=None)
def _level_log(p: int) -> int:
    """L with g_2 = g_1**L (mod p), g_e the smallest primitive root mod p**e;
    the two differ at p = 40487 (5 and 10)."""
    g1, g2 = (unit_group(q).locals_[0].residue for q in (p, p * p))
    return 1 if g1 == g2 else unit_group(p).dlog(g2)[0]


@dataclasses.dataclass(frozen=True)
class DirichletCharacter:
    """Character of (Z/mZ)^* given by exponents on the canonical generators:
    chi(g_i) = zeta_{o_i}**e_i where o_i is the order of g_i."""

    group: UnitGroupStructure
    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.exponents) != len(self.group.generators):
            raise ValueError("exponent vector does not match generator count")
        normalized = tuple(
            e % o for e, (_, o) in zip(self.exponents, self.group.generators)
        )
        object.__setattr__(self, "exponents", normalized)

    @property
    def modulus(self) -> int:
        return self.group.modulus

    @functools.cached_property
    def order(self) -> int:
        out = 1
        for e, (_, o) in zip(self.exponents, self.group.generators):
            out = math.lcm(out, o // math.gcd(o, e))
        return out

    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)

    @functools.cached_property
    def is_even(self) -> bool:
        """chi(-1) = 1, read off the exponents: -1 is g**(o/2) on every 'odd'
        and 'minus' component, where chi takes the value (-1)**e, and 1 on the
        'five' component."""
        locs = self.group.locals_
        return sum(e for e, loc in zip(self.exponents, locs) if loc.kind != "five") % 2 == 0

    @functools.cached_property
    def conductor(self) -> int:
        """Smallest f | m through which chi factors.

        Computed componentwise: an odd component of order o > 1 contributes
        p**(1 + v_p(o)); the 2-part is 4*ord(chi(5)) when chi(5) != 1, else 4
        or 1 by chi(-1) on the 'minus' component.
        """
        f = two = 1
        for e, loc in zip(self.exponents, self.group.locals_):
            o = loc.order // math.gcd(loc.order, e)
            if o == 1:
                continue
            if loc.kind == "odd":
                f *= loc.prime ** (1 + valuation(o, loc.prime))
            else:  # 'minus' has order 2, 'five' order 2**(e-2)
                two = max(two, 4 if loc.kind == "minus" else 4 * o)
        return f * two

    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

    def _transfer(self, target: UnitGroupStructure) -> "DirichletCharacter":
        """chi on the generators of target; chi must factor through its modulus.

        Each local exponent x becomes x*o_t/o_s on the target generator of the
        same prime and kind (0 where chi has none), times L**(+-1) between
        levels p and p**e, e >= 2, where g_2 = g_1**L (mod p).
        """
        source = {
            (loc.prime, loc.kind): (x, loc.prime_power, loc.order)
            for x, loc in zip(self.exponents, self.group.locals_)
        }
        exps = []
        for loc in target.locals_:
            x, q, o = source.get((loc.prime, loc.kind), (0, 1, 1))
            if x * loc.order % o != 0:
                raise AssertionError("character does not factor through the target")
            y = x * loc.order // o
            if y and (q == loc.prime) != (loc.prime_power == loc.prime):
                log = _level_log(loc.prime)
                y *= log if q == loc.prime else pow(log, -1, loc.order)
            exps.append(y)
        return DirichletCharacter(target, tuple(exps))

    def primitive(self) -> "DirichletCharacter":
        """The primitive character mod conductor inducing chi.

        >>> DirichletCharacter(unit_group(21), (0, 2)).primitive()
        DirichletCharacter(mod 7, exponents [2])
        """
        if self.conductor == self.modulus:
            return self
        prim = self._transfer(unit_group(self.conductor))
        prim.__dict__["conductor"] = self.conductor  # same character, cached
        return prim

    def lift_to(self, m: int) -> "DirichletCharacter":
        """The character mod m (a multiple of the modulus) inducing chi.

        >>> DirichletCharacter(unit_group(7), (2,)).lift_to(21)
        DirichletCharacter(mod 21, exponents [0, 2])
        """
        if m % self.modulus != 0:
            raise ValueError("can only lift to a multiple of the modulus")
        if m == self.modulus:
            return self
        return self._transfer(unit_group(m))

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        m = math.lcm(self.modulus, other.modulus)
        a, b = self.lift_to(m), other.lift_to(m)
        exps = tuple(x + y for x, y in zip(a.exponents, b.exponents))
        return DirichletCharacter(a.group, exps).primitive()

    def inverse(self) -> "DirichletCharacter":
        return DirichletCharacter(self.group, tuple(-e for e in self.exponents))

    def __pow__(self, n: int) -> "DirichletCharacter":
        return DirichletCharacter(
            self.group, tuple(e * n for e in self.exponents)
        ).primitive()

    def sort_key(self) -> tuple:
        return (self.modulus, self.exponents)

    def __repr__(self):
        return "DirichletCharacter(mod %d, exponents %r)" % (
            self.modulus,
            list(self.exponents),
        )


def _require_odd_prime(p: int) -> None:
    if not isinstance(p, int) or p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime, got %r" % (p,))


def _require_m_above_one(m: int) -> None:
    if m <= 1:
        raise ValueError("m must be > 1, got %r" % (m,))


def trivial_character() -> DirichletCharacter:
    return DirichletCharacter(unit_group(1), ())


@dataclasses.dataclass(frozen=True)
class FieldSpec:
    """A totally real abelian field, given by its group of primitive even
    Dirichlet characters.

    Variants: the real cyclotomic field Q(zeta_m + zeta_m^-1); its maximal
    p-subextension; the degree-p cyclic field inside Q(zeta_ell) for a prime
    ell = 1 mod p; or an explicit closed set of characters.
    """

    kind: str
    m: int = 0
    p: int = 0
    explicit_chars: frozenset = frozenset()

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec("real-cyclotomic", 1)

    @staticmethod
    def real_cyclotomic(m: int) -> "FieldSpec":
        if m < 1:
            raise ValueError("m must be >= 1, got %r" % (m,))
        return FieldSpec("real-cyclotomic", m)

    @staticmethod
    def max_p_subextension(m: int, p: int) -> "FieldSpec":
        _require_m_above_one(m)
        _require_odd_prime(p)
        return FieldSpec("max-p", m, p)

    @staticmethod
    def prime_cyclic_subfield(ell: int, p: int) -> "FieldSpec":
        _require_odd_prime(p)
        if not is_prime(ell):
            raise ValueError("conductor %r is not prime" % (ell,))
        if ell % p != 1:
            raise ValueError("need ell = 1 (mod p); got ell=%r, p=%r" % (ell, p))
        return FieldSpec("prime-cyclic", ell, p)

    @staticmethod
    def explicit(chars) -> "FieldSpec":
        chars = frozenset(chars)
        if not chars:
            raise ValueError("explicit character sets must not be empty")
        if not all(chi.is_primitive() for chi in chars):
            raise ValueError("explicit character sets must be primitive")
        if not all(chi.is_even for chi in chars):
            raise ValueError("field spec characters must be even")
        spec = FieldSpec("explicit", explicit_chars=chars)
        group, tuples = spec._tuples
        orders = tuple(o for _, o in group.generators)
        members = set(tuples)
        if any(tuple(-e % o for e, o in zip(x, orders)) not in members for x in tuples):
            raise ValueError("character set not closed under inversion")
        if not _is_group(tuples, orders):
            raise ValueError("character set not closed under products")
        return spec

    @functools.cached_property
    def _tuples(self) -> tuple[UnitGroupStructure, list]:
        """X_F as exponent tuples on one unit group.

        For the enumerated kinds, the even characters mod m killed by the
        group exponent of (Z/m)^* (real-cyclotomic), by its p-part (max-p),
        or by p (prime-cyclic).  For an explicit spec, its characters in sort
        order, lifted to the lcm of their moduli; a hand-built one is scanned
        for odd characters here, once.
        """
        if self.kind == "explicit":
            chars = sorted(self.explicit_chars, key=DirichletCharacter.sort_key)
            if not all(chi.is_even for chi in chars):
                raise ValueError("field is not totally real (odd character present)")
            m = math.lcm(*(chi.modulus for chi in chars))
            return unit_group(m), [chi.lift_to(m).exponents for chi in chars]
        group = unit_group(self.m)
        exponent = group.exponent
        if self.kind == "max-p":
            exponent = self.p ** valuation(exponent, self.p)
        elif self.kind == "prime-cyclic":
            exponent = self.p
        elif self.kind != "real-cyclotomic":
            raise ValueError("unknown field spec kind %r" % (self.kind,))
        return group, list(_even_exponents(group, exponent))

    @functools.cached_property
    def orbits(self) -> tuple:
        """The Galois orbits {chi**a : gcd(a, ord chi) = 1} of the nontrivial
        characters of X_F, as (primitive representative, orbit size
        phi(ord chi)) pairs in the representatives' sort order, so that the
        orbits of one conductor come together.

        The orbits are walked on the exponent tuples of _tuples, and only
        the representatives are made characters.
        """
        group, tuples = self._tuples
        orders = tuple(o for _, o in group.generators)
        reps = [
            (DirichletCharacter(group, tuples[i]).primitive(), size)
            for i, size in _orbit_walk(tuples, orders)
        ]
        return tuple(sorted(reps, key=lambda rep: rep[0].sort_key()))

    @functools.cached_property
    def characters(self) -> frozenset:
        """The character group X_F as primitive even characters: the trivial
        one and the conjugates chi**a of each representative in orbits."""
        chars = [trivial_character()]
        for chi, _ in self.orbits:
            d, group, exps = chi.order, chi.group, chi.exponents
            chars += (
                DirichletCharacter(group, tuple(a * e for e in exps))
                for a in range(1, d)
                if math.gcd(a, d) == 1
            )
        return frozenset(chars)

    def sorted_characters(self) -> list:
        return sorted(self.characters, key=lambda c: c.sort_key())

    @property
    def degree(self) -> int:
        return 1 + sum(size for _, size in self.orbits)

    @property
    def conductor(self) -> int:
        return math.lcm(*(chi.conductor for chi, _ in self.orbits))

    def group_exponent(self) -> int:
        return math.lcm(*(chi.order for chi, _ in self.orbits))

    def is_p_group(self, p: int) -> bool:
        return all(chi.order == p ** valuation(chi.order, p) for chi, _ in self.orbits)

    def describe(self) -> str:
        if self.kind == "real-cyclotomic":
            return "Q(zeta_%d)^+" % self.m if self.m > 2 else "Q"
        if self.kind == "max-p":
            return "max %d-subextension of Q(zeta_%d)^+" % (self.p, self.m)
        if self.kind == "prime-cyclic":
            return "degree-%d subfield of Q(zeta_%d)" % (self.p, self.m)
        return "explicit character group (%d characters)" % len(self.explicit_chars)


def _even_exponents(group: UnitGroupStructure, exponent: int):
    """The exponent tuples of the even characters chi of the group with
    chi**exponent = 1.

    chi**exponent = 1 exactly when each generator exponent e_i is a multiple
    of o_i / gcd(o_i, exponent), o_i the generator's order.  chi is even when
    its exponents on the 'odd' and 'minus' generators have an even sum
    (is_even), and only those whose step is odd can make it odd; the first of
    them takes only the multiples of its step whose parity evens out the rest.
    """
    ranges = [range(0, o, o // math.gcd(o, exponent)) for _, o in group.generators]
    odd = [i for i, loc in enumerate(group.locals_) if loc.kind != "five" and ranges[i].step % 2]
    if not odd:
        return itertools.product(*ranges)
    j, others = odd[0], odd[1:]
    halves = (ranges[j][::2], ranges[j][1::2])  # even and odd exponents
    ranges[j] = range(1)
    return (
        x[:j] + (e,) + x[j + 1 :]
        for x in itertools.product(*ranges)
        for e in halves[sum(x[i] for i in others) % 2]
    )


def _orbit_walk(tuples: list, orders: tuple) -> list[tuple[int, int]]:
    """(i, phi(d)) for the first tuples[i] of each Galois orbit
    {a*x mod orders : gcd(a, d) = 1}, d the order of x, of the nonzero
    exponent tuples x in the list.

    Each orbit is marked off as a whole on plain tuples, one column per
    generator; raises ValueError if an orbit leaves the list.
    """
    left = set(tuples)
    units: dict[int, list[int]] = {}  # d -> the units mod d
    out = []
    for i, x in enumerate(tuples):
        if x not in left:
            continue
        d = math.lcm(*(o // math.gcd(o, e) for e, o in zip(x, orders)))
        if d == 1:
            continue
        if d not in units:
            units[d] = [a for a in range(1, d) if math.gcd(a, d) == 1]
        us = units[d]
        orbit = list(zip(*([a * e % o for a in us] for e, o in zip(x, orders))))
        if not left.issuperset(orbit):
            raise ValueError("character group is not closed under Galois action")
        left.difference_update(orbit)
        out.append((i, len(us)))
    return out


def _is_group(tuples: list, orders: tuple) -> bool:
    """Whether a nonempty list of distinct exponent tuples is closed under
    addition modulo the generator orders.

    The tuples that, in list order, are not yet in the subgroup H generated
    by those before them form a generating set G of <tuples>; each at least
    doubles H, so there are at most log2 |tuples| of them.  If tuples + g
    lies in the set for every g in G, adding g permutes the finite set, so
    tuples + <G> = tuples, and the set, a subset of <G> that holds a coset
    of it, is <G> itself.  That takes |tuples| * (|G| + 1) sums instead of
    |tuples|**2.
    """
    members = set(tuples)

    def add(x, y):
        return tuple((a + b) % o for a, b, o in zip(x, y, orders))

    group = {tuple(0 for _ in orders)}
    for g in tuples:
        if g in group:
            continue
        if any(add(x, g) not in members for x in tuples):
            return False
        grown, power = set(group), g
        while power not in group:  # H + <g>, one coset per multiple of g
            grown.update(add(h, power) for h in group)
            power = add(power, g)
        group = grown
    return True


def ghat_stratum(spec: FieldSpec, p: int, j: int) -> frozenset:
    """Characters of exact order p**j inside a p-group character group."""
    if not spec.is_p_group(p):
        raise ValueError("character group is not a %d-group" % (p,))
    target = p**j
    return frozenset(chi for chi in spec.characters if chi.order == target)
