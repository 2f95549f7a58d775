"""Orders of even K-groups of rings of integers of totally real abelian
fields, and p-divisibility verdicts.

The exact order of K_{2k}(O_F) comes from the w-invariant and the Dedekind
zeta value at -k:

    #K_{2k}(O_F) = (-1)^r * w_{k+1}(F) * zeta_F(-k)      k = 1 (mod 4)
    #K_{2k}(O_F) = w_{k+1}(F)/2^r * zeta_F(-k)           k = 3 (mod 4)

with r = [F:Q].  Integrality and positivity are asserted, not assumed; a
violation raises ComputationError instead of being silently absorbed.

Divisibility questions for large conductors never go through the order
formula.  They are answered by the verdict engine, which combines the
Bernoulli-product lower bound, p-rank periodicity in k, and the
prime-conductor criterion, and reports which of those actually fired.
"""

from __future__ import annotations

import collections
import dataclasses
import math
from fractions import Fraction

from .arith import factorize, is_prime, primes_up_to, valuation
from .arith.factor import _count_primes_one_mod
from .characters import FieldSpec, _require_m_above_one, _require_odd_prime
from .lfun import _require_odd_k, zeta_value_negative


# Largest sieve cutoff browkin_density accepts.  The count takes time about
# linear in x/p: at 10**9, 1.4 s for p = 3 and 0.41 s for p = 11 on a shared
# 2-vCPU host (medians of three processes).
_DENSITY_X_MAX = 10**9


class ComputationError(RuntimeError):
    """An internal exact-arithmetic assertion failed (a bug signal)."""


def w_invariant(spec: FieldSpec, j: int) -> int:
    """w_j(F): the largest w such that Gal acts trivially on mu_w^(tensor j).

    Prime by prime: q**nu divides w_j(F) iff the exponent of H, the image of
    Gal(F(zeta_{q^nu})/F) in (Z/q^nu)^*, divides j.  H is the common kernel
    of the y characters of F of conductor dividing q**nu, so
    |H| = phi(q**nu)/y, and its exponent is |H| for odd q (H is cyclic),
    1 for q**nu = 2, and max(2, |H|/2) for q = 2, nu >= 2: F is real, so
    H = {+-1} x <5**y>.  Where q does not divide the conductor, y = 1, so
    only q = 2, the primes of the conductor and odd q with (q - 1) | j can
    contribute.

    >>> w_invariant(FieldSpec.real_cyclotomic(7), 2)
    168
    """
    if not isinstance(j, int) or j < 1:
        raise ValueError("j must be an integer >= 1, got %r" % (j,))
    conductors = collections.Counter({1: 1})  # the trivial character
    for chi, size in spec.orbits:  # conjugates share a conductor
        conductors[chi.conductor] += size
    candidates = {2} | {q for q, _ in factorize(math.lcm(*conductors))}
    candidates |= {q for q in primes_up_to(j + 1) if j % (q - 1) == 0}
    out = 1
    for q in candidates:
        mod = q
        while True:
            y = sum(n for f, n in conductors.items() if mod % f == 0)
            size = mod // q * (q - 1) // y
            exponent = size if q > 2 else 1 if mod == 2 else max(2, size // 2)
            if j % exponent:
                break
            out *= q
            mod *= q
    return out


@dataclasses.dataclass(frozen=True)
class KOrderReport:
    """Exact order of K_{2k}(O_F) with the ingredients that produced it."""

    field: FieldSpec
    k: int
    order: int
    factorization: tuple[tuple[int, int], ...] | None
    w_invariant: int
    zeta_value: Fraction


def k_order(
    spec: FieldSpec, k: int, factor: bool = True, seed: int | None = None
) -> KOrderReport:
    """#K_{2k}(O_F) for totally real abelian F and odd k >= 1, exactly.

    Set factor=False to skip integer factorization of the order; the exact
    order itself is always computed, as one division of integers: w times
    the numerator of zeta_F(-k), signed or over 2^r, by its denominator.  A
    non-integral or non-positive value of the order formula raises
    ComputationError with the offending data.
    """
    _require_odd_k(k)
    r = spec.degree
    w = w_invariant(spec, k + 1)
    z = zeta_value_negative(spec, k)
    num, den = w * z.numerator, z.denominator
    if k % 4 == 1:
        num *= (-1) ** r
    else:
        den <<= r
    order, rem = divmod(num, den)
    if rem or order <= 0:
        raise ComputationError(
            "order formula gave a non-positive or non-integral value %s "
            "(field %s, k=%d, w=%d, zeta=%s)" % (Fraction(num, den), spec.describe(), k, w, z)
        )
    fac = tuple(factorize(order, seed=seed)) if factor else None
    return KOrderReport(spec, k, order, fac, w, z)


@dataclasses.dataclass(frozen=True)
class SProfile:
    """Counts s_j of prime divisors ell of m with v_p(ell - 1) = j >= 1.

    theta is the largest j with s_j > 0, or 0 when no prime divisor of m is
    1 mod p.  The delta of the bound formula depends on (p, k) at query time
    and is deliberately not stored here.
    """

    p: int
    m: int
    s: tuple[tuple[int, int], ...]  # (j, s_j) ascending, s_j > 0
    theta: int

    def s_j(self, j: int) -> int:
        for jj, count in self.s:
            if jj == j:
                return count
        return 0

    def total(self) -> int:
        return sum(count for _, count in self.s)


def s_profile(m: int, p: int) -> SProfile:
    """Count the prime divisors of m by the p-valuation of ell - 1."""
    _require_odd_prime(p)
    _require_m_above_one(m)
    counts: dict[int, int] = {}
    for ell, _ in factorize(m):
        if ell % p == 1:
            j = valuation(ell - 1, p)
            counts[j] = counts.get(j, 0) + 1
    s = tuple(sorted(counts.items()))
    theta = max(counts) if counts else 0
    return SProfile(p, m, s, theta)


def _delta(p: int, k: int) -> int:
    # 0 for p > k+2, 1 for p = k+2; callers guarantee p >= k+2
    return 0 if p > k + 2 else 1


def lower_bound_exponent(p: int, k: int, m: int) -> int:
    """w with p^w | #K_{2k}(O_F) for F = Q(zeta_m)^+, from the character-product
    bound; 0 when no prime divisor of m is 1 mod p.

    With G the p-part of (Z/mZ)^* coming from the prime divisors counted by
    the s-profile, and G^_j the number of characters of G of exact order p^j,

      w = ceil( (G^_1 - p^(delta*s_1) + delta)/(p-1)
                + sum_{j=2}^{theta} G^_j / (p^(j-1) (p-1)) ).

    Requires p >= k+2 and odd k.
    """
    _require_odd_prime(p)
    _require_odd_k(k)
    if p < k + 2:
        raise ValueError("need p >= k+2; got p=%r, k=%r" % (p, k))
    return _bound_from_profile(s_profile(m, p), k)


def _bound_from_profile(prof: SProfile, k: int) -> int:
    """The lower_bound_exponent formula on an s-profile already taken; the
    caller has checked p and k."""
    if prof.theta == 0:
        return 0
    p = prof.p
    delta = _delta(p, k)
    theta = prof.theta

    def order_dividing_exponent(j: int) -> int:
        # #{x in G : x^(p^j) = 1} = p^(sum_i min(i, j) * s_i)
        return sum(min(i, j) * prof.s_j(i) for i in range(1, theta + 1))

    g1 = p ** order_dividing_exponent(1) - 1
    total = Fraction(g1 - p ** (delta * prof.s_j(1)) + delta, p - 1)
    for j in range(2, theta + 1):
        gj = p ** order_dividing_exponent(j) - p ** order_dividing_exponent(j - 1)
        total += Fraction(gj, p ** (j - 1) * (p - 1))
    return math.ceil(total)


def degree_adjoin_zeta(variant: str, m: int, p: int) -> int:
    """[F(zeta_p) : F] for F = Q(zeta_m)^+ ('plus') or Q(zeta_m) ('full').

    plus: p-1 when p does not divide m, else 2.
    full: p-1 when p does not divide m, else 1.
    """
    if variant not in ("plus", "full"):
        raise ValueError("variant must be 'plus' or 'full', got %r" % (variant,))
    _require_odd_prime(p)
    _require_m_above_one(m)
    if m % p != 0:
        return p - 1
    return 2 if variant == "plus" else 1


def browkin_divisible(p: int, ell: int) -> bool:
    """Whether p divides #K_{2(p-2)} for the degree-p field of conductor ell.

    Equivalent to v_p(ell - 1) >= 2; an if-and-only-if, not just a bound.
    The field's own constructor checks p and ell.
    """
    FieldSpec.prime_cyclic_subfield(ell, p)
    return valuation(ell - 1, p) >= 2


@dataclasses.dataclass(frozen=True)
class Verdict:
    """Tri-state divisibility answer with the criteria that fired.

    status is 'GuaranteedDivisible', 'GuaranteedNotDivisible' or 'Unknown';
    exponent_lower_bound is set only in the divisible case."""

    status: str
    exponent_lower_bound: int | None = None
    justification: tuple[str, ...] = ()


def divisibility_verdict(p: int, m: int, k: int, variant: str = "plus") -> Verdict:
    """Does p divide #K_{2k} for Q(zeta_m)^+ (or Q(zeta_m)), without computing
    the order?

    k is reduced modulo [F(zeta_p):F] to a representative k0 with
    1 <= k0 <= p-2.  Divisibility at k0 < p-2 needs some prime ell | m with
    ell = 1 (mod p); at k0 = p-2 it needs some ell = 1 (mod p^2).  The only
    licensed non-divisibility statement is the prime-conductor criterion, and
    it applies exactly when the plus field is itself the degree-p field of
    prime conductor m, i.e. m = 2p+1.  Everything else is Unknown.
    """
    _require_odd_prime(p)
    _require_odd_k(k)
    period = degree_adjoin_zeta(variant, m, p)  # checks variant and m
    prof = s_profile(m, p)
    candidates = [c for c in range(1, p - 1, 2) if (k - c) % period == 0]
    candidates.sort(key=lambda c: (c != k, c))
    for k0 in candidates:
        fired = (k0 < p - 2 and prof.theta >= 1) or (k0 == p - 2 and prof.theta >= 2)
        if not fired:
            continue
        slugs = ["bernoulli-product-lower-bound"]
        if k0 == k:
            bound = max(1, _bound_from_profile(prof, k))
        else:
            bound = 1
            slugs += ["p-rank-periodicity", "higher-k-divisibility"]
        return Verdict("GuaranteedDivisible", bound, tuple(slugs))
    if (
        variant == "plus"
        and m == 2 * p + 1
        and is_prime(m)
        and (k - (p - 2)) % period == 0
    ):
        slugs = ["prime-conductor-criterion"]
        if k != p - 2:
            slugs.append("p-rank-periodicity")
        return Verdict("GuaranteedNotDivisible", None, tuple(slugs))
    return Verdict("Unknown", None, ())


@dataclasses.dataclass(frozen=True)
class DensityReport:
    """Prime counts pi_p(x), pi_{p^2}(x) and their exact ratio."""

    n_p: int
    n_p2: int
    ratio: Fraction


def browkin_density(p: int, x: int) -> DensityReport:
    """Count primes ell <= x with ell = 1 (mod p) and (mod p^2).

    The ratio n_p2/n_p tends to 1/p; here it is returned as an exact
    rational at the cutoff x.  Requires x >= p^2 + 1 so that the mod-p^2
    class is nonempty in principle.  The primes are counted by a segmented
    sieve of the numbers 1 + 2p*t alone, never listed, so memory grows as
    sqrt(x) and time as x/p; x above _DENSITY_X_MAX is refused.
    """
    _require_odd_prime(p)
    if not isinstance(x, int) or x < p * p + 1:
        raise ValueError("x must be an integer >= p^2+1, got %r" % (x,))
    if x > _DENSITY_X_MAX:
        raise ValueError("x must be at most %d, got %d" % (_DENSITY_X_MAX, x))
    n_p, n_p2 = _count_primes_one_mod(x, (p, p * p))
    if n_p == 0:
        raise ComputationError("no prime = 1 (mod %d) up to %d" % (p, x))
    return DensityReport(n_p, n_p2, Fraction(n_p2, n_p))
