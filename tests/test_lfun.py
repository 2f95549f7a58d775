"""Tests for generalized Bernoulli numbers, L-values, and zeta values.

The heavy cross-checks here are deliberately redundant routes: a direct
definition-unrolling oracle for B_{n,chi}, and orbit products taken as the
resultant norm Res(Phi_{p^N}, P) of one ring element versus the orbit-norm
rational recombination."""

import functools
import hashlib
import importlib.util
import inspect
import itertools
import math
import pathlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kzeta import ktheory, lfun
from kzeta.arith import (
    CyclotomicElement,
    CyclotomicLevel,
    CyclotomicRational,
    Poly,
    cyclotomic_polynomial_any,
    factorize,
    is_prime,
    rational_part,
    resultant,
    valuation,
)
from kzeta.characters import (
    DirichletCharacter,
    FieldSpec,
    UnitGroupStructure,
    trivial_character,
    unit_group,
)
from kzeta.ktheory import k_order, w_invariant
from kzeta.lfun import (
    char_bernoulli_pi_valuation,
    generalized_bernoulli,
    l_value_negative,
    product_valuation,
    zeta_value_negative,
)
from kzeta.powersum import bernoulli_number, bernoulli_polynomial

from oracles import evaluate
from oracles import half_weights as oracle_half_weights
from oracles import orbit_bernoulli_product
from oracles import value_buckets as oracle_value_buckets


def prime_power_base(d):
    for p in range(2, d + 1):
        if d % p == 0:
            q = d
            while q % p == 0:
                q //= p
            return p if q == 1 else None
    return None


def expansion_oracle(chi, n):
    """B_{n,chi} = f**(n-1) sum_a chi(a) B_n(a/f), unrolled literally."""
    f = chi.conductor
    d = chi.order
    p = prime_power_base(d)
    b = 0
    while p**b < d:
        b += 1
    level = CyclotomicLevel(p, b) if d > 1 else CyclotomicLevel(2, 1)
    stride = level.modulus // d
    poly = bernoulli_polynomial(n)
    coeffs = [Fraction(0)] * level.modulus
    for a in range(1, f + 1):
        t = evaluate(chi, a)
        if t is not None:
            coeffs[t * stride] += poly.evaluate(Fraction(a, f)) * Fraction(f) ** (n - 1)
    den = math.lcm(*(c.denominator for c in coeffs))
    numerator = CyclotomicElement.make(level, [int(c * den) for c in coeffs])
    return CyclotomicRational.make(numerator, den)


def all_primitive_prime_power_chars(f):
    g = unit_group(f)
    tuples = [()]
    for _, order in g.generators:
        tuples = [t + (e,) for t in tuples for e in range(order)]
    out = []
    for exps in tuples:
        chi = DirichletCharacter(g, exps)
        if chi.is_primitive() and chi.order > 1 and prime_power_base(chi.order):
            out.append(chi)
    return out


def test_trivial_character_gives_bernoulli_numbers():
    for n in range(2, 13):
        value = generalized_bernoulli(trivial_character(), n)
        assert rational_part(value) == bernoulli_number(n)
    lifted = generalized_bernoulli(trivial_character(), 4, CyclotomicLevel(3, 2))
    assert lifted.level == CyclotomicLevel(3, 2)
    assert rational_part(lifted) == Fraction(-1, 30)


def test_bernoulli_denominator_lcm_is_von_staudt_clausen():
    # the product of the primes up to n + 1 against the Fractions themselves
    lcm = 1
    for n in range(301):
        lcm = math.lcm(lcm, bernoulli_number(n).denominator)
        assert lfun._bernoulli_denominator_lcm(n) == lcm, n


def test_generalized_bernoulli_against_expansion():
    for f in (5, 7, 8, 9, 11, 16):
        for chi in all_primitive_prime_power_chars(f):
            for n in (2, 3, 4, 6):
                got = generalized_bernoulli(chi, n)
                want = expansion_oracle(chi, n)
                assert got.level == want.level, (f, chi.exponents, n)
                assert got == want, (f, chi.exponents, n)


def test_parity_vanishing():
    # B_{n,chi} = 0 exactly when chi(-1) != (-1)**n (for n >= 2)
    for f in (5, 7, 8, 9, 11):
        for chi in all_primitive_prime_power_chars(f):
            for n in (2, 3, 4, 5):
                value = generalized_bernoulli(chi, n)
                vanishes = not any(value.numerator.coeffs)
                mismatch = chi.is_even != (n % 2 == 0)
                assert vanishes == mismatch, (f, chi.exponents, n)


def test_quadratic_character_mod_5():
    # hand computation: B_2(x) = x^2 - x + 1/6 at a/5 summed with signs
    # (+,-,-,+) gives 4/25, so B_{2,chi} = 5 * 4/25 = 4/5
    g = unit_group(5)
    chi = DirichletCharacter(g, (2,))
    assert chi.order == 2
    assert chi.is_even
    value = generalized_bernoulli(chi, 2)
    assert rational_part(value) == Fraction(4, 5)
    assert rational_part(l_value_negative(chi, 1)) == Fraction(-2, 5)


def test_cubic_character_mod_7_tenth_bernoulli():
    # independently derived: B_{10,chi} = (36199840 - 28945220 zeta_3)/7
    # with absolute norm 456580929948400/7
    g = unit_group(7)
    chi = DirichletCharacter(g, (2,))
    assert chi.order == 3
    value = generalized_bernoulli(chi, 10)
    level = CyclotomicLevel(3, 1)
    expected = CyclotomicRational.make(
        CyclotomicElement.make(level, (36199840, -28945220)), 7
    )
    assert value == expected
    norm = resultant(cyclotomic_polynomial_any(3), Poly(value.numerator.coeffs))
    assert Fraction(norm, value.denominator**2) == Fraction(456580929948400, 7)


def test_galois_equivariance():
    g = unit_group(11)
    chi = DirichletCharacter(g, (2,))  # order 5
    for n in (2, 4, 6):
        base = generalized_bernoulli(chi, n)
        for a in (2, 3, 4):
            # zeta -> zeta**a moves the coefficient of zeta**e to zeta**(a*e)
            permuted = [0] * base.level.modulus
            for e, c in enumerate(base.numerator.coeffs):
                permuted[a * e % base.level.modulus] += c
            mapped = CyclotomicRational.make(
                CyclotomicElement.make(base.level, permuted), base.denominator
            )
            assert generalized_bernoulli(chi**a, n) == mapped, (n, a)


def test_requires_primitive_and_prime_power_order():
    g = unit_group(9)
    imprimitive = DirichletCharacter(g, (3,)).primitive().lift_to(9)
    if imprimitive.conductor != imprimitive.modulus:
        with pytest.raises(ValueError):
            generalized_bernoulli(imprimitive, 2)
    g13 = unit_group(13)
    order12 = DirichletCharacter(g13, (1,))
    assert order12.order == 12
    with pytest.raises(ValueError):
        generalized_bernoulli(order12, 2)
    with pytest.raises(ValueError):
        generalized_bernoulli(trivial_character(), 1)
    with pytest.raises(ValueError, match="must be primitive"):
        lfun._value_buckets(DirichletCharacter(unit_group(14), (2,)), 2)


def test_level_escalation_scales_valuation():
    g = unit_group(7)
    chi = DirichletCharacter(g, (2,))  # order 3, conductor 7
    for k in (1, 5):
        base = char_bernoulli_pi_valuation(chi, k)
        for n_level in (2, 3):
            scaled = char_bernoulli_pi_valuation(chi, k, n_level)
            assert scaled == base * 3 ** (n_level - 1), (k, n_level)
    with pytest.raises(ValueError):
        char_bernoulli_pi_valuation(chi, 1, 0)
    with pytest.raises(ValueError):
        char_bernoulli_pi_valuation(trivial_character(), 1)


def test_rational_zeta_values():
    q = FieldSpec.rationals()
    known = {
        1: Fraction(-1, 12),
        3: Fraction(1, 120),
        5: Fraction(-1, 252),
        7: Fraction(1, 240),
        9: Fraction(-1, 132),
        11: Fraction(691, 32760),
    }
    for k, expected in known.items():
        assert zeta_value_negative(q, k) == expected
    with pytest.raises(ValueError):
        zeta_value_negative(q, 2)


def test_real_quadratic_zeta():
    # zeta_{Q(sqrt5)}(-1) = zeta(-1) L(chi_5, -1) = (-1/12)(-2/5) = 1/30
    spec = FieldSpec.real_cyclotomic(5)
    assert zeta_value_negative(spec, 1) == Fraction(1, 30)


def galois_orbits(chars):
    remaining = {c for c in chars if not c.is_trivial()}
    orbits = []
    while remaining:
        chi = next(iter(remaining))
        orbit = {chi**a for a in range(1, chi.order) if math.gcd(a, chi.order) == 1}
        assert orbit <= remaining
        remaining -= orbit
        orbits.append(sorted(orbit, key=lambda c: c.sort_key()))
    return orbits


def levelwise_zeta(chars, k):
    """zeta_F(-k) for the field with character group chars, as zeta(-k) times,
    for each Galois orbit {chi^a} of order d, the norm from Q(zeta_d) of one
    member's L-value: Res(Phi_d, numerator) over denominator^phi(d)."""
    total = Fraction(-bernoulli_number(k + 1), k + 1)
    for orbit in galois_orbits(chars):
        value = l_value_negative(orbit[0], k)
        assert len(orbit) == value.level.degree
        phi_d = cyclotomic_polynomial_any(value.level.modulus)
        norm = resultant(phi_d, Poly(value.numerator.coeffs))
        total *= Fraction(norm, value.denominator ** len(orbit))
    return total


def test_zeta_matches_levelwise_orbit_products():
    # compare the resultant norms of the orbits with the orbit-norm route
    cases = [
        (FieldSpec.real_cyclotomic(7), 9),
        (FieldSpec.real_cyclotomic(11), 1),
        (FieldSpec.real_cyclotomic(11), 3),
        (FieldSpec.real_cyclotomic(16), 1),
        (FieldSpec.real_cyclotomic(19), 1),
        (FieldSpec.prime_cyclic_subfield(7, 3), 1),
        (FieldSpec.prime_cyclic_subfield(7, 3), 5),
        (FieldSpec.max_p_subextension(133, 3), 1),
    ]
    for spec, k in cases:
        want = levelwise_zeta(spec.sorted_characters(), k)
        assert want == zeta_value_negative(spec, k), (spec.describe(), k)


# the even primitive characters of conductor <= 60 whose order is a prime power
EVEN_PRIME_POWER_ORDER = [
    chi
    for m in range(3, 61)
    for exps in itertools.product(*(range(o) for _, o in unit_group(m).generators))
    for chi in [DirichletCharacter(unit_group(m), exps)]
    if chi.is_primitive() and chi.is_even and len(factorize(chi.order)) == 1
]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(EVEN_PRIME_POWER_ORDER), st.sampled_from([1, 3, 5]))
def test_explicit_zeta_matches_levelwise_orbit_products(chi, k):
    # the field cut out by the cyclic group of the powers of chi
    powers = {chi**j for j in range(chi.order)}
    spec = FieldSpec.explicit(powers)
    assert spec.degree == len(powers) == chi.order
    assert levelwise_zeta(powers, k) == zeta_value_negative(spec, k), (chi, k)


# every spec kind, with orbits of orders 2 to 40 and conductors to 200
FRACTION_SPECS = (
    [FieldSpec.real_cyclotomic(m) for m in range(3, 130)]
    + [FieldSpec.prime_cyclic_subfield(ell, p) for ell, p in ((7, 3), (31, 5), (43, 7), (199, 3))]
    + [FieldSpec.max_p_subextension(m, p) for m, p in ((133, 3), (11 * 31, 5), (29 * 43, 7))]
)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(FRACTION_SPECS), st.sampled_from([1, 3, 5, 7]))
@example(FieldSpec.real_cyclotomic(85), 1)  # orbits of orders 2, 4, 8 and 16
def test_zeta_matches_fraction_orbit_products(spec, k):
    # the integer norms and scales, reduced per orbit, against one Fraction
    # product per orbit
    want = Fraction(-bernoulli_number(k + 1), k + 1)
    for chi, size in spec.orbits:
        want *= Fraction(-1, k + 1) ** size * orbit_bernoulli_product(chi, k + 1)
    got = zeta_value_negative(spec, k)
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_orbit_valuation_matches_fraction_product(data):
    spec = data.draw(st.sampled_from([spec for spec in FRACTION_SPECS if spec.orbits]))
    chi, _ = data.draw(st.sampled_from(spec.orbits))
    n = data.draw(st.sampled_from([2, 4, 6, 8]))
    # primes of D, primes of f, and one prime of neither
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 101] + [q for q, _ in factorize(chi.conductor)]))
    value = orbit_bernoulli_product(chi, n)
    if value == 0:
        with pytest.raises(ArithmeticError):
            lfun._orbit_valuation(chi, n, p)
    else:
        want = valuation(value.numerator, p) - valuation(value.denominator, p)
        assert lfun._orbit_valuation(chi, n, p) == want


@pytest.mark.parametrize("ell, p", [(4003, 3), (4001, 5)])
def test_zeta_takes_no_dlog_per_residue(monkeypatch, ell, p):
    calls = []
    dlog = UnitGroupStructure.dlog

    def counting_dlog(self, a):
        calls.append(a)
        return dlog(self, a)

    monkeypatch.setattr(UnitGroupStructure, "dlog", counting_dlog)
    spec = FieldSpec.prime_cyclic_subfield(ell, p)
    zeta_value_negative(spec, p - 2)
    assert len(calls) <= 4 * spec.degree


@pytest.mark.parametrize("m", [4620, 15015])
def test_character_arithmetic_takes_no_dlog(monkeypatch, m):
    # enumeration, primitive(), lift_to() and chi**a rescale exponents
    calls = []
    dlog = UnitGroupStructure.dlog

    def counting_dlog(self, a):
        calls.append(a)
        return dlog(self, a)

    monkeypatch.setattr(UnitGroupStructure, "dlog", counting_dlog)
    spec = FieldSpec.real_cyclotomic(m)
    assert spec.degree == unit_group(m).phi // 2
    spec.orbits
    w_invariant(spec, 2)
    assert calls == []


def test_congruence_valuations():
    # order-5 characters at conductors 11, 31, 41: v_pi(B_2) >= 1
    for ell in (11, 31, 41):
        spec = FieldSpec.prime_cyclic_subfield(ell, 5)
        for chi in spec.sorted_characters():
            if chi.is_trivial():
                continue
            assert char_bernoulli_pi_valuation(chi, 1) >= 1, ell
    # order-3 characters at conductors 19, 37: level 1 gives >= 1, level 2
    # scales to >= 3
    for ell in (19, 37):
        spec = FieldSpec.prime_cyclic_subfield(ell, 3)
        for chi in spec.sorted_characters():
            if chi.is_trivial():
                continue
            assert char_bernoulli_pi_valuation(chi, 1, 1) >= 1, ell
            assert char_bernoulli_pi_valuation(chi, 1, 2) >= 3, ell
    # contrast: the order-3 character of conductor 7 has valuation 0
    g = unit_group(7)
    chi = DirichletCharacter(g, (2,))
    assert char_bernoulli_pi_valuation(chi, 1) == 0


def test_product_valuation():
    spec = FieldSpec.prime_cyclic_subfield(11, 5)
    assert product_valuation(spec, 5, 1) == 1
    spec = FieldSpec.max_p_subextension(29, 7)
    assert product_valuation(spec, 7, 3) == 1
    spec = FieldSpec.max_p_subextension(133, 3)
    value = product_valuation(spec, 3, 1)
    assert value >= 6
    with pytest.raises(ValueError):
        product_valuation(FieldSpec.real_cyclotomic(11), 5, 1)
    with pytest.raises(ValueError):
        product_valuation(FieldSpec.prime_cyclic_subfield(11, 5), 5, 5)
    with pytest.raises(ValueError):
        product_valuation(FieldSpec.prime_cyclic_subfield(11, 5), 5, 2)


def test_product_valuation_matches_direct_product():
    # v_pi of every nontrivial B_{k+1,chi} at the top level p^N, each from
    # the norm of the ring element, sums to phi(p^N) * product_valuation
    cases = [
        (FieldSpec.prime_cyclic_subfield(11, 5), 5, 1),
        (FieldSpec.max_p_subextension(133, 3), 3, 1),
        (FieldSpec.max_p_subextension(29 * 43, 7), 7, 1),
    ]
    for spec, p, k in cases:
        level = CyclotomicLevel(p, valuation(spec.group_exponent(), p))
        total = sum(
            element_route_pi_valuation(chi, k, level.n)
            for chi in spec.sorted_characters()
            if not chi.is_trivial()
        )
        got = product_valuation(spec, p, k)
        assert type(got) is int
        assert got * level.degree == total


def element_route_pi_valuation(chi, k, n_level):
    """v_pi(B_{k+1,chi}) at level p^N from the ring element: v_p of its
    absolute norm Res(Phi_{p^N}, P_N), less phi(p^N) * v_p(denominator)."""
    p = prime_power_base(chi.order)
    level = CyclotomicLevel(p, n_level)
    value = generalized_bernoulli(chi, k + 1, level)
    norm = resultant(cyclotomic_polynomial_any(level.modulus), Poly(value.numerator.coeffs))
    return valuation(norm, p) - level.degree * valuation(value.denominator, p)


PI_VALUATION_SPECS = [
    FieldSpec.prime_cyclic_subfield(ell, p)
    for p in (3, 5, 7)
    for ell in range(p + 1, 282, p)
    if is_prime(ell)
] + [
    FieldSpec.max_p_subextension(m, p)
    for m, p in ((19, 3), (133, 3), (101, 5), (11 * 31, 5), (29, 7), (29 * 43, 7))
]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_pi_valuation_matches_element_norm(data):
    spec = data.draw(st.sampled_from(PI_VALUATION_SPECS))
    chars = [chi for chi in spec.sorted_characters() if not chi.is_trivial()]
    chi = data.draw(st.sampled_from(chars))
    k = data.draw(st.sampled_from([1, 3, 5]))
    p = prime_power_base(chi.order)
    n_level = valuation(chi.order, p) + data.draw(st.integers(0, 1))
    assert char_bernoulli_pi_valuation(chi, k, n_level) == element_route_pi_valuation(
        chi, k, n_level
    )


def test_vanishing_raises_in_valuation():
    # odd character, even index k+1 would vanish; k even is rejected before
    g = unit_group(5)
    chi = DirichletCharacter(g, (1,))  # order 4, odd
    with pytest.raises(ArithmeticError):
        char_bernoulli_pi_valuation(chi, 1)


# 1, 2^k times an odd number, three-factor composites, 4620 = 4*3*5*7*11 with
# five generators, and the rest of the small moduli
BUCKET_MODULI = st.one_of(
    st.sampled_from([1, 2, 4, 8, 16, 32, 24, 40, 96, 105, 120, 180, 252, 280, 4620]),
    st.integers(1, 150),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(BUCKET_MODULI, st.integers(2, 9))
@example(1, 2)  # f = 1: one unit, no pairing of a with -a
@example(4, 2)  # f = 4: the 'minus' digit is cut to radix 1
@example(8, 5)  # f = 8: 'minus' and 'five' generators
@example(7, 3)  # odd chi with odd n, where the sign term is live
@example(252, 9)  # 4 * 9 * 7: the cut 'minus' digit and two odd ones
@example(4620, 2)  # five generators, folded by slices down to one
def test_value_buckets_match_walk(m, n):
    # every primitive character mod m, even and odd: the slice sums over
    # half the units equal the walk over all of them, one Horner per unit
    g = unit_group(m)
    exponent_tuples = itertools.product(*(range(o) for _, o in g.generators))
    for chi in (DirichletCharacter(g, exps) for exps in exponent_tuples):
        if chi.is_primitive():
            want = oracle_value_buckets(chi, n)
            assert lfun._value_buckets(chi, n) == want, (m, chi.exponents, n)


# the small conductors, even composites, odd prime powers and primes to 5000
WEIGHT_CONDUCTORS = st.one_of(
    st.sampled_from([1, 2, 3, 4, 8]),
    st.integers(2, 2500).map(lambda k: 2 * k),
    st.sampled_from([9, 25, 27, 49, 81, 121, 125, 169, 243, 343, 625, 729, 2187, 2401, 3125]),
    st.integers(3, 5000).filter(is_prime),
    st.integers(1, 5000),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(WEIGHT_CONDUCTORS, st.integers(2, 12))
@example(1, 2)  # the one unit 1 lies past f // 2
@example(2, 3)
@example(4, 9)  # even f: the mirror starts at f - 1 - f // 2
@example(2003, 4)
@example(4999, 6)
def test_half_weights_match_horner(f, n):
    # the difference table, mirrored and gathered, gives the Horner values
    assert lfun._half_weights.__wrapped__(f, n) == oracle_half_weights(f, n)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 64), st.integers(2, 200))
@example(7, 200)  # four entries, all by Horner
@example(64, 32)  # f//2 = n: still all by Horner
@example(64, 31)  # f//2 = n + 1: the difference table, one running sum long
@example(63, 2)
def test_half_weights_at_large_n_match_horner(f, n):
    # f//2 <= n takes every entry by Horner's rule, f//2 > n the running sums
    assert lfun._half_weights.__wrapped__(f, n) == oracle_half_weights(f, n)


def test_weights_built_once_per_conductor(monkeypatch):
    calls = []
    transversal = lfun._transversal

    def counting_transversal(f):
        calls.append(f)
        return transversal(f)

    monkeypatch.setattr(lfun, "_transversal", counting_transversal)
    lfun._half_weights.cache_clear()
    spec = FieldSpec.real_cyclotomic(4620)
    k_order(spec, 1, factor=False)
    conductors = [chi.conductor for chi, _ in spec.orbits]
    assert sorted(calls) == sorted(set(conductors))
    assert len(calls) < len(conductors)  # 29 conductors, 95 orbits


@pytest.mark.parametrize(
    "ell, p, bits, digest",
    [
        (4001, 5, 135, "84f8df2031cd1d67d388da3c37c13bb92652fbc9e5fc9774f2f17e542215d431"),
        (4003, 3, 25, "f9b0c4ae60f7a1c612f5ddc73d426bfebe217715475a20f26adbc346d0ecf407"),
    ],
)
def test_prime_cyclic_zeta_pins(ell, p, bits, digest):
    # recorded while the bucket sums still walked every unit mod ell
    value = zeta_value_negative(FieldSpec.prime_cyclic_subfield(ell, p), p - 2)
    assert value.numerator.bit_length() == bits
    assert value.denominator == 3
    text = b"%x/%x" % (value.numerator, value.denominator)
    assert hashlib.sha256(text).hexdigest() == digest


@pytest.mark.parametrize(
    "ell, p, bits, digest",
    [
        (100003, 3, 42, "7a04a935188ad2ea7eaeca3d1f23c9df76e9aa910820d143c9681ceb0d53db2f"),
        (100151, 5, 201, "f3a40e8e0c6a2ba9438790906b39b3e89cd11fb41c6d3a0870b58cffdeac9ee8"),
        (100003, 7, 502, "635e307e8941266290d8bc5d97ddc9debb3354e997ad8fc0ff9bccc8f9dc7846"),
    ],
)
def test_prime_cyclic_order_pins(ell, p, bits, digest):
    # recorded while the Bernoulli weights were taken one Horner evaluation
    # per unit of the transversal mod ell
    order = k_order(FieldSpec.prime_cyclic_subfield(ell, p), p - 2, factor=False).order
    assert order.bit_length() == bits
    assert hashlib.sha256(b"%x" % order).hexdigest() == digest


@pytest.mark.parametrize(
    "m, bits, digest",
    [
        (1907, 11476, "5efb1f84f53bc7fb324bd9a24b24794e4e35e6ce4ae6bc47bdd8246026b54c18"),
        (2003, 12161, "752bbc7ae346918927b462e333230c88160536c6248f389de5284238373be42d"),
    ],
)
def test_large_prime_conductor_order_pins(m, bits, digest):
    # recorded while the orbit norms were products in Z[x]/(x^d - 1); one
    # orbit of order d = (m - 1)/2 carries almost all of the order
    order = k_order(FieldSpec.real_cyclotomic(m), 1, factor=False).order
    assert order.bit_length() == bits
    assert hashlib.sha256(b"%x" % order).hexdigest() == digest


def _bench_spans():
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# bench/spans.py replaces each of its BINDINGS to trace a run and wraps the
# function FieldSpec.characters caches; bench/test_bench.py reads the cache of
# cyclotomic_polynomial_any, and bench/workloads.py calls ktheory.is_prime and
# ktheory.factorize.
BENCH_NAMES = list(
    dict.fromkeys(
        [(owner, attr) for owner, attr, _, _ in _bench_spans().BINDINGS]
        + [
            (FieldSpec, "characters"),
            (cyclotomic_polynomial_any, "cache_info"),
            (ktheory, "is_prime"),
            (ktheory, "factorize"),
        ]
    )
)


def _binding_id(binding):
    owner, attr = binding
    if owner is lfun:
        return attr
    return "%s.%s" % (owner.__name__.removeprefix("kzeta."), attr)


@pytest.mark.parametrize("owner, attr", BENCH_NAMES, ids=map(_binding_id, BENCH_NAMES))
def test_lfun_keeps_the_bindings_the_bench_traces(owner, attr):
    binding = inspect.getattr_static(owner, attr)
    if owner is FieldSpec:
        assert isinstance(binding, functools.cached_property)
        binding = binding.func
    assert callable(binding)



@pytest.mark.parametrize(
    "spec, k",
    [
        (FieldSpec.real_cyclotomic(7), 1),
        (FieldSpec.real_cyclotomic(4620), 1),
        (FieldSpec.prime_cyclic_subfield(31, 5), 3),
        (FieldSpec.max_p_subextension(29 * 43, 7), 5),
    ],
    ids=lambda x: x.describe() if isinstance(x, FieldSpec) else "k=%d" % x,
)
def test_k_order_goes_through_the_traced_zeta_and_one_norm_per_orbit(monkeypatch, spec, k):
    # bench/spans.py times the lfun.zeta span at ktheory.zeta_value_negative;
    # a k_order that went around it, or took norms outside _orbit_norm, would
    # leave that span at 0
    zeta_calls, norm_orders = [], []
    zeta, norm = ktheory.zeta_value_negative, lfun._orbit_norm

    def counting_zeta(*args):
        zeta_calls.append(args)
        return zeta(*args)

    def counting_norm(coeffs, d):
        norm_orders.append(d)
        return norm(coeffs, d)

    monkeypatch.setattr(ktheory, "zeta_value_negative", counting_zeta)
    monkeypatch.setattr(lfun, "_orbit_norm", counting_norm)
    k_order(spec, k, factor=False)
    assert zeta_calls == [(spec, k)]
    assert norm_orders == [chi.order for chi, _ in spec.orbits]
