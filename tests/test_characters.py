"""Tests for Dirichlet characters, unit group structure, and field
descriptions."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kzeta
from kzeta.arith import is_prime
from kzeta.characters import (
    DirichletCharacter,
    FieldSpec,
    _even_exponents,
    ghat_stratum,
    trivial_character,
    unit_group,
)

from oracles import closure_error, element_from_exponents, evaluate, walk
from oracles import galois_orbits as oracle_galois_orbits
from oracles import lift_to as oracle_lift_to
from oracles import primitive as oracle_primitive


def euler_phi(m):
    return sum(1 for a in range(1, m + 1) if math.gcd(a, m) == 1)


def units(m):
    return [a for a in range(1, m + 1) if math.gcd(a, m) == 1]


def test_unit_group_examples():
    assert unit_group(7).generators == ((3, 6),)
    assert unit_group(8).generators == ((7, 2), (5, 2))
    assert unit_group(2).generators == ()
    assert unit_group(1).generators == ()
    assert unit_group(9).generators == ((2, 6),)
    # CRT lifts of the local generators: 2 mod 3 -> 11, 2 mod 5 -> 7
    assert unit_group(15).generators == ((11, 2), (7, 4))


def test_unit_group_structure():
    for m in range(1, 81):
        g = unit_group(m)
        assert g.phi == euler_phi(m)
        for gen, order in g.generators:
            assert math.gcd(gen, m) == 1
            assert pow(gen, order, m) == 1
            for q in {p for p in range(2, order) if order % p == 0 and all(p % r for r in range(2, p))}:
                assert pow(gen, order // q, m) != 1
        for a in units(m):
            exps = g.dlog(a)
            assert exps is not None
            assert element_from_exponents(g, exps) == a % m
        if m > 2:
            assert g.dlog(0) is None
        # the generators really generate: distinct exponent tuples hit
        # distinct residues, and there are phi of them
        seen = set()
        for a in units(m):
            seen.add(g.dlog(a))
        assert len(seen) == g.phi


def test_unit_group_exponent():
    assert unit_group(7).exponent == 6
    assert unit_group(8).exponent == 2
    assert unit_group(15).exponent == 4
    assert unit_group(1).exponent == 1
    for m in range(2, 60):
        g = unit_group(m)
        for a in units(m):
            assert pow(a, g.exponent, m) == 1


def test_character_evaluate_example():
    # order-3 character mod 7 sending the generator 3 to zeta_3
    g = unit_group(7)
    chi = DirichletCharacter(g, (2,))
    assert chi.order == 3
    assert evaluate(chi, 3) == 1
    assert evaluate(chi, 2) == 2
    assert evaluate(chi, 1) == 0
    assert evaluate(chi, 7) is None
    assert evaluate(chi, 6) == 0  # chi(-1) = 1, even
    assert chi.is_even


def test_character_multiplicativity():
    for m in (5, 7, 8, 9, 12, 15, 16, 21):
        g = unit_group(m)
        chars = [
            DirichletCharacter(g, exps)
            for exps in _all_exponent_tuples(g)
        ]
        assert len(chars) == g.phi
        for chi in chars:
            d = chi.order
            for a in units(m):
                for b in units(m):
                    ta, tb = evaluate(chi, a), evaluate(chi, b)
                    tab = evaluate(chi, a * b % m)
                    assert tab == (ta + tb) % d


def _all_exponent_tuples(g):
    tuples = [()]
    for _, order in g.generators:
        tuples = [t + (e,) for t in tuples for e in range(order)]
    return tuples


def brute_conductor(chi):
    # smallest f dividing m such that chi is constant on residues mod f
    m = chi.modulus
    for f in sorted(d for d in range(1, m + 1) if m % d == 0):
        ok = True
        for a in units(m):
            for b in units(m):
                if (a - b) % f == 0 and evaluate(chi, a) != evaluate(chi, b):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return f
    return m


def test_conductor_against_brute_force():
    for m in range(1, 49):
        g = unit_group(m)
        for exps in _all_exponent_tuples(g):
            chi = DirichletCharacter(g, exps)
            assert chi.conductor == brute_conductor(chi), (m, exps)


def test_character_order_and_parity():
    for m in (5, 7, 9, 11, 16, 24, 36):
        g = unit_group(m)
        for exps in _all_exponent_tuples(g):
            chi = DirichletCharacter(g, exps)
            d = chi.order
            # order is the exact multiplicative order
            assert (chi**d).is_trivial()
            for q in {p for p in range(2, d) if d % p == 0 and all(p % r for r in range(2, p))}:
                assert not (chi ** (d // q)).is_trivial()
            t = evaluate(chi, m - 1) if m > 2 else 0
            assert chi.is_even == (t == 0)
            assert t in (0, d // 2 if d % 2 == 0 else 0)


# 1, 2, 4, 8, 2^k times an odd number, three-factor composites, and the rest
# of the small moduli
MODULI = st.one_of(
    st.sampled_from([1, 2, 4, 8, 16, 32, 24, 40, 96, 105, 120, 180, 252, 280]),
    st.integers(1, 150),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(MODULI)
def test_walk_matches_dlog_evaluation(m):
    g = unit_group(m)
    for exps in _all_exponent_tuples(g):
        chi = DirichletCharacter(g, exps)
        walked = list(walk(chi))
        assert len(walked) == g.phi
        assert dict(walked) == {a % m: evaluate(chi, a) for a in units(m)}
        assert chi.is_even == (evaluate(chi, m - 1) == 0)


def test_primitive_round_trip():
    for m in (7, 9, 12, 15, 21, 35, 36, 45):
        g = unit_group(m)
        for exps in _all_exponent_tuples(g):
            chi = DirichletCharacter(g, exps)
            prim = chi.primitive()
            assert prim.modulus == chi.conductor
            assert prim.is_primitive()
            assert prim.order == chi.order
            assert prim.lift_to(m) == chi
            # values agree on shared units
            for a in units(m):
                assert evaluate(prim, a) == evaluate(chi, a)


def test_character_product_and_inverse():
    g = unit_group(13)
    chi = DirichletCharacter(g, (2,))
    psi = DirichletCharacter(g, (3,))
    prod = chi * psi
    for a in units(13):
        d = prod.order
        lhs = evaluate(prod, a)
        expected = (
            evaluate(chi, a) * (chi.order and 12 // chi.order)
            + evaluate(psi, a) * (12 // psi.order)
        ) % 12
        assert lhs * (12 // d) % 12 == expected
    assert (chi * chi.inverse()).is_trivial()
    assert chi.inverse() == chi ** (chi.order - 1)


def _character(g, seed):
    """The character on g whose exponents are the mixed-radix digits of seed."""
    exps = []
    for _, o in g.generators:
        seed, e = divmod(seed, o)
        exps.append(e)
    return DirichletCharacter(g, tuple(exps))


def _value(chi, a):
    """chi(a) as the fraction t/order of a full turn, from the oracle."""
    return Fraction(evaluate(chi, a), chi.order)


TRANSFER_MODULI = st.one_of(
    MODULI,
    st.integers(1, 300),
    st.builds(
        lambda k, odd: 2**k * odd,
        st.integers(1, 6),
        st.sampled_from([1, 3, 5, 7, 9, 15, 21, 45]),
    ),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(TRANSFER_MODULI, st.integers(0, 2**128))
def test_transfers_match_value_oracle(m, seed):
    # primitive, lift_to, *, ** and inverse move exponents between moduli;
    # the oracle takes one discrete log per value.  One seed picks the two
    # characters, the lift and the power.
    k = (1, 2, 3, 4, 5, 9)[seed % 6]
    n = seed % 61 - 30
    chi = _character(unit_group(m), seed >> 8)
    prim = chi.primitive()
    assert prim == oracle_primitive(chi)
    assert prim.lift_to(m) == chi
    lifted = chi.lift_to(m * k)
    assert lifted == oracle_lift_to(chi, m * k)
    divisors = [d for d in range(1, m * k + 1) if m * k % d == 0]
    psi = _character(unit_group(divisors[seed % len(divisors)]), seed >> 64)
    prod, power, inv = chi * psi, chi**n, chi.inverse()
    for a in units(m * k):
        x = _value(chi, a)
        assert _value(prim, a) == x
        assert _value(lifted, a) == x
        assert _value(prod, a) == (x + _value(psi, a)) % 1
        assert _value(power, a) == n * x % 1
        assert _value(inv, a) == -x % 1


def test_transfer_where_the_smallest_roots_differ():
    # 5 is the smallest primitive root mod 40487 but not mod 40487**2, where
    # it is 10, so moving between the two levels rescales by the log of 10
    p = 40487
    assert unit_group(p).generators == ((5, p - 1),)
    assert unit_group(p * p).generators == ((10, p * (p - 1)),)
    spec = FieldSpec.max_p_subextension(p * p, 31)
    assert spec.degree == 31
    samples = [a for a in range(2, p * p, p * p // 40) if a % p != 0]
    for chi in spec.sorted_characters():
        lifted = chi.lift_to(p * p)
        assert lifted == oracle_lift_to(chi, p * p)
        assert lifted.primitive() == chi
        for a in samples:
            assert _value(lifted, a) == _value(chi, a)


def test_trivial_character():
    t = trivial_character()
    assert t.is_trivial()
    assert t.order == 1
    assert t.conductor == 1
    assert t.is_even


def test_field_spec_rationals():
    q = FieldSpec.rationals()
    assert q.degree == 1
    assert q.conductor == 1
    assert q.sorted_characters() == [trivial_character()]
    assert q.group_exponent() == 1


def test_real_cyclotomic_fields():
    assert FieldSpec.real_cyclotomic(1).degree == 1
    assert FieldSpec.real_cyclotomic(2).degree == 1
    for m in (5, 7, 8, 9, 11, 12, 13, 15, 16, 19, 20):
        spec = FieldSpec.real_cyclotomic(m)
        assert spec.degree == euler_phi(m) // 2, m
        chars = spec.sorted_characters()
        assert len(chars) == spec.degree
        for chi in chars:
            assert chi.is_even
            assert chi.is_primitive()
        # closed under multiplication (primitivized)
        charset = set(chars)
        for a in chars:
            for b in chars:
                assert (a * b) in charset
        # closed under inversion
        for a in chars:
            assert a.inverse() in charset
        assert sum(1 for c in chars if c.is_trivial()) == 1


def test_real_cyclotomic_conductors_divide_m():
    for m in (7, 9, 12, 15, 16, 21):
        spec = FieldSpec.real_cyclotomic(m)
        for chi in spec.sorted_characters():
            assert m % chi.conductor == 0


def test_max_p_subextension():
    spec = FieldSpec.max_p_subextension(29, 7)
    assert spec.degree == 7
    assert sorted({c.order for c in spec.sorted_characters()}) == [1, 7]
    assert spec.is_p_group(7)
    assert spec.group_exponent() == 7

    spec = FieldSpec.max_p_subextension(133, 3)
    assert spec.degree == 27
    assert spec.group_exponent() == 9
    assert spec.is_p_group(3)
    orders = sorted(c.order for c in spec.sorted_characters())
    assert orders.count(1) == 1
    assert orders.count(3) == 8
    assert orders.count(9) == 18

    # no p-part at all collapses to the rationals
    spec = FieldSpec.max_p_subextension(11, 3)
    assert spec.degree == 1


def _is_power_of(n, p):
    while n % p == 0:
        n //= p
    return n == 1


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.one_of(MODULI, st.sampled_from([q for q in range(3, 282) if is_prime(q)])))
def test_field_characters_match_brute_force(m):
    # every character mod m, kept when even and of the right order, then
    # made primitive
    g = unit_group(m)
    even = [
        chi
        for chi in (DirichletCharacter(g, exps) for exps in _all_exponent_tuples(g))
        if evaluate(chi, m - 1) == 0
    ]

    def primitives(keep):
        return {oracle_primitive(chi) for chi in even if keep(chi.order)}

    assert FieldSpec.real_cyclotomic(m).characters == primitives(lambda d: True)
    for p in (3, 5, 7):
        if m > 1:
            spec = FieldSpec.max_p_subextension(m, p)
            assert spec.characters == primitives(lambda d: _is_power_of(d, p))
        if is_prime(m) and m % p == 1:
            spec = FieldSpec.prime_cyclic_subfield(m, p)
            assert spec.characters == primitives(lambda d: p % d == 0)


def brute_force_characters(spec):
    """X_F from every character mod m: the even ones of the spec's orders,
    made primitive by the value oracle."""
    g = unit_group(spec.m)
    keep = {
        "real-cyclotomic": lambda d: True,
        "max-p": lambda d: _is_power_of(d, spec.p),
        "prime-cyclic": lambda d: spec.p % d == 0,
    }[spec.kind]
    return frozenset(
        oracle_primitive(chi)
        for chi in (DirichletCharacter(g, exps) for exps in _all_exponent_tuples(g))
        if keep(chi.order) and evaluate(chi, spec.m - 1) == 0
    )


def orbit_table(reps):
    """{orbit as a frozenset of (modulus, exponents) keys: orbit size}."""
    table = {}
    for chi, size in reps:
        d = chi.order
        orbit = frozenset(
            (psi.modulus, psi.exponents)
            for psi in (chi**a for a in range(1, d) if math.gcd(a, d) == 1)
        )
        assert size == len(orbit) == euler_phi(d)
        table[orbit] = size
    return table


SMALL_PRIMES = [q for q in range(3, 401) if is_prime(q)]
ORBIT_SPECS = st.one_of(
    st.builds(FieldSpec.real_cyclotomic, st.integers(1, 400)),
    st.builds(FieldSpec.max_p_subextension, st.integers(2, 400), st.sampled_from([3, 5, 7])),
    st.sampled_from([(q, p) for q in SMALL_PRIMES for p in (3, 5, 7) if q % p == 1]).map(
        lambda args: FieldSpec.prime_cyclic_subfield(*args)
    ),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(ORBIT_SPECS)
@example(FieldSpec.real_cyclotomic(385))  # three odd primes, 120 characters
@example(FieldSpec.real_cyclotomic(392))  # 8 * 49: 'minus', 'five' and p**2
@example(FieldSpec.max_p_subextension(343, 7))  # orders 7, 49 and 343
def test_orbits_match_oracle(spec):
    # the tuple walk against chi**a over the characters found by brute force,
    # for the spec and for an explicit copy of its characters
    chars = brute_force_characters(spec)
    oracle = [(chi, euler_phi(chi.order)) for chi in oracle_galois_orbits(chars)]
    want = orbit_table(oracle)
    explicit = FieldSpec.explicit(chars)
    for field in (spec, explicit):
        assert orbit_table(field.orbits) == want, field.describe()
        assert field.degree == len(chars)
        keys = [chi.sort_key() for chi, _ in field.orbits]
        assert keys == sorted(keys)


def test_orbit_walk_refuses_an_open_set():
    g = unit_group(7)
    chi = DirichletCharacter(g, (2,))
    spec = FieldSpec("explicit", explicit_chars=frozenset([trivial_character(), chi]))
    with pytest.raises(ValueError, match="not closed under Galois action"):
        spec.orbits


def test_orbit_pins_at_85085():
    spec = FieldSpec.real_cyclotomic(85085)
    assert len(spec.orbits) == 1359
    assert spec.degree == 23040


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        st.builds(FieldSpec.real_cyclotomic, st.integers(3, 120)),
        st.builds(FieldSpec.max_p_subextension, st.integers(2, 400), st.sampled_from([3, 5])),
    ),
    st.integers(3, 60),
    st.data(),
)
def test_explicit_closure_check_matches_full_scan(spec, m2, data):
    # a group passes; one character taken out or one stray even primitive
    # character put in fails with the message of the scan over all products
    chars = spec.characters
    assert FieldSpec.explicit(chars).characters == chars
    broken = []
    if len(chars) > 1:
        chi = data.draw(st.sampled_from(sorted(chars, key=DirichletCharacter.sort_key)))
        broken.append(chars - {chi})
    strays = sorted(FieldSpec.real_cyclotomic(m2).characters - chars, key=DirichletCharacter.sort_key)
    if strays:
        broken.append(chars | {data.draw(st.sampled_from(strays))})
    for bad in broken:
        message = closure_error(bad)
        if message is None:  # {1, chi} less chi, or {1} and a quadratic chi
            assert FieldSpec.explicit(bad).degree == len(bad)
            continue
        with pytest.raises(ValueError) as err:
            FieldSpec.explicit(bad)
        assert str(err.value) == message


_SET_ORDER_PROBE = """
from kzeta.characters import DirichletCharacter, FieldSpec, unit_group
for chars in (
    [DirichletCharacter(unit_group(7), (2,)), DirichletCharacter(unit_group(5), (2,))],
    [DirichletCharacter(unit_group(21), (0, 2)), DirichletCharacter(unit_group(7), (1,))],
):
    try:
        FieldSpec.explicit(chars)
    except ValueError as err:
        print(err)
"""


def test_explicit_messages_do_not_follow_set_order():
    # a frozenset of characters iterates in an order set by PYTHONHASHSEED;
    # {cubic mod 7, quadratic mod 5} lacks inverses and products, and
    # {even mod 21 induced from 7, odd sextic mod 7} is neither primitive
    # nor even, and each must name the same failure under every seed
    src = os.path.dirname(os.path.dirname(kzeta.__file__))
    outputs = set()
    for seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _SET_ORDER_PROBE],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.add(run.stdout)
    assert outputs == {
        "character set not closed under inversion\n"
        "explicit character sets must be primitive\n"
    }


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(MODULI, st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12, 60]))
def test_enumerated_characters_are_even(m, exponent):
    # FieldSpec scans only explicit specs for parity and trusts the
    # constructed kinds to be even, so check chi(-1) = 1 by the value
    # oracle, not by is_even
    g = unit_group(m)
    chars = [DirichletCharacter(g, x).primitive() for x in _even_exponents(g, exponent)]
    assert chars
    for chi in chars:
        assert chi.conductor == 1 or evaluate(chi, chi.conductor - 1) == 0, chi


def test_prime_cyclic_subfield():
    spec = FieldSpec.prime_cyclic_subfield(19, 3)
    assert spec.degree == 3
    assert all(c.conductor in (1, 19) for c in spec.sorted_characters())
    assert {c.order for c in spec.sorted_characters()} == {1, 3}
    spec = FieldSpec.prime_cyclic_subfield(11, 5)
    assert spec.degree == 5
    with pytest.raises(ValueError):
        FieldSpec.prime_cyclic_subfield(7, 5)  # 7 is not 1 mod 5
    with pytest.raises(ValueError):
        FieldSpec.prime_cyclic_subfield(15, 7)  # composite conductor


def test_explicit_field_validation():
    g = unit_group(7)
    chi = DirichletCharacter(g, (2,)).primitive()
    full = FieldSpec.explicit([trivial_character(), chi, chi**2])
    assert full.degree == 3
    with pytest.raises(ValueError):
        FieldSpec.explicit([trivial_character(), chi])  # not closed: chi**2 missing
    odd = DirichletCharacter(g, (1,)).primitive()
    with pytest.raises(ValueError):
        FieldSpec.explicit([trivial_character(), odd, odd**2, odd**3, odd**4, odd**5])
    with pytest.raises(ValueError, match="must not be empty"):
        FieldSpec.explicit([])


def test_ghat_stratum():
    spec = FieldSpec.max_p_subextension(133, 3)
    assert len(ghat_stratum(spec, 3, 1)) == 8
    assert len(ghat_stratum(spec, 3, 2)) == 18
    spec = FieldSpec.max_p_subextension(29, 7)
    assert len(ghat_stratum(spec, 7, 1)) == 6
    with pytest.raises(ValueError):
        ghat_stratum(FieldSpec.real_cyclotomic(13), 3, 1)


def test_group_exponent_matches_lcm_of_orders():
    for m in (7, 11, 13, 19, 29, 133):
        spec = FieldSpec.real_cyclotomic(m)
        lcm = 1
        for c in spec.sorted_characters():
            lcm = lcm * c.order // math.gcd(lcm, c.order)
        assert spec.group_exponent() == lcm


def test_describe():
    assert "Q" in FieldSpec.rationals().describe()
    text = FieldSpec.real_cyclotomic(7).describe()
    assert "7" in text
