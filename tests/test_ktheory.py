"""Tests for w-invariants, K-group orders, divisibility bounds and verdicts."""

import dataclasses
import hashlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kzeta import characters, ktheory, lfun
from kzeta.arith import primes_up_to, valuation
from kzeta.characters import DirichletCharacter, FieldSpec, unit_group
from kzeta.ktheory import (
    ComputationError,
    browkin_density,
    browkin_divisible,
    degree_adjoin_zeta,
    divisibility_verdict,
    k_order,
    lower_bound_exponent,
    s_profile,
    w_invariant,
)
from kzeta.lfun import zeta_value_negative

from oracles import evaluate


def test_w_invariant_rationals():
    # classical values w_2, w_4, ..., w_12 over Q
    q = FieldSpec.rationals()
    expected = {2: 24, 4: 240, 6: 504, 8: 480, 10: 264, 12: 65520}
    for j, w in expected.items():
        assert w_invariant(q, j) == w, j


def test_w_invariant_real_cyclotomic():
    rc7 = FieldSpec.real_cyclotomic(7)
    assert w_invariant(rc7, 2) == 168
    assert w_invariant(rc7, 4) == 1680
    assert w_invariant(rc7, 10) == 1848  # 8 * 3 * 7 * 11
    assert w_invariant(FieldSpec.real_cyclotomic(5), 2) == 120
    assert w_invariant(FieldSpec.real_cyclotomic(11), 2) == 264
    # recorded from the walk over (Z/q^nu)^* that the closed form replaced
    assert w_invariant(FieldSpec.real_cyclotomic(85085), 2) == 2042040


def test_w_invariant_p_part():
    # for p >= k+2 and p not dividing m: v_p(w_{k+1}) is 1 at p = k+2 and 0
    # beyond
    for p, m, k in ((3, 7, 1), (5, 11, 3), (7, 29, 5)):
        spec = FieldSpec.max_p_subextension(m, p)
        assert valuation(w_invariant(spec, k + 1), p) == 1, (p, m, k)
    for p, m, k in ((5, 11, 1), (7, 29, 1), (7, 29, 3)):
        spec = FieldSpec.max_p_subextension(m, p)
        assert valuation(w_invariant(spec, k + 1), p) == 0, (p, m, k)


def brute_w_condition(chars, q, nu, j):
    # every a < q^nu, tested against every character of conductor dividing q^nu
    mod = q**nu
    rel = [chi for chi in chars if mod % chi.conductor == 0]
    for a in range(1, mod):
        if a % q == 0:
            continue
        if any(evaluate(chi, a) != 0 for chi in rel):
            continue
        if pow(a, j, mod) != 1:
            return False
    return True


def brute_w_invariant(spec, j):
    chars = spec.sorted_characters()
    out = 1
    for q in [2] + [q for q in primes_up_to(j * len(chars) + 1) if q != 2]:
        nu = 0
        while brute_w_condition(chars, q, nu + 1, j):
            nu += 1
        out *= q**nu
    return out


W_SPECS = st.one_of(
    st.builds(FieldSpec.real_cyclotomic, st.integers(1, 45)),
    st.builds(
        FieldSpec.max_p_subextension, st.integers(2, 250), st.sampled_from([3, 5, 7])
    ),
    st.sampled_from([(7, 3), (13, 3), (31, 3), (11, 5), (31, 5), (29, 7), (23, 11)]).map(
        lambda args: FieldSpec.prime_cyclic_subfield(*args)
    ),
    # 8 | m reaches the q = 2, nu >= 3 branch; m = 401 has degree 200
    st.builds(FieldSpec.real_cyclotomic, st.sampled_from([40, 48, 80, 120, 401])),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(W_SPECS, st.integers(1, 12))
@example(FieldSpec.real_cyclotomic(401), 2)  # q = 401 = j*r + 1 contributes
@example(FieldSpec.real_cyclotomic(80), 8)  # 2^7 || w_8
def test_w_invariant_matches_brute_force(spec, j):
    assert w_invariant(spec, j) == brute_w_invariant(spec, j)


@pytest.mark.parametrize("m", [4620, 15015])
def test_w_invariant_walks_no_units(monkeypatch, m):
    # the Galois image is read off conductor counts, not off its elements
    spec = FieldSpec.real_cyclotomic(m)
    spec.characters
    calls = []
    transversal = lfun._transversal

    def counting_transversal(f):
        calls.append("transversal")
        return transversal(f)

    def counting_unit_group(n):
        calls.append("unit_group")
        return unit_group(n)

    monkeypatch.setattr(lfun, "_transversal", counting_transversal)
    monkeypatch.setattr(characters, "unit_group", counting_unit_group)
    w_invariant(spec, 2)
    assert calls == []


def test_k_order_builds_characters_per_orbit(monkeypatch):
    # the orbits are walked on exponent tuples; only their representatives
    # become characters (23 orbits against 504 characters at m = 1009)
    built = []
    post_init = DirichletCharacter.__post_init__

    def counting_post_init(chi):
        built.append(chi)
        post_init(chi)

    monkeypatch.setattr(DirichletCharacter, "__post_init__", counting_post_init)
    spec = FieldSpec.real_cyclotomic(1009)
    k_order(spec, 1, factor=False)
    assert len(spec.orbits) == 23
    assert len(built) <= len(spec.orbits) + 4


@pytest.mark.parametrize(
    "spec",
    [FieldSpec.real_cyclotomic(m) for m in (15, 20, 21, 24, 35, 39, 60)]
    + [FieldSpec.max_p_subextension(133, 3), FieldSpec.max_p_subextension(1247, 7)],
    ids=lambda spec: spec.describe(),
)
def test_explicit_spec_matches_its_source(spec):
    # FieldSpec.explicit checks closure under inverses and all n**2 products
    explicit = FieldSpec.explicit(spec.characters)
    assert explicit.degree == spec.degree
    assert explicit.conductor == spec.conductor
    order = k_order(spec, 1, factor=False).order
    assert k_order(explicit, 1, factor=False).order == order
    assert w_invariant(explicit, 2) == w_invariant(spec, 2)


def test_k_orders_of_the_integers():
    # classical orders of K_{2k}(Z): 2, 1, 2, 1, 2, 691 for k = 1,3,...,11
    q = FieldSpec.rationals()
    expected = {1: 2, 3: 1, 5: 2, 7: 1, 9: 2, 11: 691}
    for k, order in expected.items():
        report = k_order(q, k)
        assert report.order == order, k
    assert k_order(q, 11).factorization == ((691, 1),)


def test_k_order_report_consistency():
    spec = FieldSpec.real_cyclotomic(11)
    report = k_order(spec, 1)
    assert report.order == 160
    assert report.factorization == ((2, 5), (5, 1))
    assert report.w_invariant == 264
    assert report.zeta_value == zeta_value_negative(spec, 1)
    assert report.field is spec
    prod = 1
    for p, e in report.factorization:
        prod *= p**e
    assert prod == report.order
    skipped = k_order(spec, 1, factor=False)
    assert skipped.order == 160
    assert skipped.factorization is None
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.order = 1


def test_k_order_prime_cyclic_conductor_100003():
    # recorded while the bucket sums still took one discrete log per residue
    report = k_order(FieldSpec.prime_cyclic_subfield(100003, 3), 1)
    assert report.order == 3310934223800


def test_k_order_real_cyclotomic_conductor_1009():
    # recorded while orbit norms were still Collins resultants; the orbit of
    # order d = 504 takes its norm over four cyclic factors of (Z/504)^*
    order = k_order(FieldSpec.real_cyclotomic(1009), 1, factor=False).order
    assert order.bit_length() == 5375
    assert order % 10**12 == 764153344000
    digest = "bcbe5100fd7ec788542e4bf09daf0cb5dd9197e1ee91ff6e4582e4a82590e06e"
    assert hashlib.sha256(b"%x" % order).hexdigest() == digest


@pytest.mark.parametrize("m", [15015, 30030])
def test_k_order_real_cyclotomic_composite_pins(m):
    # recorded while the bucket sums still walked every unit of each
    # conductor; both moduli give the same field, as 15015 is odd
    order = k_order(FieldSpec.real_cyclotomic(m), 1, factor=False).order
    assert order.bit_length() == 36782
    digest = "89aa0403fe9e9a0d602a9c81a10f6361a2e79b7cffce84d262610fac2a14c058"
    assert hashlib.sha256(b"%x" % order).hexdigest() == digest


def test_k_order_input_validation():
    q = FieldSpec.rationals()
    with pytest.raises(ValueError):
        k_order(q, 2)
    with pytest.raises(ValueError):
        k_order(q, -1)
    with pytest.raises(ValueError):
        k_order(q, 0)
    # hand-built: FieldSpec.explicit would refuse the odd character mod 3
    odd_chi = DirichletCharacter(unit_group(3), (1,))
    odd = FieldSpec("explicit", explicit_chars=frozenset({odd_chi}))
    with pytest.raises(ValueError, match="field is not totally real"):
        k_order(odd, 1)
    with pytest.raises(ValueError, match="field is not totally real"):
        zeta_value_negative(odd, 1)


def test_constructed_specs_skip_the_parity_scan(monkeypatch):
    # the constructed kinds enumerate even exponent tuples; only a hand-built
    # explicit spec can hold an odd character, and building its tuples scans
    # each character once
    chars = FieldSpec.prime_cyclic_subfield(4621, 5).characters
    calls = []
    monkeypatch.setattr(
        DirichletCharacter, "is_even", property(lambda chi: calls.append(chi) or True)
    )
    specs = [
        FieldSpec.real_cyclotomic(4620),
        FieldSpec.max_p_subextension(4620, 5),
        FieldSpec.prime_cyclic_subfield(4621, 5),
    ]
    for spec in specs:
        spec.orbits
        w_invariant(spec, 2)
    assert calls == []
    explicit = FieldSpec("explicit", explicit_chars=chars)
    explicit.orbits
    w_invariant(explicit, 2)
    assert len(chars) == 5
    assert sorted(calls, key=DirichletCharacter.sort_key) == sorted(
        chars, key=DirichletCharacter.sort_key
    )


def test_k_order_integrality_sweep():
    # the order formula must always produce a positive integer
    for m in (5, 7, 8, 9, 11, 12, 13, 15, 16, 19, 20, 23):
        spec = FieldSpec.real_cyclotomic(m)
        for k in (1, 3, 5):
            report = k_order(spec, k, factor=False)
            assert report.order >= 1, (m, k)


def test_periodicity_of_p_divisibility():
    # p | #K_{2k} depends only on k mod the zeta-adjoining degree
    cases = [(3, ell) for ell in (7, 13, 31)] + [(5, ell) for ell in (11, 31, 41)]
    for p, ell in cases:
        spec = FieldSpec.prime_cyclic_subfield(ell, p)
        for k in (1, 3, 5):
            a = k_order(spec, k, factor=False).order % p == 0
            b = k_order(spec, k + p - 1, factor=False).order % p == 0
            assert a == b, (p, ell, k)


def test_s_profile():
    prof = s_profile(19, 3)
    assert prof.s == ((2, 1),)
    assert prof.theta == 2
    assert prof.s_j(1) == 0 and prof.s_j(2) == 1
    assert prof.total() == 1

    prof = s_profile(133, 3)
    assert prof.s == ((1, 1), (2, 1))
    assert prof.theta == 2

    prof = s_profile(88537, 7)  # 29 * 43 * 71, all exactly 1 mod 7
    assert prof.s == ((1, 3),)
    assert prof.theta == 1

    prof = s_profile(8, 3)
    assert prof.s == ()
    assert prof.theta == 0

    with pytest.raises(ValueError):
        s_profile(1, 3)
    with pytest.raises(ValueError):
        s_profile(10, 2)


def test_lower_bound_exponent_examples():
    assert lower_bound_exponent(3, 1, 19) == 2
    assert lower_bound_exponent(5, 1, 11) == 1
    assert lower_bound_exponent(5, 3, 11) == 0
    assert lower_bound_exponent(7, 3, 29) == 1
    assert lower_bound_exponent(3, 1, 133) == 6
    assert lower_bound_exponent(7, 1, 29 * 43) == 8
    assert lower_bound_exponent(7, 1, 29 * 43 * 71) == 57
    assert lower_bound_exponent(7, 3, 29 * 43 * 71) == 57
    assert lower_bound_exponent(5, 1, 11 * 31 * 41 * 61 * 71) == 781
    assert lower_bound_exponent(3, 1, 8) == 0
    with pytest.raises(ValueError):
        lower_bound_exponent(3, 3, 19)  # p < k + 2
    with pytest.raises(ValueError):
        lower_bound_exponent(5, 2, 11)
    with pytest.raises(ValueError):
        lower_bound_exponent(4, 1, 19)


def test_lower_bound_meets_actual_valuations():
    assert valuation(k_order(FieldSpec.real_cyclotomic(19), 1, factor=False).order, 3) == 2
    assert valuation(k_order(FieldSpec.real_cyclotomic(11), 1, factor=False).order, 5) == 1
    assert valuation(k_order(FieldSpec.real_cyclotomic(11), 3, factor=False).order, 5) == 0


def test_degree_adjoin_zeta():
    assert degree_adjoin_zeta("plus", 7, 3) == 2
    assert degree_adjoin_zeta("plus", 21, 3) == 2
    assert degree_adjoin_zeta("full", 21, 3) == 1
    assert degree_adjoin_zeta("full", 11, 5) == 4
    assert degree_adjoin_zeta("plus", 11, 5) == 4
    with pytest.raises(ValueError):
        degree_adjoin_zeta("real", 7, 3)
    with pytest.raises(ValueError):
        degree_adjoin_zeta("plus", 7, 2)


def test_browkin_divisible():
    assert not browkin_divisible(3, 7)
    assert browkin_divisible(3, 19)
    assert browkin_divisible(5, 101)
    assert not browkin_divisible(5, 31)
    assert not browkin_divisible(7, 29)
    assert browkin_divisible(7, 197)  # 196 = 4 * 7^2
    with pytest.raises(ValueError):
        browkin_divisible(5, 32)
    with pytest.raises(ValueError):
        browkin_divisible(5, 13)  # 13 is not 1 mod 5
    with pytest.raises(ValueError):
        browkin_divisible(2, 5)


def test_verdict_divisible():
    v = divisibility_verdict(5, 11, 1)
    assert v.status == "GuaranteedDivisible"
    assert v.exponent_lower_bound == 1
    assert "bernoulli-product-lower-bound" in v.justification

    v = divisibility_verdict(7, 88537, 1)
    assert v.status == "GuaranteedDivisible"
    assert v.exponent_lower_bound == 57

    v = divisibility_verdict(7, 88537, 3)
    assert v.status == "GuaranteedDivisible"
    assert v.exponent_lower_bound == 57

    v = divisibility_verdict(3, 19, 1)
    assert v.status == "GuaranteedDivisible"
    assert v.exponent_lower_bound == 2


def test_verdict_periodicity_shift():
    # k = 9 is 1 mod 4, so the k0 = 1 result transports with bound 1
    v = divisibility_verdict(5, 11, 9)
    assert v.status == "GuaranteedDivisible"
    assert v.exponent_lower_bound == 1
    assert "p-rank-periodicity" in v.justification
    assert "higher-k-divisibility" in v.justification


def test_verdict_not_divisible():
    v = divisibility_verdict(5, 11, 3)
    assert v.status == "GuaranteedNotDivisible"
    assert v.exponent_lower_bound is None
    assert v.justification == ("prime-conductor-criterion",)

    # m = 7 = 2*3 + 1: no k is ever divisible by 3
    for k in (1, 3, 5, 7, 9):
        v = divisibility_verdict(3, 7, k)
        assert v.status == "GuaranteedNotDivisible", k

    v = divisibility_verdict(5, 11, 7)
    assert v.status == "GuaranteedNotDivisible"
    assert "p-rank-periodicity" in v.justification


def test_verdict_unknown():
    assert divisibility_verdict(3, 8, 1).status == "Unknown"
    assert divisibility_verdict(3, 13, 1).status == "Unknown"
    assert divisibility_verdict(3, 13, 3).status == "Unknown"
    # full cyclotomic variant changes the period
    v = divisibility_verdict(3, 7, 1, variant="full")
    assert v.status in ("GuaranteedNotDivisible", "Unknown")


def test_verdict_agrees_with_computed_orders():
    # spot check the verdicts against the actual orders
    table = [
        (5, 11, 1, True),
        (5, 11, 3, False),
        (3, 7, 1, False),
        (3, 7, 3, False),
        (3, 19, 1, True),
        (3, 19, 3, True),
    ]
    for p, m, k, divisible in table:
        order = k_order(FieldSpec.real_cyclotomic(m), k, factor=False).order
        assert (order % p == 0) == divisible, (p, m, k)
        v = divisibility_verdict(p, m, k)
        if v.status == "GuaranteedDivisible":
            assert divisible
            assert order % p**v.exponent_lower_bound == 0
        elif v.status == "GuaranteedNotDivisible":
            assert not divisible


def test_verdict_input_validation():
    with pytest.raises(ValueError):
        divisibility_verdict(2, 11, 1)
    with pytest.raises(ValueError):
        divisibility_verdict(5, 11, 2)
    with pytest.raises(ValueError):
        divisibility_verdict(5, 1, 1)
    with pytest.raises(ValueError):
        divisibility_verdict(5, 11, 1, variant="imaginary")


def test_browkin_density():
    rep = browkin_density(3, 100)
    assert rep.n_p == 11
    assert rep.n_p2 == 3
    assert rep.ratio == Fraction(3, 11)
    rep = browkin_density(5, 100)
    assert rep.n_p == 5
    assert rep.n_p2 == 0
    assert rep.ratio == 0
    with pytest.raises(ValueError):
        browkin_density(3, 9)
    with pytest.raises(ValueError):
        browkin_density(4, 100)
    with pytest.raises(ValueError, match="at most"):
        browkin_density(3, 10**9 + 1)


# (n_p, n_p2) at x = 10**7, 2 to 7 segments of the counting sieve
DENSITY_PINS_1E7 = {
    3: (332194, 110772),
    5: (166104, 33155),
    7: (110653, 15836),
    11: (66386, 6045),
    13: (55376, 4241),
}


@pytest.mark.parametrize("p", sorted(DENSITY_PINS_1E7))
def test_browkin_density_pins_at_1e7(p):
    rep = browkin_density(p, 10**7)
    assert (rep.n_p, rep.n_p2) == DENSITY_PINS_1E7[p]


def test_computation_error_is_runtime_error():
    assert issubclass(ComputationError, RuntimeError)


@pytest.mark.parametrize("w", [1, 22])
def test_order_formula_rejects_a_non_integral_value(monkeypatch, w):
    # w in place of w_2 = 168 leaves (-1)^3 * w * zeta = w/21 for
    # Q(zeta_7)^+; 22/21 is positive, with integer part 1
    monkeypatch.setattr(ktheory, "w_invariant", lambda spec, j: w)
    with pytest.raises(ComputationError) as info:
        k_order(FieldSpec.real_cyclotomic(7), 1)
    assert str(info.value) == (
        "order formula gave a non-positive or non-integral value %d/21 "
        "(field Q(zeta_7)^+, k=1, w=%d, zeta=-1/21)" % (w, w)
    )


def test_order_formula_rejects_a_negative_value(monkeypatch):
    # the negated zeta value turns the order 8 of K_2 of Q(zeta_7)^+ into -8
    zeta = ktheory.zeta_value_negative
    monkeypatch.setattr(ktheory, "zeta_value_negative", lambda spec, k: -zeta(spec, k))
    with pytest.raises(ComputationError, match=r"value -8 \(field Q\(zeta_7\)\^\+, k=1, w=168, zeta=1/21\)"):
        k_order(FieldSpec.real_cyclotomic(7), 1)
