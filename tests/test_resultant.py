"""Differential tests of the multi-modular resultant against the Bareiss
fraction-free determinant of the Sylvester matrix, kept here as the oracle,
and of the orbit norms of `lfun` against both and against the doubling chain
of products in Z[x]/(x^d - 1) in `oracles`."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kzeta import lfun
from kzeta.arith import Poly, cyclotomic_polynomial_any, is_prime, resultant
from kzeta.arith.poly import _crt_primes
from kzeta.characters import FieldSpec, unit_group

from oracles import orbit_norm_doubling

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
FIRST_CRT_PRIMES = list(itertools.islice(_crt_primes(), 3))


def sylvester_matrix(f: Poly, g: Poly) -> list[list[int]]:
    n, m = f.degree, g.degree
    size = n + m
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    rows = [[0] * i + fc + [0] * (size - n - 1 - i) for i in range(m)]
    rows += [[0] * i + gc + [0] * (size - m - 1 - i) for i in range(n)]
    return rows


def bareiss_det(a: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def oracle_resultant(f: Poly, g: Poly) -> int:
    n, m = f.degree, g.degree
    if n < 0 or m < 0:
        return 0
    if n == 0:
        return f.coeffs[0] ** m
    if m == 0:
        return g.coeffs[0] ** n
    return bareiss_det(sylvester_matrix(f, g))


coefficients = st.one_of(
    st.integers(-8, 8),
    st.integers(-(2**64), 2**64),
    st.integers(-(2**200), 2**200),
)
polys = st.lists(coefficients, max_size=8).map(Poly)
nonzero = st.integers(-(2**80), 2**80).filter(bool)


def with_lead(lead):
    return st.lists(coefficients, max_size=7).map(lambda body: Poly(body + [lead]))


@SETTINGS
@given(polys, polys)
def test_matches_oracle(f, g):
    # includes zero and constant polynomials on either side
    assert resultant(f, g) == oracle_resultant(f, g)


@SETTINGS
@given(nonzero.filter(lambda c: c != 1).flatmap(with_lead), polys)
def test_matches_oracle_non_monic(f, g):
    assert resultant(f, g) == oracle_resultant(f, g)


@SETTINGS
@given(with_lead(1), st.lists(coefficients, min_size=1, max_size=14).map(Poly))
def test_matches_oracle_monic_reduction(f, g):
    assert resultant(f, g) == oracle_resultant(f, g)


@SETTINGS
@given(
    st.lists(st.sampled_from([2, 3, 6] + FIRST_CRT_PRIMES), min_size=1, max_size=4),
    nonzero,
    nonzero,
    st.data(),
)
def test_matches_oracle_shared_leading_factors(shared, a, b, data):
    # lc(f) and lc(g) share a factor, often a CRT prime that must be skipped
    s = 1
    for q in shared:
        s *= q
    f = data.draw(with_lead(s * a))
    g = data.draw(with_lead(s * b))
    assert resultant(f, g) == oracle_resultant(f, g)


def test_skips_primes_dividing_leading_coefficients():
    p = FIRST_CRT_PRIMES[0]
    # Res(a x + b, c x + d) = a d - b c
    assert resultant(Poly([1, p]), Poly([-1, p])) == -2 * p
    assert resultant(Poly([1, p * p]), Poly([-1, 3 * p])) == -p * p - 3 * p


@pytest.mark.parametrize("bits", [1, 60, 61, 100, 300])
def test_hadamard_bound_attained(bits):
    # For these linear pairs |Res| equals the Hadamard bound exactly, so the
    # CRT modulus must pass twice the bound before the value is determined.
    a, b = 2**bits, 2**bits - 1
    f, g = Poly([-b, -a]), Poly([a, -b])
    assert resultant(f, g) == -(a * a + b * b) == oracle_resultant(f, g)
    assert resultant(g, f) == a * a + b * b


def test_rejects_non_integer_coefficients():
    with pytest.raises(TypeError):
        resultant(Poly([Fraction(1, 2), 1]), Poly([1, 1]))
    with pytest.raises(TypeError):
        resultant(Poly([1, 1]), Poly([1, Fraction(3, 2)]))
    with pytest.raises(TypeError):
        resultant(Poly([1, 0, 1]), Poly([Fraction(2, 1)]))


def test_crt_primes():
    primes = list(itertools.islice(_crt_primes(), 5))
    assert primes == sorted(set(primes), reverse=True)
    assert all(p < 2**61 and is_prime(p) for p in primes)
    assert primes[0] == 2**61 - 1


@pytest.mark.parametrize("k", [1, 3])
def test_orbit_norms_match_oracle(k, monkeypatch):
    # every (d, P) pair zeta_value_negative takes the norm of for Q(zeta_m)^+
    pairs = []
    orbit_norm = lfun._orbit_norm

    def recording(coeffs, d):
        pairs.append((coeffs, d))
        return orbit_norm(coeffs, d)

    monkeypatch.setattr(lfun, "_orbit_norm", recording)
    for m in range(3, 101):
        if is_prime(m):
            lfun.zeta_value_negative(FieldSpec.real_cyclotomic(m), k)
    assert len(pairs) > 50
    for coeffs, d in pairs:
        f, g = cyclotomic_polynomial_any(d), Poly(coeffs)
        assert orbit_norm(coeffs, d) == oracle_resultant(f, g), (d, coeffs)


def cyclic_reduce(g: Poly, d: int) -> list[int]:
    """The coefficients of g mod x^d - 1."""
    out = [0] * d
    for i, c in enumerate(g.coeffs):
        out[i % d] += c
    return out


ORBIT_DEGREES = [1, 2, 4, 8, 16, 9, 27, 12, 24, 60, 105, 120, 210]
orbit_degrees = st.one_of(st.sampled_from(ORBIT_DEGREES), st.integers(1, 300))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(orbit_degrees, st.sampled_from([1, 3, 16, 64, 200]), st.data())
def test_orbit_norm_matches_resultant(d, bits, data):
    # Signed coefficients of up to `bits` bits.  The Collins oracle takes
    # time ~ phi(d)**3 * bits, so large phi(d) gets narrower coefficients;
    # every d in ORBIT_DEGREES keeps 200 bits.
    phi = cyclotomic_polynomial_any(d).degree
    bits = min(bits, max(1, 25 * 10**6 // phi**3))
    coeff = st.integers(-(2**bits), 2**bits)
    coeffs = data.draw(st.lists(coeff, min_size=d, max_size=d))
    expected = resultant(cyclotomic_polynomial_any(d), Poly(coeffs))
    assert lfun._orbit_norm(coeffs, d) == expected


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(orbit_degrees, st.lists(st.integers(-(2**200), 2**200), max_size=6), st.booleans())
def test_orbit_norm_vanishes_on_multiples_of_phi(d, q, zero):
    # P = Phi_d * Q, reduced mod x^d - 1, vanishes at zeta_d; so does P = 0
    g = Poly() if zero else cyclotomic_polynomial_any(d) * Poly(q)
    assert lfun._orbit_norm(cyclic_reduce(g, d), d) == 0
    assert resultant(cyclotomic_polynomial_any(d), g) == 0


def signed_digits(k):
    """Signed integers of up to k decimal digits, zero and one-digit values often."""
    return st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(10**k) + 1, 10**k - 1))


thirty_digits = signed_digits(30)
SEVERAL_GENERATORS = [24, 40, 120, 420, 1001]


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(st.sampled_from(SEVERAL_GENERATORS + [1, 2]), st.integers(1, 300)),
    st.data(),
)
def test_orbit_norm_matches_doubling_chain(d, data):
    # The doubling chain takes 44 s at d = 1001 with 30-digit coefficients
    # (one 2-vCPU x86 core, CPython 3.11), so coefficients get at most
    # 1500/phi(d) digits: 30 up to phi(d) = 50, 15 at d = 420, 2 at d = 1001.
    digits = min(30, max(1, 1500 // unit_group(d).phi))
    coeffs = data.draw(st.lists(signed_digits(digits), min_size=d, max_size=d))
    assert lfun._orbit_norm(coeffs, d) == orbit_norm_doubling(coeffs, d)


def test_slot_width_retries_until_the_bound_holds(monkeypatch):
    # 63 fits s = 8, but |N| may reach (300 * 300 * 63**2 / 80)**40, about
    # 2**885, while Phi_300(2**8) has about 8 * 80 = 640 bits.
    d, coeffs = 300, [63] * 150 + [-63] * 150
    tried = []
    value = lfun._cyclotomic_value

    def recording(d, y):
        tried.append(y.bit_length() - 1)
        return value(d, y)

    monkeypatch.setattr(lfun, "_cyclotomic_value", recording)
    assert lfun._slot_bits(coeffs, d, unit_group(d).phi) == (16, value(d, 2**16))
    assert tried == [8, 16]
    assert lfun._orbit_norm(coeffs, d) == orbit_norm_doubling(coeffs, d)


# At d = 23 (phi = 22) these two sums of squares, 58397 and 59009, put the
# Parseval bound 4 * (23 * sum c_i^2)^22 within 20% of Phi_23(2^8)^2 * 22^22,
# below it for the first and above it for the second, so s = 8 passes for the
# first and fails for the second.
NEAR_SLOT_EDGE = [
    ([63] * 14 + [53, 3, 3, 2] + [0] * 5, 8),
    ([63] * 14 + [57, 13, 5] + [0] * 6, 16),
]


@pytest.mark.parametrize("coeffs, want_s", NEAR_SLOT_EDGE)
def test_slot_width_is_decided_by_the_exact_value_near_the_edge(coeffs, want_s):
    d = len(coeffs)
    got = lfun._slot_bits(coeffs, d, unit_group(d).phi)
    assert got == (want_s, lfun._cyclotomic_value(d, 2**want_s))


# coefficient lists of every length in orbit_degrees, of 1 to 30 digits
coefficient_lists = st.tuples(orbit_degrees, st.sampled_from([1, 2, 3, 6, 10, 30])).flatmap(
    lambda dk: st.lists(signed_digits(dk[1]), min_size=dk[0], max_size=dk[0])
)


@SETTINGS
@given(coefficient_lists.filter(any))
@example([63] * 150 + [-63] * 150)
@example(NEAR_SLOT_EDGE[0][0])
@example(NEAR_SLOT_EDGE[1][0])
def test_slot_width_is_the_least_that_passes_the_parseval_check(coeffs):
    # s is the least multiple of 8 from the slot floor with
    # M^2 * phi^phi > 4 * (d * sum c_i^2)^phi, M = Phi_d(2^s)
    d = len(coeffs)
    phi = unit_group(d).phi
    floor = max(map(abs, coeffs)).bit_length() + 2
    bound = 4 * (d * sum(c * c for c in coeffs)) ** phi

    def passes(s):
        return lfun._cyclotomic_value(d, 2**s) ** 2 * phi**phi > bound

    s, modulus = lfun._slot_bits(coeffs, d, phi)
    assert s % 8 == 0 and s >= floor
    assert modulus == lfun._cyclotomic_value(d, 2**s)
    assert passes(s)
    assert s - 8 < floor or not passes(s - 8)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(orbit_degrees, thirty_digits.filter(bool), st.data())
def test_orbit_norm_of_a_monomial(d, c, data):
    # N(c * zeta^j) = c^phi * N(zeta)^j, and N(zeta_d) = 1 for d >= 3 (phi even)
    j = data.draw(st.integers(0, d - 1))
    coeffs = [0] * d
    coeffs[j] = c
    phi = unit_group(d).phi
    norm = lfun._orbit_norm(coeffs, d)
    assert abs(norm) == abs(c) ** phi
    if d >= 3:
        assert norm == c**phi


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(thirty_digits, thirty_digits)
@example(-(10**40), 0)
@example(1, 10**40)
def test_orbit_norm_negative_at_degree_one(c0, c1):
    # Q(zeta_d) is CM for d >= 3, so its norms are >= 0; only d = 1 and 2,
    # where N is P(1) or P(-1), can lift to a negative residue
    assert lfun._orbit_norm([c0], 1) == c0
    assert lfun._orbit_norm([c0, c1], 2) == c0 - c1


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(orbit_degrees.filter(lambda d: d >= 2), thirty_digits.filter(bool))
def test_orbit_norm_vanishes_with_every_coefficient_equal(d, c):
    # c * (1 + x + ... + x^(d-1)) vanishes at every d-th root of unity but 1
    assert lfun._orbit_norm([c] * d, d) == 0
