"""Differential tests of the multi-modular resultant against the Bareiss
fraction-free determinant of the Sylvester matrix, kept here as the oracle,
and of the orbit norms of `lfun` against both."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kzeta import lfun
from kzeta.arith import Poly, cyclotomic_polynomial_any, is_prime, resultant
from kzeta.arith.poly import _crt_primes
from kzeta.characters import FieldSpec

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
