"""Tests for the exact arithmetic substrate: factoring, polynomials, and the
prime-power cyclotomic ring."""

import bisect
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kzeta.arith import (
    CyclotomicElement,
    CyclotomicLevel,
    CyclotomicRational,
    Poly,
    cyclotomic_polynomial_any,
    factorization_string,
    factorize,
    galois_apply,
    is_prime,
    primes_up_to,
    rational_part,
    resultant,
    valuation,
)
from kzeta.arith import factor
from kzeta.arith.factor import (
    _SEGMENT,
    _TRIAL_BLOCK,
    _count_primes_one_mod,
    _trial_block_table,
    small_primes,
)


def brute_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_small_range():
    for n in range(0, 2000):
        assert is_prime(n) == brute_is_prime(n), n


def test_is_prime_known_values():
    # Mersenne prime and primes just above 10**6 / below 10**9
    assert is_prime(2**61 - 1)
    assert is_prime(1000003)
    assert is_prime(1000033)
    assert is_prime(999999937)
    # Carmichael numbers and the classic strong-pseudoprime trap
    assert not is_prime(561)
    assert not is_prime(41041)
    assert not is_prime(3215031751)
    assert not is_prime(2**61 + 1)  # divisible by 3


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    ps = primes_up_to(10000)
    assert ps == [n for n in range(10001) if brute_is_prime(n)]


def test_small_primes_are_kept_for_the_process():
    ps = small_primes()
    assert len(ps) == 9592  # pi(10**5)
    assert ps[:5] == [2, 3, 5, 7, 11] and ps[-1] == 99991
    assert small_primes() is ps
    blocks = _trial_block_table()
    assert _trial_block_table() is blocks
    assert [p for _, block in blocks for p in block] == ps
    assert all(len(block) == _TRIAL_BLOCK for _, block in blocks[:-1])
    assert all(product == math.prod(block) for product, block in blocks)


# --- counting sieve against filtering the full sieve ---------------------------

COUNT_X_MAX = 3 * _SEGMENT + 1000
COUNT_ORACLE_PRIMES = primes_up_to(COUNT_X_MAX)


def count_oracle(x, moduli):
    ps = COUNT_ORACLE_PRIMES[: bisect.bisect_right(COUNT_ORACLE_PRIMES, x)]
    return tuple(sum(1 for ell in ps if (ell - 1) % q == 0) for q in moduli)


def full_segments(k):
    """The x whose numbers above isqrt(x) fill exactly k segments."""
    x = k * _SEGMENT
    for _ in range(4):
        x = k * _SEGMENT + math.isqrt(x)
    assert x - math.isqrt(x) == k * _SEGMENT
    return x


COUNT_PRIMES = (3, 5, 7, 11, 13)
# squares of base primes: the first ones, and those near the segment edges
SQUARE_ROOTS = (2, 3, 5, 7, 11, 13, 509, 521, 719, 727, 883)
SPECIAL_X = sorted(
    {_SEGMENT + d for d in (-1, 0, 1)}
    | {2 * _SEGMENT, full_segments(1), full_segments(1) + 1, full_segments(2)}
    | {ell * ell + d for ell in SQUARE_ROOTS for d in (-1, 0, 1)}
)


def test_counting_sieve_special_points():
    for p in COUNT_PRIMES:
        for x in [0, 1, 2, p * p + 1] + SPECIAL_X:
            # q = 1 counts every prime, so that a prime lost at a segment edge shows
            moduli = (1, p, p * p)
            assert _count_primes_one_mod(x, moduli) == count_oracle(x, moduli), (p, x)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(COUNT_PRIMES), st.integers(0, COUNT_X_MAX))
def test_counting_sieve_matches_full_sieve(p, x):
    moduli = (1, p, p * p)
    assert _count_primes_one_mod(x, moduli) == count_oracle(x, moduli)


# --- block trial division against plain trial division -------------------------


def naive_factorize(n):
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return sorted(factors.items())


def _edge_primes():
    """The last and first primes of neighbouring blocks, and primes around the
    trial bound."""
    ps = small_primes()
    ends = (b * _TRIAL_BLOCK + d for b in (1, 2, 75, len(ps) // _TRIAL_BLOCK) for d in (-1, 0))
    return sorted({ps[i] for i in ends} | {2, 3, 5, 7, 97, 99989, 99991, 100003, 100019})


EDGE_PRIMES = _edge_primes()
BLOCK_FIRSTS = [block[0] for _, block in _trial_block_table()[:4]] + [
    _trial_block_table()[-1][1][0]
]


@st.composite
def trial_inputs(draw):
    n = math.prod(draw(st.lists(st.sampled_from(EDGE_PRIMES), max_size=4)))
    q = draw(st.sampled_from(BLOCK_FIRSTS))
    # a cofactor at or just above the square of a block's first prime q
    cofactor = draw(st.sampled_from([1, q * q, q * (q + 2), q * q + 2, q * q + 4]))
    return n * cofactor


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(trial_inputs(), st.integers(1, 10**9)))
@example(99989 * 99991)
@example(99991 * 100003)
@example(100003**2)
@example(99991**2 * 2)
def test_factorize_matches_plain_trial_division(n):
    assert factorize(n) == naive_factorize(n)


def test_factorize_known():
    assert factorize(1) == []
    assert factorize(2244096) == [(2, 9), (3, 2), (487, 1)]
    assert factorize(142490119) == [(142490119, 1)]
    assert factorize(580922038681600) == [(2, 17), (5, 2), (7, 1), (11, 1), (2302381, 1)]


def test_factorize_needs_rho():
    # both factors exceed the trial division cutoff
    n = 1000003 * 1000033
    assert factorize(n) == [(1000003, 1), (1000033, 1)]
    assert factorize(n, seed=12345) == [(1000003, 1), (1000033, 1)]


def counting_random(monkeypatch):
    """Count the random.Random objects that kzeta.arith.factor builds."""
    built = []

    class Counting(random.Random):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(factor.random, "Random", Counting)
    return built


def test_factorize_builds_no_generator_below_trial_square(monkeypatch):
    # below 10**10 the cofactor left by trial division is 1 or prime
    rng = random.Random(11)
    samples = [1, 2, 97 * 99991, 99991**2 - 2, 9999999967, 9999999999]
    samples += [rng.randrange(2, 10**10) for _ in range(200)]
    built = counting_random(monkeypatch)
    for n in samples:
        factorize(n)
        factorize(n, seed=5)
    assert built == []


def test_factorize_builds_its_generator_once(monkeypatch):
    p, q = 1000003, 2**64 + 13
    assert is_prime(q)
    built = counting_random(monkeypatch)
    assert factorize(p * 1000033 * q, seed=3) == [(p, 1), (1000033, 1), (q, 1)]
    assert built == [(3,)]


def test_rho_splits_stats_semiprimes_before_its_cap():
    # products of two 6-digit primes, the semiprimes of the stats workload,
    # stay with rho: it needs at most 4094 steps on them, half of _RHO_CAP
    rng = random.Random(29)
    for _ in range(40):
        p = q = 1
        while not is_prime(p):
            p = rng.randrange(10**5, 10**6)
        while not is_prime(q) or q == p:
            q = rng.randrange(10**5, 10**6)
        assert factor._pollard_rho(p * q, random.Random(0xD1CE)) in (p, q)


def test_rho_gives_up_at_its_cap():
    p, q = 1222730300837, 10676097582233
    assert factor._pollard_rho(p * q, random.Random(0xD1CE)) is None


def test_ecm_curve_separates_primes_found_at_once():
    # with sigma 6, the whole stage-1 multiplier for b1 = 20000 kills the
    # point mod both primes; the gcd after each chunk splits them
    n = 1000003 * 1000033
    assert factor._ecm_curve(n, 6, 20000, 20000) == 1000033


@st.composite
def ecm_primes(draw):
    """2 or 3 distinct primes of 9 to 14 digits, from random starts."""
    primes = set()
    for _ in range(draw(st.integers(2, 3))):
        digits = draw(st.integers(9, 14))
        p = draw(st.integers(10 ** (digits - 1), 10**digits - 1)) | 1
        while not is_prime(p) or p in primes:
            p += 2
        primes.add(p)
    return sorted(primes)


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(ecm_primes())
def test_factorize_splits_products_of_large_primes(primes):
    # factors beyond rho's reach: the elliptic-curve stage splits them, and
    # the result does not depend on the seed
    n = math.prod(primes)
    for seed in range(4):
        assert factorize(n, seed=seed) == [(p, 1) for p in primes]


# Full factorizations of #K_14 of Q(zeta_17)^+ and #K_6 of Q(zeta_37)^+,
# checked once against sympy.factorint.
KORDER_FACTORS = {
    (17, 7): [(2, 3), (5, 1), (19, 1), (137, 1), (241, 1), (2753, 1), (78241, 1),
              (1576363, 1), (1222730300837, 1), (10676097582233, 1)],
    (37, 3): [(3, 2), (7, 1), (37, 1), (109, 1), (1129, 1), (18919, 1), (211153, 1),
              (433513, 1), (15091399, 1), (61486126381, 1), (1350582605839, 1)],
}


@pytest.mark.parametrize("m,k", sorted(KORDER_FACTORS))
def test_factorize_korder_pins(m, k):
    from kzeta.characters import FieldSpec
    from kzeta.ktheory import k_order

    order = k_order(FieldSpec.real_cyclotomic(m), k, factor=False).order
    want = KORDER_FACTORS[m, k]
    assert math.prod(p**e for p, e in want) == order
    assert factorize(order) == want


def test_factorize_round_trip():
    rng = random.Random(7)
    samples = list(range(2, 400)) + [rng.randrange(10**6, 10**12) for _ in range(25)]
    for n in samples:
        fac = factorize(n)
        prod = 1
        for p, e in fac:
            assert is_prime(p)
            assert e >= 1
            prod *= p**e
        assert prod == n
        assert [p for p, _ in fac] == sorted(p for p, _ in fac)


def test_factorization_string():
    assert factorization_string(factorize(1)) == "1"
    assert factorization_string(factorize(2244096)) == "2^9·3^2·487"
    assert factorization_string(factorize(79)) == "79"
    assert factorization_string(None) == ""


def test_valuation():
    assert valuation(160, 2) == 5
    assert valuation(160, 5) == 1
    assert valuation(7, 3) == 0
    assert valuation(3**12, 3) == 12
    with pytest.raises(ValueError):
        valuation(0, 3)


def test_poly_basics():
    x = Poly.x()
    assert ((x - 1) * (x + 1)).coeffs == (-1, 0, 1)
    assert (x**2 - 1) // (x - 1) == Poly((1, 1))
    assert Poly((1, 2)).evaluate(3) == 7
    assert Poly().degree == -1
    assert Poly().is_zero()
    assert Poly((0, 0)).is_zero()
    assert (x**3).degree == 3
    assert Poly((Fraction(1, 2), 1)).evaluate(Fraction(1, 2)) == 1
    assert Poly((1, Fraction(1, 3))).denominator_lcm() == 3


def test_poly_divmod_euclidean():
    rng = random.Random(11)
    for _ in range(50):
        f = Poly([Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(rng.randrange(1, 7))])
        g = Poly([Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(rng.randrange(1, 5))])
        if g.is_zero():
            continue
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree


def test_poly_int_division_exactness():
    x = Poly.x()
    with pytest.raises(ValueError):
        divmod(x**2 + 1, Poly((2, 2)))
    q, r = divmod(x**2 - 1, x - 1)
    assert q == Poly((1, 1)) and r.is_zero()


def test_cyclotomic_polynomials():
    x = Poly.x()
    assert cyclotomic_polynomial_any(1) == x - 1
    assert cyclotomic_polynomial_any(2) == x + 1
    assert cyclotomic_polynomial_any(3) == Poly((1, 1, 1))
    assert cyclotomic_polynomial_any(4) == x**2 + 1
    assert cyclotomic_polynomial_any(5) == Poly((1, 1, 1, 1, 1))
    assert cyclotomic_polynomial_any(6) == Poly((1, -1, 1))
    assert cyclotomic_polynomial_any(9) == x**6 + x**3 + 1
    assert cyclotomic_polynomial_any(12) == Poly((1, 0, -1, 0, 1))


def test_cyclotomic_product_identity():
    # prod over d | n of Phi_d equals x**n - 1
    x = Poly.x()
    for n in range(1, 31):
        prod = Poly((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_polynomial_any(d)
        assert prod == x**n - 1, n


def sylvester_det(f, g):
    # independent resultant: fraction-based Gaussian elimination on the
    # Sylvester matrix of f and g
    m, n = f.degree, g.degree
    size = m + n
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    rows = []
    for i in range(n):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in fc] + [Fraction(0)] * (n - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in gc] + [Fraction(0)] * (m - 1 - i))
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col]:
                factor = rows[r][col] * inv
                for c in range(col, size):
                    rows[r][c] -= factor * rows[col][c]
    assert det.denominator == 1
    return int(det)


def test_resultant_against_sylvester_determinant():
    rng = random.Random(23)
    for _ in range(60):
        f = Poly([rng.randrange(-10, 11) for _ in range(rng.randrange(2, 7))])
        g = Poly([rng.randrange(-10, 11) for _ in range(rng.randrange(2, 6))])
        if f.degree < 1 or g.degree < 1:
            continue
        assert resultant(f, g) == sylvester_det(f, g)


def test_resultant_known_values():
    x = Poly.x()
    assert resultant(x**2 + 1, x**2 - 2) == 9
    # Res(Phi_p, x - 1) = Phi_p(1) = p for monic Phi_p
    for p in (3, 5, 7, 11):
        assert resultant(cyclotomic_polynomial_any(p), x - 1) == p
    # multiplicativity in the second argument
    f = x**3 + 2 * x - 1
    g = x**2 - 3
    h = x + 5
    assert resultant(f, g * h) == resultant(f, g) * resultant(f, h)


def test_level_validation():
    with pytest.raises(ValueError):
        CyclotomicLevel(4, 1)
    with pytest.raises(ValueError):
        CyclotomicLevel(3, 0)
    lv = CyclotomicLevel(3, 2)
    assert lv.modulus == 9
    assert lv.degree == 6


def test_element_reduction():
    lv = CyclotomicLevel(3, 1)
    # zeta**2 = -1 - zeta
    assert CyclotomicElement.zeta_power(lv, 2).coeffs == (-1, -1)
    assert CyclotomicElement.zeta_power(lv, 3).coeffs == (1, 0)
    assert CyclotomicElement.zeta_power(lv, -1).coeffs == (-1, -1)
    lv5 = CyclotomicLevel(5, 1)
    z = CyclotomicElement.zeta_power(lv5, 1)
    assert (z**5).coeffs == (1, 0, 0, 0)
    # 1 + zeta + ... + zeta**4 = 0
    total = CyclotomicElement.zero(lv5)
    for e in range(5):
        total = total + CyclotomicElement.zeta_power(lv5, e)
    assert total.is_zero()


def test_ramified_prime_factorization():
    # prod over a in (Z/p)^* of (1 - zeta**a) = p
    for p in (3, 5, 7):
        lv = CyclotomicLevel(p, 1)
        one = CyclotomicElement.integer(lv, 1)
        prod = one
        for a in range(1, p):
            prod = prod * (one - CyclotomicElement.zeta_power(lv, a))
        assert prod.is_rational()
        assert prod.coeffs[0] == p


def test_galois_apply():
    lv = CyclotomicLevel(7, 1)
    phi = cyclotomic_polynomial_any(lv.modulus)

    def element_norm(x):
        return sylvester_det(phi, Poly(x.coeffs))

    rng = random.Random(3)
    x = CyclotomicElement.make(lv, [rng.randrange(-4, 5) for _ in range(6)])
    y = CyclotomicElement.make(lv, [rng.randrange(-4, 5) for _ in range(6)])
    for a in (2, 3, 5):
        assert galois_apply(x * y, a) == galois_apply(x, a) * galois_apply(y, a)
        assert element_norm(galois_apply(x, a)) == element_norm(x)
    with pytest.raises(ValueError):
        galois_apply(x, 7)


def test_level_mismatch_raises():
    a = CyclotomicElement.integer(CyclotomicLevel(3, 1), 1)
    b = CyclotomicElement.integer(CyclotomicLevel(5, 1), 1)
    with pytest.raises(ValueError):
        a + b


def test_cyclotomic_rational_normalization():
    lv = CyclotomicLevel(3, 1)
    x = CyclotomicRational.make(CyclotomicElement.make(lv, (2, 4)), -6)
    assert x.denominator == 3
    assert x.numerator.coeffs == (-1, -2)
    with pytest.raises(ZeroDivisionError):
        CyclotomicRational.make(CyclotomicElement.integer(lv, 1), 0)


def test_cyclotomic_rational_arithmetic_tracks_fractions():
    lv = CyclotomicLevel(5, 1)
    rng = random.Random(17)
    for _ in range(20):
        qa = Fraction(rng.randrange(-20, 21), rng.randrange(1, 9))
        qb = Fraction(rng.randrange(-20, 21), rng.randrange(1, 9))
        a = CyclotomicRational.from_rational(lv, qa)
        b = CyclotomicRational.from_rational(lv, qb)
        assert rational_part(a + b) == qa + qb
        assert rational_part(a - b) == qa - qb
        assert rational_part(a * b) == qa * qb
        assert rational_part(a.scale_rational(qb)) == qa * qb


def test_rational_part_rejects_irrational():
    lv = CyclotomicLevel(3, 1)
    x = CyclotomicRational.make(CyclotomicElement.make(lv, (1, 1)), 2)
    with pytest.raises(ValueError):
        rational_part(x)
