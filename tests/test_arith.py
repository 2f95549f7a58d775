"""Tests for the exact arithmetic substrate: factoring, polynomials, and the
values in prime-power cyclotomic fields."""

import bisect
import functools
import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kzeta.arith import (
    CyclotomicElement,
    CyclotomicLevel,
    CyclotomicRational,
    Poly,
    cyclotomic_polynomial_any,
    factorization_string,
    factorize,
    is_prime,
    primes_up_to,
    rational_part,
    resultant,
    valuation,
)
from kzeta.arith import factor
from kzeta.arith.factor import (
    _PM1_B1,
    _PM1_B2,
    _SEGMENT,
    _TRIAL_BLOCK,
    _TRIAL_BOUND,
    _count_ones,
    _count_primes_one_mod,
    _trial_block_table,
    small_primes,
)
from oracles import is_prime_all_witnesses


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


# The least strong pseudoprime to the witnesses of each tier of is_prime but
# the last: the bound of that tier, where the next one, with more witnesses,
# takes over.
STRONG_PSEUDOPRIMES = (
    2047,
    1373653,
    25326001,
    4759123141,
    1122004669633,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
)


def test_is_prime_rejects_each_tiers_least_strong_pseudoprime():
    for (bound, bases), n in zip(factor._WITNESS_TIERS, STRONG_PSEUDOPRIMES):
        assert bound == n
        r = ((n - 1) & (1 - n)).bit_length() - 1
        d = (n - 1) >> r
        # the tier's own witnesses let n through, so the tier must end below it
        assert not any(factor._miller_rabin_witness(n, a, d, r) for a in bases)
        assert not is_prime(n)
        assert not is_prime_all_witnesses(n)


def _next_prime(n):
    while not is_prime_all_witnesses(n):
        n += 1
    return n


@st.composite
def word_size_numbers(draw):
    """n < 2**64: uniform, small, near a tier bound, prime, or a product of
    two primes."""
    shape = draw(st.sampled_from(["uniform", "small", "tier", "prime", "semiprime"]))
    if shape == "uniform":
        return draw(st.integers(0, 2**64 - 1))
    if shape == "small":
        return draw(st.integers(0, 10**6))
    if shape == "tier":
        bound = draw(st.sampled_from([bound for bound, _ in factor._WITNESS_TIERS]))
        return bound + draw(st.integers(-1000, -1 if bound == 2**64 else 1000))
    if shape == "prime":
        return _next_prime(draw(st.integers(2, 2**64 - 10**4)))
    return _next_prime(draw(st.integers(2, 2**32 - 10**4))) * _next_prime(draw(st.integers(2, 2**31)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(word_size_numbers())
@example(2**64 - 59)  # the largest prime below 2**64
@example(3825123056546413051)
def test_is_prime_matches_twelve_witnesses_below_2_64(n):
    assert is_prime(n) == is_prime_all_witnesses(n)


# Jaeschke's bases take n from 25326001 to 1122004669633; the draws run on
# past the next two tier bounds, where the first primes take over again.
JAESCHKE_LOW, JAESCHKE_HIGH = 25 * 10**6, 35 * 10**11


@st.composite
def jaeschke_range_numbers(draw):
    """n in [JAESCHKE_LOW, JAESCHKE_HIGH]: prime, a product of two primes, or
    near a tier bound in the range."""
    shape = draw(st.sampled_from(["prime", "semiprime", "tier"]))
    if shape == "prime":
        return _next_prime(draw(st.integers(JAESCHKE_LOW, JAESCHKE_HIGH - 10**4)))
    if shape == "semiprime":
        p = _next_prime(draw(st.integers(41, 1_800_000)))
        return p * _next_prime(draw(st.integers(JAESCHKE_LOW // p, JAESCHKE_HIGH // p - 10**4)))
    bounds = [b for b, _ in factor._WITNESS_TIERS if JAESCHKE_LOW <= b <= JAESCHKE_HIGH]
    return draw(st.sampled_from(bounds)) + draw(st.integers(-1000, 1000))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(jaeschke_range_numbers())
@example(3215031751)  # the least strong pseudoprime to 2, 3, 5 and 7
@example(48781 * 97561)  # the first to 2, 7 and 61
@example(1122004669633)  # the first to 2, 13, 23 and 1662803
def test_is_prime_matches_twelve_witnesses_on_jaeschkes_tiers(n):
    assert is_prime(n) == is_prime_all_witnesses(n)


class RecordingRandom(random.Random):
    """A random.Random that records the arguments of each randrange."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = []

    def randrange(self, *args):
        self.calls.append(args)
        return super().randrange(*args)


def test_is_prime_draws_twenty_witnesses_above_2_64():
    for n in (2**64 + 13, 2**89 - 1):
        rng = RecordingRandom(5)
        assert is_prime(n, rng)
        assert rng.calls == [(2, n - 1)] * 20
    # a fixed witness exposes this composite before any draw
    rng = RecordingRandom(5)
    assert not is_prime((2**64 + 13) * 1000003, rng)
    assert rng.calls == []


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
# isqrt(1193717) = 1092 = 6 * 182, and 1 + 6 * 182 = 1093 is prime: the first
# number of the progression 1 (mod 6) above the listed primes is a prime
ROOT_EDGE_X = 1193717
COUNT_ORACLE_PRIMES = primes_up_to(ROOT_EDGE_X)


@functools.cache
def _oracle_class(q):
    return [ell for ell in COUNT_ORACLE_PRIMES if (ell - 1) % q == 0]


def count_oracle(x, moduli):
    assert x <= ROOT_EDGE_X
    return tuple(bisect.bisect_right(_oracle_class(q), x) for q in moduli)


def full_segments(k):
    """The x whose odd numbers above isqrt(x), the progression that the
    moduli (1, p, p*p) sieve, fill exactly k segments."""
    x = 2 * k * _SEGMENT
    for _ in range(4):
        x = 2 * ((math.isqrt(x) - 1) // 2 + k * _SEGMENT) + 1
    assert (x - 1) // 2 - (math.isqrt(x) - 1) // 2 == k * _SEGMENT
    return x


def root_edges(p):
    """x whose isqrt is a multiple r of 2p with r + 1 prime, so that the
    first number of the progression 1 (mod 2p) above isqrt(x) is a prime."""
    roots = [r for r in range(2 * p, math.isqrt(COUNT_X_MAX) + 1, 2 * p) if brute_is_prime(r + 1)]
    return [r * r + d for r in roots[:2] + roots[-2:] for d in (0, r + 1, 2 * r)]


def moduli_of(p):
    # (p, p*p) as browkin_density asks, sieving 1 (mod 2p); with q = 1 the
    # progression is every odd number, so a prime lost at a segment edge shows
    return ((p, p * p), (1, p, p * p))


COUNT_PRIMES = (3, 5, 7, 11, 13)
# squares of base primes: the first ones, and those near the segment edges
SQUARE_ROOTS = (2, 3, 5, 7, 11, 13, 509, 521, 719, 727, 883)
SPECIAL_X = sorted(
    {_SEGMENT + d for d in (-1, 0, 1)}
    | {2 * _SEGMENT + d for d in (-1, 0, 1)}
    | {full_segments(1) + d for d in (-1, 0, 1, 2)}
    | {ell * ell + d for ell in SQUARE_ROOTS for d in (-1, 0, 1)}
)


def test_counting_sieve_special_points():
    for p in COUNT_PRIMES:
        for x in [0, 1, 2, 3, p * p + 1, ROOT_EDGE_X] + root_edges(p) + SPECIAL_X:
            for moduli in moduli_of(p):
                assert _count_primes_one_mod(x, moduli) == count_oracle(x, moduli), (p, x, moduli)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(COUNT_PRIMES), st.integers(0, COUNT_X_MAX))
def test_counting_sieve_matches_full_sieve(p, x):
    for moduli in moduli_of(p):
        assert _count_primes_one_mod(x, moduli) == count_oracle(x, moduli)


@pytest.mark.parametrize("segment", [1, 2, 3, 64])
def test_counting_sieve_small_segments(monkeypatch, segment):
    # segments of a few values of t put a segment edge at every small x
    monkeypatch.setattr(factor, "_SEGMENT", segment)
    xs = range(0, 400) if segment > 3 else range(0, 400, 7)
    for p in COUNT_PRIMES:
        for moduli in moduli_of(p) + ((2, 4), (3, 6)):
            for x in xs:
                assert _count_primes_one_mod(x, moduli) == count_oracle(x, moduli), (p, x, moduli)


# --- the survivor count of the sieve against bytes.count ---------------------------

# The longest run whose count of ones, plus 1, stays below Adler-32's modulus 65521.
ADLER_RUN = 65_519


@st.composite
def zero_one_buffers(draw):
    """A buffer of 0 and 1 bytes, as the sieve hands to _count_ones: a
    bytearray, a memoryview of one, or a strided copy of one."""
    n = draw(st.integers(0, 3 * ADLER_RUN + 7))
    ones = draw(st.integers(0, 256))  # a byte is 1 with chance ones/256
    rng = random.Random(draw(st.integers(0, 2**32)))
    buf = bytearray(rng.randbytes(n).translate(bytes(int(b < ones) for b in range(256))))
    form = draw(st.sampled_from(("bytearray", "memoryview", "strided")))
    if form == "memoryview":
        return memoryview(buf)
    if form == "strided":
        stride = draw(st.integers(2, 169))
        return buf[draw(st.integers(0, stride - 1)) :: stride]
    return buf


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(zero_one_buffers())
def test_count_ones_matches_count(buf):
    assert _count_ones(buf) == bytes(buf).count(1)


# lengths about one and two runs, and the empty and one-byte buffers
@pytest.mark.parametrize("n", [0, 1, 65_518, 65_519, 65_520, 131_038, 131_039, 131_040])
def test_count_ones_at_run_edges(n):
    # all ones is the largest sum a run can have
    assert _count_ones(bytearray([1]) * n) == n
    assert _count_ones((bytearray([1, 0]) * n)[:n]) == (n + 1) // 2


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


FIRST_BLOCK_END = _trial_block_table()[0][1][-1]  # 311: the walk always divides these out
MIDDLE_PRIMES = [q for q in small_primes() if q > FIRST_BLOCK_END]


@st.composite
def word_size_composites(draw):
    """Composites in [10**10, 2**64) of primes between the first trial block
    and the trial bound, perhaps with one prime of up to 9 digits and a few
    of the first block."""
    n = math.prod(draw(st.lists(st.sampled_from(MIDDLE_PRIMES), min_size=2, max_size=4)))
    if draw(st.booleans()):
        n *= _next_prime(draw(st.integers(10**5, 10**9)))
    n *= draw(st.sampled_from([1, 2, 3, 2 * 3 * 5 * 7, FIRST_BLOCK_END]))
    assume(10**10 <= n < 2**64)
    return n


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(word_size_composites())
@example(99991**2 * 3)
@example(313**5)
@example(99989**3)
@example(100003**2 * 313)
@example(317 * 331 * 99991 * 99989)
def test_factorize_word_size_composites(n):
    # the walk leaves composites from 10**10 up to rho, with primes below
    # the trial bound still in them
    assert factorize(n) == naive_factorize(n)


def test_trial_walk_stops_at_a_settled_word_size_cofactor(monkeypatch):
    tested, walked = [], []

    def recording(n, rng=None):
        tested.append(n)
        return is_prime(n, rng)

    def counting_blocks():
        for entry in _trial_block_table():
            walked.append(entry)
            yield entry

    monkeypatch.setattr(factor, "is_prime", recording)
    monkeypatch.setattr(factor, "_trial_block_table", counting_blocks)
    # a prime cofactor is recorded at the second block, and tested once
    assert factorize(37 * 9999999967) == [(37, 1), (9999999967, 1)]
    assert len(walked) == 2 and tested == [9999999967]
    # a composite of at least 10**10 goes to rho there, and is not tested again
    tested.clear()
    walked.clear()
    assert factorize(100019 * 999983) == [(100019, 1), (999983, 1)]
    assert len(walked) == 2 and sorted(tested) == [100019, 999983, 100019 * 999983]


def test_factorize_near_2_64():
    # trial division to 2**32 is out of reach, so each factorization is
    # checked by its product and by the twelve witnesses below 2**64;
    # 2**64 - 1 and 2**64 + 1 (Landry's factor of F6) are known literally
    for n in range(2**64 - 40, 2**64 + 41):
        fac = factorize(n)
        assert math.prod(p**e for p, e in fac) == n
        assert all(is_prime_all_witnesses(p) if p < 2**64 else is_prime(p) for p, _ in fac)
    assert factorize(2**64 - 1) == [(3, 1), (5, 1), (17, 1), (257, 1), (641, 1), (65537, 1),
                                    (6700417, 1)]
    assert factorize(2**64 + 1) == [(274177, 1), (67280421310721, 1)]
    assert factorize(2**64 - 59) == [(2**64 - 59, 1)]


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


def recording_pminus1(patch):
    """Record the arguments of _pminus1, and empty its stage-2 table for the
    test; patch is a pytest MonkeyPatch."""
    calls = []
    pminus1 = factor._pminus1

    def recording(n):
        calls.append(n)
        return pminus1(n)

    patch.setattr(factor, "_pminus1", recording)
    patch.setattr(factor, "_pm1_stage2", None)
    return calls


def test_factorize_builds_no_generator_below_trial_square(monkeypatch):
    # below 10**10 the cofactor left by trial division is 1 or prime, so
    # neither rho nor p - 1 runs
    rng = random.Random(11)
    samples = [1, 2, 97 * 99991, 99991**2 - 2, 9999999967, 9999999999]
    samples += [rng.randrange(2, 10**10) for _ in range(200)]
    built = counting_random(monkeypatch)
    calls = recording_pminus1(monkeypatch)
    for n in samples:
        factorize(n)
        factorize(n, seed=5)
    assert built == []
    assert calls == [] and factor._pm1_stage2 is None


def test_factorize_builds_its_generator_once(monkeypatch):
    p, q = 1000003, 2**64 + 13
    assert is_prime(q)
    built = counting_random(monkeypatch)
    assert factorize(p * 1000033 * q, seed=3) == [(p, 1), (1000033, 1), (q, 1)]
    assert built == [(3,)]


def test_rho_splits_stats_semiprimes_before_its_cap(monkeypatch):
    # products of two 6-digit primes, the semiprimes of the stats workload,
    # stay with rho: it needs at most 4094 steps on them, half of _RHO_CAP,
    # and factorize neither tries p - 1 on them nor builds its table
    calls = recording_pminus1(monkeypatch)
    rng = random.Random(29)
    for _ in range(40):
        p = q = 1
        while not is_prime(p):
            p = rng.randrange(10**5, 10**6)
        while not is_prime(q) or q == p:
            q = rng.randrange(10**5, 10**6)
        assert factor._pollard_rho(p * q, random.Random(0xD1CE)) in (p, q)
        assert factorize(p * q) == sorted([(p, 1), (q, 1)])
    assert calls == [] and factor._pm1_stage2 is None


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


# Full factorizations of #K_14 of Q(zeta_17)^+, #K_10 of Q(zeta_23)^+ and of
# Q(zeta_37)^+, and #K_6 of Q(zeta_37)^+ and of Q(zeta_43)^+, checked once
# against sympy.factorint.
KORDER_FACTORS = {
    (17, 7): [(2, 3), (5, 1), (19, 1), (137, 1), (241, 1), (2753, 1), (78241, 1),
              (1576363, 1), (1222730300837, 1), (10676097582233, 1)],
    (23, 5): [(2, 11), (11, 1), (16673514445457, 1), (77071163692043863104779051635544803, 1)],
    (37, 3): [(3, 2), (7, 1), (37, 1), (109, 1), (1129, 1), (18919, 1), (211153, 1),
              (433513, 1), (15091399, 1), (61486126381, 1), (1350582605839, 1)],
    (37, 5): [(2, 18), (3, 2), (5, 1), (7, 4), (37, 1), (109, 1), (1801, 1), (10369, 1),
              (12703, 1), (23173, 1), (25471, 1), (171469, 1), (1266233977, 1),
              (1999303573, 1), (2034277813, 1), (62454092545027, 1),
              (391167337077830824164954037, 1)],
    (43, 3): [(2, 2), (7, 1), (127, 1), (421, 1), (2683, 1), (13217, 1), (15847847, 1),
              (41317907, 1), (425451623609083, 1), (3024007534903419166845163, 1)],
}


def korder_order(m, k):
    from kzeta.characters import FieldSpec
    from kzeta.ktheory import k_order

    return k_order(FieldSpec.real_cyclotomic(m), k, factor=False).order


@pytest.mark.parametrize("m,k", sorted(KORDER_FACTORS))
def test_factorize_korder_pins(m, k):
    order = korder_order(m, k)
    want = KORDER_FACTORS[m, k]
    assert math.prod(p**e for p, e in want) == order
    assert factorize(order) == want


@pytest.mark.parametrize("m,k", [(17, 7), (23, 5), (37, 5), (43, 3)])
def test_korder_orders_factor_before_the_long_curves(monkeypatch, m, k):
    # at (23,5), 16673514445457 - 1 = 2^4 * 11 * 23 * 73 * 107 * 527327, and
    # stage 2 of p - 1 finds it right after the pretest; the 13-15-digit
    # primes of the other orders fall to curves of the ramp (b1 = 895, 1083
    # and 2323 at the default seed).  So no curve at the trial bound runs;
    # each takes 0.3 s or more, and they took 0.3-1.8 s here, over 2 s at (23,5)
    order = korder_order(m, k)
    curve = factor._ecm_curve

    def short_curve(n, sigma, b1, b2):
        if b1 == _TRIAL_BOUND:
            pytest.fail("a curve at the trial bound ran")
        return curve(n, sigma, b1, b2)

    monkeypatch.setattr(factor, "_ecm_curve", short_curve)
    assert factorize(order) == KORDER_FACTORS[m, k]


def test_ecm_bounds_ramp_from_the_pretest_to_the_trial_bound():
    b1s = list(itertools.islice(factor._ecm_bounds(), 100))
    pretest, ramp, rest = b1s[:21], b1s[21:73], b1s[73:]
    # the pretest's bounds, on which PRETEST_DRAWS were recorded
    assert factor._ECM_PRETEST == len(pretest)
    assert pretest == [100, 110, 121, 133, 146, 161, 177, 195, 214, 236, 259, 285, 314, 345,
                       380, 418, 459, 505, 556, 612, 673]
    assert len(ramp) == 52 and (ramp[0], ramp[-1]) == (740, 95559)
    assert all(a < b for a, b in zip(b1s[:72], b1s[1:73])) and b1s[72] < _TRIAL_BOUND
    assert rest == [_TRIAL_BOUND] * 27


# randrange calls of factorize at the default seed on the orders that ECM
# splits in its pretest, as recorded before p - 1 was added: (count, sha256
# of the repr of the list of argument tuples)
PRETEST_DRAWS = {
    (19, 5): (11, "d953f37d4219d8897b74e28c508eeb5704ce9703d702dd59322d3518e24aa5b2"),
    (19, 7): (30, "3d2d495e8beb31d25750481759cb6d5c4389c90d136cc036b6648975f04ddf77"),
    (37, 3): (21, "b522b2ba19b7d55923c4f9e43de49bdcba43131978e47d7a24edc9aaa947c079"),
}


@pytest.mark.parametrize("m,k", sorted(PRETEST_DRAWS))
def test_p_minus_1_leaves_the_pretests_draws_alone(monkeypatch, m, k):
    order = korder_order(m, k)
    recorders = []

    def recording(*args):
        recorders.append(RecordingRandom(*args))
        return recorders[-1]

    monkeypatch.setattr(factor.random, "Random", recording)
    monkeypatch.setattr(factor, "_pminus1", lambda n: pytest.fail("p - 1 ran"))
    fac = factorize(order)
    assert math.prod(p**e for p, e in fac) == order
    (rng,) = recorders
    digest = hashlib.sha256(repr(rng.calls).encode()).hexdigest()
    assert (len(rng.calls), digest) == PRETEST_DRAWS[m, k]


def _prime_after(n):
    while not is_prime(n):
        n += 1
    return n


@st.composite
def pminus1_primes(draw, stage2=True, size=5):
    """A prime p = 1 + 2*s*q, s a product of 1 to size distinct odd primes
    below _PM1_B1 and q a prime not dividing s: in (_PM1_B1, _PM1_B2] with 3
    of order divisible by q mod p when stage2 is set, else below _PM1_B1."""
    odd = primes_up_to(_PM1_B1)[1:]
    s = math.prod(draw(st.lists(st.sampled_from(odd), min_size=1, max_size=size, unique=True)))
    lo, hi = (_PM1_B1 + 1, _PM1_B2) if stage2 else (3, _PM1_B1)
    q = _prime_after(draw(st.integers(lo, hi)))
    while True:
        if q > hi:
            q = _prime_after(lo)
        p = 1 + 2 * s * q
        if s % q and is_prime(p) and not (stage2 and pow(3, (p - 1) // q, p) == 1):
            return p
        q = _prime_after(q + 1)


@st.composite
def big_primes(draw):
    """A prime of 20 to 30 digits."""
    digits = draw(st.integers(20, 30))
    return _prime_after(draw(st.integers(10 ** (digits - 1), 10**digits - 1)))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(pminus1_primes(stage2=True), big_primes())
def test_p_minus_1_stage_2_finds_one_large_prime_of_p_minus_1(p, r):
    assert factor._pminus1(p * r) == p


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(pminus1_primes(stage2=False), big_primes())
def test_p_minus_1_stage_1_finds_a_powersmooth_p_minus_1(p, r):
    assert factor._pminus1(p * r) == p


@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(st.lists(st.booleans(), min_size=2, max_size=2).flatmap(
    lambda kinds: st.tuples(*(pminus1_primes(stage2=k, size=1) for k in kinds))))
@example(primes=(379250867, 46959443))  # both found in one block of stage 2
def test_p_minus_1_with_two_smooth_primes_falls_through_to_ecm(primes):
    # p - 1 finds both primes, at once or apart; without a pretest it runs
    # before the first curve, and ECM splits what it leaves
    p, q = primes
    assume(p != q)
    assert factor._pminus1(p * q) in (p, q, p * q)
    with pytest.MonkeyPatch.context() as patch:
        calls = recording_pminus1(patch)
        patch.setattr(factor, "_ECM_PRETEST", 0)
        patch.setattr(factor, "_RHO_CAP", 0)
        assert factorize(p * q) == sorted([(p, 1), (q, 1)])
    assert calls == [p * q]


@pytest.mark.parametrize("found", ["nothing", "everything", "one prime"])
def test_p_minus_1_skips_the_divisors_of_a_composite_it_failed_on(monkeypatch, found):
    # whether p - 1 finds a prime depends on that prime alone, so after it
    # finds nothing, or every prime at once, it is not tried on a divisor
    primes = (1000003, 1000033, 1000037)
    n = math.prod(primes)
    calls = []

    def least_prime(m, *args):
        return min(p for p in primes if m % p == 0)

    def stub(m):
        calls.append(m)
        return {"nothing": 1, "everything": m, "one prime": least_prime(m)}[found]

    monkeypatch.setattr(factor, "_pminus1", stub)
    monkeypatch.setattr(factor, "_ecm_curve", least_prime)
    monkeypatch.setattr(factor, "_ECM_PRETEST", 0)
    monkeypatch.setattr(factor, "_RHO_CAP", 0)
    assert factorize(n) == [(p, 1) for p in primes]
    assert calls == ([n, n // primes[0]] if found == "one prime" else [n])


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
    # zeta**2 = -1 - zeta; exponents fold mod 3
    assert CyclotomicElement.make(lv, [0, 0, 1]).coeffs == (-1, -1)
    assert CyclotomicElement.make(lv, [0, 0, 0, 1]).coeffs == (1, 0)
    assert CyclotomicElement.make(lv, [0] * 5 + [1]).coeffs == (-1, -1)
    lv5 = CyclotomicLevel(5, 1)
    assert CyclotomicElement.make(lv5, [0] * 5 + [1]).coeffs == (1, 0, 0, 0)
    # 1 + zeta + ... + zeta**4 = 0, and 1 + zeta_9**3 + zeta_9**6 = 0
    assert CyclotomicElement.make(lv5, [1] * 5).coeffs == (0,) * 4
    assert CyclotomicElement.make(CyclotomicLevel(3, 2), [1, 0, 0, 1, 0, 0, 1]).coeffs == (0,) * 6


def test_ramified_prime_factorization():
    # prod over a in (Z/p**n)^* of (1 - zeta**a) = Res(Phi_{p**n}, 1 - x) = p
    for p, n in ((3, 1), (5, 1), (7, 1), (3, 2), (2, 3)):
        lv = CyclotomicLevel(p, n)
        one_minus_zeta = CyclotomicElement.make(lv, [1, -1])
        norm = resultant(cyclotomic_polynomial_any(lv.modulus), Poly(one_minus_zeta.coeffs))
        assert norm == p, (p, n)


def test_cyclotomic_rational_normalization():
    lv = CyclotomicLevel(3, 1)
    x = CyclotomicRational.make(CyclotomicElement.make(lv, (2, 4)), -6)
    assert x.denominator == 3
    assert x.numerator.coeffs == (-1, -2)
    with pytest.raises(ZeroDivisionError):
        CyclotomicRational.make(CyclotomicElement.integer(lv, 1), 0)


# 2-power, odd prime and odd prime-power levels, degrees 1 to 10
CYCLO_LEVELS = st.sampled_from(
    [CyclotomicLevel(p, n) for p, n in ((2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (11, 1))]
)
NONZERO = st.integers(-1000, 1000).filter(bool)


@st.composite
def cyclo_elements(draw):
    level = draw(CYCLO_LEVELS)
    # small coefficients, so that they often share a factor with the denominator
    coeffs = draw(st.lists(st.integers(-30, 30), min_size=level.degree, max_size=level.degree))
    return CyclotomicElement(level, tuple(coeffs))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cyclo_elements(), NONZERO, NONZERO)
def test_cyclotomic_rational_make_is_canonical(numerator, c, den):
    # N*c / (D*c) and N / D are one value, so make must give one result;
    # the tests compare B_{n,chi} values with == on that
    value = CyclotomicRational.make(numerator, den)
    assert CyclotomicRational.make(numerator.scale(c), den * c) == value
    assert value.denominator > 0
    content = math.gcd(*value.numerator.coeffs)
    assert math.gcd(content, value.denominator) == 1


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(CYCLO_LEVELS, NONZERO)
def test_cyclotomic_rational_zero_has_denominator_one(level, den):
    zero = CyclotomicRational.make(CyclotomicElement.make(level, []), den)
    assert not any(zero.numerator.coeffs)
    assert zero.denominator == 1
    assert zero == CyclotomicRational.from_rational(level, Fraction(0))


def test_cyclotomic_rational_arithmetic_tracks_fractions():
    lv = CyclotomicLevel(5, 1)
    rng = random.Random(17)
    for _ in range(20):
        qa = Fraction(rng.randrange(-20, 21), rng.randrange(1, 9))
        qb = Fraction(rng.randrange(-20, 21), rng.randrange(1, 9))
        a = CyclotomicRational.from_rational(lv, qa)
        assert rational_part(a) == qa
        assert any(a.numerator.coeffs) == (qa != 0)
        assert a.scale_rational(qb) == CyclotomicRational.from_rational(lv, qa * qb)
        assert rational_part(a.scale_rational(qb)) == qa * qb


def test_rational_part_rejects_irrational():
    lv = CyclotomicLevel(3, 1)
    x = CyclotomicRational.make(CyclotomicElement.make(lv, (1, 1)), 2)
    with pytest.raises(ValueError):
        rational_part(x)
