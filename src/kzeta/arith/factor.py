"""Integer primality and factorization: trial division, Miller-Rabin, Pollard rho.

Primality is deterministic below 2**64 (fixed witness set) and strongly
probabilistic above.  Factorization is exact: the returned multiset always
multiplies back to the input, and every factor reported prime has passed
the primality test.  Trial division tests blocks of small primes at once by
a gcd with their product; primes in a residue class are counted by a
segmented sieve in memory O(sqrt(x)).
"""

from __future__ import annotations

import itertools
import math
import random

# Deterministic Miller-Rabin witnesses for n < 2**64 (Sorenson & Webster).
_SMALL_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_DETERMINISTIC_BOUND = 2**64  # is_prime draws random witnesses only above this
_TRIAL_BOUND = 100_000
_TRIAL_BLOCK = 64  # small primes per gcd in trial division
_SEGMENT = 1 << 18  # numbers per segment of the counting sieve

# Module globals rather than lru_cache: both tables are fixed for the process,
# and emptying the caches of kzeta must not make the next call rebuild them.
_small_primes: list[int] | None = None
_trial_blocks: list[tuple[int, list[int]]] | None = None


def small_primes() -> list[int]:
    """Primes below the trial-division bound, sieved once and kept for the
    life of the process."""
    global _small_primes
    if _small_primes is None:
        _small_primes = primes_up_to(_TRIAL_BOUND - 1)
    return _small_primes


def _trial_block_table() -> list[tuple[int, list[int]]]:
    """small_primes() in ascending blocks of _TRIAL_BLOCK, each with its
    product; built once and kept for the life of the process."""
    global _trial_blocks
    if _trial_blocks is None:
        ps = small_primes()
        blocks = (ps[i : i + _TRIAL_BLOCK] for i in range(0, len(ps), _TRIAL_BLOCK))
        _trial_blocks = [(math.prod(block), block) for block in blocks]
    return _trial_blocks


def primes_up_to(x: int) -> list[int]:
    """All primes p <= x, by sieve of Eratosthenes.

    >>> primes_up_to(20)
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    if x < 2:
        return []
    sieve = bytearray([1]) * (x + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(x) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, x + 1, i)))
    return list(itertools.compress(range(x + 1), sieve))


def _count_primes_one_mod(x: int, moduli: tuple[int, ...]) -> tuple[int, ...]:
    """For each q in moduli, the number of primes ell <= x with ell = 1 (mod q).

    A segmented sieve of Eratosthenes that only counts (Bays & Hudson, BIT 17
    (1977)): the primes up to isqrt(x) are listed and counted directly, and
    every later number lies in a bytearray segment of at most _SEGMENT entries
    in which each of those primes crosses off its multiples.  No list of the
    primes up to x is built, so memory stays O(sqrt(x)) as x grows.

    >>> _count_primes_one_mod(100, (1, 3, 9))
    (25, 11, 3)
    """
    root = math.isqrt(x)
    base = primes_up_to(root)
    counts = [sum(1 for ell in base if (ell - 1) % q == 0) for q in moduli]
    for lo in range(root + 1, x + 1, _SEGMENT):
        size = min(_SEGMENT, x + 1 - lo)  # the segment holds lo .. lo+size-1
        seg = bytearray([1]) * size
        for ell in base:
            if ell * ell >= lo + size:
                break
            start = -lo % ell  # index of the first multiple of ell; lo > ell
            seg[start::ell] = bytearray(len(range(start, size, ell)))
        for i, q in enumerate(moduli):
            counts[i] += seg[(1 - lo) % q :: q].count(1)
    return tuple(counts)


def _miller_rabin_witness(n: int, a: int) -> bool:
    """True if a witnesses the compositeness of odd n > 2."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int, rng: random.Random | None = None) -> bool:
    """Primality test.

    Deterministic for n < 2**64; for larger n runs the fixed witness set
    plus 20 random rounds (error probability < 4**-20).

    >>> is_prime(2302381)
    True
    >>> [p for p in range(30) if is_prime(p)]
    [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    for a in _SMALL_WITNESSES:
        if _miller_rabin_witness(n, a):
            return False
    if n < _DETERMINISTIC_BOUND:
        return True
    rng = rng or random.Random(0xC0FFEE)
    for _ in range(20):
        a = rng.randrange(2, n - 1)
        if _miller_rabin_witness(n, a):
            return False
    return True


def _pollard_rho(n: int, rng: random.Random) -> int:
    """A nontrivial factor of composite n (not necessarily prime).

    Brent's cycle-finding variant with batched gcds.  n must be odd,
    composite, and free of factors below the trial bound.
    """
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            # batch overshot; replay one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        # cycle degenerated for this (y, c); retry with fresh parameters


def factorize(n: int, seed: int | None = None) -> list[tuple[int, int]]:
    """Factor n >= 1 into a sorted list of (prime, exponent) pairs.

    The rho stage is randomized but seeded, so output is deterministic for
    a fixed seed (default seed is fixed too).  The generator is built only
    when rho runs or a cofactor above 2**64 is tested for primality.

    >>> factorize(2244096)
    [(2, 9), (3, 2), (487, 1)]
    >>> factorize(1)
    []
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1, got %r" % (n,))
    rng: random.Random | None = None

    def seeded() -> random.Random:
        nonlocal rng
        if rng is None:
            rng = random.Random(0xD1CE if seed is None else seed)
        return rng

    factors: dict[int, int] = {}
    for product, block in _trial_block_table():
        if block[0] * block[0] > n:
            break  # n has no prime factor below block[0], so it is 1 or prime
        g = math.gcd(n, product)
        if g == 1:
            continue
        for p in block:  # g is the product of the primes of block dividing n
            if g % p == 0:
                while n % p == 0:
                    factors[p] = factors.get(p, 0) + 1
                    n //= p
                g //= p
                if g == 1:
                    break
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m, seeded() if m >= _DETERMINISTIC_BOUND else None):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m, seeded())
        stack.append(d)
        stack.append(m // d)
    return sorted(factors.items())


def factorization_string(factors: list[tuple[int, int]]) -> str:
    """Render (prime, exponent) pairs in ascending order as a product.

    >>> factorization_string([(2, 9), (3, 2), (487, 1)])
    '2^9·3^2·487'
    >>> factorization_string([])
    '1'

    None (a factorization that was never computed) renders as ''.
    """
    if factors is None:
        return ""
    if not factors:
        return "1"
    parts = []
    for p, e in factors:
        parts.append("%d^%d" % (p, e) if e > 1 else "%d" % p)
    return "·".join(parts)


def valuation(n: int, p: int) -> int:
    """v_p(n) for n != 0: the exponent of p in n.

    >>> valuation(2244096, 3)
    2
    """
    if n == 0:
        raise ValueError("valuation of 0 is undefined (infinite)")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v
