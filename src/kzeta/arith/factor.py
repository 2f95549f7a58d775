"""Integer primality and factorization: trial division, Miller-Rabin,
Pollard rho, Pollard p - 1 and the elliptic-curve method.

Primality is deterministic below 2**64, by the fewest fixed Miller-Rabin
bases known to suffice for the size of n, and strongly probabilistic above.
Factorization is exact: the returned multiset always multiplies back to the
input, and every factor reported prime has passed the primality test.  It
runs four stages.  Trial division tests blocks of small primes at once by
a gcd with their product, and stops early once a cofactor below 2**64 is
prime, or composite and too large for the walk to finish.  Brent's rho then
gets a fixed number of steps per composite, which splits off factors of up
to about 7 digits.  Lenstra's elliptic-curve method takes the composites rho
leaves: rho's cost grows as the square root of the factor it finds, the
curves' cost only subexponentially in that factor's size.  The curves'
stage-1 bound grows by 10% per curve (Brent, Austral. Comp. Sci. Comm. 8
(1986)), from 100 over a short pretest of cheap curves and then over a ramp
to 10**5, where it stays: a factor of unknown size is met by curves whose
cost fits it.  After the pretest, Pollard's p - 1 gets one try per
composite: it finds, in tens of milliseconds, any prime p whose p - 1 is
smooth, whatever its size, where one curve at 10**5 costs 0.3 s or more.
Rho and every curve draw their parameters from one generator seeded by the
caller, so a seed fixes the work done; p - 1 draws nothing, and the
factorization does not depend on the seed.
Primes = 1 (mod q) up to x are counted by a segmented sieve of the odd
numbers = 1 (mod q) alone, in memory O(sqrt(x)) and time about x/q.  The
survivors of each segment are counted by zlib's Adler-32 checksum, whose low
16 bits are 1 plus the byte sum (RFC 1950), rather than byte by byte."""

from __future__ import annotations

import bisect
import itertools
import math
import random
import zlib

# Deterministic Miller-Rabin witnesses for n < 2**64 (Sorenson & Webster).
_SMALL_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_BOUND = 2**64  # is_prime draws random witnesses only above this
# (bound, bases): the bases decide every n below bound, the smallest such
# sets known (Pomerance, Selfridge & Wagstaff, Math. Comp. 35 (1980);
# Jaeschke, Math. Comp. 61 (1993)); each bound below 2**64 is the least
# strong pseudoprime to those bases.
_WITNESS_TIERS = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (25326001, (2, 3, 5)),
    (4759123141, (2, 7, 61)),
    (1122004669633, (2, 13, 23, 1662803)),
    (2152302898747, _SMALL_WITNESSES[:5]),
    (3474749660383, _SMALL_WITNESSES[:6]),
    (341550071728321, _SMALL_WITNESSES[:7]),
    (3825123056546413051, _SMALL_WITNESSES[:9]),
    (_DETERMINISTIC_BOUND, _SMALL_WITNESSES),
)
_TRIAL_BOUND = 100_000
_TRIAL_BLOCK = 64  # small primes per gcd in trial division
_SEGMENT = 1 << 18  # terms of the progression per segment of the counting sieve
# Bytes per Adler-32 sum in _count_ones: 1 + 65519 is below the modulus
# 65521, so the sum of a run of 0 and 1 bytes never wraps.
_ADLER_RUN = 65519
_RHO_CAP = 1 << 13  # steps of Brent's rho per composite before ECM takes it
# ECM: the stage-1 bound B1 grows from _ECM_B1 by _ECM_GROWTH per curve, over
# a pretest of _ECM_PRETEST curves (to 673) and a ramp of 52 more (740 to
# 95559), then every curve runs at the trial bound.  Stage 2 runs to
# _ECM_B2 * B1 in giant steps of _ECM_D.
_ECM_B1 = 100
_ECM_GROWTH = 1.1
_ECM_PRETEST = 21
_ECM_B2 = 50
_ECM_D = 210
_ECM_CHUNK_BITS = 4096  # bits of the stage-1 multiplier per ladder, one gcd each
_ECM_BLOCK = 256  # giant steps of stage 2 held at once, with one gcd
# Pollard p - 1, once per composite between the pretest and the first curve
# past it: stage 1 to _PM1_B1, then stage 2 over the primes up to
# _PM1_B2 in giant steps of _PM1_D, one gcd per _PM1_BLOCK giant steps.
_PM1_B1 = 20000
_PM1_B2 = 10**6
_PM1_D = 2310
_PM1_BLOCK = 16
_PM1_SEGMENT = 64  # giant steps per segment of the sieve behind _pm1_plan

# Module globals rather than lru_cache: the tables are fixed for the process,
# and emptying the caches of kzeta must not make the next call rebuild them.
_small_primes: list[int] | None = None
_trial_blocks: list[tuple[int, list[int]]] | None = None
# b1 -> _stage1_chunks(b1); factorize asks for the 73 bounds below the trial
# bound of _ecm_bounds(), for the trial bound and for _PM1_B1
_stage1_tables: dict[int, tuple[int, ...]] = {}
_pm1_stage2: tuple[int, tuple[bytes, ...]] | None = None  # _pm1_plan()


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


def _count_ones(buf) -> int:
    """The number of 1 bytes in buf, a buffer of 0 and 1 bytes.

    The low 16 bits of zlib.adler32 of a run are 1 plus its byte sum mod
    65521; each run of at most _ADLER_RUN bytes sums below that.  CPython's
    bytearray.count(1) branches on each byte: on a sieve segment of 2**18
    bytes, a fifth of them ones, it took 0.86 ms and this 0.13 ms on a
    shared 2-vCPU host.

    >>> _count_ones(bytearray([1, 0, 1]) * 50000)
    100000
    """
    with memoryview(buf) as view:
        return sum(
            (zlib.adler32(view[i : i + _ADLER_RUN]) & 0xFFFF) - 1
            for i in range(0, len(view), _ADLER_RUN)
        )


def _count_primes_one_mod(x: int, moduli: tuple[int, ...]) -> tuple[int, ...]:
    """For each q in moduli, the number of primes ell <= x with ell = 1 (mod q).

    A segmented sieve of Eratosthenes that only counts (Bays & Hudson, BIT 17
    (1977)), run over one progression: with q0 = gcd(moduli) and s the least
    common multiple of 2 and q0, every odd prime = 1 (mod q) for all q is
    1 + s*t for some t.  The primes up to isqrt(x) (and 2) are listed and
    counted directly.  The later numbers 1 + s*t lie in bytearray segments
    of at most _SEGMENT values of t, in which each listed prime ell prime to
    s crosses off the t = -1/s (mod ell), and each q counts the survivors in
    a slice of stride q/gcd(q, s) with _count_ones; stride 1 counts the
    segment itself, without a copy.  No list of the primes up to x is
    built, so memory stays O(sqrt(x)), and the time grows as x/s.

    >>> _count_primes_one_mod(100, (1, 3, 9))
    (25, 11, 3)
    """
    if x < 2:
        return (0,) * len(moduli)
    root = math.isqrt(x)
    step = math.lcm(2, math.gcd(*moduli))
    base = primes_up_to(max(root, 2))  # 2 lies outside the progression
    counts = [sum(1 for ell in base if (ell - 1) % q == 0) for q in moduli]
    base = [ell for ell in base if step % ell]  # the rest never divide 1 + step*t
    # 1 + step*t is crossed off by ell when t = first[i] (mod ell)
    first = [-pow(step, -1, ell) % ell for ell in base]
    strides = [q // math.gcd(q, step) for q in moduli]
    t_lo = (max(root, 2) - 1) // step + 1  # least t with 1 + step*t > max(root, 2)
    t_hi = (x - 1) // step
    for lo in range(t_lo, t_hi + 1, _SEGMENT):
        size = min(_SEGMENT, t_hi + 1 - lo)  # the segment holds t = lo .. lo+size-1
        top = 1 + step * (lo + size - 1)
        seg = bytearray([1]) * size
        for ell, t in zip(base, first):
            if ell * ell > top:
                break
            start = (t - lo) % ell  # 1 + step*(lo+start) > root >= ell, so never ell itself
            seg[start::ell] = bytearray(len(range(start, size, ell)))
        for i, stride in enumerate(strides):
            counts[i] += _count_ones(seg if stride == 1 else seg[-lo % stride :: stride])
    return tuple(counts)


def _miller_rabin_witness(n: int, a: int, d: int, r: int) -> bool:
    """True if a witnesses the compositeness of odd n > 2, where
    n - 1 = d * 2**r with d odd."""
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

    Deterministic for n < 2**64, by the bases of the first tier of
    _WITNESS_TIERS whose bound exceeds n; for larger n runs all twelve
    primes up to 37 plus 20 random rounds drawn from rng (error probability
    < 4**-20).

    >>> is_prime(2302381)
    True
    >>> [p for p in range(30) if is_prime(p)]
    [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    """
    if n < 2:
        return False
    for p in _SMALL_WITNESSES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    r = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> r
    bases = next((bases for bound, bases in _WITNESS_TIERS if n < bound), _SMALL_WITNESSES)
    for a in bases:
        if _miller_rabin_witness(n, a, d, r):
            return False
    if n < _DETERMINISTIC_BOUND:
        return True
    rng = rng or random.Random(0xC0FFEE)
    for _ in range(20):
        a = rng.randrange(2, n - 1)
        if _miller_rabin_witness(n, a, d, r):
            return False
    return True


def _pollard_rho(n: int, rng: random.Random) -> int | None:
    """A nontrivial factor of composite n (not necessarily prime), or None
    once _RHO_CAP steps y -> y*y + c have found none.

    Brent's cycle-finding variant with batched gcds.  n must be composite
    and free of the primes of the first trial block.
    """
    steps = 0
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            steps += 2 * r
            if steps > _RHO_CAP:
                return None
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


def _xdbl(X: int, Z: int, a24: int, n: int) -> tuple[int, int]:
    """2(X : Z) on the Montgomery curve with (A + 2)/4 = a24, mod n."""
    s = (X + Z) * (X + Z) % n
    d = (X - Z) * (X - Z) % n
    e = s - d
    return s * d % n, e * (d + a24 * e % n) % n


def _xadd(X0: int, Z0: int, X1: int, Z1: int, Xd: int, Zd: int, n: int) -> tuple[int, int]:
    """(X0 : Z0) + (X1 : Z1) mod n, given their difference (Xd : Zd)."""
    a = (X0 - Z0) * (X1 + Z1) % n
    b = (X0 + Z0) * (X1 - Z1) % n
    return Zd * ((a + b) * (a + b) % n) % n, Xd * ((a - b) * (a - b) % n) % n


def _ladder(x: int, k: int, a24: int, n: int) -> tuple[int, int]:
    """k(x : 1) for k >= 1 by the x-only Montgomery ladder: R1 - R0 stays
    (x : 1), so each bit of k costs one addition and one doubling, ten
    products mod n."""
    X0, Z0 = x, 1
    X1, Z1 = _xdbl(x, 1, a24, n)
    for bit in bin(k)[3:]:
        p0 = X0 + Z0
        m0 = X0 - Z0
        p1 = X1 + Z1
        m1 = X1 - Z1
        a = m0 * p1 % n
        b = p0 * m1 % n
        c = a + b
        f = a - b
        if bit == "1":  # R0 <- R0 + R1, R1 <- 2 R1
            X0 = c * c % n
            Z0 = f * f % n * x % n
            s = p1 * p1 % n
            d = m1 * m1 % n
            e = s - d
            X1 = s * d % n
            Z1 = (a24 * e % n + d) * e % n
        else:  # R1 <- R0 + R1, R0 <- 2 R0
            X1 = c * c % n
            Z1 = f * f % n * x % n
            s = p0 * p0 % n
            d = m0 * m0 % n
            e = s - d
            X0 = s * d % n
            Z0 = (a24 * e % n + d) * e % n
    return X0, Z0


def _affine(points: list[tuple[int, int]], n: int) -> tuple[list[int], int]:
    """(the x = X/Z of each point, g) by one inversion mod n (Montgomery's
    trick), where g = gcd(n, product of the Z); the x are valid if g == 1."""
    prefix = [1]
    for _, Z in points:
        prefix.append(prefix[-1] * Z % n)
    g = math.gcd(prefix[-1], n)
    if g != 1:
        return [], g
    inv = pow(prefix[-1], -1, n)
    xs = [0] * len(points)
    for i in range(len(points) - 1, -1, -1):
        X, Z = points[i]
        xs[i] = X * prefix[i] % n * inv % n
        inv = inv * Z % n
    return xs, 1


def _stage1_chunks(b1: int) -> tuple[int, ...]:
    """The largest power up to b1 of each prime p <= b1 (primes below the
    trial bound only), multiplied together in ascending runs of at least
    _ECM_CHUNK_BITS bits; built once per b1 and kept for the life of the
    process.

    >>> _stage1_chunks(10)
    (2520,)
    """
    if b1 not in _stage1_tables:
        runs, k = [], 1
        for p in small_primes():
            if p > b1:
                break
            q = p
            while q * p <= b1:
                q *= p
            k *= q
            if k.bit_length() >= _ECM_CHUNK_BITS:
                runs.append(k)
                k = 1
        _stage1_tables[b1] = tuple(runs + [k] if k > 1 else runs)
    return _stage1_tables[b1]


def _ecm_curve(n: int, sigma: int, b1: int, b2: int) -> int:
    """gcd of n with what one elliptic curve leaves: 1 when the curve finds
    nothing, n when it finds every prime of n at once, else a proper divisor.

    Suyama's parametrisation by sigma gives a Montgomery curve
    B y^2 = x^3 + A x^2 + x mod n whose order mod every prime is divisible
    by 12.  Stage 1 multiplies the starting point by all prime powers up to
    b1 with x-only ladders, and finds p when the order of the point mod p
    is b1-smooth.  Stage 2 finds p when the order of Q, stage 1's point,
    is one number m*D +- j up to b2 with gcd(j, D) = 1 and j < D/2: then
    x(m*D*Q) = x(j*Q) mod p, so p divides the product of the differences.
    Stage 1 runs one ladder per chunk of its multiplier and takes a gcd
    after each, and stage 2 takes one after each block of giant steps; so
    two primes that one curve finds mostly come apart.

    >>> _ecm_curve(1000003 * 1000033, 2, 100, 5000)
    1000003
    """
    u = (sigma * sigma - 5) % n
    v = 4 * sigma % n
    x0, z0 = pow(u, 3, n), pow(v, 3, n)
    t = 16 * x0 * v % n
    g = math.gcd(t * z0, n)
    if g != 1:
        return g
    inv = pow(t * z0, -1, n)
    a24 = pow(v - u, 3, n) * (3 * u + v) * z0 % n * inv % n  # (v-u)^3 (3u+v) / (16 u^3 v)
    x = x0 * t % n * inv % n
    for k in _stage1_chunks(b1):
        X, Z = _ladder(x, k, a24, n)
        g = math.gcd(Z, n)
        if g != 1:
            return g
        x = X * pow(Z, -1, n) % n  # after the last chunk, Q = (x : 1)
    D = _ECM_D
    # Baby steps j*Q, odd j < D/2, by (j + 2)Q = jQ + 2Q with difference (j - 2)Q.
    double = _xdbl(x, 1, a24, n)
    baby = [(x, 1)]
    prev, cur = (x, 1), _xadd(*double, x, 1, x, 1, n)
    for j in range(3, D // 2, 2):
        if math.gcd(j, D) == 1:
            baby.append(cur)
        prev, cur = cur, _xadd(*cur, *double, *prev, n)
    # A Z sharing a factor with n is a find too: j*Q = 0 or m*D*Q = 0 mod p.
    baby, g = _affine(baby, n)
    if g != 1:
        return g
    # Giant steps m*D*Q for m0 <= m <= m1, by (m + 1)DQ = mDQ + DQ with
    # difference (m - 1)DQ, turned affine _ECM_BLOCK at a time.
    m0 = max(1, b1 // D)
    m1 = max(m0 + 1, b2 // D + 1)
    Xs, Zs = _ladder(x, D, a24, n)
    ps, ms = Xs + Zs, Xs - Zs
    X0, Z0 = _ladder(x, m0 * D, a24, n)
    X1, Z1 = _ladder(x, (m0 + 1) * D, a24, n)
    acc = 1
    for start in range(m0, m1 + 1, _ECM_BLOCK):
        giant = []
        for _ in range(min(_ECM_BLOCK, m1 + 1 - start)):
            giant.append((X0, Z0))
            a = (X1 - Z1) * ps % n
            b = (X1 + Z1) * ms % n
            c = a + b
            f = a - b
            X0, Z0, X1, Z1 = X1, Z1, c * c % n * Z0 % n, f * f % n * X0 % n
        giant, g = _affine(giant, n)
        if g != 1:
            return g
        for gx in giant:
            for bx in baby:
                acc = acc * (gx - bx) % n
        g = math.gcd(acc, n)
        if g != 1:
            return g
    return 1


def _pm1_plan() -> tuple[int, tuple[bytes, ...]]:
    """Stage 2 of _pminus1 as (m0, rows).  Row i lists, as indices into the
    odd j < D/2 prime to D = _PM1_D in ascending order, the j for which
    (m0 + i)*D - j or (m0 + i)*D + j is a prime in (_PM1_B1, _PM1_B2]; each
    such prime q is one of these, with m = round(q/D).  Built once and kept
    for the life of the process: one bytes row per giant step, about 62 KB in
    all, and no list of the primes up to _PM1_B2.

    The primes come from a sieve of the odd numbers in segments of
    _PM1_SEGMENT giant steps, each under glibc's 128 KB mmap threshold (see
    ROADMAP: a workaround for the benchmark's host probe, to drop for one
    sieve of the whole range once the probe no longer depends on the heap).

    >>> m0, rows = _pm1_plan()  # 76236 primes in (20000, 10**6]
    >>> m0, len(rows), sum(map(len, rows))
    (9, 425, 61993)
    """
    global _pm1_stage2
    if _pm1_stage2 is None:
        D, half = _PM1_D, _PM1_D // 2
        nt = half // 2  # the odd j < D/2 are j = 2t + 1, t < nt
        m0 = (_PM1_B1 + 1 + half) // D
        m1 = (_PM1_B2 + half) // D
        index = bytearray(nt)
        for b, j in enumerate(j for j in range(1, half, 2) if math.gcd(j, D) == 1):
            index[j // 2] = b
        # 2i + 1 is in (_PM1_B1, _PM1_B2] exactly when first <= i < last
        first, last = (_PM1_B1 + 1) // 2, (_PM1_B2 + 1) // 2
        ps = small_primes()
        odd_primes = ps[1 : bisect.bisect(ps, math.isqrt(_PM1_B2))]
        rows = []
        for start in range(m0, m1 + 1, _PM1_SEGMENT):
            ms = range(start, min(start + _PM1_SEGMENT, m1 + 1))
            # seg[i - lo] = 1 when 2i + 1 is a prime in (_PM1_B1, _PM1_B2]; at
            # giant step m, mD + j is 2i + 1 for i = mD/2 + t and mD - j for
            # i = mD/2 - 1 - t.  A j not prime to D never meets a prime here.
            lo, hi = ms[0] * D // 2 - nt, ms[-1] * D // 2 + nt
            seg = bytearray([1]) * (hi - lo)
            for p in odd_primes:
                i = max(p * p // 2, lo + (p * p // 2 - lo) % p) - lo  # 2(lo + i) + 1 = 0 mod p
                seg[i::p] = bytes(len(range(i, hi - lo, p)))
            a = min(max(first - lo, 0), hi - lo)
            b = min(max(last - lo, 0), hi - lo)
            seg[:a] = bytes(a)
            seg[b:] = bytes(hi - lo - b)
            for m in ms:
                c = m * D // 2 - lo
                lower = int.from_bytes(seg[c - nt : c][::-1], "big")
                hit = lower | int.from_bytes(seg[c : c + nt], "big")
                rows.append(bytes(itertools.compress(index, hit.to_bytes(nt, "big"))))
        _pm1_stage2 = (m0, tuple(rows))
    return _pm1_stage2


def _pminus1(n: int) -> int:
    """gcd of n with what Pollard's p - 1 method leaves: 1 when it finds
    nothing, n when it finds every prime of n at once, else a proper divisor.

    Pollard, Proc. Cambridge Philos. Soc. 76 (1974).  Stage 1 raises x = 3 to
    the prime powers up to _PM1_B1, one pow and one gcd per chunk of the
    multiplier E (_stage1_chunks), and finds p when the order of 3 mod p
    divides E, as it does when p - 1 is _PM1_B1-powersmooth.  Stage 2 finds
    p when the order of x = 3^E mod p is a prime q in (_PM1_B1, _PM1_B2], as
    when p - 1 is such a q times a powersmooth number; it uses the pairing
    of Montgomery (Math. Comp. 48 (1987)): with V_k = x^k + x^-k,
    V_mD - V_j = x^-mD (x^(mD-j) - 1)(x^(mD+j) - 1), so one product over
    the pairs of _pm1_plan() covers q = mD - j and q = mD + j.  The V are
    stepped by V_(a+b) = V_a V_b - V_(a-b).  Stage 2 takes one gcd per
    _PM1_BLOCK giant steps.  No random draws.

    >>> p = 16673514445457  # p - 1 = 2^4 * 11 * 23 * 73 * 107 * 527327
    >>> _pminus1(p * 77071163692043863104779051635544803) == p
    True
    """
    x = 3
    for k in _stage1_chunks(_PM1_B1):
        x = pow(x, k, n)
        g = math.gcd(x - 1, n)
        if g != 1:
            return g
    m0, rows = _pm1_plan()
    D = _PM1_D
    inv = pow(x, -1, n)
    v2 = (x * x + inv * inv) % n
    # baby steps V_j, odd j < D/2 prime to D, by V_(j+2) = V_2 V_j - V_(j-2)
    baby = []
    prev = cur = (x + inv) % n  # V_-1 = V_1
    for j in range(1, D // 2, 2):
        if math.gcd(j, D) == 1:
            baby.append(cur)
        prev, cur = cur, (v2 * cur - prev) % n
    # giant steps V_mD from m = m0, by V_(m+1)D = V_D V_mD - V_(m-1)D
    vd = (pow(x, D, n) + pow(inv, D, n)) % n
    prev = (pow(x, (m0 - 1) * D, n) + pow(inv, (m0 - 1) * D, n)) % n
    cur = (pow(x, m0 * D, n) + pow(inv, m0 * D, n)) % n
    acc = 1
    for start in range(0, len(rows), _PM1_BLOCK):
        for row in rows[start : start + _PM1_BLOCK]:
            for b in row:
                acc = acc * (cur - baby[b]) % n
            prev, cur = cur, (vd * cur - prev) % n
        g = math.gcd(acc, n)
        if g != 1:
            return g
    return 1


def _ecm_bounds():
    """Stage-1 bounds of successive curves: _ECM_B1 * _ECM_GROWTH**i for
    curve i, rounded, over the pretest and the ramp after it, until that
    reaches the trial bound; then the trial bound for good.

    >>> b1s = list(itertools.islice(_ecm_bounds(), 75))
    >>> b1s[_ECM_PRETEST - 1 : _ECM_PRETEST + 1], b1s.index(_TRIAL_BOUND), b1s[-3:]
    ([673, 740], 73, [95559, 100000, 100000])
    """
    for i in itertools.count():
        b1 = round(_ECM_B1 * _ECM_GROWTH**i)
        if b1 >= _TRIAL_BOUND:
            break
        yield b1
    yield from itertools.repeat(_TRIAL_BOUND)


def _ecm(n: int, rng: random.Random, b1s, pm1: bool) -> tuple[int, bool]:
    """(d, pm1'): d a nontrivial factor of composite n (not necessarily
    prime), by Lenstra's elliptic-curve method (Ann. Math. 126 (1987)), and
    pm1' whether _pminus1 may still try d and n/d.

    Each curve takes its stage-1 bound b1 from the iterator b1s, shared by
    every composite of one factorization, and its sigma from rng, and runs
    stage 2 to _ECM_B2 * b1.  When pm1 is set, _pminus1 runs once before the
    first curve past the pretest; where it fails on n it fails on every
    divisor of n too, since whether it finds a prime depends on that prime
    alone.  n must be composite and free of the primes of the first trial
    block.
    """
    past_pretest = round(_ECM_B1 * _ECM_GROWTH**_ECM_PRETEST)  # the 22nd curve's b1
    while True:
        b1 = next(b1s)
        if pm1 and b1 >= past_pretest:
            g = _pminus1(n)
            if g != 1 and g != n:
                return g, True
            pm1 = False
        g = _ecm_curve(n, rng.randrange(6, n - 1), b1, _ECM_B2 * b1)
        if g != 1 and g != n:
            return g, pm1


def factorize(n: int, seed: int | None = None) -> list[tuple[int, int]]:
    """Factor n >= 1 into a sorted list of (prime, exponent) pairs.

    Four stages: trial division by the primes below the trial bound, then
    Brent's rho on each composite left, stopped after _RHO_CAP steps, then
    the elliptic-curve method on the composites rho leaves, with Pollard's
    p - 1 inside it.  The curves share one schedule of stage-1 bounds
    (_ecm_bounds), which grows from _ECM_B1 by _ECM_GROWTH per curve.  Its
    pretest of _ECM_PRETEST curves, to 673, mostly finds factors of up to
    about 13 digits in a few hundredths of a second.  Its ramp of 52 more
    curves, from 740 to 95559, meets a factor of 13 to 16 digits near its
    optimal bound, about 2000 for 15 digits (Zimmermann and Dodson, ANTS
    VII (2006)), long before the trial bound, and costs about as much as
    ten curves at that bound.  Every later curve runs at the trial bound,
    10**5, which costs 0.3 s or more per curve and suits factors of up to
    about 25 digits.  A composite that reaches the first curve past the
    pretest first gets one run of p - 1, with bounds _PM1_B1 = 20000 and
    _PM1_B2 = 10**6, unless p - 1 already failed on a multiple of it; it
    splits off any prime p whose p - 1 is 20000-powersmooth times one prime
    up to 10**6, at any size, in tens of milliseconds.
    Rho's parameters and every curve's sigma come from one generator
    seeded by seed (default 0xD1CE), so the work done is fixed for a fixed
    seed; p - 1 is seed-free, and the result, the unique factorization, is
    the same for every seed.  The generator is built only when rho runs or
    a cofactor above 2**64 is tested for primality.

    Trial division always walks the first block, the primes up to 311.
    From the next block on it tests each new cofactor below 2**64 once: a
    prime ends the factorization, and a composite of at least 10**10 goes
    to rho at once; a smaller composite has a prime factor below the trial
    bound, and the walk goes on to find it.  A cofactor of 2**64 or more
    is walked as far as the square of a block's first prime allows, since
    testing it would draw from the generator.

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
    tested = 0  # the last cofactor below 2**64 that the walk tested
    for i, (product, block) in enumerate(_trial_block_table()):
        if block[0] * block[0] > n:
            break  # n has no prime factor below block[0], so it is 1 or prime
        if i and n < _DETERMINISTIC_BOUND and n != tested:
            tested = n
            if is_prime(n):
                factors[n] = 1
                n = 1
                break
            if n >= _TRIAL_BOUND * _TRIAL_BOUND:
                break  # rho takes it; below that the walk finds its factors
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
    b1s = None  # one schedule of stage-1 bounds for every composite ECM gets
    # (cofactor, whether rho may try it, whether p - 1 may)
    stack = [(n, True, True)] if n > 1 else []
    while stack:
        m, rho, pm1 = stack.pop()
        # a cofactor the walk tested and left over is composite
        if m != tested and is_prime(m, seeded() if m >= _DETERMINISTIC_BOUND else None):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m, seeded()) if rho else None
        if d is None:
            b1s = b1s or _ecm_bounds()
            (d, pm1), rho = _ecm(m, seeded(), b1s, pm1), False
        stack += [(d, rho, pm1), (m // d, rho, pm1)]
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
