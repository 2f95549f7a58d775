"""The benchmark's workloads: seeded inputs, the timed operation, and the check
of every result.

Each workload draws its inputs from a seed.  Inputs are distinct within a run,
and the warm-up inputs never occur among the timed ones.  Where one input costs
much more than another and the universe is too large to take whole, the timed
inputs are a cost-stratified sample (one input from each of n cost-ranked
strata, redrawn until the total cost is within 2% of its mean), so different
seeds give different inputs but nearly the same amount of work.  The costs
used for that come from `pins.json`, which `pin.py` measures.

Results are canonical JSON-able dicts.  A result is checked against pinned
values where the input universe is finite, against pinned values of the
default seed otherwise, and always against invariants that tie two layers
together.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import random
import signal
import sys
from fractions import Fraction
from typing import Callable

from kzeta import characters, ktheory

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(BENCH_DIR, "pins.json")
DEFAULT_SEED = 0
PINNED_SECONDS = 25  # run_seconds in BENCHMARK.json; default-seed pins hold for it


# --- deadline ---------------------------------------------------------------


class DeadlineExceeded(BaseException):
    """Raised inside an operation when its deadline passes.

    A BaseException, so that library code catching Exception cannot swallow it.
    """


def _fire(signum, frame):
    raise DeadlineExceeded()


@contextlib.contextmanager
def deadline(seconds: float):
    """Stop the enclosed code after `seconds` of wall-clock time (SIGALRM)."""
    previous = signal.signal(signal.SIGALRM, _fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# --- helpers ----------------------------------------------------------------


def clear_caches() -> None:
    """Empty kzeta's memo caches (functools.lru_cache), so that an op repeated
    in a later pass does all of its work again.  Tables that only grow and
    that the warm-up fills (Bernoulli numbers, trial-division primes) stay."""
    seen = set()
    for name, module in list(sys.modules.items()):
        if name != "kzeta" and not name.startswith("kzeta."):
            continue
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)) and id(obj) not in seen:
                seen.add(id(obj))
                obj.cache_clear()


def digest(obj) -> str:
    """Short hash of the canonical JSON of a result, as pinned in pins.json."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def load_pins(path: str = PINS_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def sieve(n: int) -> list[int]:
    """Primes <= n; the benchmark's own, so inputs do not depend on kzeta."""
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return [i for i, f in enumerate(flags) if f]


def prime_factors(n: int) -> dict[int, int]:
    """Trial-division factorization; only used on small numbers."""
    out: dict[int, int] = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def op_count(per_10s: int, seconds: float, limit: int) -> int:
    """Op count for a run of `seconds`, scaled from the count sized for 10 s
    (all passes together)."""
    return max(1, min(limit, round(per_10s * seconds / 10)))


def stratified_sample(rng: random.Random, items, cost, n: int):
    """One item from each of n contiguous strata of the cost-ranked items,
    redrawn until the total cost is within 2% of its mean (or the draw closest
    to it of 10 000); in seeded order."""
    ranked = sorted(items, key=lambda it: (cost(it), it))
    n = min(n, len(ranked))
    cut = [len(ranked) * i // n for i in range(n + 1)]
    strata = [ranked[cut[i] : cut[i + 1]] for i in range(n)]
    target = sum(sum(map(cost, s)) / len(s) for s in strata)
    best = None
    for _ in range(10_000):
        pick = [rng.choice(s) for s in strata]
        miss = abs(sum(map(cost, pick)) - target)
        if best is None or miss < best[0]:
            best = (miss, pick)
        if miss <= 0.02 * target:
            break
    pick = best[1]
    rng.shuffle(pick)
    return pick


# --- realcyc-norm -------------------------------------------------------------
# k_order(Q(zeta_m)^+, 1) for prime m in 40..180.  The cost is the orbit norms:
# one resultant per divisor d > 1 of (m-1)/2, of Sylvester size ~2d.  The grid
# is small (29 conductors), so every run takes all of it, in seeded order.  The
# upper bound keeps a pass near 2.5 s, so that each op gets eight tries spread
# over the run.

REALCYC_RANGE = (40, 180)
REALCYC_WARMUP = (23, 29, 31, 37)


def realcyc_universe() -> list[int]:
    lo, hi = REALCYC_RANGE
    return [m for m in sieve(hi) if m > lo]


def realcyc_inputs(seed: int, seconds: float, pins: dict):
    timed = realcyc_universe()
    random.Random("realcyc-norm/%d" % seed).shuffle(timed)
    return list(REALCYC_WARMUP), timed


def realcyc_run(m: int) -> dict:
    report = ktheory.k_order(characters.FieldSpec.real_cyclotomic(m), 1, factor=False)
    return {"order": str(report.order)}


def realcyc_check(m: int, result: dict, pins: dict) -> str | None:
    if digest(result["order"]) != pins["realcyc-norm"]["universe"][str(m)]["order"]:
        return "order differs from the pinned order"
    order = int(result["order"])
    for p in prime_factors(m - 1):
        if p == 2:
            continue
        v = ktheory.divisibility_verdict(p, m, 1)
        if v.status == "GuaranteedDivisible" and order % p**v.exponent_lower_bound:
            return "verdict says %d^%d divides the order; it does not" % (
                p,
                v.exponent_lower_bound,
            )
    return None


# --- cyclic-dlog --------------------------------------------------------------
# k_order of the degree-p subfield of Q(zeta_ell), k = p-2.  Few characters,
# long bucket sums: one discrete log per residue mod ell.  A discrete log costs
# up to twice as much for one ell as for another (Pohlig-Hellman over ell - 1),
# so inputs are stratified by their pinned cost, the best of three measured
# latencies.

CYCLIC_RANGE = (2000, 5000)
CYCLIC_PRIMES = (3, 5)
CYCLIC_WARMUP = ((1009, 3), (1021, 5))


def cyclic_universe() -> list[tuple[int, int]]:
    lo, hi = CYCLIC_RANGE
    return [(ell, p) for ell in sieve(hi) if ell > lo for p in CYCLIC_PRIMES if ell % p == 1]


def cyclic_inputs(seed: int, seconds: float, pins: dict):
    cost = pins["cyclic-dlog"]["cost"]
    uni = cyclic_universe()
    rng = random.Random("cyclic-dlog/%d" % seed)
    n = op_count(12, seconds, len(uni))
    timed = stratified_sample(rng, uni, lambda it: cost["%d,%d" % it], n)
    return list(CYCLIC_WARMUP), timed


def cyclic_run(inp) -> dict:
    ell, p = inp
    spec = characters.FieldSpec.prime_cyclic_subfield(ell, p)
    return {"order": str(ktheory.k_order(spec, p - 2, factor=False).order)}


def cyclic_check(inp, result: dict, pins: dict) -> str | None:
    ell, p = inp
    if (int(result["order"]) % p == 0) != ktheory.browkin_divisible(p, ell):
        return "p | order disagrees with browkin_divisible"
    return None


# --- korder-factor ------------------------------------------------------------
# The `kzeta korder` path: exact order, then its factorization.  Pollard rho
# cannot split some of these orders in any short time.  The op deadline stops
# the factoring; the op then returns the exact order with the factorization
# marked incomplete, which counts against complete_ratio.  The grid is small, so
# every run takes all of it and cuts the same inputs.  The seed orders the
# conductors; each runs its k in ascending order.

KORDER_M_MAX = 43
KORDER_KS = (1, 3, 5, 7)
KORDER_WARMUP = ((47, 1), (53, 1))


def korder_universe() -> list[tuple[int, int]]:
    return [(m, k) for m in sieve(KORDER_M_MAX) if m > 2 for k in KORDER_KS]


def korder_inputs(seed: int, seconds: float, pins: dict):
    ms = sorted({m for m, _ in korder_universe()})
    random.Random("korder-factor/%d" % seed).shuffle(ms)
    return list(KORDER_WARMUP), [(m, k) for m in ms for k in KORDER_KS]


def korder_run(inp) -> dict:
    m, k = inp
    report = ktheory.k_order(characters.FieldSpec.real_cyclotomic(m), k, factor=False)
    try:
        factors = [list(pe) for pe in ktheory.factorize(report.order)]
    except DeadlineExceeded:
        factors = None
    return {"order": str(report.order), "factors": factors, "complete": factors is not None}


def korder_check(inp, result: dict, pins: dict) -> str | None:
    entry = pins["korder-factor"]["universe"]["%d,%d" % inp]
    if digest(result["order"]) != entry["order"]:
        return "order differs from the pinned order"
    factors = result["factors"]
    if factors is None:
        return None
    product = 1
    for q, e in factors:
        if not ktheory.is_prime(q):
            return "factor %d is not prime" % q
        product *= q**e
    if product != int(result["order"]):
        return "factors do not multiply back to the order"
    if "factors" in entry and digest(factors) != entry["factors"]:
        return "factorization differs from the pinned one"
    return None


# --- stats --------------------------------------------------------------------
# Many divisibility verdicts and lower bounds on m up to ~10^12, built from
# known primes so an independent oracle can check them, plus a few density
# counts up to x ~ 5 * 10^6 from a pinned table.  m takes three shapes: smooth (a
# little trial division); a prime P of 10 digits times a prime below 100, for
# half of the ops (trial division to sqrt(P), then a primality test); and a
# product of two 6-digit primes (all of trial division, then Pollard rho).
# The median op is of the uniform P shape.  A 25 s run has twelve density
# counts, so the op with ten ops beyond it is a density count: their costs
# hardly differ, whereas the top of the rho shape is set by a few chance ops.

STATS_PRIMES = (3, 5, 7, 11, 13)
STATS_KS = (1, 3, 5, 7, 9, 11)
STATS_SHAPES = ("smooth", "prime", "prime", "semiprime")
DENSITY_PRIMES = (3, 5, 7, 11)
DENSITY_XS = tuple(5 * 10**6 + 10**4 * i for i in range(8))
DENSITY_WARMUP = ("density", 3, 200_000)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the bases that decide every n < 3.4e14."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17)
    if n in bases:
        return True
    if any(n % b == 0 for b in bases):
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _draw_m(rng: random.Random, p: int, shape: str, small, big) -> dict[int, int]:
    if shape == "semiprime":
        return dict.fromkeys(rng.sample(big, 2), 1)
    pool = [q for q in small if q % p == 1] if rng.random() < 0.6 else small
    if shape == "prime":
        big_p = rng.randrange(10**9, 10**10)
        while not is_prime(big_p):
            big_p += 1
        return {rng.choice([q for q in pool if q < 100] or [2]): 1, big_p: 1}
    return dict.fromkeys(rng.sample(pool, min(len(pool), rng.randint(1, 3))), 1)


def stats_inputs(seed: int, seconds: float, pins: dict):
    rng = random.Random("stats/%d" % seed)
    primes = sieve(10**6)
    small = [q for q in primes if q < 2000]
    big = [q for q in primes if q > 10**5]
    n = op_count(400, seconds, 10**6) + 8
    ops, seen = [], set()
    while len(ops) < n:
        i = len(ops)
        p = rng.choice(STATS_PRIMES)
        kind = "verdict" if i % 2 else "bound"
        k = rng.choice([k for k in STATS_KS if kind == "verdict" or k + 2 <= p])
        fac = _draw_m(rng, p, STATS_SHAPES[i // 2 % 4], small, big)
        m = math.prod(q**e for q, e in fac.items())
        if m < 2 or (kind, p, m, k) in seen:
            continue
        seen.add((kind, p, m, k))
        ops.append((kind, p, m, k, tuple(sorted(fac.items()))))
    table = sorted((p, x) for p in DENSITY_PRIMES for x in DENSITY_XS)
    density = [("density", p, x) for p, x in rng.sample(table, op_count(4.8, seconds, len(table)))]
    warmup = ops[:8] + [DENSITY_WARMUP]
    timed = ops[8:] + density
    rng.shuffle(timed)
    return warmup, timed


def stats_run(inp) -> dict:
    if inp[0] == "density":
        _, p, x = inp
        rep = ktheory.browkin_density(p, x)
        return {"n_p": rep.n_p, "n_p2": rep.n_p2}
    kind, p, m, k, _ = inp
    if kind == "bound":
        return {"bound": ktheory.lower_bound_exponent(p, k, m)}
    v = ktheory.divisibility_verdict(p, m, k)
    return {"status": v.status, "bound": v.exponent_lower_bound, "why": list(v.justification)}


def _s_counts(p: int, fac) -> dict[int, int]:
    """{j: number of prime divisors ell of m with v_p(ell - 1) = j >= 1}."""
    counts: dict[int, int] = {}
    for ell, _ in fac:
        j = 0
        while (ell - 1) % p ** (j + 1) == 0:
            j += 1
        if j:
            counts[j] = counts.get(j, 0) + 1
    return counts


def oracle_bound(p: int, k: int, fac) -> int:
    """The character-product lower bound, from the known factorization of m."""
    s = _s_counts(p, fac)
    if not s:
        return 0
    delta = 0 if p > k + 2 else 1

    def e(j):
        return sum(min(i, j) * c for i, c in s.items())

    total = Fraction(p ** e(1) - 1 - p ** (delta * s.get(1, 0)) + delta, p - 1)
    for j in range(2, max(s) + 1):
        total += Fraction(p ** e(j) - p ** e(j - 1), p ** (j - 1) * (p - 1))
    return math.ceil(total)


def oracle_verdict(p: int, m: int, k: int, fac) -> dict:
    """The verdict rules of the paper applied to the known factorization of m."""
    s = _s_counts(p, fac)
    period = 2 if m % p == 0 else p - 1
    candidates = sorted(
        (c for c in range(1, p - 1, 2) if (k - c) % period == 0), key=lambda c: (c != k, c)
    )
    for k0 in candidates:
        if (k0 < p - 2 and s) or (k0 == p - 2 and max(s, default=0) >= 2):
            if k0 == k:
                bound, why = max(1, oracle_bound(p, k, fac)), ["bernoulli-product-lower-bound"]
            else:
                bound = 1
                why = ["bernoulli-product-lower-bound", "p-rank-periodicity", "higher-k-divisibility"]
            return {"status": "GuaranteedDivisible", "bound": bound, "why": why}
    if fac == ((m, 1),) and m == 2 * p + 1 and (k - (p - 2)) % period == 0:
        why = ["prime-conductor-criterion"] + (["p-rank-periodicity"] if k != p - 2 else [])
        return {"status": "GuaranteedNotDivisible", "bound": None, "why": why}
    return {"status": "Unknown", "bound": None, "why": []}


def stats_check(inp, result: dict, pins: dict) -> str | None:
    if inp[0] == "density":
        _, p, x = inp
        want = pins["stats"]["density"]["%d,%d" % (p, x)]
        return None if [result["n_p"], result["n_p2"]] == want else "density differs from pinned"
    kind, p, m, k, fac = inp
    want = {"bound": oracle_bound(p, k, fac)} if kind == "bound" else oracle_verdict(p, m, k, fac)
    return None if result == want else "%s differs from the oracle %s" % (kind, want)


# --- registry -----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    deadline_s: float  # per-op; far above every op that finishes, far below every op that does not
    passes: int  # times each timed op runs; its latency is the best of them
    inputs: Callable  # (seed, seconds, pins) -> (warm-up inputs, timed inputs)
    run: Callable  # input -> canonical result
    check: Callable  # (input, result, pins) -> None, or the reason the result is wrong


WORKLOADS = {
    w.name: w
    for w in (
        Workload("realcyc-norm", 20.0, 8, realcyc_inputs, realcyc_run, realcyc_check),
        Workload("cyclic-dlog", 10.0, 12, cyclic_inputs, cyclic_run, cyclic_check),
        Workload("korder-factor", 0.15, 9, korder_inputs, korder_run, korder_check),
        Workload("stats", 15.0, 6, stats_inputs, stats_run, stats_check),
    )
}


def check_default_seed(name: str, seed: int, timed, results, pins: dict) -> list[str | None]:
    """Per-op mismatch against the pinned results of the default seed, where pinned."""
    joined = pins.get(name, {}).get("default_seed", "")
    pinned = [joined[i : i + 8] for i in range(0, len(joined), 8)]
    if seed != DEFAULT_SEED or not pinned or len(pinned) != len(timed):
        return [None] * len(timed)
    return [
        None if r is None or digest([inp, r]) == want else "result differs from the pinned one"
        for inp, r, want in zip(timed, results, pinned)
    ]
