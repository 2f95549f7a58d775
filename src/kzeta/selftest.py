"""Self-verification checks shared by the CLI selftest command and the test
suite.

The centerpiece is the reproduction table: reference orders of K_{2k} for the
real cyclotomic fields of conductor 7 through 31, recomputed from scratch and
compared digit for digit, factorization string included.  The rest are the
integer-side property suites (Bernoulli denominators, power-sum denominators
d_n, the f_n lemmas), divisibility cross-checks, and the prime-density
statistic.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

from .arith import (
    Poly,
    factorization_string,
    factorize,
    is_prime,
    primes_up_to,
    valuation,
)
from .characters import FieldSpec
from .ktheory import (
    browkin_density,
    browkin_divisible,
    k_order,
    lower_bound_exponent,
)
from .lfun import char_bernoulli_pi_valuation, product_valuation
from .powersum import (
    bernoulli_number,
    bernoulli_polynomial,
    brute_power_sum,
    power_sum_data,
    s_polynomial,
    vsc_denominator,
)


@dataclasses.dataclass(frozen=True)
class CheckResult:
    label: str
    ok: bool
    detail: str


def _check(label: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(label, bool(ok), detail)


def _summary(label: str, bad: list, ok_detail: str, shown: int | None = None) -> CheckResult:
    """One check over a list of failures: it passes when bad is empty, and
    otherwise names the first `shown` of them (all by default)."""
    return _check(label, not bad, "failures: %r" % (bad[:shown],) if bad else ok_detail)


# Reference orders of K_{2k}(Z[zeta_m + zeta_m^-1]): (m, k, order, factorization
# string or None when only the order is pinned).
K_ORDER_TABLE_QUICK: tuple[tuple[int, int, int, str | None], ...] = (
    (7, 1, 8, "2^3"),
    (7, 3, 79, "79"),
    (7, 5, 59144, "2^3·7393"),
    (7, 7, 142490119, None),
    (7, 9, 9131618598968, "2^3·1141452324871"),
    (7, 11, 2101941875088322867, "691·10903·278995143079"),
    (11, 1, 160, "2^5·5"),
    (11, 3, 847811, "71·11941"),
    (11, 5, 407495402731360, "2^5·5·521·4888380551"),
    (11, 7, 3543010400763352360091, "13721·2520121·102462575851"),
    (13, 1, 1216, "2^6·19"),
    (13, 3, 316792259, "7·29·103·109·139"),
    (13, 5, 99222088525421989696, "2^6·73·109·307·2341·2953·91807"),
)

K_ORDER_TABLE_FULL: tuple[tuple[int, int, int, str | None], ...] = (
    (19, 1, 2244096, "2^9·3^2·487"),
    (19, 3, 540700931767472649, "3^2·61·67·883·16647509341"),
    (23, 1, 837613568, "2^11·11·37181"),
    (23, 3, 6952891386341432645005057, "11·1607·120263419·3270569157439"),
    (31, 1, 580922038681600, "2^17·5^2·7·11·2302381"),
)


def korder_row_check(
    m: int,
    k: int,
    expected_order: int,
    expected_factorization: str | None = None,
    seed: int | None = None,
) -> CheckResult:
    report = k_order(FieldSpec.real_cyclotomic(m), k, seed=seed)
    got = factorization_string(report.factorization)
    ok = report.order == expected_order
    if expected_factorization is not None:
        ok = ok and got == expected_factorization
    return _check(
        "K_%d(Z[zeta_%d+zeta_%d^-1]) = %d" % (2 * k, m, m, expected_order),
        ok,
        "computed %d = %s" % (report.order, got),
    )


def korder_table_checks(level: str = "quick", seed: int | None = None) -> list[CheckResult]:
    rows = K_ORDER_TABLE_QUICK
    if level == "full":
        rows = rows + K_ORDER_TABLE_FULL
    return [korder_row_check(m, k, order, fac, seed=seed) for m, k, order, fac in rows]


def _squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factorize(n))


def vsc_checks(max_n: int = 100) -> list[CheckResult]:
    """Denominator of B_n equals the product of primes q with (q-1) | n."""
    bad = []
    for n in range(2, max_n + 1, 2):
        den = bernoulli_number(n).denominator
        if den != vsc_denominator(n):
            bad.append((n, "denominator"))
        if not _squarefree(den):
            bad.append((n, "squarefree"))
        if any(q > n + 1 for q, _ in factorize(den)):
            bad.append((n, "prime bound"))
    return [_summary("Bernoulli denominators, even n <= %d" % max_n, bad, "all match", 4)]


def dn_checks(max_n: int = 100) -> list[CheckResult]:
    """d_n is (n+1) times a squarefree number with small prime divisors."""
    bad = []
    for n in range(1, max_n + 1):
        data = power_sum_data(n)
        d = data.d
        if d % (n + 1) != 0:
            bad.append((n, "(n+1) | d_n"))
            continue
        q = d // (n + 1)
        if not _squarefree(q):
            bad.append((n, "squarefree part"))
        if any(Fraction(p) > data.M for p, _ in factorize(q) if q > 1):
            bad.append((n, "M_n bound"))
        if any(p > n + 1 for p, _ in factorize(d) if d > 1):
            bad.append((n, "n+1 bound"))
        if is_prime(n + 1) and valuation(d, n + 1) != 1:
            bad.append((n, "exact division"))
    return [_summary("d_n divisor structure, n <= %d" % max_n, bad, "all match", 4)]


def fn_checks(max_n: int = 100) -> list[CheckResult]:
    """f_n = d_n S_n/(x-1) satisfies f_n(1) = d_n B_n(1) and the prime rule.

    B_n(1) = B_n for every n >= 2; at n = 1 the sign flips (f_1 = x, so
    f_1(1) = 1 = -d_1 B_1), which is why the check evaluates the polynomial.
    """
    bad = []
    for n in range(1, max_n + 1):
        data = power_sum_data(n)
        f = data.f
        at_one = f.evaluate(1)
        if at_one != data.d * bernoulli_polynomial(n).evaluate(Fraction(1)):
            bad.append((n, "f_n(1)"))
        if n >= 2 and at_one != data.d * bernoulli_number(n):
            bad.append((n, "f_n(1) vs B_n"))
        if n % 2 == 1 and n >= 3:
            _, rem = divmod(f, Poly((-1, 1)))
            if not rem.is_zero():
                bad.append((n, "(x-1) | f_n"))
        if n + 1 > 2 and is_prime(n + 1):
            if int(at_one) % (n + 1) == 0:
                bad.append((n, "(n+1) does not divide f_n(1)"))
    return [_summary("f_n lemmas, n <= %d" % max_n, bad, "all match", 4)]


def powersum_identity_checks(max_n: int = 60, max_m: int = 50) -> list[CheckResult]:
    bad = []
    for n in range(1, max_n + 1):
        poly = s_polynomial(n)
        for m in range(1, max_m + 1):
            if poly.evaluate(m) != brute_power_sum(m, n):
                bad.append((n, m))
    label = "power-sum identity, n <= %d, m <= %d" % (max_n, max_m)
    return [_summary(label, bad, "all equal", 4)]


# Largest prime conductor of the criterion agreement check, and the x of the
# prime-density check.
_BROWKIN_LIMIT = 100
_DENSITY_X = 200000


def browkin_smoke_checks() -> list[CheckResult]:
    """Three routes to p | #K_{2(p-2)} for prime conductors must agree."""
    bad = []
    count = 0
    for p in (3, 5, 7):
        for ell in primes_up_to(_BROWKIN_LIMIT):
            if ell % p != 1:
                continue
            count += 1
            spec = FieldSpec.prime_cyclic_subfield(ell, p)
            by_criterion = browkin_divisible(p, ell)
            chi = next(c for c in spec.sorted_characters() if not c.is_trivial())
            by_valuation = char_bernoulli_pi_valuation(chi, p - 2, 1) >= 1
            by_order = k_order(spec, p - 2, factor=False).order % p == 0
            if not (by_criterion == by_valuation == by_order):
                bad.append((p, ell, by_criterion, by_valuation, by_order))
    label = "divisibility criterion agreement, conductors <= %d" % _BROWKIN_LIMIT
    result = _summary(label, bad, "%d conductors agree" % count)
    return [result if count else dataclasses.replace(result, ok=False)]  # nothing compared


# Lower-bound exponents: (p, k values, m as written, expected exponent, how
# it is confirmed).  'order' compares v_p of #K_{2k} of Q(zeta_m)^+,
# 'valuation' bounds the product valuation of the max-p subfield by it, and
# any other entry is the closed form the exponent sums to.
_BOUND_ROWS: tuple[tuple[int, tuple[int, ...], str, int, str], ...] = (
    (3, (1,), "19", 2, "order"),
    (5, (1,), "11", 1, "order"),
    (5, (3,), "11", 0, "order"),
    (7, (3,), "29", 1, "valuation"),
    (3, (1,), "133", 6, "valuation"),
    (7, (1, 3), "29*43*71", 57, "1 + 7 + 7^2 = 57"),
    (5, (1,), "11*31*41*61*71", 781, "1 + 5 + 25 + 125 + 625 = 781"),
    (7, (1,), "29*43", 8, "valuation"),
)


def bound_checks() -> list[CheckResult]:
    """Lower-bound exponents against actual orders, product valuations and
    closed forms."""
    out = []
    for p, ks, m_text, want, confirm in _BOUND_ROWS:
        m = math.prod(map(int, m_text.split("*")))
        bounds = [lower_bound_exponent(p, k, m) for k in ks]
        ok = bounds == [want] * len(ks)
        label = "bound (p=%d, m=%s, k=%d)" % (p, m_text, ks[0])
        if confirm == "order":
            order = k_order(FieldSpec.real_cyclotomic(m), ks[0], factor=False).order
            actual = valuation(order, p)
            label += " meets actual" if want else " is 0 and sharp"
            ok, detail = ok and actual == want, "bound %d, v_%d = %d" % (bounds[0], p, actual)
        elif confirm == "valuation":
            pv = product_valuation(FieldSpec.max_p_subextension(m, p), p, ks[0])
            label += " via product valuation"
            ok, detail = ok and pv >= want, "bound %d, valuation %s" % (bounds[0], pv)
        else:
            label, detail = "closed form (p=%d, m=%s) = %d" % (p, m_text, want), confirm
        out.append(_check(label, ok, detail))
    return out


# Valuation congruences: (p, prime conductors, (level N, least v_pi(B_2))
# pairs, label) for the order-p characters of the degree-p fields.
_CONGRUENCE_ROWS: tuple[tuple[int, tuple[int, ...], tuple[tuple[int, int], ...], str], ...] = (
    (5, (11, 31, 41), ((1, 1),), "order-5 characters, conductors 11/31/41: v_pi(B_2) >= 1"),
    (
        3,
        (19, 37),
        ((1, 1), (2, 3)),
        "order-3 characters, conductors 19/37: v_pi >= 1 at level 1, >= 3 at level 2",
    ),
)


def congruence_checks() -> list[CheckResult]:
    """Valuation congruences for characters of small prime-power order."""
    out = []
    for p, ells, floors, label in _CONGRUENCE_ROWS:
        bad = []
        for ell in ells:
            for chi in FieldSpec.prime_cyclic_subfield(ell, p).sorted_characters():
                if chi.is_trivial():
                    continue
                vs = [char_bernoulli_pi_valuation(chi, 1, n) for n, _ in floors]
                if any(v < least for v, (_, least) in zip(vs, floors)):
                    bad.append((p, ell, *vs))
        out.append(_summary(label, bad, "all satisfied"))
    return out


def density_checks() -> list[CheckResult]:
    out = []
    for p in (3, 5):
        rep = browkin_density(p, _DENSITY_X)
        close = abs(rep.ratio - Fraction(1, p)) < Fraction(5, 100)
        out.append(
            _check(
                "prime density ratio near 1/%d at x = %d" % (p, _DENSITY_X),
                close,
                "n_p = %d, n_p2 = %d, ratio = %s" % (rep.n_p, rep.n_p2, rep.ratio),
            )
        )
    return out


def run_selftest(level: str = "quick", seed: int | None = None) -> list[CheckResult]:
    """All checks for the requested level; quick is the conductor 7/11/13
    reproduction table, full adds conductors 19/23/31 and the property suites."""
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full', got %r" % (level,))
    results = korder_table_checks(level, seed=seed)
    if level == "full":
        results += powersum_identity_checks(60, 50)
        results += vsc_checks(100) + dn_checks(100) + fn_checks(100)
        results += browkin_smoke_checks()
        results += bound_checks()
        results += congruence_checks()
        results += density_checks()
    return results
