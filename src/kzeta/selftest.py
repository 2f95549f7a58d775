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
    return [
        _check(
            "Bernoulli denominators, even n <= %d" % max_n,
            not bad,
            "failures: %r" % (bad[:4],) if bad else "all match",
        )
    ]


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
    return [
        _check(
            "d_n divisor structure, n <= %d" % max_n,
            not bad,
            "failures: %r" % (bad[:4],) if bad else "all match",
        )
    ]


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
    return [
        _check(
            "f_n lemmas, n <= %d" % max_n,
            not bad,
            "failures: %r" % (bad[:4],) if bad else "all match",
        )
    ]


def powersum_identity_checks(max_n: int = 60, max_m: int = 50) -> list[CheckResult]:
    bad = []
    for n in range(1, max_n + 1):
        poly = s_polynomial(n)
        for m in range(1, max_m + 1):
            if poly.evaluate(m) != brute_power_sum(m, n):
                bad.append((n, m))
    return [
        _check(
            "power-sum identity, n <= %d, m <= %d" % (max_n, max_m),
            not bad,
            "failures: %r" % (bad[:4],) if bad else "all equal",
        )
    ]


def powersum_suite_checks(max_n: int = 100) -> list[CheckResult]:
    out = []
    out += powersum_identity_checks(min(max_n, 60), 50)
    out += vsc_checks(max_n)
    out += dn_checks(max_n)
    out += fn_checks(max_n)
    return out


def browkin_smoke_checks(limit: int = 100) -> list[CheckResult]:
    """Three routes to p | #K_{2(p-2)} for prime conductors must agree."""
    bad = []
    count = 0
    for p in (3, 5, 7):
        for ell in primes_up_to(limit):
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
    return [
        _check(
            "divisibility criterion agreement, conductors <= %d" % limit,
            not bad and count > 0,
            "failures: %r" % (bad,) if bad else "%d conductors agree" % count,
        )
    ]


def bound_checks() -> list[CheckResult]:
    """Lower-bound exponents against actual orders and product valuations."""
    out = []

    lb = lower_bound_exponent(3, 1, 19)
    actual = valuation(k_order(FieldSpec.real_cyclotomic(19), 1, factor=False).order, 3)
    out.append(
        _check(
            "bound (p=3, m=19, k=1) meets actual",
            lb == 2 and actual == 2,
            "bound %d, v_3 = %d" % (lb, actual),
        )
    )

    lb = lower_bound_exponent(5, 1, 11)
    actual = valuation(k_order(FieldSpec.real_cyclotomic(11), 1, factor=False).order, 5)
    out.append(
        _check(
            "bound (p=5, m=11, k=1) meets actual",
            lb == 1 and actual == 1,
            "bound %d, v_5 = %d" % (lb, actual),
        )
    )

    lb = lower_bound_exponent(5, 3, 11)
    actual = valuation(k_order(FieldSpec.real_cyclotomic(11), 3, factor=False).order, 5)
    out.append(
        _check(
            "bound (p=5, m=11, k=3) is 0 and sharp",
            lb == 0 and actual == 0,
            "bound %d, v_5 = %d" % (lb, actual),
        )
    )

    lb = lower_bound_exponent(7, 3, 29)
    pv = product_valuation(FieldSpec.max_p_subextension(29, 7), 7, 3)
    out.append(
        _check(
            "bound (p=7, m=29, k=3) via product valuation",
            lb == 1 and pv >= 1,
            "bound %d, valuation %s" % (lb, pv),
        )
    )

    lb = lower_bound_exponent(3, 1, 133)
    pv = product_valuation(FieldSpec.max_p_subextension(133, 3), 3, 1)
    out.append(
        _check(
            "bound (p=3, m=133, k=1) via product valuation",
            lb == 6 and pv >= 6,
            "bound %d, valuation %s" % (lb, pv),
        )
    )

    m3 = 29 * 43 * 71
    out.append(
        _check(
            "closed form (p=7, m=29*43*71) = 57",
            lower_bound_exponent(7, 1, m3) == 57 and lower_bound_exponent(7, 3, m3) == 57,
            "1 + 7 + 7^2 = 57",
        )
    )
    m5 = 11 * 31 * 41 * 61 * 71
    out.append(
        _check(
            "closed form (p=5, m=11*31*41*61*71) = 781",
            lower_bound_exponent(5, 1, m5) == 781,
            "1 + 5 + 25 + 125 + 625 = 781",
        )
    )

    lb = lower_bound_exponent(7, 1, 29 * 43)
    pv = product_valuation(FieldSpec.max_p_subextension(29 * 43, 7), 7, 1)
    out.append(
        _check(
            "bound (p=7, m=29*43, k=1) via product valuation",
            lb == 8 and pv >= 8,
            "bound %d, valuation %s" % (lb, pv),
        )
    )
    return out


def congruence_checks() -> list[CheckResult]:
    """Valuation congruences for characters of small prime-power order."""
    out = []
    bad = []
    for ell in (11, 31, 41):
        spec = FieldSpec.prime_cyclic_subfield(ell, 5)
        for chi in spec.sorted_characters():
            if chi.is_trivial():
                continue
            v = char_bernoulli_pi_valuation(chi, 1, 1)
            if v < 1:
                bad.append((5, ell, v))
    out.append(
        _check(
            "order-5 characters, conductors 11/31/41: v_pi(B_2) >= 1",
            not bad,
            "failures: %r" % (bad,) if bad else "all satisfied",
        )
    )
    bad = []
    for ell in (19, 37):
        spec = FieldSpec.prime_cyclic_subfield(ell, 3)
        for chi in spec.sorted_characters():
            if chi.is_trivial():
                continue
            v1 = char_bernoulli_pi_valuation(chi, 1, 1)
            v2 = char_bernoulli_pi_valuation(chi, 1, 2)
            if v1 < 1 or v2 < 3:
                bad.append((3, ell, v1, v2))
    out.append(
        _check(
            "order-3 characters, conductors 19/37: v_pi >= 1 at level 1, >= 3 at level 2",
            not bad,
            "failures: %r" % (bad,) if bad else "all satisfied",
        )
    )
    return out


def density_checks(x: int = 200000) -> list[CheckResult]:
    out = []
    for p in (3, 5):
        rep = browkin_density(p, x)
        close = abs(rep.ratio - Fraction(1, p)) < Fraction(5, 100)
        out.append(
            _check(
                "prime density ratio near 1/%d at x = %d" % (p, x),
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
        results += powersum_suite_checks(100)
        results += browkin_smoke_checks(100)
        results += bound_checks()
        results += congruence_checks()
        results += density_checks()
    return results
