"""The argument checks of the public API, pinned by exception type and message.

Each row is one call with one bad argument and the exact error it must raise.
The checks live in one place each (lfun._require_odd_k, lfun._prime_power,
characters._require_odd_prime, FieldSpec.prime_cyclic_subfield), and these
rows keep what every caller reports the same.
"""

import dataclasses
import hashlib

import pytest

from kzeta.arith import CyclotomicLevel
from kzeta.characters import DirichletCharacter, FieldSpec, unit_group
from kzeta.ktheory import (
    browkin_divisible,
    degree_adjoin_zeta,
    divisibility_verdict,
    k_order,
    lower_bound_exponent,
    s_profile,
)
from kzeta.lfun import (
    char_bernoulli_pi_valuation,
    generalized_bernoulli,
    l_value_negative,
    product_valuation,
    zeta_value_negative,
)


def _chi(m, *exponents):
    return DirichletCharacter(unit_group(m), exponents)


CUBIC_7 = _chi(7, 2)  # order 3
SEXTIC_7 = _chi(7, 1)  # order 6
NONIC_19 = _chi(19, 2)  # order 9
INDUCED_21 = _chi(21, 0, 2)  # conductor 7
ODD_SPEC = FieldSpec("explicit", explicit_chars=frozenset({_chi(7, 1)}))
REAL_7 = FieldSpec.real_cyclotomic(7)
MAX_7_29 = FieldSpec.max_p_subextension(29, 7)

ODD_K = "k must be an odd integer >= 1, got %r"
ODD_P = "p must be an odd prime, got %r"

CASES = [
    # FieldSpec constructors
    (lambda: FieldSpec.real_cyclotomic(0), ValueError, "m must be >= 1, got 0"),
    (lambda: FieldSpec.max_p_subextension(1, 3), ValueError, "m must be > 1, got 1"),
    (lambda: FieldSpec.max_p_subextension(10, 2), ValueError, ODD_P % 2),
    (lambda: FieldSpec.max_p_subextension(10, 9), ValueError, ODD_P % 9),
    (lambda: FieldSpec.prime_cyclic_subfield(7, 1), ValueError, ODD_P % 1),
    (lambda: FieldSpec.prime_cyclic_subfield(7, 15), ValueError, ODD_P % 15),
    (lambda: FieldSpec.prime_cyclic_subfield(91, 3), ValueError, "conductor 91 is not prime"),
    (
        lambda: FieldSpec.prime_cyclic_subfield(11, 3),
        ValueError,
        "need ell = 1 (mod p); got ell=11, p=3",
    ),
    (lambda: FieldSpec.explicit([]), ValueError, "explicit character sets must not be empty"),
    (
        lambda: FieldSpec.explicit([INDUCED_21]),
        ValueError,
        "explicit character sets must be primitive",
    ),
    (lambda: FieldSpec.explicit([SEXTIC_7]), ValueError, "field spec characters must be even"),
    (
        lambda: FieldSpec.explicit([_chi(7, 2)]),
        ValueError,
        "character set not closed under inversion",
    ),
    # ktheory
    (lambda: browkin_divisible(4, 13), ValueError, ODD_P % 4),
    (lambda: browkin_divisible(3.0, 7), ValueError, ODD_P % 3.0),
    (lambda: browkin_divisible(3, 91), ValueError, "conductor 91 is not prime"),
    (lambda: browkin_divisible(3, 11), ValueError, "need ell = 1 (mod p); got ell=11, p=3"),
    (lambda: s_profile(10, 2), ValueError, ODD_P % 2),
    (lambda: s_profile(1, 3), ValueError, "m must be > 1, got 1"),
    (lambda: lower_bound_exponent(9, 1, 19), ValueError, ODD_P % 9),
    (lambda: lower_bound_exponent(7, 2, 29), ValueError, ODD_K % 2),
    (lambda: lower_bound_exponent(7, 1.0, 29), ValueError, ODD_K % 1.0),
    (lambda: lower_bound_exponent(5, 5, 11), ValueError, "need p >= k+2; got p=5, k=5"),
    (lambda: lower_bound_exponent(7, 1, 1), ValueError, "m must be > 1, got 1"),
    (lambda: divisibility_verdict(6, 29, 1), ValueError, ODD_P % 6),
    (lambda: divisibility_verdict(7, 29, 0), ValueError, ODD_K % 0),
    (lambda: divisibility_verdict(7, 1, 1), ValueError, "m must be > 1, got 1"),
    (lambda: divisibility_verdict(7, 0, 1, "full"), ValueError, "m must be > 1, got 0"),
    (
        lambda: divisibility_verdict(7, 29, 1, "half"),
        ValueError,
        "variant must be 'plus' or 'full', got 'half'",
    ),
    (
        lambda: degree_adjoin_zeta("half", 29, 7),
        ValueError,
        "variant must be 'plus' or 'full', got 'half'",
    ),
    (lambda: degree_adjoin_zeta("plus", 29, 1), ValueError, ODD_P % 1),
    (lambda: degree_adjoin_zeta("full", 1, 7), ValueError, "m must be > 1, got 1"),
    (lambda: k_order(REAL_7, 2), ValueError, ODD_K % 2),
    (lambda: k_order(REAL_7, -1), ValueError, ODD_K % -1),
    (lambda: k_order(REAL_7, "1"), ValueError, ODD_K % "1"),
    # lfun
    (lambda: l_value_negative(CUBIC_7, 4), ValueError, ODD_K % 4),
    (lambda: zeta_value_negative(REAL_7, 0), ValueError, ODD_K % 0),
    (
        lambda: zeta_value_negative(ODD_SPEC, 1),
        ValueError,
        "field is not totally real (odd character present)",
    ),
    (lambda: char_bernoulli_pi_valuation(CUBIC_7, 2), ValueError, ODD_K % 2),
    (
        lambda: char_bernoulli_pi_valuation(_chi(7, 0), 1),
        ValueError,
        "trivial character has no distinguished prime",
    ),
    (
        lambda: char_bernoulli_pi_valuation(SEXTIC_7, 1),
        ValueError,
        "character order 6 is not a prime power",
    ),
    (
        lambda: char_bernoulli_pi_valuation(NONIC_19, 1, 1),
        ValueError,
        "level 1 is below the character level 2",
    ),
    (
        lambda: char_bernoulli_pi_valuation(INDUCED_21, 1),
        ValueError,
        "character must be primitive (conductor 7 != modulus 21)",
    ),
    (
        lambda: product_valuation(REAL_7, 7, 1),
        ValueError,
        "field spec must be a p-group subextension variant",
    ),
    (lambda: product_valuation(MAX_7_29, 7, 2), ValueError, ODD_K % 2),
    (lambda: product_valuation(MAX_7_29, 9, 1), ValueError, "need a prime p >= k+2; got p=9, k=1"),
    (lambda: product_valuation(MAX_7_29, 3, 3), ValueError, "need a prime p >= k+2; got p=3, k=3"),
    (lambda: product_valuation(MAX_7_29, 5, 1), ValueError, "character group is not a 5-group"),
    (lambda: generalized_bernoulli(CUBIC_7, 1), ValueError, "n must be an integer >= 2, got 1"),
    (
        lambda: generalized_bernoulli(INDUCED_21, 2),
        ValueError,
        "character must be primitive (conductor 7 != modulus 21)",
    ),
    (
        lambda: generalized_bernoulli(SEXTIC_7, 2),
        ValueError,
        "character order 6 is not a prime power",
    ),
    (
        lambda: generalized_bernoulli(CUBIC_7, 2, CyclotomicLevel(5, 1)),
        ValueError,
        "level prime 5 does not match character order 3",
    ),
    (
        lambda: generalized_bernoulli(NONIC_19, 2, CyclotomicLevel(3, 1)),
        ValueError,
        "level 1 is below the character level 2",
    ),
]


@pytest.mark.parametrize("call, error, message", CASES)
def test_argument_check_message(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_unit_group_generators_are_pinned():
    # the generators and local components of (Z/m)^* for m <= 2048, recorded
    # while unit_group still built the 2-parts of 4 and 2^e, e >= 3, apart
    digest = hashlib.sha256()
    for m in range(1, 2049):
        group = unit_group(m)
        locals_ = [dataclasses.astuple(loc) for loc in group.locals_]
        digest.update(repr((m, group.generators, locals_)).encode())
    assert digest.hexdigest() == (
        "29f40b956caf3d4b01c3c0800105ecdb7dcf62696d4658d327649742a25a576d"
    )


@pytest.mark.parametrize("make", [FieldSpec.max_p_subextension, FieldSpec.prime_cyclic_subfield])
def test_field_specs_refuse_a_non_integer_prime(make):
    # the constructors share ktheory's odd-prime check, which tests the type too
    with pytest.raises(ValueError) as raised:
        make(7, 3.0)
    assert str(raised.value) == ODD_P % 3.0
