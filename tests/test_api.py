"""The public names of kzeta and kzeta.arith, pinned as literal sets.

Adding or removing an export has to edit these sets, so every change to the
public API shows up in a reviewed diff.
"""

import pytest

import kzeta
from kzeta import arith
from kzeta.arith import CyclotomicElement, CyclotomicRational, cyclo

KZETA_ALL = {
    "arith",
    "DirichletCharacter",
    "FieldSpec",
    "UnitGroupStructure",
    "ghat_stratum",
    "trivial_character",
    "unit_group",
    "ComputationError",
    "DensityReport",
    "KOrderReport",
    "SProfile",
    "Verdict",
    "browkin_density",
    "browkin_divisible",
    "degree_adjoin_zeta",
    "divisibility_verdict",
    "k_order",
    "lower_bound_exponent",
    "s_profile",
    "w_invariant",
    "char_bernoulli_pi_valuation",
    "generalized_bernoulli",
    "l_value_negative",
    "product_valuation",
    "zeta_value_negative",
    "PowerSumData",
    "bernoulli_number",
    "bernoulli_polynomial",
    "brute_power_sum",
    "f_polynomial",
    "power_sum_data",
    "powersum_denominator",
    "s_polynomial",
    "vsc_denominator",
    "__version__",
}

ARITH_ALL = {
    "CyclotomicElement",
    "CyclotomicLevel",
    "CyclotomicRational",
    "Poly",
    "cyclotomic_polynomial_any",
    "factorization_string",
    "factorize",
    "is_prime",
    "primes_up_to",
    "rational_part",
    "resultant",
    "valuation",
}

MODULES = [(kzeta, KZETA_ALL), (arith, ARITH_ALL)]


@pytest.mark.parametrize("module, names", MODULES, ids=["kzeta", "kzeta.arith"])
def test_all_is_pinned(module, names):
    assert len(module.__all__) == len(set(module.__all__))  # no name listed twice
    assert set(module.__all__) == names


@pytest.mark.parametrize("module, names", MODULES, ids=["kzeta", "kzeta.arith"])
def test_every_listed_name_resolves(module, names):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_ring_arithmetic_is_gone():
    # CyclotomicElement and CyclotomicRational carry values, not a ring
    assert not hasattr(arith, "galois_apply")
    assert not hasattr(cyclo, "galois_apply")
    for name in ("zero", "zeta_power", "__add__", "__sub__", "__neg__", "__mul__", "__pow__"):
        assert not hasattr(CyclotomicElement, name), name
    for name in ("__add__", "__sub__", "__neg__", "__mul__"):
        assert not hasattr(CyclotomicRational, name), name
