"""Exact orders and p-divisibility of even K-groups K_{2k}(O_F) for totally
real abelian number fields F.

The order formula combines the w-invariant with the Dedekind zeta value at
-k; everything downstream of that (lower-bound exponents, tri-state
divisibility verdicts, the prime-density statistic) is exact integer and
rational arithmetic, no floating point anywhere.
"""

from . import arith
from .characters import (
    DirichletCharacter,
    FieldSpec,
    UnitGroupStructure,
    ghat_stratum,
    trivial_character,
    unit_group,
)
from .ktheory import (
    ComputationError,
    DensityReport,
    KOrderReport,
    SProfile,
    Verdict,
    browkin_density,
    browkin_divisible,
    degree_adjoin_zeta,
    divisibility_verdict,
    k_order,
    lower_bound_exponent,
    s_profile,
    w_invariant,
)
from .lfun import (
    char_bernoulli_pi_valuation,
    generalized_bernoulli,
    l_value_negative,
    product_valuation,
    zeta_value_negative,
)
from .powersum import (
    PowerSumData,
    bernoulli_number,
    bernoulli_polynomial,
    brute_power_sum,
    f_polynomial,
    power_sum_data,
    powersum_denominator,
    s_polynomial,
    vsc_denominator,
)

__version__ = "0.1.0"

__all__ = [
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
]
