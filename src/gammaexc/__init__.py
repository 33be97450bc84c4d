"""Exact excedance Eulerian polynomials over the classical Weyl groups.

The library pairs every closed form with a brute-force enumeration oracle:

* :mod:`gammaexc.poly` -- exact sparse polynomials and the gamma basis;
* :mod:`gammaexc.groups` -- window-notation group elements, statistics,
  and lexicographic iterators over every summation domain;
* :mod:`gammaexc.bijections` -- the statistic-transporting maps;
* :mod:`gammaexc.oracle` -- distribution polynomials by enumeration;
* :mod:`gammaexc.closedforms` -- recurrences, half-sums, jump tables,
  and the conjugacy-class product formulas;
* :mod:`gammaexc.checks` -- the named verification suite behind
  ``gammaexc verify``.
"""

from types import ModuleType as _Module

from .closedforms import (
    CoeffTable,
    MissingBase,
    NoClosedForm,
    coeff_tables,
    conj_exc_closed,
    derangement_closed,
    dexc_jump_tail,
    eulerian,
    eulerian_t,
    half_sum_closed,
    jump4,
    jump_tables,
    set_partition_count,
    sgn_aexc_closed,
    sgn_bexc_closed,
    sgn_dexc_closed,
    sgnb_des_u_closed,
    step_recurrence,
)
from .groups import (
    BudgetExceeded,
    CycleType,
    DEFAULT_BUDGET,
    GroupSpec,
    InvalidSpec,
    Perm,
    SignedPerm,
    WindowError,
    cardinality,
    cycle_type,
    iterate,
    parse_window,
    partitions,
)
from .oracle import (
    FAMILIES,
    FamilySpec,
    UndefinedStatistic,
    UnsupportedClass,
    WeightSpec,
    dist_poly,
    family_poly,
    q_refined,
    sgnb_des_u,
)
from .poly import (
    BIVARIATE,
    D,
    EvenLength,
    GammaExpansion,
    NotGammaPositive,
    NotHomogeneous,
    NotPalindromic,
    OddCoefficient,
    Poly,
    Q_COEFFICIENTS,
    UNIVARIATE,
    UnknownVariable,
    ZeroPolynomial,
    gamma_decompose,
    half,
    palindrome_info,
    split_odd_length,
)

__version__ = "0.1.0"

# every name imported above; the submodules are attributes, not exports
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _Module))
