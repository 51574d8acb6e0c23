"""Lie nilpotency indices of modular group algebras over GF(p)."""

from .groups import (
    AbelianType,
    FiniteGroup,
    Subgroup,
    abelian_invariants,
    center,
    commutator,
    commutator_subgroup,
    cyclic_group,
    dihedral_group,
    direct_product,
    exponent,
    extraspecial_exponent_p,
    from_multiplication_table,
    from_permutation_generators,
    is_p_group,
    lower_central_series,
    power_subgroup,
    product_of_subgroups,
    quaternion_group8,
    quotient,
    semidirect_product,
    subgroup_generated,
    wreath_cyclic,
)
from .dimension import (
    DimensionSeries,
    DVector,
    d_vector,
    is_lie_nilpotent,
    quotient_series_check,
    series_product,
    series_recursive,
    shalev_vanishing_report,
    upper_index_jennings,
    verify_sum_rule,
)
from .oracle import (
    FpSubspace,
    GroupAlgebra,
    dimension_series_direct,
    lower_lie_powers,
    upper_lie_powers,
)
from .classify import (
    classify,
    corollary_sharpness,
    cross_validate,
    lemma2_profile,
    theorem1_structural_case,
)
from .catalog import Catalog, CatalogEntry, load_catalog
from .report import LieReport, analyze

__version__ = "0.1.0"
