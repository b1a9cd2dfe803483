"""Exact K-theory invariants of one-dimensional graph solenoids and SFTs."""

from .germs import (
    DegreeNotConstant,
    GermClass,
    QuotientModel,
    QuotientSummary,
    UnreachableVertex,
    interior_preimages,
    is_quotient_hausdorff,
    junction_germs,
    occurring_classes,
    quotient_summary,
)
from .intlin import (
    CokernelStructure,
    IntMatrix,
    NotInvariant,
    SmithDecomposition,
    cokernel,
    column_hnf,
    determinant,
    kernel_basis,
    rank,
    restrict_endomorphism,
    same_column_lattice,
    saturate_columns,
    smith_normal_form,
    solve_columns,
)
from .ktheory import (
    InvalidPresentation,
    KTheoryReport,
    NotWellDefined,
    boundary_matrix,
    k_theory_of_g0,
    ktheory_report,
    psi_star_k0,
    psi_star_k1,
    trace_pullback_matrix,
    with_class_order,
)
from .limits import (
    Classification,
    LimitElement,
    StationaryLimitGroup,
    classify,
    element_add,
    element_equal,
    element_negate,
    element_positive,
    make_limit,
    stationary_torsion_limit,
)
from .model import (
    Edge,
    Finding,
    Graph,
    ParseError,
    Presentation,
    ValidationReport,
    abelianization,
    parse_presentation,
    serialize_presentation,
    substitution_power,
    validate,
)
from .sft import SftDimensionGroup, SftPresentation, edge_shift, sft_dimension_group, validate_sft

__all__ = [name for name in dir() if not name.startswith("_")]
