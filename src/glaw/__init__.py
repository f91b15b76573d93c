"""Exact-arithmetic workbench for graded Lie algebras.

Build the local algebra V* + g0 + V of a fundamental triplet (a quadratic Lie
algebra with a representation), grow the minimal graded algebra degree by
degree, and check the structural facts that come with it: universal vanishing
identities, extended invariant forms, sl2-triple criteria, and dual pairs.
"""

from .exactla import Matrix, Scalar, Vector, format_scalar, frac, parse_scalar
from .liecore import (
    AmbiguousGrading,
    FundamentalTriplet,
    LieAlgebraData,
    NoTriple,
    QuadraticForm,
    Refusal,
    Representation,
    StructureError,
    TransitivityRequired,
    ValidationReport,
    center,
    derived_subalgebra,
    dual_rep,
    grading_element,
    killing_form,
    killing_rank_and_center_dim,
    rep_kernel,
    validate,
)
from .localg import (
    LocalAlgebra,
    LocalIsomorphism,
    IsoRefusal,
    ReductionResult,
    TransitivityReport,
    box_rescale_rep,
    build_local,
    deform_form,
    reduce_triplet,
    theta_swap,
    transitivity_check,
    triplet_iso_extend,
)
from .tower import (
    AssembledAlgebra,
    FinitenessReport,
    GradedComponent,
    NEGATIVE,
    POSITIVE,
    PnExpansion,
    PnResult,
    Tower,
    assemble,
    assemble_nontransitive,
    centralizer_graded,
    centralizer_in_degree_zero,
    finiteness_report,
    grow,
    pairing,
    pairing_table,
    pn_check,
    pn_evaluate,
    pn_expand,
)
from .sl2 import (
    AssumptionHReport,
    PolyInvariant,
    RelativeInvariantResult,
    Sl2Certificate,
    assumption_h_check,
    complete_triple,
    directional_derivative,
    gradlog_triple,
    property_p_test,
    relative_invariant_check,
)
from .generators import (
    MonomialBasis,
    gen_glblock,
    gen_principal,
    gen_stabilizer_triplet,
    gen_symplectic,
    gen_with_trivial_summand,
    monomial_basis,
    stabilizer_of_poly,
)

__all__ = [name for name in dir() if not name.startswith("_")]
