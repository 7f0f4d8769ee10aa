"""Chern-number geography of fiber-summed symplectic 6-manifolds.

Exact integer tooling for the construction that fiber-sums products of
Lefschetz-fibered 4-manifolds with surfaces: invariant records, a formal
Chern-class algebra oracle, closed-form Chern numbers of the resulting
6-manifolds, divisibility checks, realization search, and the classifier
of the (chi_h, c1^2) geography plane.
"""

from .invariants import (
    BlockValidationError,
    ChernTriple,
    FourManifoldInvariants,
    LefschetzBlock,
    SurfaceInvariants,
    complete_invariants,
    euler_from_fibration,
    validate_block,
)
from .algebra import (
    ClassGenerator,
    EvaluationContext,
    GradedClassExpression,
    chern_numbers_of_product,
    evaluate,
    total_chern_of_product,
)
from .fibersum import (
    CrossSectionInvariants,
    cross_section_of_surfaces,
    fiber_sum_corrections,
    halic_construction,
    halic_construction_via_oracle,
)
from .catalog import (
    default_catalog,
    elliptic_surface,
    generic_block,
    knot_surgered_elliptic,
    load_catalog,
    ruled_spheres,
    save_catalog,
)
from .geography import (
    DivisibilityReport,
    GenericGrid,
    GeographyClassification,
    Realization,
    SearchBounds,
    classify_geography_point,
    construction_obstruction,
    halic_divisibility_check,
    search_realizations,
)

__version__ = "0.1.0"
