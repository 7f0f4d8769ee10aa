"""Fiber-sum Chern-number corrections and the closed-form construction.

The construction glues X1 x S2 to X2 x S1 along S1 x S2 (Si the generic
fiber of the Lefschetz fibration on Xi).  Two independent computation
paths are provided: :func:`halic_construction` applies the closed-form
result directly, while :func:`halic_construction_via_oracle` composes the
symbolic product expansion with the generic correction terms and never
touches a closed form.  Their exact agreement is the module's central
test.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from . import algebra
from .invariants import (
    ChernTriple,
    LefschetzBlock,
    SurfaceInvariants,
    require_valid,
)


class CrossSectionInvariants(namedtuple("CrossSectionInvariants", "c1_sq c2")):
    """c1^2 and c2 of the codimension-two locus both pieces are glued along.

    Fields (both ``int``): c1_sq, c2.
    """

    __slots__ = ()


@functools.cache
def _cross_section_plans() -> tuple[algebra.EvaluationPlan, algebra.EvaluationPlan]:
    """Plans for c1^2 and c2 of S1 x S2, expanded on first use, not at import."""
    first = algebra.c1("S1") + algebra.c1("S2")
    return (
        algebra.compile_expression(first * first, surfaces=("S1", "S2")),
        algebra.compile_expression(algebra.c1("S1") * algebra.c1("S2"), surfaces=("S1", "S2")),
    )


def cross_section_of_surfaces(g1: int, g2: int) -> CrossSectionInvariants:
    """Invariants of the product surface S1 x S2, via the class algebra.

    c2 is the top Chern class c1(S1)c1(S2); c1^2 is (c1(S1)+c1(S2))^2.
    Both are evaluated symbolically rather than hard-coded.
    """
    c1_sq, c2 = _cross_section_plans()
    factors = {"S1": SurfaceInvariants(g1), "S2": SurfaceInvariants(g2)}
    return CrossSectionInvariants(c1_sq.apply(factors), c2.apply(factors))


def fiber_sum_corrections(
    m1: ChernTriple, m2: ChernTriple, x: CrossSectionInvariants
) -> ChernTriple:
    """Chern numbers of a fiber sum from the summands and the gluing locus.

    The correction coefficients (-2 on c2 for c3; -6 on c1^2 for c1^3;
    -2, -2 for c1c2) assume the locus has trivial normal bundle on both
    sides, which is the only case this construction produces.
    """
    return ChernTriple(
        c3=m1.c3 + m2.c3 - 2 * x.c2,
        c1_cubed=m1.c1_cubed + m2.c1_cubed - 6 * x.c1_sq,
        c1c2=m1.c1c2 + m2.c1c2 - 2 * x.c1_sq - 2 * x.c2,
    )


def halic_construction(
    b1: LefschetzBlock, b2: LefschetzBlock, *, check: bool = True
) -> ChernTriple:
    """Chern numbers of the fiber-summed 6-manifold, by closed form.

    Only chi_h, c1^2 and the fiber genus of each block enter.  With
    ``check=False`` the arithmetic is applied to arbitrary invariant
    values, valid fibration or not; useful for grid sweeps.
    """
    if check:
        require_valid(b1)
        require_valid(b2)
    chi1, c1sq1, g1 = b1.invariants.chi_h, b1.invariants.c1_sq, b1.fiber_genus
    chi2, c1sq2, g2 = b2.invariants.chi_h, b2.invariants.c1_sq, b2.fiber_genus
    f1, f2 = 1 - g1, 1 - g2
    return ChernTriple(
        c3=2 * (12 * chi1 - c1sq1) * f2 + 2 * (12 * chi2 - c1sq2) * f1 - 8 * f1 * f2,
        c1_cubed=6 * f2 * c1sq1 + 6 * f1 * c1sq2 - 48 * f1 * f2,
        c1c2=24 * f2 * chi1 + 24 * f1 * chi2 - 24 * f1 * f2,
    )


def halic_construction_via_oracle(
    b1: LefschetzBlock, b2: LefschetzBlock, *, check: bool = True
) -> ChernTriple:
    """Same triple as :func:`halic_construction`, by symbolic expansion.

    Composes the product Chern numbers of X1 x S2 and X2 x S1 with the
    generic fiber-sum corrections along S1 x S2.
    """
    if check:
        require_valid(b1)
        require_valid(b2)
    g1, g2 = b1.fiber_genus, b2.fiber_genus
    m1 = algebra.chern_numbers_of_product(b1.invariants, SurfaceInvariants(g2))
    m2 = algebra.chern_numbers_of_product(b2.invariants, SurfaceInvariants(g1))
    return fiber_sum_corrections(m1, m2, cross_section_of_surfaces(g1, g2))
