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
def _cross_section_kernel():
    """One kernel for c1^2 and c2 of S1 x S2, expanded on first use, not at import."""
    first = algebra.c1("S1") + algebra.c1("S2")
    top = algebra.c1("S1") * algebra.c1("S2")
    return algebra.compile_kernel((first * first, top), surfaces=("S1", "S2"))


# Entries of the two per-genus caches below.  Fiber genera are few (the
# default search bounds span 13), so these hold every genus and genus pair of a
# search or an audit; past them the least recently used entry is dropped.
_SURFACES_CACHED = 256
_CROSS_SECTIONS_CACHED = 1024

# One immutable surface record per genus, shared by the oracle's two products
# and the cross-section.  A negative genus raises and is not cached.
_surface = functools.lru_cache(maxsize=_SURFACES_CACHED)(SurfaceInvariants)


# Cached behind cross_section_of_surfaces, which stays a plain function so that
# perfbench/tracing.py, which wraps plain functions only, still counts its calls.
@functools.lru_cache(maxsize=_CROSS_SECTIONS_CACHED)
def _cross_section(g1: int, g2: int) -> CrossSectionInvariants:
    c1_sq, c2 = _cross_section_kernel()(_surface(g1), _surface(g2))
    return CrossSectionInvariants(c1_sq, c2)


def cross_section_of_surfaces(g1: int, g2: int) -> CrossSectionInvariants:
    """Invariants of the product surface S1 x S2, via the class algebra.

    c2 is the top Chern class c1(S1)c1(S2); c1^2 is (c1(S1)+c1(S2))^2.
    Both are evaluated symbolically rather than hard-coded, once per genus
    pair: the (immutable) record is cached.
    """
    return _cross_section(g1, g2)


def fiber_sum_corrections(
    m1: ChernTriple, m2: ChernTriple, x: CrossSectionInvariants
) -> ChernTriple:
    """Chern numbers of a fiber sum from the summands and the gluing locus.

    The correction coefficients (-2 on c2 for c3; -6 on c1^2 for c1^3;
    -2, -2 for c1c2) assume the locus has trivial normal bundle on both
    sides, which is the only case this construction produces.
    """
    c3_1, c1_cubed_1, c1c2_1 = m1
    c3_2, c1_cubed_2, c1c2_2 = m2
    c1_sq, c2 = x
    # Positional, here and below: keyword arguments make a triple about 40% slower
    # to build (CPython 3.11).
    return ChernTriple(
        c3_1 + c3_2 - 2 * c2,  # c3
        c1_cubed_1 + c1_cubed_2 - 6 * c1_sq,  # c1_cubed
        c1c2_1 + c1c2_2 - 2 * c1_sq - 2 * c2,  # c1c2
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
        2 * (12 * chi1 - c1sq1) * f2 + 2 * (12 * chi2 - c1sq2) * f1 - 8 * f1 * f2,  # c3
        6 * f2 * c1sq1 + 6 * f1 * c1sq2 - 48 * f1 * f2,  # c1_cubed
        24 * f2 * chi1 + 24 * f1 * chi2 - 24 * f1 * f2,  # c1c2
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
    m1 = algebra.chern_numbers_of_product(b1.invariants, _surface(g2))
    m2 = algebra.chern_numbers_of_product(b2.invariants, _surface(g1))
    return fiber_sum_corrections(m1, m2, cross_section_of_surfaces(g1, g2))
