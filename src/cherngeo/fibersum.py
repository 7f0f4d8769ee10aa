"""Fiber-sum Chern-number corrections and the closed-form construction.

The construction glues X1 x S2 to X2 x S1 along S1 x S2 (Si the generic
fiber of the Lefschetz fibration on Xi).  Two independent computation
paths are provided: :func:`halic_construction` applies the closed-form
result directly, while :func:`halic_construction_via_oracle` never
touches a closed form.  It runs one kernel, compiled once per process by
:func:`algebra.compile_kernel` over the factors (X1, X2, S1, S2), that
sums three parts: the symbolic X x S expansion placed on X1 x S2 and on
X2 x S1, and the correction terms applied to c1^2 and c2 of S1 x S2.
The parts are written once, in one list; :func:`fiber_sum_parts`
compiles each of them on its own and returns the three triples the
oracle sums, which ``fibersum --explain`` prints.  The two paths' exact
agreement is the module's central test.

Only the functions that build the oracle's expressions or kernels import
:mod:`cherngeo.algebra`.  Importing this module and running the closed form
load no algebra; the oracle's first call loads it with the kernel it builds.
"""

from __future__ import annotations

import functools
from collections import namedtuple

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


# The corrections along S1 x S2 (trivial normal bundle on both sides) to c3, c1^3 and c1c2
# in turn, as coefficients of the locus's (c1^2, c2); the oracle and --explain read them.
CORRECTIONS = ((0, -2), (-6, 0), (-2, -2))


def _cross_section_classes() -> tuple:
    """c1^2 and c2 of S1 x S2: (c1(S1) + c1(S2))^2 and the top class c1(S1)c1(S2)."""
    from . import algebra

    first = algebra.c1("S1") + algebra.c1("S2")
    return first * first, algebra.c1("S1") * algebra.c1("S2")


@functools.cache
def _cross_section_kernel():
    """One kernel for c1^2 and c2 of S1 x S2, expanded on first use, not at import."""
    from . import algebra

    surfaces = ("S1", "S2")
    return algebra.compile_kernel([(_cross_section_classes(), (), surfaces)], (), surfaces)


# The oracle's factors, 4-manifolds then surfaces, as algebra.compile_kernel takes them.
_LAYOUT = (("X1", "X2"), ("S1", "S2"))


def _fiber_sum_parts() -> list:
    """The oracle's parts: X x S on X1 x S2 and on X2 x S1, and the corrections on S1 x S2."""
    from . import algebra

    c1_sq, c2 = _cross_section_classes()
    return [
        (algebra.chern_number_classes("X1", "S2"), ("X1",), ("S2",)),
        (algebra.chern_number_classes("X2", "S1"), ("X2",), ("S1",)),
        ([k_sq * c1_sq + k_2 * c2 for k_sq, k_2 in CORRECTIONS], (), ("S1", "S2")),
    ]


@functools.cache
def _fiber_sum_kernel():
    """One kernel for the fiber sum's triple, the sum of its parts, expanded on first use."""
    from . import algebra

    return algebra.compile_kernel(_fiber_sum_parts(), *_LAYOUT)


# One immutable surface record per genus, shared by the oracle's kernel, its
# parts and the cross-section.  It stores the Euler number, the one surface
# invariant the kernels read, as a field computed once by SurfaceInvariants, so
# a kernel's read on every pair is a field read, not a property call.  Fiber
# genera are few (the default search bounds span 13), so the cache holds every
# genus of a search or an audit; past it the least recently used entry is
# dropped.  A negative genus raises SurfaceInvariants's ValueError and is not cached.
_Surface = namedtuple("_Surface", "euler")
_SURFACES_CACHED = 256


@functools.lru_cache(maxsize=_SURFACES_CACHED)
def _surface(genus: int) -> _Surface:
    return _Surface(SurfaceInvariants(genus).euler)


def cross_section_of_surfaces(g1: int, g2: int) -> CrossSectionInvariants:
    """Invariants of the product surface S1 x S2, via the class algebra.

    c2 is the top Chern class c1(S1)c1(S2); c1^2 is (c1(S1)+c1(S2))^2.
    Both are evaluated symbolically rather than hard-coded.
    """
    c1_sq, c2 = _cross_section_kernel()(_surface(g1), _surface(g2))
    return CrossSectionInvariants(c1_sq, c2)


def fiber_sum_parts(b1: LefschetzBlock, b2: LefschetzBlock) -> tuple[ChernTriple, ...]:
    """The three triples the oracle sums: X1 x S2, X2 x S1 and the corrections.

    Each part is compiled on its own on every call, with no cache
    (``fibersum --explain`` runs once per process); the blocks are not validated.
    """
    from . import algebra

    factors = (b1.invariants, b2.invariants, _surface(b1.fiber_genus), _surface(b2.fiber_genus))
    return tuple(
        ChernTriple(*algebra.compile_kernel([part], *_LAYOUT)(*factors))
        for part in _fiber_sum_parts()
    )


def halic_construction(
    b1: LefschetzBlock, b2: LefschetzBlock, *, check: bool = True
) -> ChernTriple:
    """Chern numbers of the fiber-summed 6-manifold, by closed form.

    Only chi_h, c1^2 and the fiber genus of each block enter, through two
    invariants bilinear in the blocks' (chi_h, c1^2) and f = 1 - g:

        A = c1c2 / 24 = f2*chi1 + f1*chi2 - f1*f2
        B = c1^3 / 6  = f2*c1sq1 + f1*c1sq2 - 8*f1*f2

    and the triple is (24A - 2B, 6B, 24A).  So c3 = 24A - 2B is the plane
    3*c3 = 3*c1c2 - c1^3 that :func:`cherngeo.geography.construction_obstruction`
    checks.  With ``check=False`` the arithmetic is applied to arbitrary
    invariant values, valid fibration or not; useful for grid sweeps.
    """
    if check:
        require_valid(b1, b2)
    # Three fields of each block, read by name (see the invariants module).
    x1, x2 = b1.invariants, b2.invariants
    f1, f2 = 1 - b1.fiber_genus, 1 - b2.fiber_genus
    f12 = f1 * f2
    a = f2 * x1.chi_h + f1 * x2.chi_h - f12  # c1c2 / 24
    b = f2 * x1.c1_sq + f1 * x2.c1_sq - 8 * f12  # c1^3 / 6
    # tuple.__new__ builds the record in one C call (see the invariants module).
    return tuple.__new__(ChernTriple, (24 * a - 2 * b, 6 * b, 24 * a))


def halic_construction_via_oracle(
    b1: LefschetzBlock, b2: LefschetzBlock, *, check: bool = True
) -> ChernTriple:
    """Same triple as :func:`halic_construction`, by symbolic expansion.

    One compiled kernel sums the product Chern numbers of X1 x S2 and
    X2 x S1 with the generic fiber-sum corrections along S1 x S2; the
    same three parts, one kernel each, are :func:`fiber_sum_parts`.
    """
    if check:
        require_valid(b1, b2)
    x1, x2 = b1.invariants, b2.invariants  # read by name (see the invariants module)
    s1, s2 = _surface(b1.fiber_genus), _surface(b2.fiber_genus)
    return tuple.__new__(ChernTriple, _fiber_sum_kernel()(x1, x2, s1, s2))
