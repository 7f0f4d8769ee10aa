"""A small formal graded algebra of Chern-class monomials on product manifolds.

Generators are c1 and c2 classes of named factors (4-manifolds or surfaces);
expressions are integer combinations of monomials, kept in canonical form
(sorted generator tuples, no zero coefficients).  All generators have even
degree, so the algebra is strictly commutative and no sign tracking is
needed.

Evaluation pairs a homogeneous top-degree expression with the fundamental
class of a product of factors.  Monomials whose per-factor degree exceeds
the factor dimension vanish; expressions of the wrong total degree are
rejected rather than truncated, so derivation errors surface in tests.
Expressions compile to a straight-line integer kernel
(:func:`compile_kernel`).  Its layout names the factors, 4-manifolds and
surfaces; each of its parts is a list of expressions placed on one
sub-product of those factors, and its j-th result sums the parts' j-th
expressions.  One part on the whole layout evaluates expressions on one
product; the fiber sum places the X x S expansion twice and its gluing
locus once over four factors.  The kernel is a generated function that
takes the factor records positionally, in layout order, and returns
integer sums with the coefficients written in as literals.  Factor names
are positions there and never enter the kernel's source.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from collections.abc import Callable, Iterable, Mapping

from .invariants import ChernTriple, FourManifoldInvariants, SurfaceInvariants


class DimensionMismatchError(ValueError):
    """Expression degree does not match the ambient product's dimension."""


class ClassGenerator(namedtuple("ClassGenerator", "source kind")):
    """A single Chern class of one factor, e.g. c1 of the second surface.

    Fields: ``source: str`` (the factor's name) and ``kind: str`` ("c1" or
    "c2").  Generators order as (source, kind) tuples.
    """

    __slots__ = ()

    def __new__(cls, source: str, kind: str):
        if kind not in ("c1", "c2"):
            raise ValueError(f"kind must be 'c1' or 'c2', got {kind!r}")
        return super().__new__(cls, source, kind)

    @property
    def degree(self) -> int:
        return 2 if self.kind == "c1" else 4


# A monomial is a sorted tuple of generators; () is the unit.
Monomial = tuple


def _monomial_degree(mono: Monomial) -> int:
    return sum(g.degree for g in mono)


class GradedClassExpression:
    """Integer combination of Chern-class monomials, graded by degree."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        canonical: dict[Monomial, int] = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    key = tuple(sorted(mono))
                    canonical[key] = canonical.get(key, 0) + coeff
                    if not canonical[key]:
                        del canonical[key]
        self.terms = canonical

    # -- ring structure ---------------------------------------------------

    def __add__(self, other: "GradedClassExpression") -> "GradedClassExpression":
        merged = dict(self.terms)
        for mono, coeff in other.terms.items():
            merged[mono] = merged.get(mono, 0) + coeff
        return GradedClassExpression(merged)

    def __sub__(self, other: "GradedClassExpression") -> "GradedClassExpression":
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, int):
            return GradedClassExpression({m: other * c for m, c in self.terms.items()})
        product: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                product[mono] = product.get(mono, 0) + c1 * c2
        return GradedClassExpression(product)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "GradedClassExpression":
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        result = one()
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedClassExpression) and self.terms == other.terms

    def __repr__(self) -> str:
        """The canonical terms, sorted by monomial: equal expressions print alike."""
        return f"GradedClassExpression({dict(sorted(self.terms.items()))!r})"

    # -- grading ----------------------------------------------------------

    def graded_part(self, degree: int) -> "GradedClassExpression":
        return GradedClassExpression(
            {m: c for m, c in self.terms.items() if _monomial_degree(m) == degree}
        )

    def degrees(self) -> set[int]:
        return {_monomial_degree(m) for m in self.terms}


def c1(source: str) -> GradedClassExpression:
    return GradedClassExpression({(ClassGenerator(source, "c1"),): 1})


def c2(source: str) -> GradedClassExpression:
    return GradedClassExpression({(ClassGenerator(source, "c2"),): 1})


def one() -> GradedClassExpression:
    return GradedClassExpression({(): 1})


def total_chern_of_product(x: str, s: str) -> GradedClassExpression:
    """Total Chern class of (4-manifold x) x (surface s), fully expanded.

    The Whitney product gives (1 + c1(x) + c2(x)) * (1 + c1(s)).
    """
    return (one() + c1(x) + c2(x)) * (one() + c1(s))


def _literal(n: int) -> str:
    """``n`` as an exact literal; hex past 64 bits, where str() may refuse a long int."""
    return str(n) if n.bit_length() <= 64 else hex(n)


def _resolve_monomial(
    mono: Monomial, four_manifolds: tuple[str, ...], surfaces: tuple[str, ...]
) -> tuple[tuple[str, str], ...] | None:
    """The invariants, one (factor name, attribute) per factor, that a monomial pairs to.

    The attribute is "c1_sq" or "c2" of a 4-manifold and "euler" of a
    surface; None means the monomial vanishes on the product.
    """
    by_source: dict[str, list[ClassGenerator]] = {}
    for gen in mono:
        by_source.setdefault(gen.source, []).append(gen)

    for source in by_source:
        if source not in four_manifolds and source not in surfaces:
            raise DimensionMismatchError(
                f"generator factor {source!r} is not part of the ambient product"
            )
    touched = [s for s in by_source if s in four_manifolds]
    if len(touched) > 1:
        raise DimensionMismatchError(
            "monomials mixing two 4-manifold factors are not supported"
        )

    product = []
    for name in four_manifolds:
        part = by_source.get(name, [])
        if sum(g.degree for g in part) != 4:
            return None  # part misses or exceeds the factor's top degree
        kinds = sorted(g.kind for g in part)
        product.append((name, "c1_sq" if kinds == ["c1", "c1"] else "c2"))
    for name in surfaces:
        part = by_source.get(name, [])
        if sum(g.degree for g in part) != 2:
            return None  # c1(S)^2 and higher vanish, as does an absent factor
        product.append((name, "euler"))
    return tuple(product)


def compile_kernel(
    parts: Iterable[tuple[Iterable[GradedClassExpression], Iterable[str], Iterable[str]]],
    four_manifolds: Iterable[str] = (),
    surfaces: Iterable[str] = (),
) -> Callable[..., tuple[int, ...]]:
    """One generated function that sums top-degree expressions over sub-products.

    The layout names the kernel's factors: its 4-manifolds and its
    surfaces.  Each part is ``(exprs, part_four_manifolds, part_surfaces)``:
    expressions that are top-degree on the sub-product of the named
    factors, which must be 4-manifolds and surfaces of the layout.  Every
    part has the same number of expressions, and the kernel's j-th result
    is the sum over the parts of their j-th expression, each evaluated on
    its own sub-product.  One part on the whole layout is the plain case:
    expressions evaluated on one product.

    A name that appears twice in the layout or in a part, a part factor
    outside the layout and parts of unequal lengths raise ValueError.  An
    expression of the wrong degree for its part, a generator of a factor
    outside its part and a monomial touching two 4-manifolds raise
    DimensionMismatchError; a coefficient that is not an int raises
    TypeError.

    The function takes the factors' records positionally, 4-manifolds then
    surfaces, and returns the sums as a tuple of ints, in order.  It reads
    each invariant the parts use once, into a local, and sums the products
    of invariants that do not vanish, like products collected across parts,
    with their coefficients as integer literals.  Factors are named by
    position (``f0``, ``f1``, ...), invariants ``v0``, ``v1``, ... and sums
    ``r0``, ``r1``, ..., so no factor name enters its source.

    The function is straight-line code: attribute reads, then ``+``, ``-``
    and ``*`` of the values read and integer literals, and nothing else (no
    division, comparison, call or branch).  So it runs unchanged on any
    values with those three operations; ``tests/test_fibersum.py`` runs it
    on polynomials to prove the oracle equal to the closed form.  Keep it
    so: an operation only ints have would fail that test.
    """
    four_manifolds, surfaces = tuple(four_manifolds), tuple(surfaces)
    names = four_manifolds + surfaces
    _refuse_repeated(names, "the layout")
    position = {name: i for i, name in enumerate(names)}
    parts = [(tuple(exprs), tuple(fours), tuple(twos)) for exprs, fours, twos in parts]
    # sums[j] maps a product of invariants, one (position, attribute) per
    # factor, to its coefficient in the j-th result
    width = len(parts[0][0]) if parts else 0
    sums: list[dict[tuple[tuple[int, str], ...], int]] = [{} for _ in range(width)]
    for exprs, part_four_manifolds, part_surfaces in parts:
        _refuse_repeated(part_four_manifolds + part_surfaces, "a part")
        for part_names, kind, layout_names in (
            (part_four_manifolds, "4-manifold", four_manifolds),
            (part_surfaces, "surface", surfaces),
        ):
            outside = [name for name in part_names if name not in layout_names]
            if outside:
                raise ValueError(f"part factors {outside} are not {kind}s of the layout")
        if len(exprs) != width:
            raise ValueError(
                f"parts must have equal numbers of expressions, got {width} and {len(exprs)}"
            )
        dim = 4 * len(part_four_manifolds) + 2 * len(part_surfaces)
        for terms, expr in zip(sums, exprs):
            wrong = {d for d in expr.degrees() if d != dim}
            if wrong:
                raise DimensionMismatchError(
                    f"expression has degree(s) {sorted(wrong)} but the ambient dimension is {dim}"
                )
            for mono, coeff in expr.terms.items():
                if not isinstance(coeff, int):
                    raise TypeError(f"coefficients must be int, got {coeff!r}")
                product = _resolve_monomial(mono, part_four_manifolds, part_surfaces)
                if product is not None:
                    key = tuple(sorted((position[name], attr) for name, attr in product))
                    terms[key] = terms.get(key, 0) + coeff
    local: dict[tuple[int, str], str] = {}
    reads, lines = [], []
    for j, terms in enumerate(sums):
        summands = []
        for product, coeff in terms.items():
            if not coeff:
                continue  # like products from several parts that cancel
            factors = [] if coeff == 1 and product else [_literal(int(coeff))]
            for invariant in product:
                if invariant not in local:
                    local[invariant] = f"v{len(local)}"
                    reads.append(f"    {local[invariant]} = f{invariant[0]}.{invariant[1]}")
                factors.append(local[invariant])
            summands.append("*".join(factors))
        lines.append(f"    r{j} = {' + '.join(summands) or '0'}")
    params = ", ".join(f"f{i}" for i in range(len(names)))
    results = "".join(f"r{j}, " for j in range(len(lines)))
    source = "\n".join([f"def kernel({params}):", *reads, *lines, f"    return ({results})\n"])
    namespace = {"__builtins__": {}}
    exec(compile(source, "<evaluation kernel>", "exec"), namespace)
    return namespace["kernel"]


def _refuse_repeated(names: tuple[str, ...], where: str) -> None:
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"factor names repeated in {where}: {repeated}")


def chern_number_classes(x: str, s: str) -> tuple[GradedClassExpression, ...]:
    """c3, c1^3 and c1c2 of (4-manifold x) x (surface s): the top-degree expressions.

    They are expanded from the Whitney product :func:`total_chern_of_product`.
    """
    total = total_chern_of_product(x, s)
    first = total.graded_part(2)
    second = total.graded_part(4)
    return total.graded_part(6), first ** 3, first * second


@functools.cache
def _product_kernel() -> Callable[..., tuple[int, int, int]]:
    """One kernel for c3, c1^3 and c1c2 of X x S, expanded on first use, not at import."""
    return compile_kernel([(chern_number_classes("X", "S"), ("X",), ("S",))], ("X",), ("S",))


def chern_numbers_of_product(
    x: FourManifoldInvariants, s: SurfaceInvariants
) -> ChernTriple:
    """Chern numbers of (4-manifold) x (surface), by symbolic expansion.

    Everything is computed from the Whitney product via products and one
    compiled kernel; no closed form appears on this path, which is what
    makes it usable as an independent oracle.  The expansion and its
    kernel are built once per process; each call only runs the kernel.
    """
    c3, c1_cubed, c1c2 = _product_kernel()(x, s)
    return ChernTriple(c3, c1_cubed, c1c2)
