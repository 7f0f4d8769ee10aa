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
An expression is resolved once against a layout (which factor names are
4-manifolds, which are surfaces) into an :class:`EvaluationPlan`, which is
then applied to the invariants of any product with that layout.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from collections.abc import Iterable, Mapping

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

    def __str__(self) -> str:
        return f"{self.kind}({self.source})"


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

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- grading ----------------------------------------------------------

    def graded_part(self, degree: int) -> "GradedClassExpression":
        return GradedClassExpression(
            {m: c for m, c in self.terms.items() if _monomial_degree(m) == degree}
        )

    def degrees(self) -> set[int]:
        return {_monomial_degree(m) for m in self.terms}

    # -- rendering --------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=lambda m: (_monomial_degree(m), m)):
            coeff = self.terms[mono]
            factors = []
            i = 0
            while i < len(mono):
                j = i
                while j < len(mono) and mono[j] == mono[i]:
                    j += 1
                power = j - i
                factors.append(str(mono[i]) + (f"^{power}" if power > 1 else ""))
                i = j
            body = "*".join(factors) if factors else "1"
            if coeff == 1 and factors:
                parts.append(body)
            elif coeff == -1 and factors:
                parts.append(f"-{body}")
            elif factors:
                parts.append(f"{coeff}*{body}")
            else:
                parts.append(str(coeff))
        rendered = parts[0]
        for p in parts[1:]:
            rendered += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return rendered

    def __repr__(self) -> str:
        return f"GradedClassExpression({self})"


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


# One invariant of one factor: (factor name, attribute of its record), the
# attribute being "c1_sq" or "c2" of a 4-manifold or "euler" of a surface.
Invariant = tuple[str, str]


class EvaluationPlan:
    """A top-degree expression resolved against a layout, ready to apply.

    ``terms`` holds (coefficient, product) pairs; a product names one
    invariant per factor of the layout.  Monomials that vanish on the layout
    are gone.  No two terms share a product: a 4-manifold's c1^2 and c2 are
    different invariants, a surface has only c1, and a monomial touching two
    4-manifolds is rejected.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[int, tuple[Invariant, ...]]]):
        self.terms = tuple(terms)

    def apply(self, factors: Mapping[str, object]) -> int:
        """The value of the expression; ``factors`` maps factor names to records."""
        total = 0
        for coeff, product in self.terms:
            for name, attr in product:
                coeff *= getattr(factors[name], attr)
            total += coeff
        return total


def _resolve_monomial(
    mono: Monomial, four_manifolds: tuple[str, ...], surfaces: tuple[str, ...]
) -> tuple[Invariant, ...] | None:
    """The product of invariants a monomial pairs to, or None where it vanishes."""
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


def compile_expression(
    expr: GradedClassExpression, four_manifolds: Iterable[str] = (), surfaces: Iterable[str] = ()
) -> EvaluationPlan:
    """Resolve a top-degree expression once for a layout of factor names.

    The layout names the 4-manifold factors and the surface factors of the
    product; the plan applies to every product with it.  A name that appears
    twice, in one tuple or across both, raises ValueError.
    """
    four_manifolds, surfaces = tuple(four_manifolds), tuple(surfaces)
    names = four_manifolds + surfaces
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"factor names repeated in the layout: {repeated}")
    dim = 4 * len(four_manifolds) + 2 * len(surfaces)
    wrong = {d for d in expr.degrees() if d != dim}
    if wrong:
        raise DimensionMismatchError(
            f"expression has degree(s) {sorted(wrong)} but the ambient dimension is {dim}"
        )
    terms = []
    for mono, coeff in expr.terms.items():
        product = _resolve_monomial(mono, four_manifolds, surfaces)
        if product is not None:
            terms.append((coeff, product))
    return EvaluationPlan(terms)


@functools.cache
def _product_plans() -> tuple[EvaluationPlan, EvaluationPlan, EvaluationPlan]:
    """Plans for c3, c1^3 and c1c2 of X x S, expanded on first use, not at import."""
    total = total_chern_of_product("X", "S")
    first = total.graded_part(2)
    second = total.graded_part(4)
    top = total.graded_part(6)
    return tuple(compile_expression(e, ("X",), ("S",)) for e in (top, first ** 3, first * second))


def chern_numbers_of_product(
    x: FourManifoldInvariants, s: SurfaceInvariants
) -> ChernTriple:
    """Chern numbers of (4-manifold) x (surface), by symbolic expansion.

    Everything is computed from the Whitney product via products and
    evaluation plans; no closed form appears on this path, which is what
    makes it usable as an independent oracle.  The expansion runs once per
    process; each call only applies the plans.
    """
    c3, c1_cubed, c1c2 = _product_plans()
    factors = {"X": x, "S": s}
    return ChernTriple(c3.apply(factors), c1_cubed.apply(factors), c1c2.apply(factors))
