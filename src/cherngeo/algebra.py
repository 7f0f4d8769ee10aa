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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .invariants import ChernTriple, FourManifoldInvariants, SurfaceInvariants


class DimensionMismatchError(ValueError):
    """Expression degree does not match the ambient product's dimension."""


@dataclass(frozen=True, order=True)
class ClassGenerator:
    """A single Chern class of one factor, e.g. c1 of the second surface."""

    source: str
    kind: str  # "c1" or "c2"

    def __post_init__(self):
        if self.kind not in ("c1", "c2"):
            raise ValueError(f"kind must be 'c1' or 'c2', got {self.kind!r}")

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

    # -- constructors -----------------------------------------------------

    @classmethod
    def unit(cls) -> "GradedClassExpression":
        return cls({(): 1})

    @classmethod
    def generator(cls, gen: ClassGenerator) -> "GradedClassExpression":
        return cls({(gen,): 1})

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
        result = GradedClassExpression.unit()
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

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

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
    return GradedClassExpression.generator(ClassGenerator(source, "c1"))


def c2(source: str) -> GradedClassExpression:
    return GradedClassExpression.generator(ClassGenerator(source, "c2"))


def one() -> GradedClassExpression:
    return GradedClassExpression.unit()


def total_chern_of_product(x: str, s: str) -> GradedClassExpression:
    """Total Chern class of (4-manifold x) x (surface s), fully expanded.

    The Whitney product gives (1 + c1(x) + c2(x)) * (1 + c1(s)).
    """
    return (one() + c1(x) + c2(x)) * (one() + c1(s))


@dataclass(frozen=True)
class EvaluationContext:
    """Invariants of the factors of the ambient product being evaluated.

    ``four_manifolds`` maps factor names to their invariant records,
    ``surfaces`` maps factor names to surfaces.  The ambient product is
    exactly the union of those factors.
    """

    four_manifolds: Mapping[str, FourManifoldInvariants] = field(default_factory=dict)
    surfaces: Mapping[str, SurfaceInvariants] = field(default_factory=dict)

    def __post_init__(self):
        overlap = set(self.four_manifolds) & set(self.surfaces)
        if overlap:
            raise ValueError(f"factor names reused across kinds: {sorted(overlap)}")

    @property
    def real_dimension(self) -> int:
        return 4 * len(self.four_manifolds) + 2 * len(self.surfaces)


def _evaluate_monomial(mono: Monomial, ctx: EvaluationContext) -> int:
    by_source: dict[str, list[ClassGenerator]] = {}
    for gen in mono:
        by_source.setdefault(gen.source, []).append(gen)

    for source in by_source:
        if source not in ctx.four_manifolds and source not in ctx.surfaces:
            raise DimensionMismatchError(
                f"generator factor {source!r} is not part of the ambient product"
            )
    touched = [s for s in by_source if s in ctx.four_manifolds]
    if len(touched) > 1:
        raise DimensionMismatchError(
            "monomials mixing two 4-manifold factors are not supported"
        )

    value = 1
    for name, inv in ctx.four_manifolds.items():
        part = by_source.get(name, [])
        if sum(g.degree for g in part) != 4:
            return 0  # part misses or exceeds the factor's top degree
        kinds = sorted(g.kind for g in part)
        if kinds == ["c1", "c1"]:
            value *= inv.c1_sq
        else:  # ["c2"]
            value *= inv.c2
    for name, surf in ctx.surfaces.items():
        part = by_source.get(name, [])
        if sum(g.degree for g in part) != 2:
            return 0  # c1(S)^2 and higher vanish, as does an absent factor
        value *= surf.euler
    return value


def evaluate(expr: GradedClassExpression, ctx: EvaluationContext) -> int:
    """Pair a top-degree expression with the fundamental class of the product."""
    dim = ctx.real_dimension
    wrong = {d for d in expr.degrees() if d != dim}
    if wrong:
        raise DimensionMismatchError(
            f"expression has degree(s) {sorted(wrong)} but the ambient dimension is {dim}"
        )
    return sum(coeff * _evaluate_monomial(mono, ctx) for mono, coeff in expr.terms.items())


def chern_numbers_of_product(
    x: FourManifoldInvariants, s: SurfaceInvariants
) -> ChernTriple:
    """Chern numbers of (4-manifold) x (surface), by symbolic expansion.

    Everything is computed from the Whitney product via products and evaluate;
    no closed form appears on this path, which is what makes it usable as
    an independent oracle.
    """
    ctx = EvaluationContext(four_manifolds={"X": x}, surfaces={"S": s})
    total = total_chern_of_product("X", "S")
    first = total.graded_part(2)
    second = total.graded_part(4)
    top = total.graded_part(6)
    return ChernTriple(
        c3=evaluate(top, ctx),
        c1_cubed=evaluate(first ** 3, ctx),
        c1c2=evaluate(first * second, ctx),
    )
