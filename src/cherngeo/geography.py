"""Divisibility checks, realization search, and the geography-plane classifier.

The divisibility conditions (c3 and c1^3 even, c1c2 divisible by 24) are
necessary for any symplectic 6-manifold; the fiber-sum construction adds
the stronger obstruction that c1^3 be divisible by 6.  The search inverts
the closed-form construction over bounded family parameters.  The plane
classifier reproduces the standard region picture of 4-manifold geography
in the (chi_h, c1^2) plane; region boundaries are closed on both sides,
so boundary points carry every adjacent label.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass

from .catalog import FAMILIES, family_name, generic_block
from .fibersum import halic_construction, halic_construction_via_oracle
from .invariants import ChernTriple, LefschetzBlock, json_field

# The closed regions of the plane in label order, as (label, lower line,
# upper line); a line (a, b) is c1^2 = a*chi_h + b.  Points strictly below
# the first lower line are "negative-c1sq-unknown", points strictly above
# the last upper line "above-BMY-unknown".
REGIONS = (
    ("many-basic-classes", (0, 0), (1, -3)),
    ("one-basic-class", (1, -3), (2, -6)),
    ("general-type", (2, -6), (9, 0)),
)


@dataclass(frozen=True)
class DivisibilityReport:
    """Outcome of the necessary divisibility conditions on a Chern triple."""

    c3_even: bool
    c1cubed_even: bool
    c1c2_mod24: bool

    @property
    def all_pass(self) -> bool:
        return self.c3_even and self.c1cubed_even and self.c1c2_mod24


def halic_divisibility_check(t: ChernTriple) -> DivisibilityReport:
    return DivisibilityReport(
        c3_even=t.c3 % 2 == 0,
        c1cubed_even=t.c1_cubed % 2 == 0,
        c1c2_mod24=t.c1c2 % 24 == 0,
    )


def construction_obstruction(t: ChernTriple) -> list[str]:
    """Necessary conditions for realizability by this construction.

    Returns a list of failed conditions; empty means no obstruction found
    (which is not a realizability proof).
    """
    out = []
    report = halic_divisibility_check(t)
    if not report.c3_even:
        out.append(f"c3 = {t.c3} is not even")
    if not report.c1cubed_even:
        out.append(f"c1^3 = {t.c1_cubed} is not even")
    if not report.c1c2_mod24:
        out.append(f"c1c2 = {t.c1c2} is not divisible by 24")
    if t.c1_cubed % 6 != 0:
        out.append(f"c1^3 = {t.c1_cubed} is not divisible by 6")
    return out


@dataclass(frozen=True)
class GenericGrid:
    """Inclusive ranges for brute-force generic blocks in the search."""

    chi_h: tuple[int, int]
    c1_sq: tuple[int, int]
    genus: tuple[int, int]


@dataclass(frozen=True)
class SearchBounds:
    """Search limits; ``families`` are resolved through the catalog's registry and aliases."""

    families: tuple[str, ...] = tuple(FAMILIES)
    max_m: int = 5
    max_k: int = 5
    max_knot_genus: int = 4
    generic: GenericGrid | None = None

    def __post_init__(self):
        if not isinstance(self.families, (list, tuple)):
            raise ValueError(f"families must be a list of family names, got {self.families!r}")
        object.__setattr__(self, "families", tuple(family_name(f) for f in self.families))

    @classmethod
    def from_json(cls, data: dict) -> "SearchBounds":
        if not isinstance(data, dict):
            raise ValueError("search bounds must be a JSON object")
        generic = data.get("generic")
        if generic is not None:
            if not isinstance(generic, dict):
                raise ValueError(f"field 'generic' must be an object, got {generic!r}")
            generic = GenericGrid(*(_range_field(generic, k) for k in ("chi_h", "c1_sq", "genus")))
        limits = {k: json_field(data, k) for k in ("max_m", "max_k", "max_knot_genus") if k in data}
        return cls(families=data.get("families", cls.families), generic=generic, **limits)


def _range_field(grid: dict, key: str) -> tuple[int, int]:
    value = grid.get(key)
    if isinstance(value, list) and len(value) == 2:
        with contextlib.suppress(TypeError, ValueError):
            return int(value[0]), int(value[1])
    raise ValueError(f"field 'generic.{key}' must be a [lo, hi] pair of integers, got {value!r}")


@dataclass(frozen=True)
class Realization:
    """A block pair whose fiber sum hits the target triple."""

    block1: LefschetzBlock
    block2: LefschetzBlock
    triple: ChernTriple


def candidate_blocks(bounds: SearchBounds) -> list[LefschetzBlock]:
    """All blocks within bounds: the named families in registry order, then the generic grid."""
    blocks: list[LefschetzBlock] = []
    for name, (build, _, search_ranges) in FAMILIES.items():
        if name in bounds.families:
            blocks.extend(build(*args) for args in itertools.product(*search_ranges(bounds)))
    if bounds.generic is not None:
        grid = bounds.generic
        for chi in range(grid.chi_h[0], grid.chi_h[1] + 1):
            for c1sq in range(grid.c1_sq[0], grid.c1_sq[1] + 1):
                for genus in range(max(0, grid.genus[0]), grid.genus[1] + 1):
                    n = (12 * chi - c1sq) - 2 * (2 - 2 * genus)
                    if n < 0:
                        continue  # no fibration with this genus hits that Euler number
                    blocks.append(generic_block(chi, c1sq, genus, n, n > 2 * genus))
    return blocks


def search_realizations(target: ChernTriple, bounds: SearchBounds) -> list[Realization]:
    """All unordered block pairs within bounds realizing the target exactly.

    Symmetric pairs are deduplicated by canonical ordering of the
    candidate list.  Every hit is recomputed through the independent
    symbolic path before emission.
    """
    if construction_obstruction(target):
        return []
    blocks = candidate_blocks(bounds)
    results: list[Realization] = []
    for i, b1 in enumerate(blocks):
        for b2 in blocks[i:]:
            triple = halic_construction(b1, b2)
            if triple != target:
                continue
            verified = halic_construction_via_oracle(b1, b2)
            if verified != triple:  # pragma: no cover - would be a formula bug
                raise AssertionError(
                    f"closed form and symbolic path disagree on ({b1.name}, {b2.name})"
                )
            results.append(Realization(b1, b2, triple))
    return results


def _sign(value: int) -> int:
    return (value > 0) - (value < 0)


@dataclass(frozen=True)
class GeographyClassification:
    """Region labels and flags for one integer point of the (chi_h, c1^2) plane."""

    chi_h: int
    c1_sq: int
    labels: tuple[str, ...]
    basic_class_count: int | None
    on_elliptic_axis: bool
    signature_sign: int


# REGIONS flattened for the classifier's loop, and the lines bounding the table.
_REGION_BOUNDS = tuple((label, *lower, *upper) for label, lower, upper in REGIONS)
_FLOOR, _CEILING = REGIONS[0][1], REGIONS[-1][2]


def classify_geography_point(chi_h: int, c1_sq: int) -> GeographyClassification:
    """All regions whose defining inequalities the point satisfies.

    Boundaries are closed, so points on a dividing line get both labels.
    The basic-class count chi_h - c1_sq - 2 is reported verbatim whenever
    the many-basic-classes strip matches, even when it is non-positive.
    """
    labels = []
    if c1_sq < _FLOOR[0] * chi_h + _FLOOR[1]:
        labels.append("negative-c1sq-unknown")
    for label, lower_a, lower_b, upper_a, upper_b in _REGION_BOUNDS:
        if lower_a * chi_h + lower_b <= c1_sq <= upper_a * chi_h + upper_b:
            labels.append(label)
    if c1_sq > _CEILING[0] * chi_h + _CEILING[1]:
        labels.append("above-BMY-unknown")
    # Positional: keyword arguments make a classification about 20% slower (CPython 3.11).
    return GeographyClassification(
        chi_h,
        c1_sq,
        tuple(labels),
        chi_h - c1_sq - 2 if "many-basic-classes" in labels else None,  # basic_class_count
        c1_sq == 0 and chi_h >= 1,  # on_elliptic_axis
        _sign(c1_sq - 8 * chi_h),  # signature_sign
    )
