"""Divisibility checks, realization search, and the geography-plane classifier.

The divisibility conditions (c3 and c1^3 even, c1c2 divisible by 24) are
necessary for any symplectic 6-manifold; the fiber-sum construction adds
the stronger obstruction that c1^3 be divisible by 6, and its triples all
lie on the plane 3*c3 = 3*c1c2 - c1^3.  :func:`construction_obstruction`
tests all five.  The search inverts the closed-form construction over
bounded family parameters, the ``catalog.SearchBounds``.  The plane
classifier reproduces the standard region picture of 4-manifold geography
in the (chi_h, c1^2) plane; region boundaries are closed on both sides, so
boundary points carry every adjacent label.

The plane classifier and :mod:`cherngeo.plot` use neither the fiber sum,
the block catalog nor the invariant records, so this module imports each
where the search uses it, and names the records' types in docstrings, not
annotations: a process that imports only the plot loads only this module
and the plot.  ``geography.SearchBounds`` and ``geography.GenericGrid``
still name the catalog's classes, loading the catalog on first use.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple


def __getattr__(name: str):
    """``SearchBounds`` and ``GenericGrid``, the catalog's classes, imported on first use."""
    if name in ("SearchBounds", "GenericGrid"):
        from . import catalog

        return getattr(catalog, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# The closed regions of the plane in label order, as (label, lower line,
# upper line); a line (a, b) is c1^2 = a*chi_h + b.  Points strictly below
# the first lower line are "negative-c1sq-unknown", points strictly above
# the last upper line "above-BMY-unknown".  The lines' sources:
# - c1^2 = 9*chi_h is the Bogomolov-Miyaoka-Yau bound, c1^2 <= 3*c2;
# - c1^2 = 2*chi_h - 6 is Noether's inequality for minimal surfaces of
#   general type;
# - c1^2 = 0 is the elliptic axis, ELLIPTIC_AXIS below;
# - for c1^2 = chi_h - 3 and the labels "many-basic-classes" and
#   "one-basic-class", no source is in this repository.
REGIONS = (
    ("many-basic-classes", (0, 0), (1, -3)),
    ("one-basic-class", (1, -3), (2, -6)),
    ("general-type", (2, -6), (9, 0)),
)

# The lines the classification's two flags refer to: elliptic surfaces E(n)
# sit on the axis c1^2 = 0 (for chi_h >= 1), and the signature
# sigma = c1^2 - 8*chi_h changes sign across the signature line.
ELLIPTIC_AXIS = (0, 0)
SIGNATURE_LINE = (8, 0)

# Every line the classifier compares c1^2 against, and the chart draws or
# shades: the region boundaries and the two flag lines.
CUT_LINES = {line for _, lower, upper in REGIONS for line in (lower, upper)} | {
    ELLIPTIC_AXIS,
    SIGNATURE_LINE,
}


class DivisibilityReport(namedtuple("DivisibilityReport", "c3_even c1cubed_even c1c2_mod24")):
    """Outcome of the necessary divisibility conditions on a Chern triple.

    Fields (all ``bool``): c3_even, c1cubed_even, c1c2_mod24.
    """

    __slots__ = ()

    # True when all three pass; the builtin all() reads the record without a Python call.
    all_pass = property(all)


def halic_divisibility_check(t) -> DivisibilityReport:
    """The three divisibility conditions of the Chern triple ``t`` (a ``ChernTriple``)."""
    c3, c1_cubed, c1c2 = t
    # tuple.__new__ builds the record in one C call (see the invariants module).
    return tuple.__new__(DivisibilityReport, (
        c3 % 2 == 0,  # c3_even
        c1_cubed % 2 == 0,  # c1cubed_even
        c1c2 % 24 == 0,  # c1c2_mod24
    ))


def construction_obstruction(t) -> list[str]:
    """Why ``t`` is not a triple of the fiber-sum construction, one message per failed condition.

    ``t`` is a ``ChernTriple``.

    The conditions are the three divisibility checks, 6 | c1^3 and the plane
    3*c3 = 3*c1c2 - c1^3, its sides compared times three so that no division
    enters.  An empty list means ``t`` is the triple of the formal witness
    generic(A, B, g) + S^2 x S^2, with A = c1c2/24, B = c1^3/6 and any genus g
    leaving n = 12A - B - 4 + 4g >= 0; the search asks which blocks realize it.
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
    if 3 * t.c3 != 3 * t.c1c2 - t.c1_cubed:
        out.append(f"3*c3 = {3 * t.c3} differs from 3*c1c2 - c1^3 = {3 * t.c1c2 - t.c1_cubed}")
    return out


class Realization(namedtuple("Realization", "block1 block2 triple")):
    """A block pair whose fiber sum hits the target triple.

    Fields: ``block1``, ``block2`` (``LefschetzBlock``) and ``triple``
    (``ChernTriple``).
    """

    __slots__ = ()


# The most candidate blocks one search may enumerate; bounds that allow more are
# refused before any block is built.  Every candidate is still built and
# validated, but only pairs of two generic-grid blocks are scanned, at most
# about 12.5 million of them; a named family's partners are solved for.
SEARCH_BLOCK_LIMIT = 5_000

# The most realizations one search may return.  Some targets have one for every
# pair of a family (E(m) + E(m') gives (0, 0, 0) for all m, m'), so hits grow as
# the square of the candidates; a search is refused at the first distinct hit
# past the limit, before any realization is built or verified.
SEARCH_RESULT_LIMIT = 200_000


def _selected_families(bounds) -> list[tuple[str, list[range]]]:
    """The selected families with blocks within bounds, in registry order, with their ranges."""
    from .catalog import FAMILIES

    selected = []
    for name, (_, params, _) in FAMILIES.items():
        ranges = [range(least, getattr(bounds, limit) + 1) for least, limit, _ in params.values()]
        if name in bounds.families and all(ranges):
            selected.append((name, ranges))
    return selected


def candidate_blocks(bounds) -> list:
    """All blocks within bounds: the named families in registry order, then the generic grid.

    ``bounds`` is a ``catalog.SearchBounds``; the blocks are
    ``LefschetzBlock``s.  Bounds that allow more than
    :data:`SEARCH_BLOCK_LIMIT` blocks raise ValueError before any block is
    built.  The count is an upper bound: the product of the search ranges of
    each selected family, plus the size of the generic grid before genera
    without a fibration are dropped.  A family with an empty range has no
    blocks, and no range of it is read.
    """
    # Imported here, so that the plane classifier and plot load no catalog or invariants.
    from .catalog import INPUT_DIGITS, family_block, generic_block
    from .invariants import FourManifoldInvariants, euler_from_fibration

    selected = _selected_families(bounds)
    # Ranges are non-empty with step 1; len() refuses a range past sys.maxsize.
    count = sum(math.prod(r.stop - r.start for r in ranges) for _, ranges in selected)
    if bounds.generic is not None:
        count += math.prod(hi - lo + 1 for lo, hi in bounds.generic)
    if count > SEARCH_BLOCK_LIMIT:
        # Three grid ranges of INPUT_DIGITS digits give a count longer than any
        # printed value (see catalog.INPUT_DIGITS), and than str() converts.
        too_long = count >= 10 ** (2 * INPUT_DIGITS)
        shown = f"at least 10**{2 * INPUT_DIGITS}" if too_long else count
        raise ValueError(
            f"search bounds allow {shown} candidate blocks, more than the limit of "
            f"{SEARCH_BLOCK_LIMIT}"
        )
    blocks = []
    for name, ranges in selected:
        blocks.extend(family_block(name, *args) for args in itertools.product(*ranges))
    if bounds.generic is not None:
        grid = bounds.generic
        for chi in range(grid.chi_h[0], grid.chi_h[1] + 1):
            for c1sq in range(grid.c1_sq[0], grid.c1_sq[1] + 1):
                euler = FourManifoldInvariants(chi, c1sq).euler
                for genus in range(grid.genus[0], grid.genus[1] + 1):
                    n = euler - euler_from_fibration(genus, 0)
                    if n < 0:
                        continue  # no fibration with this genus hits that Euler number
                    blocks.append(generic_block(chi, c1sq, genus, n, n > 2 * genus))
    return blocks


def search_realizations(target, bounds) -> list[Realization]:
    """All unordered block pairs within bounds realizing the target exactly.

    ``target`` is a ``ChernTriple`` and ``bounds`` a
    ``catalog.SearchBounds``.  Symmetric pairs are deduplicated by canonical
    ordering of the candidate list, and the pairs come in that order.  Every
    candidate is validated once, in list order, before any pair is examined;
    the first invalid one is the one a scan would meet first.  A target with
    a :func:`construction_obstruction` gives no pairs; otherwise the image
    test makes A = c1c2/24 and B = c1^3/6 exact, and
    ``lattice.family_partners`` solves for each candidate's partners in each
    selected family from them.  Only pairs of two generic-grid blocks go
    through the closed form one by one.  Every hit is then computed by the
    closed form and recomputed through the independent symbolic path before
    emission.  Bounds that select no candidate block raise ValueError, so
    that an empty result always means a search found nothing.
    """
    if construction_obstruction(target):
        return []
    blocks = candidate_blocks(bounds)
    if not blocks:
        raise ValueError(f"search bounds select no candidate block: {bounds!r}")
    # Imported here, so that the plane classifier and plot load no fiber sum, algebra
    # or invariants; require_valid is read from invariants at each call.
    from .fibersum import halic_construction, halic_construction_via_oracle
    from .invariants import require_valid
    from .lattice import family_partners

    require_valid(*blocks)
    a, b = target.c1c2 // 24, target.c1_cubed // 6  # exact: the target is on the image
    n = len(blocks)
    # Each hit (i, j), i <= j, is kept as the int i * n + j: ints sort as the
    # pairs do, and need no tuple each.
    hits = set()

    def hit(key: int) -> None:
        hits.add(key)
        if len(hits) > SEARCH_RESULT_LIMIT:
            raise ValueError(
                f"search bounds give more than {SEARCH_RESULT_LIMIT} realizations of "
                f"{tuple(target)}, the limit of one search"
            )

    start = 0  # the index of the family's first block
    for name, ranges in _selected_families(bounds):
        spans = tuple(len(r) - 1 for r in ranges)
        # candidate_blocks lists a family's blocks in itertools.product order.
        strides = [math.prod(map(len, ranges[k + 1:])) for k in range(len(ranges))]
        for i, offsets in family_partners(blocks, a, b, name, spans):
            j = start + sum(map(operator.mul, offsets, strides))
            hit(i * n + j if i <= j else j * n + i)
        start += math.prod(map(len, ranges))
    # The generic grid follows the named families: scan its pairs.
    for i in range(start, n):
        b1 = blocks[i]
        for j, b2 in enumerate(blocks[i:], i):
            if halic_construction(b1, b2, check=False) == target:
                hit(i * n + j)
    results: list[Realization] = []
    for key in sorted(hits):
        i, j = divmod(key, n)
        b1, b2 = blocks[i], blocks[j]
        triple = halic_construction(b1, b2, check=False)
        verified = halic_construction_via_oracle(b1, b2, check=False)
        if not triple == verified == target:  # would be a formula bug
            raise AssertionError(
                f"closed form, symbolic path and target disagree on ({b1.name}, {b2.name})"
            )
        results.append(Realization(b1, b2, triple))
    return results


def _sign(value: int) -> int:
    return (value > 0) - (value < 0)


class GeographyClassification(
    namedtuple(
        "GeographyClassification",
        "chi_h c1_sq labels basic_class_count on_elliptic_axis signature_sign",
    )
):
    """Region labels and flags for one integer point of the (chi_h, c1^2) plane.

    Fields: ``chi_h: int``, ``c1_sq: int``, ``labels: tuple[str, ...]``,
    ``basic_class_count: int | None``, ``on_elliptic_axis: bool`` and
    ``signature_sign: int`` (-1, 0 or 1).
    """

    __slots__ = ()


# REGIONS flattened for the classifier's loop, and the lines bounding the table.
_REGION_BOUNDS = tuple((label, *lower, *upper) for label, lower, upper in REGIONS)
_FLOOR, _CEILING = REGIONS[0][1], REGIONS[-1][2]
_AXIS_A, _AXIS_B = ELLIPTIC_AXIS
_SIGNATURE_A, _SIGNATURE_B = SIGNATURE_LINE


def basic_class_count(chi_h: int, c1_sq: int) -> int:
    """The basic-class count chi_h - c1_sq - 2 of a point in the many-basic-classes strip.

    Only points of the strip 0 <= c1_sq <= chi_h - 3 have one, and there it
    is at least 1; the caller checks the strip.
    """
    return chi_h - c1_sq - 2


def classify_geography_point(chi_h: int, c1_sq: int) -> GeographyClassification:
    """All regions whose defining inequalities the point satisfies.

    Boundaries are closed, so points on a dividing line get both labels.
    The :func:`basic_class_count` is reported whenever the
    many-basic-classes strip 0 <= c1_sq <= chi_h - 3 matches, so it is
    always at least 1; elsewhere it is None.
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
        basic_class_count(chi_h, c1_sq) if "many-basic-classes" in labels else None,
        c1_sq == _AXIS_A * chi_h + _AXIS_B and chi_h >= 1,  # on_elliptic_axis
        _sign(c1_sq - (_SIGNATURE_A * chi_h + _SIGNATURE_B)),  # signature_sign
    )


# Two cut lines a1*chi_h + b1 and a2*chi_h + b2 cross at chi_h = (b2 - b1) / (a1 - a2).
# Every column strictly left of the leftmost crossing has its cuts in one
# order, as has every column strictly right of the rightmost, so a run key
# clamps chi_h to the columns from _KEY_LO to _KEY_HI.  The window also keeps
# chi_h = 0 and 1 apart, the two sides of the elliptic flag's chi_h >= 1.
_CROSSINGS = [
    (b2 - b1, a1 - a2) for (a1, b1), (a2, b2) in itertools.combinations(CUT_LINES, 2) if a1 != a2
]
_KEY_LO = min(0, min(-(-num // den) for num, den in _CROSSINGS) - 1)  # ceiling, less one
_KEY_HI = max(1, max(num // den for num, den in _CROSSINGS) + 1)  # floor, plus one


def _column_lines(chi_h: int) -> tuple[tuple[int, int], ...]:
    """One cut line per distinct cut value of the column, in increasing order of value."""
    by_value = {}
    for a, b in CUT_LINES:
        by_value.setdefault(a * chi_h + b, (a, b))
    return tuple(by_value[value] for value in sorted(by_value))


# Clamped column -> its cut lines in order.  Every column beyond the window
# has the order of the window's end on its side, and its cuts are distinct.
_COLUMN_LINES = {column: _column_lines(column) for column in range(_KEY_LO, _KEY_HI + 1)}


def column_runs(chi_h: int, lo: int, hi: int) -> list[tuple[int, int, tuple[int, int]]]:
    """The runs of one column, as a list of (first, last, key).

    Every condition of :func:`classify_geography_point` compares c1^2 with
    one of the column's cut values a*chi_h + b, so the labels and both flags
    are the same at every point strictly between two consecutive cuts, and
    each cut is a run of its own.  Within a run only ``basic_class_count``
    changes: it falls by one for each step up in c1^2.  The runs cover
    [lo, hi] in increasing order, clipped to it.

    ``key`` is (chi_h clamped to [_KEY_LO, _KEY_HI], the run's slot).  With
    the column's distinct cut values sorted and counted from 0, slot 2*i
    lies strictly below cut i and above cut i - 1, and slot 2*i + 1 is cut
    i.  Columns with equal clamped chi_h have their cuts in the same order,
    ties included, and lie on the same side of chi_h = 1, so runs with
    equal keys, in any columns, have the same labels and flags.  That order
    is read from ``_COLUMN_LINES``; nothing is sorted per call.
    """
    column = min(max(chi_h, _KEY_LO), _KEY_HI)
    runs = []
    first, slot = lo, 0
    for a, b in _COLUMN_LINES[column]:
        cut = a * chi_h + b
        if cut > hi:
            break
        if cut >= lo:
            if first < cut:
                runs.append((first, cut - 1, (column, slot)))
            runs.append((cut, cut, (column, slot + 1)))
            first = cut + 1
        slot += 2
    if first <= hi:
        runs.append((first, hi, (column, slot)))
    return runs
