"""Invariant records for 4-manifolds, surfaces, and 6-manifold Chern triples.

Everything here is exact integer arithmetic.  A 4-manifold record is its
point (chi_h, c1^2) of the geography plane; sigma, e and c2 are derived
from it, so no record can contradict them.  A block's fibration data is
checked against its record by :func:`validate_block`, which reports
violations as data (a list of messages), never raised, so that invalid
blocks can be constructed, inspected, and displayed.  Only geometrically
meaningless inputs (negative genus, negative singular-fiber count) are
rejected at construction time.

The records here and in the other modules are immutable named tuples
with ``__slots__ = ()``, which a cold CLI process defines without
importing a code-generating module; construction checks live in
``__new__``.  A record whose class has no checking ``__new__``
(``ChernTriple``, ``DivisibilityReport``) may be built on a hot path by
``tuple.__new__(kind, values)``: one C call that gives the same record as
``kind(*values)``, where the named tuple's generated ``__new__`` is a
Python call.

A hot path reads a block's fields by name.  On CPython 3.11
``UNPACK_SEQUENCE`` has a fast path only for exact tuples, so unpacking a
named tuple walks every field through the generic iterator, while a read
by name costs one field; unpacking a block and its invariants record walks
seven.  ``fibersum.halic_construction``,
``fibersum.halic_construction_via_oracle`` and the per-block loop of
``lattice.family_partners`` read a block's ``invariants.chi_h``,
``invariants.c1_sq`` and ``fiber_genus`` by name: unpacking the block and
its record made the closed form 0.797 -> 0.882 us per call (``timeit``, the
change recorded in ``BENCH_9.json``), and reading by name instead raised
search-sparse ``work_per_s`` 1.296 M -> 1.464 M (+13.0%, medians of ten
25 s runs a side, ``BENCH_28.json``).  :func:`validate_block` reads six of
the seven by name too, which ``timeit`` puts level with its unpack; with
the oracle's surface records, which store each genus's Euler number
(``fibersum._surface``), oracle-check ``work_per_s`` rose 109.8 k ->
117.2 k (+6.7%, ``BENCH_30.json``).  ``geography.halic_divisibility_check``
unpacks its ``ChernTriple``, a flat record whose three fields it all reads:
reading them by name saves about 15 ns of a 5 us audited pair, under 1%.
"""

from __future__ import annotations

from collections import namedtuple


class BlockValidationError(ValueError):
    """A block failed validation where a valid block was required."""

    def __init__(self, name: str, violations: list[str]):
        self.block_name = name
        self.violations = list(violations)
        super().__init__(f"invalid block {name!r}: " + "; ".join(violations))


class FourManifoldInvariants(namedtuple("FourManifoldInvariants", "chi_h c1_sq")):
    """The point (chi_h, c1^2) of a closed almost complex 4-manifold.

    Fields (both ``int``): chi_h, c1_sq.  The Euler number (also read as
    ``c2``) is 12*chi_h - c1^2 by Noether's formula, and the signature is
    c1^2 - 8*chi_h.
    """

    __slots__ = ()

    @property
    def euler(self) -> int:
        return 12 * self.chi_h - self.c1_sq

    c2 = euler

    @property
    def sigma(self) -> int:
        return self.c1_sq - 8 * self.chi_h


class SurfaceInvariants(namedtuple("SurfaceInvariants", "genus")):
    """A closed oriented surface of genus g (``genus: int``); euler = 2 - 2g."""

    __slots__ = ()

    def __new__(cls, genus: int):
        if genus < 0:
            raise ValueError(f"genus must be non-negative, got {genus}")
        return super().__new__(cls, genus)

    @property
    def euler(self) -> int:
        return 2 - 2 * self.genus


class LefschetzBlock(
    namedtuple("LefschetzBlock", "name invariants fiber_genus singular_fibers simply_connected")
):
    """A 4-manifold with a Lefschetz fibration over the sphere.

    Fields: ``name: str``, ``invariants: FourManifoldInvariants``,
    ``fiber_genus: int`` (the genus of the generic fiber),
    ``singular_fibers: int`` (the number of nodal fibers) and
    ``simply_connected: bool``.  Negative counts are rejected here;
    consistency of the fibration data with the invariant record is the job
    of :func:`validate_block`.
    """

    __slots__ = ()

    def __new__(
        cls,
        name: str,
        invariants: FourManifoldInvariants,
        fiber_genus: int,
        singular_fibers: int,
        simply_connected: bool,
    ):
        if fiber_genus < 0:
            raise ValueError(f"fiber genus must be non-negative, got {fiber_genus}")
        if singular_fibers < 0:
            raise ValueError(f"singular-fiber count must be non-negative, got {singular_fibers}")
        return super().__new__(
            cls, name, invariants, fiber_genus, singular_fibers, simply_connected
        )


class ChernTriple(namedtuple("ChernTriple", "c3 c1_cubed c1c2")):
    """The three Chern numbers (c3, c1^3, c1c2) of an almost complex 6-manifold.

    Fields (all ``int``): c3, c1_cubed, c1c2.
    """

    __slots__ = ()


def euler_from_fibration(genus: int, singular_fibers: int) -> int:
    """Euler characteristic of a Lefschetz fibration: 2(2 - 2g) + n."""
    if genus < 0 or singular_fibers < 0:
        raise ValueError("genus and singular-fiber count must be non-negative")
    return 2 * (2 - 2 * genus) + singular_fibers


def validate_block(block: LefschetzBlock) -> list[str]:
    """The fibration rules the block breaks; an empty list means valid.

    The rules are e = 2(2-2g) + n, and n > 2g for a simply connected
    block.  The second applies only to genuine Lefschetz fibrations with
    singular fibers (n > 0); fibrations without singular fibers (e.g. a
    sphere bundle) may be flagged simply connected by family knowledge.
    A negative genus or count raises :func:`euler_from_fibration`'s
    ValueError.  Both Euler numbers are computed inline, so that a
    validation is one Python call.
    """
    # Six fields, read by name (see the module docstring).
    genus, singular_fibers = block.fiber_genus, block.singular_fibers
    if genus < 0 or singular_fibers < 0:
        raise ValueError("genus and singular-fiber count must be non-negative")
    x = block.invariants
    euler = 12 * x.chi_h - x.c1_sq  # Noether's formula, as FourManifoldInvariants.euler
    expected_e = 2 * (2 - 2 * genus) + singular_fibers  # as euler_from_fibration
    out = []
    if euler != expected_e:
        out.append(f"euler != 2(2-2g)+n ({euler} != {expected_e})")
    if block.simply_connected and 0 < singular_fibers <= 2 * genus:
        out.append(f"simply connected requires n > 2g ({singular_fibers} <= {2 * genus})")
    return out


def require_valid(*blocks: LefschetzBlock) -> None:
    """Validate the blocks in order; raise BlockValidationError for the first invalid one."""
    for block in blocks:
        violations = validate_block(block)
        if violations:
            raise BlockValidationError(block.name, violations)


def block_to_json(block: LefschetzBlock) -> dict:
    """Serialize a block; derived fields (sigma, euler, c2) are not stored."""
    return {
        "name": block.name,
        "chi_h": block.invariants.chi_h,
        "c1_sq": block.invariants.c1_sq,
        "fiber_genus": block.fiber_genus,
        "singular_fibers": block.singular_fibers,
        "simply_connected": block.simply_connected,
    }


def json_field(record: dict, key: str, kind=int):
    """``record[key]``, which must be a JSON value of type ``kind`` (int, bool or str).

    Nothing is converted: ``1.5``, ``2.0``, ``"2"`` and ``true`` are not
    ints, and ``"no"`` is not a bool.  A string must be encodable as UTF-8,
    so a lone surrogate such as ``"\\ud800"`` is refused here rather than
    when it is printed.  A missing or mistyped field raises ValueError.
    """
    if key not in record:
        raise ValueError(f"missing field {key!r}")
    value = record[key]
    if type(value) is not kind:
        raise ValueError(f"field {key!r} must be {kind.__name__}, got {value!r}")
    if kind is str:
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"field {key!r} must be encodable as UTF-8, got {value!r}") from None
    return value


def refuse_unknown_fields(record: dict, known: tuple[str, ...], what: str) -> None:
    """Raise ValueError naming the first key of ``record`` outside ``known``."""
    for key in record:
        if key not in known:
            raise ValueError(f"unknown {what} field {key!r} (known: {', '.join(known)})")


# The fields block_to_json writes, and the derived ones a block record may repeat.
_BLOCK_FIELDS = ("name", "chi_h", "c1_sq", "fiber_genus", "singular_fibers", "simply_connected")
DERIVED_FIELDS = ("sigma", "euler", "c2")


def block_from_json(data: dict) -> LefschetzBlock:
    """Load a block; derived invariants are recomputed, never trusted.

    A stored sigma, euler or c2 must equal the value recomputed from chi_h
    and c1_sq, and any other key outside the block's fields raises
    ValueError.
    """
    refuse_unknown_fields(data, _BLOCK_FIELDS + DERIVED_FIELDS, "block")
    block = LefschetzBlock(
        name=json_field(data, "name", str),
        invariants=FourManifoldInvariants(json_field(data, "chi_h"), json_field(data, "c1_sq")),
        fiber_genus=json_field(data, "fiber_genus"),
        singular_fibers=json_field(data, "singular_fibers"),
        simply_connected=json_field(data, "simply_connected", bool),
    )
    for key in DERIVED_FIELDS:
        if key in data:
            derived = getattr(block.invariants, key)
            if json_field(data, key) != derived:
                raise ValueError(
                    f"field {key!r} is {data[key]}, but chi_h and c1_sq give {derived}"
                )
    return block
