"""Invariant records for 4-manifolds, surfaces, and 6-manifold Chern triples.

Everything here is exact integer arithmetic.  Identity violations are
reported as data (lists of messages), never raised, so that invalid
records can be constructed, inspected, and displayed.  Only geometrically
meaningless inputs (negative genus, negative singular-fiber count) are
rejected at construction time.

The records here and in the other modules are immutable named tuples
with ``__slots__ = ()``, which a cold CLI process defines without
importing a code-generating module; construction checks live in
``__new__``.
"""

from __future__ import annotations

from collections import namedtuple


class BlockValidationError(ValueError):
    """A block failed validation where a valid block was required."""

    def __init__(self, name: str, violations: list[str]):
        self.block_name = name
        self.violations = list(violations)
        super().__init__(f"invalid block {name!r}: " + "; ".join(violations))


class FourManifoldInvariants(namedtuple("FourManifoldInvariants", "sigma euler chi_h c1_sq c2")):
    """Numeric invariants of a closed almost complex 4-manifold.

    Fields (all ``int``): sigma, euler, chi_h, c1_sq, c2.  The record
    stores all five quantities redundantly; the defining identities
    (c1^2 = 3*sigma + 2*euler, c2 = euler, 4*chi_h = sigma + euler) are
    checked by :meth:`violations`.
    """

    __slots__ = ()

    def violations(self) -> list[str]:
        sigma, euler, chi_h, c1_sq, c2 = self
        out = []
        if c1_sq != 3 * sigma + 2 * euler:
            out.append(f"c1^2 != 3*sigma + 2*euler ({c1_sq} != {3 * sigma + 2 * euler})")
        if c2 != euler:
            out.append(f"c2 != euler ({c2} != {euler})")
        if 4 * chi_h != sigma + euler:
            out.append(f"4*chi_h != sigma + euler ({4 * chi_h} != {sigma + euler})")
        return out


class SurfaceInvariants(namedtuple("SurfaceInvariants", "genus")):
    """A closed oriented surface of genus g (``genus: int``); euler = 2 - 2g."""

    __slots__ = ()

    def __new__(cls, genus: int):
        if genus < 0:
            raise ValueError(f"genus must be non-negative, got {genus}")
        # What the namedtuple's own __new__ does, without its extra call.  The
        # oracle builds one per genus, not per pair (fibersum._surface).
        return tuple.__new__(cls, (genus,))

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

    def to_json(self) -> dict:
        return self._asdict()

    @classmethod
    def from_json(cls, data: dict) -> "ChernTriple":
        return cls(json_field(data, "c3"), json_field(data, "c1_cubed"), json_field(data, "c1c2"))


def euler_from_fibration(genus: int, singular_fibers: int) -> int:
    """Euler characteristic of a Lefschetz fibration: 2(2 - 2g) + n."""
    if genus < 0 or singular_fibers < 0:
        raise ValueError("genus and singular-fiber count must be non-negative")
    return 2 * (2 - 2 * genus) + singular_fibers


def complete_invariants(chi_h: int, c1_sq: int) -> FourManifoldInvariants:
    """Fill in (sigma, euler, c2) from (chi_h, c1^2).

    Uses euler = c2 = 12*chi_h - c1^2 and sigma = c1^2 - 8*chi_h; the
    result always satisfies all three identities of the record.
    """
    euler = 12 * chi_h - c1_sq
    sigma = c1_sq - 8 * chi_h
    return FourManifoldInvariants(sigma=sigma, euler=euler, chi_h=chi_h, c1_sq=c1_sq, c2=euler)


def validate_block(block: LefschetzBlock) -> list[str]:
    """All invariant violations of a block; an empty list means valid.

    The simple-connectivity rule n > 2g applies only to genuine Lefschetz
    fibrations with singular fibers (n > 0); fibrations without singular
    fibers (e.g. a sphere bundle) may be flagged simply connected by
    family knowledge.

    A valid block is confirmed by integer comparisons alone; the messages
    are built only for an invalid one.
    """
    _, invariants, genus, singular_fibers, simply_connected = block
    sigma, euler, chi_h, c1_sq, c2 = invariants
    # Every rule below, as one test; a negative genus or count fails it, so that
    # euler_from_fibration below rejects it.
    if (
        genus >= 0
        and singular_fibers >= 0
        and c1_sq == 3 * sigma + 2 * euler
        and c2 == euler
        and 4 * chi_h == sigma + euler
        and euler == 2 * (2 - 2 * genus) + singular_fibers
        and not (simply_connected and 0 < singular_fibers <= 2 * genus)
    ):
        return []
    out = invariants.violations()
    expected_e = euler_from_fibration(genus, singular_fibers)
    if euler != expected_e:
        out.append(f"euler != 2(2-2g)+n ({euler} != {expected_e})")
    if simply_connected and 0 < singular_fibers <= 2 * genus:
        out.append(f"simply connected requires n > 2g ({singular_fibers} <= {2 * genus})")
    return out


def require_valid(block: LefschetzBlock) -> None:
    """Raise BlockValidationError when the block has any violation."""
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


def block_from_json(data: dict) -> LefschetzBlock:
    """Load a block; derived invariants are recomputed, never trusted."""
    return LefschetzBlock(
        name=json_field(data, "name", str),
        invariants=complete_invariants(json_field(data, "chi_h"), json_field(data, "c1_sq")),
        fiber_genus=json_field(data, "fiber_genus"),
        singular_fibers=json_field(data, "singular_fibers"),
        simply_connected=json_field(data, "simply_connected", bool),
    )
