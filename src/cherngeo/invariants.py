"""Invariant records for 4-manifolds, surfaces, and 6-manifold Chern triples.

Everything here is exact integer arithmetic.  Identity violations are
reported as data (lists of messages), never raised, so that invalid
records can be constructed, inspected, and displayed.  Only geometrically
meaningless inputs (negative genus, negative singular-fiber count) are
rejected at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass


class BlockValidationError(ValueError):
    """A block failed validation where a valid block was required."""

    def __init__(self, name: str, violations: list[str]):
        self.block_name = name
        self.violations = list(violations)
        super().__init__(f"invalid block {name!r}: " + "; ".join(violations))


@dataclass(frozen=True)
class FourManifoldInvariants:
    """Numeric invariants of a closed almost complex 4-manifold.

    The record stores all five quantities redundantly; the defining
    identities (c1^2 = 3*sigma + 2*euler, c2 = euler, 4*chi_h = sigma + euler)
    are checked by :meth:`violations`.
    """

    sigma: int
    euler: int
    chi_h: int
    c1_sq: int
    c2: int

    def violations(self) -> list[str]:
        out = []
        if self.c1_sq != 3 * self.sigma + 2 * self.euler:
            out.append(
                f"c1^2 != 3*sigma + 2*euler ({self.c1_sq} != {3 * self.sigma + 2 * self.euler})"
            )
        if self.c2 != self.euler:
            out.append(f"c2 != euler ({self.c2} != {self.euler})")
        if 4 * self.chi_h != self.sigma + self.euler:
            out.append(
                f"4*chi_h != sigma + euler ({4 * self.chi_h} != {self.sigma + self.euler})"
            )
        return out


@dataclass(frozen=True)
class SurfaceInvariants:
    """A closed oriented surface of genus g; euler = 2 - 2g."""

    genus: int

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError(f"genus must be non-negative, got {self.genus}")

    @property
    def euler(self) -> int:
        return 2 - 2 * self.genus


@dataclass(frozen=True)
class LefschetzBlock:
    """A 4-manifold with a Lefschetz fibration over the sphere.

    ``fiber_genus`` is the genus of the generic fiber and
    ``singular_fibers`` counts the nodal fibers.  Negative counts are
    rejected here; consistency of the fibration data with the invariant
    record is the job of :func:`validate_block`.
    """

    name: str
    invariants: FourManifoldInvariants
    fiber_genus: int
    singular_fibers: int
    simply_connected: bool

    def __post_init__(self):
        if self.fiber_genus < 0:
            raise ValueError(f"fiber genus must be non-negative, got {self.fiber_genus}")
        if self.singular_fibers < 0:
            raise ValueError(
                f"singular-fiber count must be non-negative, got {self.singular_fibers}"
            )


@dataclass(frozen=True)
class ChernTriple:
    """The three Chern numbers (c3, c1^3, c1c2) of an almost complex 6-manifold."""

    c3: int
    c1_cubed: int
    c1c2: int

    def to_json(self) -> dict:
        return {"c3": self.c3, "c1_cubed": self.c1_cubed, "c1c2": self.c1c2}

    @classmethod
    def from_json(cls, data: dict) -> "ChernTriple":
        return cls(int(data["c3"]), int(data["c1_cubed"]), int(data["c1c2"]))


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
    """
    out = block.invariants.violations()
    expected_e = euler_from_fibration(block.fiber_genus, block.singular_fibers)
    if block.invariants.euler != expected_e:
        out.append(
            f"euler != 2(2-2g)+n ({block.invariants.euler} != {expected_e})"
        )
    if (
        block.simply_connected
        and block.singular_fibers > 0
        and block.singular_fibers <= 2 * block.fiber_genus
    ):
        out.append(
            f"simply connected requires n > 2g ({block.singular_fibers} <= {2 * block.fiber_genus})"
        )
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
    """``kind(record[key])``; a missing field or a failed conversion raises ValueError."""
    if key not in record:
        raise ValueError(f"missing field {key!r}")
    try:
        return kind(record[key])
    except (TypeError, ValueError):
        raise ValueError(f"field {key!r} must be {kind.__name__}, got {record[key]!r}") from None


def block_from_json(data: dict) -> LefschetzBlock:
    """Load a block; derived invariants are recomputed, never trusted."""
    return LefschetzBlock(
        name=json_field(data, "name", str),
        invariants=complete_invariants(json_field(data, "chi_h"), json_field(data, "c1_sq")),
        fiber_genus=json_field(data, "fiber_genus"),
        singular_fibers=json_field(data, "singular_fibers"),
        simply_connected=json_field(data, "simply_connected", bool),
    )
