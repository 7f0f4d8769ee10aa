"""Named building-block families and JSON catalog loading.

Three families cover the worked examples: elliptic surfaces E(m) with
their torus fibrations, the ruled surface S^2 x S^2 viewed as a sphere
fibration without singular fibers, and knot-surgered elliptic surfaces
E(k)_K whose fibration has fiber genus 2g + k - 1 for a fibered knot of
genus g.  A generic family admits arbitrary user-supplied invariants.

Each named family is one entry of :data:`FAMILIES`, which the CLI's block
specifications, catalog records and the realization search all read: a new
family is one registry entry, plus an entry of :data:`FAMILY_ALIASES` if it
has a short name.  Generic blocks are the one special case, because their
CLI flags differ from their JSON keys.
"""

from __future__ import annotations

import os

from .invariants import (
    FourManifoldInvariants,
    LefschetzBlock,
    block_from_json,
    euler_from_fibration,
    json_field,
    refuse_unknown_fields,
)


def elliptic_surface(m: int) -> LefschetzBlock:
    """E(m): chi_h = m, c1^2 = 0, torus fibers, 12m singular fibers."""
    if m < 1:
        raise ValueError(f"elliptic surface parameter m must be >= 1, got {m}")
    return LefschetzBlock(
        name=f"E({m})",
        invariants=FourManifoldInvariants(m, 0),
        fiber_genus=1,
        singular_fibers=12 * m,
        simply_connected=True,
    )


def ruled_spheres() -> LefschetzBlock:
    """S^2 x S^2 as a sphere fibration with no singular fibers."""
    return LefschetzBlock(
        name="S2xS2",
        invariants=FourManifoldInvariants(1, 8),
        fiber_genus=0,
        singular_fibers=0,
        simply_connected=True,
    )


def knot_surgered_elliptic(k: int, knot_genus: int) -> LefschetzBlock:
    """E(k)_K for a fibered knot K of genus g: fiber genus 2g + k - 1.

    chi_h and c1^2 agree with E(k) (the surgered manifold is homeomorphic
    to it); the singular-fiber count is derived from the Euler identity,
    not quoted from the literature.
    """
    if k < 1:
        raise ValueError(f"elliptic parameter k must be >= 1, got {k}")
    if knot_genus < 0:
        raise ValueError(f"knot genus must be non-negative, got {knot_genus}")
    invariants = FourManifoldInvariants(k, 0)
    fiber_genus = 2 * knot_genus + k - 1
    return LefschetzBlock(
        name=f"E({k})_K(g={knot_genus})",
        invariants=invariants,
        fiber_genus=fiber_genus,
        singular_fibers=invariants.euler - euler_from_fibration(fiber_genus, 0),
        simply_connected=True,
    )


def generic_block(
    chi_h: int,
    c1_sq: int,
    fiber_genus: int,
    singular_fibers: int,
    simply_connected: bool,
) -> LefschetzBlock:
    """User-supplied block; broken fibration rules are left to validate_block."""
    return LefschetzBlock(
        name=f"generic(chi_h={chi_h},c1_sq={c1_sq},g={fiber_genus},n={singular_fibers})",
        invariants=FourManifoldInvariants(chi_h, c1_sq),
        fiber_genus=fiber_genus,
        singular_fibers=singular_fibers,
        simply_connected=simply_connected,
    )


# The integer limits of geography.SearchBounds, in field order; the range
# functions of FAMILIES read them.
SEARCH_LIMITS = ("max_m", "max_k", "max_knot_genus")

# family name -> (constructor, its integer parameters in order, the range of
# each parameter that a search enumerates, as a function of SearchBounds)
FAMILIES = {
    "elliptic": (elliptic_surface, ("m",), lambda b: (range(1, b.max_m + 1),)),
    "ruled-spheres": (ruled_spheres, (), lambda b: ()),
    "knot-surgered-elliptic": (
        knot_surgered_elliptic,
        ("k", "knot_genus"),
        lambda b: (range(1, b.max_k + 1), range(b.max_knot_genus + 1)),
    ),
}
FAMILY_ALIASES = {"knot-elliptic": "knot-surgered-elliptic"}


def family_name(name: str) -> str:
    """The registry name of a family name or alias; unknown names raise ValueError."""
    canonical = FAMILY_ALIASES.get(name, name) if isinstance(name, str) else None
    if canonical not in FAMILIES:
        known = ", ".join([*FAMILIES, *FAMILY_ALIASES])
        raise ValueError(f"unknown block family {name!r} (known: {known})")
    return canonical


def block_from_family(record: dict) -> LefschetzBlock:
    """Instantiate one catalog record, e.g. {"family": "elliptic", "m": 2}.

    A record without "family", or with family "generic", is an explicit
    block object (:func:`cherngeo.invariants.block_from_json`).  Any other
    record holds "family" and that family's parameters, and nothing else.
    """
    family = record.get("family", "generic")
    if family == "generic":
        return block_from_json({k: v for k, v in record.items() if k != "family"})
    build, params, _ = FAMILIES[family_name(family)]
    refuse_unknown_fields(record, ("family", *params), family)
    return build(*(json_field(record, p) for p in params))


def default_catalog() -> list[LefschetzBlock]:
    """Built-in catalog used when no catalog file is given."""
    blocks = [elliptic_surface(m) for m in range(1, 4)]
    blocks.append(ruled_spheres())
    blocks.append(knot_surgered_elliptic(2, 0))
    return blocks


def read_json_file(path: str | os.PathLike):
    """The JSON value in a UTF-8 file.

    A file that is not JSON, repeats a key within one object, holds an
    integer too long to convert, or nests arrays or objects deeper than the
    decoder's recursion allows, raises a ``ValueError`` that names the file.
    """
    import json

    def unique_keys(pairs):
        record = {}
        for key, value in pairs:
            if key in record:
                raise ValueError(f"{os.fspath(path)} repeats the key {key!r} in one object")
            record[key] = value
        return record

    def integer(text):
        try:
            return int(text)
        except ValueError:  # more digits than sys.get_int_max_str_digits() allows
            raise ValueError(f"{os.fspath(path)} holds an integer too long to read") from None

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=unique_keys, parse_int=integer)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{os.fspath(path)} is not valid JSON: {exc}") from None
        except RecursionError:
            raise ValueError(f"{os.fspath(path)} nests JSON too deeply to read") from None


def load_catalog(path: str | os.PathLike) -> list[LefschetzBlock]:
    """Read a JSON array of family records or explicit generic blocks."""
    data = read_json_file(path)
    if not isinstance(data, list):
        raise ValueError("catalog file must contain a JSON array")
    blocks = []
    for index, record in enumerate(data):
        try:
            if not isinstance(record, dict):
                raise ValueError(f"expected a JSON object, got {record!r}")
            blocks.append(block_from_family(record))
        except ValueError as exc:
            raise ValueError(f"catalog entry {index}: {exc}") from None
    return blocks
