"""Named building-block families and JSON catalog loading.

Three families cover the worked examples: elliptic surfaces E(m) with
their torus fibrations, the ruled surface S^2 x S^2 viewed as a sphere
fibration without singular fibers, and knot-surgered elliptic surfaces
E(k)_K whose fibration has fiber genus 2g + k - 1 for a fibered knot of
genus g.  A generic family admits arbitrary user-supplied invariants.

Each named family is one row of :data:`FAMILIES`, which states its block
name, its integer parameters with their least values and search limits,
and its (chi_h, c1^2, fiber genus) as a function of the parameters.
:func:`family_block` builds every named block from its row, and the CLI,
catalog records and the realization search read the rows: a new family is
one row, plus an entry of :data:`FAMILY_ALIASES` if it has a short name.
The search solves for partners by ``lattice.family_steps``, so every row
must be affine in its parameters.
Generic blocks are the one special case, because their CLI flags differ
from their JSON keys.  The search's limits, :class:`SearchBounds` and its
:class:`GenericGrid`, are built from the rows here too; ``geography``
loads this module only when a search enumerates its candidates, so the
plane classifier and the plot never load it.
"""

from __future__ import annotations

import os
from collections import namedtuple

from .invariants import (
    FourManifoldInvariants,
    LefschetzBlock,
    block_from_json,
    euler_from_fibration,
    json_field,
    refuse_unknown_fields,
)

# family name -> (block name as a str.format template of the parameters,
# {parameter: (least value, SearchBounds limit, the limit's default)} in
# parameter order, (chi_h, c1^2, fiber genus) as a function of the parameters)
FAMILIES = {
    "elliptic": ("E({})", {"m": (1, "max_m", 5)}, lambda m: (m, 0, 1)),
    "ruled-spheres": ("S2xS2", {}, lambda: (1, 8, 0)),
    # E(k)_K is homeomorphic to E(k), so chi_h and c1^2 are E(k)'s.
    "knot-surgered-elliptic": (
        "E({})_K(g={})",
        {"k": (1, "max_k", 5), "knot_genus": (0, "max_knot_genus", 4)},
        lambda k, knot_genus: (k, 0, 2 * knot_genus + k - 1),
    ),
}
FAMILY_ALIASES = {"knot-elliptic": "knot-surgered-elliptic"}

# The integer limits of SearchBounds in field order, each with its default.
SEARCH_LIMITS = {
    limit: default
    for _, params, _ in FAMILIES.values()
    for _, limit, default in params.values()
}


class GenericGrid(namedtuple("GenericGrid", "chi_h c1_sq genus")):
    """Inclusive ranges for brute-force generic blocks in the search.

    Fields (each a ``tuple[int, int]`` (lo, hi)): chi_h, c1_sq, genus.
    An empty range, and a genus range that starts below 0, raise ValueError.
    """

    __slots__ = ()

    def __new__(cls, chi_h: tuple[int, int], c1_sq: tuple[int, int], genus: tuple[int, int]):
        for key, (lo, hi) in zip(cls._fields, (chi_h, c1_sq, genus)):
            if lo > hi:
                raise ValueError(f"generic grid range {key!r} is empty: {lo} > {hi}")
        if genus[0] < 0:
            raise ValueError(f"generic grid range 'genus' must be non-negative, got {genus[0]}")
        return super().__new__(cls, chi_h, c1_sq, genus)


class SearchBounds(
    namedtuple(
        "SearchBounds",
        ("families", *SEARCH_LIMITS, "generic"),
        defaults=(tuple(FAMILIES), *SEARCH_LIMITS.values(), None),
    )
):
    """Search limits; ``families`` are resolved through the registry and its aliases.

    Fields: ``families: tuple[str, ...]`` (default: every registry family),
    the :data:`SEARCH_LIMITS` (``int``; defaults from the :data:`FAMILIES`
    rows) and ``generic: GenericGrid | None`` (default: no generic grid).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        bounds = super().__new__(cls, *args, **kwargs)
        families = bounds.families
        if not isinstance(families, (list, tuple)):
            raise ValueError(f"families must be a list of family names, got {families!r}")
        families = tuple(family_name(f) for f in families)
        for key in SEARCH_LIMITS:
            value = getattr(bounds, key)
            if value < 0:
                raise ValueError(f"{key!r} must be non-negative, got {value}")
        return super().__new__(cls, families, *bounds[1:])

    @classmethod
    def from_json(cls, data: dict) -> "SearchBounds":
        if not isinstance(data, dict):
            raise ValueError("search bounds must be a JSON object")
        refuse_unknown_fields(data, cls._fields, "search bounds")
        generic = data.get("generic")
        if generic is not None:
            if not isinstance(generic, dict):
                raise ValueError(f"field 'generic' must be an object, got {generic!r}")
            refuse_unknown_fields(generic, GenericGrid._fields, "'generic'")
            generic = GenericGrid(*(_range_field(generic, k) for k in GenericGrid._fields))
        given = {k: json_field(data, k) for k in SEARCH_LIMITS if k in data}
        if "families" in data:
            given["families"] = data["families"]
        return cls(generic=generic, **given)


def _range_field(grid: dict, key: str) -> tuple[int, int]:
    """A [lo, hi] pair of JSON integers, read as strictly as :func:`json_field` reads one."""
    value = grid.get(key)
    if isinstance(value, list) and len(value) == 2 and all(type(v) is int for v in value):
        return value[0], value[1]
    raise ValueError(f"field 'generic.{key}' must be a [lo, hi] pair of integers, got {value!r}")


def family_block(family: str, *params: int) -> LefschetzBlock:
    """The block of a :data:`FAMILIES` row at its parameters, e.g. E(2) for ("elliptic", 2).

    The block is simply connected, with the singular-fiber count its Euler
    number fixes.  A parameter below its least value raises ValueError
    naming the family and the parameter.
    """
    name, parameters, signature = FAMILIES[family]
    for (param, (least, _, _)), value in zip(parameters.items(), params):
        if value < least:
            raise ValueError(f"{family} parameter {param} must be >= {least}, got {value}")
    chi_h, c1_sq, fiber_genus = signature(*params)
    invariants = FourManifoldInvariants(chi_h, c1_sq)
    n = invariants.euler - euler_from_fibration(fiber_genus, 0)
    return LefschetzBlock(name.format(*params), invariants, fiber_genus, n, simply_connected=True)


def elliptic_surface(m: int) -> LefschetzBlock:
    """E(m), the "elliptic" row of :data:`FAMILIES` at m."""
    return family_block("elliptic", m)


def ruled_spheres() -> LefschetzBlock:
    """S^2 x S^2, the "ruled-spheres" row of :data:`FAMILIES`."""
    return family_block("ruled-spheres")


def knot_surgered_elliptic(k: int, knot_genus: int) -> LefschetzBlock:
    """E(k)_K for a fibered knot K of genus g, the "knot-surgered-elliptic" row at (k, g)."""
    return family_block("knot-surgered-elliptic", k, knot_genus)


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
    name = family_name(family)
    params = FAMILIES[name][1]
    refuse_unknown_fields(record, ("family", *params), family)
    return family_block(name, *(json_field(record, p) for p in params))


def default_catalog() -> list[LefschetzBlock]:
    """Built-in catalog used when no catalog file is given."""
    blocks = [elliptic_surface(m) for m in range(1, 4)]
    blocks.append(ruled_spheres())
    blocks.append(knot_surgered_elliptic(2, 0))
    return blocks


# The most decimal digits an integer input may have, on the command line or in
# a JSON file.  Every printed value is at most a product of two inputs times a
# small constant, about 2 * INPUT_DIGITS + 3 digits, so each one stays under
# Python's limit of 4,300 digits for converting an int to or from a string.
INPUT_DIGITS = 2_000


def _path_to(data, target) -> str:
    """The path of the first ``target`` in ``data``, in document order: generic.genus[1]."""
    stack = [(data, "")]
    while stack:
        value, path = stack.pop()
        if value is target:
            return path.lstrip(".")
        if type(value) is dict:
            children = [(v, f"{path}.{k}") for k, v in value.items()]
        elif type(value) is list:
            children = [(v, f"{path}[{i}]") for i, v in enumerate(value)]
        else:
            continue
        stack.extend(reversed(children))
    return ""


def read_json_file(path: str | os.PathLike):
    """The JSON value in a UTF-8 file.

    A file that is not JSON, repeats a key within one object, holds an
    integer of more than :data:`INPUT_DIGITS` digits, or nests arrays or
    objects deeper than the decoder's recursion allows, raises a
    ``ValueError`` that names the file; a long integer's message also names
    its field by its path, such as ``[0].m`` or ``generic.genus[1]``.
    """
    import json

    def unique_keys(pairs):
        record = {}
        for key, value in pairs:
            if key in record:
                raise ValueError(f"{os.fspath(path)} repeats the key {key!r} in one object")
            record[key] = value
        return record

    # An integer over the budget is read as LONG, and its digit count kept.
    LONG, long_digits = object(), []

    def integer(text):
        digits = len(text) - text.startswith("-")
        if digits > INPUT_DIGITS:
            long_digits.append(digits)
            return LONG
        return int(text)

    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=unique_keys, parse_int=integer)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{os.fspath(path)} is not valid JSON: {exc}") from None
        except RecursionError:
            raise ValueError(f"{os.fspath(path)} nests JSON too deeply to read") from None
    if long_digits:
        field = _path_to(data, LONG)
        raise ValueError(
            f"{os.fspath(path)} holds an integer too long to read"
            + (f" in field {field!r}" if field else "")
            + f": {long_digits[0]} digits, more than the limit of {INPUT_DIGITS}"
        )
    return data


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
