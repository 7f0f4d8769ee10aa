import itertools
import json

import pytest

from cherngeo.catalog import (
    FAMILIES,
    SearchBounds,
    block_from_family,
    default_catalog,
    elliptic_surface,
    family_block,
    generic_block,
    knot_surgered_elliptic,
    load_catalog,
    ruled_spheres,
)
from cherngeo.fibersum import halic_construction
from cherngeo.geography import candidate_blocks
from cherngeo.invariants import (
    FourManifoldInvariants,
    LefschetzBlock,
    block_to_json,
    validate_block,
)


def test_elliptic_surface():
    e1 = elliptic_surface(1)
    assert e1.invariants.chi_h == 1
    assert e1.invariants.c1_sq == 0
    assert e1.fiber_genus == 1
    assert e1.singular_fibers == 12
    e2 = elliptic_surface(2)
    assert e2.singular_fibers == 24
    with pytest.raises(ValueError):
        elliptic_surface(0)


def test_ruled_spheres():
    b = ruled_spheres()
    assert b.invariants.chi_h == 1
    assert b.invariants.c1_sq == 8
    assert b.invariants.sigma == 0
    assert b.invariants.c2 == 4
    assert (b.fiber_genus, b.singular_fibers) == (0, 0)
    assert b.simply_connected


def test_knot_surgered_elliptic():
    b = knot_surgered_elliptic(2, 0)
    assert (b.invariants.chi_h, b.invariants.c1_sq) == (2, 0)
    assert b.fiber_genus == 1
    assert b.singular_fibers == 24
    b = knot_surgered_elliptic(1, 1)
    assert b.fiber_genus == 2
    assert b.singular_fibers == 16
    with pytest.raises(ValueError):
        knot_surgered_elliptic(0, 0)
    with pytest.raises(ValueError):
        knot_surgered_elliptic(1, -1)


def test_generic_block_matches_families():
    g = generic_block(1, 8, 0, 0, True)
    assert g.invariants == ruled_spheres().invariants
    assert (g.fiber_genus, g.singular_fibers) == (0, 0)
    g = generic_block(1, 0, 1, 12, True)
    assert g.invariants == elliptic_surface(1).invariants


def test_generic_block_violations_are_data():
    g = generic_block(1, 0, 1, 0, True)
    violations = validate_block(g)
    assert any("2(2-2g)+n" in v for v in violations)


def test_all_family_constructors_validate():
    blocks = [ruled_spheres()]
    blocks += [elliptic_surface(m) for m in range(1, 6)]
    blocks += [knot_surgered_elliptic(k, g) for k in range(1, 5) for g in range(4)]
    for block in blocks:
        assert validate_block(block) == [], block.name


@pytest.mark.parametrize("family", FAMILIES)
def test_each_family_row_against_its_builder(family):
    name, params, signature = FAMILIES[family]
    least = [lo for lo, _, _ in params.values()]
    assert validate_block(family_block(family, *least)) == []
    for i, param in enumerate(params):
        below = [*least[:i], least[i] - 1, *least[i + 1 :]]
        message = f"^{family} parameter {param} must be >= {least[i]}, got {least[i] - 1}$"
        with pytest.raises(ValueError, match=message):
            family_block(family, *below)
    # The default search enumerates each parameter from its least value to its limit's default.
    bounds = SearchBounds(families=(family,))
    ranges = []
    for lo, limit, default in params.values():
        assert getattr(bounds, limit) == default
        ranges.append(range(lo, default + 1))
    grid = list(itertools.product(*ranges))
    blocks = candidate_blocks(bounds)
    assert len(blocks) == len(grid)
    for block, args in zip(blocks, grid):
        assert block == family_block(family, *args)
        assert validate_block(block) == [], block.name
        assert block.name == name.format(*args)
        inv = block.invariants
        assert (inv.chi_h, inv.c1_sq, block.fiber_genus) == signature(*args)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_genus_zero_knot_matches_plain_fiber_genus(k):
    # only chi_h, c1^2 and fiber genus enter the construction
    partner = elliptic_surface(2)
    surgered = knot_surgered_elliptic(k, 0)
    stand_in = LefschetzBlock(
        "stand-in", FourManifoldInvariants(k, 0), k - 1, surgered.singular_fibers, False
    )
    assert halic_construction(partner, surgered) == halic_construction(
        partner, stand_in, check=False
    )


def test_block_from_family_records():
    assert block_from_family({"family": "elliptic", "m": 2}) == elliptic_surface(2)
    assert block_from_family({"family": "ruled-spheres"}) == ruled_spheres()
    assert block_from_family(
        {"family": "knot-surgered-elliptic", "k": 2, "knot_genus": 0}
    ) == knot_surgered_elliptic(2, 0)
    with pytest.raises(ValueError):
        block_from_family({"family": "unknown"})


def test_default_catalog_valid():
    blocks = default_catalog()
    assert blocks
    for block in blocks:
        assert validate_block(block) == []


def test_catalog_file_roundtrip(tmp_path):
    path = tmp_path / "catalog.json"
    blocks = [elliptic_surface(3), ruled_spheres()]
    path.write_text(json.dumps([block_to_json(b) for b in blocks]))
    assert load_catalog(path) == blocks


def test_catalog_family_records_file(tmp_path):
    path = tmp_path / "families.json"
    path.write_text(
        json.dumps(
            [
                {"family": "elliptic", "m": 1},
                {"family": "knot-surgered-elliptic", "k": 1, "knot_genus": 1},
                {
                    "name": "custom",
                    "chi_h": 1,
                    "c1_sq": 8,
                    "fiber_genus": 0,
                    "singular_fibers": 0,
                    "simply_connected": True,
                },
            ]
        )
    )
    blocks = load_catalog(path)
    assert blocks[0] == elliptic_surface(1)
    assert blocks[1] == knot_surgered_elliptic(1, 1)
    assert blocks[2].name == "custom"
    assert blocks[2].invariants == ruled_spheres().invariants


def test_catalog_rejects_non_array(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    with pytest.raises(ValueError):
        load_catalog(path)
