import pytest
from hypothesis import example, given, strategies as st

from cherngeo.catalog import elliptic_surface, generic_block
from cherngeo.invariants import (
    FourManifoldInvariants,
    SurfaceInvariants,
    block_from_json,
    block_to_json,
    euler_from_fibration,
    validate_block,
)

ints = st.integers(min_value=-10**6, max_value=10**6)


def test_euler_from_fibration_examples():
    assert euler_from_fibration(0, 0) == 4
    # E(1): e = 12*chi_h - c1^2 = 12, so n = 12 with torus fibers
    assert euler_from_fibration(1, 12) == 12
    assert euler_from_fibration(2, 5) == 1


def test_euler_from_fibration_rejects_negative():
    with pytest.raises(ValueError):
        euler_from_fibration(-1, 0)
    with pytest.raises(ValueError):
        euler_from_fibration(0, -1)


def test_complete_invariants_sphere_bundle():
    assert FourManifoldInvariants._fields == ("chi_h", "c1_sq")
    inv = FourManifoldInvariants(1, 8)
    assert (inv.sigma, inv.euler, inv.chi_h, inv.c1_sq, inv.c2) == (0, 4, 1, 8, 4)


@pytest.mark.parametrize("m", range(1, 6))
def test_complete_invariants_elliptic_values(m):
    inv = FourManifoldInvariants(m, 0)
    assert inv.sigma == -8 * m
    assert inv.euler == 12 * m
    assert inv.c2 == 12 * m


def test_complete_invariants_zero():
    inv = FourManifoldInvariants(0, 0)
    assert (inv.sigma, inv.euler, inv.chi_h, inv.c1_sq, inv.c2) == (0, 0, 0, 0, 0)


@given(chi_h=ints, c1_sq=ints)
def test_complete_invariants_always_consistent(chi_h, c1_sq):
    inv = FourManifoldInvariants(chi_h, c1_sq)
    # the identities an almost complex 4-manifold's invariants satisfy
    assert inv.c1_sq == 3 * inv.sigma + 2 * inv.euler
    assert inv.c2 == inv.euler
    assert 4 * inv.chi_h == inv.sigma + inv.euler
    assert inv.sigma == c1_sq - 8 * chi_h


def test_surface_invariants():
    assert SurfaceInvariants(0).euler == 2
    assert SurfaceInvariants(3).euler == -4
    with pytest.raises(ValueError):
        SurfaceInvariants(-1)


def test_validate_block_valid_elliptic():
    assert validate_block(generic_block(1, 0, 1, 12, True)) == []


def test_validate_block_simple_connectivity():
    violations = validate_block(generic_block(1, 0, 1, 1, True))
    assert any("n > 2g" in v for v in violations)


def test_validate_block_euler_mismatch():
    violations = validate_block(generic_block(1, 0, 1, 0, True))
    assert any("2(2-2g)+n" in v for v in violations)


def test_no_singular_fibers_waives_connectivity_rule():
    # a sphere bundle: n = 0, simply connected by family knowledge
    assert validate_block(generic_block(1, 8, 0, 0, True)) == []


@given(
    g=st.integers(min_value=0, max_value=20),
    n=st.integers(min_value=0, max_value=400),
)
def test_fibration_roundtrip(g, n):
    e = euler_from_fibration(g, n)
    # pick chi_h, c1_sq producing that euler number when 4 | sigma + e
    chi_h = 0
    c1_sq = -e  # euler = 12*chi_h - c1_sq
    block = generic_block(chi_h, c1_sq, g, n, n > 2 * g)
    assert block.invariants.euler == e
    assert validate_block(block) == []


def test_block_rejects_negative_data():
    with pytest.raises(ValueError):
        generic_block(1, 0, -1, 12, True)
    with pytest.raises(ValueError):
        generic_block(1, 0, 1, -3, True)


def test_json_roundtrip_recomputes_derived_fields():
    block = elliptic_surface(2)
    data = block_to_json(block)
    assert set(data) == {
        "name", "chi_h", "c1_sq", "fiber_genus", "singular_fibers", "simply_connected",
    }
    assert block_from_json(data) == block
    # derived fields are recomputed, never trusted from the file
    tampered = dict(data, chi_h=3)
    assert block_from_json(tampered).invariants.euler == 36


def _reference_validate_block(block):
    """validate_block by the rules as stated, with e = 12*chi_h - c1^2 by Noether's formula."""
    _, invariants, genus, singular_fibers, simply_connected = block
    out = []
    euler = 12 * invariants.chi_h - invariants.c1_sq
    expected_e = euler_from_fibration(genus, singular_fibers)
    if euler != expected_e:
        out.append(f"euler != 2(2-2g)+n ({euler} != {expected_e})")
    if simply_connected and 0 < singular_fibers <= 2 * genus:
        out.append(f"simply connected requires n > 2g ({singular_fibers} <= {2 * genus})")
    return out


small = st.integers(min_value=-60, max_value=60)


@st.composite
def validation_blocks(draw):
    """Blocks with arbitrary records, or with fitting ones nudged in at most one field."""
    g, n, sc = draw(st.integers(0, 12)), draw(st.integers(0, 60)), draw(st.booleans())
    if draw(st.booleans()):
        return generic_block(draw(small), draw(small), g, n, sc)
    # A record whose Euler number 12*chi_h - c1^2 is the fibration's: chi_h free.
    chi_h = draw(small)
    record = [chi_h, 12 * chi_h - euler_from_fibration(g, n)]
    field = draw(st.integers(0, 2))  # 2: none nudged
    if field < 2:
        record[field] += draw(small.filter(bool))
    return generic_block(*record, g, n, sc)


# E(1): chi_h 1, c1^2 0 (euler 12), torus fibers, 12 nodal fibers.
@example(block=generic_block(1, 0, 1, 12, True))
@example(block=generic_block(1, 0, 1, 13, True))  # euler = 2(2-2g)+n alone fails
# genus 2 with n = 0, 2g and 2g + 1 nodal fibers, each record fitting its fibration
@example(block=generic_block(0, 4, 2, 0, True))
@example(block=generic_block(0, 4, 2, 0, False))
@example(block=generic_block(0, 0, 2, 4, True))  # n > 2g alone fails
@example(block=generic_block(0, 0, 2, 4, False))
@example(block=generic_block(1, 11, 2, 5, True))
@example(block=generic_block(1, 11, 2, 5, False))
@example(block=generic_block(0, 0, 2, 3, True))  # both rules fail
@given(block=validation_blocks())
def test_validate_block_matches_reference(block):
    assert validate_block(block) == _reference_validate_block(block)


@pytest.mark.parametrize(
    "block",
    [
        # records fitting the fibration, so that only the sign of the negative value is wrong
        generic_block(2, 16, 0, 0, False)._replace(fiber_genus=-1),
        generic_block(1, 9, 0, 0, False)._replace(singular_fibers=-1),
        generic_block(1, 0, 1, 12, True)._replace(fiber_genus=-3),
        generic_block(1, 0, 1, 12, True)._replace(singular_fibers=-12),
    ],
    ids=["genus", "count", "genus-of-E(1)", "count-of-E(1)"],
)
def test_validate_block_rejects_negative_data_like_reference(block):
    with pytest.raises(ValueError) as reference:
        _reference_validate_block(block)
    with pytest.raises(ValueError) as fast:
        validate_block(block)
    assert str(fast.value) == str(reference.value)
