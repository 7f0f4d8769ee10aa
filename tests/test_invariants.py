import pytest
from hypothesis import example, given, strategies as st

from cherngeo.invariants import (
    FourManifoldInvariants,
    LefschetzBlock,
    SurfaceInvariants,
    block_from_json,
    block_to_json,
    complete_invariants,
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
    inv = complete_invariants(1, 8)
    assert (inv.sigma, inv.euler, inv.chi_h, inv.c1_sq, inv.c2) == (0, 4, 1, 8, 4)


@pytest.mark.parametrize("m", range(1, 6))
def test_complete_invariants_elliptic_values(m):
    inv = complete_invariants(m, 0)
    assert inv.sigma == -8 * m
    assert inv.euler == 12 * m
    assert inv.c2 == 12 * m


def test_complete_invariants_zero():
    inv = complete_invariants(0, 0)
    assert (inv.sigma, inv.euler, inv.chi_h, inv.c1_sq, inv.c2) == (0, 0, 0, 0, 0)


@given(chi_h=ints, c1_sq=ints)
def test_complete_invariants_always_consistent(chi_h, c1_sq):
    inv = complete_invariants(chi_h, c1_sq)
    assert inv.violations() == []
    assert inv.sigma == c1_sq - 8 * chi_h


def test_surface_invariants():
    assert SurfaceInvariants(0).euler == 2
    assert SurfaceInvariants(3).euler == -4
    with pytest.raises(ValueError):
        SurfaceInvariants(-1)


def _block(chi_h, c1_sq, g, n, sc=True, name="test"):
    return LefschetzBlock(name, complete_invariants(chi_h, c1_sq), g, n, sc)


def test_validate_block_valid_elliptic():
    assert validate_block(_block(1, 0, 1, 12)) == []


def test_validate_block_simple_connectivity():
    violations = validate_block(_block(1, 0, 1, 1))
    assert any("n > 2g" in v for v in violations)


def test_validate_block_inconsistent_record():
    from cherngeo.invariants import FourManifoldInvariants

    inv = FourManifoldInvariants(sigma=1, euler=1, chi_h=1, c1_sq=0, c2=1)
    block = LefschetzBlock("bad", inv, 0, 0, False)
    assert any("4*chi_h" in v for v in validate_block(block))


def test_validate_block_euler_mismatch():
    violations = validate_block(_block(1, 0, 1, 0, sc=True))
    assert any("2(2-2g)+n" in v for v in violations)


def test_no_singular_fibers_waives_connectivity_rule():
    # a sphere bundle: n = 0, simply connected by family knowledge
    assert validate_block(_block(1, 8, 0, 0)) == []


@given(
    g=st.integers(min_value=0, max_value=20),
    n=st.integers(min_value=0, max_value=400),
)
def test_fibration_roundtrip(g, n):
    e = euler_from_fibration(g, n)
    # pick chi_h, c1_sq producing that euler number when 4 | sigma + e
    chi_h = 0
    c1_sq = -e  # euler = 12*chi_h - c1_sq
    block = _block(chi_h, c1_sq, g, n, sc=(n > 2 * g))
    assert block.invariants.euler == e
    assert validate_block(block) == []


def test_block_rejects_negative_data():
    with pytest.raises(ValueError):
        _block(1, 0, -1, 12)
    with pytest.raises(ValueError):
        _block(1, 0, 1, -3)


def test_json_roundtrip_recomputes_derived_fields():
    block = _block(2, 0, 1, 24, name="E(2)")
    data = block_to_json(block)
    assert set(data) == {
        "name", "chi_h", "c1_sq", "fiber_genus", "singular_fibers", "simply_connected",
    }
    assert block_from_json(data) == block
    # derived fields are recomputed, never trusted from the file
    tampered = dict(data, chi_h=3)
    assert block_from_json(tampered).invariants.euler == 36


def _reference_validate_block(block):
    """validate_block as it was before its fast path: every rule, every time."""
    _, invariants, genus, singular_fibers, simply_connected = block
    out = invariants.violations()
    expected_e = euler_from_fibration(genus, singular_fibers)
    if invariants.euler != expected_e:
        out.append(f"euler != 2(2-2g)+n ({invariants.euler} != {expected_e})")
    if simply_connected and 0 < singular_fibers <= 2 * genus:
        out.append(f"simply connected requires n > 2g ({singular_fibers} <= {2 * genus})")
    return out


def _raw(sigma, euler, chi_h, c1_sq, c2, g, n, sc):
    return LefschetzBlock("raw", FourManifoldInvariants(sigma, euler, chi_h, c1_sq, c2), g, n, sc)


small = st.integers(min_value=-60, max_value=60)


@st.composite
def validation_blocks(draw):
    """Blocks with arbitrary records, or with consistent ones nudged in at most one field."""
    g, n, sc = draw(st.integers(0, 12)), draw(st.integers(0, 60)), draw(st.booleans())
    if draw(st.booleans()):
        return _raw(*(draw(small) for _ in range(5)), g, n, sc)
    # A record satisfying every identity for (g, n): euler from the fibration,
    # chi_h free, sigma = 4*chi_h - euler.
    euler = euler_from_fibration(g, n)
    chi_h = draw(small)
    sigma = 4 * chi_h - euler
    record = [sigma, euler, chi_h, 3 * sigma + 2 * euler, euler]
    field = draw(st.integers(0, 5))  # 5: none nudged
    if field < 5:
        record[field] += draw(small.filter(bool))
    return _raw(*record, g, n, sc)


# E(1): sigma -8, euler 12, chi_h 1, c1^2 0, c2 12, torus fibers, 12 nodal fibers.
@example(block=_raw(-8, 12, 1, 1, 12, 1, 12, True))  # c1^2 identity alone fails
@example(block=_raw(-8, 12, 1, 0, 13, 1, 12, True))  # c2 = euler alone fails
@example(block=_raw(-8, 12, 2, 0, 12, 1, 12, True))  # 4*chi_h = sigma + euler alone fails
@example(block=_raw(-8, 12, 1, 0, 12, 1, 13, True))  # euler = 2(2-2g)+n alone fails
# genus 2 with n = 0, 2g and 2g + 1 nodal fibers, each record consistent
@example(block=_raw(4, -4, 0, 4, -4, 2, 0, True))
@example(block=_raw(4, -4, 0, 4, -4, 2, 0, False))
@example(block=_raw(0, 0, 0, 0, 0, 2, 4, True))  # n > 2g alone fails
@example(block=_raw(0, 0, 0, 0, 0, 2, 4, False))
@example(block=_raw(3, 1, 1, 11, 1, 2, 5, True))
@example(block=_raw(3, 1, 1, 11, 1, 2, 5, False))
@given(block=validation_blocks())
def test_validate_block_matches_reference(block):
    assert validate_block(block) == _reference_validate_block(block)


@pytest.mark.parametrize(
    "block",
    [
        # consistent records for the negative value, so that only its sign is wrong
        _raw(0, 8, 2, 16, 8, 0, 0, False)._replace(fiber_genus=-1),
        _raw(1, 3, 1, 9, 3, 0, 0, False)._replace(singular_fibers=-1),
        _block(1, 0, 1, 12)._replace(fiber_genus=-3),
        _block(1, 0, 1, 12)._replace(singular_fibers=-12),
    ],
    ids=["genus", "count", "genus-of-E(1)", "count-of-E(1)"],
)
def test_validate_block_rejects_negative_data_like_reference(block):
    with pytest.raises(ValueError) as reference:
        _reference_validate_block(block)
    with pytest.raises(ValueError) as fast:
        validate_block(block)
    assert str(fast.value) == str(reference.value)
