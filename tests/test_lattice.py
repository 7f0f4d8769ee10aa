import itertools

import pytest
from hypothesis import given, settings, strategies as st

from cherngeo.catalog import FAMILIES, generic_block
from cherngeo.fibersum import halic_construction
from cherngeo.lattice import box_solutions, family_partners, family_steps

_COEFFICIENTS = st.integers(-4, 4) | st.integers(-(2**70), 2**70)


@settings(max_examples=400)  # regular 2 x 2 systems are few of the cases drawn
@given(data=st.data())
def test_box_solutions_match_a_walk_of_the_box(data):
    k = data.draw(st.integers(0, 3), label="columns")
    columns = [(data.draw(_COEFFICIENTS), data.draw(_COEFFICIENTS)) for _ in range(k)]
    if k >= 1 and data.draw(st.booleans(), label="a zero column"):
        columns[-1] = (0, 0)
    if k >= 2 and data.draw(st.booleans(), label="a singular pair"):
        ca, cb = columns[0]
        multiple = data.draw(st.integers(-3, 3), label="multiple")
        columns[1] = (multiple * ca, multiple * cb)
    spans = tuple(data.draw(st.integers(-1, 5), label="span") for _ in range(k))
    box = list(itertools.product(*(range(span + 1) for span in spans)))
    # The right-hand side of a point of the box (or of 0), missed in A, B, both or neither.
    point = data.draw(st.sampled_from(box)) if box else (0,) * k
    miss = st.just(0) | st.integers(-2, 2) | _COEFFICIENTS
    rest_a = sum(v * ca for v, (ca, _) in zip(point, columns)) + data.draw(miss, label="miss in A")
    rest_b = sum(v * cb for v, (_, cb) in zip(point, columns)) + data.draw(miss, label="miss in B")
    walk = [
        d
        for d in box
        if sum(v * ca for v, (ca, _) in zip(d, columns)) == rest_a
        and sum(v * cb for v, (_, cb) in zip(d, columns)) == rest_b
    ]
    assert sorted(box_solutions(columns, rest_a, rest_b, spans)) == walk


@pytest.mark.parametrize("family", FAMILIES)
def test_each_family_row_is_affine(family):
    # The search solves for partners by the base and steps alone, so a row whose
    # signature they do not reproduce would give wrong search answers.
    _, params, signature = FAMILIES[family]
    least = [lo for lo, _, _ in params.values()]
    base, steps = family_steps(family)
    assert base == signature(*least) and len(steps) == len(least)
    for offsets in itertools.product(range(7), repeat=len(least)):
        point = tuple(
            at + sum(d * step[axis] for d, step in zip(offsets, steps))
            for axis, at in enumerate(base)
        )
        assert point == signature(*(lo + d for lo, d in zip(least, offsets))), offsets


# -- solving for a block's partners in a named family -------------------------

# Integers of either sign, past 2**64 included.
_WIDE = st.integers(-30, 30) | st.integers(-(2**80), 2**80)



def _partners_by_walk(b1, a, b, family, spans):
    """The offsets of every partner of b1 in the family's box whose fiber sum has A = a, B = b."""
    _, params, signature = FAMILIES[family]
    least = [lo for lo, _, _ in params.values()]
    found = []
    for offsets in itertools.product(*(range(span + 1) for span in spans)):
        partner = generic_block(*signature(*(lo + d for lo, d in zip(least, offsets))), 0, False)
        _, c1_cubed, c1c2 = halic_construction(b1, partner, check=False)
        if (c1c2 // 24, c1_cubed // 6) == (a, b):
            found.append(offsets)
    return found


@pytest.mark.parametrize("family", FAMILIES)
@given(data=st.data())
def test_family_partners_match_a_walk_of_the_box(family, data):
    _, params, signature = FAMILIES[family]
    least = [lo for lo, _, _ in params.values()]
    # The systems are singular for a torus-fibered block (f1 = 0) and, in the
    # knot-surgered family, for one with c1^2 = 8*f1, as S^2 x S^2 has.
    shape = data.draw(st.sampled_from(("any", "f1 = 0", "c1sq1 = 8*f1")), label="shape")
    genus = 1 if shape == "f1 = 0" else data.draw(st.integers(0, 5) | st.integers(0, 2**80))
    chi1 = data.draw(_WIDE, label="chi1")
    c1sq1 = 8 * (1 - genus) if shape == "c1sq1 = 8*f1" else data.draw(_WIDE, label="c1sq1")
    b1 = generic_block(chi1, c1sq1, genus, 0, False)
    spans = tuple(data.draw(st.integers(-1, 6), label=f"span of {p}") for p in params)
    boxed = all(span >= 0 for span in spans)
    if boxed and data.draw(st.booleans(), label="A and B of a partner in the box"):
        offsets = [data.draw(st.integers(0, span), label="offset") for span in spans]
        partner = generic_block(*signature(*(lo + d for lo, d in zip(least, offsets))), 0, False)
        _, c1_cubed, c1c2 = halic_construction(b1, partner, check=False)
        a, b = c1c2 // 24, c1_cubed // 6
    else:
        a, b = data.draw(_WIDE, label="A"), data.draw(_WIDE, label="B")
    found = list(family_partners([b1], a, b, family, spans))
    assert all(i == 0 for i, _ in found)
    assert sorted(d for _, d in found) == _partners_by_walk(b1, a, b, family, spans)
