import itertools

import pytest
from hypothesis import given, settings, strategies as st

from cherngeo.catalog import FAMILIES
from cherngeo.lattice import box_solutions, family_steps

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
