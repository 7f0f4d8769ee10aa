"""A third reading of c3 and c1c2: the cut-and-paste Euler number and the Todd genus.

The closed form and the oracle both rest on the gluing corrections along
S1 x S2, so an error in those corrections would reach both paths and their
agreement would not show it.  Two of the three Chern numbers can be read
without them:

- c3 is the Euler number.  Removing a tubular neighbourhood of S1 x S2 from
  each side removes e(S1 x S2) once per side, and the circle-bundle
  boundary has e = 0, so e = e(X1) e(S2) + e(X2) e(S1) - 2 e(S1) e(S2),
  with e(Xi) = 12 chi_i - c1^2_i (Noether) and e(S) = 2 - 2g.
- c1c2 is 24 times the Todd genus (Hirzebruch-Riemann-Roch).  The Todd
  genus is multiplicative, chi_h for a 4-manifold and 1 - g for a surface,
  and a fiber sum's is its two products' less the locus's:
  chi_1 (1 - g2) + chi_2 (1 - g1) - (1 - g1)(1 - g2).

c1^3 has no third reading: the plane 3 c3 = 3 c1c2 - c1^3 fixes it.  The
reference reads each block's (chi_h, c1^2, g) as plain ints; it uses
neither the closed form nor ``cherngeo.algebra``.
"""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from cherngeo import catalog
from cherngeo.fibersum import fiber_sum_parts, halic_construction, halic_construction_via_oracle


def _surface_euler(g):
    return 2 - 2 * g


def _surface_todd(g):
    return 1 - g


def _third_reading(b1, b2):
    """(c3, c1c2) of the fiber sum of two blocks, from their (chi_h, c1^2, g) alone."""
    chi1, c1sq1, g1 = b1.invariants.chi_h, b1.invariants.c1_sq, b1.fiber_genus
    chi2, c1sq2, g2 = b2.invariants.chi_h, b2.invariants.c1_sq, b2.fiber_genus
    e1, e2 = 12 * chi1 - c1sq1, 12 * chi2 - c1sq2
    s1, s2 = _surface_euler(g1), _surface_euler(g2)
    t1, t2 = _surface_todd(g1), _surface_todd(g2)
    euler = e1 * s2 + e2 * s1 - 2 * s1 * s2
    todd = chi1 * t2 + chi2 * t1 - t1 * t2
    return euler, 24 * todd


def _both_paths(b1, b2, check):
    """(c3, c1c2) by the closed form and by the oracle."""
    return [
        (t.c3, t.c1c2)
        for t in (halic_construction(b1, b2, check=check),
                  halic_construction_via_oracle(b1, b2, check=check))
    ]


_INVARIANT = st.integers(-60, 60) | st.integers(-(2 ** 80), 2 ** 80)
_GENUS = st.integers(0, 8) | st.integers(0, 2 ** 70)


@settings(max_examples=300)
@given(chi1=_INVARIANT, c1sq1=_INVARIANT, g1=_GENUS, chi2=_INVARIANT, c1sq2=_INVARIANT, g2=_GENUS)
@example(chi1=2 ** 64 + 1, c1sq1=-(2 ** 65), g1=2 ** 64, chi2=-(2 ** 64), c1sq2=3, g2=0)
@example(chi1=1, c1sq1=0, g1=1, chi2=1, c1sq2=8, g2=0)  # E(1) and S2xS2
def test_both_paths_give_the_euler_number_and_todd_genus(chi1, c1sq1, g1, chi2, c1sq2, g2):
    b1 = catalog.generic_block(chi1, c1sq1, g1, 0, False)
    b2 = catalog.generic_block(chi2, c1sq2, g2, 0, False)
    assert _both_paths(b1, b2, check=False) == [_third_reading(b1, b2)] * 2


def _family_blocks(family):
    """Blocks of one catalog row, each parameter from its least value to past 64 bits."""
    parameters = catalog.FAMILIES[family][1].values()
    drawn = (st.integers(lo, lo + 6) | st.integers(lo, 2 ** 66) for lo, _, _ in parameters)
    return st.tuples(*drawn).map(lambda params: catalog.family_block(family, *params))


@pytest.mark.parametrize(
    "family1, family2",
    list(itertools.combinations_with_replacement(sorted(catalog.FAMILIES), 2)),
)
@settings(max_examples=40)
@given(data=st.data())
def test_every_catalog_family_pair_gives_the_third_reading(family1, family2, data):
    b1 = data.draw(_family_blocks(family1), label="b1")
    b2 = data.draw(_family_blocks(family2), label="b2")
    # Catalog blocks are valid, so both paths run checked.
    assert _both_paths(b1, b2, check=True) == [_third_reading(b1, b2)] * 2


@settings(max_examples=60, deadline=None)
@given(g1=_GENUS, g2=_GENUS)
def test_the_correction_part_is_the_locus_removed(g1, g2):
    # fiber_sum_parts' third part is what gluing along S1 x S2 takes away:
    # e(S1 x S2) from each side, and the locus's Todd genus once.
    correction = fiber_sum_parts(
        catalog.generic_block(0, 0, g1, 0, False), catalog.generic_block(0, 0, g2, 0, False)
    )[2]
    assert correction.c3 == -2 * _surface_euler(g1) * _surface_euler(g2)
    assert correction.c1c2 == -24 * _surface_todd(g1) * _surface_todd(g2)
