"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything here is exact integer arithmetic; no tolerances appear
anywhere.
"""

import itertools
import random
import time

import pytest

from cherngeo.catalog import (
    SearchBounds,
    elliptic_surface,
    generic_block,
    knot_surgered_elliptic,
    ruled_spheres,
)
from cherngeo.fibersum import halic_construction, halic_construction_via_oracle
from cherngeo.geography import (
    classify_geography_point,
    halic_divisibility_check,
    search_realizations,
)
from cherngeo.invariants import ChernTriple, FourManifoldInvariants

_MODULE_START = time.monotonic()


@pytest.fixture(scope="module")
def oracle_grid_triples():
    """Deterministic pair sample over the full grid; shared by criteria 4 and 5."""
    blocks = [
        generic_block(chi, c1sq, g, 0, False)
        for g in range(6)
        for chi in range(-3, 9)
        for c1sq in range(-8, 17)
    ]
    assert len(blocks) == 6 * 12 * 25
    rng = random.Random(13)
    pairs = [(rng.choice(blocks), rng.choice(blocks)) for _ in range(12000)]
    # structured corners on top of the random sample
    for b1 in blocks[:40]:
        for b2 in blocks[-40:]:
            pairs.append((b1, b2))
    return pairs


def test_criterion_1_elliptic_times_ruled():
    start = time.monotonic()
    for m in range(1, 11):
        triple = halic_construction(elliptic_surface(m), ruled_spheres())
        assert triple == ChernTriple(24 * m, 0, 24 * m)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"PASS criterion 1: E(m) x ruled spheres gives (24m, 0, 24m) for m in 1..10 ({elapsed:.3f}s)")


def test_criterion_2_knot_surgered_family():
    start = time.monotonic()
    for m, k, g in itertools.product(range(1, 6), range(1, 6), range(5)):
        triple = halic_construction(elliptic_surface(m), knot_surgered_elliptic(k, g))
        v = 24 * m * (2 - 2 * g - k)
        assert triple == ChernTriple(v, 0, v)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"PASS criterion 2: knot-surgered family gives (24m(2-2g-k), 0, same) ({elapsed:.3f}s)")


def test_criterion_3_calabi_yau_point():
    assert halic_construction(
        elliptic_surface(2), knot_surgered_elliptic(2, 0)
    ) == ChernTriple(0, 0, 0)

    zero_instances = []
    for m, k, g in itertools.product(range(1, 7), range(1, 7), range(5)):
        b1 = elliptic_surface(m)
        b2 = knot_surgered_elliptic(k, g)
        if halic_construction(b1, b2) == ChernTriple(0, 0, 0):
            zero_instances.append((m, k, g, 1 - b1.fiber_genus, 1 - b2.fiber_genus))

    assert ((2, 2, 0, 0, 0)) in [z for z in zero_instances]
    # every zero triple in the scan is torus-fibered on both sides
    # (both 1 - g_i factors vanish); none survives the non-torus filter
    non_torus_zeros = [z for z in zero_instances if not (z[3] == 0 and z[4] == 0)]
    assert non_torus_zeros == []
    report = ", ".join(f"(m={m},k={k},g={g}; 1-g1={f1}, 1-g2={f2})" for m, k, g, f1, f2 in zero_instances)
    print(f"PASS criterion 3: zero triples in the scan: {report}; all are double-torus pairs")


def test_criterion_4_oracle_equivalence(oracle_grid_triples):
    start = time.monotonic()
    assert len(oracle_grid_triples) >= 10**4
    for b1, b2 in oracle_grid_triples:
        closed = halic_construction(b1, b2, check=False)
        symbolic = halic_construction_via_oracle(b1, b2, check=False)
        assert closed == symbolic
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(
        f"PASS criterion 4: closed form equals symbolic expansion on "
        f"{len(oracle_grid_triples)} grid pairs ({elapsed:.1f}s)"
    )


def test_criterion_5_divisibility(oracle_grid_triples):
    failures = 0
    for b1, b2 in oracle_grid_triples:
        t = halic_construction(b1, b2, check=False)
        if not halic_divisibility_check(t).all_pass or t.c1_cubed % 6 != 0:
            failures += 1
    assert failures == 0
    print(
        f"PASS criterion 5: divisibility (2, 2, 24) and c1^3 = 0 mod 6 on "
        f"{len(oracle_grid_triples)} triples, zero failures"
    )


def test_criterion_6_search_soundness_completeness():
    bounds = SearchBounds(families=("elliptic", "ruled-spheres"), max_m=5)
    target = ChernTriple(48, 0, 48)
    results = search_realizations(target, bounds)
    found = {(r.block1.name, r.block2.name) for r in results}
    for r in results:
        assert halic_construction(r.block1, r.block2) == target

    # independent brute force with an inline re-statement of the closed form
    blocks = [elliptic_surface(m) for m in range(1, 6)] + [ruled_spheres()]
    expected = set()
    for b1, b2 in itertools.combinations_with_replacement(blocks, 2):
        chi1, c1 = b1.invariants.chi_h, b1.invariants.c1_sq
        chi2, c2 = b2.invariants.chi_h, b2.invariants.c1_sq
        f1, f2 = 1 - b1.fiber_genus, 1 - b2.fiber_genus
        triple = (
            2 * (12 * chi1 - c1) * f2 + 2 * (12 * chi2 - c2) * f1 - 8 * f1 * f2,
            6 * f2 * c1 + 6 * f1 * c2 - 48 * f1 * f2,
            24 * f2 * chi1 + 24 * f1 * chi2 - 24 * f1 * f2,
        )
        if triple == (48, 0, 48):
            expected.add((b1.name, b2.name))
    assert found == expected == {("E(2)", "S2xS2")}
    print("PASS criterion 6: search for (48,0,48) finds exactly (E(2), S2xS2), matching brute force")


def test_criterion_7_classifier_identities():
    for chi in range(0, 21):
        for c1sq in range(-10, 191):
            cls = classify_geography_point(chi, c1sq)
            sigma = FourManifoldInvariants(chi, c1sq).sigma
            assert cls.signature_sign == (sigma > 0) - (sigma < 0)
    for n in range(1, 13):
        assert classify_geography_point(n, 0).on_elliptic_axis
    bmy = classify_geography_point(1, 9)
    assert "general-type" in bmy.labels
    assert "above-BMY-unknown" not in bmy.labels
    assert classify_geography_point(1, 8).signature_sign == 0
    print("PASS criterion 7: classifier identities hold on [0..20] x [-10..190]")


def test_criterion_8_exact_arithmetic_and_runtime():
    # spot-check that every public numeric result is an exact Python int
    samples = [
        halic_construction(elliptic_surface(3), ruled_spheres()),
        halic_construction_via_oracle(elliptic_surface(1), knot_surgered_elliptic(1, 2)),
        halic_construction(
            generic_block(-3, -8, 5, 0, False), generic_block(8, 16, 0, 0, False), check=False
        ),
    ]
    for t in samples:
        assert type(t.c3) is int and type(t.c1_cubed) is int and type(t.c1c2) is int
    inv = FourManifoldInvariants(7, -5)
    for value in (inv.sigma, inv.euler, inv.chi_h, inv.c1_sq, inv.c2):
        assert type(value) is int
    elapsed = time.monotonic() - _MODULE_START
    assert elapsed < 60.0
    print(f"PASS criterion 8: exact integer arithmetic throughout; acceptance module in {elapsed:.1f}s")
