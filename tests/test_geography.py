import itertools

import pytest
from hypothesis import assume, example, given, strategies as st

from cherngeo import fibersum, geography, invariants, lattice
from cherngeo.catalog import (
    FAMILIES,
    GenericGrid,
    SearchBounds,
    elliptic_surface,
    generic_block,
    knot_surgered_elliptic,
    ruled_spheres,
)
from cherngeo.fibersum import halic_construction, halic_construction_via_oracle
from cherngeo.geography import (
    Realization,
    candidate_blocks,
    classify_geography_point,
    construction_obstruction,
    halic_divisibility_check,
    search_realizations,
)
from cherngeo.invariants import (
    ChernTriple,
    FourManifoldInvariants,
    LefschetzBlock,
    validate_block,
)


def test_divisibility_examples():
    assert halic_divisibility_check(ChernTriple(24, 0, 24)).all_pass
    assert halic_divisibility_check(ChernTriple(0, 0, 0)).all_pass
    report = halic_divisibility_check(ChernTriple(2, 2, 12))
    assert report.c3_even and report.c1cubed_even and not report.c1c2_mod24
    assert not report.all_pass


def test_divisibility_handles_negatives():
    assert halic_divisibility_check(ChernTriple(-24, -6, -48)).all_pass
    assert not halic_divisibility_check(ChernTriple(-3, 0, 0)).c3_even


def test_construction_obstruction():
    # satisfies the general divisibility but not the construction's mod-6 rule
    msgs = construction_obstruction(ChernTriple(2, 2, 24))
    assert any("divisible by 6" in m for m in msgs)
    assert construction_obstruction(ChernTriple(24, 0, 24)) == []
    # passes every divisibility check, but lies off the plane 3*c3 = 3*c1c2 - c1^3
    assert construction_obstruction(ChernTriple(0, 48, 0)) == [
        "3*c3 = 0 differs from 3*c1c2 - c1^3 = -48"
    ]
    msgs = construction_obstruction(ChernTriple(0, 0, 1))
    assert any("24" in m for m in msgs)
    msgs = construction_obstruction(ChernTriple(0, 3, 0))
    assert "c1^3 = 3 is not even" in msgs


# -- search ------------------------------------------------------------------


def _lemma_reference(b1, b2):
    # independent re-statement of the closed form for brute-force checks
    chi1, c1 = b1.invariants.chi_h, b1.invariants.c1_sq
    chi2, c2 = b2.invariants.chi_h, b2.invariants.c1_sq
    f1, f2 = 1 - b1.fiber_genus, 1 - b2.fiber_genus
    return (
        2 * (12 * chi1 - c1) * f2 + 2 * (12 * chi2 - c2) * f1 - 8 * f1 * f2,
        6 * f2 * c1 + 6 * f1 * c2 - 48 * f1 * f2,
        24 * f2 * chi1 + 24 * f1 * chi2 - 24 * f1 * f2,
    )


def _reference_search(target, bounds):
    """The slow reference scan: every pair i <= j of the candidates, in list order."""
    blocks = candidate_blocks(bounds)
    return [
        Realization(b1, b2, ChernTriple(*_lemma_reference(b1, b2)))
        for i, b1 in enumerate(blocks)
        for b2 in blocks[i:]
        if _lemma_reference(b1, b2) == target
    ]


@st.composite
def small_bounds(draw):
    """Random families and small limits, and a generic grid reaching negative invariants.

    At most 4 + 1 + 16 named and 4 * 5 * 4 generic blocks: about 100 candidates.
    """
    families = draw(st.lists(st.sampled_from(tuple(FAMILIES)), unique=True))
    generic = None
    if draw(st.booleans()):
        chi, c1_sq = draw(st.integers(-3, 3)), draw(st.integers(-6, 6))
        genus = draw(st.integers(0, 3))
        generic = GenericGrid(
            (chi, chi + draw(st.integers(0, 3))),
            (c1_sq, c1_sq + draw(st.integers(0, 4))),
            (genus, draw(st.integers(genus, 3))),
        )
    return SearchBounds(
        families,
        max_m=draw(st.integers(0, 4)),
        max_k=draw(st.integers(0, 4)),
        max_knot_genus=draw(st.integers(0, 3)),
        generic=generic,
    )


@given(bounds=small_bounds(), data=st.data())
def test_search_matches_the_reference_scan(bounds, data):
    blocks = candidate_blocks(bounds)
    assume(blocks)
    if data.draw(st.booleans(), label="target from a candidate pair"):
        i = data.draw(st.integers(0, len(blocks) - 1), label="i")
        j = data.draw(st.integers(i, len(blocks) - 1), label="j")
        target = ChernTriple(*_lemma_reference(blocks[i], blocks[j]))
    else:
        a = data.draw(st.integers(-20, 20), label="A")
        b = data.draw(st.integers(-40, 40), label="B")
        shift = data.draw(st.sampled_from(((0, 0, 0), (2, 0, 0), (1, 0, 0), (0, 2, 0), (0, 0, 12))))
        target = ChernTriple(24 * a - 2 * b + shift[0], 6 * b + shift[1], 24 * a + shift[2])
    assert search_realizations(target, bounds) == _reference_search(target, bounds)


def test_a_named_only_search_solves_its_pairs(spy):
    # Named-family partners are solved for, so the closed form runs once per hit,
    # not once for each of the 5,000 * 5,001 / 2 candidate pairs.
    calls = spy(fibersum, "halic_construction")
    bounds = SearchBounds(families=("elliptic", "ruled-spheres"), max_m=4999)
    results = search_realizations(ChernTriple(24000, 0, 24000), bounds)
    assert results == [
        Realization(elliptic_surface(1000), ruled_spheres(), ChernTriple(24000, 0, 24000))
    ]
    assert [(b1.name, b2.name) for b1, b2 in calls] == [("E(1000)", "S2xS2")]


# -- the result budget --------------------------------------------------------

# Two searches for (0, 0, 0) with ten realizations each, since every pair of
# torus-fibered blocks realizes it: E(1..4), solved in the named family, and
# four genus-1 generic blocks, scanned pair by pair.
_TEN_REALIZATIONS = {
    "named solve": SearchBounds(families=("elliptic",), max_m=4),
    "generic scan": SearchBounds(families=(), generic=GenericGrid((0, 3), (0, 0), (1, 1))),
}


@pytest.mark.parametrize("where", _TEN_REALIZATIONS)
def test_a_search_past_the_result_limit_is_refused_before_any_realization(monkeypatch, spy, where):
    monkeypatch.setattr(geography, "SEARCH_RESULT_LIMIT", 9)
    closed_form = spy(fibersum, "halic_construction")
    oracle = spy(fibersum, "halic_construction_via_oracle")
    with pytest.raises(ValueError, match=r"more than 9 realizations of \(0, 0, 0\)"):
        search_realizations(ChernTriple(0, 0, 0), _TEN_REALIZATIONS[where])
    # The named solve calls no closed form; the scan stops at its tenth hit.
    assert (len(closed_form), len(oracle)) == (0 if where == "named solve" else 10, 0)


@pytest.mark.parametrize("where", _TEN_REALIZATIONS)
def test_a_search_with_exactly_the_limit_passes(monkeypatch, where):
    monkeypatch.setattr(geography, "SEARCH_RESULT_LIMIT", 10)
    bounds = _TEN_REALIZATIONS[where]
    results = search_realizations(ChernTriple(0, 0, 0), bounds)
    assert len(results) == 10
    assert results == _reference_search(ChernTriple(0, 0, 0), bounds)


def test_the_named_solve_stops_at_the_limit(monkeypatch, spy):
    # E(1) alone has 100 partners of (0, 0, 0) among E(1..100), and the solve
    # yields them before it solves the next block's system, so the search
    # passes a limit of 9 having solved one system, not 100.
    solved = spy(lattice, "box_solutions")
    monkeypatch.setattr(geography, "SEARCH_RESULT_LIMIT", 9)
    with pytest.raises(ValueError, match="more than 9 realizations"):
        search_realizations(ChernTriple(0, 0, 0), SearchBounds(("elliptic",), max_m=100))
    assert len(solved) == 1


def test_search_finds_worked_example():
    bounds = SearchBounds(families=("elliptic", "ruled-spheres"), max_m=5)
    results = search_realizations(ChernTriple(24, 0, 24), bounds)
    names = {(r.block1.name, r.block2.name) for r in results}
    assert ("E(1)", "S2xS2") in names


def test_search_zero_triple_includes_calabi_yau_and_torus_pairs():
    bounds = SearchBounds(
        families=("elliptic", "knot-surgered-elliptic"),
        max_m=3, max_k=3, max_knot_genus=2,
    )
    results = search_realizations(ChernTriple(0, 0, 0), bounds)
    names = {(r.block1.name, r.block2.name) for r in results}
    assert ("E(2)", "E(2)_K(g=0)") in names
    # any pair of torus-fibered blocks realizes zero
    assert ("E(1)", "E(1)") in names
    assert ("E(1)", "E(2)") in names


def test_search_obstructed_target_is_empty():
    bounds = SearchBounds(max_m=3, max_k=3, max_knot_genus=2)
    assert search_realizations(ChernTriple(2, 2, 24), bounds) == []


def test_search_soundness_and_completeness():
    bounds = SearchBounds(families=("elliptic", "ruled-spheres"), max_m=5)
    target = ChernTriple(48, 0, 48)
    results = search_realizations(target, bounds)
    for r in results:
        assert halic_construction(r.block1, r.block2) == target
    found = {(r.block1.name, r.block2.name) for r in results}

    # brute force over the same bounds, with an independently written formula
    blocks = [elliptic_surface(m) for m in range(1, 6)] + [ruled_spheres()]
    expected = set()
    for b1, b2 in itertools.combinations_with_replacement(blocks, 2):
        if _lemma_reference(b1, b2) == (48, 0, 48):
            expected.add((b1.name, b2.name))
    assert found == expected == {("E(2)", "S2xS2")}


def test_search_deduplicates_symmetric_pairs():
    bounds = SearchBounds(families=("elliptic", "ruled-spheres"), max_m=2)
    results = search_realizations(ChernTriple(24, 0, 24), bounds)
    pairs = [(r.block1.name, r.block2.name) for r in results]
    assert len(pairs) == len(set(frozenset(p) for p in pairs))


def test_generic_grid_candidates_are_valid_and_searchable():
    grid = GenericGrid(chi_h=(1, 2), c1_sq=(0, 8), genus=(0, 1))
    bounds = SearchBounds(families=(), generic=grid)
    blocks = candidate_blocks(bounds)
    assert blocks
    for b in blocks:
        from cherngeo.invariants import validate_block

        assert validate_block(b) == [], b.name
    results = search_realizations(ChernTriple(24, 0, 24), bounds)
    assert results  # E(1)- and S2xS2-shaped generic blocks realize it
    for r in results:
        assert r.triple == ChernTriple(24, 0, 24)


def test_search_validates_each_candidate_once(spy):
    bounds = SearchBounds(families=("elliptic", "ruled-spheres"), max_m=5)
    names = [b.name for b in candidate_blocks(bounds)]
    seen = spy(invariants, "validate_block")
    results = search_realizations(ChernTriple(48, 0, 48), bounds)
    assert [(r.block1.name, r.block2.name) for r in results] == [("E(2)", "S2xS2")]
    assert [b.name for b, in seen] == names  # one call per candidate, not two per pair


def test_search_raises_on_the_first_invalid_candidate(monkeypatch, spy):
    from cherngeo.invariants import BlockValidationError

    bad = [
        elliptic_surface(m)._replace(name=f"bad{m}", singular_fibers=1)
        for m in (2, 3)
    ]
    blocks = [elliptic_surface(1), bad[0], ruled_spheres(), bad[1]]
    monkeypatch.setattr(geography, "candidate_blocks", lambda bounds: blocks)
    seen = spy(invariants, "validate_block")
    with pytest.raises(BlockValidationError, match="'bad2'") as info:
        search_realizations(ChernTriple(24, 0, 24), SearchBounds())
    assert info.value.block_name == "bad2"
    # In list order, stopping at the first invalid one.
    assert [b.name for b, in seen] == ["E(1)", "bad2"]


def test_search_raises_when_the_closed_form_and_the_oracle_disagree(monkeypatch):
    # Each hit is verified by the oracle; a disagreement would be a formula bug.
    monkeypatch.setattr(
        fibersum, "halic_construction_via_oracle", lambda b1, b2, check=True: ChernTriple(26, 2, 26)
    )
    bounds = SearchBounds(families=("elliptic", "ruled-spheres"), max_m=1)
    with pytest.raises(AssertionError, match=r"disagree on \(E\(1\), S2xS2\)$"):
        search_realizations(ChernTriple(24, 0, 24), bounds)


def test_bounds_from_json():
    bounds = SearchBounds.from_json(
        {
            "families": ["elliptic"],
            "max_m": 2,
            "generic": {"chi_h": [0, 1], "c1_sq": [0, 4], "genus": [0, 1]},
        }
    )
    assert bounds.families == ("elliptic",)
    assert bounds.max_m == 2
    assert bounds.generic == GenericGrid((0, 1), (0, 4), (0, 1))


def test_construction_outputs_satisfy_divisibility_on_grid():
    count = 0
    for chi1, c1sq1, g1, chi2, c1sq2, g2 in itertools.product(
        range(-2, 4), range(-4, 6, 2), (0, 1, 2), range(-1, 3), range(0, 9, 4), (0, 1, 3)
    ):
        b1 = LefschetzBlock("a", FourManifoldInvariants(chi1, c1sq1), g1, 0, False)
        b2 = LefschetzBlock("b", FourManifoldInvariants(chi2, c1sq2), g2, 0, False)
        t = halic_construction(b1, b2, check=False)
        assert halic_divisibility_check(t).all_pass
        assert t.c1_cubed % 6 == 0
        count += 1
    assert count >= 1000


# -- the plane 3*c3 = 3*c1c2 - c1^3 -------------------------------------------


@st.composite
def valid_blocks(draw):
    """A block of a named family, or a generic block with a consistent fibration."""
    family = draw(st.sampled_from(("elliptic", "ruled-spheres", "knot", "generic")))
    if family == "elliptic":
        return elliptic_surface(draw(st.integers(1, 8)))
    if family == "ruled-spheres":
        return ruled_spheres()
    if family == "knot":
        return knot_surgered_elliptic(draw(st.integers(1, 6)), draw(st.integers(0, 4)))
    chi, genus, n = draw(st.integers(0, 10)), draw(st.integers(0, 6)), draw(st.integers(0, 60))
    c1_sq = 12 * chi - 2 * (2 - 2 * genus) - n  # the Euler number 2(2-2g)+n
    return generic_block(chi, c1_sq, genus, n, n > 2 * genus)


@given(b1=valid_blocks(), b2=valid_blocks())
def test_oracle_triples_lie_on_the_plane(b1, b2):
    assert validate_block(b1) == [] and validate_block(b2) == []
    t = halic_construction_via_oracle(b1, b2)
    assert 3 * t.c3 == 3 * t.c1c2 - t.c1_cubed
    assert construction_obstruction(t) == []
    off = ChernTriple(t.c3 + 2, t.c1_cubed, t.c1c2)
    (message,) = construction_obstruction(off)
    assert f"3*c3 = {3 * off.c3} " in message
    assert f"3*c1c2 - c1^3 = {3 * off.c1c2 - off.c1_cubed}" in message


def test_off_plane_target_skips_the_scan(monkeypatch):
    target = ChernTriple(26, 0, 24)  # passes every divisibility check
    assert halic_divisibility_check(target).all_pass and target.c1_cubed % 6 == 0

    def no_scan(bounds):
        raise AssertionError("an off-plane target must not enumerate candidates")

    monkeypatch.setattr(geography, "candidate_blocks", no_scan)
    assert search_realizations(target, SearchBounds()) == []


# Integers of either sign, past 2**64 included.
_WIDE_INTEGERS = st.integers(-50, 50) | st.integers(-(2**80), 2**80)


@given(a=_WIDE_INTEGERS, b=_WIDE_INTEGERS)
@example(a=997, b=1)  # (23926, 6, 23928): generic(997, 1, 0, n=11959) + S^2 x S^2
@example(a=2**64 + 1, b=-(2**65))
def test_every_image_point_has_a_formal_witness(a, b):
    t = ChernTriple(24 * a - 2 * b, 6 * b, 24 * a)
    assert construction_obstruction(t) == []
    genus = max(0, -((12 * a - b - 4) // 4))  # the least genus with n >= 0
    n = 12 * a - b - 4 + 4 * genus
    assert n >= 0 and (genus == 0 or n < 4)
    witness = generic_block(a, b, genus, n, False)
    assert validate_block(witness) == []
    assert halic_construction(witness, ruled_spheres()) == t
    assert halic_construction_via_oracle(witness, ruled_spheres()) == t


@given(
    a=_WIDE_INTEGERS,
    b=_WIDE_INTEGERS,
    shift=st.tuples(*[st.sampled_from((0, 0, 1, 2, 3, 12, -6))] * 3),
)
def test_unobstructed_triples_lie_in_the_image(a, b, shift):
    t = ChernTriple(24 * a - 2 * b + shift[0], 6 * b + shift[1], 24 * a + shift[2])
    if not construction_obstruction(t):
        assert t.c1c2 % 24 == 0 and t.c1_cubed % 6 == 0
        assert t.c3 == t.c1c2 - t.c1_cubed // 3


# -- classifier --------------------------------------------------------------


def test_classifier_elliptic_axis():
    for n in range(3, 10):
        cls = classify_geography_point(n, 0)
        assert "many-basic-classes" in cls.labels
        assert cls.basic_class_count == n - 2
        assert cls.on_elliptic_axis
        assert cls.signature_sign == -1


def test_classifier_bmy_boundary():
    cls = classify_geography_point(1, 9)
    assert "general-type" in cls.labels
    assert "above-BMY-unknown" not in cls.labels
    assert classify_geography_point(1, 10).labels == ("above-BMY-unknown",)
    assert cls.signature_sign == 1


def test_classifier_sigma_zero_line():
    cls = classify_geography_point(1, 8)
    assert "general-type" in cls.labels
    assert cls.signature_sign == 0


def test_classifier_negative_c1sq():
    cls = classify_geography_point(5, -1)
    assert "negative-c1sq-unknown" in cls.labels


def test_classifier_boundaries_are_closed():
    # on the line c1^2 = chi_h - 3 both strip labels apply
    cls = classify_geography_point(10, 7)
    assert "many-basic-classes" in cls.labels
    assert "one-basic-class" in cls.labels


@given(chi=st.integers(-20, 60), c1sq=st.integers(-50, 600))
def test_classifier_signature_identity(chi, c1sq):
    cls = classify_geography_point(chi, c1sq)
    sigma = FourManifoldInvariants(chi, c1sq).sigma
    assert cls.signature_sign == (sigma > 0) - (sigma < 0)
    assert cls.basic_class_count is None or cls.basic_class_count >= 1


@given(chi=st.integers(3, 60), c1sq=st.integers(-50, 600))
def test_classifier_covers_plane_for_large_chi(chi, c1sq):
    assert classify_geography_point(chi, c1sq).labels
