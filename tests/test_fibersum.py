import inspect
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from cherngeo import algebra, cli, fibersum, invariants
from cherngeo.catalog import elliptic_surface, knot_surgered_elliptic, ruled_spheres
from cherngeo.fibersum import (
    ChernTriple,
    CrossSectionInvariants,
    cross_section_of_surfaces,
    fiber_sum_parts,
    halic_construction,
    halic_construction_via_oracle,
)
from cherngeo.invariants import (
    BlockValidationError,
    FourManifoldInvariants,
    LefschetzBlock,
    SurfaceInvariants,
)


def _raw_block(chi_h, c1_sq, genus):
    """A block for formula sweeps; fibration data is not meaningful."""
    return LefschetzBlock(
        f"raw({chi_h},{c1_sq},{genus})",
        FourManifoldInvariants(chi_h, c1_sq),
        genus,
        0,
        False,
    )


def test_cross_section_examples():
    assert cross_section_of_surfaces(1, 1) == CrossSectionInvariants(0, 0)
    assert cross_section_of_surfaces(0, 0) == CrossSectionInvariants(8, 4)
    assert cross_section_of_surfaces(1, 0) == CrossSectionInvariants(0, 0)


@given(g1=st.integers(0, 8), g2=st.integers(0, 8))
def test_cross_section_closed_form(g1, g2):
    x = cross_section_of_surfaces(g1, g2)
    assert x.c2 == (2 - 2 * g1) * (2 - 2 * g2)
    assert x.c1_sq == 2 * (2 - 2 * g1) * (2 - 2 * g2)


# The slow reference's corrections, with Gompf's coefficients written here rather
# than read from fibersum.CORRECTIONS: c3 += -2*c2, c1^3 += -6*c1^2 and
# c1c2 += -2*c1^2 - 2*c2 along a locus with trivial normal bundle.
def _reference_fiber_sum(m1, m2, x):
    """Chern numbers of a fiber sum from the summands and the gluing locus."""
    c1_sq, c2 = x
    return ChernTriple(
        m1.c3 + m2.c3 - 2 * c2,
        m1.c1_cubed + m2.c1_cubed - 6 * c1_sq,
        m1.c1c2 + m2.c1c2 - 2 * c1_sq - 2 * c2,
    )


def test_corrections_zero_case():
    zero = ChernTriple(0, 0, 0)
    assert _reference_fiber_sum(zero, zero, CrossSectionInvariants(0, 0)) == zero


@pytest.mark.parametrize("m", [1, 2, 5])
def test_corrections_elliptic_decomposition(m):
    m1 = ChernTriple(24 * m, 0, 24 * m)
    m2 = ChernTriple(0, 0, 0)
    out = _reference_fiber_sum(m1, m2, CrossSectionInvariants(0, 0))
    assert out == ChernTriple(24 * m, 0, 24 * m)


def test_corrections_genus_zero_self_sum():
    summand = ChernTriple(8, 48, 24)
    out = _reference_fiber_sum(summand, summand, CrossSectionInvariants(8, 4))
    assert out == ChernTriple(8, 48, 24)


# -- closed-form construction ------------------------------------------------


@pytest.mark.parametrize("m", range(1, 8))
def test_elliptic_times_ruled(m):
    triple = halic_construction(elliptic_surface(m), ruled_spheres())
    assert triple == ChernTriple(24 * m, 0, 24 * m)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("g", [0, 1, 2])
def test_elliptic_times_knot_surgered(m, k, g):
    triple = halic_construction(elliptic_surface(m), knot_surgered_elliptic(k, g))
    v = 24 * m * (2 - 2 * g - k)
    assert triple == ChernTriple(v, 0, v)


def test_calabi_yau_point():
    triple = halic_construction(elliptic_surface(2), knot_surgered_elliptic(2, 0))
    assert triple == ChernTriple(0, 0, 0)


def test_invalid_block_raises():
    bad = LefschetzBlock("bad", FourManifoldInvariants(1, 0), 1, 2, True)
    with pytest.raises(BlockValidationError) as excinfo:
        halic_construction(bad, ruled_spheres())
    assert excinfo.value.violations


def test_check_false_skips_validation():
    bad = _raw_block(1, 0, 1)
    other = _raw_block(1, 8, 0)
    assert halic_construction(bad, other, check=False) == ChernTriple(24, 0, 24)


# -- oracle path -------------------------------------------------------------


def test_oracle_agrees_on_worked_examples():
    for m in (1, 2, 4):
        pair = (elliptic_surface(m), ruled_spheres())
        assert halic_construction_via_oracle(*pair) == halic_construction(*pair)
    cy = (elliptic_surface(2), knot_surgered_elliptic(2, 0))
    assert halic_construction_via_oracle(*cy) == ChernTriple(0, 0, 0)


def test_oracle_is_ground_truth_on_sphere_blocks():
    # chi_h = 1, c1^2 = 8, genus 0: the oracle value is the reference here
    b = _raw_block(1, 8, 0)
    t = halic_construction_via_oracle(b, b, check=False)
    assert t == halic_construction(b, b, check=False)
    assert isinstance(t.c3, int)


def test_oracle_call_graph(monkeypatch):
    # The functions perfbench/tracing.py wraps, and fiber_sum_parts: the oracle
    # runs one fused kernel and calls none of them, nor the closed form.
    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(algebra, "chern_numbers_of_product")
    count(fibersum, "cross_section_of_surfaces")
    count(fibersum, "fiber_sum_parts")
    count(fibersum, "halic_construction")
    b1, b2 = elliptic_surface(2), knot_surgered_elliptic(3, 1)
    triple = halic_construction_via_oracle(b1, b2)
    assert triple == ChernTriple(-144, 0, -144)  # 24m(2 - 2g - k)
    assert calls == {}
    # The parts --explain prints compile their own kernels and call no public piece.
    assert _summed(fibersum.fiber_sum_parts(b1, b2)) == triple
    assert calls == {"fiber_sum_parts": 1}
    # The counters see the reference's pieces when they are called.
    assert _reference(b1, b2)[-1] == triple
    assert calls == {"fiber_sum_parts": 1, "chern_numbers_of_product": 2,
                     "cross_section_of_surfaces": 1}


def test_a_warm_oracle_call_enters_the_kernel_and_two_c2_reads():
    # Every Python function one audited oracle call enters, by sys.setprofile's
    # 'call' events: the cached kernel and surface records are C-level hits, a
    # surface's Euler number is a stored field, and only the two 4-manifolds'
    # c2 (Noether's formula) are property calls.
    b1, b2 = elliptic_surface(2), knot_surgered_elliptic(3, 1)
    halic_construction_via_oracle(b1, b2, check=False)  # compiles the kernel, caches genera
    entered = []

    def profile(frame, event, arg):
        if event == "call":
            entered.append(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        triple = halic_construction_via_oracle(b1, b2, check=False)
    finally:
        sys.setprofile(previous)
    assert triple == ChernTriple(-144, 0, -144)
    c2 = FourManifoldInvariants.c2.fget.__code__
    kernel = fibersum._fiber_sum_kernel().__code__
    assert entered == [halic_construction_via_oracle.__code__, kernel, c2, c2]
    assert SurfaceInvariants.euler.fget.__code__ not in entered


def _summed(parts):
    return ChernTriple(*map(sum, zip(*parts)))


def _reference(b1, b2):
    """The fused kernel's slow reference: X1 x S2, X2 x S1, S1 x S2 and their fiber sum."""
    g1, g2 = b1.fiber_genus, b2.fiber_genus
    product1 = algebra.chern_numbers_of_product(b1.invariants, SurfaceInvariants(g2))
    product2 = algebra.chern_numbers_of_product(b2.invariants, SurfaceInvariants(g1))
    cross = fibersum.cross_section_of_surfaces(g1, g2)
    return product1, product2, cross, _reference_fiber_sum(product1, product2, cross)


# Negative invariants, and invariants and genera past 64 bits.  The kernel's
# coefficients are small; coefficients past 64 bits, which it writes as hex
# literals, are checked in tests/test_algebra.py.
_INVARIANT = st.integers(-60, 60) | st.integers(-(2 ** 80), 2 ** 80)
_GENUS = st.integers(0, 8) | st.integers(0, 2 ** 70)


@settings(max_examples=300)
@given(chi1=_INVARIANT, c1sq1=_INVARIANT, g1=_GENUS, chi2=_INVARIANT, c1sq2=_INVARIANT, g2=_GENUS)
@example(chi1=-(2 ** 64), c1sq1=2 ** 65 + 1, g1=2 ** 64, chi2=-3, c1sq2=-7, g2=0)
def test_fused_kernel_matches_its_pieces_and_the_closed_form(chi1, c1sq1, g1, chi2, c1sq2, g2):
    b1, b2 = _raw_block(chi1, c1sq1, g1), _raw_block(chi2, c1sq2, g2)
    fused = halic_construction_via_oracle(b1, b2, check=False)
    parts = fiber_sum_parts(b1, b2)
    product1, product2, cross, reference = _reference(b1, b2)
    assert parts[:2] == (product1, product2)
    assert parts[2] == _reference_fiber_sum(ChernTriple(0, 0, 0), ChernTriple(0, 0, 0), cross)
    assert fused == _summed(parts) == reference == halic_construction(b1, b2, check=False)
    assert type(fused) is ChernTriple and all(type(n) is int for n in fused)
    assert all(type(part) is ChernTriple for part in parts)


def test_corrections_are_one_table(monkeypatch, capsys):
    # fiber_sum_parts, _fiber_sum_kernel and fibersum --explain read the same table
    monkeypatch.setattr(fibersum, "CORRECTIONS", ((1, 0), (0, 1), (3, 5)))
    b = _raw_block(0, 0, 0)  # S1 x S2 has (c1^2, c2) = (8, 4); the products vanish
    assert fiber_sum_parts(b, b) == ((0, 0, 0), (0, 0, 0), (8, 4, 44))
    kernel = fibersum._fiber_sum_kernel.__wrapped__()  # built afresh from the patched table
    x, s = FourManifoldInvariants(0, 0), SurfaceInvariants(0)
    assert kernel(x, x, s, s) == (8, 4, 44)
    # two genus-0 fibers: S1 x S2 is again the (8, 4) of S^2 x S^2
    assert cli.main(["fibersum", "ruled-spheres", "ruled-spheres", "--explain"]) == 0
    corrections = capsys.readouterr().err.splitlines()[3]
    assert corrections.endswith(
        "c3 += 1*c1^2 = 8, c1^3 += 1*c2 = 4, c1c2 += 3*c1^2 + 5*c2 = 44"
    )


# -- the two paths agree as polynomials -----------------------------------------
#
# The kernels and the closed form are straight-line +, - and * over the records'
# fields, so they run unchanged on polynomials in the six inputs.  Two equal
# polynomials agree at every integer input, past 64 bits included: these tests
# prove what the Hypothesis tests above sample.

_VARIABLES = ("chi1", "c1sq1", "g1", "chi2", "c1sq2", "g2")


class Poly:
    """An integer polynomial in _VARIABLES: a dict from exponent tuples to int coefficients.

    It has +, - and * with another Poly or an int, and nothing else, so an
    int-only operation on it (//, %, <, bool(), hash()) fails loudly.
    """

    __slots__ = ("terms",)
    __hash__ = None

    def __init__(self, terms):
        self.terms = {mono: coeff for mono, coeff in terms.items() if coeff}

    @classmethod
    def variable(cls, name):
        return cls({tuple(int(v == name) for v in _VARIABLES): 1})

    @classmethod
    def of(cls, value):
        if isinstance(value, Poly):
            return value
        if type(value) is not int:
            raise TypeError(f"not an int or a Poly: {value!r}")
        return cls({(0,) * len(_VARIABLES): value})

    def __add__(self, other):
        terms = dict(self.terms)
        for mono, coeff in Poly.of(other).terms.items():
            terms[mono] = terms.get(mono, 0) + coeff
        return Poly(terms)

    def __mul__(self, other):
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in Poly.of(other).terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                terms[mono] = terms.get(mono, 0) + c1 * c2
        return Poly(terms)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -Poly.of(other)

    def __rsub__(self, other):
        return -self + other

    __radd__, __rmul__ = __add__, __mul__

    def __eq__(self, other):
        return self.terms == Poly.of(other).terms

    def __repr__(self):
        return " + ".join(f"{c}*{m}" for m, c in sorted(self.terms.items())) or "0"


chi1, c1sq1, g1, chi2, c1sq2, g2 = map(Poly.variable, _VARIABLES)
f1, f2 = 1 - g1, 1 - g2  # f = 1 - g = e(S)/2


def _poly_factors():
    """X1, X2, S1, S2 with polynomial fields, built by tuple.__new__ (the constructors compare)."""
    return (
        tuple.__new__(FourManifoldInvariants, (chi1, c1sq1)),
        tuple.__new__(FourManifoldInvariants, (chi2, c1sq2)),
        tuple.__new__(SurfaceInvariants, (g1,)),
        tuple.__new__(SurfaceInvariants, (g2,)),
    )


# The oracle's three parts as polynomials, each (c3, c1^3, c1c2), written out
# here: X x S has c3 = e(X)e(S), c1^3 = 3*c1^2(X)*e(S) and c1c2 = 12*chi_h(X)*e(S)
# with e(S) = 2f; S1 x S2 has c2 = 4*f1*f2 and c1^2 = 8*f1*f2, which Gompf's
# corrections turn into -(2*c2, 6*c1^2, 2*c1^2 + 2*c2).
PINNED_PARTS = (
    (2 * f2 * (12 * chi1 - c1sq1), 6 * f2 * c1sq1, 24 * f2 * chi1),
    (2 * f1 * (12 * chi2 - c1sq2), 6 * f1 * c1sq2, 24 * f1 * chi2),
    (-8 * f1 * f2, -48 * f1 * f2, -24 * f1 * f2),
)


def test_the_polynomial_type_is_exact():
    assert (chi1 + 2) * (chi1 - 2) == chi1 * chi1 - 4
    assert 3 - g1 * 0 == 3 and (chi1 - chi1) == 0
    assert 2 ** 70 * g2 - g2 * 2 ** 70 == 0
    assert f1 * f2 == 1 - g1 - g2 + g1 * g2
    for refused in (lambda: chi1 // 2, lambda: chi1 < 0, lambda: hash(chi1), lambda: chi1 * 1.0):
        with pytest.raises(TypeError):
            refused()


def test_each_part_is_its_pinned_polynomial():
    factors = _poly_factors()
    for part, pinned in zip(fibersum._fiber_sum_parts(), PINNED_PARTS):
        kernel = algebra.compile_kernel([part], *fibersum._LAYOUT)
        assert kernel(*factors) == pinned


def test_the_first_part_is_the_product_x1_times_s2():
    x1, _, _, s2 = _poly_factors()
    assert tuple(algebra.chern_numbers_of_product(x1, s2)) == PINNED_PARTS[0]


def test_the_oracle_is_its_parts_summed_and_the_closed_form():
    oracle = fibersum._fiber_sum_kernel()(*_poly_factors())
    assert oracle == tuple(map(sum, zip(*PINNED_PARTS)))
    b1 = tuple.__new__(LefschetzBlock, ("B1", _poly_factors()[0], g1, 0, False))
    b2 = tuple.__new__(LefschetzBlock, ("B2", _poly_factors()[1], g2, 0, False))
    closed = halic_construction(b1, b2, check=False)
    assert type(closed) is ChernTriple and closed == oracle
    # The closed form's own terms: A = c1c2/24 and B = c1^3/6.
    a = f2 * chi1 + f1 * chi2 - f1 * f2
    b = f2 * c1sq1 + f1 * c1sq2 - 8 * f1 * f2
    assert oracle == (24 * a - 2 * b, 6 * b, 24 * a)


# -- the per-genus surface cache of the oracle ----------------------------------


@given(g1=st.integers(0, 10**6), g2=st.integers(0, 10**6), chi=st.integers(-3, 8))
def test_cached_records_equal_uncached(g1, g2, chi):
    # The cache stores each genus's Euler number, the one invariant the kernels read.
    assert fibersum._surface(g1).euler == SurfaceInvariants(g1).euler
    x = cross_section_of_surfaces(g1, g2)
    assert (x.c1_sq, x.c2) == (2 * (2 - 2 * g1) * (2 - 2 * g2), (2 - 2 * g1) * (2 - 2 * g2))
    b1, b2 = _raw_block(chi, 3, g1), _raw_block(2, chi, g2)
    assert halic_construction_via_oracle(b1, b2, check=False) == halic_construction(
        b1, b2, check=False
    )


def test_cache_sizes_are_fixed():
    # The surface records are the module's one bounded cache; the kernels are
    # built once each (functools.cache, no bound) and nothing caches per genus pair.
    bounded = {
        name: obj.cache_info().maxsize
        for name, obj in vars(fibersum).items()
        if hasattr(obj, "cache_info") and obj.cache_info().maxsize is not None
    }
    assert bounded == {"_surface": fibersum._SURFACES_CACHED}
    assert type(fibersum._SURFACES_CACHED) is int and fibersum._SURFACES_CACHED > 0


def test_cross_section_stays_a_plain_function():
    # perfbench/tracing.py counts plain functions only.
    assert inspect.isfunction(fibersum.cross_section_of_surfaces)


def test_negative_genus_raises_and_is_not_cached():
    fibersum._surface.cache_clear()
    with pytest.raises(ValueError, match="genus must be non-negative"):
        cross_section_of_surfaces(-1, 0)
    negative = elliptic_surface(2)._replace(fiber_genus=-1)
    with pytest.raises(ValueError, match="genus and singular-fiber count must be non-negative"):
        halic_construction_via_oracle(negative, negative)
    with pytest.raises(ValueError, match="genus must be non-negative"):
        halic_construction_via_oracle(negative, negative, check=False)
    assert fibersum._surface.cache_info().currsize == 0
    # Beside a valid genus, only the valid one is kept.
    with pytest.raises(ValueError, match="genus must be non-negative"):
        cross_section_of_surfaces(0, -1)
    assert fibersum._surface.cache_info().currsize == 1


@settings(max_examples=200, deadline=None)
@given(
    chi1=st.integers(-3, 8), c1sq1=st.integers(-8, 16), g1=st.integers(0, 5),
    chi2=st.integers(-3, 8), c1sq2=st.integers(-8, 16), g2=st.integers(0, 5),
)
def test_oracle_equivalence_property(chi1, c1sq1, g1, chi2, c1sq2, g2):
    b1 = _raw_block(chi1, c1sq1, g1)
    b2 = _raw_block(chi2, c1sq2, g2)
    assert halic_construction(b1, b2, check=False) == halic_construction_via_oracle(
        b1, b2, check=False
    )


@given(
    chi1=st.integers(-5, 10), c1sq1=st.integers(-10, 20), g1=st.integers(0, 6),
    chi2=st.integers(-5, 10), c1sq2=st.integers(-10, 20), g2=st.integers(0, 6),
)
def test_symmetry(chi1, c1sq1, g1, chi2, c1sq2, g2):
    b1 = _raw_block(chi1, c1sq1, g1)
    b2 = _raw_block(chi2, c1sq2, g2)
    assert halic_construction(b1, b2, check=False) == halic_construction(
        b2, b1, check=False
    )


@given(chi1=st.integers(-5, 10), c1sq1=st.integers(-10, 20),
       chi2=st.integers(-5, 10), c1sq2=st.integers(-10, 20))
def test_torus_absorption(chi1, c1sq1, chi2, c1sq2):
    b1 = _raw_block(chi1, c1sq1, 1)
    b2 = _raw_block(chi2, c1sq2, 1)
    assert halic_construction(b1, b2, check=False) == ChernTriple(0, 0, 0)


@given(
    chi1=st.integers(-5, 10), c1sq1=st.integers(-10, 20), g1=st.integers(0, 6),
    chi2=st.integers(-5, 10), c1sq2=st.integers(-10, 20), g2=st.integers(0, 6),
)
def test_c1_cubed_divisible_by_six(chi1, c1sq1, g1, chi2, c1sq2, g2):
    t = halic_construction(_raw_block(chi1, c1sq1, g1), _raw_block(chi2, c1sq2, g2),
                           check=False)
    assert t.c1_cubed % 6 == 0


def test_triple_json_roundtrip():
    t = ChernTriple(24, 0, 24)
    assert t._asdict() == {"c3": 24, "c1_cubed": 0, "c1c2": 24}


# -- validation on the per-pair path ---------------------------------------------


def _count_validations(monkeypatch):
    """Record the name of every block ``validate_block`` sees, called as require_valid calls it."""
    seen = []
    real = invariants.validate_block
    monkeypatch.setattr(
        invariants, "validate_block", lambda block: seen.append(block.name) or real(block)
    )
    return seen


CONSTRUCTIONS = [halic_construction, halic_construction_via_oracle]


@pytest.mark.parametrize("construct", CONSTRUCTIONS, ids=lambda f: f.__name__)
def test_a_checked_construction_validates_both_blocks_once(monkeypatch, construct):
    b1, b2 = elliptic_surface(2), knot_surgered_elliptic(3, 1)
    seen = _count_validations(monkeypatch)
    construct(b1, b2)
    assert seen == [b1.name, b2.name]
    construct(b1, b2, check=False)
    assert seen == [b1.name, b2.name]  # check=False validates nothing


def test_one_audited_pair_validates_four_blocks(monkeypatch):
    # What one oracle-check pair runs: two checked constructions, two blocks each.
    b1, b2 = elliptic_surface(2), ruled_spheres()
    seen = _count_validations(monkeypatch)
    assert halic_construction(b1, b2) == halic_construction_via_oracle(b1, b2)
    assert seen == [b1.name, b2.name] * 2


@pytest.mark.parametrize("construct", CONSTRUCTIONS, ids=lambda f: f.__name__)
def test_a_construction_names_its_first_invalid_block(monkeypatch, construct):
    bad1, bad2 = (
        elliptic_surface(m)._replace(name=f"bad{m}", singular_fibers=1) for m in (1, 2)
    )
    good = ruled_spheres()
    seen = _count_validations(monkeypatch)
    with pytest.raises(BlockValidationError, match="^invalid block 'bad1': ") as info:
        construct(bad1, bad2)
    assert info.value.block_name == "bad1" and seen == ["bad1"]
    seen.clear()
    with pytest.raises(BlockValidationError, match="^invalid block 'bad2': ") as info:
        construct(good, bad2)
    assert info.value.block_name == "bad2" and seen == ["S2xS2", "bad2"]
