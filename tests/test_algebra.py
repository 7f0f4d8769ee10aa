import pytest
from hypothesis import given, strategies as st

from cherngeo.algebra import (
    ClassGenerator,
    DimensionMismatchError,
    EvaluationContext,
    GradedClassExpression,
    c1,
    c2,
    chern_numbers_of_product,
    evaluate,
    one,
    total_chern_of_product,
)
from cherngeo.invariants import SurfaceInvariants, complete_invariants


def _ctx_xs(chi_h, c1_sq, genus):
    return EvaluationContext(
        four_manifolds={"X": complete_invariants(chi_h, c1_sq)},
        surfaces={"S": SurfaceInvariants(genus)},
    )


def _ctx_ss(g1, g2):
    return EvaluationContext(
        surfaces={"S1": SurfaceInvariants(g1), "S2": SurfaceInvariants(g2)}
    )


def test_generator_degrees():
    assert ClassGenerator("X", "c1").degree == 2
    assert ClassGenerator("X", "c2").degree == 4
    with pytest.raises(ValueError):
        ClassGenerator("X", "c3")


def test_total_chern_graded_parts():
    total = total_chern_of_product("X", "S")
    assert total.graded_part(0) == one()
    assert total.graded_part(2) == c1("X") + c1("S")
    assert total.graded_part(4) == c2("X") + c1("X") * c1("S")
    assert total.graded_part(6) == c2("X") * c1("S")


def test_cube_expansion():
    cube = (c1("X") + c1("S")) ** 3
    expected = (
        c1("X") ** 3
        + 3 * (c1("X") ** 2 * c1("S"))
        + 3 * (c1("X") * c1("S") ** 2)
        + c1("S") ** 3
    )
    assert cube == expected


def test_square_of_surface_sum():
    sq = (c1("S1") + c1("S2")) ** 2
    expected = c1("S1") ** 2 + 2 * (c1("S1") * c1("S2")) + c1("S2") ** 2
    assert sq == expected


def test_unit_is_identity():
    e = 3 * (c1("X") * c2("X")) - c1("S")
    assert one() * e == e
    assert e * one() == e


def test_canonical_form_drops_zeros():
    expr = c1("X") - c1("X")
    assert expr.terms == {}
    assert str(expr) == "0"


def test_rendering_deterministic():
    a = 3 * (c1("X") ** 2 * c1("S")) + c2("X")
    b = c2("X") + 3 * (c1("S") * c1("X") * c1("X"))
    assert str(a) == str(b)
    assert "c1(X)^2" in str(a)


_GENS = [ClassGenerator("X", "c1"), ClassGenerator("X", "c2"),
         ClassGenerator("S1", "c1"), ClassGenerator("S2", "c1")]


@st.composite
def expressions(draw):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n_terms):
        mono = tuple(sorted(draw(st.lists(st.sampled_from(_GENS), max_size=3))))
        terms[mono] = draw(st.integers(min_value=-9, max_value=9))
    return GradedClassExpression(terms)


@given(a=expressions(), b=expressions())
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(a=expressions(), b=expressions(), c=expressions())
def test_multiplication_distributes(a, b, c):
    assert (a + b) * c == a * c + b * c


@given(a=expressions(), b=expressions())
def test_grading_of_products(a, b):
    if a.is_homogeneous() and b.is_homogeneous() and a.terms and b.terms:
        (da,) = a.degrees()
        (db,) = b.degrees()
        product = a * b
        if product.terms:
            assert product.degrees() == {da + db}


# -- evaluation --------------------------------------------------------------


def test_evaluate_vanishing_monomials():
    ctx = _ctx_xs(1, 8, 0)
    assert evaluate(c1("X") ** 3, ctx) == 0  # X-part exceeds dim X
    assert evaluate(c1("X") * c1("S") ** 2, ctx) == 0  # c1(S)^2 of one surface


def test_evaluate_surface_product():
    assert evaluate(c1("S1") * c1("S2"), _ctx_ss(0, 0)) == 4
    assert evaluate(c1("S1") * c1("S2"), _ctx_ss(0, 2)) == -4
    assert evaluate(c1("S1") ** 2, _ctx_ss(0, 0)) == 0


def test_evaluate_top_classes():
    ctx = _ctx_xs(1, 8, 3)
    assert evaluate(c1("X") ** 2 * c1("S"), ctx) == 8 * (2 - 6)
    assert evaluate(c2("X") * c1("S"), ctx) == 4 * (2 - 6)


def test_evaluate_cube_on_sphere_triple():
    # X = S^2 x S^2, S = S^2: brute-force expansion gives 3 * c1^2(X) * 2 = 48
    ctx = _ctx_xs(1, 8, 0)
    assert evaluate((c1("X") + c1("S")) ** 3, ctx) == 48


def test_evaluate_rejects_wrong_degree():
    ctx = _ctx_xs(1, 8, 0)
    with pytest.raises(DimensionMismatchError):
        evaluate(c1("X"), ctx)
    with pytest.raises(DimensionMismatchError):
        evaluate(c1("X") + c1("X") ** 2 * c1("S"), ctx)  # non-homogeneous


def test_evaluate_rejects_unknown_factor():
    with pytest.raises(DimensionMismatchError):
        evaluate(c1("S1") * c1("Z"), _ctx_ss(0, 0))


def test_evaluate_rejects_mixed_four_manifold_monomials():
    ctx = EvaluationContext(
        four_manifolds={
            "X1": complete_invariants(1, 0),
            "X2": complete_invariants(1, 8),
        }
    )
    with pytest.raises(DimensionMismatchError):
        evaluate(c1("X1") ** 2 * c1("X2") ** 2, ctx)


# -- product Chern numbers ---------------------------------------------------


def test_product_chern_numbers_examples():
    k3 = complete_invariants(2, 0)
    assert chern_numbers_of_product(k3, SurfaceInvariants(1)).to_json() == {
        "c3": 0, "c1_cubed": 0, "c1c2": 0,
    }
    spheres = complete_invariants(1, 8)
    t = chern_numbers_of_product(spheres, SurfaceInvariants(0))
    assert (t.c3, t.c1_cubed, t.c1c2) == (8, 48, 24)
    for m in (1, 2, 5):
        t = chern_numbers_of_product(complete_invariants(m, 0), SurfaceInvariants(0))
        assert (t.c3, t.c1_cubed, t.c1c2) == (24 * m, 0, 24 * m)


@pytest.mark.parametrize("g", range(6))
@pytest.mark.parametrize("chi_h", range(-2, 5))
@pytest.mark.parametrize("c1_sq", range(-6, 10, 3))
def test_product_matches_closed_forms(g, chi_h, c1_sq):
    # independent closed forms, used only here as the check against the
    # symbolic path: c3 = e*(2-2g), c1^3 = 3*(2-2g)*c1^2, c1c2 = (2-2g)*(c1^2+e)
    inv = complete_invariants(chi_h, c1_sq)
    t = chern_numbers_of_product(inv, SurfaceInvariants(g))
    f = 2 - 2 * g
    assert t.c3 == inv.euler * f
    assert t.c1_cubed == 3 * f * inv.c1_sq
    assert t.c1c2 == f * (inv.c1_sq + inv.euler)
