import itertools
import os
import re
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from cherngeo import algebra
from cherngeo.algebra import (
    ClassGenerator,
    DimensionMismatchError,
    GradedClassExpression,
    c1,
    c2,
    chern_numbers_of_product,
    compile_kernel,
    one,
    total_chern_of_product,
)
from cherngeo.invariants import (
    ChernTriple,
    FourManifoldInvariants,
    SurfaceInvariants,
)


def _kernel(exprs, four_manifolds=(), surfaces=()):
    """The one-part kernel: ``exprs`` evaluated on the product of the whole layout."""
    return compile_kernel([(exprs, four_manifolds, surfaces)], four_manifolds, surfaces)


def _on_xs(expr, chi_h, c1_sq, genus):
    """The value of ``expr`` on X x S, X of (chi_h, c1^2) and S of the genus."""
    kernel = _kernel([expr], ("X",), ("S",))
    return kernel(FourManifoldInvariants(chi_h, c1_sq), SurfaceInvariants(genus))[0]


def _on_ss(expr, g1, g2):
    """The value of ``expr`` on S1 x S2."""
    kernel = _kernel([expr], surfaces=("S1", "S2"))
    return kernel(SurfaceInvariants(g1), SurfaceInvariants(g2))[0]


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


def test_negative_power_raises():
    with pytest.raises(ValueError, match="^negative powers are not defined$"):
        c1("X") ** -1


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
    assert repr(expr) == "GradedClassExpression({})"
    x, s = ClassGenerator("X", "c1"), ClassGenerator("S", "c1")
    # unsorted duplicates of one monomial that cancel once sorted
    assert GradedClassExpression({(x, s): 1, (s, x): -1}).terms == {}


def test_rendering_deterministic():
    a = 3 * (c1("X") ** 2 * c1("S")) + c2("X")
    b = c2("X") + 3 * (c1("S") * c1("X") * c1("X"))
    assert repr(a) == repr(b)
    # the two sums hold their terms in different dict orders
    assert repr(c1("X") + c1("S")) == repr(c1("S") + c1("X"))


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


@given(e=expressions())
def test_repr_evaluates_to_an_equal_expression(e):
    assert eval(repr(e), vars(algebra)) == e


@given(a=expressions(), b=expressions())
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(a=expressions(), b=expressions(), c=expressions())
def test_multiplication_distributes(a, b, c):
    assert (a + b) * c == a * c + b * c


@given(a=expressions(), b=expressions())
def test_grading_of_products(a, b):
    if len(a.degrees()) == 1 == len(b.degrees()):
        (da,) = a.degrees()
        (db,) = b.degrees()
        product = a * b
        if product.terms:
            assert product.degrees() == {da + db}


# -- evaluation --------------------------------------------------------------


def test_evaluate_vanishing_monomials():
    assert _on_xs(c1("X") ** 3, 1, 8, 0) == 0  # X-part exceeds dim X
    assert _on_xs(c1("X") * c1("S") ** 2, 1, 8, 0) == 0  # c1(S)^2 of one surface


def test_evaluate_surface_product():
    assert _on_ss(c1("S1") * c1("S2"), 0, 0) == 4
    assert _on_ss(c1("S1") * c1("S2"), 0, 2) == -4
    assert _on_ss(c1("S1") ** 2, 0, 0) == 0


def test_evaluate_top_classes():
    assert _on_xs(c1("X") ** 2 * c1("S"), 1, 8, 3) == 8 * (2 - 6)
    assert _on_xs(c2("X") * c1("S"), 1, 8, 3) == 4 * (2 - 6)


def test_evaluate_cube_on_sphere_triple():
    # X = S^2 x S^2, S = S^2: brute-force expansion gives 3 * c1^2(X) * 2 = 48
    assert _on_xs((c1("X") + c1("S")) ** 3, 1, 8, 0) == 48


def test_evaluate_rejects_wrong_degree():
    with pytest.raises(DimensionMismatchError):
        _kernel([c1("X")], ("X",), ("S",))
    with pytest.raises(DimensionMismatchError):  # non-homogeneous
        _kernel([c1("X") + c1("X") ** 2 * c1("S")], ("X",), ("S",))


def test_evaluate_rejects_unknown_factor():
    with pytest.raises(DimensionMismatchError):
        _kernel([c1("S1") * c1("Z")], surfaces=("S1", "S2"))


def test_evaluate_rejects_mixed_four_manifold_monomials():
    with pytest.raises(DimensionMismatchError):
        _kernel([c1("X1") ** 2 * c1("X2") ** 2], ("X1", "X2"))


@pytest.mark.parametrize(
    "expr, four_manifolds, surfaces, repeated",
    [
        # a factor that is both a 4-manifold and a surface: unchecked, its kernel reads 0
        (c2("X") * c1("S") * c1("X"), ("X",), ("S", "X"), ["X"]),
        (c1("X") ** 2 * c1("S"), ("X",), ("S", "X"), ["X"]),
        (c1("X") ** 4, ("X", "X"), (), ["X"]),
        (c1("S") * c1("T"), (), ("S", "T", "S"), ["S"]),
        (c1("X") ** 2 * c1("S") ** 2, ("X", "X"), ("S", "S"), ["S", "X"]),
    ],
)
def test_compile_rejects_repeated_factor_names(expr, four_manifolds, surfaces, repeated):
    message = f"factor names repeated in the layout: {repeated}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _kernel([expr], four_manifolds, surfaces)


# -- product Chern numbers ---------------------------------------------------


def test_product_chern_numbers_examples():
    k3 = FourManifoldInvariants(2, 0)
    assert chern_numbers_of_product(k3, SurfaceInvariants(1))._asdict() == {
        "c3": 0, "c1_cubed": 0, "c1c2": 0,
    }
    spheres = FourManifoldInvariants(1, 8)
    t = chern_numbers_of_product(spheres, SurfaceInvariants(0))
    assert (t.c3, t.c1_cubed, t.c1c2) == (8, 48, 24)
    for m in (1, 2, 5):
        t = chern_numbers_of_product(FourManifoldInvariants(m, 0), SurfaceInvariants(0))
        assert (t.c3, t.c1_cubed, t.c1c2) == (24 * m, 0, 24 * m)


@pytest.mark.parametrize("g", range(6))
@pytest.mark.parametrize("chi_h", range(-2, 5))
@pytest.mark.parametrize("c1_sq", range(-6, 10, 3))
def test_product_matches_closed_forms(g, chi_h, c1_sq):
    # independent closed forms, used only here as the check against the
    # symbolic path: c3 = e*(2-2g), c1^3 = 3*(2-2g)*c1^2, c1c2 = (2-2g)*(c1^2+e)
    inv = FourManifoldInvariants(chi_h, c1_sq)
    t = chern_numbers_of_product(inv, SurfaceInvariants(g))
    f = 2 - 2 * g
    assert t.c3 == inv.euler * f
    assert t.c1_cubed == 3 * f * inv.c1_sq
    assert t.c1c2 == f * (inv.c1_sq + inv.euler)


# -- compiled kernels against the per-monomial reference --------------------


def _reference_monomial(mono, four_manifolds, surfaces):
    """Slow reference: pair one monomial with the product, factor by factor.

    ``four_manifolds`` and ``surfaces`` map factor names to invariant records.
    """
    by_source = {}
    for gen in mono:
        by_source.setdefault(gen.source, []).append(gen)

    for source in by_source:
        if source not in four_manifolds and source not in surfaces:
            raise DimensionMismatchError(
                f"generator factor {source!r} is not part of the ambient product"
            )
    touched = [s for s in by_source if s in four_manifolds]
    if len(touched) > 1:
        raise DimensionMismatchError(
            "monomials mixing two 4-manifold factors are not supported"
        )

    value = 1
    for name, inv in four_manifolds.items():
        part = by_source.get(name, [])
        if sum(g.degree for g in part) != 4:
            return 0  # part misses or exceeds the factor's top degree
        kinds = sorted(g.kind for g in part)
        if kinds == ["c1", "c1"]:
            value *= inv.c1_sq
        else:  # ["c2"]
            value *= inv.c2
    for name, surf in surfaces.items():
        part = by_source.get(name, [])
        if sum(g.degree for g in part) != 2:
            return 0  # c1(S)^2 and higher vanish, as does an absent factor
        value *= surf.euler
    return value


def _reference_evaluate(expr, four_manifolds, surfaces):
    dim = 4 * len(four_manifolds) + 2 * len(surfaces)
    wrong = {d for d in expr.degrees() if d != dim}
    if wrong:
        raise DimensionMismatchError(f"expression has degree(s) {sorted(wrong)}")
    return sum(
        coeff * _reference_monomial(mono, four_manifolds, surfaces)
        for mono, coeff in expr.terms.items()
    )


_SURFACES = ("S1", "S2")


def _top_monomials(n_surfaces):
    """Every monomial of top degree on X x S1 x ... ; most of them vanish."""
    gens = [ClassGenerator("X", "c1"), ClassGenerator("X", "c2")]
    gens += [ClassGenerator(s, "c1") for s in _SURFACES[:n_surfaces]]
    dim = 4 + 2 * n_surfaces
    return [
        mono
        for length in range(1, dim // 2 + 1)
        for mono in itertools.combinations_with_replacement(gens, length)
        if sum(g.degree for g in mono) == dim
    ]


_TOP_MONOMIALS = [_top_monomials(n) for n in range(3)]

# A 4-manifold record whose c1^2 and c2 are independent fields: kernels read
# both by attribute name, so they are checked on values off Noether's formula.
_FreeFourManifold = namedtuple("_FreeFourManifold", "c1_sq c2")


@st.composite
def top_degree_cases(draw):
    """A random top-degree expression and random invariants of X and 0-2 surfaces."""
    n = draw(st.integers(0, 2))
    terms = draw(
        st.dictionaries(st.sampled_from(_TOP_MONOMIALS[n]), st.integers(-50, 50), max_size=8)
    )
    # independent values, so that a kernel reading the wrong field shows
    x = _FreeFourManifold(draw(st.integers(-99, 99)), draw(st.integers(-99, 99)))
    surfaces = {s: SurfaceInvariants(draw(st.integers(0, 9))) for s in _SURFACES[:n]}
    return GradedClassExpression(terms), {"X": x}, surfaces


_VANISHING = (c1("X") ** 3 + 5 * (c2("X") * c1("X")) - c1("S1") ** 3
              + 7 * (c1("X") * c1("S1") ** 2))


@given(case=top_degree_cases())
@example(case=(_VANISHING, {"X": FourManifoldInvariants(2, 3)}, {"S1": SurfaceInvariants(0)}))
def test_compiled_evaluation_matches_reference(case):
    expr, four_manifolds, surfaces = case
    kernel = _kernel([expr], four_manifolds, surfaces)
    assert kernel(*four_manifolds.values(), *surfaces.values()) == (
        _reference_evaluate(expr, four_manifolds, surfaces),
    )


# Factor names that are not identifiers, are keywords, or are the kernel's own
# parameter, local and result names: none of them may reach a kernel's source.
_AWKWARD_NAMES = ("S 1", "def", "x.y", "f0", "f1", "v0", "r0", "kernel", "__builtins__")


def _renamed(expr, names):
    return GradedClassExpression(
        {tuple(ClassGenerator(names[g.source], g.kind) for g in mono): coeff
         for mono, coeff in expr.terms.items()}
    )


@st.composite
def renamed_top_degree_cases(draw):
    """A case of ``top_degree_cases`` with its factors given arbitrary distinct names."""
    expr, four_manifolds, surfaces = draw(top_degree_cases())
    old = [*four_manifolds, *surfaces]
    new = draw(st.lists(st.sampled_from(_AWKWARD_NAMES) | st.text(max_size=3),
                        min_size=len(old), max_size=len(old), unique=True))
    names = dict(zip(old, new))
    return (
        _renamed(expr, names),
        {names[k]: v for k, v in four_manifolds.items()},
        {names[k]: v for k, v in surfaces.items()},
    )


_X = FourManifoldInvariants(3, 5)
_S = SurfaceInvariants(2)


@given(case=renamed_top_degree_cases())
@example(case=(_VANISHING, {"X": _X}, {"S1": _S}))  # every monomial vanishes: the kernel gives 0
@example(case=(-7 * (c2("X") * c1("S1")), {"X": _X}, {"S1": _S}))  # a one-term expression
@example(case=(_renamed(c1("X") ** 2 * c1("S1") * c1("S2") - c2("X") * c1("S1") * c1("S2"),
                        {"X": "def", "S1": "S 1", "S2": "x.y"}),
               {"def": _X}, {"S 1": _S, "x.y": SurfaceInvariants(0)}))
@example(case=(_renamed(5 * (c2("X") * c1("S1")) + c1("X") ** 2 * c1("S1"), {"X": "v0", "S1": "f0"}),
               {"v0": _X}, {"f0": _S}))
def test_kernel_matches_reference(case):
    expr, four_manifolds, surfaces = case
    expected = _reference_evaluate(expr, four_manifolds, surfaces)
    records = (*four_manifolds.values(), *surfaces.values())
    assert _kernel([expr], four_manifolds, surfaces)(*records) == (expected,)
    # one fused kernel over several expressions of the layout gives each one's value
    kernel = _kernel([expr, 2 * expr, expr], four_manifolds, surfaces)
    assert kernel(*records) == (expected, 2 * expected, expected)


def test_kernel_sums_long_plans_and_long_coefficients():
    x = FourManifoldInvariants(2, 3)
    many = _kernel([k * c2("X") for k in range(1, 3001)], ("X",))
    assert many(x) == tuple(k * x.c2 for k in range(1, 3001))
    huge = -(10 ** 5000) + 1
    assert _kernel([huge * c1("X") ** 2], ("X",))(x) == (huge * x.c1_sq,)
    assert _kernel([4 * one()])() == (4,)
    assert _kernel([])() == ()
    assert compile_kernel([])() == ()  # no parts: no sums


def test_compile_kernel_rejects_what_it_cannot_write():
    half = GradedClassExpression({(ClassGenerator("X", "c2"),): 0.5})
    with pytest.raises(TypeError, match="^coefficients must be int, got 0.5$"):
        _kernel([half], ("X",))


# -- kernels over several sub-products of one layout --------------------------

_LAYOUT = ("X1", "X2"), ("S1", "S2")
# Every sub-product a part may sit on, surfaces in either order; at most one
# 4-manifold, since a monomial may not touch two.
_SUB_PRODUCTS = [
    (four_manifolds, surfaces)
    for four_manifolds in ((), ("X1",), ("X2",))
    for surfaces in ((), ("S1",), ("S2",), ("S1", "S2"), ("S2", "S1"))
]
# small values, and values past 64 bits, which kernels write as hex literals
_BIG = st.integers(-50, 50) | st.integers(-(2 ** 80), 2 ** 80)


def _sub_product_monomials(four_manifolds, surfaces):
    """Every monomial of top degree on the sub-product; most of them vanish."""
    gens = [ClassGenerator(x, kind) for x in four_manifolds for kind in ("c1", "c2")]
    gens += [ClassGenerator(s, "c1") for s in surfaces]
    dim = 4 * len(four_manifolds) + 2 * len(surfaces)
    return [
        mono
        for length in range(dim // 2 + 1)
        for mono in itertools.combinations_with_replacement(gens, length)
        if sum(g.degree for g in mono) == dim
    ]


@st.composite
def part_cases(draw):
    """1-4 parts on random sub-products of (X1, X2, S1, S2), and records of the four factors."""
    width = draw(st.integers(0, 3))
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        four_manifolds, surfaces = draw(st.sampled_from(_SUB_PRODUCTS))
        monomials = st.sampled_from(_sub_product_monomials(four_manifolds, surfaces))
        exprs = [
            GradedClassExpression(draw(st.dictionaries(monomials, _BIG, max_size=6)))
            for _ in range(width)
        ]
        parts.append((exprs, four_manifolds, surfaces))
    records = {x: _FreeFourManifold(draw(_BIG), draw(_BIG)) for x in _LAYOUT[0]}
    records.update(
        (s, SurfaceInvariants(draw(st.integers(0, 9) | st.integers(0, 2 ** 70))))
        for s in _LAYOUT[1]
    )
    return width, parts, records


@given(case=part_cases())
@example(case=(1, [([c2("X1") * c1("S1")], ("X1",), ("S1",)),  # like products that cancel
                   ([-1 * c2("X1") * c1("S1")], ("X1",), ("S1",))],
               {"X1": _X, "X2": _X, "S1": _S, "S2": _S}))
def test_parts_sum_their_sub_products(case):
    width, parts, records = case
    expected = [0] * width
    for exprs, four_manifolds, surfaces in parts:
        on = {x: records[x] for x in four_manifolds}, {s: records[s] for s in surfaces}
        for j, expr in enumerate(exprs):
            expected[j] += _reference_evaluate(expr, *on)
    assert compile_kernel(parts, *_LAYOUT)(*records.values()) == tuple(expected)


@pytest.mark.parametrize(
    "parts, message",
    [
        ([([c2("X1")], ("X1", "X1"), ())], "factor names repeated in a part: ['X1']"),
        ([([c1("S1") * c1("S3")], (), ("S1", "S3"))],
         "part factors ['S3'] are not surfaces of the layout"),
        ([([c2("S1")], ("S1",), ())], "part factors ['S1'] are not 4-manifolds of the layout"),
        ([([c2("X1")], ("X1",), ()), ([c2("X2"), c2("X2")], ("X2",), ())],
         "parts must have equal numbers of expressions, got 1 and 2"),
    ],
)
def test_compile_kernel_rejects_malformed_parts(parts, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        compile_kernel(parts, *_LAYOUT)


def test_each_part_is_checked_on_its_own_sub_product():
    with pytest.raises(DimensionMismatchError, match="ambient dimension is 4$"):
        compile_kernel([([c1("X1") ** 2 * c1("S1")], ("X1",), ())], *_LAYOUT)
    with pytest.raises(DimensionMismatchError, match="'S2' is not part of the ambient product"):
        compile_kernel([([c1("X1") ** 2 * c1("S2")], ("X1",), ("S1",))], *_LAYOUT)


def _reference_product(x, s):
    total = total_chern_of_product("X", "S")
    first, second = total.graded_part(2), total.graded_part(4)
    factors = {"X": x}, {"S": s}
    return ChernTriple(
        _reference_evaluate(total.graded_part(6), *factors),
        _reference_evaluate(first ** 3, *factors),
        _reference_evaluate(first * second, *factors),
    )


def test_cached_product_kernel_serves_each_record():
    a = (FourManifoldInvariants(2, 0), SurfaceInvariants(0))
    b = (FourManifoldInvariants(1, 8), SurfaceInvariants(3))
    first = chern_numbers_of_product(*a)
    second = chern_numbers_of_product(*b)
    again = chern_numbers_of_product(*a)
    assert first == again == _reference_product(*a)
    assert second == _reference_product(*b)
    assert first != second


def test_importing_the_cli_builds_no_plan():
    code = (
        "import cherngeo.cli\n"
        "from cherngeo import algebra, fibersum\n"
        "print(algebra._product_kernel.cache_info().currsize,"
        " fibersum._cross_section_kernel.cache_info().currsize,"
        " fibersum._fiber_sum_kernel.cache_info().currsize)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.split() == ["0", "0", "0"]
