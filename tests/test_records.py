"""The value records: immutable named tuples whose constructors keep their checks.

Every record of the package is a ``collections.namedtuple`` subclass with
``__slots__ = ()``.  These tests pin what the records promise: no field can
be assigned, each construction check raises the same ValueError from the
positional and from the keyword constructor, ``SearchBounds`` defaults and
normalises its families, generators sort by (source, kind), and importing
the CLI loads neither ``dataclasses`` nor ``inspect``.  The records the
per-pair path builds by ``tuple.__new__`` are the records their
constructors make, and importing the invariants or the plot loads no
``functools``.  The plot and the plane classifier load neither the fiber
sum nor the catalog, though ``geography.SearchBounds`` still names the
catalog's class.  Each subcommand, run in a fresh interpreter, loads only the
package modules it uses, and the human formats load no ``json``; the
closed form loads no ``algebra``, which only the oracle's first call loads,
so no annotation names it: every function's type hints resolve.
"""

import importlib
import inspect
import itertools
import os
import pkgutil
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import cherngeo
from cherngeo.algebra import ClassGenerator
from cherngeo.catalog import FAMILIES, GenericGrid, SearchBounds, elliptic_surface
from cherngeo.fibersum import halic_construction, halic_construction_via_oracle
from cherngeo.geography import (
    DivisibilityReport,
    GeographyClassification,
    Realization,
    classify_geography_point,
    halic_divisibility_check,
)
from cherngeo.invariants import (
    ChernTriple,
    FourManifoldInvariants,
    LefschetzBlock,
    SurfaceInvariants,
)

E2 = elliptic_surface(2)
GRID = GenericGrid((0, 1), (0, 1), (0, 1))

RECORDS = [
    FourManifoldInvariants(1, 0),
    SurfaceInvariants(2),
    E2,
    ChernTriple(24, 0, 24),
    ClassGenerator("X", "c1"),
    DivisibilityReport(True, True, False),
    GRID,
    SearchBounds(generic=GRID),
    Realization(E2, E2, ChernTriple(0, 0, 0)),
    classify_geography_point(2, 0),
]


def test_every_record_type_is_listed():
    types = {type(r) for r in RECORDS}
    assert types == {
        FourManifoldInvariants, SurfaceInvariants, LefschetzBlock, ChernTriple,
        ClassGenerator, DivisibilityReport,
        GenericGrid, SearchBounds, Realization, GeographyClassification,
    }


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1  # __slots__ = (): no instance dict


# (type, positional arguments, the ValueError's message), each message as the
# record classes have always raised it.
CHECKS = [
    (SurfaceInvariants, (-1,), "genus must be non-negative, got -1"),
    (LefschetzBlock, ("B", E2.invariants, -1, 0, True), "fiber genus must be non-negative, got -1"),
    (
        LefschetzBlock,
        ("B", E2.invariants, 1, -2, True),
        "singular-fiber count must be non-negative, got -2",
    ),
    (ClassGenerator, ("X", "c3"), "kind must be 'c1' or 'c2', got 'c3'"),
    (
        SearchBounds,
        ((1,),),
        "unknown block family 1 (known: elliptic, ruled-spheres, "
        "knot-surgered-elliptic, knot-elliptic)",
    ),
    (GenericGrid, ((1, 0), (0, 1), (0, 1)), "generic grid range 'chi_h' is empty: 1 > 0"),
    (GenericGrid, ((0, 1), (2, 1), (0, 1)), "generic grid range 'c1_sq' is empty: 2 > 1"),
    (GenericGrid, ((0, 1), (0, 1), (5, 3)), "generic grid range 'genus' is empty: 5 > 3"),
    (SearchBounds, ("elliptic",), "families must be a list of family names, got 'elliptic'"),
    (
        SearchBounds,
        (("eliptic",),),
        "unknown block family 'eliptic' (known: elliptic, ruled-spheres, "
        "knot-surgered-elliptic, knot-elliptic)",
    ),
    (SearchBounds, ((), -1), "'max_m' must be non-negative, got -1"),
    (SearchBounds, ((), 5, -2), "'max_k' must be non-negative, got -2"),
    (SearchBounds, ((), 5, 5, -3), "'max_knot_genus' must be non-negative, got -3"),
]


@pytest.mark.parametrize("kind, args, message", CHECKS)
def test_construction_checks_raise_from_both_constructors(kind, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        kind(*args)
    keywords = dict(zip(kind._fields, args))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        kind(**keywords)


def test_constructors_take_positional_and_keyword_arguments():
    for record in RECORDS:
        kind = type(record)
        assert kind(*record) == record
        assert kind(**record._asdict()) == record


def test_search_bounds_defaults_and_family_names():
    assert SearchBounds().families == tuple(FAMILIES)
    assert SearchBounds() == SearchBounds(tuple(FAMILIES), 5, 5, 4, None)
    assert SearchBounds.from_json({}) == SearchBounds()
    assert SearchBounds(families=["knot-elliptic"]).families == ("knot-surgered-elliptic",)
    assert SearchBounds(["knot-elliptic", "elliptic"]).families == (
        "knot-surgered-elliptic",
        "elliptic",
    )


generators = st.builds(
    ClassGenerator, st.sampled_from(["S", "S1", "S2", "X", "Y"]), st.sampled_from(["c1", "c2"])
)


@given(st.lists(generators, max_size=12))
def test_generators_sort_by_source_then_kind(gens):
    assert sorted(gens) == sorted(gens, key=lambda g: (g.source, g.kind))


# Invariants past 64 bits as well as small ones, negative included.
_INVARIANT = st.integers(-60, 60) | st.integers(-(2 ** 80), 2 ** 80)
_GENUS = st.integers(0, 8) | st.integers(0, 2 ** 70)
_BLOCK = st.builds(
    lambda chi_h, c1_sq, genus: LefschetzBlock(
        "B", FourManifoldInvariants(chi_h, c1_sq), genus, 0, False
    ),
    _INVARIANT,
    _INVARIANT,
    _GENUS,
)


def _assert_same_record(built, kind):
    """``built``, made by tuple.__new__, is the record ``kind(*built)`` makes."""
    made = kind(*built)
    assert type(built) is kind
    assert built == made and hash(built) == hash(made) and repr(built) == repr(made)
    assert built._asdict() == made._asdict()


@given(_BLOCK, _BLOCK)
def test_records_built_in_c_are_the_real_records(b1, b2):
    for construct in (halic_construction, halic_construction_via_oracle):
        triple = construct(b1, b2, check=False)
        _assert_same_record(triple, ChernTriple)
        assert triple._asdict() == ChernTriple(*triple)._asdict()
        assert all(type(n) is int for n in triple)
        report = halic_divisibility_check(triple)
        _assert_same_record(report, DivisibilityReport)
        assert all(type(flag) is bool for flag in report)


@pytest.mark.parametrize("flags", list(itertools.product((False, True), repeat=3)))
def test_all_pass_is_a_bool(flags):
    assert DivisibilityReport(*flags).all_pass is all(flags)
    c3, c1_cubed, c1c2 = (0 if flag else 1 for flag in flags)  # 0 passes, 1 fails every check
    report = halic_divisibility_check(ChernTriple(c3, c1_cubed, c1c2))
    assert report == flags and report.all_pass is all(flags)


def _fresh_interpreter(statements: str) -> str:
    """What a fresh interpreter prints while running ``statements`` (``sys`` imported)."""
    # -S keeps site-packages hooks from importing modules before cherngeo does.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-S", "-c", f"import sys\n{statements}"],
        capture_output=True, text=True, env=env, check=True,
    )
    return result.stdout


def _loaded_in_fresh_interpreter(statements: str, modules: tuple[str, ...]) -> list[str]:
    """Which of ``modules`` a fresh interpreter holds after running ``statements``."""
    code = f"{statements}\nprint(*[m for m in {modules!r} if m in sys.modules])\n"
    return _fresh_interpreter(code).split()


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    assert _loaded_in_fresh_interpreter("import cherngeo.cli", ("dataclasses", "inspect")) == []


def _run_cli(argv: list[str]) -> str:
    """Statements that run ``cli.main(argv)`` with its stdout discarded."""
    return (
        "import os\n"
        "from cherngeo import cli\n"
        "sys.stdout = open(os.devnull, 'w')\n"
        f"code = cli.main({argv!r})\n"
        "sys.stdout = sys.__stdout__\n"
        "assert code == 0, code\n"
    )


# The layers a block or catalog command never runs; the last two are the fiber sum's.
LAYERS = tuple(f"cherngeo.{m}" for m in ("geography", "plot", "algebra", "fibersum"))
BLOCK = ["block", "elliptic", "--m", "2"]
CLASSIFY = ["classify", "--chi", "2", "--c1sq", "0"]
CLOSED_FORM = ["fibersum", "elliptic", "--m", "3", "ruled-spheres"]


# (command line, the modules it must not load)
MODULE_LOADS = [
    (BLOCK, (*LAYERS, "json")),
    (BLOCK + ["--format", "json"], LAYERS),
    (["catalog"], LAYERS),
    (["catalog", "--format", "json"], LAYERS),
    (CLASSIFY, (*LAYERS[2:], "json")),
    (CLASSIFY + ["--format", "json"], LAYERS[2:]),
    (["plot", "--chi", "0..2", "--c1sq", "0..2"], LAYERS[2:]),
    (["plot", "--chi", "0..2", "--c1sq", "0..2", "--format", "svg"], LAYERS[2:]),
    # A fiber sum without --oracle or --explain runs only the closed form.
    (CLOSED_FORM, ("cherngeo.algebra", "json")),
    (CLOSED_FORM + ["--format", "json"], ("cherngeo.algebra",)),
]


@pytest.mark.parametrize("argv, absent", MODULE_LOADS, ids=[" ".join(a) for a, _ in MODULE_LOADS])
def test_each_subcommand_loads_only_its_own_modules(argv, absent):
    assert _loaded_in_fresh_interpreter(_run_cli(argv), absent) == []


def test_the_module_probe_sees_what_a_subcommand_loads():
    argv = [*CLOSED_FORM, "--format", "json"]
    assert _loaded_in_fresh_interpreter(_run_cli(argv), (*LAYERS, "json")) == [
        "cherngeo.fibersum", "json",
    ]


def test_a_search_without_a_hit_loads_the_fiber_sum_but_no_algebra():
    argv = ["search", "--target", "24,0,24", "--families", "elliptic", "--max-m", "1"]
    statements = (
        "import io\n"
        "sys.stderr = io.StringIO()\n"
        f"{_run_cli(argv)}"
        "print(repr(sys.stderr.getvalue()))\n"
    )
    stderr, loaded = _fresh_interpreter(
        f"{statements}print(*[m for m in {LAYERS[2:]!r} if m in sys.modules])\n"
    ).splitlines()
    assert stderr == repr("no realizations found\n")
    assert loaded == "cherngeo.fibersum"


def test_only_a_search_loads_the_lattice():
    # The partner solver is compiled only by a process that searches the named families.
    for argv in (BLOCK, CLASSIFY, CLOSED_FORM, [*CLOSED_FORM, "--oracle"]):
        assert _loaded_in_fresh_interpreter(_run_cli(argv), ("cherngeo.lattice",)) == [], argv
    search = ["search", "--target", "48,0,48", "--families", "elliptic,ruled-spheres"]
    assert _loaded_in_fresh_interpreter(_run_cli(search), ("cherngeo.lattice",)) == [
        "cherngeo.lattice"
    ]


@pytest.mark.parametrize(
    "construction, loaded",
    [("halic_construction", []), ("halic_construction_via_oracle", ["cherngeo.algebra"])],
)
def test_only_the_oracle_loads_the_algebra(construction, loaded):
    statements = (
        "import cherngeo.fibersum\n"
        "from cherngeo.catalog import elliptic_surface, ruled_spheres\n"
        f"cherngeo.fibersum.{construction}(elliptic_surface(3), ruled_spheres())\n"
    )
    assert _loaded_in_fresh_interpreter(statements, ("cherngeo.algebra",)) == loaded


def test_importing_plot_loads_no_fiber_sum():
    # The plane's classifier and plot load neither the fiber sum nor the block catalog.
    absent = ("cherngeo.fibersum", "cherngeo.catalog")
    for module in ("cherngeo.plot", "cherngeo.geography"):
        assert _loaded_in_fresh_interpreter(f"import {module}", absent) == [], module


def test_geography_names_the_catalogs_search_bounds():
    from cherngeo import catalog, geography
    from cherngeo.geography import SearchBounds as imported

    assert geography.SearchBounds is catalog.SearchBounds
    assert geography.GenericGrid is catalog.GenericGrid
    assert imported is catalog.SearchBounds
    with pytest.raises(AttributeError) as info:
        geography.no_such_name
    assert str(info.value) == "module 'cherngeo.geography' has no attribute 'no_such_name'"


@pytest.mark.parametrize("module", ["cherngeo.invariants", "cherngeo.plot"])
def test_the_records_and_the_plot_load_no_functools(module):
    # The records are built without functools.partial; plot-grid and a cold CLI import these.
    assert _loaded_in_fresh_interpreter(f"import {module}", ("functools",)) == []


def _kernels_compiled(statements: str) -> int:
    """How many evaluation kernels a fresh interpreter generates while running ``statements``.

    ``algebra`` is imported first, with no kernel in its caches, and its
    ``compile_kernel`` is counted from then on.
    """
    counting = (
        "from cherngeo import algebra\n"
        "assert algebra._product_kernel.cache_info().currsize == 0\n"
        "kernels = []\n"
        "compile_kernel = algebra.compile_kernel\n"
        "algebra.compile_kernel = lambda *args, **kwargs: (\n"
        "    kernels.append(args) or compile_kernel(*args, **kwargs))\n"
    )
    return int(_fresh_interpreter(f"{counting}{statements}\nprint(len(kernels))\n"))


PRODUCT_TWICE = (
    "from cherngeo.invariants import FourManifoldInvariants, SurfaceInvariants\n"
    "for genus in (0, 3):\n"
    "    algebra.chern_numbers_of_product(FourManifoldInvariants(2, 0), SurfaceInvariants(genus))\n"
)
FIBERSUM = ["fibersum", "elliptic", "--m", "2", "ruled-spheres"]

# (statements, the kernels they generate): none on import or in commands
# that never run the oracle; the product's one kernel for both calls; the
# fused fiber-sum kernel alone for a fiber sum checked by the oracle; for
# --explain, one kernel for each of the oracle's three parts and the
# cross-section's.
KERNEL_COUNTS = [
    ("import cherngeo.fibersum", 0),
    (_run_cli(BLOCK), 0),
    (_run_cli(CLASSIFY), 0),
    (_run_cli(["plot", "--chi", "0..2", "--c1sq", "0..2"]), 0),
    (_run_cli(["plot", "--chi", "0..2", "--c1sq", "0..2", "--format", "svg"]), 0),
    (PRODUCT_TWICE, 1),
    (_run_cli([*FIBERSUM, "--oracle"]), 1),
    (_run_cli([*FIBERSUM, "--explain"]), 4),
]


@pytest.mark.parametrize(
    "statements, kernels", KERNEL_COUNTS, ids=["import", "block", "classify", "plot-csv",
                                                "plot-svg", "product-twice", "fibersum-oracle",
                                                "fibersum-explain"]
)
def test_kernels_are_generated_once_on_first_use(statements, kernels):
    assert _kernels_compiled(statements) == kernels


def test_every_function_type_hint_resolves():
    # A module that imports algebra inside its functions has no global named algebra.
    unresolved = []
    for info in pkgutil.iter_modules(cherngeo.__path__):
        module = importlib.import_module(f"cherngeo.{info.name}")
        defined = [
            v for v in vars(module).values() if getattr(v, "__module__", None) == module.__name__
        ]
        functions = [v for v in defined if inspect.isfunction(v)] + [
            f for cls in defined if inspect.isclass(cls)
            for f in vars(cls).values() if inspect.isfunction(f)
        ]
        assert functions, module.__name__
        for function in functions:
            try:
                typing.get_type_hints(function)
            except NameError as exc:
                unresolved.append(f"{module.__name__}.{function.__qualname__}: {exc}")
    assert unresolved == []
