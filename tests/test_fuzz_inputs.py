"""Random JSON catalog and search-config files through the CLI.

Whatever a file holds, ``catalog --catalog`` and ``search --config`` exit
0, 1 or 2 and raise nothing: a failure is one line on stderr, never a
traceback.  Files are arbitrary JSON values mixed with well-formed records
whose fields are sometimes replaced by arbitrary values, so that both the
loaders' checks and the commands behind them run.  Integers are small, or
large enough to meet ``geography.SEARCH_BLOCK_LIMIT``, so every search
that passes the checks scans a few hundred blocks at most.
"""

import json

from hypothesis import HealthCheck, example, given, settings, strategies as st

from cherngeo.catalog import FAMILIES, FAMILY_ALIASES
from cherngeo.cli import main

ints = st.integers(-3, 4) | st.sampled_from([2**31, 10**6, -(2**63), 10**30])
json_values = st.recursive(
    st.none() | st.booleans() | ints | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)


def field(good):
    """Mostly a well-formed value, sometimes any JSON value."""
    return st.one_of(good, good, json_values)


family_names = st.sampled_from([*FAMILIES, *FAMILY_ALIASES, "generic", "eliptic"])

catalog_records = st.one_of(
    st.fixed_dictionaries({"family": field(st.just("elliptic")), "m": field(ints)}),
    st.fixed_dictionaries(
        {"family": field(family_names), "k": field(ints), "knot_genus": field(ints)}
    ),
    st.just({"family": "ruled-spheres"}),
    st.fixed_dictionaries(
        {
            "name": field(st.text(max_size=6)),
            "chi_h": field(ints),
            "c1_sq": field(ints),
            "fiber_genus": field(ints),
            "singular_fibers": field(ints),
            "simply_connected": field(st.booleans()),
        },
        optional={"family": field(st.just("generic"))},
    ),
    json_values,
)
catalogs = st.lists(catalog_records, max_size=4) | json_values

ranges = st.lists(ints, min_size=2, max_size=2)
grids = st.fixed_dictionaries(
    {}, optional={key: field(ranges) for key in ("chi_h", "c1_sq", "genus")}
)
configs = (
    st.fixed_dictionaries(
        {},
        optional={
            "families": field(st.lists(family_names, max_size=3)),
            "max_m": field(ints),
            "max_k": field(ints),
            "max_knot_genus": field(ints),
            "generic": field(grids),
        },
    )
    | json_values
)

FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def run_on_file(capsys, path, content, argv):
    path.write_text(json.dumps(content))
    code = main(argv)  # an uncaught exception fails the test here
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        assert err.count("\n") == 1, err
        assert err.startswith(("error: ", "usage error: ", "validation error: ")), err
    return code, out


@FUZZ
@given(content=catalogs)
@example(content=[{"family": "elliptic", "m": float("inf")}])  # int(inf) raised OverflowError
def test_random_catalog_files(capsys, tmp_path, content):
    path = tmp_path / "catalog.json"
    for fmt in ("human", "json"):
        run_on_file(capsys, path, content, ["catalog", "--catalog", str(path), "--format", fmt])


@FUZZ
@given(content=configs, target=st.sampled_from(["0,0,0", "24,0,24", "-48,0,-48"]))
@example(content={"max_m": float("inf")}, target="24,0,24")
def test_random_search_configs(capsys, tmp_path, content, target):
    path = tmp_path / "bounds.json"
    run_on_file(capsys, path, content, ["search", "--target", target, "--config", str(path)])
