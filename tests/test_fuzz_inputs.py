"""Random argument lists, catalog files and search-config files through the CLI.

Whatever a file holds, ``catalog --catalog`` and ``search --config`` exit
0, 1 or 2 and raise nothing: a failure is one line on stderr, never a
traceback.  Files are arbitrary JSON values mixed with well-formed records
whose fields are sometimes replaced by arbitrary values, so that both the
loaders' checks and the commands behind them run.  Integers are small, or
large enough to meet ``geography.SEARCH_BLOCK_LIMIT``, so every search
that passes the checks scans a few hundred blocks at most.

Argument lists mix subcommands, family names, every flag but the three that
name files, and values: small integers, ``a..b`` ranges, triples and
garbage.  Whatever the list, ``main`` returns 0, 1 or 2, and raises
``SystemExit`` (code 0) only for help.  Exit 2 is one ``usage error:``
line with nothing on stdout; exit 1 is one ``error:`` or ``validation
error:`` line, after search's ``obstruction:`` lines, or ``block``'s
``violation:`` lines.  Integers lie in -3..5, so no search enumerates more
than about 600 candidate blocks.
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


# -- argument lists ----------------------------------------------------------

small = st.integers(-3, 5).map(str)
limits = st.integers(0, 5).map(str) | small  # mostly valid search limits
# mostly lo <= hi, so that windows and grids are often non-empty
ranges = st.lists(st.integers(-3, 5), min_size=2, max_size=2).map(
    lambda ends: "{}..{}".format(*sorted(ends))
) | st.builds("{}..{}".format, small, small)
targets = st.builds("{},{},{}".format, small, small, small) | st.sampled_from(
    ["0,0,0", "24,0,24", "48,0,48", "26,0,24"]
)
formats = st.sampled_from(["human", "json", "csv", "svg"])
garbage = st.text(max_size=5) | st.sampled_from(
    ["", "-", "--", "..", ",", "=", "1..", "..2", "1,2", "--m=", "--max-m=-1", "-h"]
)

# Block parameters by family name as typed (a misspelt name too); generic's
# are its CLI flags.
BLOCK_PARAMS = {
    **{name: FAMILIES[name][1] for name in FAMILIES},
    **{alias: FAMILIES[name][1] for alias, name in FAMILY_ALIASES.items()},
    "generic": ("chi", "c1sq", "genus", "n", "not_simply_connected"),
    "eliptic": ("m",),
}
# The flags of each subcommand and their values (None for a switch), except
# --output, --catalog and --config, whose files are fuzzed above.
COMMAND_FLAGS = {
    "block": {},
    "product": {"--surface-genus": small},
    "fibersum": {"--oracle": None},
    "search": {
        "--target": targets,
        "--families": st.lists(family_names, max_size=3).map(",".join),
        "--max-m": limits,
        "--max-k": limits,
        "--max-knot-genus": limits,
        "--generic-chi": ranges,
        "--generic-c1sq": ranges,
        "--generic-genus": ranges,
    },
    "classify": {"--chi": small, "--c1sq": small},
    "plot": {"--chi": ranges, "--c1sq": ranges},
    "catalog": {},
}
BLOCK_COUNTS = {"block": 1, "product": 1, "fibersum": 2}
EVERY_FLAG = sorted(
    {flag for flags in COMMAND_FLAGS.values() for flag in flags}
    | {"--" + p.replace("_", "-") for params in BLOCK_PARAMS.values() for p in params}
    | {"--format", "--help"}
)
tokens = st.one_of(
    st.sampled_from([*COMMAND_FLAGS, *BLOCK_PARAMS, *EVERY_FLAG]),
    small,
    ranges,
    targets,
    formats,
    garbage,
)


def mostly(draw):
    """True seven times in eight; shrinks towards True."""
    return draw(st.integers(0, 7)) < 7


@st.composite
def command_lines(draw):
    """A subcommand with mostly well-formed block specs and flags, and a little noise."""
    command = draw(st.sampled_from(list(COMMAND_FLAGS)))
    argv = [command]
    for _ in range(BLOCK_COUNTS.get(command, 0)):
        family = draw(st.sampled_from(list(BLOCK_PARAMS)))
        argv.append(family)
        for param in BLOCK_PARAMS[family]:
            if param == "not_simply_connected":
                if draw(st.booleans()):
                    argv.append("--not-simply-connected")
            elif mostly(draw):
                argv += ["--" + param.replace("_", "-"), draw(small)]
    for flag, values in COMMAND_FLAGS[command].items():
        if mostly(draw):
            argv += [flag] if values is None else [flag, draw(values)]
    if draw(st.booleans()):
        argv += ["--format", draw(formats if mostly(draw) else garbage)]
    if not mostly(draw):
        argv.insert(draw(st.integers(0, len(argv))), draw(tokens))
    return argv


@settings(FUZZ, max_examples=300)
@given(argv=command_lines() | st.lists(tokens, max_size=8))
@example(argv=["search", "--target", "0,0,0", "--generic-chi", "-3..5",
               "--generic-c1sq", "-3..5", "--generic-genus", "-3..5", "--max-knot-genus", "5"])
@example(argv=["block", "generic", "--chi", "1", "--c1sq", "8", "--genus", "0", "--n", "-3"])
def test_random_argument_lists(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # nothing should be written; if it is, it lands here
    capsys.readouterr()  # drop what earlier examples printed
    try:
        code = main(argv)  # an exception other than SystemExit fails the test here
    except SystemExit as exc:  # only -h/--help (or an abbreviation) exits
        assert exc.code == 0
        assert any(t.startswith("-h") or t.startswith("--h") and "--help".startswith(t)
                   for t in argv), argv
        return
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1, err
    elif code == 1:
        lines = err.splitlines()
        if argv[0] == "block" and lines[0].startswith("violation: "):
            assert all(line.startswith("violation: ") for line in lines), err
        else:
            # search reports obstructions before the bounds it then refuses
            assert all(line.startswith("obstruction: ") for line in lines[:-1]), err
            assert lines[-1].startswith(("error: ", "validation error: ")), err
