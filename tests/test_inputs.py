"""Family names, block flags, search bounds and malformed files at the input boundary.

Family names and aliases are checked against ``catalog.FAMILIES``; every
malformed catalog or search config, negative search limit, empty grid
range or grid genus range below 0 exits 1 with one line that names the
offending entry or field, never with a traceback, and a file that is not
JSON exits 1 with one line naming the file; ``search --config`` together
with a bound flag exits 2, and bound flags print what the same bounds in a
config print.  Every integer input has at most
``catalog.INPUT_DIGITS`` digits: at the budget every subcommand prints its
values in full, and one digit more is one line, exit 2 naming the flag on
argv and exit 1 naming the file and the field in JSON.
A CSV plot over ``plot.GRID_POINT_LIMIT`` points exits 1 before any work,
and so does a search whose bounds allow more than
``geography.SEARCH_BLOCK_LIMIT`` candidate blocks, or none, or that finds
more than ``geography.SEARCH_RESULT_LIMIT`` realizations.  An empty
``plot`` range exits 1 naming the flag and both ends, and so does a
one-value range for an SVG chart; an SVG window with an end beyond
``plot.SVG_END_LIMIT`` exits 1 too, writing no ``--output`` file.  JSON fields are read
strictly: an integer field takes only a JSON integer, ``simply_connected``
only ``true`` or ``false``, ``name`` only a string that UTF-8 can encode.
A catalog record holds only the keys it is read by: a family record its
family's parameters, an explicit block its six fields, and sigma, euler or
c2 only at their recomputed values.  ``--not-simply-connected`` takes no
value.  Any option given twice, of a subcommand or in one block
specification, is a usage error (the cases are read from the parser and
the family registry), and a JSON object that repeats a key exits 1 naming
the file and the key.  Every spelling of a block specification (flag
order, ``--f v`` or ``--f=v``, ``--format`` anywhere) builds the same
blocks, and every ``--help`` prints on stdout alone.  Every malformed
command line exits 2 with one ``usage error:`` line, and every listed
invalid value exits 1 with one ``error:`` line (the cases are in
``malformed_command_lines.py``); a malformed ``a..b`` or ``--target``
value names the flag it was given to.
"""

import argparse
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cherngeo import catalog, geography
from cherngeo.catalog import (
    FAMILIES,
    FAMILY_ALIASES,
    INPUT_DIGITS,
    GenericGrid,
    SearchBounds,
    block_from_family,
    elliptic_surface,
    family_block,
    family_name,
    generic_block,
    knot_surgered_elliptic,
)
from cherngeo.cli import _GENERIC_FLAGS, build_parser, main, parse_block_specs
from cherngeo.fibersum import halic_construction
from cherngeo.geography import SEARCH_BLOCK_LIMIT, candidate_blocks
from cherngeo.invariants import ChernTriple, block_to_json
from malformed_command_lines import HELP, INVALID, MALFORMED, OVER_BUDGET


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_block_from_family_reads_the_registry():
    for name, (_, params, _) in FAMILIES.items():
        args = [1] * len(params)
        record = {"family": name, **dict(zip(params, args))}
        assert block_from_family(record) == family_block(name, *args)
    alias = {"family": "knot-elliptic", "k": 2, "knot_genus": 0}
    assert block_from_family(alias) == knot_surgered_elliptic(2, 0)
    explicit = block_to_json(elliptic_surface(3))
    assert block_from_family({"family": "generic", **explicit}) == block_from_family(explicit)
    with pytest.raises(ValueError, match="'m'"):
        block_from_family({"family": "elliptic"})


def test_bounds_resolve_family_names():
    assert SearchBounds(families=("knot-elliptic",)).families == ("knot-surgered-elliptic",)
    for families in (("eliptic",), ("generic",), "elliptic"):
        with pytest.raises(ValueError):
            SearchBounds(families=families)
    with pytest.raises(ValueError, match="generic.genus"):
        SearchBounds.from_json({"generic": {"chi_h": [0, 1], "c1_sq": [0, 1], "genus": "0..1"}})


def test_parse_block_specs_accepts_equals_and_negative_values(capsys):
    assert parse_block_specs(["elliptic", "--m=2"]) == [elliptic_surface(2)]
    code, out, _ = run(
        capsys, "block", "generic", "--chi", "1", "--c1sq", "-3", "--genus", "0", "--n", "11"
    )
    assert code == 0
    assert "c1_sq             -3" in out


def test_block_unknown_option_is_usage_error(capsys):
    code, out, err = run(capsys, "block", "elliptic", "--m", "2", "--bogus", "5")
    assert code == 2
    assert out == ""
    assert "--bogus" in err


@pytest.mark.parametrize("flag", ["--not-simply-connected=false", "--not-simply-connected="])
def test_not_simply_connected_with_a_value_is_usage_error(capsys, flag):
    argv = ["block", "generic", "--chi", "1", "--c1sq", "0", "--genus", "1", "--n", "12", flag]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    explicit = flag.partition("=")[2]
    assert err == (
        f"usage error: argument --not-simply-connected: ignored explicit argument {explicit!r}\n"
    )


def _case_id(argv):
    """A test id for a command line; a token over 24 characters is shown by its length."""
    return " ".join(t if len(t) <= 24 else f"<{len(t)} characters>" for t in argv) or "(none)"


@pytest.mark.parametrize("argv", MALFORMED, ids=_case_id)
def test_malformed_command_line_is_one_usage_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", HELP, ids=_case_id)
def test_help_is_printed_on_stdout_alone(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    out, err = capsys.readouterr()
    assert (info.value.code, err) == (0, "")
    assert out.startswith("usage: cherngeo")


def test_the_malformed_cases_go_one_digit_over_the_budget():
    assert OVER_BUDGET.isdecimal() and len(OVER_BUDGET) == INPUT_DIGITS + 1


@pytest.mark.parametrize("argv", INVALID, ids=lambda argv: " ".join(argv)[:60])
def test_invalid_value_is_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["plot", "--chi", "0..x", "--c1sq", "0..1"],
         "argument --chi: expected an integer for range end, got 'x'"),
        (["plot", "--chi", "0..1", "--c1sq", "0-1"],
         "argument --c1sq: range must look like a..b, got '0-1'"),
        (["plot", "--chi", "..1", "--c1sq", "0..1"],
         "argument --chi: expected an integer for range start, got ''"),
        (["search", "--target", "24,0,24", "--generic-chi", ""],
         "argument --generic-chi: range must look like a..b, got ''"),
        (["search", "--target", "24,0,24", "--generic-c1sq", "0..1..2"],
         "argument --generic-c1sq: expected an integer for range end, got '1..2'"),
        (["search", "--target", "24,0,24", "--generic-genus=y..1"],
         "argument --generic-genus: expected an integer for range start, got 'y'"),
        (["search", "--target", "24,0"], "argument --target: expected c3,c1cubed,c1c2, got '24,0'"),
        (["search", "--target=24,0,x"],
         "argument --target: expected an integer for a Chern number, got 'x'"),
    ],
)
def test_range_and_target_errors_name_the_flag(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"usage error: {message}\n"


@pytest.mark.parametrize(
    "spec, flag",
    [
        (["elliptic", "--m", "2", "--m", "3"], "elliptic takes --m"),
        (["elliptic", "--m", "2", "--m=3"], "elliptic takes --m"),
        (["elliptic", "--m=2", "--m", "2"], "elliptic takes --m"),
        (["knot-elliptic", "--k", "2", "--knot-genus", "0", "--knot_genus", "1"],
         "knot-elliptic takes --knot-genus"),
        (["generic", "--chi", "1", "--c1sq", "0", "--genus", "1", "--n", "12",
          "--not-simply-connected", "--not-simply-connected"],
         "generic takes --not-simply-connected"),
        (["generic", "--chi", "1", "--chi", "-1", "--c1sq", "0", "--genus", "1", "--n", "12"],
         "generic takes --chi"),
    ],
)
def test_repeated_block_flag_is_usage_error(capsys, spec, flag):
    code, out, err = run(capsys, "block", *spec)
    assert (code, out) == (2, "")
    assert err == f"usage error: {flag} once, got it twice\n"


# A minimal valid command line of each subcommand, and a value of each option
# type by the name of its type= function (None for a string).
MINIMAL = {
    "block": ["block", "elliptic", "--m", "2"],
    "product": ["product", "elliptic", "--m", "2", "--surface-genus", "0"],
    "fibersum": ["fibersum", "elliptic", "--m", "2", "ruled-spheres"],
    "search": ["search", "--target", "24,0,24"],
    "classify": ["classify", "--chi", "0", "--c1sq", "0"],
    "plot": ["plot", "--chi", "0..1", "--c1sq", "0..1"],
    "catalog": ["catalog"],
}
VALUES = {None: "x.json", "_parse_int": "1", "_parse_range": "0..1", "_parse_target": "24,0,24"}


def _subcommand_options():
    """(subcommand, option, a value of it or None for a switch) for every option but -h."""
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        for action in parser._actions:
            if action.nargs == 0:
                value = None
            elif action.choices:
                value = action.choices[0]
            else:
                value = VALUES[getattr(action.type, "__name__", None)]
            if action.option_strings != ["-h", "--help"]:
                yield command, action.option_strings[0], value


def _block_flags():
    """(family as typed, a valid block specification, one of its flags) for every flag."""
    for family in [*FAMILIES, *FAMILY_ALIASES]:
        params = FAMILIES[family_name(family)][1]
        flags = ["--" + p.replace("_", "-") for p in params]
        spec = [family, *(t for flag, (least, _, _) in zip(flags, params.values())
                          for t in (flag, str(least)))]
        for flag in flags:
            yield family, spec, flag
    spec = ["generic", "--chi", "1", "--c1sq", "0", "--genus", "1", "--n", "12"]
    for flag in [*(f"--{p}" for p in _GENERIC_FLAGS), "--not-simply-connected"]:
        yield "generic", spec, flag


def _twice(argv, flag, value):
    """``argv`` with ``flag`` given twice: once more if it has it, else two times."""
    given = [flag] if value is None else [flag, value]
    return argv + given * (1 if flag in argv else 2)


@pytest.mark.parametrize("command, flag, value", list(_subcommand_options()))
def test_every_subcommand_option_may_be_given_once(capsys, command, flag, value):
    assert run(capsys, *_twice(MINIMAL[command], flag, value)) == (
        2, "", f"usage error: cherngeo {command} takes {flag} once, got it twice\n"
    )


@pytest.mark.parametrize("family, spec, flag", list(_block_flags()))
def test_every_block_flag_may_be_given_once(capsys, family, spec, flag):
    value = None if flag == "--not-simply-connected" else "1"
    assert run(capsys, "block", *_twice(spec, flag, value)) == (
        2, "", f"usage error: {family} takes {flag} once, got it twice\n"
    )


def test_the_once_cases_read_every_option():
    options = {(command, flag) for command, flag, _ in _subcommand_options()}
    assert {("search", "--target"), ("fibersum", "--oracle"), ("catalog", "--format")} <= options
    assert {("knot-elliptic", "--knot-genus"), ("generic", "--not-simply-connected")} <= {
        (family, flag) for family, _, flag in _block_flags()
    }


@st.composite
def block_specs(draw):
    """A block specification: (its canonical tokens, its flag groups in a random
    order and spelling after its family, the block it builds)."""
    family = draw(st.sampled_from([*FAMILIES, *FAMILY_ALIASES, "generic"]))
    if family == "generic":
        # generic_block refuses a negative fiber genus or singular-fiber count.
        least = {"chi": -3, "c1sq": -3, "genus": 0, "n": 0}
        flags = {name: draw(st.integers(least[name], 12)) for name in _GENERIC_FLAGS}
        switch = draw(st.booleans())
        block = generic_block(*flags.values(), not switch)
    else:
        params = FAMILIES[family_name(family)][1]
        flags = {p: draw(st.integers(least, least + 4)) for p, (least, _, _) in params.items()}
        switch = False
        block = family_block(family_name(family), *flags.values())
    groups = [["--" + p.replace("_", "-"), str(v)] for p, v in flags.items()]
    groups += [["--not-simply-connected"]] * switch
    spelled = [
        ["=".join(group)] if len(group) == 2 and draw(st.booleans()) else group
        for group in draw(st.permutations(groups))
    ]
    return [family, *(t for group in groups for t in group)], [[family], *spelled], block


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(specs=st.lists(block_specs(), min_size=1, max_size=2), data=st.data())
def test_every_spelling_of_a_block_specification_builds_the_same_blocks(capsys, specs, data):
    groups = [group for _, spelled, _ in specs for group in spelled]
    assert parse_block_specs([t for group in groups for t in group]) == [b for _, _, b in specs]
    command = "block" if len(specs) == 1 else "fibersum"
    groups.insert(data.draw(st.integers(0, len(groups))), ["--format", "json"])
    spelled = [command, *(t for group in groups for t in group)]
    canonical = [command, *(t for tokens, _, _ in specs for t in tokens), "--format", "json"]
    assert run(capsys, *spelled) == run(capsys, *canonical)


def test_search_unknown_family_is_an_error(capsys):
    code, out, err = run(capsys, "search", "--target", "24,0,24", "--families", "eliptic")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "'eliptic'" in err


@pytest.mark.parametrize("families, bad", [(["eliptic"], "'eliptic'"), ("elliptic", "'elliptic'")])
def test_search_config_bad_families_is_an_error(capsys, tmp_path, families, bad):
    config = tmp_path / "bounds.json"
    config.write_text(json.dumps({"families": families}))
    code, out, err = run(capsys, "search", "--target", "24,0,24", "--config", str(config))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and bad in err


def test_search_family_alias_is_resolved(capsys):
    block = knot_surgered_elliptic(2, 0)
    target = halic_construction(block, block)
    argv = ["search", "--target", f"{target.c3},{target.c1_cubed},{target.c1c2}"]
    by_alias = run(capsys, *argv, "--families", "knot-elliptic")
    by_name = run(capsys, *argv, "--families", "knot-surgered-elliptic")
    assert by_alias == by_name
    assert by_alias[0] == 0 and block.name in by_alias[1]


@pytest.mark.parametrize(
    "command, content, field",
    [
        ("catalog", [{"family": "elliptic"}], "'m'"),
        ("catalog", [{"family": "elliptic", "m": [1]}], "'m'"),
        ("catalog", [1, 2], "entry 0"),
        ("catalog", [{"name": "X", "chi_h": 1}], "'c1_sq'"),
        ("search", {"generic": {"chi_h": 5}}, "generic.chi_h"),
        ("search", {"generic": 5}, "'generic'"),
        ("search", {"max_m": None}, "'max_m'"),
        ("search", [1], "JSON object"),
    ],
)
def test_malformed_files_exit_with_one_line(capsys, tmp_path, command, content, field):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    if command == "catalog":
        argv = ["catalog", "--catalog", str(path)]
    else:
        argv = ["search", "--target", "24,0,24", "--config", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err


@pytest.mark.parametrize("command", ["catalog", "search"])
@pytest.mark.parametrize(
    "content, reason",
    [
        (b'{"max_m": 2,', "is not valid JSON: Expecting property name enclosed in double quotes"),
        (b"[1, 2", "is not valid JSON: Expecting ',' delimiter"),
        (b"", "is not valid JSON: Expecting value"),
        (b"\xff[]", "is not valid JSON: 'utf-8' codec can't decode byte 0xff"),
        (b"[" * 100_000 + b"]" * 100_000, "nests JSON too deeply to read"),
        (b'[{"family": "elliptic", "m": 2, "m": 3}]', "repeats the key 'm' in one object"),
        (b'{"max_m": 2, "max_m": 3}', "repeats the key 'max_m' in one object"),
        (b'{"generic": {"chi_h": [0, 1], "chi_h": [0, 2]}}', "repeats the key 'chi_h' in one"),
        # More digits than Python converts by default (sys.get_int_max_str_digits(), 4300).
        pytest.param(
            b'{"max_m": ' + b"1" * 4301 + b"}", "holds an integer too long to read", id="4301-digits"
        ),
        pytest.param(
            b'[{"family": "elliptic", "m": -' + b"9" * 5000 + b"}]",
            "holds an integer too long to read",
            id="5000-digits",
        ),
        # One bare integer: no field to name, and the whole line is pinned.
        pytest.param(
            b"1" * 2001,
            "holds an integer too long to read: 2001 digits, more than the limit of 2000\n",
            id="bare-2001-digits",
        ),
    ],
)
def test_file_that_is_not_json_names_the_file(capsys, tmp_path, command, content, reason):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    if command == "catalog":
        argv = ["catalog", "--catalog", str(path)]
    else:
        argv = ["search", "--target", "24,0,24", "--config", str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path} {reason}") and err.count("\n") == 1


# -- search bounds: --config against flags, empty ranges, negative limits ----

BOUND_FLAGS = [
    ("--families", "elliptic"),
    ("--max-m", "2"),
    ("--max-k", "2"),
    ("--max-knot-genus", "1"),
    ("--generic-chi", "0..1"),
    ("--generic-c1sq", "0..1"),
    ("--generic-genus", "0..1"),
]


@pytest.mark.parametrize("flag, value", BOUND_FLAGS)
def test_search_config_with_a_bound_flag_is_usage_error(capsys, tmp_path, flag, value):
    config = tmp_path / "bounds.json"
    config.write_text(json.dumps({"families": ["elliptic"], "max_m": 2}))
    argv = ["search", "--target", "24,0,24", "--config", str(config), flag, value]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and flag in err


def test_search_config_conflict_names_every_flag(capsys, tmp_path):
    config = tmp_path / "bounds.json"
    config.write_text("{}")
    argv = ["search", "--target", "24,0,24", "--config", str(config),
            "--families", "ruled-spheres", "--max-k", "1"]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == "usage error: --config cannot be combined with --families, --max-k\n"


def test_search_flags_default_to_search_bounds(capsys, tmp_path):
    config = tmp_path / "bounds.json"
    config.write_text("{}")
    by_default = run(capsys, "search", "--target", "24,0,24")
    by_config = run(capsys, "search", "--target", "24,0,24", "--config", str(config))
    defaults = SearchBounds()
    explicit = run(
        capsys, "search", "--target", "24,0,24", "--families", ",".join(defaults.families),
        "--max-m", str(defaults.max_m), "--max-k", str(defaults.max_k),
        "--max-knot-genus", str(defaults.max_knot_genus),
    )
    assert by_default == by_config == explicit
    assert by_default[0] == 0 and by_default[1]


# Bound flags, the --config object that states the same bounds, and the exit code.
FLAGS_AND_CONFIGS = {
    "valid": (
        ["--families", "elliptic,knot-elliptic", "--max-m", "3", "--max-knot-genus", "1",
         "--generic-chi", "0..1", "--generic-c1sq", "0..8", "--generic-genus", "0..1"],
        {"families": ["elliptic", "knot-elliptic"], "max_m": 3, "max_knot_genus": 1,
         "generic": {"chi_h": [0, 1], "c1_sq": [0, 8], "genus": [0, 1]}},
        0,
    ),
    "negative limit": (["--max-k", "-1"], {"max_k": -1}, 1),
    "empty range": (
        ["--generic-chi", "2..1", "--generic-c1sq", "0..1", "--generic-genus", "0..1"],
        {"generic": {"chi_h": [2, 1], "c1_sq": [0, 1], "genus": [0, 1]}},
        1,
    ),
    "genus below 0": (
        ["--generic-chi", "0..1", "--generic-c1sq", "0..1", "--generic-genus", "-1..2"],
        {"generic": {"chi_h": [0, 1], "c1_sq": [0, 1], "genus": [-1, 2]}},
        1,
    ),
    "unknown family": (["--families", "elliptic,nope"], {"families": ["elliptic", "nope"]}, 1),
    "no family": (["--families", ""], {"families": []}, 1),
    "over the block limit": (
        ["--families", "elliptic", "--max-m", "5001"], {"families": ["elliptic"], "max_m": 5001}, 1
    ),
    "grid over the block limit": (
        ["--generic-chi", "0..99", "--generic-c1sq", "0..49", "--generic-genus", "0..1"],
        {"generic": {"chi_h": [0, 99], "c1_sq": [0, 49], "genus": [0, 1]}},
        1,
    ),
}


@pytest.mark.parametrize("case", FLAGS_AND_CONFIGS)
def test_bound_flags_and_their_config_are_one_input(capsys, request, tmp_path, case):
    argv, config, code = FLAGS_AND_CONFIGS[case]
    if "over the block limit" in case:
        request.getfixturevalue("no_blocks")  # these bounds are refused before any block
    path = tmp_path / "bounds.json"
    path.write_text(json.dumps(config))
    by_flags = run(capsys, "search", "--target", "24,0,24", *argv)
    assert by_flags == run(capsys, "search", "--target", "24,0,24", "--config", str(path))
    assert by_flags[0] == code and (by_flags[1] if code == 0 else by_flags[2])


@pytest.mark.parametrize("field", ["max_m", "max_k", "max_knot_genus"])
def test_search_bounds_reject_negative_limits(field):
    with pytest.raises(ValueError, match=repr(field)):
        SearchBounds(**{field: -1})
    assert getattr(SearchBounds(**{field: 0}), field) == 0


@pytest.mark.parametrize("field", ["chi_h", "c1_sq", "genus"])
def test_generic_grid_rejects_empty_ranges(field):
    ranges = {"chi_h": (0, 1), "c1_sq": (0, 1), "genus": (0, 1), field: (3, 1)}
    with pytest.raises(ValueError, match=repr(field)):
        GenericGrid(**ranges)
    assert GenericGrid(**{**ranges, field: (1, 1)})


@pytest.mark.parametrize("genus", [(-3, -1), (-1, 0), (-1, 5)])
def test_generic_grid_rejects_a_negative_genus(genus):
    with pytest.raises(ValueError, match="^generic grid range 'genus' must be non-negative, got -"):
        GenericGrid((0, 1), (0, 1), genus)
    assert GenericGrid((0, 1), (0, 1), (0, genus[1] + 3))


GRID_FLAGS = ["--generic-chi", "0..2", "--generic-c1sq", "0..2", "--generic-genus", "0..1"]


@pytest.mark.parametrize(
    "argv, field",
    [
        (["--max-m", "-3", "--families", "elliptic"], "'max_m'"),
        (["--max-knot-genus", "-1"], "'max_knot_genus'"),
        ([*GRID_FLAGS[:5], "3..1"], "'genus'"),
        (["--generic-chi", "5..0", *GRID_FLAGS[2:]], "'chi_h'"),
        # A negative genus range, once clipped to nothing and searched without a word.
        (["--max-m", "1", "--max-k", "0", *GRID_FLAGS[:5], "-3..-1"], "'genus'"),
    ],
)
def test_search_bad_bounds_on_argv_exit_1(capsys, argv, field):
    code, out, err = run(capsys, "search", "--target", "24,0,24", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and field in err


@pytest.mark.parametrize(
    "content, field",
    [
        ({"max_m": -3}, "'max_m'"),
        ({"max_k": -1}, "'max_k'"),
        ({"generic": {"chi_h": [0, 2], "c1_sq": [2, 0], "genus": [0, 1]}}, "'c1_sq'"),
        ({"max-m": 9}, "'max-m'"),
        ({"generic": {"chi_h": [0, 2], "c1sq": [0, 2], "genus": [0, 1]}}, "'c1sq'"),
        ({"max_m": 1, "max_k": 0, "generic": {"chi_h": [0, 1], "c1_sq": [0, 1], "genus": [-3, -1]}},
         "'genus'"),
    ],
)
def test_search_bad_bounds_in_config_exit_1(capsys, tmp_path, content, field):
    config = tmp_path / "bounds.json"
    config.write_text(json.dumps(content))
    code, out, err = run(capsys, "search", "--target", "24,0,24", "--config", str(config))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and field in err


def test_plot_csv_over_the_point_limit_exits_1(capsys, tmp_path):
    out_file = tmp_path / "grid.csv"
    for extra in ((), ("--output", str(out_file))):
        code, out, err = run(
            capsys, "plot", "--chi", "0..2000", "--c1sq", "0..1000", "--format", "csv", *extra
        )
        assert code == 1
        assert out == ""
        assert err == (
            "error: plot window has 2003001 points, more than the CSV limit of 1000000\n"
        )
    assert not out_file.exists()


def test_plot_svg_has_no_point_limit(capsys):
    code, out, _ = run(capsys, "plot", "--chi", "0..2000", "--c1sq", "0..1000", "--format", "svg")
    assert code == 0
    assert out.startswith("<svg ")


@pytest.mark.parametrize(
    "ranges",
    [
        ["--chi", f"0..{10**308}", "--c1sq", "0..5"],
        ["--chi", f"0..{10**306}", "--c1sq", "0..1"],
        ["--chi", "0..1", "--c1sq", f"-{10**300 + 1}..0"],
    ],
)
def test_plot_svg_beyond_the_end_limit_exits_1(capsys, tmp_path, ranges):
    out_file = tmp_path / "plot.svg"
    for extra in ((), ("--output", str(out_file))):
        code, out, err = run(capsys, "plot", *ranges, "--format", "svg", *extra)
        assert (code, out, err) == (
            1, "",
            "error: plot window is too far out for svg: both ranges must lie within "
            "-10**300..10**300\n",
        )
    assert not out_file.exists()


def test_plot_svg_at_the_end_limit_is_drawn(capsys):
    code, out, _ = run(
        capsys, "plot", "--chi", f"-{10**300}..{10**300}", "--c1sq", "0..1", "--format", "svg"
    )
    assert code == 0
    assert out.startswith("<svg ") and "inf" not in out


# -- bounds that select no block, empty plot windows -------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["--families", ""],
        ["--max-m", "0", "--families", "elliptic"],
        ["--max-k", "0", "--families", "knot-elliptic,elliptic", "--max-m", "0"],
        # itertools.product read the knot genus range in full: an OverflowError
        ["--families", "knot-elliptic", "--max-k", "0", "--max-knot-genus", str(10**30)],
        # a grid whose only point has no fibration (n < 0)
        ["--families", "", "--generic-chi", "0..0", "--generic-c1sq", "100..100",
         "--generic-genus", "0..0"],
    ],
)
def test_search_bounds_selecting_no_block_exit_1(capsys, argv):
    code, out, err = run(capsys, "search", "--target", "24,0,24", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: search bounds select no candidate block: SearchBounds(")
    assert err.count("\n") == 1


def test_a_family_with_an_empty_range_reads_none_of_its_ranges():
    # itertools.product read range(max_knot_genus + 1) in full: an OverflowError here.
    bounds = SearchBounds(families=("knot-elliptic",), max_k=0, max_knot_genus=10**30)
    assert candidate_blocks(bounds) == []


def test_search_config_selecting_no_block_exits_1(capsys, tmp_path):
    config = tmp_path / "bounds.json"
    config.write_text(json.dumps({"families": []}))
    code, out, err = run(capsys, "search", "--target", "24,0,24", "--config", str(config))
    assert (code, out) == (1, "")
    assert err == (
        "error: search bounds select no candidate block: SearchBounds(families=(), max_m=5, "
        "max_k=5, max_knot_genus=4, generic=None)\n"
    )


@pytest.mark.parametrize("target", ["26,0,24", "1,0,24"])
def test_search_reports_obstructions_before_empty_bounds(capsys, target):
    code, out, err = run(capsys, "search", "--target", target, "--families", "")
    assert (code, out) == (0, "")
    lines = err.splitlines()
    assert lines[-1] == "no realizations found"
    assert lines[:-1] and all(line.startswith("obstruction: ") for line in lines[:-1])


def test_search_realizations_raises_when_bounds_select_no_block():
    empty = SearchBounds(families=())
    with pytest.raises(ValueError, match="select no candidate block"):
        geography.search_realizations(ChernTriple(24, 0, 24), empty)
    assert geography.search_realizations(ChernTriple(26, 0, 24), empty) == []


@pytest.mark.parametrize("fmt", ["csv", "svg"])
@pytest.mark.parametrize(
    "ranges, message",
    [
        (["--chi", "1..-2", "--c1sq", "0..1"], "plot range --chi is empty: 1 > -2"),
        (["--chi", "0..1", "--c1sq", "5..4"], "plot range --c1sq is empty: 5 > 4"),
        (["--chi", "3..2", "--c1sq", "-1..-3"], "plot range --chi is empty: 3 > 2"),
    ],
)
def test_plot_empty_range_exits_1(capsys, tmp_path, fmt, ranges, message):
    out_file = tmp_path / f"plot.{fmt}"
    code, out, err = run(capsys, "plot", *ranges, "--format", fmt, "--output", str(out_file))
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not out_file.exists()


def _one_value(flag, value):
    return f"plot range {flag} is one value, too narrow for svg: {value} = {value}"


@pytest.mark.parametrize(
    "ranges, message",
    [
        (["--chi", "2..2", "--c1sq", "0..1"], _one_value("--chi", 2)),
        (["--chi", "0..1", "--c1sq", "-3..-3"], _one_value("--c1sq", -3)),
        (["--chi", "-1..-1", "--c1sq", "4..4"], _one_value("--chi", -1)),
        (["--chi", "2..2", "--c1sq", "5..4"], _one_value("--chi", 2)),
        (["--chi", "3..2", "--c1sq", "4..4"], "plot range --chi is empty: 3 > 2"),
    ],
)
def test_plot_svg_one_value_range_exits_1(capsys, tmp_path, ranges, message):
    out_file = tmp_path / "plot.svg"
    code, out, err = run(capsys, "plot", *ranges, "--format", "svg", "--output", str(out_file))
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not out_file.exists()


def test_plot_csv_one_value_range_is_not_empty(capsys):
    code, out, _ = run(capsys, "plot", "--chi", "2..2", "--c1sq", "0..0")
    assert code == 0
    assert out.splitlines()[1].startswith("2,0,")


# -- strict JSON field types -------------------------------------------------

GENERIC_RECORD = {
    "name": "X", "chi_h": 1, "c1_sq": 8, "fiber_genus": 0, "singular_fibers": 0,
    "simply_connected": True,
}
GRID = {"chi_h": [0, 1], "c1_sq": [0, 1], "genus": [0, 1]}


@pytest.mark.parametrize(
    "command, content, message",
    [
        ("catalog", [{"family": "elliptic", "m": 1.5}], "field 'm' must be int, got 1.5"),
        ("catalog", [{"family": "elliptic", "m": 2.0}], "field 'm' must be int, got 2.0"),
        ("catalog", [{"family": "elliptic", "m": "2"}], "field 'm' must be int, got '2'"),
        ("catalog", [{"family": "elliptic", "m": True}], "field 'm' must be int, got True"),
        ("catalog", [{"family": "elliptic", "m": float("inf")}], "field 'm' must be int, got inf"),
        (
            "catalog",
            [{**GENERIC_RECORD, "simply_connected": "no"}],
            "field 'simply_connected' must be bool, got 'no'",
        ),
        (
            "catalog",
            [{**GENERIC_RECORD, "simply_connected": 1}],
            "field 'simply_connected' must be bool, got 1",
        ),
        ("catalog", [{**GENERIC_RECORD, "name": 7}], "field 'name' must be str, got 7"),
        ("catalog", [{**GENERIC_RECORD, "chi_h": 1.0}], "field 'chi_h' must be int, got 1.0"),
        ("search", {"max_m": True}, "field 'max_m' must be int, got True"),
        ("search", {"max_k": 2.5}, "field 'max_k' must be int, got 2.5"),
        ("search", {"max_m": float("inf")}, "field 'max_m' must be int, got inf"),
        (
            "search",
            {"generic": {**GRID, "chi_h": [0, 1e9]}},
            "field 'generic.chi_h' must be a [lo, hi] pair of integers, got [0, 1000000000.0]",
        ),
        (
            "search",
            {"generic": {**GRID, "genus": [False, 1]}},
            "field 'generic.genus' must be a [lo, hi] pair of integers, got [False, 1]",
        ),
    ],
)
def test_json_fields_are_not_converted(capsys, tmp_path, command, content, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    if command == "catalog":
        argv = ["catalog", "--catalog", str(path)]
    else:
        argv = ["search", "--target", "24,0,24", "--config", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(message + "\n")


@pytest.mark.parametrize("fmt", ["human", "json"])
@pytest.mark.parametrize("name", ["\ud800", "E\udfff(2)"])
def test_catalog_name_utf8_cannot_encode_exits_1(capsys, tmp_path, fmt, name):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([{"family": "elliptic", "m": 1}, {**GENERIC_RECORD, "name": name}]))
    code, out, err = run(capsys, "catalog", "--catalog", str(path), "--format", fmt)
    assert (code, out) == (1, "")
    assert err == f"error: catalog entry 1: field 'name' must be encodable as UTF-8, got {name!r}\n"


def test_catalog_name_outside_ascii_loads(capsys, tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([{**GENERIC_RECORD, "name": "Σ×Σ"}]))
    code, out, err = run(capsys, "catalog", "--catalog", str(path), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)[0]["name"] == "Σ×Σ"


# -- catalog record keys -----------------------------------------------------

BLOCK_KEYS = "name, chi_h, c1_sq, fiber_genus, singular_fibers, simply_connected, sigma, euler, c2"
# GENERIC_RECORD's derived invariants, from chi_h = 1 and c1^2 = 8
DERIVED = {"sigma": 0, "euler": 4, "c2": 4}


@pytest.mark.parametrize(
    "record, message",
    [
        ({"family": "elliptic", "m": 2, "k": 7}, "unknown elliptic field 'k' (known: family, m)"),
        ({"family": "ruled-spheres", "m": 1}, "unknown ruled-spheres field 'm' (known: family)"),
        (
            {"family": "knot-elliptic", "k": 2, "knot_genus": 0, "g": 0},
            "unknown knot-elliptic field 'g' (known: family, k, knot_genus)",
        ),
        ({"family": "elliptic", "m": 2, **DERIVED}, "unknown elliptic field 'sigma'"),
        ({**GENERIC_RECORD, "genus": 0}, f"unknown block field 'genus' (known: {BLOCK_KEYS})"),
        ({**GENERIC_RECORD, "family": "generic", "m": 2}, "unknown block field 'm'"),
        ({**GENERIC_RECORD, "sigma": 99}, "field 'sigma' is 99, but chi_h and c1_sq give 0"),
        ({**GENERIC_RECORD, **DERIVED, "euler": 5}, "field 'euler' is 5, but chi_h and c1_sq give 4"),
        ({**GENERIC_RECORD, "c2": -4}, "field 'c2' is -4, but chi_h and c1_sq give 4"),
        ({**GENERIC_RECORD, "c2": "4"}, "field 'c2' must be int, got '4'"),
        ({"family": "elliptic", "m": 0}, "elliptic parameter m must be >= 1, got 0"),
    ],
)
def test_catalog_record_key_it_does_not_read_exits_1(capsys, tmp_path, record, message):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([{"family": "elliptic", "m": 1}, record]))
    code, out, err = run(capsys, "catalog", "--catalog", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: catalog entry 1: {message}") and err.count("\n") == 1


def test_catalog_json_output_loads_as_a_catalog(capsys, tmp_path):
    code, out, _ = run(capsys, "catalog", "--format", "json")
    records = json.loads(out)
    assert code == 0 and all(set(DERIVED) <= set(record) for record in records)
    path = tmp_path / "catalog.json"
    for family in ({}, {"family": "generic"}):
        path.write_text(json.dumps([{**record, **family} for record in records]))
        assert run(capsys, "catalog", "--catalog", str(path), "--format", "json") == (0, out, "")
    path.write_text(json.dumps([{**GENERIC_RECORD, **DERIVED}]))
    assert run(capsys, "catalog", "--catalog", str(path))[0] == 0


# -- the search's block limit ------------------------------------------------


@pytest.fixture
def no_blocks(monkeypatch):
    """Make building any candidate block fail at once, instead of filling memory."""

    def refuse(*args):
        raise AssertionError("a candidate block was built")

    monkeypatch.setattr(catalog, "family_block", refuse)
    monkeypatch.setattr(catalog, "generic_block", refuse)


@pytest.mark.parametrize(
    "bounds, count",
    [
        (SearchBounds(families=("elliptic",), max_m=SEARCH_BLOCK_LIMIT + 1), 5001),
        (SearchBounds(max_m=99999999999999), 100000000000025),
        (SearchBounds(families=("elliptic",), max_m=10**30), 10**30),
        (SearchBounds(families=(), generic=GenericGrid((0, 10**9), (0, 1), (0, 1))), 4000000004),
        (SearchBounds(families=(), generic=GenericGrid((0, 99), (0, 49), (0, 1))), 10000),
    ],
)
def test_candidate_blocks_over_the_limit_raise_before_building(no_blocks, bounds, count):
    with pytest.raises(ValueError) as info:
        candidate_blocks(bounds)
    assert str(info.value) == (
        f"search bounds allow {count} candidate blocks, more than the limit of 5000"
    )


def test_candidate_blocks_limit_is_inclusive():
    assert len(candidate_blocks(SearchBounds(families=("elliptic",), max_m=5000))) == 5000
    grid = GenericGrid((0, 99), (0, 49), (0, 0))  # 5,000 points, fewer fibrations
    assert candidate_blocks(SearchBounds(families=(), generic=grid))


@pytest.mark.parametrize(
    "argv, config",
    [
        (["--max-m", "99999999999999"], None),
        (["--generic-chi", "0..1000000000", "--generic-c1sq", "0..1", "--generic-genus", "0..1"],
         None),
        ([], {"generic": {**GRID, "chi_h": [0, 1000000000]}}),
        ([], {"max_k": 100, "max_knot_genus": 100}),
    ],
)
def test_search_over_the_block_limit_exits_1(capsys, tmp_path, no_blocks, argv, config):
    if config is not None:
        path = tmp_path / "bounds.json"
        path.write_text(json.dumps(config))
        argv = ["--config", str(path)]
    code, out, err = run(capsys, "search", "--target", "24,0,24", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: search bounds allow ") and err.count("\n") == 1
    assert err.endswith(" candidate blocks, more than the limit of 5000\n")


def test_a_count_too_long_to_print_is_shown_by_its_order(capsys, no_blocks):
    at_budget = f"0..{10 ** INPUT_DIGITS - 1}"
    argv = ["--generic-chi", at_budget, "--generic-c1sq", at_budget, "--generic-genus", at_budget]
    code, out, err = run(capsys, "search", "--target", "24,0,24", "--families", "", *argv)
    assert (code, out) == (1, "")
    assert err == (
        f"error: search bounds allow at least 10**{2 * INPUT_DIGITS} candidate blocks, "
        "more than the limit of 5000\n"
    )


# -- one digit budget for every integer input --------------------------------

AT_BUDGET = "9" * INPUT_DIGITS


def _budget_line(what: str, token: str) -> str:
    """The usage error for an argv integer over the budget; ``what`` names where it was given."""
    return (
        f"usage error: {what.format(f'at most {INPUT_DIGITS} digits')}, got {token[:20]!r}... "
        f"({len(token) - token.startswith('-')} digits)\n"
    )


# subcommand -> (command line with {n} for the integer, its exit code with n at the
# budget, what it then prints in full, on stdout and stderr, as a function of n,
# and where its first over-budget integer was given, as _budget_line takes it)
BUDGET_COMMANDS = {
    "block": (
        ["block", "elliptic", "--m", "{n}"],
        0,
        lambda n: f"E({n})\nchi_h             {n}",
        "argument --m: expected an integer of {}",
    ),
    "product": (
        ["product", "elliptic", "--m", "{n}", "--surface-genus", "{n}"],
        0,
        lambda n: f"c3    = {12 * n * (2 - 2 * n)}\n",
        "argument --surface-genus: expected an integer of {}",
    ),
    "fibersum": (
        ["fibersum", "elliptic", "--m", "{n}", "knot-elliptic", "--k", "{n}", "--knot-genus",
         "{n}", "--oracle", "--explain"],
        0,
        lambda n: "c1c2  = {}\n".format(
            halic_construction(elliptic_surface(n), knot_surgered_elliptic(n, n)).c1c2
        ),
        "argument --m: expected an integer of {}",
    ),
    "search-target": (
        ["search", "--target", "{n},0,-{n}"],
        0,
        lambda n: f"3*c3 = {3 * n} differs",
        "argument --target: expected an integer of {} for a Chern number",
    ),
    "search-limit": (
        ["search", "--target", "24,0,24", "--families", "elliptic", "--max-m", "{n}"],
        1,
        lambda n: f"search bounds allow {n} candidate blocks",
        "argument --max-m: expected an integer of {}",
    ),
    "search-grid": (
        ["search", "--target", "24,0,24", "--families", "", "--generic-chi", "{n}..{n}",
         "--generic-c1sq", "0..0", "--generic-genus", "0..{n}"],
        1,
        lambda n: f"search bounds allow {n + 1} candidate blocks",
        "argument --generic-chi: expected an integer of {} for range start",
    ),
    "classify": (
        ["classify", "--chi", "{n}", "--c1sq", "-{n}"],
        0,
        lambda n: f"({n}, {-n})",
        "argument --chi: expected an integer of {}",
    ),
    "plot": (
        ["plot", "--chi", "{n}..{n}", "--c1sq", "0..0"],
        0,
        lambda n: f"{n},0,many-basic-classes,{n - 2},",
        "argument --chi: expected an integer of {} for range start",
    ),
}


@pytest.mark.parametrize("command", BUDGET_COMMANDS)
def test_every_subcommand_prints_integers_at_the_budget_in_full(capsys, request, command):
    template, code, printed, _ = BUDGET_COMMANDS[command]
    if template[0] == "search":
        request.getfixturevalue("no_blocks")  # these bounds are refused before any block
    result, out, err = run(capsys, *(arg.format(n=AT_BUDGET) for arg in template))
    assert result == code, err
    assert printed(int(AT_BUDGET)) in out + err
    assert "Traceback" not in err and "int_max_str_digits" not in err


@pytest.mark.parametrize("command", BUDGET_COMMANDS)
def test_every_subcommand_refuses_an_integer_over_the_budget(capsys, command):
    template, _, _, what = BUDGET_COMMANDS[command]
    over = AT_BUDGET + "9"
    assert run(capsys, *(arg.format(n=over) for arg in template)) == (
        2, "", _budget_line(what, over)
    )


# (file content with {n} for the integer, the subcommand, what it prints with n
# at the budget, and the field an over-budget integer is named by)
BUDGET_FILES = [
    ('[{{"family": "elliptic", "m": {n}}}]', "catalog", lambda n: f"e={12 * n} g=1", "[0].m"),
    ('{{"families": ["elliptic"], "max_m": {n}}}', "search", lambda n: f"allow {n} candidate",
     "max_m"),
    ('{{"families": [], "generic": {{"chi_h": [0, 0], "c1_sq": [0, 0], "genus": [0, {n}]}}}}',
     "search", lambda n: f"allow {n + 1} candidate", "generic.genus[1]"),
]


@pytest.mark.parametrize("content, command, printed, field", BUDGET_FILES)
def test_json_integers_at_and_over_the_budget(capsys, request, tmp_path, content, command,
                                              printed, field):
    path = tmp_path / "input.json"
    if command == "catalog":
        argv = ["catalog", "--catalog", str(path)]
    else:
        argv = ["search", "--target", "24,0,24", "--config", str(path)]
        request.getfixturevalue("no_blocks")  # these bounds are refused before any block
    path.write_text(content.format(n=AT_BUDGET))
    _, out, err = run(capsys, *argv)
    assert printed(int(AT_BUDGET)) in out + err
    assert "too long" not in err
    path.write_text(content.format(n="-" + AT_BUDGET + "0"))
    assert run(capsys, *argv) == (1, "", (
        f"error: {path} holds an integer too long to read in field {field!r}: "
        f"{INPUT_DIGITS + 1} digits, more than the limit of {INPUT_DIGITS}\n"
    ))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    digits=st.integers(INPUT_DIGITS - 3, INPUT_DIGITS + 3),
    sign=st.sampled_from(["", "-"]),
    first=st.sampled_from("123456789"),
    data=st.data(),
)
def test_digit_counts_near_the_budget(capsys, tmp_path, digits, sign, first, data):
    token = sign + first + data.draw(st.text("0123456789", min_size=digits - 1, max_size=digits - 1))
    value = int(token)
    code, out, err = run(capsys, "classify", "--chi", token, "--c1sq", "0")
    if digits <= INPUT_DIGITS:
        assert (code, err) == (0, "")
        assert out.startswith(f"point             ({value}, 0)\n")
    else:
        assert (code, out, err) == (
            2, "", _budget_line("argument --chi: expected an integer of {}", token)
        )
    path = tmp_path / "blocks.json"
    record = {"name": "x", "chi_h": 0, "c1_sq": 0, "fiber_genus": 0, "singular_fibers": 0,
              "simply_connected": False}
    path.write_text(json.dumps([record]).replace('"chi_h": 0', f'"chi_h": {token}'))
    code, out, err = run(capsys, "catalog", "--catalog", str(path))
    if digits <= INPUT_DIGITS:
        assert (code, err) == (0, "")
        assert f" chi_h={value} c1_sq=0 sigma={-8 * value} e={12 * value} " in out
    else:
        assert (code, out) == (1, "")
        assert err == (
            f"error: {path} holds an integer too long to read in field '[0].chi_h': "
            f"{digits} digits, more than the limit of {INPUT_DIGITS}\n"
        )
