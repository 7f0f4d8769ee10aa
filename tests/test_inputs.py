"""Family names, block flags and malformed files at the input boundary.

Family names and aliases are checked against ``catalog.FAMILIES``; every
malformed catalog or search config exits 1 with one line that names the
offending entry or field, never with a traceback.
"""

import json

import pytest

from cherngeo.catalog import (
    FAMILIES,
    block_from_family,
    elliptic_surface,
    knot_surgered_elliptic,
)
from cherngeo.cli import main, parse_block_specs
from cherngeo.fibersum import halic_construction
from cherngeo.geography import SearchBounds
from cherngeo.invariants import block_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_block_from_family_reads_the_registry():
    for name, (build, params, _) in FAMILIES.items():
        args = [1] * len(params)
        assert block_from_family({"family": name, **dict(zip(params, args))}) == build(*args)
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
