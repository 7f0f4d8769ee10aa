import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from cherngeo.cli import main, parse_block_specs
from cherngeo.catalog import elliptic_surface, ruled_spheres
from cherngeo.invariants import ChernTriple


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_block_specs():
    blocks = parse_block_specs(["elliptic", "--m", "3", "ruled-spheres"])
    assert blocks == [elliptic_surface(3), ruled_spheres()]
    blocks = parse_block_specs(["knot-elliptic", "--k", "2", "--knot-genus", "0"])
    assert blocks[0].fiber_genus == 1


def test_block_command(capsys):
    code, out, err = run(capsys, "block", "elliptic", "--m", "2")
    assert code == 0
    assert "chi_h             2" in out
    assert "sigma             -16" in out
    assert "euler             24" in out


def test_block_command_json(capsys):
    code, out, _ = run(capsys, "block", "ruled-spheres", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["chi_h"] == 1
    assert record["c1_sq"] == 8
    assert record["sigma"] == 0
    assert record["euler"] == 4


def test_block_usage_error(capsys):
    code, _, err = run(capsys, "block", "elliptic", "--m", "0")
    assert code == 2
    assert "usage error" in err


def test_block_validation_failure(capsys):
    code, _, err = run(
        capsys, "block", "generic", "--chi", "1", "--c1sq", "0", "--genus", "1", "--n", "0"
    )
    assert code == 1
    assert "violation" in err


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    chi=st.integers(-20, 20),
    off_euler=st.sampled_from([0, 0, 0, -1, 1, 12]),  # c1^2 away from the fibration's e
    g=st.integers(0, 8),
    n=st.integers(0, 40),
    sc=st.booleans(),
)
@example(chi=1, off_euler=0, g=1, n=12, sc=True)  # E(1): valid
@example(chi=1, off_euler=1, g=1, n=12, sc=True)  # the Euler rule alone fails
@example(chi=0, off_euler=0, g=2, n=4, sc=True)  # n > 2g alone fails
@example(chi=0, off_euler=-1, g=2, n=3, sc=True)  # both fail
def test_block_generic_json_derives_invariants(capsys, chi, off_euler, g, n, sc):
    e_fibration = 2 * (2 - 2 * g) + n
    c1sq = 12 * chi - e_fibration + off_euler
    argv = ["block", "generic", "--chi", str(chi), "--c1sq", str(c1sq),
            "--genus", str(g), "--n", str(n), "--format", "json"]
    code, out, err = run(capsys, *argv, *([] if sc else ["--not-simply-connected"]))
    record = json.loads(out)
    assert (record["chi_h"], record["c1_sq"]) == (chi, c1sq)
    assert record["sigma"] == c1sq - 8 * chi
    assert record["euler"] == record["c2"] == 12 * chi - c1sq
    expected = []
    if 12 * chi - c1sq != e_fibration:
        expected.append(f"violation: euler != 2(2-2g)+n ({12 * chi - c1sq} != {e_fibration})")
    if sc and 0 < n <= 2 * g:
        expected.append(f"violation: simply connected requires n > 2g ({n} <= {2 * g})")
    assert err.splitlines() == expected
    assert code == (1 if expected else 0)


def test_product_command(capsys):
    code, out, _ = run(
        capsys, "product", "ruled-spheres", "--surface-genus", "0", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"c3": 8, "c1_cubed": 48, "c1c2": 24}


def test_fibersum_worked_example(capsys):
    code, out, _ = run(capsys, "fibersum", "elliptic", "--m", "3", "ruled-spheres")
    assert code == 0
    assert "c3    = 72" in out
    assert "c1c2  = 72" in out


def test_fibersum_calabi_yau(capsys):
    code, out, _ = run(
        capsys, "fibersum", "elliptic", "--m", "2",
        "knot-elliptic", "--k", "2", "--knot-genus", "0", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"c3": 0, "c1_cubed": 0, "c1c2": 0}


def test_fibersum_oracle_flag(capsys):
    code, out, err = run(
        capsys, "fibersum", "elliptic", "--m", "1",
        "knot-elliptic", "--k", "1", "--knot-genus", "1", "--oracle", "--format", "json",
    )
    assert code == 0
    assert "oracle: agreed" in err
    assert json.loads(out) == {"c3": -24, "c1_cubed": 0, "c1c2": -24}


def test_fibersum_oracle_validates_each_block_once(capsys, spy):
    from cherngeo import invariants

    seen = spy(invariants, "validate_block")
    code, _, err = run(capsys, "fibersum", "elliptic", "--m", "3", "ruled-spheres", "--oracle")
    assert code == 0
    assert "oracle: agreed" in err
    assert [b.name for b, in seen] == ["E(3)", "S2xS2"]


def test_fibersum_oracle_still_rejects_an_invalid_block(capsys):
    code, out, err = run(
        capsys, "fibersum", "generic", "--chi", "1", "--c1sq", "0", "--genus", "1", "--n", "5",
        "elliptic", "--m", "1", "--oracle",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("validation error: invalid block")


EXPLAINED_PAIRS = [
    ("elliptic", "--m", "3", "ruled-spheres"),
    ("elliptic", "--m", "2", "knot-elliptic", "--k", "2", "--knot-genus", "0"),
    ("ruled-spheres", "ruled-spheres"),
    ("knot-elliptic", "--k", "3", "--knot-genus", "2",
     "generic", "--chi", "2", "--c1sq", "3", "--genus", "4", "--n", "33"),
]


@pytest.mark.parametrize("pair", EXPLAINED_PAIRS)
@pytest.mark.parametrize(
    "flags", [(), ("--oracle",), ("--format", "json"), ("--oracle", "--format", "json")]
)
def test_fibersum_explain_leaves_stdout_unchanged(capsys, pair, flags):
    plain = run(capsys, "fibersum", *pair, *flags)
    code, out, err = run(capsys, "fibersum", *pair, *flags, "--explain")
    assert (code, out) == plain[:2]
    assert err.endswith(plain[2])


def test_readme_explain_line_prints_the_plain_stdout(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    explained = [
        line.split("#", 1)[0].split()[1:]
        for line in readme.splitlines()
        if line.startswith("cherngeo ") and "--explain" in line
    ]
    assert explained
    for argv in explained:
        code, out, err = run(capsys, *argv)
        assert (code, out) == run(capsys, *(a for a in argv if a != "--explain"))[:2]
        assert err.startswith("explain: ")


@pytest.mark.parametrize("pair", EXPLAINED_PAIRS)
def test_fibersum_explain_reproduces_the_printed_triple(capsys, pair):
    code, out, err = run(capsys, "fibersum", *pair, "--explain", "--format", "json")
    assert code == 0
    lines = err.splitlines()
    assert len(lines) == 5 and all(line.startswith("explain: ") for line in lines)
    # Every number after an "=" past the last ": " (block names hold "=" too),
    # but not a coefficient such as the "-2" of "-2*c2".
    product1, product2, (c1_sq, c2), corrections, result = (
        [int(v) for v in re.findall(r"=\s?(-?\d+)(?![\d*])", line.rsplit(": ", 1)[1])]
        for line in lines
    )
    assert "X1 x S2" in lines[0] and "X2 x S1" in lines[1] and "S1 x S2" in lines[2]
    assert "Gompf's symplectic sum, Annals 142, 1995; trivial normal bundle" in lines[3]
    assert corrections == [-2 * c2, -6 * c1_sq, -2 * c1_sq - 2 * c2]
    triple = json.loads(out)
    printed = [triple["c3"], triple["c1_cubed"], triple["c1c2"]]
    assert [a + b + c for a, b, c in zip(product1, product2, corrections)] == printed
    assert result == printed


def test_fibersum_explain_prints_the_parts_the_oracle_sums(capsys, monkeypatch):
    from cherngeo import fibersum

    parts = ChernTriple(1, 2, 3), ChernTriple(10, 20, 30), ChernTriple(100, 200, 300)
    monkeypatch.setattr(fibersum, "fiber_sum_parts", lambda b1, b2: parts)
    code, _, err = run(capsys, "fibersum", "elliptic", "--m", "3", "ruled-spheres", "--explain")
    lines = err.splitlines()
    assert code == 0 and len(lines) == 5
    assert lines[0].endswith(": c3=1 c1^3=2 c1c2=3")
    assert lines[1].endswith(": c3=10 c1^3=20 c1c2=30")
    assert lines[3].endswith(
        "c3 += -2*c2 = 100, c1^3 += -6*c1^2 = 200, c1c2 += -2*c1^2 - 2*c2 = 300"
    )
    assert lines[4].endswith(": c3=111 c1^3=222 c1c2=333")


def test_fibersum_oracle_mismatch_exits_1(capsys, monkeypatch):
    from cherngeo import fibersum

    monkeypatch.setattr(
        fibersum, "halic_construction_via_oracle", lambda b1, b2, check=True: ChernTriple(1, 2, 3)
    )
    code, out, err = run(capsys, "fibersum", "elliptic", "--m", "3", "ruled-spheres", "--oracle")
    assert (code, out) == (1, "")
    assert err.startswith("oracle mismatch: closed form ") and err.count("\n") == 1
    assert "vs symbolic {'c3': 1, 'c1_cubed': 2, 'c1c2': 3}" in err


def test_fibersum_explain_rejects_an_invalid_block_first(capsys):
    code, out, err = run(
        capsys, "fibersum", "generic", "--chi", "1", "--c1sq", "0", "--genus", "1", "--n", "5",
        "elliptic", "--m", "1", "--explain",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("validation error: invalid block") and "explain" not in err


def test_search_worked_example(capsys):
    code, out, _ = run(capsys, "search", "--target", "24,0,24", "--max-m", "5")
    assert code == 0
    assert "E(1) + S2xS2" in out


def test_search_obstruction(capsys):
    code, out, err = run(capsys, "search", "--target", "2,2,24")
    assert code == 0
    assert out.strip() == ""
    assert "divisible by 6" in err


def test_search_off_plane_obstruction(capsys):
    code, out, err = run(capsys, "search", "--target", "26,0,24")
    assert code == 0
    assert out == ""
    assert err == (
        "obstruction: 3*c3 = 78 differs from 3*c1c2 - c1^3 = 72\n"
        "no realizations found\n"
    )


def test_search_divisibility_failure(capsys):
    code, _, err = run(capsys, "search", "--target", "0,0,1")
    assert code == 0
    assert "divisible by 24" in err


def test_search_json_deterministic(capsys):
    argv = ["search", "--target", "24,0,24", "--max-m", "3", "--format", "json"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    payload = json.loads(out1)
    assert any(r["block1"]["name"] == "E(1)" for r in payload)


def test_search_config_file(capsys, tmp_path):
    config = tmp_path / "bounds.json"
    config.write_text(json.dumps({"families": ["elliptic", "ruled-spheres"], "max_m": 4}))
    code, out, _ = run(
        capsys, "search", "--target", "48,0,48", "--config", str(config)
    )
    assert code == 0
    assert "E(2) + S2xS2" in out


def test_classify_elliptic_point(capsys):
    code, out, _ = run(capsys, "classify", "--chi", "2", "--c1sq", "0")
    assert code == 0
    assert "elliptic axis     yes" in out
    assert "sigma < 0" in out


def test_console_script_reads_sys_argv(capsys, monkeypatch):
    # The cherngeo entry point calls main() with no argument.
    argv = ["classify", "--chi", "2", "--c1sq", "0"]
    monkeypatch.setattr("sys.argv", ["cherngeo", *argv])
    assert main() == 0
    assert capsys.readouterr().out == run(capsys, *argv)[1]


def test_classify_sigma_zero(capsys):
    code, out, _ = run(capsys, "classify", "--chi", "1", "--c1sq", "8", "--format", "json")
    assert code == 0
    assert json.loads(out)["signature_sign"] == 0


@pytest.mark.parametrize(
    "chi, c1sq, expected",
    [
        (5, 0, '{"basic_class_count": 3, "c1_sq": 0, "chi_h": 5, "labels": '
               '["many-basic-classes"], "on_elliptic_axis": true, "signature_sign": -1}'),
        (1, 8, '{"basic_class_count": null, "c1_sq": 8, "chi_h": 1, "labels": '
               '["general-type"], "on_elliptic_axis": false, "signature_sign": 0}'),
        (5, 4, '{"basic_class_count": null, "c1_sq": 4, "chi_h": 5, "labels": '
               '["one-basic-class", "general-type"], "on_elliptic_axis": false, '
               '"signature_sign": -1}'),
    ],
)
def test_classify_json_bytes(capsys, chi, c1sq, expected):
    code, out, err = run(
        capsys, "classify", "--chi", str(chi), "--c1sq", str(c1sq), "--format", "json"
    )
    assert (code, out, err) == (0, expected + "\n", "")


def test_plot_csv(capsys):
    code, out, _ = run(capsys, "plot", "--chi", "0..2", "--c1sq", "-1..1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("chi_h,c1_sq,labels")
    assert len(lines) == 1 + 3 * 3


def test_plot_svg_file(capsys, tmp_path):
    out_file = tmp_path / "fig.svg"
    code, _, _ = run(
        capsys, "plot", "--chi", "0..10", "--c1sq", "-5..95",
        "--format", "svg", "--output", str(out_file),
    )
    assert code == 0
    svg = out_file.read_text()
    assert svg.startswith("<svg")
    assert "stroke-dasharray" in svg  # dashed elliptic axis
    assert "c1^2 = 9*chi_h" in svg


def test_plot_bad_format(capsys):
    code, _, err = run(capsys, "plot", "--chi", "0..2", "--c1sq", "0..2", "--format", "svgz")
    assert code == 2


def test_catalog_default(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "E(1)" in out
    assert "S2xS2" in out


def test_catalog_file(capsys, tmp_path):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([{"family": "elliptic", "m": 7}]))
    code, out, _ = run(capsys, "catalog", "--catalog", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["name"] == "E(7)"


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("usage error: "), err


@pytest.mark.parametrize("command", ["block", "product", "fibersum"])
def test_block_command_help_names_every_family_and_its_flags(capsys, command):
    from cherngeo.catalog import FAMILIES, FAMILY_ALIASES

    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    for name, (_, params, _) in FAMILIES.items():
        spec = " ".join([name, *(f"--{p.replace('_', '-')} {p.upper()}" for p in params)])
        assert re.search(rf"^  {re.escape(spec)}(  |$)", out, re.M), spec
    for alias in FAMILY_ALIASES:
        assert f"(alias: {alias})" in out
    assert "  generic --chi CHI --c1sq C1SQ --genus GENUS --n N [--not-simply-connected]" in out


def test_search_help_lists_one_flag_per_search_limit_in_order(capsys):
    from cherngeo.catalog import SEARCH_LIMITS, SearchBounds

    with pytest.raises(SystemExit) as info:
        main(["search", "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    flags = re.findall(r"^  (--max-[a-z-]+) ", out, re.M)
    assert flags == [f"--{limit.replace('_', '-')}" for limit in SEARCH_LIMITS]
    assert SearchBounds._fields == ("families", *SEARCH_LIMITS, "generic")


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "\n", "--chi", "0", "--c1sq", "0"],
        ["block", "--m\n", "3"],
        ["block", "elliptic", "--m\r\n", "2"],
        ["fibersum", "elliptic", "--m", "2", "ruled-spheres", "\u2028"],
        ["classify", "--chi", "0", "--c1sq", "\x85"],
    ],
)
def test_a_line_break_in_a_token_is_reported_on_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and len(err.splitlines()) == 1, err


def test_a_line_break_in_a_file_name_is_reported_on_one_line(capsys, tmp_path):
    path = tmp_path / "not\njson.json"
    path.write_text("{")
    code, out, err = run(capsys, "catalog", "--catalog", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert "not\\njson.json is not valid JSON" in err
