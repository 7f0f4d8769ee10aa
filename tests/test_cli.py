import json
import re

import pytest

from cherngeo.cli import main, parse_block_specs
from cherngeo.catalog import elliptic_surface, ruled_spheres


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


def test_fibersum_oracle_validates_each_block_once(capsys, monkeypatch):
    from cherngeo import invariants

    seen = []
    real = invariants.validate_block
    monkeypatch.setattr(invariants, "validate_block", lambda b: seen.append(b.name) or real(b))
    code, _, err = run(capsys, "fibersum", "elliptic", "--m", "3", "ruled-spheres", "--oracle")
    assert code == 0
    assert "oracle: agreed" in err
    assert seen == ["E(3)", "S2xS2"]


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


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
