"""Golden outputs of every CLI line in README.md.

Each README command runs through ``main`` in a fresh directory holding the
``blocks.json`` the catalog example names.  The exit code and the sha256 of
stdout (or of the ``--output`` file) and of stderr must match the values
recorded here; optional ``[...]`` groups are expanded into every combination.
"""

import hashlib
import itertools
import json
import re
from pathlib import Path

import pytest

from cherngeo.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

CATALOG = [
    {"family": "elliptic", "m": 2},
    {"family": "knot-surgered-elliptic", "k": 2, "knot_genus": 0},
    {"family": "ruled-spheres"},
    {"family": "generic", "name": "G", "chi_h": 2, "c1_sq": 0, "fiber_genus": 1,
     "singular_fibers": 24, "simply_connected": True},
    {"name": "X", "chi_h": 1, "c1_sq": 8, "fiber_genus": 0, "singular_fibers": 0,
     "simply_connected": True},
]

# command line -> (exit code, sha256 of stdout or of the --output file, sha256 of stderr)
EMPTY = hashlib.sha256(b"").hexdigest()

EXPECTED = {
    "block elliptic --m 2": (
        0,
        "64d4b43d233e6f48eb41e231cb77150461f3cb1afb2b646f4ac2cf83c6f90e0a",
        EMPTY,
    ),
    "block generic --chi 1 --c1sq 8 --genus 0 --n 0": (
        0,
        "5d5a44a633df7b057719e2c3cb1866a33ffccf27be4cce73c694f5847999f1c8",
        EMPTY,
    ),
    "product ruled-spheres --surface-genus 0": (
        0,
        "6b276001f54c15b8ae5426e028a0adfd48ce060b9f6158f9f5aef8e8dbdf76fd",
        EMPTY,
    ),
    "fibersum elliptic --m 3 ruled-spheres": (
        0,
        "010e7e4dea3a2436e2540f34ca0de8c0d725344019142afa79e2d95297c56061",
        EMPTY,
    ),
    "fibersum elliptic --m 2 knot-elliptic --k 2 --knot-genus 0 --oracle": (
        0,
        "c112e17cb6da5034968323a73f477bd6883f2e7e47fb2d0f4e008a65ddc204f2",
        "bc24df2811e54bb58758f2124398e8150dacfd40c6062e9b142db16cdefe9c98",
    ),
    "search --target 24,0,24 --max-m 5": (
        0,
        "7d3efe86bf8fd680455a35e77d922c1ba1d2910de17d0f5d3b3408c14a7ecd57",
        EMPTY,
    ),
    "search --target 0,0,0 --generic-chi 0..2 --generic-c1sq 0..8 --generic-genus 0..2": (
        0,
        "07b0c5fc2adf09d9e456141586587a810659a6130287638817b5679559190f38",
        EMPTY,
    ),
    "classify --chi 2 --c1sq 0": (
        0,
        "47032ef122fa17bceb965eaa6a1ec82af937574de25bde576e54e5dfcf0d2770",
        EMPTY,
    ),
    "plot --chi 0..10 --c1sq -5..95 --format csv": (
        0,
        "5bfb71331823286bbfa7ddf6451354f8ef5f207a9133f25427cac24c4a0e43ea",
        EMPTY,
    ),
    "plot --chi 0..10 --c1sq -5..95 --format svg --output geography.svg": (
        0,
        "35715fefe10fdee71cd4ee3317d72f08d6fd54640af6bebf24a03b2871d862c3",
        EMPTY,
    ),
    "catalog": (
        0,
        "0b6c406623e4aa84f414e9db290895063f1052931dafe88dd7f0579400f98205",
        EMPTY,
    ),
    "catalog --format json": (
        0,
        "65aaf4dee6023d04a6aeac4a28e4c07ccc29b5c24f66c5a4f874080c4b94c108",
        EMPTY,
    ),
    "catalog --catalog blocks.json": (
        0,
        "74d4c63cc76ad476895aaec95c35784cc10bd978b545c6e6612c7ffc32a927de",
        EMPTY,
    ),
    "catalog --catalog blocks.json --format json": (
        0,
        "bad22da6e7de31bb223aa7343dc9f2ed14c9b95704a76ddd6368b65f948ec96c",
        EMPTY,
    ),
}


def readme_commands() -> list[str]:
    """The ``cherngeo`` lines of README's CLI section, optional groups expanded."""
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line.startswith("cherngeo "):
            continue
        parts = re.split(r"\[([^\]]*)\]", line[len("cherngeo "):])
        fixed, optional = parts[0::2], parts[1::2]
        for chosen in itertools.product((False, True), repeat=len(optional)):
            text = fixed[0]
            for use, group, tail in zip(chosen, optional, fixed[1:]):
                text += (group if use else "") + tail
            commands.append(" ".join(text.split()))
    return commands


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_readme_commands_all_recorded():
    assert sorted(readme_commands()) == sorted(EXPECTED)


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_golden(command, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "blocks.json").write_text(json.dumps(CATALOG), encoding="utf-8")
    argv = command.split()
    code = main(argv)
    captured = capsys.readouterr()
    if "--output" in argv:
        assert captured.out == ""
        out = (tmp_path / argv[argv.index("--output") + 1]).read_bytes()
    else:
        out = captured.out.encode("utf-8")
    assert (code, _sha(out), _sha(captured.err.encode("utf-8"))) == EXPECTED[command]
