"""Malformed and invalid command lines, each failing with one stderr line.

A malformed command line (``MALFORMED``) exits 2 with one ``usage error:``
line.  A well-formed command line with a value the command refuses
(``INVALID``) exits 1 with one ``error:`` line.  Either way stdout is empty.
``tests/test_inputs.py`` runs every case through ``cli.main``.  Run as a
script, this file runs every case through ``python -m cherngeo.cli`` in a
fresh process, with the standard library alone, and exits 1 if any case
does not exit with its code, empty stdout and exactly one stderr line
starting with its prefix::

    PYTHONPATH=src python tests/malformed_command_lines.py
"""

import subprocess
import sys

MALFORMED = [
    [],  # no subcommand
    ["geography"],  # unknown subcommand
    ["search"],  # no --target
    ["search", "--target", "24,0"],
    ["search", "--target", "24,0,x"],
    ["classify", "--chi", "x", "--c1sq", "0"],
    ["classify", "--chi", "0", "--c1sq", "0", "--format", "xml"],
    ["catalog", "--format="],
    ["plot", "--chi", "0..x", "--c1sq", "0..1"],
    ["plot", "--chi", "0..1", "--c1sq", "0-1"],
    ["search", "--target", "24,0,24", "--generic-chi", ""],
    ["search", "--target", "24,0,24", "--generic-genus=y..1"],
    ["fibersum", "elliptic", "--m", "2"],
    ["block", "elliptic", "--m", "2", "--m=3"],
    ["block", "elliptic", "--m"],  # a block flag with no value
    ["search", "--target", "24,0,24", "--generic-chi", "0..1"],  # part of the generic grid
]

INVALID = [
    ["plot", "--chi", "1..-2", "--c1sq", "0..1"],  # an empty range
    ["plot", "--chi", "2..2", "--c1sq", "0..1", "--format", "svg"],  # too narrow for a chart
    ["plot", "--chi", "0..0", "--c1sq", "0..1000000"],  # one point over plot.GRID_POINT_LIMIT
    # Chart coordinates beyond float range: an OverflowError, and inf coordinates.
    ["plot", "--chi", "0.." + "1" + "0" * 308, "--c1sq", "0..5", "--format", "svg"],
    ["plot", "--chi", "0.." + "1" + "0" * 306, "--c1sq", "0..1", "--format", "svg"],
    # One block over geography.SEARCH_BLOCK_LIMIT.
    ["search", "--target", "24,0,24", "--families", "elliptic", "--max-m", "5001"],
]

# (cases, exit code, stderr prefix, what the summary calls them)
KINDS = [
    (MALFORMED, 2, "usage error: ", "malformed command lines exit 2 with one usage error line"),
    (INVALID, 1, "error: ", "invalid values exit 1 with one error line"),
]


def problem(argv, code, prefix):
    """What is wrong with how ``cherngeo argv`` fails in a fresh process, or None."""
    proc = subprocess.run(
        [sys.executable, "-m", "cherngeo.cli", *argv], capture_output=True, text=True
    )
    if proc.returncode != code:
        return f"exit {proc.returncode}"
    if proc.stdout:
        return f"stdout {proc.stdout!r}"
    if not (proc.stderr.startswith(prefix) and proc.stderr.count("\n") == 1):
        return f"stderr {proc.stderr!r}"
    return None


if __name__ == "__main__":
    failed = 0
    for cases, code, prefix, summary in KINDS:
        failed_here = 0
        for argv in cases:
            found = problem(argv, code, prefix)
            failed_here += found is not None
            print(f"{'FAIL' if found else 'ok'}: cherngeo {' '.join(map(repr, argv))}"
                  + (f": {found}" if found else ""))
        print(f"{len(cases) - failed_here} of {len(cases)} {summary}")
        failed += failed_here
    sys.exit(1 if failed else 0)
