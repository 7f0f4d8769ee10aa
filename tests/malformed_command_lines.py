"""Malformed and invalid command lines, each failing with one stderr line.

A malformed command line (``MALFORMED``) exits 2 with one ``usage error:``
line.  A well-formed command line with a value the command refuses
(``INVALID``) exits 1 with one ``error:`` line.  Either way stdout is empty.
A request for help (``HELP``), at the top level or of any subcommand, exits
0 with the help on stdout and nothing on stderr.  ``tests/test_inputs.py``
runs every case through ``cli.main``.  Run as a script, this file runs
every case through ``python -m cherngeo.cli`` in a fresh process, with the
standard library alone, and exits 1 if any case does not exit with its
code and the output its kind asks for, or runs longer than ``TIMEOUT``
seconds::

    PYTHONPATH=src python tests/malformed_command_lines.py
"""

import subprocess
import sys

# One digit more than any integer input may have (cherngeo.catalog.INPUT_DIGITS).
OVER_BUDGET = "1" * 2_001

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
    # Each family parameter one below its least value.
    ["block", "elliptic", "--m", "0"],
    ["block", "knot-elliptic", "--k", "0", "--knot-genus", "0"],
    ["block", "knot-elliptic", "--k", "1", "--knot-genus", "-1"],
    # An integer of more than the digit budget, for every integer flag.
    ["block", "elliptic", "--m", OVER_BUDGET],
    ["block", "knot-elliptic", "--k", OVER_BUDGET, "--knot-genus", "0"],
    ["block", "knot-elliptic", "--k", "1", "--knot-genus", OVER_BUDGET],
    ["block", "generic", "--chi", OVER_BUDGET, "--c1sq", "0", "--genus", "0", "--n", "0"],
    ["block", "generic", "--chi", "0", "--c1sq", OVER_BUDGET, "--genus", "0", "--n", "0"],
    ["block", "generic", "--chi", "0", "--c1sq", "0", "--genus", OVER_BUDGET, "--n", "0"],
    ["block", "generic", "--chi", "0", "--c1sq", "0", "--genus", "0", "--n", OVER_BUDGET],
    ["product", "elliptic", "--m", "1", "--surface-genus", OVER_BUDGET],
    ["search", "--target", f"{OVER_BUDGET},0,0"],
    ["search", "--target", f"0,0,-{OVER_BUDGET}"],
    *(["search", "--target", "24,0,24", flag, OVER_BUDGET]
      for flag in ("--max-m", "--max-k", "--max-knot-genus")),
    *(["search", "--target", "24,0,24", flag, f"0..{OVER_BUDGET}"]
      for flag in ("--generic-chi", "--generic-c1sq", "--generic-genus")),
    ["classify", "--chi", OVER_BUDGET, "--c1sq", "0"],
    ["classify", "--chi", "0", "--c1sq", f"-{OVER_BUDGET}"],
    ["plot", "--chi", f"{OVER_BUDGET}..{OVER_BUDGET}", "--c1sq", "0..1"],
    ["plot", "--chi", "0..1", "--c1sq", f"-{OVER_BUDGET}..0"],
    # An option of each subcommand given twice.
    ["classify", "--chi", "1", "--chi", "5", "--c1sq", "0"],
    ["search", "--target", "0,0,0", "--target", "24,0,24"],
    ["plot", "--chi", "0..1", "--chi", "2..3", "--c1sq", "0..1"],
    ["fibersum", "elliptic", "--m", "2", "ruled-spheres", "--oracle", "--oracle"],
    ["block", "elliptic", "--m", "2", "--format", "json", "--format", "human"],
    ["product", "elliptic", "--m", "1", "--surface-genus", "0", "--surface-genus", "1"],
    ["catalog", "--format", "json", "--format", "json"],
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
    # About 12.5 million realizations, over geography.SEARCH_RESULT_LIMIT.
    ["search", "--target", "0,0,0", "--families", "elliptic", "--max-m", "5000"],
    # A generic grid whose genus range lies below 0.
    ["search", "--target", "24,0,24", "--max-m", "1", "--max-k", "0", "--generic-chi", "0..1",
     "--generic-c1sq", "0..1", "--generic-genus", "-3..-1"],
]

HELP = [
    ["--help"],
    *([command, "--help"]
      for command in ("block", "product", "fibersum", "search", "classify", "plot", "catalog")),
]

# (cases, exit code, stderr prefix or None for help, what the summary calls them)
KINDS = [
    (MALFORMED, 2, "usage error: ", "malformed command lines exit 2 with one usage error line"),
    (INVALID, 1, "error: ", "invalid values exit 1 with one error line"),
    (HELP, 0, None, "help requests exit 0 with help on stdout and nothing on stderr"),
]


# Seconds a case may run.  Every case exits within a few seconds, so one still
# running after a minute has work that nothing bounds.
TIMEOUT = 60


def problem(argv, code, prefix):
    """What is wrong with how ``cherngeo argv`` ends in a fresh process, or None."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cherngeo.cli", *argv],
            capture_output=True,
            text=True,
            timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return f"no exit within {TIMEOUT} s"
    if proc.returncode != code:
        return f"exit {proc.returncode}"
    if prefix is None:
        if proc.stdout and not proc.stderr:
            return None
        return f"stdout {len(proc.stdout)} characters, stderr {proc.stderr!r}"
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
            # A token over 24 characters is shown by its length.
            tokens = [repr(t) if len(t) <= 24 else f"<{len(t)} characters>" for t in argv]
            print(f"{'FAIL' if found else 'ok'}: cherngeo {' '.join(tokens)}"
                  + (f": {found}" if found else ""))
        print(f"{len(cases) - failed_here} of {len(cases)} {summary}")
        failed += failed_here
    sys.exit(1 if failed else 0)
