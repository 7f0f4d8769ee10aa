"""Malformed command lines: each exits 2 with one ``usage error:`` line.

``tests/test_inputs.py`` runs every case through ``cli.main``.  Run as a
script, this file runs every case through ``python -m cherngeo.cli`` in a
fresh process, with the standard library alone, and exits 1 if any case
does not exit 2 with empty stdout and exactly one stderr line starting
``usage error: ``::

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
    ["search", "--target", "24,0,24", "--generic-chi", ""],
    ["fibersum", "elliptic", "--m", "2"],
    ["block", "elliptic", "--m", "2", "--m=3"],
]


def problem(argv):
    """What is wrong with how ``cherngeo argv`` fails in a fresh process, or None."""
    proc = subprocess.run(
        [sys.executable, "-m", "cherngeo.cli", *argv], capture_output=True, text=True
    )
    if proc.returncode != 2:
        return f"exit {proc.returncode}"
    if proc.stdout:
        return f"stdout {proc.stdout!r}"
    if not (proc.stderr.startswith("usage error: ") and proc.stderr.count("\n") == 1):
        return f"stderr {proc.stderr!r}"
    return None


if __name__ == "__main__":
    failed = 0
    for argv in MALFORMED:
        found = problem(argv)
        failed += found is not None
        print(f"{'FAIL' if found else 'ok'}: cherngeo {' '.join(map(repr, argv))}"
              + (f": {found}" if found else ""))
    print(f"{len(MALFORMED) - failed} of {len(MALFORMED)} malformed command lines exit 2 "
          "with one usage error line")
    sys.exit(1 if failed else 0)
