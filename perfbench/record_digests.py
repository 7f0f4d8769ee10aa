#!/usr/bin/env python3
"""Record the outputs that plot-grid and cli-cold compare against.

Run from the repository root::

    python3 perfbench/record_digests.py

It writes ``perfbench/digests.json``: the CSV and SVG digests of every
plot-grid window, and the exit code and stdout digest of each cli-cold
command.  Outputs are meant to stay byte-identical, so record
again only in a change whose purpose is to alter them, and say so there.
"""

from __future__ import annotations

import json
import os
import sys

from workloads import (
    CLI_SCRIPT,
    DIGESTS,
    OUT,
    SRC,
    cli_argv,
    cli_process,
    digest,
    plot_window,
    plot_windows,
    write_cli_catalog,
)


def plot_records() -> list[dict]:
    sys.path.insert(0, str(SRC))
    from cherngeo import plot

    records = []
    for window in plot_windows():
        csv, svg = (digest(text.encode("utf-8")) for text in plot_window(plot, window))
        records.append({"window": list(window), "csv": csv, "svg": svg})
    return records


def cli_records() -> list[dict]:
    catalog_path = OUT / f"catalog-{os.getpid()}.json"
    write_cli_catalog(catalog_path)
    try:
        records = []
        for argv in CLI_SCRIPT:
            code, stdout = cli_process(cli_argv(argv, catalog_path))
            records.append({"argv": list(argv), "exit": code, "stdout": digest(stdout)})
        return records
    finally:
        catalog_path.unlink()


def main() -> int:
    sections = {"plot-grid": plot_records(), "cli-cold": cli_records()}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        fh.write(",\n".join(
            f'"{name}": [\n' + ",\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n]"
            for name, records in sections.items()
        ))
        fh.write("\n}\n")
    print(f"wrote {DIGESTS}: {len(sections['plot-grid'])} windows, "
          f"{len(sections['cli-cold'])} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
