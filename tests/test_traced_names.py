"""Every function the benchmark traces exists as a plain function.

``perfbench/tracing.py`` wraps each ``module.name`` of ``perfbench/run.py``'s
``TRACED_FUNCTIONS`` and ``TIMED_FUNCTIONS`` only when it is a plain
function, and reads a missing or wrapped one as 0 without an error.  So a
renamed, moved or cached layer function would leave its metrics at 0 while
the run still ends correct.  The two tuples are read from the benchmark's
source with ``ast``; the benchmark is neither imported nor changed.
"""

import ast
import importlib
import inspect
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"

# Deleted from the package; dropping it from the benchmark is a benchmark change.
ALLOWED_MISSING = {"algebra.evaluate"}


def _benchmark_names() -> list[str]:
    names = []
    for node in ast.parse(RUN_PY.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id in ("TRACED_FUNCTIONS", "TIMED_FUNCTIONS")
            for target in node.targets
        ):
            names += ast.literal_eval(node.value)
    return names


def test_benchmark_names_are_read():
    names = _benchmark_names()
    assert "plot.grid_csv" in names and "geography.classify_geography_point" in names


def test_every_traced_name_is_a_plain_function():
    missing, not_plain = set(), []
    for name in _benchmark_names():
        module, attr = name.split(".")
        value = getattr(importlib.import_module(f"cherngeo.{module}"), attr, None)
        if value is None:
            missing.add(name)
        elif not inspect.isfunction(value):
            not_plain.append(f"{name} is {type(value).__name__}")
    assert missing <= ALLOWED_MISSING
    assert not_plain == []
