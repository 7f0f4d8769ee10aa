"""CSV grids of the geography plane.

``grid_csv`` classifies one point per column run and joins a run's rows over
c1^2 strings shared by the whole window; the per-point renderer it replaced
is kept here as ``_reference_grid_csv`` and the two must agree byte for byte.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cherngeo.geography import (
    ELLIPTIC_AXIS,
    REGIONS,
    SIGNATURE_LINE,
    classify_geography_point,
    column_runs,
)
from cherngeo.plot import GRID_POINT_LIMIT, grid_csv


def _reference_grid_csv(chi_range, c1sq_range):
    """The per-point renderer: one classification for every grid point."""
    lines = ["chi_h,c1_sq,labels,basic_class_count,on_elliptic_axis,signature_sign"]
    for chi in range(chi_range[0], chi_range[1] + 1):
        for c1sq in range(c1sq_range[0], c1sq_range[1] + 1):
            cls = classify_geography_point(chi, c1sq)
            count = "" if cls.basic_class_count is None else str(cls.basic_class_count)
            lines.append(
                f"{chi},{c1sq},{';'.join(cls.labels)},{count},"
                f"{int(cls.on_elliptic_axis)},{cls.signature_sign}"
            )
    return "\n".join(lines) + "\n"


_LINES = sorted(
    {line for _, lower, upper in REGIONS for line in (lower, upper)}
    | {ELLIPTIC_AXIS, SIGNATURE_LINE}
)


def _windows_on_every_cut(chi):
    """One-column windows of column ``chi`` whose lower or upper edge is a cut value."""
    for a, b in _LINES:
        cut = a * chi + b
        yield (chi, chi), (cut, cut + 7)
        yield (chi, chi), (cut - 7, cut)


_CUT_EXAMPLES = [window for chi in (-3, -1, 0, 1, 3, 7) for window in _windows_on_every_cut(chi)]


def _ranges(lo, hi):
    """Inclusive ranges within [lo, hi], one in three a single value."""
    value = st.integers(lo, hi)
    return st.one_of(
        st.tuples(value, value).map(sorted).map(tuple),
        st.tuples(value, value).map(sorted).map(tuple),
        value.map(lambda v: (v, v)),
    )


@settings(max_examples=60, deadline=None)  # the reference takes ~3 us per point
@given(st.tuples(_ranges(-30, 60), _ranges(-300, 600)))
@example(((4, 4), (-20, 60)))  # one column
@example(((-10, 30), (24, 24)))  # one row, crossing 8*chi_h = 24
@example(((-5, -1), (-50, 10)))  # chi_h < 0: the floor c1^2 = 0 lies above the ceiling 9*chi_h
@example(((-2, -2), (-18, 0)))  # chi_h < 0, edges on the ceiling and on the floor
@example(((2, 2), (5, 5)))  # a single point
@example(((-3, 6), (-40, -1)))  # every c1^2 negative
# The strip's top, where the count reaches its least value: the strip is
# 0 <= c1^2 <= chi_h - 3, so its count chi_h - c1^2 - 2 never falls below 1.
@example(((10, 10), (0, 7)))
@example(((4, 12), (0, 9)))  # strips of every length from 1 to 9 rows
def test_grid_csv_matches_per_point_reference(window):
    chi_range, c1sq_range = window
    assert grid_csv(chi_range, c1sq_range) == _reference_grid_csv(chi_range, c1sq_range)


@pytest.mark.parametrize("chi_range, c1sq_range", _CUT_EXAMPLES)
def test_grid_csv_windows_with_edges_on_cut_lines(chi_range, c1sq_range):
    assert grid_csv(chi_range, c1sq_range) == _reference_grid_csv(chi_range, c1sq_range)


@given(st.integers(-30, 60), st.integers(-300, 600), st.integers(0, 400))
def test_column_runs_cover_the_column_once(chi, lo, length):
    hi = lo + length
    runs = list(column_runs(chi, lo, hi))
    assert runs[0][0] == lo and runs[-1][1] == hi
    for (_, last, _), (first, _, _) in zip(runs, runs[1:]):
        assert first == last + 1
    for first, last, cls in runs:
        assert first <= last
        assert cls == classify_geography_point(chi, first)
        end = classify_geography_point(chi, last)
        assert (end.labels, end.on_elliptic_axis, end.signature_sign) == (
            cls.labels, cls.on_elliptic_axis, cls.signature_sign,
        )


def test_column_runs_of_an_empty_range():
    assert list(column_runs(3, 5, 4)) == []
    assert grid_csv((3, 2), (0, 10)) == _reference_grid_csv((3, 2), (0, 10))


def test_grid_csv_limit_is_checked_before_any_work(monkeypatch):
    def no_runs(*args):
        raise AssertionError("an oversized window must not be classified")

    monkeypatch.setattr("cherngeo.plot.column_runs", no_runs)
    points = GRID_POINT_LIMIT + 1
    message = f"has {points} points, more than the CSV limit of {GRID_POINT_LIMIT}$"
    with pytest.raises(ValueError, match=message):
        grid_csv((0, 0), (0, GRID_POINT_LIMIT))


def test_grid_csv_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr("cherngeo.plot.GRID_POINT_LIMIT", 12)
    assert grid_csv((0, 2), (0, 3)) == _reference_grid_csv((0, 2), (0, 3))
    with pytest.raises(ValueError, match="has 15 points"):
        grid_csv((0, 2), (0, 4))


# -- the joined runs: shared c1^2 strings sliced at the run edges -------------

def _windows_next_to_every_cut(chi):
    """One-column windows of column ``chi`` with an edge one above or below a cut value."""
    for a, b in _LINES:
        for edge in (a * chi + b - 1, a * chi + b + 1):
            yield (chi, chi), (edge, edge + 7)
            yield (chi, chi), (edge - 7, edge)
            yield (chi, chi), (edge, edge)


_NEXT_TO_CUT_EXAMPLES = [
    window for chi in (-3, -1, 0, 1, 3, 7) for window in _windows_next_to_every_cut(chi)
]


@pytest.mark.parametrize("chi_range, c1sq_range", _NEXT_TO_CUT_EXAMPLES)
def test_grid_csv_windows_with_edges_next_to_cut_lines(chi_range, c1sq_range):
    assert grid_csv(chi_range, c1sq_range) == _reference_grid_csv(chi_range, c1sq_range)


def test_grid_csv_empty_windows_are_the_header_alone():
    # In a subprocess whose address space is capped: formatting 10**12 values
    # for an empty window would fail there at once, not exhaust the host.
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from cherngeo.plot import grid_csv\n"
        "sys.stdout.write(grid_csv((1, 0), (0, 10**12)) + grid_csv((0, 3), (5, 4)))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    header = "chi_h,c1_sq,labels,basic_class_count,on_elliptic_axis,signature_sign\n"
    assert proc.stdout == header + header
