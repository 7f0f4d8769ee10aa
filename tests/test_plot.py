"""CSV grids and SVG charts of the geography plane.

``grid_csv`` classifies one point per run key, not per point, and joins a
run's rows over c1^2 strings shared by the whole window; the per-point
renderer it replaced is kept here as ``_reference_grid_csv`` and the two must
agree byte for byte.  ``column_runs`` reads each column's cut order from a
table built at import; the per-call sort it replaced is kept here as
``_reference_column_runs`` and the two must return the same list.
``geography_svg`` formats each coordinate once per chart and builds its
fixed text at import.  It is pinned by digests of its output and by a slow
reference: the renderer that formatted each coordinate where it was written
is kept here as ``_reference_geography_svg``, and the two must agree byte for
byte.  Every number the chart writes has at most two decimals.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cherngeo import geography, plot
from cherngeo.geography import (
    ELLIPTIC_AXIS,
    REGIONS,
    SIGNATURE_LINE,
    basic_class_count,
    classify_geography_point,
    column_runs,
)
from cherngeo.plot import GRID_POINT_LIMIT, SVG_END_LIMIT, _line_title, geography_svg, grid_csv


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
    for first, last, _ in runs:
        assert first <= last
        assert _fields(chi, first) == _fields(chi, last)


def _fields(chi, c1sq):
    """What a run shares at every point: labels and both flags."""
    cls = classify_geography_point(chi, c1sq)
    return cls.labels, cls.on_elliptic_axis, cls.signature_sign


def _key_fields(chi, lo, hi):
    """Run key -> the fields at both ends of every run of one column with that key."""
    found = {}
    for first, last, key in column_runs(chi, lo, hi):
        found.setdefault(key, set()).update({_fields(chi, first), _fields(chi, last)})
    return found


# Every cut crossing lies between chi_h = -1 and 3, so the run keys clamp
# chi_h to -2..4; -3 and 5 are the first columns that share keys with others.
_NEAR_COLUMNS = range(-3, 6)
_FAR_COLUMNS = (-10**12, -1001, -40, -7, 6, 9, 40, 1001, 10**12)


def _columns():
    return st.one_of(
        st.sampled_from(_NEAR_COLUMNS),
        st.integers(-60, 60),
        st.sampled_from(_FAR_COLUMNS),
        st.integers(-10**15, 10**15),
    )


@settings(max_examples=300)
@given(st.lists(st.tuples(_columns(), st.integers(-200, 200), st.integers(0, 200)),
                min_size=2, max_size=4))
def test_runs_with_equal_keys_share_labels_and_flags(columns):
    found = {}
    for chi, shift, length in columns:
        # Windows placed around the column's cuts, so that every slot is met.
        lo = min(a * chi + b for a, b in _LINES) + shift - 100
        for key, fields in _key_fields(chi, lo, lo + length + 9 * abs(chi)).items():
            found.setdefault(key, set()).update(fields)
    for key, fields in found.items():
        assert len(fields) == 1, (key, fields)


def test_every_run_key_near_the_crossings_has_one_set_of_fields():
    found = {}
    for chi in (*_NEAR_COLUMNS, *_FAR_COLUMNS):
        cuts = [a * chi + b for a, b in _LINES]
        for key, fields in _key_fields(chi, min(cuts) - 5, max(cuts) + 5).items():
            found.setdefault(key, set()).update(fields)
    for key, fields in found.items():
        assert len(fields) == 1, (key, fields)
    # Columns -2..4 each have keys of their own, and every column beyond shares them.
    assert {column for column, _ in found} == set(range(-2, 5))


def _reference_column_runs(chi_h, lo, hi):
    """The runs of one column, with the column's cut values sorted afresh."""
    column = min(max(chi_h, geography._KEY_LO), geography._KEY_HI)
    runs = []
    first, slot = lo, 0
    for cut in sorted({a * chi_h + b for a, b in geography.CUT_LINES}):
        if cut > hi:
            break
        if cut >= lo:
            if first < cut:
                runs.append((first, cut - 1, (column, slot)))
            runs.append((cut, cut, (column, slot + 1)))
            first = cut + 1
        slot += 2
    if first <= hi:
        runs.append((first, hi, (column, slot)))
    return runs


def _window_around_cuts(chi):
    """c1^2 windows of column ``chi`` placed on, next to and between its cut values."""
    cuts = [a * chi + b for a, b in _LINES]
    edge = st.one_of(
        st.sampled_from(cuts).flatmap(lambda cut: st.integers(cut - 3, cut + 3)),
        st.integers(min(cuts) - 20, max(cuts) + 20),
    )
    # One in three windows is empty or one value wide.
    return st.one_of(
        st.tuples(edge, edge).map(sorted).map(tuple),
        edge.map(lambda v: (v, v)),
        edge.map(lambda v: (v + 1, v)),
    ).map(lambda window: (chi, *window))


_TABLE_COLUMNS = st.one_of(
    st.integers(-40, 40),
    st.sampled_from((-1, 0, 3)),  # where two or more cut lines meet
    st.sampled_from((-2**70 - 1, -2**70, 2**70, 2**70 + 1)),
    st.integers(2**70, 2**80),
    st.integers(-2**80, -2**70),
)


@settings(max_examples=400)
@given(_TABLE_COLUMNS.flatmap(_window_around_cuts))
@example((-1, -8, 0))  # the tie 2*chi_h - 6 = 8*chi_h = -8, at the window's bottom
@example((0, -6, 0))  # four lines meet at 0
@example((3, 0, 27))  # three lines meet at 0, then 24 and 27
@example((3, 1, 0))  # an empty range
@example((3, 0, 0))  # one value, on the triple cut
def test_table_driven_column_runs_match_the_sorting_reference(column):
    chi, lo, hi = column
    assert column_runs(chi, lo, hi) == _reference_column_runs(chi, lo, hi)


@settings(max_examples=300)
@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
@example(3, 0)  # the strip's single point in column 3
@example(10, 7)  # the strip's top, where the count is 1
def test_basic_class_count_is_the_classifiers(chi, c1sq):
    cls = classify_geography_point(chi, c1sq)
    if "many-basic-classes" in cls.labels:
        assert basic_class_count(chi, c1sq) == cls.basic_class_count
    else:
        assert cls.basic_class_count is None


@pytest.mark.parametrize("chi_range, c1sq_range", [
    ((0, 30), (-20, 60)),
    ((-3, 12), (-5, 9)),
    ((3, 3), (-2, 2)),
    ((20, 40), (0, 35)),
])
def test_grid_csv_classifies_once_per_run_key(spy, chi_range, c1sq_range):
    # Strip runs read their count from basic_class_count, so each distinct
    # run key of the window is classified once and no run is classified again.
    keys = {
        key
        for chi in range(chi_range[0], chi_range[1] + 1)
        for _, _, key in column_runs(chi, *c1sq_range)
    }
    calls = spy(plot, "classify_geography_point")
    assert grid_csv(chi_range, c1sq_range) == _reference_grid_csv(chi_range, c1sq_range)
    assert len(calls) == len(keys)


def test_column_runs_of_an_empty_range():
    assert list(column_runs(3, 5, 4)) == []
    assert grid_csv((3, 2), (0, 10)) == _reference_grid_csv((3, 2), (0, 10))


def test_grid_csv_limit_is_checked_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("an oversized window must not be split or classified")

    monkeypatch.setattr("cherngeo.plot.column_runs", no_work)
    monkeypatch.setattr("cherngeo.plot.classify_geography_point", no_work)
    monkeypatch.setattr("cherngeo.plot.basic_class_count", no_work)
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


# -- the SVG chart -----------------------------------------------------------

# (chi_h range, c1^2 range, SHA-256 of geography_svg's output), recorded from
# the chart before its x coordinates at the window's edges were computed once.
_SVG_DIGESTS = [
    ((-1, 6), (-10, 40), "dfe863d266356f65f6b97fa56be53ad3f7d6840a327bfe640a974e4909997beb"),
    ((2, 9), (5, 60), "4376d000f82786ce3aad274278ec69658a526a3d30f438a22bbc93a731030bf7"),
    ((-6, -2), (-60, -5), "a41be4059b03c97713918b75b01a2f30791cf408608fcf91032bcc7c017ce685"),
    ((5, 6), (-3, 20), "26f1a07ba62d6f367582144b25b399b6d7c49a181742efb8b7cd630a4482720b"),
    ((0, 3), (0, 30), "eb42bc8de990c10f427903503b296664d3f889f24df1b14eca5a725ff290b03d"),
    ((10, 200), (-100, 1500), "7feada8dd2e87b19ca20f62bf320b5edf203dd2fdeddc28bd8038d4dc2c7ed7b"),
    ((3, 12), (-8, 100), "6f438b67d24ea099451713326f77a69619d5fd5a186ff63cdf4fbac9fad628fa"),
]


@pytest.mark.parametrize(
    "chi_range, c1sq_range, want",
    _SVG_DIGESTS,
    # chi_h from below 1, above the axis c1^2 = 0, negative chi_h, two
    # columns, the axis at the bottom edge, a wide window, chi_h from 3.
    ids=[f"chi{chi}-c1sq{c1sq}" for chi, c1sq, _ in _SVG_DIGESTS],
)
def test_geography_svg_is_byte_identical_to_recorded_charts(chi_range, c1sq_range, want):
    assert hashlib.sha256(geography_svg(chi_range, c1sq_range).encode()).hexdigest() == want


def _coordinates(svg):
    """Every number written into a coordinate attribute of the chart."""
    return [float(v) for v in re.findall(r' (?:x|y|x1|y1|x2|y2)="([^"]*)"', svg)] + [
        float(v) for pair in re.findall(r'points="([^"]*)"', svg)
        for point in pair.split() for v in point.split(",")
    ]


@pytest.mark.parametrize("window", [
    ((-SVG_END_LIMIT, SVG_END_LIMIT), (0, 1)),
    ((0, 1), (-SVG_END_LIMIT, SVG_END_LIMIT)),
    ((SVG_END_LIMIT - 1, SVG_END_LIMIT), (-SVG_END_LIMIT, -SVG_END_LIMIT + 1)),
])
def test_geography_svg_coordinates_are_finite_up_to_the_limit(window):
    values = _coordinates(geography_svg(*window))
    assert values and all(abs(v) < 1e308 for v in values)


@pytest.mark.parametrize("window", [
    ((0, 10**308), (0, 5)),  # was an OverflowError
    ((0, 10**306), (0, 1)),  # wrote inf coordinates
    ((0, 1), (-SVG_END_LIMIT - 1, 0)),
    ((-SVG_END_LIMIT - 1, 0), (0, 1)),
])
def test_geography_svg_refuses_windows_beyond_the_limit(window):
    with pytest.raises(ValueError, match=r"^plot window is too far out for svg: .*10\*\*300$"):
        geography_svg(*window)


@pytest.mark.parametrize("window", [((2, 2), (0, 1)), ((0, 1), (3, 3)), ((1, 0), (0, 1))])
def test_geography_svg_refuses_degenerate_ranges(window):
    # The CLI refuses these before it calls the library (tests/test_inputs.py).
    with pytest.raises(ValueError, match="^plot ranges must be non-degenerate$"):
        geography_svg(*window)


def test_geography_svg_labels_of_a_window_beyond_2_to_the_53():
    # The label column is chi_lo plus an exact offset: rounding chi_lo = 10**20
    # to a float put the label at the plot's left edge and top (60.0, 52.0).
    svg = geography_svg((10**20, 10**20 + 1), (9 * 10**20 - 100, 9 * 10**20 + 100))
    labels = re.findall(r'<text x="([^"]*)" y="([^"]*)">(c1\^2 = [^<]*)</text>', svg)
    assert labels == [("492.96", "222.42", "c1^2 = 9*chi_h")]
    x, y = float(labels[0][0]), float(labels[0][1])
    assert 56 < x < 640 - 56 and 56 < y < 480 - 56


def _numbers_written(svg):
    """Every number the chart writes into an attribute, as written."""
    return [
        token
        for value in re.findall(r'="([^"]*)"', svg)
        for token in re.split(r"[ ,]", value)
        if re.fullmatch(r"-?[0-9.]+", token)
    ]


@settings(max_examples=200)
@given(st.integers(-300, 300), st.integers(1, 60), st.integers(-600, 2000), st.integers(1, 200))
@example(253, 8, -52, 115)  # wrote y="251.60000000000002" for the chi_h axis text
def test_geography_svg_writes_at_most_two_decimals(chi_lo, width, c1sq_lo, height):
    svg = geography_svg((chi_lo, chi_lo + width), (c1sq_lo, c1sq_lo + height))
    numbers = _numbers_written(svg)
    assert numbers
    for number in numbers:
        assert re.fullmatch(r"-?[0-9]+(\.[0-9]{1,2})?", number), number


# -- the reference chart: every coordinate formatted where it is written ------

_REFERENCE_FILLS = {
    "many-basic-classes": "#cfe8ff", "one-basic-class": "#d8f2d0", "general-type": "#fdeccc",
}
_REFERENCE_LINES = [
    (line, _line_title(line))
    for line in sorted(geography.CUT_LINES - {ELLIPTIC_AXIS}, reverse=True)
]


def _reference_geography_svg(chi_range, c1sq_range):
    """The chart as it was drawn before each coordinate was formatted once per chart."""
    chi_lo, chi_hi = chi_range
    y_lo, y_hi = c1sq_range
    width, height, margin = 640, 480, 56
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin

    def px(chi):
        return round(margin + (chi - chi_lo) / (chi_hi - chi_lo) * plot_w, 2)

    def py(c1sq):
        return round(margin + (y_hi - c1sq) / (y_hi - y_lo) * plot_h, 2)

    x_lo, x_hi = px(chi_lo), px(chi_hi)
    ends = {(a, b): (py(a * chi_lo + b), py(a * chi_hi + b)) for a, b in geography.CUT_LINES}
    y_zero = py(0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="12">',
        '<rect width="100%" height="100%" fill="white"/>',
        "<defs><clipPath id=\"plotarea\">"
        f'<rect x="{margin}" y="{margin}" width="{plot_w}" height="{plot_h}"/>'
        "</clipPath></defs>",
        '<g clip-path="url(#plotarea)">',
    ]
    for label, lower, upper in REGIONS:
        (lower_left, lower_right), (upper_left, upper_right) = ends[lower], ends[upper]
        parts.append(
            f'<polygon points="{x_lo},{lower_left} {x_hi},{lower_right} '
            f'{x_hi},{upper_right} {x_lo},{upper_left}" fill="{_REFERENCE_FILLS[label]}">'
            f"<title>{label.replace('-', ' ')}</title></polygon>"
        )
    for line, label in _REFERENCE_LINES:
        y_left, y_right = ends[line]
        parts.append(
            f'<line x1="{x_lo}" y1="{y_left}" x2="{x_hi}" y2="{y_right}" '
            'stroke="#444" stroke-width="1.2"><title>' + label + "</title></line>"
        )
    if y_lo <= 0 <= y_hi and chi_hi >= 1:
        parts.append(
            f'<line x1="{px(max(1, chi_lo))}" y1="{y_zero}" x2="{x_hi}" y2="{y_zero}" '
            'stroke="#a00" stroke-width="1.6" stroke-dasharray="6,4">'
            "<title>elliptic surfaces E(n) at (n, 0)</title></line>"
        )
    parts.append("</g>")
    parts.append(
        f'<line x1="{margin}" y1="{py(y_lo)}" x2="{margin}" y2="{py(y_hi)}" '
        'stroke="black" stroke-width="1.5"/>'
    )
    axis_y = y_zero if y_lo <= 0 <= y_hi else py(y_lo)
    parts.append(
        f'<line x1="{margin}" y1="{axis_y}" x2="{x_hi}" y2="{axis_y}" '
        'stroke="black" stroke-width="1.5"/>'
    )
    parts.append(f'<text x="{round(x_hi - 34, 2)}" y="{round(axis_y - 6, 2)}">chi_h</text>')
    parts.append(f'<text x="{margin + 6}" y="{margin - 8}">c1^2</text>')
    d = 0.82 * (chi_hi - chi_lo)
    x_at = round(round(margin + d / (chi_hi - chi_lo) * plot_w, 2) + 4, 2)
    for (a, b), label in _REFERENCE_LINES:
        below_top = (y_hi - a * chi_lo - b) - a * d
        if below_top >= 0 and (a * chi_lo + b - y_lo) + a * d >= 0:
            y_at = round(round(margin + below_top / (y_hi - y_lo) * plot_h, 2) - 4, 2)
            parts.append(f'<text x="{x_at}" y="{y_at}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _svg_ends():
    """Window ends: small ones of either sign, positive ones, any within the limit, near it."""
    return st.one_of(
        st.integers(-40, 40),
        st.integers(1, 500),
        st.integers(-SVG_END_LIMIT, SVG_END_LIMIT),
        st.integers(SVG_END_LIMIT - 10**6, SVG_END_LIMIT),
        st.integers(-SVG_END_LIMIT, -SVG_END_LIMIT + 10**6),
    )


def _svg_range():
    """A non-degenerate range within the limit; one in two spans a single unit."""
    end = _svg_ends()
    return st.one_of(
        st.tuples(end, end).filter(lambda ends: ends[0] != ends[1]).map(sorted).map(tuple),
        end.filter(lambda v: v < SVG_END_LIMIT).map(lambda v: (v, v + 1)),
    )


@settings(max_examples=500)
@given(_svg_range(), _svg_range())
@example((-6, -2), (-60, -5))  # negative chi_h, a c1^2 range below 0
@example((-9, -4), (-3, 12))  # negative chi_h, a c1^2 range through 0
@example((1, 9), (0, 80))  # chi_lo = 1: the elliptic line starts at the left edge
@example((4, 30), (5, 120))  # chi_lo > 1, a c1^2 range above 0
@example((0, 1), (-1, 0))  # one-unit spans, 0 at the top
@example((7, 8), (63, 64))  # one-unit spans, without 0
@example((-SVG_END_LIMIT, SVG_END_LIMIT), (SVG_END_LIMIT - 1, SVG_END_LIMIT))
@example((SVG_END_LIMIT - 1, SVG_END_LIMIT), (-SVG_END_LIMIT, -SVG_END_LIMIT + 1))
@example((-SVG_END_LIMIT, -SVG_END_LIMIT + 1), (-1, SVG_END_LIMIT))
def test_geography_svg_matches_the_reference(chi_range, c1sq_range):
    assert geography_svg(chi_range, c1sq_range) == _reference_geography_svg(chi_range, c1sq_range)
