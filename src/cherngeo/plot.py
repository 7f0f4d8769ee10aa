"""Static renderings of the geography plane: CSV grids and an SVG chart.

The SVG shows the five dividing lines of the plane (c1^2 = 9*chi_h,
8*chi_h, 2*chi_h - 6, chi_h - 3 and the elliptic axis c1^2 = 0) with
light region shading.  Rendering is purely cosmetic; classification of
grid points stays exact and integer-valued in :mod:`cherngeo.geography`.
Each chart coordinate is computed and formatted once per chart, and the
chart's fixed text (its header, clip path, fills, strokes, titles and the
window's edges) is built once at import.
"""

from __future__ import annotations

from .geography import (
    CUT_LINES,
    ELLIPTIC_AXIS,
    REGIONS,
    SIGNATURE_LINE,
    basic_class_count,
    classify_geography_point,
    column_runs,
)

_WIDTH, _HEIGHT = 640, 480
_MARGIN = 56
_PLOT_W, _PLOT_H = _WIDTH - 2 * _MARGIN, _HEIGHT - 2 * _MARGIN

_FILLS = {"many-basic-classes": "#cfe8ff", "one-basic-class": "#d8f2d0", "general-type": "#fdeccc"}

# grid_csv refuses larger windows before doing any work; SVG output has a fixed size.
GRID_POINT_LIMIT = 1_000_000

# geography_svg refuses a window with an end beyond 10**_SVG_END_EXPONENT.
# Each chart coordinate is at most about 3,700 times the largest end (the
# line c1^2 = 9*chi_h over a c1^2 range of one), so every one stays a finite
# float.
_SVG_END_EXPONENT = 300
SVG_END_LIMIT = 10**_SVG_END_EXPONENT


def _line_title(line: tuple[int, int]) -> str:
    a, b = line
    text = "c1^2 = " + ("chi_h" if a == 1 else f"{a}*chi_h")
    text += f" - {-b}" if b < 0 else f" + {b}" if b > 0 else ""
    return text + " (sigma = 0)" if line == SIGNATURE_LINE else text


# The window's edges, as the chart writes them.  Its ends are ints, so
# span / span is exactly 1.0 and 0 / span exactly 0.0: every window's x ends
# are 56.0 and 584.0, and its y ends (the top of the c1^2 range, then the
# bottom) are 56.0 and 424.0.
_LEFT, _RIGHT = f"{float(_MARGIN)}", f"{float(_MARGIN + _PLOT_W)}"
_TOP, _BOTTOM = f"{float(_MARGIN)}", f"{float(_MARGIN + _PLOT_H)}"

# The chart's fixed text, built once: everything but the numbers that depend
# on the window.
_HEAD = "\n".join((
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
    f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="monospace" font-size="12">',
    '<rect width="100%" height="100%" fill="white"/>',
    "<defs><clipPath id=\"plotarea\">"
    f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_PLOT_W}" height="{_PLOT_H}"/>'
    "</clipPath></defs>",
    '<g clip-path="url(#plotarea)">',
))
# Each shaded region: its lower and upper line, and the text after its points.
_POLYGONS = [
    (lower, upper, f'" fill="{_FILLS[label]}"><title>{label.replace("-", " ")}</title></polygon>')
    for label, lower, upper in REGIONS
]
# The solid lines, top to bottom: every cut line but c1^2 = 0, which is
# drawn as the axis and the elliptic line.  Each: the text after its
# coordinates, and the text after its label's coordinates.
_LINES = [
    (
        line,
        f'" stroke="#444" stroke-width="1.2"><title>{_line_title(line)}</title></line>',
        f'">{_line_title(line)}</text>',
    )
    for line in sorted(CUT_LINES - {ELLIPTIC_AXIS}, reverse=True)
]
# The end of the clipped group, then the c1^2 axis along the window's left edge.
_C1SQ_AXIS = (
    "</g>\n"
    f'<line x1="{_MARGIN}" y1="{_BOTTOM}" x2="{_MARGIN}" y2="{_TOP}" '
    'stroke="black" stroke-width="1.5"/>'
)
# The chi_h axis's label sits 34 px left of the right edge and 6 px above the
# axis; with the axis at the bottom edge its y is fixed too.
_CHI_LABEL_X = f"{round(_MARGIN + _PLOT_W - 34.0, 2)}"
_BOTTOM_LABEL_Y = f"{round(_MARGIN + _PLOT_H - 6.0, 2)}"
_C1SQ_LABEL = f'<text x="{_MARGIN + 6}" y="{_MARGIN - 8}">c1^2</text>'


def grid_csv(chi_range: tuple[int, int], c1sq_range: tuple[int, int]) -> str:
    """One CSV row per integer point of the window, rendered a column run at a time.

    The window's c1^2 values are formatted once and shared by every column.
    Runs with equal keys (see :func:`~cherngeo.geography.column_runs`) have
    the same labels and flags, so each key is classified and its fields
    formatted once per call.  A run without a basic class count is one
    ``str.join`` over a slice of the c1^2 values, since all its other fields
    are constant; a run with one reads its first count from
    :func:`~cherngeo.geography.basic_class_count`, not from the classifier.
    Every piece goes into one list, joined once at the end.
    Raises ``ValueError`` before any work when the window has more than
    ``GRID_POINT_LIMIT`` points.
    """
    (chi_lo, chi_hi), (lo, hi) = chi_range, c1sq_range
    points = max(0, chi_hi - chi_lo + 1) * max(0, hi - lo + 1)
    if points > GRID_POINT_LIMIT:
        raise ValueError(
            f"plot window has {points} points, more than the CSV limit of {GRID_POINT_LIMIT}"
        )
    pieces = ["chi_h,c1_sq,labels,basic_class_count,on_elliptic_axis,signature_sign\n"]
    # An empty window formats no values, however long its c1^2 range.
    values = list(map(str, range(lo, hi + 1))) if points else []
    # run key -> (labels field, flag fields and newline, both joined, whether the run counts)
    fields = {}
    for chi in range(chi_lo, chi_hi + 1):
        head = f"{chi},"
        for first, last, key in column_runs(chi, lo, hi):
            run = values[first - lo : last - lo + 1]
            known = fields.get(key)
            if known is None:
                cls = classify_geography_point(chi, first)
                labels = f",{';'.join(cls.labels)},"
                tail = f",{int(cls.on_elliptic_axis)},{cls.signature_sign}\n"
                counted = cls.basic_class_count is not None
                known = fields[key] = (labels, tail, labels + tail, counted)
            labels, tail, end, counted = known
            if not counted:
                pieces += (head, (end + head).join(run), end)
            else:
                # The count falls by one per step up in c1^2.
                count = basic_class_count(chi, first)
                pieces += [
                    f"{head}{c1sq}{labels}{n}{tail}"
                    for c1sq, n in zip(run, range(count, count - len(run), -1))
                ]
    return "".join(pieces)


def geography_svg(chi_range: tuple[int, int], c1sq_range: tuple[int, int]) -> str:
    """A static SVG chart of the geography plane over the given window.

    Each coordinate that depends on the window is computed and formatted
    once per chart: the y of every cut line at both x ends, the y of
    c1^2 = 0, the start of the elliptic axis and the label positions.  The
    window's own edges and the rest of the text are the constants above.
    """
    chi_lo, chi_hi = chi_range
    y_lo, y_hi = c1sq_range
    if chi_hi <= chi_lo or y_hi <= y_lo:
        raise ValueError("plot ranges must be non-degenerate")
    if max(abs(chi_lo), abs(chi_hi), abs(y_lo), abs(y_hi)) > SVG_END_LIMIT:
        raise ValueError(
            "plot window is too far out for svg: both ranges must lie within "
            f"-10**{_SVG_END_EXPONENT}..10**{_SVG_END_EXPONENT}"
        )
    span, height = chi_hi - chi_lo, y_hi - y_lo

    def py(c1sq: float) -> float:
        return round(_MARGIN + (y_hi - c1sq) / height * _PLOT_H, 2)

    # Every line the chart shades or draws -> its y at the window's left and
    # right ends, formatted once
    ends = {(a, b): (f"{py(a * chi_lo + b)}", f"{py(a * chi_hi + b)}") for a, b in CUT_LINES}

    parts = [_HEAD]
    for lower, upper, tail in _POLYGONS:
        (lower_left, lower_right), (upper_left, upper_right) = ends[lower], ends[upper]
        parts.append(
            f'<polygon points="{_LEFT},{lower_left} {_RIGHT},{lower_right} '
            f"{_RIGHT},{upper_right} {_LEFT},{upper_left}{tail}"
        )
    for line, tail, _ in _LINES:
        y_left, y_right = ends[line]
        parts.append(f'<line x1="{_LEFT}" y1="{y_left}" x2="{_RIGHT}" y2="{y_right}{tail}')

    # The chi_h axis lies on c1^2 = 0 when the window holds it, else on its bottom edge.
    if y_lo <= 0 <= y_hi:
        axis_y = py(0)
        axis, axis_label = f"{axis_y}", f"{round(axis_y - 6, 2)}"
        if chi_hi >= 1:  # elliptic axis: c1^2 = 0 for chi_h >= 1, dashed
            x_start = round(_MARGIN + (max(1, chi_lo) - chi_lo) / span * _PLOT_W, 2)
            parts.append(
                f'<line x1="{x_start}" y1="{axis}" x2="{_RIGHT}" y2="{axis}" '
                'stroke="#a00" stroke-width="1.6" stroke-dasharray="6,4">'
                "<title>elliptic surfaces E(n) at (n, 0)</title></line>"
            )
    else:
        axis, axis_label = _BOTTOM, _BOTTOM_LABEL_Y

    # axes and labels, outside the clip
    parts += (
        _C1SQ_AXIS,
        f'<line x1="{_MARGIN}" y1="{axis}" x2="{_RIGHT}" y2="{axis}" '
        'stroke="black" stroke-width="1.5"/>',
        f'<text x="{_CHI_LABEL_X}" y="{axis_label}">chi_h</text>',
        _C1SQ_LABEL,
    )
    # The line labels go at chi_h = chi_lo + d.  Only the offset d is a float:
    # chi_lo stays exact, since rounding it to a float would misplace every
    # label of a window whose ends are beyond 2**53.  A pixel offset is
    # rounded again, so that no float noise reaches the text.
    d = 0.82 * span
    label_head = f'<text x="{round(round(_MARGIN + d / span * _PLOT_W, 2) + 4, 2)}" y="'
    for (a, b), _, label_tail in _LINES:
        below_top = (y_hi - a * chi_lo - b) - a * d  # y_hi less the line's c1^2 there
        if below_top >= 0 and (a * chi_lo + b - y_lo) + a * d >= 0:
            y_at = round(round(_MARGIN + below_top / height * _PLOT_H, 2) - 4, 2)
            parts.append(f"{label_head}{y_at}{label_tail}")
    parts.append("</svg>\n")
    return "\n".join(parts)
