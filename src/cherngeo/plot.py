"""Static renderings of the geography plane: CSV grids and an SVG chart.

The SVG shows the five dividing lines of the plane (c1^2 = 9*chi_h,
8*chi_h, 2*chi_h - 6, chi_h - 3 and the elliptic axis c1^2 = 0) with
light region shading.  Rendering is purely cosmetic; classification of
grid points stays exact and integer-valued in :mod:`cherngeo.geography`.
"""

from __future__ import annotations

from .geography import (
    REGIONS,
    SIGNATURE_LINE,
    basic_class_count,
    classify_geography_point,
    column_runs,
)

_WIDTH, _HEIGHT = 640, 480
_MARGIN = 56

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


# The solid lines, top to bottom: the upper line of every region and the
# signature line.  c1^2 = 0 is drawn as the axis and the elliptic line.
_LINES = [
    (line, _line_title(line))
    for line in sorted({upper for _, _, upper in REGIONS} | {SIGNATURE_LINE}, reverse=True)
]

# Every line the chart shades or draws; each is evaluated once per chart at both window ends.
_CHART_LINES = {line for _, lower, upper in REGIONS for line in (lower, upper)} | {
    line for line, _ in _LINES
}


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
    """A static SVG chart of the geography plane over the given window."""
    chi_lo, chi_hi = chi_range
    y_lo, y_hi = c1sq_range
    if chi_hi <= chi_lo or y_hi <= y_lo:
        raise ValueError("plot ranges must be non-degenerate")
    if max(abs(chi_lo), abs(chi_hi), abs(y_lo), abs(y_hi)) > SVG_END_LIMIT:
        raise ValueError(
            "plot window is too far out for svg: both ranges must lie within "
            f"-10**{_SVG_END_EXPONENT}..10**{_SVG_END_EXPONENT}"
        )

    plot_w = _WIDTH - 2 * _MARGIN
    plot_h = _HEIGHT - 2 * _MARGIN

    def px(chi: float) -> float:
        return round(_MARGIN + (chi - chi_lo) / (chi_hi - chi_lo) * plot_w, 2)

    def py(c1sq: float) -> float:
        return round(_MARGIN + (y_hi - c1sq) / (y_hi - y_lo) * plot_h, 2)

    x_lo, x_hi = px(chi_lo), px(chi_hi)
    # line -> its y at the window's left and right ends
    ends = {(a, b): (py(a * chi_lo + b), py(a * chi_hi + b)) for a, b in _CHART_LINES}
    y_zero = py(0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="monospace" font-size="12">',
        '<rect width="100%" height="100%" fill="white"/>',
        "<defs><clipPath id=\"plotarea\">"
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{plot_w}" height="{plot_h}"/>'
        "</clipPath></defs>",
        '<g clip-path="url(#plotarea)">',
    ]

    for label, lower, upper in REGIONS:
        (lower_left, lower_right), (upper_left, upper_right) = ends[lower], ends[upper]
        parts.append(
            f'<polygon points="{x_lo},{lower_left} {x_hi},{lower_right} '
            f'{x_hi},{upper_right} {x_lo},{upper_left}" fill="{_FILLS[label]}">'
            f"<title>{label.replace('-', ' ')}</title></polygon>"
        )

    for line, label in _LINES:
        y_left, y_right = ends[line]
        parts.append(
            f'<line x1="{x_lo}" y1="{y_left}" x2="{x_hi}" y2="{y_right}" '
            'stroke="#444" stroke-width="1.2"><title>' + label + "</title></line>"
        )
    # elliptic axis: c1^2 = 0 for chi_h >= 1, dashed
    if y_lo <= 0 <= y_hi and chi_hi >= 1:
        parts.append(
            f'<line x1="{px(max(1, chi_lo))}" y1="{y_zero}" x2="{x_hi}" y2="{y_zero}" '
            'stroke="#a00" stroke-width="1.6" stroke-dasharray="6,4">'
            "<title>elliptic surfaces E(n) at (n, 0)</title></line>"
        )
    parts.append("</g>")

    # axes and labels, outside the clip
    parts.append(
        f'<line x1="{_MARGIN}" y1="{py(y_lo)}" x2="{_MARGIN}" y2="{py(y_hi)}" '
        'stroke="black" stroke-width="1.5"/>'
    )
    axis_y = y_zero if y_lo <= 0 <= y_hi else py(y_lo)
    parts.append(
        f'<line x1="{_MARGIN}" y1="{axis_y}" x2="{x_hi}" y2="{axis_y}" '
        'stroke="black" stroke-width="1.5"/>'
    )
    parts.append(f'<text x="{x_hi - 34}" y="{axis_y - 6}">chi_h</text>')
    parts.append(f'<text x="{_MARGIN + 6}" y="{_MARGIN - 8}">c1^2</text>')
    # The line labels go at chi_h = chi_lo + d.  Only the offset d is a float:
    # chi_lo stays exact, since rounding it to a float would misplace every
    # label of a window whose ends are beyond 2**53.
    d = 0.82 * (chi_hi - chi_lo)
    x_at = round(_MARGIN + d / (chi_hi - chi_lo) * plot_w, 2) + 4
    for (a, b), label in _LINES:
        below_top = (y_hi - a * chi_lo - b) - a * d  # y_hi less the line's c1^2 there
        if below_top >= 0 and (a * chi_lo + b - y_lo) + a * d >= 0:
            y_at = round(_MARGIN + below_top / (y_hi - y_lo) * plot_h, 2) - 4
            parts.append(f'<text x="{x_at}" y="{y_at}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
