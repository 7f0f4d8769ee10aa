"""Static renderings of the geography plane: CSV grids and an SVG chart.

The SVG shows the five dividing lines of the plane (c1^2 = 9*chi_h,
8*chi_h, 2*chi_h - 6, chi_h - 3 and the elliptic axis c1^2 = 0) with
light region shading.  Rendering is purely cosmetic; classification of
grid points stays exact and integer-valued in :mod:`cherngeo.geography`.
"""

from __future__ import annotations

from .geography import REGIONS, classify_geography_point

_WIDTH, _HEIGHT = 640, 480
_MARGIN = 56

_FILLS = {"many-basic-classes": "#cfe8ff", "one-basic-class": "#d8f2d0", "general-type": "#fdeccc"}

_SIGNATURE_LINE = (8, 0)  # sigma = c1^2 - 8*chi_h vanishes on it


def _line_title(line: tuple[int, int]) -> str:
    a, b = line
    text = "c1^2 = " + ("chi_h" if a == 1 else f"{a}*chi_h")
    text += f" - {-b}" if b < 0 else f" + {b}" if b > 0 else ""
    return text + " (sigma = 0)" if line == _SIGNATURE_LINE else text


# The solid lines, top to bottom: the upper line of every region and the
# signature line.  c1^2 = 0 is drawn as the axis and the elliptic line.
_LINES = [
    (line, _line_title(line))
    for line in sorted({upper for _, _, upper in REGIONS} | {_SIGNATURE_LINE}, reverse=True)
]


def grid_rows(chi_range: tuple[int, int], c1sq_range: tuple[int, int]):
    """Yield (chi_h, c1_sq, classification) for every integer grid point."""
    for chi in range(chi_range[0], chi_range[1] + 1):
        for c1sq in range(c1sq_range[0], c1sq_range[1] + 1):
            yield chi, c1sq, classify_geography_point(chi, c1sq)


def grid_csv(chi_range: tuple[int, int], c1sq_range: tuple[int, int]) -> str:
    lines = ["chi_h,c1_sq,labels,basic_class_count,on_elliptic_axis,signature_sign"]
    for chi, c1sq, cls in grid_rows(chi_range, c1sq_range):
        count = "" if cls.basic_class_count is None else str(cls.basic_class_count)
        lines.append(
            f"{chi},{c1sq},{';'.join(cls.labels)},{count},"
            f"{int(cls.on_elliptic_axis)},{cls.signature_sign}"
        )
    return "\n".join(lines) + "\n"


def geography_svg(chi_range: tuple[int, int], c1sq_range: tuple[int, int]) -> str:
    """A static SVG chart of the geography plane over the given window."""
    chi_lo, chi_hi = chi_range
    y_lo, y_hi = c1sq_range
    if chi_hi <= chi_lo or y_hi <= y_lo:
        raise ValueError("plot ranges must be non-degenerate")

    plot_w = _WIDTH - 2 * _MARGIN
    plot_h = _HEIGHT - 2 * _MARGIN

    def px(chi: float) -> float:
        return round(_MARGIN + (chi - chi_lo) / (chi_hi - chi_lo) * plot_w, 2)

    def py(c1sq: float) -> float:
        return round(_MARGIN + (y_hi - c1sq) / (y_hi - y_lo) * plot_h, 2)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="monospace" font-size="12">',
        '<rect width="100%" height="100%" fill="white"/>',
        "<defs><clipPath id=\"plotarea\">"
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{plot_w}" height="{plot_h}"/>'
        "</clipPath></defs>",
        '<g clip-path="url(#plotarea)">',
    ]

    for label, (lo_a, lo_b), (hi_a, hi_b) in REGIONS:
        pts = [
            (px(chi_lo), py(lo_a * chi_lo + lo_b)),
            (px(chi_hi), py(lo_a * chi_hi + lo_b)),
            (px(chi_hi), py(hi_a * chi_hi + hi_b)),
            (px(chi_lo), py(hi_a * chi_lo + hi_b)),
        ]
        point_str = " ".join(f"{x},{y}" for x, y in pts)
        parts.append(
            f'<polygon points="{point_str}" fill="{_FILLS[label]}">'
            f"<title>{label.replace('-', ' ')}</title></polygon>"
        )

    for (a, b), label in _LINES:
        parts.append(
            f'<line x1="{px(chi_lo)}" y1="{py(a * chi_lo + b)}" '
            f'x2="{px(chi_hi)}" y2="{py(a * chi_hi + b)}" '
            'stroke="#444" stroke-width="1.2"><title>' + label + "</title></line>"
        )
    # elliptic axis: c1^2 = 0 for chi_h >= 1, dashed
    if y_lo <= 0 <= y_hi and chi_hi >= 1:
        parts.append(
            f'<line x1="{px(max(1, chi_lo))}" y1="{py(0)}" x2="{px(chi_hi)}" y2="{py(0)}" '
            'stroke="#a00" stroke-width="1.6" stroke-dasharray="6,4">'
            "<title>elliptic surfaces E(n) at (n, 0)</title></line>"
        )
    parts.append("</g>")

    # axes and labels, outside the clip
    parts.append(
        f'<line x1="{_MARGIN}" y1="{py(y_lo)}" x2="{_MARGIN}" y2="{py(y_hi)}" '
        'stroke="black" stroke-width="1.5"/>'
    )
    axis_y = py(0) if y_lo <= 0 <= y_hi else py(y_lo)
    parts.append(
        f'<line x1="{_MARGIN}" y1="{axis_y}" x2="{px(chi_hi)}" y2="{axis_y}" '
        'stroke="black" stroke-width="1.5"/>'
    )
    parts.append(f'<text x="{px(chi_hi) - 34}" y="{axis_y - 6}">chi_h</text>')
    parts.append(f'<text x="{_MARGIN + 6}" y="{_MARGIN - 8}">c1^2</text>')
    for (a, b), label in _LINES:
        chi_at = chi_lo + 0.82 * (chi_hi - chi_lo)
        y_at = a * chi_at + b
        if y_lo <= y_at <= y_hi:
            parts.append(f'<text x="{px(chi_at) + 4}" y="{py(y_at) - 4}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
