"""Static SVG rendering of a configuration: fixed 800x800 canvas, members as
arrows from the origin, the unit circle for scale, slots labeled by index.
Output is plain text with fixed 6-decimal coordinates, so equal inputs give
byte-identical files.
"""

from __future__ import annotations

import math

from .geometry import Configuration

CANVAS = 800
CENTER = CANVAS / 2
# pixels per unit length when every member fits in the unit disc
BASE_RADIUS = 330.0
# every position lies in [56, 744] (a tip is at most BASE_RADIUS from the
# center, its label 14 pixels beyond), so "%.6f" never writes a sign
LINE = (
    f'  <line x1="{CENTER:.6f}" y1="{CENTER:.6f}" x2="%.6f" y2="%.6f" '
    'stroke="#1f5fa8" stroke-width="2" marker-end="url(#tip)"/>'
)
TEXT = (
    '  <text x="%.6f" y="%.6f" font-family="monospace" font-size="14" fill="#222222" '
    'text-anchor="middle">%d</text>'
)


def render_svg(c: Configuration) -> str:
    """The SVG text; each member's <line> and <text> element is formatted
    from its columns in one C-level pass per element kind. ValueError when
    the largest norm, or its 14-pixel label offset, overflows a float."""
    floats = c.as_float()
    xs, ys = floats.xs, floats.ys
    norms = list(map(math.hypot, xs, ys))
    reach = max(1.0, max(norms))
    if 14.0 * reach == math.inf:
        what = "is not finite" if reach == math.inf else "overflows its 14-pixel label offset"
        raise ValueError(f"largest norm {reach!r} {what}, so no scale draws the members")
    unit = BASE_RADIUS / reach

    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" height="{CANVAS}" '
        f'viewBox="0 0 {CANVAS} {CANVAS}">',
        '  <defs>',
        '    <marker id="tip" markerWidth="10" markerHeight="8" refX="9" refY="4" '
        'orient="auto" markerUnits="userSpaceOnUse">',
        '      <path d="M0,0 L10,4 L0,8 z" fill="#1f5fa8"/>',
        "    </marker>",
        "  </defs>",
        f'  <rect width="{CANVAS}" height="{CANVAS}" fill="#ffffff"/>',
        f'  <circle cx="{CENTER:.6f}" cy="{CENTER:.6f}" r="{unit:.6f}" '
        'fill="none" stroke="#bbbbbb" stroke-dasharray="6 4"/>',
    ]
    tip_xs = [CENTER + unit * x for x in xs]
    tip_ys = [CENTER - unit * y for y in ys]
    # a member is nonzero and finite, so its norm, the label's divisor, is > 0
    label_xs = [tip_x + 14.0 * x / norm for tip_x, x, norm in zip(tip_xs, xs, norms)]
    label_ys = [tip_y - 14.0 * y / norm for tip_y, y, norm in zip(tip_ys, ys, norms)]
    lines = map(LINE.__mod__, zip(tip_xs, tip_ys))
    texts = map(TEXT.__mod__, zip(label_xs, label_ys, range(len(xs))))
    return "\n".join([*head, *lines, *texts, "</svg>"]) + "\n"
