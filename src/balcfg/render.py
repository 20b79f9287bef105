"""Static SVG rendering of a configuration: fixed 800x800 canvas, members as
arrows from the origin, the unit circle for scale, slots labeled by index.
Output is plain text with fixed 6-decimal coordinates, so equal inputs give
byte-identical files.
"""

from __future__ import annotations

from .geometry import Configuration

CANVAS = 800
CENTER = CANVAS / 2
# pixels per unit length when every member fits in the unit disc
BASE_RADIUS = 330.0


def _fmt(value: float) -> str:
    text = f"{value:.6f}"
    return "0.000000" if text == "-0.000000" else text


def render_svg(c: Configuration) -> str:
    floats = c.as_float()
    reach = max(1.0, max(v.norm() for v in floats.vectors))
    unit = BASE_RADIUS / reach

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" height="{CANVAS}" '
        f'viewBox="0 0 {CANVAS} {CANVAS}">',
        '  <defs>',
        '    <marker id="tip" markerWidth="10" markerHeight="8" refX="9" refY="4" '
        'orient="auto" markerUnits="userSpaceOnUse">',
        '      <path d="M0,0 L10,4 L0,8 z" fill="#1f5fa8"/>',
        "    </marker>",
        "  </defs>",
        f'  <rect width="{CANVAS}" height="{CANVAS}" fill="#ffffff"/>',
        f'  <circle cx="{_fmt(CENTER)}" cy="{_fmt(CENTER)}" r="{_fmt(unit)}" '
        'fill="none" stroke="#bbbbbb" stroke-dasharray="6 4"/>',
    ]
    tips = []
    for v in floats.vectors:
        tip_x = CENTER + unit * v.x
        tip_y = CENTER - unit * v.y
        tips.append((tip_x, tip_y, v))
        lines.append(
            f'  <line x1="{_fmt(CENTER)}" y1="{_fmt(CENTER)}" '
            f'x2="{_fmt(tip_x)}" y2="{_fmt(tip_y)}" '
            'stroke="#1f5fa8" stroke-width="2" marker-end="url(#tip)"/>'
        )
    for i, (tip_x, tip_y, v) in enumerate(tips):
        length = max(v.norm(), 1e-9)
        label_x = tip_x + 14.0 * v.x / length
        label_y = tip_y - 14.0 * v.y / length
        lines.append(
            f'  <text x="{_fmt(label_x)}" y="{_fmt(label_y)}" '
            'font-family="monospace" font-size="14" fill="#222222" '
            f'text-anchor="middle">{i}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
