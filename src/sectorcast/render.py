"""Plain SVG 1.1 scene renderer: field, nodes, implicated set, chain overlay.

Meters map linearly onto the viewport with the y axis flipped for screen
coordinates.  One root group per layer (field, nodes, implicated, chain,
endpoints) so downstream tools can toggle them; all numbers use a fixed
two-decimal format to keep output byte-stable.
"""

from __future__ import annotations

import numpy as np

from . import leafmodel  # called as leafmodel.build_leaf: trace tools wrap that name
from .engine import SOURCE_ID, BroadcastOutcome
from .scenario import Scenario

_VIEW = 800.0
_MARGIN = 40.0


def _pixels(points, side: float) -> list[list[float]]:
    """(n, 2) field points in meters as [x, y] viewport pixels, y flipped."""
    xy = np.asarray(points, dtype=float).reshape(-1, 2)
    scale = _VIEW / side
    return np.column_stack((_MARGIN + xy[:, 0] * scale,
                            _MARGIN + (side - xy[:, 1]) * scale)).tolist()


def _leaf_polygon(scenario: Scenario) -> list[tuple[float, float]] | None:
    """Leaf outline in field coordinates, or None when there is no chain."""
    cfg = scenario.config
    try:
        upper = leafmodel.build_leaf(cfg.d, cfg.radius, cfg.theta).vertices
    except ValueError:
        return None
    src, dst = scenario.source, scenario.destination
    ux, uy = (src.x - dst.x) / cfg.d, (src.y - dst.y) / cfg.d  # local +x axis
    vx, vy = -uy, ux                                           # local +y axis
    def to_field(p):
        return (dst.x + p[0] * ux + p[1] * vx, dst.y + p[0] * uy + p[1] * vy)
    outline = [to_field(p) for p in upper]
    outline.append((dst.x, dst.y))
    outline.extend(to_field((px, -py)) for px, py in reversed(upper[1:]))
    return outline


def render_svg(scenario: Scenario, outcome: BroadcastOutcome) -> str:
    cfg = scenario.config
    side = cfg.square_side
    size = _VIEW + 2 * _MARGIN

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size:.2f}" height="{size:.2f}" viewBox="0 0 {size:.2f} {size:.2f}">',
        f'<!-- N={len(scenario.nodes)} r={cfg.radius:g} m '
        f'theta={cfg.theta_deg:g} deg d={cfg.d:g} m '
        f'seed={cfg.seed} success={outcome.success} -->',
    ]

    [(x0, y0)] = _pixels([(0.0, side)], side)
    parts.append('<g id="field">')
    parts.append(f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{_VIEW:.2f}" height="{_VIEW:.2f}" '
                 f'fill="white" stroke="#333333" stroke-width="1.5"/>')
    parts.append("</g>")

    dots = _pixels(scenario.nodes, side)
    relays = sorted(i for i in outcome.implicated if i != SOURCE_ID)
    dark = np.ones(len(dots), dtype=bool)
    dark[relays] = False
    for layer, ids, dot in (("nodes", np.flatnonzero(dark).tolist(), 'r="1.50" fill="#b8b8b8"'),
                            ("implicated", relays, 'r="2.50" fill="#d9534f"')):
        parts.append(f'<g id="{layer}">')
        parts.extend(f'<circle cx="{dots[i][0]:.2f}" cy="{dots[i][1]:.2f}" {dot}/>' for i in ids)
        parts.append("</g>")

    parts.append('<g id="chain">')
    outline = _leaf_polygon(scenario)
    if outline is not None:
        points = " ".join(f"{x:.2f},{y:.2f}" for x, y in _pixels(outline, side))
        parts.append(f'<polygon points="{points}" fill="none" '
                     f'stroke="#2a6fdb" stroke-width="1.5" stroke-dasharray="6,4"/>')
    parts.append("</g>")

    parts.append('<g id="endpoints">')
    ends = [(p.x, p.y) for p in (scenario.source, scenario.destination)]
    parts.extend(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="5.00" fill="{fill}"/>'
                 for (x, y), fill in zip(_pixels(ends, side), ("#2c9f45", "#1a1a8c")))
    parts.append("</g>")

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
