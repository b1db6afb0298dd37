"""Plain SVG 1.1 scene renderer: field, nodes, implicated set, chain overlay.

Meters map linearly onto the viewport with the y axis flipped for screen
coordinates.  One root group per layer (field, nodes, implicated, chain,
endpoints) so downstream tools can toggle them; all numbers use a fixed
two-decimal format to keep output byte-stable.
"""

from __future__ import annotations

import math

import numpy as np

from .engine import SOURCE_ID, BroadcastOutcome
from .leafmodel import chain_vertices
from .scenario import Scenario

_VIEW = 800.0
_MARGIN = 40.0


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class _Mapper:
    def __init__(self, side: float):
        self.scale = _VIEW / side
        self.side = side

    def xy(self, x: float, y: float) -> tuple[str, str]:
        return (_fmt(_MARGIN + x * self.scale),
                _fmt(_MARGIN + (self.side - y) * self.scale))


def _circle(m: _Mapper, x: float, y: float, r_px: float, fill: str) -> str:
    px, py = m.xy(x, y)
    return f'<circle cx="{px}" cy="{py}" r="{_fmt(r_px)}" fill="{fill}"/>'


def _leaf_polygon(scenario: Scenario) -> list[tuple[float, float]] | None:
    """Leaf outline in field coordinates, or None when there is no chain."""
    cfg = scenario.config
    try:
        upper = chain_vertices(cfg.sd_distance, cfg.radius, cfg.theta)
    except ValueError:
        return None
    src, dst = scenario.source, scenario.destination
    d = cfg.sd_distance
    ux, uy = (src.x - dst.x) / d, (src.y - dst.y) / d  # local +x axis
    vx, vy = -uy, ux                                   # local +y axis
    def to_field(p):
        return (dst.x + p[0] * ux + p[1] * vx, dst.y + p[0] * uy + p[1] * vy)
    outline = [to_field(p) for p in upper]
    outline.append((dst.x, dst.y))
    outline.extend(to_field((px, -py)) for px, py in reversed(upper[1:]))
    return outline


def render_svg(scenario: Scenario, outcome: BroadcastOutcome) -> str:
    cfg = scenario.config
    m = _Mapper(cfg.square_side)
    size = _fmt(_VIEW + 2 * _MARGIN)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<!-- N={len(scenario.nodes)} r={cfg.radius:g} m '
        f'theta={math.degrees(cfg.theta):g} deg d={cfg.sd_distance:g} m '
        f'seed={cfg.seed} success={outcome.success} -->',
    ]

    x0, y0 = m.xy(0.0, cfg.square_side)
    parts.append('<g id="field">')
    parts.append(f'<rect x="{x0}" y="{y0}" width="{_fmt(_VIEW)}" height="{_fmt(_VIEW)}" '
                 f'fill="white" stroke="#333333" stroke-width="1.5"/>')
    parts.append("</g>")

    # node dots in bulk: _Mapper.xy's arithmetic in one numpy pass
    nodes = np.asarray(scenario.nodes, dtype=float).reshape(-1, 2)
    px = (_MARGIN + nodes[:, 0] * m.scale).tolist()
    py = (_MARGIN + (m.side - nodes[:, 1]) * m.scale).tolist()
    relays = sorted(i for i in outcome.implicated if i != SOURCE_ID)
    dark = np.ones(len(px), dtype=bool)
    dark[relays] = False
    for layer, ids, dot in (("nodes", np.flatnonzero(dark).tolist(), 'r="1.50" fill="#b8b8b8"'),
                            ("implicated", relays, 'r="2.50" fill="#d9534f"')):
        parts.append(f'<g id="{layer}">')
        parts.extend(f'<circle cx="{px[i]:.2f}" cy="{py[i]:.2f}" {dot}/>' for i in ids)
        parts.append("</g>")

    parts.append('<g id="chain">')
    outline = _leaf_polygon(scenario)
    if outline is not None:
        points = " ".join(",".join(m.xy(x, y)) for x, y in outline)
        parts.append(f'<polygon points="{points}" fill="none" '
                     f'stroke="#2a6fdb" stroke-width="1.5" stroke-dasharray="6,4"/>')
    parts.append("</g>")

    parts.append('<g id="endpoints">')
    parts.append(_circle(m, scenario.source.x, scenario.source.y, 5.0, "#2c9f45"))
    parts.append(_circle(m, scenario.destination.x, scenario.destination.y, 5.0, "#1a1a8c"))
    parts.append("</g>")

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
