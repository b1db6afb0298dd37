"""Independent reference implementations used to check the package.

Everything here is deliberately simple and separate from the library's
fast paths: plain loops, sets, and scalar math.  The flood oracle never
touches the spatial index, and the chain oracle re-iterates the edge
recurrence from scratch.  The scalar sector test lives here too: the
library's only membership test is the engine's vectorised sector_hits.
So do the chain's formula helpers next_edge and triangle_area, whose
arithmetic build_leaf inlines, and flood_views and flood_each, which flood
scenarios through engine.flood_fields over shared fields, the way a sweep
unit does, or over a field each, with chosen aiming draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sectorcast import engine
from sectorcast.configio import CSV_COLUMNS
from sectorcast.scenario import Point2D, Scenario

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Sector:
    """A transmitter's coverage wedge.

    apex: transmitter position
    axis: bearing of the sector bisector, in [0, 2*pi)
    half_angle: half the opening angle, in (0, pi]
    radius: transmission range in meters
    """

    apex: Point2D
    axis: float
    half_angle: float
    radius: float

    def __post_init__(self):
        if not 0.0 < self.half_angle <= math.pi:
            raise ValueError(f"half_angle must be in (0, pi], got {self.half_angle}")
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if not 0.0 <= self.axis < TWO_PI:
            object.__setattr__(self, "axis", self.axis % TWO_PI)


def in_sector(p: Point2D, s: Sector) -> bool:
    """Whether p lies in sector s.

    Boundaries (distance exactly radius, angular offset exactly half_angle)
    are inside; the apex itself is not: a transmitter never re-receives its
    own message.

    The angular test is |bearing of p from the apex - axis| <= half_angle on
    the circle, evaluated in dot-product form (cos is monotone on [0, pi]),
    the same arithmetic engine.sector_hits runs vectorised.
    """
    dx = p.x - s.apex.x
    dy = p.y - s.apex.y
    q = dx * dx + dy * dy
    if q == 0.0 or q > s.radius * s.radius:
        return False
    if s.half_angle >= math.pi:
        return True
    ux = math.cos(s.axis)
    uy = math.sin(s.axis)
    return dx * ux + dy * uy >= math.sqrt(q) * math.cos(s.half_angle)


def polar_in_sector(p: Point2D, s: Sector) -> bool:
    """Sector membership via explicit polar-coordinate comparison."""
    dx = p.x - s.apex.x
    dy = p.y - s.apex.y
    q = dx * dx + dy * dy
    if q == 0.0 or q > s.radius * s.radius:
        return False
    ang = math.atan2(dy, dx)
    diff = abs((ang - s.axis + math.pi) % TWO_PI - math.pi)
    return diff <= s.half_angle


def chain_oracle(d: float, r: float, theta: float):
    """Scripted iteration of the edge recurrence and area sum.

    Returns (d_seq, areas, total_area); areas use the outgoing edge of each
    triangle, the total doubles the one-sided sum.
    """
    phi = theta / 2.0
    seq = [d]
    while True:
        prev = seq[-1]
        nxt = (prev * prev + r * r - 2.0 * r * prev * math.cos(phi)) ** 0.5
        seq.append(nxt)
        if nxt <= r or nxt >= prev or (prev - nxt) < 1e-6 * r:
            break
    areas = [0.5 * r * v * math.sin(phi) for v in seq[1:]]
    return seq, areas, 2.0 * sum(areas)


def _check_step(edge: float, r: float, theta: float) -> None:
    if not (edge > 0.0 and r > 0.0 and math.isfinite(edge + r) and 0.0 < theta < TWO_PI):
        raise ValueError(f"need a positive edge and r and theta in (0, 2*pi), "
                         f"got {edge}, {r}, {theta}")


def next_edge(d_prev: float, r: float, theta: float) -> float:
    """Next chain edge length: sqrt(d_prev^2 + r^2 - 2 r d_prev cos(theta/2)),
    in the arithmetic of one build_leaf step."""
    _check_step(d_prev, r, theta)
    return math.sqrt(d_prev * d_prev + r * r - 2.0 * r * d_prev * math.cos(theta / 2.0))


def triangle_area(d_edge: float, r: float, theta: float) -> float:
    """Area of a chain triangle with edge d_edge: 0.5 * r * d_edge * sin(theta/2)."""
    _check_step(d_edge, r, theta)
    return 0.5 * r * d_edge * math.sin(theta / 2.0)


def shoelace(a, b, c) -> float:
    """Unsigned triangle area from coordinates."""
    return abs((b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])) / 2.0


def brute_force_flood(scenario: Scenario, errors: np.ndarray | None = None):
    """Reference flood: direct in_sector scans, no index, set bookkeeping.

    errors holds the aiming draws, draw 0 for the source and draw k + 1 for
    node k; by default, when the aiming error is nonzero, the first n + 1
    draws of the config seed's stream SeedSequence((seed, 1)), uniform in
    [-eps, eps].  Returns a dict with the same accounting as BroadcastOutcome.
    """
    cfg = scenario.config
    n = len(scenario.nodes)
    points = [Point2D(float(x), float(y)) for x, y in scenario.nodes]
    points.append(scenario.destination)  # id n
    dest = scenario.destination

    eps = cfg.direction_error_bound
    if errors is not None:
        deltas = np.asarray(errors, dtype=float)
    elif eps > 0.0:
        stream = np.random.default_rng(np.random.SeedSequence((cfg.seed, 1)))
        deltas = stream.uniform(-eps, eps, size=n + 1)
    else:
        deltas = np.zeros(n + 1)

    covered: set[int] = set()
    transmitted: set[int] = set()
    implicated: list[int] = []
    per_round: list[int] = []
    first_hop = None

    frontier: list[tuple[int, Point2D]] = [(-1, scenario.source)]
    round_no = 0
    while frontier:
        per_round.append(len(frontier))
        implicated.extend(tid for tid, _ in frontier)
        newly: set[int] = set()
        for tid, pos in frontier:
            if pos.x == dest.x and pos.y == dest.y:
                base = 0.0
            else:
                base = math.atan2(dest.y - pos.y, dest.x - pos.x) % TWO_PI
            sector = Sector(apex=pos, axis=(base + deltas[tid + 1]) % TWO_PI,
                            half_angle=cfg.theta / 2.0, radius=cfg.radius)
            for idx, p in enumerate(points):
                if in_sector(p, sector):
                    newly.add(idx)
        if first_hop is None and n in newly:
            first_hop = round_no + 1
        fresh = {i for i in newly if i < n and i not in covered and i not in transmitted}
        covered |= newly
        transmitted |= fresh
        frontier = [(i, points[i]) for i in sorted(fresh)]
        round_no += 1

    return {
        "success": n in covered,
        "first_delivery_hop": first_hop,
        "implicated": frozenset(implicated),
        "covered": frozenset(covered),
        "rounds": len(per_round),
        "per_round_transmitters": tuple(per_round),
    }


def flood_views(scenarios, fields, field_of, errors=None):
    """engine.flood_fields over shared fields, as a sweep unit calls it:
    scenario b floods its len(nodes) rows of fields[field_of[b]], and field
    g takes the aiming draws errors[g], by default, when the aiming error is
    nonzero, those of its scenarios' config seed stream."""
    cfg = scenarios[0].config
    eps = cfg.direction_error_bound
    if errors is None and eps > 0.0:
        seeds = dict(zip(field_of, (s.config.seed for s in scenarios)))
        errors = [engine.aim_errors(seeds[g], eps, len(f) + 1) for g, f in enumerate(fields)]
    ends = [(s.source.x, s.source.y, s.destination.x, s.destination.y) for s in scenarios]
    return engine.flood_fields(fields, field_of, [len(s.nodes) for s in scenarios],
                               [s.config.theta for s in scenarios], np.array(ends).T,
                               cfg.radius, errors)


def flood_each(scenarios, errors=None):
    """flood_views with a field per scenario: scenario b floods its own
    nodes, with the aiming draws errors[b] (draw 0 for the source, draw
    k + 1 for node k) when given."""
    return flood_views(scenarios, [s.nodes for s in scenarios], range(len(scenarios)), errors)


def read_results_csv(path: str) -> list[dict]:
    """Parse a results CSV back into dicts of floats (None for blanks)."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = None
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                assert tuple(header) == CSV_COLUMNS, f"{path}: unexpected CSV header {header}"
                continue
            row = {}
            for key, cell in zip(header, line.split(",")):
                if cell == "":
                    row[key] = None
                elif key in ("n_nodes", "trials"):
                    row[key] = int(cell)
                else:
                    row[key] = float(cell)
            rows.append(row)
    return rows
