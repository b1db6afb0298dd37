"""Round-synchronous directional flood.

Round 0's only transmitter is the source.  Every transmitter emits once
into a sector of radius r and half-angle theta/2 aimed at the destination
(optionally perturbed by a bounded uniform direction error); sector members
are covered, newly covered nodes relay exactly once in the next round, and
the flood runs until no transmitters remain, whether or not the destination
was reached earlier.

Node identifiers: ordinary nodes are their row index in scenario.nodes,
the destination is index n_nodes, and the source is SOURCE_ID (-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import TWO_PI, Sector
from .scenario import Scenario

SOURCE_ID = -1


@dataclass(frozen=True)
class BroadcastOutcome:
    """Result of one flood: delivery outcome plus implication accounting.

    implicated holds every transmitter (SOURCE_ID included); covered holds
    every receiver, with the destination appearing as index n_nodes when it
    was reached.  per_round_transmitters counts transmitters per round, so
    its sum equals len(implicated).
    """

    success: bool
    first_delivery_hop: int | None
    implicated: frozenset[int]
    covered: frozenset[int]
    rounds: int
    per_round_transmitters: tuple[int, ...]


class GridIndex:
    """Points sorted by x: a disc query is the strip |px - x| <= radius.

    The strip is a superset of the disc, so the exact test in _sector_hits
    decides every hit.  It is padded by a relative margin so that rounding
    in x +- radius cannot drop a point that test accepts.
    """

    def __init__(self, points: np.ndarray):
        self.points = np.asarray(points, dtype=float).reshape(-1, 2)
        self._ids = np.argsort(self.points[:, 0], kind="stable")
        self._xs = self.points[self._ids, 0]

    def candidates(self, x: float, y: float, radius: float) -> np.ndarray:
        """Ids of all points whose x lies within radius of the apex's x."""
        pad = radius + 1e-9 * (abs(x) + radius)
        lo = np.searchsorted(self._xs, x - pad, side="left")
        hi = np.searchsorted(self._xs, x + pad, side="right")
        return self._ids[lo:hi]


def _sector_hits(index: GridIndex, ax: float, ay: float, axis: float,
                 half_angle: float, radius: float) -> np.ndarray:
    """Ids of index points inside the sector; same arithmetic as in_sector."""
    cand = index.candidates(ax, ay, radius)
    if not len(cand):
        return cand
    pts = index.points[cand]
    dx = pts[:, 0] - ax
    dy = pts[:, 1] - ay
    q = dx * dx + dy * dy
    ok = (q > 0.0) & (q <= radius * radius)
    if half_angle < math.pi:
        ux = math.cos(axis)
        uy = math.sin(axis)
        ok &= dx * ux + dy * uy >= np.sqrt(q) * math.cos(half_angle)
    return cand[ok]


def neighbors_in_sector(index: GridIndex, s: Sector) -> set[int]:
    """Exactly the indexed points p with in_sector(p, s) true."""
    return set(_sector_hits(index, s.apex.x, s.apex.y, s.axis, s.half_angle, s.radius).tolist())


def build_index(scenario: Scenario) -> GridIndex:
    """Strip over scenario.nodes plus the destination (id n_nodes)."""
    dest = np.array([[scenario.destination.x, scenario.destination.y]])
    return GridIndex(np.vstack([scenario.nodes, dest]))


def propagate(scenario: Scenario, rng: np.random.Generator | None = None) -> BroadcastOutcome:
    """Run the flood to exhaustion and account coverage and transmissions.

    rng supplies the per-transmitter direction error, drawn up front and
    keyed by node id so the outcome is independent of iteration order; it
    is only consumed when the config's direction_error_bound is nonzero,
    and defaults to the scenario's aiming stream SeedSequence((seed, 1)).
    """
    cfg = scenario.config
    n = len(scenario.nodes)
    index = build_index(scenario)
    half = cfg.theta / 2.0
    r = cfg.radius
    dest_x, dest_y = scenario.destination.x, scenario.destination.y

    eps = cfg.direction_error_bound
    if eps > 0.0:
        if rng is None:
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 1)))
        # deltas[0] belongs to the source, deltas[i + 1] to node i
        deltas = rng.uniform(-eps, eps, size=n + 1)
    else:
        deltas = np.zeros(n + 1)

    covered = np.zeros(n + 1, dtype=bool)      # receivers; index n = destination
    transmitted = np.zeros(n, dtype=bool)
    implicated: list[int] = []
    per_round: list[int] = []
    first_hop: int | None = None

    tx_ids = np.array([SOURCE_ID], dtype=np.int64)
    tx_pos = np.array([[scenario.source.x, scenario.source.y]])
    while len(tx_ids):
        per_round.append(len(tx_ids))
        implicated.extend(tx_ids.tolist())
        newly = np.zeros(n + 1, dtype=bool)
        for tid, (ax, ay) in zip(tx_ids, tx_pos):
            ddx = dest_x - ax
            ddy = dest_y - ay
            if ddx == 0.0 and ddy == 0.0:
                axis = 0.0  # coincident with destination; aim is arbitrary
            else:
                axis = math.atan2(ddy, ddx) % TWO_PI
            axis = (axis + deltas[tid + 1]) % TWO_PI
            newly[_sector_hits(index, ax, ay, axis, half, r)] = True
        if first_hop is None and newly[n]:
            first_hop = len(per_round)
        fresh = newly[:n] & ~covered[:n] & ~transmitted
        covered |= newly
        tx_ids = np.nonzero(fresh)[0]
        transmitted[tx_ids] = True
        tx_pos = scenario.nodes[tx_ids]

    return BroadcastOutcome(
        success=bool(covered[n]),
        first_delivery_hop=first_hop,
        implicated=frozenset(implicated),
        covered=frozenset(np.nonzero(covered)[0].tolist()),
        rounds=len(per_round),
        per_round_transmitters=tuple(per_round),
    )
