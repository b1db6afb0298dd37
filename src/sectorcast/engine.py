"""Round-synchronous directional flood, run for a batch of floods in lockstep.

Round 0's only transmitter is the source.  Every transmitter emits once
into a sector of radius r and half-angle theta/2 aimed at the destination
(optionally perturbed by a bounded uniform direction error); sector members
are covered, newly covered nodes relay exactly once in the next round, and
the flood runs until no transmitters remain, whether or not the destination
was reached earlier.

propagate_batch floods many scenarios together: each round tests every
(transmitter, candidate) pair of every flood in a few numpy passes.  The
spatial index holds nodes only, one group per distinct nodes array, so the
floods of a sweep trial that differ only in theta and d share one group;
each flood keeps its own covered slots, and each transmitter tests its own
destination as one extra point.  propagate is the one-flood call.

Node identifiers: ordinary nodes are their row index in scenario.nodes,
the destination is index n_nodes, and the source is SOURCE_ID (-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .scenario import Scenario

SOURCE_ID = -1

ROUND_CHUNK = 1 << 14   # (transmitter, candidate) pairs per numpy pass; bounds a round's memory
_MAX_COLUMNS = 1 << 20  # with under 2**21 rows, (group, column, y-rank) keys fit int64


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
    """Points sorted by (group, x-column, y): a disc query is <= 4 y-ranges.

    Columns start at the points' smallest x and are radius wide (wider when
    the x-extent would need more than 2**20 of them), so the strip
    |px - x| <= radius meets at most 4 columns of a group, and the points of
    one column with |py - y| <= radius are one run of the sorted order.  The
    runs are a superset of the disc, so the exact test in sector_hits
    decides every hit; they are padded by a relative margin so that rounding
    in x +- radius cannot drop a point that test accepts.
    """

    def __init__(self, points: np.ndarray, radius: float, groups: np.ndarray):
        self.points = np.asarray(points, dtype=float).reshape(-1, 2)
        self.radius = radius
        n = len(self.points)
        xs, ys = self.points[:, 0], self.points[:, 1]
        self.groups = np.asarray(groups, np.int64)
        self._x0 = float(xs.min()) if n else 0.0
        self._abs_max = float(np.abs(self.points).max(initial=0.0))
        self._width = max(radius, (float(xs.max()) - self._x0) / _MAX_COLUMNS if n else 0.0)
        cols = ((xs - self._x0) / self._width).astype(np.int64)
        self._ncols = int(cols.max()) + 1 if n else 1
        by_y = np.argsort(ys)
        self._ys = ys[by_y]
        # (bucket, y-rank) keys are unique, so their order is the index's order
        self._stride = n + 1
        keys = (self.groups * self._ncols + cols)[by_y] * self._stride + np.arange(n)
        rank = np.argsort(keys)
        self._keys = keys[rank]
        self.order = by_y[rank]
        self.sorted_x = xs[self.order]
        self.sorted_y = ys[self.order]

    def ranges(self, xs: np.ndarray, ys: np.ndarray,
               groups: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(query, lo, hi): runs [lo, hi) of the sorted order, at most 4 per
        query, holding every point of the query's group within radius of it."""
        r = self.radius
        # one margin for the call, scaled by the largest coordinate in play
        pad = r + 1e-9 * (max(self._abs_max, np.abs(xs).max(initial=0.0),
                              np.abs(ys).max(initial=0.0)) + r)
        first = np.floor((xs - pad - self._x0) / self._width).clip(0.0, self._ncols)
        last = np.minimum(np.floor((xs + pad - self._x0) / self._width), self._ncols - 1.0)
        spans = np.maximum(last - first + 1.0, 0.0).astype(np.int64)  # columns per query
        query = np.repeat(np.arange(len(xs)), spans)
        col = np.repeat(first.astype(np.int64) - np.cumsum(spans) + spans, spans)
        col += np.arange(len(query))
        y_lo = np.searchsorted(self._ys, ys - pad, side="left")[query]
        y_hi = np.searchsorted(self._ys, ys + pad, side="right")[query]
        base = (groups[query] * self._ncols + col) * self._stride
        bounds = np.searchsorted(self._keys, np.concatenate((base + y_lo, base + y_hi)))
        return query, bounds[:len(query)], bounds[len(query):]

    def candidates(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Positions in the sorted order of every point in the runs [lo, hi)."""
        counts = hi - lo
        starts = np.repeat(lo - np.cumsum(counts) + counts, counts)
        return starts + np.arange(len(starts))


def _in_sectors(dx: np.ndarray, dy: np.ndarray, ux: np.ndarray, uy: np.ndarray, r2: float,
                cos_half: np.ndarray | float, full: np.ndarray | bool) -> np.ndarray:
    """The in_sector oracle's test, elementwise, for points at (dx, dy) from
    their apexes: 0 < q <= r2 and, unless full (a 360-degree sector), the
    dot product with the axis is at least sqrt(q) * cos(half-angle).
    cos_half and full are per-point arrays or scalars."""
    q = dx * dx + dy * dy
    ok = (q > 0.0) & (q <= r2)
    if np.ndim(full):
        ok &= full | (dx * ux + dy * uy >= np.sqrt(q) * cos_half)
    elif not full:
        ok &= dx * ux + dy * uy >= np.sqrt(q) * cos_half
    return ok


def sector_hits(index: GridIndex, xs: np.ndarray, ys: np.ndarray, ux: np.ndarray,
                uy: np.ndarray, groups: np.ndarray, cos_half: np.ndarray | float,
                full: np.ndarray | bool):
    """Yield (query, point id) hit pairs, one chunk of about ROUND_CHUNK
    candidate pairs at a time, for sectors of the index's radius at apexes
    (xs, ys) pointing along unit vectors (ux, uy); same arithmetic as the
    scalar in_sector oracle in tests/oracles.py.  cos_half (cos of the
    half-angle) and full (a 360-degree sector) are per-query arrays, or
    scalars when every query has the same half-angle.
    """
    query, lo, hi = index.ranges(xs, ys, groups)
    ends = np.cumsum(hi - lo)
    cuts = []
    if len(ends) and ends[-1] > ROUND_CHUNK:
        cuts = np.searchsorted(ends, np.arange(ROUND_CHUNK, ends[-1], ROUND_CHUNK), side="right")
        cuts = np.unique(cuts[(cuts > 0) & (cuts < len(lo))]).tolist()
    r2 = index.radius * index.radius
    for a, b in zip((0, *cuts), (*cuts, len(lo))):
        pos = index.candidates(lo[a:b], hi[a:b])
        owner = np.repeat(query[a:b], hi[a:b] - lo[a:b])
        c, f = (cos_half[owner], full[owner]) if np.ndim(cos_half) else (cos_half, full)
        ok = _in_sectors(index.sorted_x[pos] - xs[owner], index.sorted_y[pos] - ys[owner],
                         ux[owner], uy[owner], r2, c, f)
        yield owner[ok], index.order[pos[ok]]


def aim_vectors(xs: np.ndarray, ys: np.ndarray, dest_x: np.ndarray, dest_y: np.ndarray,
                deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos, sin) of each transmitter's axis: the bearing of its destination
    plus its aiming error.

    atan2, cos and sin are the scalar math functions of the in_sector
    oracle in tests/oracles.py, one call each per transmitter, since
    numpy's vector versions may differ from them in the last bit.  np.mod
    is the same exact fmod and sign fix as Python's %.  A transmitter on
    its destination aims at bearing 0.
    """
    ddx, ddy = dest_x - xs, dest_y - ys
    axes = np.fromiter(map(math.atan2, ddy.tolist(), ddx.tolist()), float, len(ddx))
    axes[(ddx == 0.0) & (ddy == 0.0)] = 0.0
    axes = np.mod(np.mod(axes, math.tau) + deltas, math.tau).tolist()
    return (np.fromiter(map(math.cos, axes), float, len(axes)),
            np.fromiter(map(math.sin, axes), float, len(axes)))


def build_index(fields: Sequence[np.ndarray], radius: float) -> GridIndex:
    """Index over the nodes of each field, grouped by field."""
    return GridIndex(np.concatenate(fields), radius,
                     np.repeat(np.arange(len(fields)), [len(f) for f in fields]))


@dataclass(frozen=True)
class BatchOutcome:
    """Floods of a batch of scenarios.

    Flood b owns slots offsets[b] .. offsets[b + 1] - 1 of covered, one per
    node of its scenario in order, and reached[b] says whether it reached
    its destination.  Every covered node relays exactly once, so a flood's
    transmitters are its source and its covered nodes.
    """

    offsets: np.ndarray    # (B + 1,) slot offsets
    covered: np.ndarray    # per slot: the message reached the node
    reached: np.ndarray    # (B,) the message reached the destination
    first_hop: np.ndarray  # (B,) round that first reached the destination, 0 if none
    per_round: np.ndarray  # (rounds, B) transmitters per round

    @property
    def implicated(self) -> np.ndarray:
        """Transmitters per flood, the source included."""
        total = np.concatenate(([0], np.cumsum(self.covered)))
        return total[self.offsets[1:]] - total[self.offsets[:-1]] + 1

    def outcome(self, b: int) -> BroadcastOutcome:
        lo, hi = int(self.offsets[b]), int(self.offsets[b + 1])
        nodes = np.flatnonzero(self.covered[lo:hi]).tolist()
        success = bool(self.reached[b])
        counts = self.per_round[:, b]
        counts = counts[counts > 0]
        hop = int(self.first_hop[b])
        return BroadcastOutcome(
            success=success,
            first_delivery_hop=hop or None,
            implicated=frozenset([SOURCE_ID, *nodes]),
            covered=frozenset([*nodes, hi - lo] if success else nodes),
            rounds=len(counts),
            per_round_transmitters=tuple(counts.tolist()),
        )


def propagate_batch(scenarios: Sequence[Scenario],
                    rngs: Sequence[np.random.Generator] | None = None) -> BatchOutcome:
    """Flood every scenario to exhaustion, all in lockstep.

    The scenarios share radius and direction_error_bound; theta, endpoints
    and nodes may differ.  Scenarios that pass the same nodes array (the
    cells of a sweep trial that differ only in theta and d) share one group
    of the index, while each keeps its own covered slots.  Direction errors
    are drawn up front and keyed by node id, so outcomes are independent of
    iteration order and batching.  rngs[b] supplies scenario b's errors; by
    default they come from the aiming stream SeedSequence((seed, 1)) of its
    config seed, drawn once for all scenarios with the same nodes array and
    seed.  Streams are only consumed when direction_error_bound is nonzero.
    """
    cfg = scenarios[0].config
    shared = (cfg.radius, cfg.direction_error_bound)
    if any((s.config.radius, s.config.direction_error_bound) != shared for s in scenarios):
        raise ValueError("a batch must share radius and direction_error_bound")
    n_floods = len(scenarios)
    groups: dict[int, int] = {}
    field_of = np.array([groups.setdefault(id(s.nodes), len(groups)) for s in scenarios],
                        np.int64)
    fields = list({id(s.nodes): s.nodes for s in scenarios}.values())
    index = build_index(fields, cfg.radius)
    field_start = np.concatenate(([0], np.cumsum([len(f) for f in fields])))
    offsets = np.concatenate(([0], np.cumsum([len(s.nodes) for s in scenarios])))
    shift = offsets[:-1] - field_start[field_of]  # flood b's slot = index row + shift[b]

    eps = cfg.direction_error_bound
    slot_delta = np.zeros(offsets[-1])
    src_delta = np.zeros(n_floods)
    if eps > 0.0:
        default_draws = {}
        for b, s in enumerate(scenarios):
            if rngs is not None:
                draws = rngs[b].uniform(-eps, eps, size=len(s.nodes) + 1)
            else:
                key = (id(s.nodes), s.config.seed)
                if key not in default_draws:
                    rng = np.random.default_rng(np.random.SeedSequence((s.config.seed, 1)))
                    default_draws[key] = rng.uniform(-eps, eps, size=len(s.nodes) + 1)
                draws = default_draws[key]
            # draws[0] belongs to the source, draws[i + 1] to node i
            src_delta[b] = draws[0]
            slot_delta[offsets[b]:offsets[b + 1]] = draws[1:]

    r2 = cfg.radius * cfg.radius
    halves = np.array([s.config.theta / 2.0 for s in scenarios])
    cos_half = np.array([math.cos(h) for h in halves.tolist()])
    full = halves >= math.pi
    one_beam = bool((halves == halves[0]).all())  # then sector_hits takes scalars
    dest_x = np.array([s.destination.x for s in scenarios])
    dest_y = np.array([s.destination.y for s in scenarios])
    covered = np.zeros(offsets[-1], dtype=bool)
    stamp = np.zeros(offsets[-1], dtype=np.int64)
    reached = np.zeros(n_floods, dtype=bool)
    first_hop = np.zeros(n_floods, dtype=np.int64)
    per_round = []

    tx_flood = np.arange(n_floods)
    tx_x = np.array([s.source.x for s in scenarios])
    tx_y = np.array([s.source.y for s in scenarios])
    tx_delta = src_delta
    while len(tx_flood):
        per_round.append(np.bincount(tx_flood, minlength=n_floods))
        to_x, to_y = dest_x[tx_flood], dest_y[tx_flood]
        ux, uy = aim_vectors(tx_x, tx_y, to_x, to_y, tx_delta)
        tx_cos, tx_full = ((cos_half[0], full[0]) if one_beam
                           else (cos_half[tx_flood], full[tx_flood]))
        # each transmitter tests its own destination as one extra point
        hit = tx_flood[_in_sectors(to_x - tx_x, to_y - tx_y, ux, uy, r2, tx_cos, tx_full)]
        hit = hit[~reached[hit]]
        reached[hit] = True
        first_hop[hit] = len(per_round)
        fresh = []
        tx_shift = shift[tx_flood]
        for owner, rows in sector_hits(index, tx_x, tx_y, ux, uy, field_of[tx_flood],
                                       tx_cos, tx_full):
            slots = rows + tx_shift[owner]
            slots = slots[~covered[slots]]
            covered[slots] = True
            fresh.append(slots)
        fresh = np.concatenate(fresh)
        # one entry per slot: a slot hit twice in a chunk keeps its last entry
        order = np.arange(len(fresh))
        stamp[fresh] = order
        fresh = fresh[stamp[fresh] == order]
        tx_flood = np.searchsorted(offsets, fresh, side="right") - 1
        tx_rows = fresh - shift[tx_flood]
        tx_x, tx_y = index.points[tx_rows, 0], index.points[tx_rows, 1]
        tx_delta = slot_delta[fresh]

    return BatchOutcome(offsets=offsets, covered=covered, reached=reached, first_hop=first_hop,
                        per_round=np.array(per_round).reshape(-1, n_floods))


def propagate(scenario: Scenario, rng: np.random.Generator | None = None) -> BroadcastOutcome:
    """Run one flood to exhaustion: the one-scenario call of propagate_batch."""
    return propagate_batch([scenario], None if rng is None else [rng]).outcome(0)
