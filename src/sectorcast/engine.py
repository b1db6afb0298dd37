"""Round-synchronous directional flood, run for a batch of floods in lockstep.

Round 0's only transmitter is the source.  Every transmitter emits once
into a sector of radius r and half-angle theta/2 aimed at the destination
(optionally perturbed by a bounded uniform direction error); sector members
are covered, newly covered nodes relay exactly once in the next round, and
the flood runs until no transmitters remain, whether or not the destination
was reached earlier.

propagate_batch floods many scenarios together: each round tests every
(transmitter, candidate) pair of every flood in a few numpy passes, where a
transmitter's candidates are the index's nodes in its sector's bounding
box.  The index holds nodes only, one group per field: scenarios whose
nodes are row-prefix views of one array (the cells of a sweep trial, of any
theta, d and n_nodes) share one group.  Each flood keeps its own covered
slots, one per row of its group, laid out in the index's sort order, so a
candidate run of the index is a run of the flood's slots and covered
candidates are dropped before any coordinate is gathered; the rows past a
flood's own nodes start covered.  sector_hits marks a round's hits covered
and returns each fresh slot once.  Each transmitter tests its own
destination as one extra point.  propagate is the one-flood call.

Axes come from numpy's vector trig, which may differ from the scalar math
of the in_sector oracle in the last bits; every pair within NEAR of its
sector's edge is decided again with the scalar aim_vectors axis, so each
decision is the oracle's.

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
# radians added to each half-angle before taking a sector's bounding box:
# the exact test accepts points up to about 2e-8 rad outside the sector
BOX_SLACK = 1e-6
# cos_half of a 360-degree sector: below any dot / |d| ratio, so every
# point within range passes the angular test
FULL_CIRCLE = -2.0
# a pair whose dot - sqrt(q) * cos_half lies within NEAR * sqrt(q) of 0 is
# decided again with the scalar axis; vector axes stay within NEAR / 1000 of it
NEAR = 1e-9
_TOWARD = np.array([[-1.0], [-1.0], [1.0], [1.0]])  # signs of the -x, -y, +x, +y box sides


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
    """Points sorted by (group, column, row) of square cells, with a start table.

    Cells are a third of the radius wide (wider when a group's extent would
    need more than 4 * points / groups of them, so the table stays
    O(points + groups) for any radius) from the points' smallest x and y.
    start[k] is the position of cell k's first point in the sorted order, so
    the points of one column in a range of rows are one run, found by two
    lookups.  A query box meets one run per column; the runs are a superset
    of the box, padded by a relative margin so that rounding in the box
    corners cannot drop a point the exact test in sector_hits accepts.
    """

    def __init__(self, points: np.ndarray, radius: float, groups: np.ndarray):
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        self.radius = radius
        n = len(points)
        xy = np.array(points.T, order="C")  # a copy: fast reductions along each coordinate
        groups = np.asarray(groups, dtype=np.int64)
        self._ngroups = int(groups.max(initial=-1)) + 1
        origin, top = ((xy.min(axis=1, keepdims=True), xy.max(axis=1, keepdims=True)) if n
                       else (np.zeros((2, 1)), np.zeros((2, 1))))
        self._abs_max = float(max(-origin.min(), top.max()))
        extent = float((top - origin).max())
        self._cell = max(radius / 3.0, extent / math.sqrt(4.0 * n / self._ngroups) if n else 0.0)
        xy -= origin  # in place: xy is the build's one float temporary
        xy /= self._cell
        cells = xy.astype(np.int32)  # a coordinate is below 2 * sqrt(points) + 1
        self._ncols, self._nrows = (cells.max(axis=1, initial=0) + 1).tolist()
        size = self._ngroups * self._ncols * self._nrows
        ids = (groups * self._ncols + cells[0]) * self._nrows + cells[1]
        del xy, cells  # freed before the start table and gathers, where the build peaks
        # sorting ids << s | position (2^s > n) is argsort(ids, kind="stable"); keys stay
        # below size * 2n < 2^63 while size and n are below 2^31 (a 16 GB start table)
        s = n.bit_length()
        self.order = (ids << s) | np.arange(n)
        self.order.sort()
        self.order &= (1 << s) - 1
        ids += 1  # start[k + 1] counts the points in cells up to k
        self.start = np.bincount(ids, minlength=size + 1)
        self.start.cumsum(out=self.start)
        del ids
        self.sorted_x, self.sorted_y = (points[:, k].take(self.order) for k in (0, 1))
        # query boxes are (4, queries) rows: low x, low y, high x, high y
        self._origin = np.tile(origin, (2, 1))
        self._clip = np.array([[0, 0, -1, -1], [self._ncols, self._nrows, self._ncols - 1,
                                                self._nrows - 1]])[..., None]

    def ranges(self, xs: np.ndarray, ys: np.ndarray, reach: np.ndarray,
               groups: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(query, lo, hi): runs [lo, hi) of the sorted order, one per cell
        column a query's box meets, holding every point of the query's group
        in the box.  Query i's box reaches reach[:, i] radii from (xs[i],
        ys[i]) toward -x, -y, +x and +y."""
        apex = np.array((xs, ys, xs, ys))
        # one margin for the call, scaled by the largest coordinate in play
        pad = 1e-9 * (max(self._abs_max, np.abs(apex).max(initial=0.0)) + self.radius)
        reach = (self.radius * reach + pad) * _TOWARD
        cells = np.floor((apex + reach - self._origin) / self._cell)
        cells = np.minimum(np.maximum(cells, self._clip[0]), self._clip[1]).astype(np.int64)
        cols, rows = np.maximum(cells[2:] - cells[:2] + 1, 0)
        spans = cols * ((rows > 0) & (groups < self._ngroups))
        # array methods: the np.* wrappers cost more than a round's small arrays
        query = np.arange(len(groups)).repeat(spans)
        col = (cells[0] - spans.cumsum() + spans).repeat(spans) + np.arange(len(query))
        base = (groups[query] * self._ncols + col) * self._nrows
        return query, self.start[base + cells[1, query]], self.start[base + cells[3, query] + 1]

    def candidates(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Positions in the sorted order of every point in the runs [lo, hi)."""
        counts = hi - lo
        starts = (lo - counts.cumsum() + counts).repeat(counts)
        return starts + np.arange(len(starts))


def _in_sectors(dx: np.ndarray, dy: np.ndarray, ux: np.ndarray, uy: np.ndarray, r2: float,
                cos_half: np.ndarray | float, exact) -> np.ndarray:
    """The in_sector oracle's test, elementwise, for points at (dx, dy) from
    their apexes: 0 < q <= r2 and the dot product with the axis is at least
    sqrt(q) * cos_half, the cosine of the half-angle (FULL_CIRCLE for a
    360-degree sector), per point or scalar.  (ux, uy) are vector-trig axes:
    a point in range whose gap, dot - sqrt(q) * cos_half, is within NEAR *
    sqrt(q) of 0 is decided again with exact(k), the scalar axes of points k."""
    q = dx * dx + dy * dy
    ok = (q > 0.0) & (q <= r2)
    if not np.count_nonzero(ok):
        return ok
    root = np.sqrt(q)
    gap = dx * ux + dy * uy - root * cos_half
    edge = ok & (np.abs(gap) <= NEAR * root)
    ok &= gap >= 0.0
    if np.count_nonzero(edge):
        k = edge.nonzero()[0]
        ex, ey = exact(k)
        c = cos_half[k] if np.ndim(cos_half) else cos_half
        ok[k] = dx[k] * ex + dy[k] * ey >= root[k] * c
    return ok


def sector_hits(index: GridIndex, xs: np.ndarray, ys: np.ndarray, ux: np.ndarray,
                uy: np.ndarray, groups: np.ndarray, cos_half: np.ndarray | float,
                wide: np.ndarray, shift: np.ndarray, covered: np.ndarray, stamp: np.ndarray,
                exact) -> np.ndarray:
    """Mark covered and return, once each, the uncovered slots hit by sectors
    of the index's radius at apexes (xs, ys) along vector-trig axes (ux, uy),
    with the verdicts of the scalar in_sector oracle in tests/oracles.py:
    exact(queries) gives the scalar axes that decide pairs near a sector's
    edge.  cos_half (cos of the half-angle, FULL_CIRCLE for a 360-degree
    sector) is a per-query array, or a scalar when every query has the same
    half-angle.  wide holds cos and sin of the half-angle plus BOX_SLACK,
    capped at pi, in the same form: the index is queried over the bounding
    box of that wider sector.

    Query i's candidate at sorted position p is slot p + shift[i] of covered
    and of stamp, an int32 scratch array.  Pairs are tested in chunks of
    about ROUND_CHUNK; candidates whose slot is covered when their chunk
    starts are dropped untested.
    """
    # reach in radii toward -x, -y, +x and +y: the apex, both arc ends, and
    # each cardinal extreme within the half-angle
    c, s = wide
    u = np.array((-ux, -uy, ux, uy))
    reach = np.where(u >= c, 1.0, np.maximum(u * c + np.abs(u[::-1]) * s, 0.0))
    query, lo, hi = index.ranges(xs, ys, reach, groups)
    ends = (hi - lo).cumsum()
    cuts = []
    if len(ends) and ends[-1] > ROUND_CHUNK:
        cuts = np.searchsorted(ends, np.arange(ROUND_CHUNK, ends[-1], ROUND_CHUNK), side="right")
        cuts = np.unique(cuts[(cuts > 0) & (cuts < len(lo))]).tolist()
    run_shift = shift[query]
    lo, hi = lo + run_shift, hi + run_shift  # runs of slots
    r2 = index.radius * index.radius
    fresh = []
    # index arrays and take: boolean masks and fancy indexing cost 2-4x more per pair
    for a, b in zip((0, *cuts), (*cuts, len(lo))):
        slots = index.candidates(lo[a:b], hi[a:b])
        live = np.flatnonzero(~covered.take(slots))
        owner = query[a:b].repeat(hi[a:b] - lo[a:b]).take(live)
        slots = slots.take(live)
        pos = slots - shift.take(owner)
        c = cos_half.take(owner) if np.ndim(cos_half) else cos_half
        slots = slots.take(np.flatnonzero(_in_sectors(
            index.sorted_x.take(pos) - xs.take(owner), index.sorted_y.take(pos) - ys.take(owner),
            ux.take(owner), uy.take(owner), r2, c, lambda k: exact(owner.take(k)))))
        covered[slots] = True
        # one entry per slot: a slot hit twice in the chunk keeps its last
        order = np.arange(len(slots), dtype=np.int32)
        stamp[slots] = order
        fresh.append(slots.compress(stamp.take(slots) == order))
    return np.concatenate(fresh)


def _vector_axes(dx: np.ndarray, dy: np.ndarray,
                 deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos, sin) of bearing atan2(dy, dx) plus deltas, in numpy's vector
    trig: within NEAR / 1000 of aim_vectors' scalar axes.  dx = dy = 0, of
    either sign, is bearing 0."""
    axes = np.arctan2(dy, dx + 0.0) + deltas
    return np.cos(axes), np.sin(axes)


def aim_vectors(dx: np.ndarray, dy: np.ndarray,
                deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos, sin) of each transmitter's axis: the bearing atan2(dy, dx) of
    its destination, at offset (dx, dy), plus its aiming error.

    atan2, cos and sin are the scalar math functions of the in_sector
    oracle in tests/oracles.py, one call each per transmitter, since
    numpy's vector versions may differ from them in the last bit.  np.mod
    is the same exact fmod and sign fix as Python's %.  A transmitter on
    its destination aims at bearing 0.  The flood kernel aims with
    _vector_axes and calls this only for pairs near a sector's edge.
    """
    axes = np.fromiter(map(math.atan2, dy.tolist(), (dx + 0.0).tolist()), float, len(dx))
    axes = np.mod(np.mod(axes, math.tau) + deltas, math.tau).tolist()
    return (np.fromiter(map(math.cos, axes), float, len(axes)),
            np.fromiter(map(math.sin, axes), float, len(axes)))


def build_index(fields: Sequence[np.ndarray], radius: float) -> GridIndex:
    """Index over the nodes of each field, grouped by field."""
    return GridIndex(np.concatenate(fields), radius,
                     np.arange(len(fields)).repeat([len(f) for f in fields]))


@dataclass(frozen=True)
class BatchOutcome:
    """Floods of a batch of scenarios.

    Flood b owns slots offsets[b] .. offsets[b + 1] - 1 of covered, one per
    row of its index group's field, of which its own nodes are the first
    n_nodes[b], in the sort order of the batch's GridIndex, not in node
    order: slot offsets[b] + k is row order[base[b] + k] - base[b].  That
    layout follows the index and changes with it; outcome(b) maps the slots
    back to node ids.  Every covered node relays exactly once, so a flood's
    transmitters are its source and its covered nodes.
    """

    offsets: np.ndarray    # (B + 1,) slot offsets
    covered: np.ndarray    # per slot: the message reached the node
    first_hop: np.ndarray  # (B,) round that first reached the destination, 0 if none
    per_round: np.ndarray  # (rounds, B) transmitters per round
    order: np.ndarray      # the index's sort order: sorted position -> row of all fields
    base: np.ndarray       # (B,) sorted position of the first node of each flood's field
    n_nodes: np.ndarray    # (B,) rows of each flood's own nodes; the destination's id

    @property
    def reached(self) -> np.ndarray:
        """(B,) the message reached the destination: first_hop > 0."""
        return self.first_hop > 0

    @property
    def implicated(self) -> np.ndarray:
        """Transmitters per flood, the source included."""
        return self.per_round.sum(axis=0)

    def outcome(self, b: int) -> BroadcastOutcome:
        lo, hi = int(self.offsets[b]), int(self.offsets[b + 1])
        base = int(self.base[b])
        nodes = (self.order[base + np.flatnonzero(self.covered[lo:hi])] - base).tolist()
        hop = int(self.first_hop[b])
        counts = self.per_round[:, b]
        counts = counts[counts > 0]
        return BroadcastOutcome(
            success=hop > 0,
            first_delivery_hop=hop or None,
            implicated=frozenset([SOURCE_ID, *nodes]),
            covered=frozenset([*nodes, int(self.n_nodes[b])] if hop else nodes),
            rounds=len(counts),
            per_round_transmitters=tuple(counts.tolist()),
        )


def propagate_batch(scenarios: Sequence[Scenario],
                    rngs: Sequence[np.random.Generator] | None = None) -> BatchOutcome:
    """Flood every scenario to exhaustion, all in lockstep.

    The scenarios share radius and direction_error_bound; theta, endpoints
    and nodes may differ, and row-prefix views of one array share an index
    group.  Direction errors are drawn up front and keyed by node id, so
    outcomes are independent of iteration order and batching.  rngs[b]
    supplies scenario b's errors; by default they come from the aiming
    stream SeedSequence((seed, 1)) of its config seed, drawn once for all
    scenarios with the same group and seed: the stream is prefix-stable, so
    a view of n rows reads the draws it would alone.  Streams are only
    consumed when direction_error_bound is nonzero.
    """
    cfg = scenarios[0].config
    shared = (cfg.radius, cfg.direction_error_bound)
    if any((s.config.radius, s.config.direction_error_bound) != shared for s in scenarios):
        raise ValueError("a batch must share radius and direction_error_bound")
    n_floods = len(scenarios)
    # row-prefix views of one array (same data pointer, strides and dtype)
    # share a group, which holds the longest of them
    keys: dict[int, tuple] = {}  # id(nodes) -> group key
    longest: dict[tuple, np.ndarray] = {}
    for s in scenarios:
        if id(s.nodes) not in keys:
            nodes = s.nodes
            key = keys[id(nodes)] = (nodes.__array_interface__["data"][0], nodes.strides,
                                     nodes.dtype.str)
            if len(nodes) >= len(longest.get(key, ())):
                longest[key] = nodes
    group = {key: g for g, key in enumerate(longest)}
    field_of = np.array([group[keys[id(s.nodes)]] for s in scenarios], np.int64)
    fields = list(longest.values())
    index = build_index(fields, cfg.radius)
    sizes = np.array([len(f) for f in fields], np.int64)
    field_start = np.concatenate(([0], np.cumsum(sizes)))
    n_nodes = np.array([len(s.nodes) for s in scenarios], np.int64)
    offsets = np.concatenate(([0], np.cumsum(sizes[field_of])))
    # flood b's slot of sorted position p is p + shift[b]
    shift = offsets[:-1] - field_start[field_of]
    covered = np.zeros(offsets[-1], dtype=bool)
    # a flood over the first n rows of its group: the slots of the rows
    # past n start covered, so no transmitter tests them, and are cleared
    # after the last round
    starts, ends = field_start.tolist(), offsets.tolist()
    partial = [(slice(ends[b], ends[b + 1]), g, n)
               for b, (g, n) in enumerate(zip(field_of.tolist(), n_nodes.tolist()))
               if n < starts[g + 1] - starts[g]]
    past = {}  # (group, n) -> per sorted position of the group: row >= n
    for slots, g, n in partial:
        if (g, n) not in past:
            past[g, n] = index.order[starts[g]:starts[g + 1]] >= starts[g] + n
        covered[slots] = past[g, n]

    eps = cfg.direction_error_bound
    src_delta = np.zeros(n_floods)
    if eps > 0.0:
        # rows of draws, one per (group, seed) or, with rngs, one per flood:
        # draw 0 belongs to the source and draw r + 1 to row r of the field,
        # which flood b reads at node_delta[row of all fields + delta_shift[b]]
        if rngs is None:
            row_keys = list(zip(field_of.tolist(), (s.config.seed for s in scenarios)))
            draws = {(g, seed): np.random.default_rng(np.random.SeedSequence((seed, 1))).uniform(
                -eps, eps, size=sizes[g] + 1) for g, seed in dict.fromkeys(row_keys)}
        else:
            row_keys = range(n_floods)
            draws = {b: rng.uniform(-eps, eps, size=len(s.nodes) + 1)
                     for b, (rng, s) in enumerate(zip(rngs, scenarios))}
        row_at = dict(zip(draws, np.cumsum([0, *map(len, draws.values())]).tolist()))
        row_start = np.array([row_at[key] for key in row_keys], np.int64)
        node_delta = np.concatenate(list(draws.values()))
        src_delta = node_delta[row_start]
        delta_shift = row_start + 1 - field_start[field_of]

    r2 = cfg.radius * cfg.radius
    halves = np.array([s.config.theta / 2.0 for s in scenarios])
    cos_half = np.array([FULL_CIRCLE if h >= math.pi else math.cos(h) for h in halves.tolist()])
    box_half = np.minimum(halves + BOX_SLACK, math.pi)
    wide = np.array((np.cos(box_half), np.sin(box_half)))
    one_beam = bool((halves == halves[0]).all())  # then sector_hits takes scalars
    dest_x = np.array([s.destination.x for s in scenarios])
    dest_y = np.array([s.destination.y for s in scenarios])
    # a chunk hits at most ROUND_CHUNK plus one field's nodes, well below 2^31
    stamp = np.zeros(offsets[-1], dtype=np.int32)
    first_hop = np.zeros(n_floods, dtype=np.int64)
    per_round = []

    tx_flood = np.arange(n_floods)
    tx_x = np.array([s.source.x for s in scenarios])
    tx_y = np.array([s.source.y for s in scenarios])
    tx_delta = src_delta
    while len(tx_flood):
        per_round.append(np.bincount(tx_flood, minlength=n_floods))
        dx, dy = dest_x[tx_flood] - tx_x, dest_y[tx_flood] - tx_y
        ux, uy = _vector_axes(dx, dy, tx_delta)

        def exact(k):  # scalar axes of transmitters k, for pairs near a sector's edge
            return aim_vectors(dx[k], dy[k], tx_delta[k])

        tx_cos, tx_wide = ((cos_half[0], wide[:, 0]) if one_beam
                           else (cos_half[tx_flood], wide[:, tx_flood]))
        # each transmitter tests its own destination as one extra point
        hit = tx_flood.compress(_in_sectors(dx, dy, ux, uy, r2, tx_cos, exact))
        hit = hit.compress(first_hop.take(hit) == 0)
        first_hop[hit] = len(per_round)
        fresh = sector_hits(index, tx_x, tx_y, ux, uy, field_of[tx_flood], tx_cos, tx_wide,
                            shift[tx_flood], covered, stamp, exact)
        tx_flood = offsets.searchsorted(fresh, side="right") - 1
        pos = fresh - shift[tx_flood]
        tx_x, tx_y = index.sorted_x[pos], index.sorted_y[pos]
        # without aiming errors every delta is zero
        tx_delta = (node_delta[index.order[pos] + delta_shift[tx_flood]] if eps > 0.0
                    else np.zeros(len(pos)))

    for slots, g, n in partial:  # still covered: no transmitter tested them
        covered[slots] ^= past[g, n]
    return BatchOutcome(offsets=offsets, covered=covered, first_hop=first_hop,
                        per_round=np.array(per_round).reshape(-1, n_floods),
                        order=index.order, base=field_start[field_of], n_nodes=n_nodes)


def propagate(scenario: Scenario, rng: np.random.Generator | None = None) -> BroadcastOutcome:
    """Run one flood to exhaustion: the one-scenario call of propagate_batch."""
    return propagate_batch([scenario], None if rng is None else [rng]).outcome(0)
