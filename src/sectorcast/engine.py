"""Round-synchronous directional flood, run for a batch of floods in lockstep.

Round 0's only transmitter is the source.  Every transmitter emits once
into a sector of radius r and half-angle theta/2 aimed at the destination
(optionally perturbed by a bounded uniform direction error); sector members
are covered, newly covered nodes relay exactly once in the next round, and
the flood runs until no transmitters remain, whether or not the destination
was reached earlier.

flood_fields is the kernel, the library's one batch entry and its one
aiming seam: each flood runs over the first n_nodes rows of a field with
its own beam and endpoints, so the floods of a sweep trial, of any theta,
d and n_nodes, share one field.  Each round tests every (transmitter,
candidate) pair of every flood in a few numpy passes, where a
transmitter's candidates are the index's nodes in its sector's bounding
box.  The index holds nodes only, one group per field.  Each flood keeps
its own covered slots, one per row of its field, laid out in the index's
sort order, so a candidate run of the index is a run of the flood's slots
and covered candidates are dropped before any coordinate is gathered; the
rows past a flood's own nodes stay covered, untested.  sector_hits marks
a round's hits covered and returns each fresh slot once.  Each
transmitter tests its own destination as one extra point.
propagate floods one scenario: a flood_fields call over its own field.

Axes come from numpy's vector trig, which may differ from the scalar math
of the in_sector oracle in the last bits; every pair within NEAR of its
sector's edge is decided again with the scalar aim_vectors axis, so each
decision is the oracle's.

Node identifiers: ordinary nodes are their row index in their field, the
destination is index n_nodes, and the source is SOURCE_ID (-1).
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
CELL = (0.6, 0.15)  # index cell width and height, in radii
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
    """Points sorted by (group, column, row) of oblong cells, with a start table.

    Cells are CELL[0] radii wide and CELL[1] radii tall (both scaled up by
    one factor when a group's extent would need more than 4 * points /
    groups of them, so the table stays O(points + groups) for any radius)
    from the points' smallest x and y.  start[k] is the position of cell k's
    first point in the sorted order, so the points of one column in a range
    of rows are one run, found by two lookups.  A query box meets one run
    per column, a tall narrow box of a wide sector meets few columns, and
    short rows keep each run close to the box; the runs are a superset of
    the box, padded by a relative margin so that rounding in the box
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
        unit = max(radius, extent / math.sqrt(4.0 * n / self._ngroups * CELL[0] * CELL[1])
                   if n else 0.0)
        self._cell = unit * np.array(CELL)  # (width, height)
        xy -= origin  # in place: xy is the build's one float temporary
        xy /= self._cell[:, None]
        cells = xy.astype(np.int32)  # a coordinate is below 4 * sqrt(points) + 1
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
        self._size = np.tile(self._cell, 2)[:, None]
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
        cells = np.floor((apex + reach - self._origin) / self._size)
        cells = np.minimum(np.maximum(cells, self._clip[0]), self._clip[1]).astype(np.int64)
        cols, rows = np.maximum(cells[2:] - cells[:2] + 1, 0)
        spans = cols * ((rows > 0) & (groups < self._ngroups))
        # array methods: the np.* wrappers cost more than a round's small arrays
        query = np.arange(len(groups)).repeat(spans)
        # run k of the call reads start[first[query] + k * nrows]: first is a
        # query's first start-table index less its first run number times nrows
        first = (groups * self._ncols + cells[0] - spans.cumsum() + spans) * self._nrows + cells[1]
        lo = first.repeat(spans)
        lo += np.arange(len(query)) * self._nrows
        return query, self.start[lo], self.start[lo + rows.repeat(spans)]

    def candidates(self, base: np.ndarray, counts: np.ndarray, done: int) -> np.ndarray:
        """Slots of every pair of a chunk of runs, numbered on from done:
        run k holds counts[k] pairs, and pair number p of it is slot
        base[k] + p."""
        slots = base.repeat(counts)
        slots += np.arange(done, done + len(slots))
        return slots


def _in_sectors(dx: np.ndarray, dy: np.ndarray, ux: np.ndarray, uy: np.ndarray, r2: float,
                cos_half: np.ndarray | float, exact) -> np.ndarray:
    """The in_sector oracle's test, elementwise, for points at (dx, dy) from
    their apexes: 0 < q <= r2 and the dot product with the axis is at least
    sqrt(q) * cos_half, the cosine of the half-angle (FULL_CIRCLE for a
    360-degree sector), per point or scalar.  (ux, uy) are vector-trig axes:
    a point in range whose gap, dot - sqrt(q) * cos_half, is within NEAR *
    sqrt(q) of 0 is decided again with exact(k), the scalar axes of points k.
    This is the library's only sector-membership test: sector_hits and the
    flood's destination test both call it."""
    q = dx * dx  # in place below, in the operation order of the oracle's formula
    q += dy * dy
    ok = q > 0.0
    ok &= q <= r2
    if not np.count_nonzero(ok):
        return ok
    root = np.sqrt(q, out=q)
    gap = dx * ux
    gap += dy * uy
    gap -= root * cos_half
    edge = np.abs(gap) <= NEAR * root
    edge &= ok
    ok &= gap >= 0.0
    if np.count_nonzero(edge):
        k = edge.nonzero()[0]
        ex, ey = exact(k)
        c = cos_half[k] if np.ndim(cos_half) else cos_half
        ok[k] = dx[k] * ex + dy[k] * ey >= root[k] * c
    return ok


def sector_hits(index: GridIndex, xs: np.ndarray, ys: np.ndarray, ux: np.ndarray,
                uy: np.ndarray, groups: np.ndarray, cos_half: np.ndarray | float,
                wide: np.ndarray, shift: np.ndarray, covered: np.ndarray, exact) -> np.ndarray:
    """Mark covered and return, once each, the uncovered slots hit by sectors
    of the index's radius at apexes (xs, ys) along vector-trig axes (ux, uy),
    with the verdicts of the scalar in_sector oracle in tests/oracles.py:
    exact(queries) gives the scalar axes that decide pairs near a sector's
    edge.  cos_half (cos of the half-angle, FULL_CIRCLE for a 360-degree
    sector) is a per-query array, or a scalar when every query has the same
    half-angle.  wide holds cos and sin of the half-angle plus BOX_SLACK,
    capped at pi, in the same form: the index is queried over the bounding
    box of that wider sector (its apex, both arc ends and each cardinal
    extreme of its arc).  The fresh slots are the next round's transmitters.

    Query i's candidate at sorted position p is slot p + shift[i] of covered.
    The round's pairs are numbered run by run; each run's count, the running
    pair number and the run's first slot less its first pair number are
    computed once a round, so candidates expands a chunk of runs with one
    repeat and one arange.  Pairs are tested in chunks of about ROUND_CHUNK;
    candidates whose slot is covered when their chunk starts are dropped
    untested, and a chunk's hits are deduped by sorting them, so covered,
    one byte a slot, is the only array kept per slot.
    """
    # reach in radii toward -x, -y, +x and +y: the apex, both arc ends, and
    # each cardinal extreme within the half-angle
    c, s = wide
    u = np.array((-ux, -uy, ux, uy))
    reach = np.where(u >= c, 1.0, np.maximum(u * c + np.abs(u[::-1]) * s, 0.0))
    query, lo, hi = index.ranges(xs, ys, reach, groups)
    counts = hi - lo
    ends = counts.cumsum()  # pairs numbered through the round
    cuts = []
    if len(ends) and ends[-1] > ROUND_CHUNK:
        cuts = np.searchsorted(ends, np.arange(ROUND_CHUNK, ends[-1], ROUND_CHUNK), side="right")
        cuts = np.unique(cuts[(cuts > 0) & (cuts < len(lo))]).tolist()
    base = lo + shift[query] - ends + counts  # each run's first slot less its first pair number
    r2 = index.radius * index.radius
    fresh = []
    # index arrays and take: boolean masks and fancy indexing cost 2-4x more per pair
    for a, b in zip((0, *cuts), (*cuts, len(lo))):
        slots = index.candidates(base[a:b], counts[a:b], int(ends[a - 1]) if a else 0)
        live = np.flatnonzero(~covered.take(slots))
        owner = query[a:b].repeat(counts[a:b]).take(live)
        slots = slots.take(live)
        pos = slots - shift.take(owner)
        c = cos_half.take(owner) if np.ndim(cos_half) else cos_half
        slots = slots.take(np.flatnonzero(_in_sectors(
            index.sorted_x.take(pos) - xs.take(owner), index.sorted_y.take(pos) - ys.take(owner),
            ux.take(owner), uy.take(owner), r2, c, lambda k: exact(owner.take(k)))))
        slots.sort()  # in place: one entry per slot, the first of each equal run
        covered[slots] = True
        fresh += (slots[:1], slots[1:].compress(slots[1:] != slots[:-1]))
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
    """Floods of a flood_fields batch.

    Flood b owns slots offsets[b] .. offsets[b + 1] - 1 of covered, one per
    row of its field, of which its own nodes are the first n_nodes[b], in
    the sort order of the batch's GridIndex, not in node order: slot
    offsets[b] + k is row order[base[b] + k] - base[b].  That layout follows
    the index and changes with it; outcome(b) maps the slots back to node
    ids.  A slot is covered when no transmitter tests it: its node was
    reached, or its row is past n_nodes[b].  Every node reached relays
    exactly once, so a flood's transmitters are its source and those nodes.
    """

    offsets: np.ndarray    # (B + 1,) slot offsets
    covered: np.ndarray    # per slot: reached, or a row past the flood's n_nodes
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
        """Flood b as a BroadcastOutcome: its covered slots mapped back to
        node ids, the rows past n_nodes[b] dropped, and the destination as
        id n_nodes[b] when the message reached it."""
        lo, hi = int(self.offsets[b]), int(self.offsets[b + 1])
        base = int(self.base[b])
        rows = self.order[base + np.flatnonzero(self.covered[lo:hi])] - base
        nodes = rows[rows < self.n_nodes[b]].tolist()
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


def aim_errors(seed: int, bound: float, size: int) -> np.ndarray:
    """The first size draws, uniform in [-bound, bound], of the aiming stream
    SeedSequence((seed, 1)).  The stream is prefix-stable: the first k draws
    do not depend on size."""
    return np.random.default_rng(np.random.SeedSequence((seed, 1))).uniform(-bound, bound, size)


def flood_fields(fields: Sequence[np.ndarray], field_of: Sequence[int], n_nodes: Sequence[int],
                 theta: Sequence[float], ends: np.ndarray, radius: float,
                 errors: Sequence[np.ndarray] | None = None) -> BatchOutcome:
    """Flood every flood to exhaustion, all in lockstep.

    Flood b runs over the first n_nodes[b] rows of fields[field_of[b]], with
    a beam of theta[b] radians, from (ends[0, b], ends[1, b]) to (ends[2, b],
    ends[3, b]).  field_of, n_nodes and theta hold B >= 1 entries, ends is
    (4, B), 0 <= field_of[b] < len(fields) and 0 <= n_nodes[b] <=
    len(fields[field_of[b]]) (ValueError otherwise).  The slots of the rows
    past n_nodes[b] are covered before round 0, by one compare of the index
    order a flood, and stay covered.

    errors[g] holds field g's aiming draws, draw 0 for the source and draw
    r + 1 for row r, so at least len(fields[g]) + 1 of them (ValueError
    otherwise); longer arrays are read up to their field's rows, and None
    means no aiming error.  With the prefix-stable aim_errors stream a flood
    over the first n rows reads the draws it would read alone.  A call
    gathers the row draws into the index's sorted order once.

    Outcomes do not depend on how floods are batched.
    """
    field_of = np.asarray(field_of, np.int64)
    n_nodes = np.asarray(n_nodes, np.int64)
    n_floods = field_of.size
    if errors is not None and (len(errors) != len(fields)
                               or any(len(e) <= len(f) for e, f in zip(errors, fields))):
        raise ValueError("errors must hold one array per field of at least len(field) + 1 draws")
    sizes = np.array([len(f) for f in fields], np.int64)
    if (not n_floods or {field_of.shape, n_nodes.shape, np.shape(theta)} != {(n_floods,)}
            or np.shape(ends) != (4, n_floods)):
        raise ValueError("field_of, n_nodes and theta must hold B >= 1 entries, ends (4, B)")
    if ((field_of < 0) | (field_of >= len(fields))).any():
        raise ValueError("field_of[b] must lie in [0, len(fields))")
    if ((n_nodes < 0) | (n_nodes > sizes[field_of])).any():
        raise ValueError("n_nodes[b] must lie in [0, len(fields[field_of[b]])]")
    index = build_index(fields, radius)
    field_start = np.concatenate(([0], np.cumsum(sizes)))
    offsets = np.concatenate(([0], np.cumsum(sizes[field_of])))
    # flood b's slot of sorted position p is p + shift[b]
    shift = offsets[:-1] - field_start[field_of]
    covered = np.zeros(offsets[-1], dtype=bool)
    # the slots of the rows past a flood's n stay covered, so no transmitter tests them
    starts, stops = field_start.tolist(), offsets.tolist()
    for b in np.flatnonzero(n_nodes < sizes[field_of]).tolist():
        lo, hi, g = stops[b], stops[b + 1], starts[field_of[b]]
        np.greater_equal(index.order[g:g + hi - lo], g + n_nodes[b], out=covered[lo:hi])

    tx_delta = np.zeros(n_floods)
    if errors is not None:
        # the row draws in the index's sorted order: sorted position p aims with delta[p]
        delta = np.concatenate([e[1:len(f) + 1] for e, f in zip(errors, fields)])[index.order]
        tx_delta = np.array([e[0] for e in errors])[field_of]

    r2 = radius * radius
    halves = np.asarray(theta, dtype=float) / 2.0
    cos_half = np.array([FULL_CIRCLE if h >= math.pi else math.cos(h) for h in halves.tolist()])
    box_half = np.minimum(halves + BOX_SLACK, math.pi)
    wide = np.array((np.cos(box_half), np.sin(box_half)))
    one_beam = bool((halves == halves[0]).all())  # then sector_hits takes scalars
    tx_x, tx_y, dest_x, dest_y = np.asarray(ends, dtype=float)
    first_hop = np.zeros(n_floods, dtype=np.int64)
    per_round = []

    tx_flood = np.arange(n_floods)
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
                            shift[tx_flood], covered, exact)
        tx_flood = offsets.searchsorted(fresh, side="right") - 1
        pos = fresh - shift[tx_flood]
        tx_x, tx_y = index.sorted_x[pos], index.sorted_y[pos]
        tx_delta = delta[pos] if errors is not None else np.zeros(len(pos))

    return BatchOutcome(offsets=offsets, covered=covered, first_hop=first_hop,
                        per_round=np.array(per_round).reshape(-1, n_floods),
                        order=index.order, base=field_start[field_of], n_nodes=n_nodes)


def propagate(scenario: Scenario) -> BroadcastOutcome:
    """Run one flood to exhaustion: flood_fields over the scenario's nodes,
    aimed with aim_errors of its config seed when direction_error_bound is
    nonzero."""
    cfg, nodes, src, dst = scenario.config, scenario.nodes, scenario.source, scenario.destination
    eps = cfg.direction_error_bound
    errors = [aim_errors(cfg.seed, eps, len(nodes) + 1)] if eps > 0.0 else None
    ends = np.array([[src.x], [src.y], [dst.x], [dst.y]])
    return flood_fields([nodes], [0], [len(nodes)], [cfg.theta], ends, cfg.radius, errors).outcome(0)
