"""Round-synchronous directional flood, run for a batch of trials in lockstep.

Round 0's only transmitter is the source.  Every transmitter emits once
into a sector of radius r and half-angle theta/2 aimed at the destination
(optionally perturbed by a bounded uniform direction error); sector members
are covered, newly covered nodes relay exactly once in the next round, and
the flood runs until no transmitters remain, whether or not the destination
was reached earlier.

propagate_batch floods the trials of one cell together: each round tests
every (transmitter, candidate) pair of every trial in a few numpy passes
over flat (trial, node) rows.  propagate is its one-trial call.

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


def sector_hits(index: GridIndex, xs: np.ndarray, ys: np.ndarray, ux: np.ndarray,
                uy: np.ndarray, groups: np.ndarray, half_angle: float):
    """Yield (query, point id) hit pairs, one chunk of about ROUND_CHUNK
    candidate pairs at a time, for sectors of half_angle and the index's
    radius at apexes (xs, ys) pointing along unit vectors (ux, uy); same
    arithmetic as the scalar in_sector oracle in tests/oracles.py.
    """
    query, lo, hi = index.ranges(xs, ys, groups)
    ends = np.cumsum(hi - lo)
    cuts = []
    if len(ends) and ends[-1] > ROUND_CHUNK:
        cuts = np.searchsorted(ends, np.arange(ROUND_CHUNK, ends[-1], ROUND_CHUNK), side="right")
        cuts = np.unique(cuts[(cuts > 0) & (cuts < len(lo))]).tolist()
    r2 = index.radius * index.radius
    cos_half = math.cos(half_angle)
    for a, b in zip((0, *cuts), (*cuts, len(lo))):
        pos = index.candidates(lo[a:b], hi[a:b])
        owner = np.repeat(query[a:b], hi[a:b] - lo[a:b])
        dx = index.sorted_x[pos] - xs[owner]
        dy = index.sorted_y[pos] - ys[owner]
        q = dx * dx + dy * dy
        ok = (q > 0.0) & (q <= r2)
        if half_angle < math.pi:
            ok &= dx * ux[owner] + dy * uy[owner] >= np.sqrt(q) * cos_half
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


def build_index(scenarios: Sequence[Scenario]) -> GridIndex:
    """Index over each scenario's nodes then its destination, grouped by scenario."""
    rows = []
    for s in scenarios:
        rows += [s.nodes, [[s.destination.x, s.destination.y]]]
    sizes = [len(s.nodes) + 1 for s in scenarios]
    return GridIndex(np.concatenate(rows), scenarios[0].config.radius,
                     np.repeat(np.arange(len(scenarios)), sizes))


@dataclass(frozen=True)
class BatchOutcome:
    """Floods of a batch of trials over flat rows.

    Trial b owns rows offsets[b] .. offsets[b + 1] - 1: its nodes in order,
    then its destination.  Every covered node relays exactly once, so a
    trial's transmitters are its source and its covered nodes.
    """

    offsets: np.ndarray    # (B + 1,) row offsets
    covered: np.ndarray    # per row: the message reached it
    first_hop: np.ndarray  # (B,) round that first reached the destination, 0 if none
    per_round: np.ndarray  # (rounds, B) transmitters per round

    @property
    def success(self) -> np.ndarray:
        return self.covered[self.offsets[1:] - 1]

    @property
    def implicated(self) -> np.ndarray:
        """Transmitters per trial, the source included."""
        total = np.concatenate(([0], np.cumsum(self.covered)))
        return total[self.offsets[1:]] - total[self.offsets[:-1]] - self.success + 1

    def outcome(self, b: int) -> BroadcastOutcome:
        lo, hi = self.offsets[b], self.offsets[b + 1]
        covered = np.flatnonzero(self.covered[lo:hi])
        counts = self.per_round[:, b]
        counts = counts[counts > 0]
        hop = int(self.first_hop[b])
        return BroadcastOutcome(
            success=bool(self.covered[hi - 1]),
            first_delivery_hop=hop or None,
            implicated=frozenset([SOURCE_ID, *covered[covered < hi - lo - 1].tolist()]),
            covered=frozenset(covered.tolist()),
            rounds=len(counts),
            per_round_transmitters=tuple(counts.tolist()),
        )


def propagate_batch(scenarios: Sequence[Scenario],
                    rngs: Sequence[np.random.Generator] | None = None) -> BatchOutcome:
    """Flood every scenario to exhaustion, all in lockstep.

    The scenarios share radius, theta and direction_error_bound (the trials
    of one cell).  rngs[b] supplies scenario b's direction errors, drawn up
    front and keyed by node id so outcomes are independent of iteration
    order and batching; it is only consumed when direction_error_bound is
    nonzero, and defaults to the scenario's aiming stream
    SeedSequence((seed, 1)).
    """
    cfg = scenarios[0].config
    shared = (cfg.radius, cfg.theta, cfg.direction_error_bound)
    if any((s.config.radius, s.config.theta, s.config.direction_error_bound) != shared
           for s in scenarios):
        raise ValueError("a batch must share radius, theta and direction_error_bound")
    n_trials = len(scenarios)
    index = build_index(scenarios)
    trial = index.groups
    offsets = np.concatenate(([0], np.cumsum([len(s.nodes) + 1 for s in scenarios])))
    dest_rows = offsets[1:] - 1
    is_dest = np.zeros(len(trial), dtype=bool)
    is_dest[dest_rows] = True
    dest_x, dest_y = index.points[dest_rows, 0], index.points[dest_rows, 1]

    eps = cfg.direction_error_bound
    row_delta = np.zeros(len(trial))
    src_delta = np.zeros(n_trials)
    if eps > 0.0:
        for b, s in enumerate(scenarios):
            rng = rngs[b] if rngs is not None else np.random.default_rng(
                np.random.SeedSequence((s.config.seed, 1)))
            # draws[0] belongs to the source, draws[i + 1] to node i
            draws = rng.uniform(-eps, eps, size=len(s.nodes) + 1)
            src_delta[b] = draws[0]
            row_delta[offsets[b]:dest_rows[b]] = draws[1:]

    covered = np.zeros(len(trial), dtype=bool)
    stamp = np.zeros(len(trial), dtype=np.int64)
    first_hop = np.zeros(n_trials, dtype=np.int64)
    per_round = []

    tx_trial = np.arange(n_trials)
    tx_x = np.array([s.source.x for s in scenarios])
    tx_y = np.array([s.source.y for s in scenarios])
    tx_delta = src_delta
    while len(tx_trial):
        per_round.append(np.bincount(tx_trial, minlength=n_trials))
        ux, uy = aim_vectors(tx_x, tx_y, dest_x[tx_trial], dest_y[tx_trial], tx_delta)
        fresh = []
        for _, rows in sector_hits(index, tx_x, tx_y, ux, uy, tx_trial, cfg.theta / 2.0):
            rows = rows[~covered[rows]]
            covered[rows] = True
            fresh.append(rows)
        fresh = np.concatenate(fresh)
        # one entry per row: a row hit twice in a chunk keeps its last slot
        slots = np.arange(len(fresh))
        stamp[fresh] = slots
        fresh = fresh[stamp[fresh] == slots]
        reached = is_dest[fresh]
        first_hop[trial[fresh[reached]]] = len(per_round)
        tx = fresh[~reached]
        tx_trial = trial[tx]
        tx_x, tx_y = index.points[tx, 0], index.points[tx, 1]
        tx_delta = row_delta[tx]

    return BatchOutcome(offsets=offsets, covered=covered, first_hop=first_hop,
                        per_round=np.array(per_round).reshape(-1, n_trials))


def propagate(scenario: Scenario, rng: np.random.Generator | None = None) -> BroadcastOutcome:
    """Run one flood to exhaustion: the one-trial call of propagate_batch."""
    return propagate_batch([scenario], None if rng is None else [rng]).outcome(0)
