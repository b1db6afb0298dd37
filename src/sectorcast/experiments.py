"""Monte Carlo estimation and parameter sweeps.

A cell is one (theta, n_nodes, d) configuration run for a number
of independent trials; a sweep is the cross product of value lists.  Trial
t of a cell reseeds the config with derive_seed(seed, t), and the field
depends only on that seed and n_nodes.  With fixed placement the field at
N is the first N rows of the field at any larger N, so trial t of every
cell of a sweep floods a prefix of one field; a Poisson field need not be
a prefix of a larger one (rng.poisson consumes a share of the stream that
depends on the mean), so there only the cells with one n_nodes share it.
A sweep therefore runs in units of (cells sharing a field draw, trial
range): a unit derives each trial seed once, generates each field once, at
its largest n_nodes, and passes the fields and its cells' theta, n_nodes
and endpoints to one flood_fields call.  Results are reproducible and
independent of execution order: neither the units nor optional
process-level parallelism change anything but wall time.
"""

from __future__ import annotations

import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace

import numpy as np

# propagate stays importable here: trace tools wrap experiments.propagate
from .engine import aim_errors, flood_fields, propagate  # noqa: F401
from .leafmodel import build_leaf, predicted_ratio, relative_error
from .scenario import (TYPES, ConfigError, Placement, ScenarioConfig, as_kind, derive_seed,
                       endpoint_positions, generate)

DEFAULT_TRIALS = 500
MAX_TRIALS = 100_000
# run_sweep holds about 1.1 kB a cell until it returns, and 17 B a (cell,
# trial) of the chunk it is gathering: at most about 110 MB and 170 MB.  The
# default 54-cell grid at MAX_TRIALS is 5.4 M (cell, trial) pairs.
MAX_CELLS = 100_000
MAX_CELL_TRIALS = 10_000_000

# A unit floods as many cells and trials in lockstep as fit in this many
# flood slots.  Each flood allocates a slot per row of its trial's field,
# drawn at the unit's largest n_nodes, so a unit allocates trials x cells x
# (largest n_nodes + 1) slots (at least one cell and trial), in expectation
# for Poisson fields, which give a flood one slot per drawn node.  A slot
# costs one byte, its covered flag, so 2^20 slots take 1 MB.
BATCH_ROWS = 1 << 20

# Default evaluation grid: theta 22.5..135 degrees, N 1000..3000, d 1000..3000 m.
DEFAULT_THETA_GRID_DEG = (22.5, 45.0, 67.5, 90.0, 112.5, 135.0)
DEFAULT_N_GRID = (1000, 2000, 3000)
DEFAULT_D_GRID = (1000.0, 2000.0, 3000.0)

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class SweepSpec:
    """Cross-product sweep around a base config; the fields after base are
    the [sweep] keys."""

    base: ScenarioConfig
    theta_deg: tuple[float, ...] = DEFAULT_THETA_GRID_DEG
    n_nodes: tuple[int, ...] = DEFAULT_N_GRID
    d: tuple[float, ...] = DEFAULT_D_GRID
    trials: int = DEFAULT_TRIALS

    def __post_init__(self):
        for key in (f.name for f in fields(self) if f.name in TYPES):  # the value lists
            if not (values := tuple(as_kind(key, TYPES[key], v) for v in getattr(self, key))):
                raise ConfigError(f"sweep {key} must list at least one value")
            object.__setattr__(self, key, values)
        if not 1 <= as_kind("trials", int, self.trials) <= MAX_TRIALS:
            raise ConfigError(f"trials must be in [1, {MAX_TRIALS}], got {self.trials}")
        cells = len(self.theta_deg) * len(self.n_nodes) * len(self.d)
        if cells > MAX_CELLS or cells * self.trials > MAX_CELL_TRIALS:
            raise ConfigError(f"a sweep of {cells} cells x {self.trials} trials passes MAX_CELLS "
                              f"= {MAX_CELLS} or MAX_CELL_TRIALS = {MAX_CELL_TRIALS}")

    def cells(self) -> list[ScenarioConfig]:
        """Derived configs ordered by (d, n, theta); invalid cells abort here."""
        out = []
        for d in sorted(self.d):
            for n_nodes in sorted(self.n_nodes):
                for theta_deg in sorted(self.theta_deg):
                    try:
                        out.append(replace(self.base, theta_deg=theta_deg, n_nodes=n_nodes, d=d))
                    except ConfigError as exc:
                        raise ConfigError(f"invalid sweep cell (theta_deg={theta_deg}, "
                                          f"n_nodes={n_nodes}, d={d}): {exc}") from exc
        return out


@dataclass(frozen=True)
class CellResult:
    """Aggregated metrics for one cell.

    implicated_ratio_mean averages |implicated| / (n_nodes + 1) over the
    successful trials (all trials when none succeed), which is what the
    leaf-area model predicts and what makes the ratio insensitive to node
    density; success_rate captures the failures separately.  model_ratio
    and model_relative_error are None when the cell has no leaf (d <= r
    or theta = 360 deg) or the chain is flagged non-terminating.
    """

    theta_deg: float
    n_nodes: int
    d: float
    trials: int
    success_rate: float
    success_ci_halfwidth: float
    implicated_ratio_mean: float
    implicated_ratio_std: float
    bandwidth_gain: float
    mean_hops_on_success: float
    model_ratio: float | None
    model_relative_error: float | None


def _even_cuts(total: int, most: int) -> list[tuple[int, int]]:
    """[first, stop) ranges of near-equal size covering range(total), each
    at most max(1, most) long."""
    count = -(-total // max(1, most))
    edges = [total * k // count for k in range(count + 1)]
    return list(zip(edges, edges[1:]))


def _units(cells: list[ScenarioConfig], trials: int) -> list[tuple[list[int], int, int]]:
    """(cell positions, first, stop) sweep units.

    The cells that share each trial's field draw form a group: every cell
    with fixed placement, or the Poisson cells with one n_nodes.  A group is
    packed, in cell order, into chunks of at most BATCH_ROWS flood slots a
    trial, cells x (largest n_nodes + 1) (at least one cell), and a chunk's
    trials are cut into near-equal ranges so that each unit holds at most
    BATCH_ROWS slots (at least one trial).  A Poisson flood gets one slot per
    drawn node, so there the bound holds only in expectation.  Memory stays
    bounded however long the value lists are, also when many small cells
    share a chunk with one large n_nodes, and a cell too large even alone
    gets a unit per trial.  The 135-degree row of sample.cfg, 9 cells of
    n_nodes up to 3000 at 50 trials, runs as 2 units of 25 trials.
    """
    groups: dict[int, list[int]] = {}
    for pos, cfg in enumerate(cells):
        key = cfg.n_nodes if cfg.placement is Placement.POISSON_COUNT else -1
        groups.setdefault(key, []).append(pos)
    units = []
    for members in groups.values():
        chunks = []  # [cell positions, largest n_nodes]
        for pos in members:
            n = cells[pos].n_nodes
            if not chunks or (len(chunks[-1][0]) + 1) * (max(chunks[-1][1], n) + 1) > BATCH_ROWS:
                chunks.append([[], 0])
            chunks[-1][0].append(pos)
            chunks[-1][1] = max(chunks[-1][1], n)
        units += [(chunk, first, stop) for chunk, most in chunks
                  for first, stop in _even_cuts(trials, BATCH_ROWS // (len(chunk) * (most + 1)))]
    return units


def _run_unit(configs: list[ScenarioConfig], first: int,
              stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trials first..stop-1 of cells sharing a base seed and a field draw:
    (success, implicated ratio, hops-or-0) arrays of shape (cells, trials).

    Each trial's field is generated once, at the cells' largest n_nodes, and
    flooded by every cell: a cell at that n_nodes floods the whole field (a
    Poisson field holds its drawn count), a smaller one its first n_nodes rows.
    It makes one config copy a trial, for generate, and none a cell, and
    floods every trial of every cell in one flood_fields call, with each
    cell's theta, n_nodes and endpoints tiled over the trials.
    """
    top = max(configs, key=lambda cfg: cfg.n_nodes)
    eps = top.direction_error_bound
    fields, n_nodes, errors = [], [], []
    for t in range(first, stop):
        seed = derive_seed(top.seed, t)
        nodes = generate(replace(top, seed=seed)).nodes
        fields.append(nodes)
        n_nodes += [len(nodes) if cfg.n_nodes == top.n_nodes else cfg.n_nodes for cfg in configs]
        if eps > 0.0:
            errors.append(aim_errors(seed, eps, len(nodes) + 1))
    trials, cells = len(fields), len(configs)
    ends = [[p.x, p.y, q.x, q.y] for p, q in map(endpoint_positions, configs)]
    flood = flood_fields(fields, np.arange(trials).repeat(cells), n_nodes,
                         np.tile([cfg.theta for cfg in configs], trials),
                         np.tile(np.array(ends).T, trials), top.radius, errors or None)
    ratio = flood.implicated.reshape(trials, cells) / [cfg.n_nodes + 1 for cfg in configs]
    return tuple(a.reshape(trials, cells).T for a in (flood.reached, ratio, flood.first_hop))


def _success_halfwidth(successes: int, trials: int) -> float:
    """95% half-width; exact Clopper-Pearson near the boundaries."""
    p = successes / trials
    if 5 <= successes <= trials - 5:
        return _Z95 * math.sqrt(p * (1.0 - p) / trials)
    from scipy.special import betaincinv  # lazy: ~0.25 s of import, needed only here
    lo = 0.0 if successes == 0 else float(betaincinv(successes, trials - successes + 1, 0.025))
    hi = 1.0 if successes == trials else float(betaincinv(successes + 1, trials - successes, 0.975))
    return (hi - lo) / 2.0


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)  # absent on macOS and Windows
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _summarise(config: ScenarioConfig, success_flags: np.ndarray, ratios: np.ndarray,
               hops: np.ndarray) -> CellResult:
    """Aggregate one cell's per-trial arrays, in trial order."""
    trials = len(success_flags)
    successes = int(success_flags.sum())
    success_rate = successes / trials
    selected = ratios[success_flags] if successes else ratios
    ratio_mean = float(np.mean(selected))
    ratio_std = float(np.std(selected, ddof=1)) if len(selected) > 1 else 0.0
    mean_hops = float(np.mean(hops[success_flags])) if successes else float("nan")

    model_ratio = None
    model_err = None
    try:
        model = build_leaf(config.d, config.radius, config.theta)
    except ValueError:  # no chain: d <= r, theta = 360 deg or past MAX_TRIANGLES
        model = None
    if model is not None and not model.non_terminating:
        model_ratio = predicted_ratio(model, config.square_side)
        if ratio_mean > 0.0:
            model_err = relative_error(model_ratio, ratio_mean)

    return CellResult(
        theta_deg=config.theta_deg,
        n_nodes=config.n_nodes,
        d=config.d,
        trials=trials,
        success_rate=success_rate,
        success_ci_halfwidth=_success_halfwidth(successes, trials),
        implicated_ratio_mean=ratio_mean,
        implicated_ratio_std=ratio_std,
        bandwidth_gain=ratio_mean * config.theta / (2.0 * math.pi),
        mean_hops_on_success=mean_hops,
        model_ratio=model_ratio,
        model_relative_error=model_err,
    )


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[CellResult]:
    """Run every cell of the sweep; deterministic (d, n, theta) order.

    Every unit goes through one map: in-process, or one pool of
    min(workers, usable CPUs, units) processes for the whole sweep.  Unit
    results are gathered by cell position, so a value listed twice gives
    two cells with spec.trials trials each.  The map yields units in order
    and a chunk's units are consecutive, ending at trial spec.trials, so a
    chunk's cells are summarised as its last unit arrives and only one
    chunk's per-trial arrays are held.
    """
    cells = spec.cells()
    units = _units(cells, spec.trials)
    args = zip(*(([cells[pos] for pos in chunk], first, stop) for chunk, first, stop in units))
    workers = min(workers, _usable_cpus(), len(units))
    parts = [[] for _ in cells]
    results = [None] * len(cells)
    if workers > 1:  # lazy: the pool's imports cost a CLI start that never uses them
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        outputs = (pool.map(_run_unit, *args, chunksize=max(1, len(units) // (8 * workers)))
                   if pool else map(_run_unit, *args))
        for (chunk, _, stop), arrays in zip(units, outputs):
            for pos, cell_arrays in zip(chunk, zip(*arrays)):
                parts[pos].append(cell_arrays)
            if stop == spec.trials:
                for pos in chunk:
                    results[pos] = _summarise(cells[pos], *map(np.concatenate, zip(*parts[pos])))
                    parts[pos] = None
    return results


def run_cell(config: ScenarioConfig, trials: int = DEFAULT_TRIALS,
             workers: int = 1) -> CellResult:
    """Monte Carlo estimate of one cell: the one-cell case of run_sweep."""
    spec = SweepSpec(base=config, theta_deg=(config.theta_deg,), n_nodes=(config.n_nodes,),
                     d=(config.d,), trials=trials)
    return run_sweep(spec, workers)[0]
