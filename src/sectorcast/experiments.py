"""Monte Carlo estimation and parameter sweeps.

A cell is one (theta, n_nodes, sd_distance) configuration run for a number
of independent trials; a sweep is the cross product of value lists.  Trial
t of a cell reseeds the config with derive_seed(seed, t), and the field
depends only on that seed and n_nodes.  With fixed placement the field at
N is the first N rows of the field at any larger N, so trial t of every
cell of a sweep floods a prefix of one field; a Poisson field need not be
a prefix of a larger one, so there only the cells with one n_nodes share it.
A sweep therefore runs in units of (cells sharing a field draw, trial
range): a unit derives each trial seed once, generates each field once, at
its largest n_nodes, and floods all its cells' trials in one lockstep
batch.  Results are reproducible and independent of execution order:
neither the units nor optional process-level parallelism change anything
but wall time.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

# propagate stays importable here: trace tools wrap experiments.propagate
from .engine import propagate, propagate_batch  # noqa: F401
from .leafmodel import build_leaf, predicted_ratio, relative_error
from .scenario import (ConfigError, Placement, Scenario, ScenarioConfig, derive_seed,
                       endpoint_positions, generate)

DEFAULT_TRIALS = 500
MAX_TRIALS = 100_000

# A unit floods as many cells and trials in lockstep as fit in this many
# flood slots.  Each flood allocates a slot per row of its trial's field,
# drawn at the unit's largest n_nodes, so a unit allocates trials x cells x
# (largest n_nodes + 1) slots (at least one cell and trial), in expectation
# for Poisson fields, which give a flood one slot per drawn node.
BATCH_ROWS = 1 << 19

# Default evaluation grid: theta 22.5..135 degrees, N 1000..3000, d 1000..3000 m.
DEFAULT_THETA_GRID_DEG = (22.5, 45.0, 67.5, 90.0, 112.5, 135.0)
DEFAULT_N_GRID = (1000, 2000, 3000)
DEFAULT_D_GRID = (1000.0, 2000.0, 3000.0)

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class SweepSpec:
    """Cross-product sweep around a base config."""

    base: ScenarioConfig
    theta_values: tuple[float, ...] = tuple(math.radians(t) for t in DEFAULT_THETA_GRID_DEG)
    n_values: tuple[int, ...] = DEFAULT_N_GRID
    d_values: tuple[float, ...] = DEFAULT_D_GRID
    trials: int = DEFAULT_TRIALS

    def __post_init__(self):
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ConfigError(f"trials must be in [1, {MAX_TRIALS}], got {self.trials}")
        if not (self.theta_values and self.n_values and self.d_values):
            raise ConfigError("sweep value lists must be non-empty")

    def cells(self) -> list[ScenarioConfig]:
        """Derived configs ordered by (d, n, theta); invalid cells abort here."""
        out = []
        for d in sorted(self.d_values):
            for n in sorted(self.n_values):
                for theta in sorted(self.theta_values):
                    try:
                        out.append(replace(self.base, theta=theta, n_nodes=n, sd_distance=d))
                    except ConfigError as exc:
                        raise ConfigError(
                            f"invalid sweep cell (theta={math.degrees(theta):g} deg, "
                            f"n={n}, d={d}): {exc}"
                        ) from exc
        return out


@dataclass(frozen=True)
class CellResult:
    """Aggregated metrics for one cell.

    implicated_ratio_mean averages |implicated| / (n_nodes + 1) over the
    successful trials (all trials when none succeed), which is what the
    leaf-area model predicts and what makes the ratio insensitive to node
    density; success_rate captures the failures separately.  model_ratio
    and model_relative_error are None when the cell has no leaf (d <= r
    or theta = 2*pi) or the chain is flagged non-terminating.
    """

    theta: float
    n_nodes: int
    sd_distance: float
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
    drawn node, so there the bound holds only in expectation.
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

    Each trial's field is generated once, at the cells' largest n_nodes; a
    cell with fewer nodes floods a view of its first n_nodes rows, so every
    flood of a trial shares one index group.
    """
    ends = [endpoint_positions(cfg) for cfg in configs]  # independent of the seed
    top = max(range(len(configs)), key=lambda k: configs[k].n_nodes)
    most = configs[top].n_nodes
    sizes = {cfg.n_nodes for cfg in configs}
    scenarios = []
    for t in range(first, stop):
        seed = derive_seed(configs[0].seed, t)
        trial = [replace(cfg, seed=seed) for cfg in configs]
        nodes = generate(trial[top]).nodes
        views = {n: nodes if n == most else nodes[:n] for n in sizes}
        scenarios += [Scenario(views[cfg.n_nodes], *end, cfg) for end, cfg in zip(ends, trial)]
    flood = propagate_batch(scenarios)
    shape = (stop - first, len(configs))
    ratio = flood.implicated.reshape(shape) / [cfg.n_nodes + 1 for cfg in configs]
    return tuple(a.reshape(shape).T for a in (flood.reached, ratio, flood.first_hop))


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
        model = build_leaf(config.sd_distance, config.radius, config.theta)
    except ValueError:  # no chain: d <= r, theta = 360 deg or past MAX_TRIANGLES
        model = None
    if model is not None and not model.non_terminating:
        model_ratio = predicted_ratio(model, config.square_side)
        if ratio_mean > 0.0:
            model_err = relative_error(model_ratio, ratio_mean)

    return CellResult(
        theta=config.theta,
        n_nodes=config.n_nodes,
        sd_distance=config.sd_distance,
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
    two cells with spec.trials trials each.
    """
    cells = spec.cells()
    units = _units(cells, spec.trials)
    args = zip(*(([cells[pos] for pos in chunk], first, stop) for chunk, first, stop in units))
    workers = min(workers, _usable_cpus(), len(units))
    parts = [[] for _ in cells]
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        outputs = (pool.map(_run_unit, *args, chunksize=max(1, len(units) // (8 * workers)))
                   if pool else map(_run_unit, *args))
        for (chunk, _, _), arrays in zip(units, outputs):
            for pos, cell_arrays in zip(chunk, zip(*arrays)):
                parts[pos].append(cell_arrays)
    return [_summarise(cfg, *map(np.concatenate, zip(*cell_parts)))
            for cfg, cell_parts in zip(cells, parts)]


def run_cell(config: ScenarioConfig, trials: int = DEFAULT_TRIALS,
             workers: int = 1) -> CellResult:
    """Monte Carlo estimate of one cell: the one-cell case of run_sweep."""
    spec = SweepSpec(base=config, theta_values=(config.theta,), n_values=(config.n_nodes,),
                     d_values=(config.sd_distance,), trials=trials)
    return run_sweep(spec, workers)[0]
