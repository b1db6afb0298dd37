"""Monte Carlo cells and sweeps: aggregation, identities, fits."""

import concurrent.futures
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from sectorcast import configio, engine, experiments
from sectorcast.engine import propagate
from sectorcast.experiments import (
    CellResult,
    SweepSpec,
    run_cell,
    run_sweep,
)
from sectorcast.scenario import ConfigError, Placement, ScenarioConfig, derive_seed, generate


def small_config(**kw):
    defaults = dict(square_side=1500.0, n_nodes=120, radius=200.0,
                    theta_deg=90.0, d=600.0, seed=5)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def same_cells(a, b):
    """CellResult equality that treats NaN hop means as equal."""
    a, b = list(a), list(b)
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        dx, dy = vars(x).copy(), vars(y).copy()
        hx, hy = dx.pop("mean_hops_on_success"), dy.pop("mean_hops_on_success")
        if not (hx == hy or (math.isnan(hx) and math.isnan(hy))):
            return False
        if dx != dy:
            return False
    return True


def trial_rows(cfg, trials):
    """Per-trial (success, implicated ratio, hops-or-0), one propagate call each."""
    rows = []
    for t in range(trials):
        out = propagate(generate(replace(cfg, seed=derive_seed(cfg.seed, t))))
        rows.append((out.success, len(out.implicated) / (cfg.n_nodes + 1),
                     out.first_delivery_hop if out.success else 0))
    return rows


def allocated_slots(configs, first, stop):
    """Flood slots a unit allocates: one per row of each trial's field, drawn
    at its cells' largest N, plus one, for every cell and trial."""
    return len(configs) * (max(cfg.n_nodes for cfg in configs) + 1) * (stop - first)


def summary_of(cfg, rows):
    success, ratios, hops = (np.array(col) for col in zip(*rows))
    return experiments._summarise(cfg, success, ratios, hops)


def test_run_cell_is_deterministic():
    cfg = small_config()
    assert run_cell(cfg, trials=20) == run_cell(cfg, trials=20)


def test_run_cell_single_source_degenerate_field():
    # no nodes, unreachable destination: every flood is just the source
    cfg = small_config(n_nodes=0, d=600.0)
    res = run_cell(cfg, trials=1)
    assert res.success_rate == 0.0
    assert res.implicated_ratio_mean == 1.0  # 1 transmitter / (0 + 1) nodes
    assert math.isnan(res.mean_hops_on_success)


def test_run_cell_omnidirectional_full_range_always_succeeds():
    cfg = small_config(square_side=1000.0, n_nodes=30, radius=1500.0,
                       theta_deg=360.0, d=800.0)
    res = run_cell(cfg, trials=20)
    assert res.success_rate == 1.0
    assert res.mean_hops_on_success == 1.0
    # every node is covered in round 1 and relays once
    assert res.implicated_ratio_mean == 1.0


def test_run_cell_success_ratio_conditioning():
    # mixed successes: the ratio averages successful trials only
    cfg = small_config(n_nodes=60, seed=9)
    res = run_cell(cfg, trials=60)
    assert 0.0 < res.success_rate < 1.0
    # mean over all trials would drag the ratio toward the tiny die-outs
    rows = trial_rows(cfg, 60)
    all_mean = float(np.mean([r[1] for r in rows]))
    ok_mean = float(np.mean([r[1] for r in rows if r[0]]))
    assert res.implicated_ratio_mean == pytest.approx(ok_mean, rel=1e-12)
    assert all_mean < ok_mean


def test_bandwidth_gain_identity_and_bound():
    res = run_cell(small_config(theta_deg=67.5), trials=10)
    assert res.bandwidth_gain == pytest.approx(
        res.implicated_ratio_mean * 67.5 / 360.0, rel=1e-12)
    assert res.bandwidth_gain < res.implicated_ratio_mean


def test_success_ci_halfwidth_regimes():
    cfg = small_config(n_nodes=0)  # always fails: exact interval at k = 0
    res = run_cell(cfg, trials=40)
    assert res.success_rate == 0.0
    assert 0.0 < res.success_ci_halfwidth < 0.1
    sure = small_config(square_side=1000.0, radius=1500.0, theta_deg=360.0,
                        d=500.0, n_nodes=3)
    res2 = run_cell(sure, trials=40)  # always succeeds: exact at k = n
    assert res2.success_rate == 1.0
    assert 0.0 < res2.success_ci_halfwidth < 0.1


def test_success_halfwidth_matches_beta_ppf():
    # the exact Clopper-Pearson bounds are beta quantiles; the inverse
    # regularized incomplete beta must give the same bits as stats.beta.ppf
    from scipy import stats
    checked = 0
    for n in [*range(1, 120), 200, 250, 500, 1000]:
        for k in range(n + 1):
            if 5 <= k <= n - 5:
                continue  # normal-approximation regime
            lo = 0.0 if k == 0 else float(stats.beta.ppf(0.025, k, n - k + 1))
            hi = 1.0 if k == n else float(stats.beta.ppf(0.975, k + 1, n - k))
            assert experiments._success_halfwidth(k, n) == (hi - lo) / 2.0, (k, n)
            checked += 1
    assert checked == 1194


def test_import_leaves_scipy_stats_unloaded():
    src = os.path.dirname(os.path.dirname(experiments.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, sectorcast.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["[]"]


def test_model_fields_absent_when_degenerate_or_flagged():
    direct = run_cell(small_config(d=150.0), trials=2)
    assert direct.model_ratio is None
    assert direct.model_relative_error is None
    flagged = run_cell(small_config(theta_deg=135.0), trials=2)
    assert flagged.model_ratio is None
    eligible = run_cell(small_config(theta_deg=90.0), trials=2)
    assert eligible.model_ratio is not None
    assert eligible.model_relative_error is not None


def test_model_ratio_density_independent():
    specs = [small_config(n_nodes=n) for n in (50, 120, 400)]
    ratios = {run_cell(c, trials=2).model_ratio for c in specs}
    assert len(ratios) == 1  # bit-identical across densities


def test_run_cell_rejects_bad_trials():
    with pytest.raises(ConfigError):
        run_cell(small_config(), trials=0)
    with pytest.raises(ConfigError, match="trials must be in"):
        run_cell(small_config(), trials=experiments.MAX_TRIALS + 1)


def test_run_sweep_single_cell_equals_run_cell():
    cfg = small_config()
    spec = SweepSpec(base=cfg, theta_deg=(cfg.theta_deg,), n_nodes=(cfg.n_nodes,),
                     d=(cfg.d,), trials=8)
    assert run_sweep(spec) == [run_cell(cfg, trials=8)]


def test_run_sweep_order_and_cross_product():
    spec = SweepSpec(
        base=small_config(),
        theta_deg=(90.0, 45.0),
        n_nodes=(80, 40),
        d=(600.0, 400.0),
        trials=2,
    )
    results = run_sweep(spec)
    assert len(results) == 8
    keys = [(r.d, r.n_nodes, r.theta_deg) for r in results]
    assert keys == sorted(keys)
    assert all(r.bandwidth_gain < r.implicated_ratio_mean for r in results)
    # list order in the spec does not matter
    spec_shuffled = replace(
        spec,
        theta_deg=tuple(reversed(spec.theta_deg)),
        n_nodes=tuple(reversed(spec.n_nodes)),
        d=tuple(reversed(spec.d)),
    )
    assert same_cells(run_sweep(spec_shuffled), results)


def test_run_sweep_names_invalid_cell():
    spec = SweepSpec(base=small_config(), d=(600.0, 5000.0), trials=1,
                     theta_deg=(90.0,), n_nodes=(10,))
    with pytest.raises(ConfigError, match="d=5000"):
        run_sweep(spec)


@pytest.mark.parametrize("field", ["theta_deg", "n_nodes", "d"])
def test_sweep_spec_rejects_an_empty_list(field):
    with pytest.raises(ConfigError, match="sweep value lists must be non-empty"):
        SweepSpec(base=small_config(), **{field: ()})


def test_sweep_default_grid_shape():
    spec = SweepSpec(base=small_config())
    assert len(spec.theta_deg) * len(spec.n_nodes) * len(spec.d) == 54


def test_workers_match_serial(monkeypatch):
    monkeypatch.setattr(experiments, "BATCH_ROWS", 82)  # 4 units of 2 trials: a pool starts
    cfg = small_config(n_nodes=40)
    assert same_cells([run_cell(cfg, trials=8, workers=2)], [run_cell(cfg, trials=8)])


@pytest.mark.parametrize("workers", [1, 2])
def test_batches_match_per_trial_propagate(monkeypatch, workers):
    # 150 slots a unit hold 2 trials of one cell at N 60, so 7 trials span
    # units of 1, 2, 2 and 2; Poisson counts make the units' slots ragged
    monkeypatch.setattr(experiments, "BATCH_ROWS", 150)
    base = small_config(n_nodes=60, seed=21)
    cells = [
        base,
        replace(base, placement=Placement.POISSON_COUNT),
        replace(base, placement=Placement.POISSON_COUNT, square_side=1000.0, radius=300.0,
                theta_deg=60.0, direction_error_deg=10.0),
        replace(base, theta_deg=360.0, radius=650.0),  # d <= r: no leaf model
    ]
    assert experiments._units([base], 7) == [([0], 0, 1), ([0], 1, 3), ([0], 3, 5), ([0], 5, 7)]
    for cfg in cells:
        rows = trial_rows(cfg, 7)
        assert same_cells([run_cell(cfg, trials=7, workers=workers)], [summary_of(cfg, rows)])
    # mixed theta (one of them 360 deg), N and d (one <= r) in units that
    # share each trial's field, N 30 flooding prefixes of N 60's: packed in
    # cell order by the slots they allocate, cells x (largest N + 1), the two
    # N 30 cells of a d hold 62 slots a trial and a third, at N 60, would
    # allocate 183
    spec = SweepSpec(base=replace(base, radius=650.0),
                     theta_deg=(45.0, 360.0),
                     n_nodes=(30, 60), d=(600.0, 800.0), trials=5)
    cells = spec.cells()
    units = experiments._units(cells, 5)
    assert [chunk for chunk, _, _ in units] == ([[0, 1]] * 3 + [[2, 3]] * 5
                                                 + [[4, 5]] * 3 + [[6, 7]] * 5)
    assert [allocated_slots([cells[pos] for pos in chunk], first, stop)
            for chunk, first, stop in units] == ([62, 124, 124] + [122] * 5) * 2
    want = [summary_of(cfg, trial_rows(cfg, 5)) for cfg in cells]
    assert same_cells(run_sweep(spec, workers=workers), want)


@pytest.mark.parametrize("workers", [1, 2])
def test_mixed_n_sweeps_match_per_cell_trials(monkeypatch, workers):
    # a fixed sweep floods prefixes of each trial's field at its largest N:
    # N 0, 25 and 60 cells, packed by a small budget into chunks that mix N,
    # must give each cell's own per-trial rows
    monkeypatch.setattr(experiments, "BATCH_ROWS", 150)
    spec = SweepSpec(base=small_config(seed=3), theta_deg=(45.0, 360.0),
                     n_nodes=(0, 25, 60), d=(600.0, 800.0), trials=4)
    cells = spec.cells()
    units = experiments._units(cells, 4)
    assert [chunk for chunk, _, _ in units] == ([[0, 1, 2, 3]] * 4 + [[4, 5]] * 4
                                                 + [[6, 7, 8, 9]] * 4 + [[10, 11]] * 4)
    want = [summary_of(cfg, trial_rows(cfg, 4)) for cfg in cells]
    assert same_cells(run_sweep(spec, workers=workers), want)
    # Poisson fields are drawn per N: trial 0's field at N 30 is no prefix
    # of the one at N 60 (test_scenario.py)
    spec = replace(spec, base=replace(spec.base, placement=Placement.POISSON_COUNT),
                   n_nodes=(30, 60))
    cells = spec.cells()
    assert {tuple(cells[pos].n_nodes for pos in chunk)
            for chunk, _, _ in experiments._units(cells, 4)} == {(30,) * 4, (60,) * 2}
    want = [summary_of(cfg, trial_rows(cfg, 4)) for cfg in cells]
    assert same_cells(run_sweep(spec, workers=workers), want)


@pytest.mark.parametrize("placement, fields", [
    (Placement.FIXED_COUNT, [60]),
    (Placement.POISSON_COUNT, [20, 40, 60]),
])
def test_sweeps_draw_each_field_once(monkeypatch, placement, fields):
    # a fixed sweep derives each trial seed once and generates one field, at
    # its largest N; a Poisson sweep does both once per (trial, N)
    seeds, sizes = [], []
    real_derive, real_generate = experiments.derive_seed, experiments.generate

    def derive_seed(base, trial):
        seeds.append(trial)
        return real_derive(base, trial)

    def generate(cfg):
        sizes.append(cfg.n_nodes)
        return real_generate(cfg)

    monkeypatch.setattr(experiments, "derive_seed", derive_seed)
    monkeypatch.setattr(experiments, "generate", generate)
    spec = SweepSpec(base=small_config(placement=placement),
                     theta_deg=(45.0, 90.0),
                     n_nodes=(20, 40, 60), d=(600.0, 800.0), trials=6)
    run_sweep(spec)
    assert sorted(seeds) == sorted(list(range(6)) * len(fields))
    assert sorted(sizes) == sorted(fields * 6)


def recording_pool(monkeypatch, run=None):
    """Replace the process pool with a recorder of pool sizes and mapped
    units, so no process starts; run(fn, *unit) stands in for fn(*unit),
    called as the map's iterator is read."""
    record = SimpleNamespace(started=[], units=[])

    class Pool:
        def __init__(self, max_workers):
            record.started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            units = list(zip(*iterables))
            record.units.extend(units)
            return (run(fn, *unit) if run else fn(*unit) for unit in units)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return record


def test_workers_clamped_to_cpus_and_trials(monkeypatch):
    pool = recording_pool(monkeypatch)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(experiments, "BATCH_ROWS", 82)  # 2 floods a unit at N 40
    cfg = small_config(n_nodes=40)
    for trials, workers in ((10, 5000), (6, 5000), (3, 5000), (10, 2), (2, 5000)):
        run_cell(cfg, trials=trials, workers=workers)
    assert pool.started == [4, 3, 2, 2]  # one unit runs in-process, without a pool
    # a sweep starts one pool for all its units: its 4 cells share N, so each
    # trial's field is flooded by chunks of 2 cells, one trial a unit
    pool.started.clear()
    pool.units.clear()
    spec = SweepSpec(base=cfg, theta_deg=(45.0, 90.0),
                     n_nodes=(40,), d=(400.0, 600.0), trials=2)
    assert same_cells(run_sweep(spec, workers=5000), run_sweep(spec))
    assert pool.started == [4]
    cells = spec.cells()
    assert [([c.d for c in configs], first, stop) for configs, first, stop
            in pool.units] == [([400.0, 400.0], 0, 1), ([400.0, 400.0], 1, 2),
                               ([600.0, 600.0], 0, 1), ([600.0, 600.0], 1, 2)]
    assert [list(configs) for configs, _, _ in pool.units[::2]] == [cells[:2], cells[2:]]
    run_sweep(replace(spec, d=(600.0,)), workers=5000)
    assert pool.started == [4, 2]


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_summarises_each_chunk_as_its_last_unit_arrives(monkeypatch, workers):
    # 150 slots hold 2 cells of N 60 a trial: 6 cells in 3 chunks of 3
    # one-trial units.  A chunk's cells are summarised as its last unit
    # arrives, before the next chunk's first unit runs, and the results
    # are those of one chunk of all cells
    spec = SweepSpec(base=small_config(n_nodes=60, seed=7), theta_deg=(45.0, 90.0, 135.0),
                     n_nodes=(60,), d=(600.0, 800.0), trials=3)
    want = run_sweep(spec)
    assert len(experiments._units(spec.cells(), spec.trials)) == 1
    monkeypatch.setattr(experiments, "BATCH_ROWS", 150)
    assert [chunk for chunk, _, _ in experiments._units(spec.cells(), spec.trials)] == (
        [[0, 1]] * 3 + [[2, 3]] * 3 + [[4, 5]] * 3)
    assert same_cells(run_sweep(spec, workers=workers), want)
    # the same sweep, with each unit and summary logged: a pool of 2 runs
    # in-process, and its map, like the executor's, yields as it is read
    events = []
    run_unit, summarise = experiments._run_unit, experiments._summarise

    def logged_unit(*unit):
        events.append("unit")
        return run_unit(*unit)

    def logged_summary(*cell):
        events.append("summary")
        return summarise(*cell)

    monkeypatch.setattr(experiments, "_run_unit", logged_unit)
    monkeypatch.setattr(experiments, "_summarise", logged_summary)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    pool = recording_pool(monkeypatch)
    assert same_cells(run_sweep(spec, workers=workers), want)
    assert events == (["unit"] * 3 + ["summary"] * 2) * 3
    assert pool.started == ([2] if workers > 1 else [])


def no_flood(fn, configs, first, stop):
    """Stands in for _run_unit: no trial delivers."""
    shape = (len(configs), stop - first)
    return np.zeros(shape, bool), np.ones(shape), np.zeros(shape, np.int64)


def test_units_fit_slot_budget(monkeypatch):
    # 60 theta x 3 d cells at N 3000 hold 540,180 slots a trial: the cells
    # are packed into chunks of at most 174, every unit within BATCH_ROWS slots
    # (2^19 here: the test is of the packing, not of the default budget)
    monkeypatch.setattr(experiments, "BATCH_ROWS", 1 << 19)
    pool = recording_pool(monkeypatch, no_flood)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    spec = SweepSpec(base=small_config(square_side=4000.0),
                     theta_deg=tuple(3.0 * k for k in range(1, 61)),
                     n_nodes=(3000,), d=(1000.0, 2000.0, 3000.0), trials=7)
    results = run_sweep(spec, workers=2)
    assert len(results) == 180 and all(r.trials == 7 for r in results)
    assert [len(configs) for configs, _, _ in pool.units] == [174] * 7 + [6]
    seen = {}
    for configs, first, stop in pool.units:
        assert allocated_slots(configs, first, stop) <= experiments.BATCH_ROWS
        for cfg in configs:
            seen.setdefault((cfg.theta_deg, cfg.d), []).extend(range(first, stop))
    assert len(seen) == 180 and all(trials == list(range(7)) for trials in seen.values())


def test_units_index_one_field_a_trial_within_the_slot_budget(monkeypatch):
    # the engine's own counts on real units of a fixed sweep: each unit
    # indexes one field per trial, which its cells flood as views, and
    # allocates at most BATCH_ROWS slots, unless it holds one trial of one
    # cell that alone is larger
    monkeypatch.setattr(experiments, "BATCH_ROWS", 150)
    fields, slots = [], []
    build_index, flood_fields = engine.build_index, experiments.flood_fields

    def counting_index(batch, radius):
        fields.append(len(batch))
        return build_index(batch, radius)

    def counting_flood(*args):
        flood = flood_fields(*args)
        slots.append(int(flood.offsets[-1]))
        return flood

    monkeypatch.setattr(engine, "build_index", counting_index)
    monkeypatch.setattr(experiments, "flood_fields", counting_flood)
    spec = SweepSpec(base=small_config(seed=3), theta_deg=(45.0, 360.0),
                     n_nodes=(0, 25, 60), d=(600.0, 800.0), trials=4)
    run_sweep(spec)
    units = experiments._units(spec.cells(), spec.trials)
    assert len(fields) == len(slots) == len(units)
    for (chunk, first, stop), n_fields, n_slots in zip(units, fields, slots):
        assert n_fields == stop - first
        assert n_slots <= experiments.BATCH_ROWS or (len(chunk), stop - first) == (1, 1)


@pytest.mark.parametrize("placement, eps_deg", [(Placement.FIXED_COUNT, 0.0),
                                                (Placement.POISSON_COUNT, 10.0)])
def test_a_unit_copies_its_config_once_a_trial(monkeypatch, placement, eps_deg):
    # the cells' theta, N and endpoints reach the engine as arrays: a unit
    # of 2 theta x 2 N x 2 d cells builds one config, for generate, a trial
    counted = []
    post_init = ScenarioConfig.__post_init__

    def counting(self):
        counted.append(self.seed)
        post_init(self)

    spec = SweepSpec(base=small_config(placement=placement, direction_error_deg=eps_deg),
                     theta_deg=(45.0, 360.0), n_nodes=(60, 120),
                     d=(600.0, 800.0), trials=5)
    cells = spec.cells()
    if placement is Placement.POISSON_COUNT:  # Poisson cells share a field only at one N
        cells = [cfg for cfg in cells if cfg.n_nodes == 120]
    monkeypatch.setattr(ScenarioConfig, "__post_init__", counting)
    out = experiments._run_unit(cells, 1, 4)
    assert counted == [derive_seed(spec.base.seed, t) for t in range(1, 4)]
    assert [a.shape for a in out] == [(len(cells), 3)] * 3


def test_default_budget_runs_the_sample_cfg_row_in_two_units():
    # sample.cfg's 135-degree row, 9 cells of N up to 3000 at 50 trials,
    # allocates 27,009 slots a trial: 2^20 slots hold 38 trials, so the
    # 50 trials run as 2 units of 25
    text = (Path(__file__).resolve().parents[1] / "sample.cfg").read_text(encoding="utf-8")
    base, sweep = configio.parse_config_text(text)
    configio.apply_overrides(base, sweep, ["sweep.theta_deg=135", "sweep.trials=50"])
    spec = configio.to_sweep_spec(configio.to_scenario_config(base), sweep)
    assert experiments.BATCH_ROWS == 1 << 20
    assert experiments._units(spec.cells(), spec.trials) == [(list(range(9)), 0, 25),
                                                            (list(range(9)), 25, 50)]


def test_units_bound_allocated_slots_for_any_n_list(monkeypatch):
    # 40 N = 0 cells ahead of 40 at N 20,000 in cell order: an N 0 cell
    # floods a view of the trial's field at the chunk's largest N, so
    # packing them with the large cells would allocate 20,001 slots each
    # (in a budget of 2^19 slots, as in test_units_fit_slot_budget)
    monkeypatch.setattr(experiments, "BATCH_ROWS", 1 << 19)
    pool = recording_pool(monkeypatch, no_flood)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    spec = SweepSpec(base=small_config(square_side=4000.0),
                     theta_deg=tuple(4.5 * k for k in range(1, 41)),
                     n_nodes=(0, 20_000), d=(1000.0,), trials=3)
    assert len(run_sweep(spec, workers=2)) == 80
    assert [(len(configs), first, stop) for configs, first, stop in pool.units] == (
        [(40, 0, 3)] + [(26, t, t + 1) for t in range(3)] + [(14, t, t + 1) for t in range(3)])
    for configs, first, stop in pool.units:
        assert allocated_slots(configs, first, stop) <= experiments.BATCH_ROWS
    # one cell past the budget still gets a unit of one trial
    monkeypatch.setattr(experiments, "BATCH_ROWS", 10_000)
    pool.units.clear()
    run_sweep(replace(spec, theta_deg=spec.theta_deg[:2]), workers=2)
    assert [(len(configs), first, stop) for configs, first, stop in pool.units] == (
        [(2, 0, 3)] + [(1, t, t + 1) for _ in range(2) for t in range(3)])
