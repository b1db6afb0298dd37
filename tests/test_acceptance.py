"""Acceptance suite: one test per criterion, pass/fail line printed for each.

The Monte Carlo grid behind criteria 1-5 is computed once per session with
500 trials per cell (side 4000 m, r 200 m, base seed 0) and shared across
the tests; everything is seed-deterministic, so verdicts are stable.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from sectorcast import cli, configio
from sectorcast.experiments import SweepSpec, run_sweep
from sectorcast.leafmodel import build_leaf
from sectorcast.scenario import ScenarioConfig, generate

from oracles import brute_force_flood, chain_oracle, flood_each, read_results_csv, shoelace

SIDE = 4000.0
RADIUS = 200.0
TRIALS = 500
SEED = 0

C1_THETAS = (45.0, 67.5, 90.0, 112.5, 120.0)
C3_THETAS = (22.5, 45.0, 67.5, 90.0, 100.0)
FULL_THETA_GRID = (22.5, 45.0, 67.5, 90.0, 112.5, 135.0)

# (theta_deg, n_nodes, d) cells needed across criteria 1, 2, 3, 5
GRID_CELLS = sorted(
    {(t, n, 1000.0) for t in C1_THETAS for n in (1000, 3000)}
    | {(t, 2000, 1000.0) for t in C3_THETAS}
    | {(22.5, 3000, 1000.0), (135.0, 3000, 1000.0)}
    | {(90.0, 1000, 3000.0), (90.0, 3000, 3000.0)}
)

# (theta_deg, n_nodes, d) cross products that cover GRID_CELLS; each is one
# run_sweep, whose cells with one N share each trial's field
GRID_SWEEPS = (
    ((22.5, 45.0, 67.5, 90.0, 112.5, 120.0, 135.0), (1000, 3000), (1000.0,)),
    ((22.5, 45.0, 67.5, 90.0, 100.0), (2000,), (1000.0,)),
    ((90.0,), (1000, 3000), (3000.0,)),
)


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    return ok


@pytest.fixture(scope="session")
def grid():
    base = ScenarioConfig(square_side=SIDE, radius=RADIUS, seed=SEED)
    results = {}
    for thetas, ns, ds in GRID_SWEEPS:
        spec = SweepSpec(base=base, theta_deg=thetas, n_nodes=ns, d=ds,
                         trials=TRIALS)
        # run_sweep orders its cells by (d, n, theta)
        keys = [(t, n, d) for d in sorted(ds) for n in sorted(ns) for t in sorted(thetas)]
        results.update(zip(keys, run_sweep(spec)))
    return {cell: results[cell] for cell in GRID_CELLS}


def test_criterion_1_model_simulation_agreement(grid):
    rows = []
    worst = 0.0
    for theta_deg in C1_THETAS:
        for n in (1000, 3000):
            cell = grid[(theta_deg, n, 1000.0)]
            assert cell.model_relative_error is not None
            err = cell.model_relative_error
            worst = max(worst, abs(err))
            rows.append((theta_deg, n, cell.model_ratio,
                         cell.implicated_ratio_mean, err))
    for theta_deg, n, model, sim, err in rows:
        print(f"    theta={theta_deg:6.1f} N={n}: model={model:.5f} "
              f"sim={sim:.5f} rel_err={err:+.3f} "
              f"{'ok' if abs(err) <= 0.15 else 'EXCEEDS 0.15'}")
    ok = report("criterion 1", worst <= 0.15,
                f"max |relative error| = {worst:.3f} over {len(rows)} cells "
                f"(bound 0.15)")
    assert ok, (
        "model-simulation agreement exceeds 0.15 on some cells: near and "
        "beyond 112.5 deg the edge recurrence approaches its fixed point "
        "r/(2 cos(theta/2)) and keeps appending near-constant-area "
        "triangles, overshooting any fill reachable at these densities; at "
        "N=1000 the flood under-fills the chain's lateral extent even "
        "conditioned on delivery. See README, acceptance notes."
    )


def test_criterion_2_model_density_independence(grid):
    groups = {}
    for (theta_deg, n, d), cell in grid.items():
        groups.setdefault((theta_deg, d), []).append(cell.model_ratio)
    multi = {k: v for k, v in groups.items() if len(v) > 1}
    ok = all(len(set(v)) == 1 for v in multi.values())
    report("criterion 2", ok,
           f"model_ratio bit-identical across N for {len(multi)} "
           f"(theta, d) groups")
    assert ok


def test_criterion_3_near_linearity(grid):
    xs = [math.radians(t) for t in C3_THETAS]
    ys = [grid[(t, 2000, 1000.0)].implicated_ratio_mean for t in C3_THETAS]
    # for one regressor the least-squares R^2 is the squared correlation
    r2 = float(np.corrcoef(xs, ys)[0, 1] ** 2)
    ok = report("criterion 3",
                r2 >= 0.98, f"R^2 of ratio vs theta on {C3_THETAS} deg at "
                f"N=2000 is {r2:.4f} (need >= 0.98)")
    assert ok


def test_criterion_4_bandwidth_gain_identity(grid, tmp_path):
    worst = 0.0
    for cell in grid.values():
        expect = cell.implicated_ratio_mean * cell.theta_deg / 360.0
        worst = max(worst, abs(cell.bandwidth_gain - expect) / expect)
    # the identity must also hold for emitted CSV rows after parse-back
    some = list(grid.values())[:4]
    spec = SweepSpec(ScenarioConfig(square_side=SIDE, radius=RADIUS, d=1000.0,
                                    seed=SEED))
    path = tmp_path / "rows.csv"
    path.write_text(configio.results_csv_text(some, spec))
    for row in read_results_csv(str(path)):
        expect = row["implicated_ratio_mean"] * row["theta_deg"] / 360.0
        worst = max(worst, abs(row["bandwidth_gain"] - expect) / expect)
    ok = report("criterion 4", worst <= 1e-12,
                f"max relative deviation of gain identity = {worst:.2e} "
                f"(bound 1e-12)")
    assert ok


def test_criterion_5_success_probability_trends(grid):
    def ci_gap(a, b):
        return math.sqrt(a.success_ci_halfwidth ** 2 + b.success_ci_halfwidth ** 2)

    problems = []
    # non-decreasing in N at theta = 90, d = 1000
    n_cells = [grid[(90.0, n, 1000.0)] for n in (1000, 2000, 3000)]
    for lo, hi in zip(n_cells, n_cells[1:]):
        if hi.success_rate - lo.success_rate < -ci_gap(lo, hi):
            problems.append(f"N trend: {lo.n_nodes}->{hi.n_nodes}")
    # non-decreasing in theta over the full default grid at N = 3000, d = 1000
    t_cells = [grid[(t, 3000, 1000.0)] for t in FULL_THETA_GRID]
    for lo, hi in zip(t_cells, t_cells[1:]):
        if hi.success_rate - lo.success_rate < -ci_gap(lo, hi):
            problems.append(f"theta trend: {lo.theta_deg:.1f}->{hi.theta_deg:.1f}")
    # longer distance never helps at matched (N, theta)
    for n in (1000, 3000):
        near = grid[(90.0, n, 1000.0)]
        far = grid[(90.0, n, 3000.0)]
        if far.success_rate > near.success_rate + ci_gap(near, far):
            problems.append(f"distance ordering at N={n}")
    ok = report("criterion 5", not problems,
                "success-rate trends (N, theta, distance) hold within 95% CI"
                + ("" if not problems else f"; violations: {problems}"))
    assert ok


def test_criterion_6_engine_matches_brute_force():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for k in range(100):
        cfg = ScenarioConfig(
            square_side=1500.0,
            n_nodes=int(rng.integers(0, 51)),
            radius=float(rng.uniform(100, 400)),
            theta_deg=float(rng.uniform(10, 360)),
            d=float(rng.uniform(100, 1500)),
            seed=int(rng.integers(0, 2**63)),
            direction_error_deg=float(rng.choice([0.0, 0.0, 11.459155902616464])),
        )
        scenario = generate(cfg)
        # the engine and the reference aim with the same draws of stream (k, 7)
        eps = cfg.direction_error_bound
        draws = np.random.default_rng(np.random.SeedSequence((k, 7))).uniform(
            -eps, eps, len(scenario.nodes) + 1)
        got = flood_each([scenario], [draws] if eps > 0.0 else None).outcome(0)
        want = brute_force_flood(scenario, draws)
        same = (got.success == want["success"]
                and got.first_delivery_hop == want["first_delivery_hop"]
                and got.implicated == want["implicated"]
                and got.covered == want["covered"]
                and got.per_round_transmitters == want["per_round_transmitters"])
        mismatches += not same
    ok = report("criterion 6", mismatches == 0,
                f"{100 - mismatches}/100 random floods match the index-free "
                f"reference exactly")
    assert ok


def test_criterion_7_analytic_oracles():
    rng = np.random.default_rng(4096)
    worst_rec = 0.0
    worst_shoe = 0.0
    for _ in range(50):
        r = float(rng.uniform(50, 400))
        theta = math.radians(float(rng.uniform(5, 119.5)))
        d = float(rng.uniform(r * 1.1, r * 15))
        seq, areas, total = chain_oracle(d, r, theta)
        model = build_leaf(d, r, theta)
        worst_rec = max(worst_rec, max(
            abs(a - b) / b for a, b in zip(model.d_seq, seq)))
        worst_rec = max(worst_rec, abs(model.total_area - total) / total)
        verts = model.vertices
        for k in range(1, len(verts)):
            expect = 0.5 * r * model.d_seq[k - 1] * math.sin(theta / 2.0)
            got = shoelace((0.0, 0.0), verts[k - 1], verts[k])
            worst_shoe = max(worst_shoe, abs(got - expect) / expect)
    ok_rec = worst_rec <= 1e-9
    ok_shoe = worst_shoe <= 1e-6
    ok = report("criterion 7", ok_rec and ok_shoe,
                f"recurrence max rel dev {worst_rec:.2e} (bound 1e-9); "
                f"shoelace max rel dev {worst_shoe:.2e} (bound 1e-6)")
    assert ok


def test_criterion_8_byte_identical_reruns(tmp_path):
    cfg_text = (
        "square_side = 1500\nn_nodes = 100\nradius = 200\ntheta_deg = 90\n"
        "d = 600\nseed = 11\n[sweep]\ntheta_deg = 45, 90\nn_nodes = 60\n"
        "d = 600\ntrials = 3\n"
    )
    cfg_path = tmp_path / "field.cfg"
    cfg_path.write_text(cfg_text)
    stable = True
    for command, name in [("simulate", "r.json"), ("sweep", "r.csv"),
                          ("compare", "c.csv"), ("snapshot", "r.svg")]:
        a, b = tmp_path / f"a_{name}", tmp_path / f"b_{name}"
        assert cli.main([command, "--config", str(cfg_path), "--out", str(a)]) == 0
        assert cli.main([command, "--config", str(cfg_path), "--out", str(b)]) == 0
        stable &= a.read_bytes() == b.read_bytes()
    ok = report("criterion 8", stable,
                "simulate/sweep/compare/snapshot reruns are byte-identical")
    assert ok
