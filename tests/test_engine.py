"""Flood engine: round semantics, spatial index, oracle equivalence."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sectorcast import engine
from sectorcast.engine import (
    BOX_SLACK,
    FULL_CIRCLE,
    NEAR,
    SOURCE_ID,
    GridIndex,
    aim_vectors,
    propagate,
    sector_hits,
)
from sectorcast.leafmodel import build_leaf
from sectorcast.scenario import (
    Placement,
    Point2D,
    Scenario,
    ScenarioConfig,
    endpoint_positions,
    generate,
)

from oracles import TWO_PI, Sector, brute_force_flood, flood_each, flood_views, in_sector


def make_scenario(nodes, source, destination, *, side=4000.0, radius=200.0,
                  theta_deg=60.0, eps_deg=0.0):
    nodes = np.asarray(nodes, dtype=float).reshape(-1, 2)
    d = math.hypot(destination[0] - source[0], destination[1] - source[1])
    cfg = ScenarioConfig(square_side=side, n_nodes=len(nodes), radius=radius,
                         theta_deg=theta_deg, d=min(d, side),
                         seed=0, direction_error_deg=eps_deg)
    return Scenario(nodes=nodes, source=Point2D(*source),
                    destination=Point2D(*destination), config=cfg)


def random_scenario(rng, n_max=50, side=1500.0):
    cfg = ScenarioConfig(
        square_side=side,
        n_nodes=int(rng.integers(0, n_max + 1)),
        radius=float(rng.uniform(100, 400)),
        theta_deg=float(rng.uniform(10, 360)),
        d=float(rng.uniform(0.1 * side, side)),
        seed=int(rng.integers(0, 2**63)),
        direction_error_deg=float(rng.choice([0.0, 17.188733853924695])),
    )
    return generate(cfg)


def outcome_matches_oracle(scenario, seed):
    # the engine and the oracle aim with the same draws of stream (seed, 1)
    eps = scenario.config.direction_error_bound
    draws = np.random.default_rng(np.random.SeedSequence((seed, 1))).uniform(
        -eps, eps, len(scenario.nodes) + 1)
    got = flood_each([scenario], [draws] if eps > 0.0 else None).outcome(0)
    want = brute_force_flood(scenario, draws)
    assert got.success == want["success"]
    assert got.first_delivery_hop == want["first_delivery_hop"]
    assert got.implicated == want["implicated"]
    assert got.covered == want["covered"]
    assert got.rounds == want["rounds"]
    assert got.per_round_transmitters == want["per_round_transmitters"]


def test_direct_one_hop_delivery():
    s = make_scenario([], (0.0, 0.0), (150.0, 0.0))
    out = propagate(s)
    assert out.success
    assert out.first_delivery_hop == 1
    assert out.implicated == {SOURCE_ID}
    assert out.rounds == 1
    assert out.per_round_transmitters == (1,)


def test_failure_with_no_relays():
    s = make_scenario([], (0.0, 0.0), (1000.0, 0.0))
    out = propagate(s)
    assert not out.success
    assert out.first_delivery_hop is None
    assert out.implicated == {SOURCE_ID}
    assert out.covered == frozenset()
    assert out.rounds == 1


def test_two_hop_relay_chain():
    # source -> relay at 150 m -> destination at 300 m, all on-axis
    s = make_scenario([(150.0, 0.0)], (0.0, 0.0), (300.0, 0.0))
    out = propagate(s)
    assert out.success
    assert out.first_delivery_hop == 2
    assert out.implicated == {SOURCE_ID, 0}
    assert out.covered == {0, 1}  # relay plus destination (id n_nodes = 1)
    assert out.rounds == 2
    assert out.per_round_transmitters == (1, 1)


def test_destination_never_relays():
    # node at 300 m is reachable only if the covered destination relayed
    s = make_scenario([(300.0, 0.0)], (0.0, 0.0), (150.0, 0.0), theta_deg=90.0)
    out = propagate(s)
    assert out.success
    assert out.first_delivery_hop == 1
    assert out.implicated == {SOURCE_ID}
    assert out.covered == {1}  # destination only; node 0 stays dark
    assert out.rounds == 1


def test_transmit_once_and_accounting_invariants():
    rng = np.random.default_rng(2)
    for _ in range(30):
        scenario = random_scenario(rng, n_max=80)
        out = propagate(scenario)
        n = len(scenario.nodes)
        assert len(out.implicated) <= n + 1
        assert sum(out.per_round_transmitters) == len(out.implicated)
        assert out.rounds == len(out.per_round_transmitters)
        assert out.success == (out.first_delivery_hop is not None)
        # every implicated node except the source was covered first
        assert out.implicated - {SOURCE_ID} <= out.covered
        assert out.success == (n in out.covered)


def test_theta_monotonicity_fixed_placement():
    rng = np.random.default_rng(3)
    for _ in range(10):
        base = random_scenario(rng, n_max=60)
        base = Scenario(base.nodes, base.source, base.destination,
                        replace(base.config, direction_error_deg=0.0))
        prev_covered = None
        prev_success = False
        for theta_deg in (30.0, 60.0, 120.0, 240.0, 360.0):
            s = Scenario(base.nodes, base.source, base.destination,
                         replace(base.config, theta_deg=theta_deg))
            out = propagate(s)
            if prev_covered is not None:
                assert prev_covered <= out.covered
                assert out.success or not prev_success
            prev_covered = out.covered
            prev_success = out.success


@pytest.mark.parametrize("eps_deg", [0.0, 10.0])
def test_floods_nest_in_theta_at_oracle_free_sizes(eps_deg):
    # floods over one field, d and aiming draw, at a size the oracle cannot
    # reach: a wider beam implicates every node a narrower one does and
    # delivers no later.  All in one call, so each flood gathers its own beam.
    thetas = (22.5, 45.0, 67.5, 90.0, 112.5, 135.0, 360.0)
    scenarios = []
    for seed in range(4):
        cfg = ScenarioConfig(n_nodes=3000, seed=seed, direction_error_deg=eps_deg)
        scenarios += shared_field(cfg, thetas, (1000.0, 2000.0, 3000.0))
    batch = flood_each(scenarios)
    floods = [batch.outcome(b) for b in range(len(scenarios))]
    for start in range(0, len(floods), len(thetas)):
        group = floods[start:start + len(thetas)]
        for i, narrow in enumerate(group):
            for wide in group[i + 1:]:
                assert narrow.implicated <= wide.implicated, (start, i)
                if narrow.success:
                    assert wide.success, (start, i)
                    assert wide.first_delivery_hop <= narrow.first_delivery_hop, (start, i)
    assert {out.success for out in floods} == {True, False}


def test_propagate_deterministic():
    scenario = generate(ScenarioConfig(n_nodes=500, seed=11, theta_deg=90))
    assert propagate(scenario) == propagate(scenario)


def test_direction_error_defaults_to_aim_stream():
    # propagate aims with the draws of the config seed's stream (seed, 1)
    s = make_scenario([(190.0, 60.0)], (0.0, 0.0), (600.0, 0.0),
                      theta_deg=30.0, eps_deg=60.0)
    eps = s.config.direction_error_bound
    hits = set()
    for k in range(40):
        scenario = replace(s, config=replace(s.config, seed=k))
        out = propagate(scenario)
        aim = np.random.default_rng(np.random.SeedSequence((k, 1))).uniform(-eps, eps, 2)
        assert out == flood_each([scenario], [aim]).outcome(0)
        hits.add(0 in out.covered)
    assert hits == {True, False}


def shared_field(cfg, thetas_deg, distances, nodes=None):
    """Scenarios over one nodes array (by default cfg's generated field), one
    per (d, theta), built as a sweep unit builds the cells of one trial."""
    nodes = generate(cfg).nodes if nodes is None else nodes
    out = []
    for d in distances:
        for theta_deg in thetas_deg:
            cell = replace(cfg, theta_deg=theta_deg, d=d)
            out.append(Scenario(nodes, *endpoint_positions(cell), cell))
    return out


def test_batch_over_shared_nodes_matches_single_floods():
    # flood_fields' floods of one field share an index group and an aiming
    # draw, also when they flood its first rows, yet each must equal the
    # one-scenario propagate of a copy of its own nodes
    base = ScenarioConfig(square_side=1500.0, radius=250.0)
    delivered = set()
    for eps_deg in (0.0, 10.0):
        for placement in (Placement.FIXED_COUNT, Placement.POISSON_COUNT):
            # per trial's field, the row counts it is flooded with: an empty
            # field alone and among a non-empty one, and a field of 90 rows
            # flooded as its first 0 and 45 rows before it is whole
            for views_of in (((90,), (90,)), ((0,), (0,)), ((90,), (0,)), ((0, 45, 90),)):
                scenarios, fields, field_of = [], [], []
                for seed, views in zip((3, 4), views_of):  # a field per trial
                    cfg = replace(base, n_nodes=views[-1], seed=seed, placement=placement,
                                  direction_error_deg=eps_deg)
                    nodes = generate(cfg).nodes
                    fields.append(nodes)
                    for n in views:
                        scenarios += shared_field(replace(cfg, n_nodes=n), (5.0, 135.0, 360.0),
                                                  (0.0, 150.0, 250.0, 900.0),
                                                  nodes if n == views[-1] else nodes[:n])
                        field_of += [len(fields) - 1] * 12
                # the same nodes under another seed draw their own aiming errors
                fields.append(fields[0])
                scenarios += [replace(s, config=replace(s.config, seed=s.config.seed + 100))
                              for s in scenarios[:12]]
                field_of += [len(fields) - 1] * 12
                batch = flood_views(scenarios, fields, field_of)
                # a slot per row of the field
                assert np.diff(batch.offsets).tolist() == [len(fields[g]) for g in field_of]
                for b, scenario in enumerate(scenarios):
                    want = propagate(replace(scenario, nodes=scenario.nodes.copy()))
                    assert batch.outcome(b) == want, (eps_deg, placement, views_of, b)
                    assert batch.reached[b] == want.success
                    assert batch.implicated[b] == len(want.implicated)
                    # covered: the rows reached, and every row past the flood's n
                    lo, hi, n = batch.offsets[b], batch.offsets[b + 1], len(scenario.nodes)
                    assert batch.covered[lo:hi].sum() == len(want.covered - {n}) + (hi - lo) - n
                    delivered.add(want.success)
    assert delivered == {True, False}


@pytest.mark.parametrize("eps_deg", [0.0, 10.0])
def test_floods_nest_in_n_at_oracle_free_sizes(eps_deg):
    # floods over the first m rows of a fixed field, at sizes the oracle
    # cannot reach, all in one call: each row keeps its position and aiming
    # draw in every view, so the whole field implicates every node a prefix
    # does and delivers no later
    sizes = (400, 1000, 2000, 3000)
    scenarios = []
    for seed in range(3):
        cfg = ScenarioConfig(n_nodes=3000, seed=seed, direction_error_deg=eps_deg)
        nodes = generate(cfg).nodes
        for theta_deg in (45.0, 90.0, 135.0):
            for d in (1000.0, 2000.0):
                for m in sizes:
                    cell = replace(cfg, n_nodes=m, theta_deg=theta_deg, d=d)
                    scenarios.append(Scenario(nodes[:m], *endpoint_positions(cell), cell))
    batch = flood_each(scenarios)
    floods = [batch.outcome(b) for b in range(len(scenarios))]
    strict = 0
    for start in range(0, len(floods), len(sizes)):
        group = floods[start:start + len(sizes)]
        for i, prefix in enumerate(group):
            for whole in group[i + 1:]:
                assert prefix.implicated <= whole.implicated, (start, i)
                strict += prefix.implicated < whole.implicated
                if prefix.success:
                    assert whole.success, (start, i)
                    assert whole.first_delivery_hop <= prefix.first_delivery_hop, (start, i)
    assert strict and {out.success for out in floods} == {True, False}


@pytest.mark.parametrize("eps_deg", [0.0, 10.0])
def test_implicated_nodes_stay_within_the_disc_bound(eps_deg):
    # when theta / 2 + eps <= 60 deg, a node within r of a transmitter at
    # distance D from the destination, at most 60 deg off that line, lies
    # within max(D, r) of the destination (law of cosines), so by induction
    # from the source every implicated node lies within max(d, r) of it
    thetas = (22.5, 45.0, 67.5, 90.0, 120.0 - 2.0 * eps_deg)
    distances = (300.0, 1000.0, 2000.0, 3000.0)
    worst, spread = 0.0, 0
    for seed in range(4):
        cfg = ScenarioConfig(n_nodes=3000, seed=seed, direction_error_deg=eps_deg)
        scenarios = shared_field(cfg, thetas, distances)
        batch = flood_each(scenarios)
        for b, s in enumerate(scenarios):
            ids = sorted(batch.outcome(b).implicated - {SOURCE_ID})
            bound = max(s.config.d, s.config.radius)
            far = np.hypot(*(s.nodes[ids] - (s.destination.x, s.destination.y)).T)
            ratio = far.max(initial=0.0) / bound
            assert ratio <= 1.0 + 1e-9, (seed, b, ratio)
            worst = max(worst, ratio)
            spread += len(ids) > 50
    assert worst > 0.9 and spread  # the floods reach out toward the bound


def test_full_circle_covers_nodes_straight_behind_the_axis():
    # a node straight behind a transmitter's axis has dot = -|d|; here the
    # float dot product even lands below -sqrt(q), so a 360-degree sector
    # must not be tested against cos(pi)
    src = (500.0, 500.0)
    ux, uy = aim_vectors(np.array([10.0]), np.array([100.0]), np.zeros(1))
    assert -1.0 * ux[0] - 10.0 * uy[0] < -math.sqrt(101.0)
    diagonal = make_scenario([(499.0, 490.0)], src, (510.0, 600.0), theta_deg=360.0)
    axial = make_scenario([(400.0, 500.0)], src, (800.0, 500.0), theta_deg=360.0)
    narrow = replace(diagonal, config=replace(diagonal.config, theta_deg=90.0))
    batch = flood_each([diagonal, axial, narrow])  # per-flood half-angles
    for b, scenario in enumerate((diagonal, axial, narrow)):
        want = brute_force_flood(scenario)
        for got in (propagate(scenario), batch.outcome(b)):  # one beam, per flood
            assert (got.success, got.first_delivery_hop, got.implicated, got.covered,
                    got.per_round_transmitters) == (
                want["success"], want["first_delivery_hop"], want["implicated"],
                want["covered"], want["per_round_transmitters"]), b
            assert (0 in got.covered) == (scenario is not narrow)


def fixed_aim(scenario, *errors):
    """Chosen aiming draws for scenario: the first to the source, the next
    to node 0, and so on, repeated to one a node and the source."""
    return np.resize(np.array(errors), len(scenario.nodes) + 1)


def test_destination_at_range_and_on_edge_ray_matches_oracle():
    # the destination is tested outside the index, by each transmitter;
    # at distance exactly r or on an edge ray of the sector it must get
    # the in_sector oracle's verdict
    half = math.radians(30.0)
    errors = (0.0, half, -half, math.nextafter(half, 0.0), math.nextafter(half, 1.0))
    dests = [(200.0, 0.0), (120.0, 160.0), (-120.0, -160.0), (0.0, -200.0),
             (math.nextafter(200.0, 300.0), 0.0)]
    verdicts, relayed = set(), set()
    for dest in dests:
        for err in errors:
            # the source alone: delivery is the oracle's verdict on the destination
            s = make_scenario([], (0.0, 0.0), dest, theta_deg=60.0, eps_deg=30.0)
            axis = (math.atan2(dest[1], dest[0]) % TWO_PI + err) % TWO_PI
            sector = Sector(apex=Point2D(0.0, 0.0), axis=axis, half_angle=half, radius=200.0)
            got = flood_each([s], [fixed_aim(s, err)]).outcome(0)
            assert got.success == in_sector(Point2D(*dest), sector)
            verdicts.add(in_sector(Point2D(*dest), sector))
            # a relay at exactly r from the destination, aimed with the error
            sign = math.copysign(1.0, dest[0] or 1.0)
            relay = (dest[0] - 200.0 * sign, dest[1])
            s = make_scenario([relay], (relay[0] - 100.0 * sign, relay[1]), dest,
                              theta_deg=60.0, eps_deg=30.0)
            aim = fixed_aim(s, 0.0, err)
            got = flood_each([s], [aim]).outcome(0)
            want = brute_force_flood(s, aim)
            assert (got.success, got.first_delivery_hop, got.covered, got.implicated) == (
                want["success"], want["first_delivery_hop"], want["covered"],
                want["implicated"])
            relayed.add(got.success)
    assert verdicts == relayed == {True, False}


def test_matches_brute_force_on_small_scenarios():
    rng = np.random.default_rng(6)
    for k in range(25):
        outcome_matches_oracle(random_scenario(rng), seed=k)


def test_batch_matches_brute_force_at_box_switch_points():
    # theta where a sector's bounding box changes shape (a ray, a quarter
    # disc, a half disc, three quarters, a disc less 0.1 deg, the whole
    # disc), aim errors 0 and pi, floods of mixed theta and d batched over
    # shared fields
    thetas_deg = (math.degrees(1e-6), 90.0, 180.0, 270.0, 359.9, 360.0)
    base = ScenarioConfig(square_side=800.0, radius=220.0, d=120.0)
    delivered = set()
    for eps_deg in (0.0, 180.0):
        for placement in (Placement.FIXED_COUNT, Placement.POISSON_COUNT):
            scenarios = []
            for seed in (5, 6):
                cfg = replace(base, n_nodes=40, seed=seed, placement=placement,
                              direction_error_deg=eps_deg)
                scenarios += shared_field(cfg, thetas_deg, (120.0, 500.0))
            batch = flood_each(scenarios)
            for b, scenario in enumerate(scenarios):
                want = brute_force_flood(scenario)
                got = batch.outcome(b)
                assert (got.success, got.first_delivery_hop, got.implicated, got.covered,
                        got.rounds, got.per_round_transmitters) == (
                    want["success"], want["first_delivery_hop"], want["implicated"],
                    want["covered"], want["rounds"], want["per_round_transmitters"]), (eps_deg, b)
                delivered.add(got.success)
    assert delivered == {True, False}


@pytest.mark.parametrize("chunk", [1, 5, 64, engine.ROUND_CHUNK])
def test_outcomes_do_not_depend_on_round_chunk(monkeypatch, chunk):
    # a round's candidate runs are cut into chunks of about ROUND_CHUNK
    # pairs, and a slot hit in one chunk drops out of the next as covered;
    # wherever the cuts fall, floods over shared fields, row-prefix views of
    # them and aimed with errors must stay the oracle's
    monkeypatch.setattr(engine, "ROUND_CHUNK", chunk)
    base = ScenarioConfig(square_side=700.0, radius=180.0, d=150.0)
    delivered = set()
    for eps_deg in (0.0, 10.0):
        scenarios = []
        for seed in (31, 32):
            cfg = replace(base, n_nodes=70, seed=seed, direction_error_deg=eps_deg)
            scenarios += shared_field(cfg, (45.0, 135.0, 360.0), (150.0, 600.0))
            nodes = scenarios[-1].nodes
            for n in (0, 25):  # a view of the first n rows shares the field's group
                cell = replace(cfg, n_nodes=n, theta_deg=120.0, d=500.0)
                scenarios.append(Scenario(nodes[:n], *endpoint_positions(cell), cell))
        batch = flood_each(scenarios)
        for b, scenario in enumerate(scenarios):
            want = brute_force_flood(scenario)
            got = batch.outcome(b)
            assert (got.success, got.first_delivery_hop, got.implicated, got.covered,
                    got.rounds, got.per_round_transmitters) == (
                want["success"], want["first_delivery_hop"], want["implicated"],
                want["covered"], want["rounds"], want["per_round_transmitters"]), (eps_deg, b)
            delivered.add(got.success)
    assert delivered == {True, False}


def scan(pts, s, members=None):
    return {i for i, (x, y) in enumerate(pts)
            if (members is None or i in members) and in_sector(Point2D(x, y), s)}


def batched_hits(index, apexes, axes, half_angle, groups=None, covered=None):
    """Hit sets of sectors sharing half_angle and the index's radius, from
    one batched sector_hits query; covered marks sorted positions covered
    before it (none by default).  Query q owns slots q * n .. q * n + n - 1,
    one per sorted position, so a hit slot names its query and its point."""
    xs = np.array([a[0] for a in apexes], dtype=float)
    ys = np.array([a[1] for a in apexes], dtype=float)
    ux = np.array([math.cos(a) for a in axes], dtype=float)
    uy = np.array([math.sin(a) for a in axes], dtype=float)
    groups = np.zeros(len(xs), np.int64) if groups is None else np.asarray(groups)
    cos_half = np.full(len(xs), FULL_CIRCLE if half_angle >= math.pi else math.cos(half_angle))
    box_half = min(half_angle + BOX_SLACK, math.pi)
    wide = np.array([np.full(len(xs), math.cos(box_half)), np.full(len(xs), math.sin(box_half))])
    n = len(index.order) or 1  # an empty index has no slots to tell apart
    shift = np.arange(len(xs)) * n
    covered = np.zeros(len(index.order), bool) if covered is None else covered
    covered = np.tile(covered, len(xs))
    slots = sector_hits(index, xs, ys, ux, uy, groups, cos_half, wide, shift, covered,
                        lambda k: (ux[k], uy[k]))  # exact axes
    found = [set() for _ in apexes]
    owner, pos = np.divmod(slots, n)
    for o, i in zip(owner.tolist(), index.order[pos].tolist()):
        found[o].add(i)
    return found


def check_against_scan(pts, radius, apexes, axes, half_angle, groups=None, query_groups=None):
    index = GridIndex(pts, radius, np.zeros(len(pts), np.int64) if groups is None else groups)
    got = batched_hits(index, apexes, axes, half_angle, query_groups)
    for k, (apex, axis) in enumerate(zip(apexes, axes)):
        members = None
        if groups is not None:
            members = set(np.flatnonzero(np.asarray(groups) == query_groups[k]).tolist())
        s = Sector(apex=Point2D(*apex), axis=axis, half_angle=half_angle, radius=radius)
        assert got[k] == scan(pts, s, members), (apex, axis, half_angle, radius)


def test_grid_index_queries_match_linear_scan():
    rng = np.random.default_rng(8)
    pts = rng.uniform(0, 2000, size=(400, 2))
    groups = rng.integers(0, 3, size=400)
    for _ in range(5):
        apexes = [tuple(a) for a in rng.uniform(-100, 2100, size=(200, 2))]
        axes = rng.uniform(0, 2 * math.pi, 200)
        half = float(rng.uniform(0.05, math.pi))
        check_against_scan(pts, 250.0, apexes, axes, half)
        check_against_scan(pts, 250.0, apexes, axes, half, groups, rng.integers(0, 3, 200))
    # apexes outside the points' extent, some still within one radius of it
    outside = [(ax, ay) for ax in (-5000.0, -250.0, -249.5, -100.0, 2100.0, 2249.5, 2250.0, 7000.0)
               for ay in (-300.0, 1000.0, 2240.0)]
    outside += [(1e6, 1e6), (-1e6, -1e6), (1e6, 1000.0), (1000.0, -1e6)]
    for axis, half in ((0.0, math.pi), (math.pi / 2, math.pi / 3), (math.pi, 0.1)):
        check_against_scan(pts, 250.0, outside, [axis] * len(outside), half)


def test_grid_index_boundary_points_match_linear_scan():
    rng = np.random.default_rng(10)
    phis = np.concatenate(([0.0, math.pi, math.pi / 2, 3 * math.pi / 2, 1e-9, math.pi - 1e-9],
                           rng.uniform(0, 2 * math.pi, 26)))
    apexes = [tuple(rng.uniform(0, 2000, 2)) for _ in range(30)]
    apexes += [(1e6 + float(rng.uniform(-1, 1)), float(rng.uniform(-1e6, 1e6)))
               for _ in range(15)]
    apexes += [(1e6, 1e6), (-1e6, 0.0), (0.0, 0.0), (-1e6, -1e6)]
    for k, (ax, ay) in enumerate(apexes):
        # a random radius rounds x +- r up or down; 250 keeps it exact
        radius = (250.0, float(rng.uniform(0.1, 1.0)), float(rng.uniform(50, 900)))[k % 3]
        ring = np.column_stack((ax + radius * np.cos(phis), ay + radius * np.sin(phis)))
        # exactly x +- r and y +- r, as floating point rounds them
        cross = [(ax + radius, ay), (ax - radius, ay), (ax, ay + radius), (ax, ay - radius),
                 (ax + radius, ay + radius), (ax - radius, ay - radius)]
        near = np.array([ax, ay]) + rng.uniform(-2 * radius, 2 * radius, size=(40, 2))
        pts = np.vstack((ring, cross, near))
        for axis, half in ((0.0, math.pi), (0.0, math.pi / 4), (math.pi, math.pi / 4),
                           (math.pi / 2, math.pi / 2),
                           (float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0.05, math.pi)))):
            check_against_scan(pts, radius, [(ax, ay)], [axis], half)


def test_grid_index_column_boundaries_match_linear_scan():
    # cells are 0.6 r wide and 0.15 r tall from the smallest x and y: points
    # and apexes sit on column edges k * 0.6 r and row edges k * 0.15 r, one
    # ulp either side of them, and mid-cell
    r = 125.0
    width, height = r * np.array(engine.CELL)

    def around(edges, cell):
        coords = np.concatenate((edges, np.nextafter(edges, -np.inf),
                                 np.nextafter(edges, np.inf), edges + cell / 2))
        return coords[coords >= 0.0]

    xs = around(np.arange(-1, 5) * width, width)
    ys = around(np.arange(-1, 17) * height, height)
    pts = np.array([(x, y) for x in xs for y in ys])
    assert GridIndex(pts, r, np.zeros(len(pts), np.int64))._cell.tolist() == [width, height]
    apexes = [(x, y) for x in xs[::4] for y in ys[::11]]
    for axis, half in ((0.0, math.pi), (0.0, math.pi / 2), (math.pi, 0.3), (1.0, 2.0)):
        check_against_scan(pts, r, apexes, [axis] * len(apexes), half)


def test_grid_index_pads_boxes_for_offsets_that_round_to_the_radius():
    # x, one ulp past the rounded apex + r, is in range when (x - apex)^2
    # rounds to at most r * r; with the index's lowest point one cell width
    # left of x, a column edge lies between the box corner apex + r and x,
    # so the box reaches x's column only through GridIndex.ranges' pad
    rng = np.random.default_rng(31)
    cases = 0
    for _ in range(1000):
        r = float(rng.uniform(10.0, 900.0))
        ax = float(rng.uniform(0.0, r))
        x = math.nextafter(ax + r, math.inf)
        width = r * engine.CELL[0]
        anchor = x - width
        if ((x - ax) * (x - ax) > r * r
                or math.floor((ax + r - anchor) / width) == math.floor((x - anchor) / width)):
            continue
        cases += 1
        pts = np.array([(anchor, -0.1 * r), (x, 0.0)])
        index = GridIndex(pts, r, np.zeros(2, np.int64))
        assert index._cell[0] == width
        s = Sector(apex=Point2D(ax, 0.0), axis=0.0, half_angle=math.pi / 4, radius=r)
        assert scan(pts, s) == {0, 1}
        assert batched_hits(index, [(ax, 0.0)], [0.0], math.pi / 4) == [{0, 1}], (ax, r)
    assert cases >= 5


def test_candidates_are_the_runs_of_slots_in_order():
    # run k of a chunk holds counts[k] slots from first[k]; the chunk's pairs
    # are numbered on from done, so base[k] is first[k] less the number of
    # the run's first pair
    rng = np.random.default_rng(24)
    index = GridIndex(np.zeros((0, 2)), 1.0, np.zeros(0, np.int64))
    for done, counts in ((0, [3, 0, 5, 1]), (17, [0, 0, 4]), (9, [0]), (5, []),
                         (1000, rng.integers(0, 4, 50))):
        counts = np.asarray(counts, np.int64)
        first = rng.integers(0, 10_000, len(counts))
        base = first - (done + counts.cumsum() - counts)
        want = [np.arange(f, f + c) for f, c in zip(first.tolist(), counts.tolist())]
        got = index.candidates(base, counts, done)
        assert got.tolist() == np.concatenate([np.zeros(0, np.int64), *want]).tolist()


def test_sector_box_edges_match_linear_scan():
    # the index is queried over each sector's bounding box: points on both
    # edge rays at distance r, on the arc's cardinal extremes, and one ulp
    # either side of them, at half-angles where the box changes shape and
    # axes on (and one ulp off) the cardinal directions
    r = 200.0
    axes = []
    for a in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2):
        axes += [a, math.nextafter(a or TWO_PI, 0.0), math.nextafter(a, 7.0)]
    halves = (1e-9, math.pi / 4, math.pi / 2 - 1e-12, math.pi / 2 + 1e-12, math.pi - 1e-9,
              math.pi)
    extremes = [(r, 0.0), (0.0, r), (-r, 0.0), (0.0, -r)]
    for ax, ay in ((1000.3, 777.7), (0.0, 0.0), (-3e5, 2e5)):
        for axis in axes:
            for half in halves:
                # the exact test accepts points up to ~2e-8 rad past a
                # narrow sector's edge rays
                ends = [(r * math.cos(axis + sign * (half + off)),
                         r * math.sin(axis + sign * (half + off)))
                        for sign in (-1.0, 1.0) for off in (0.0, 1e-8)]
                base = [(ax + dx, ay + dy) for dx, dy in ends + extremes]
                pts = [(x, y) for px, py in base
                       for x, y in ((px, py), (math.nextafter(px, -np.inf), py),
                                    (math.nextafter(px, np.inf), py),
                                    (px, math.nextafter(py, -np.inf)),
                                    (px, math.nextafter(py, np.inf)))]
                # a lowest point that puts a column and a row edge 1e-6 m
                # to either side of the apex, between a narrow sector's
                # edge and the points just past it
                for shift in (-1e-6, 1e-6):
                    anchor = (ax + shift - 4 * r / 3, ay + shift - 4 * r / 3)
                    check_against_scan(np.array([anchor, *pts]), r, [(ax, ay)], [axis], half)


def test_grid_index_table_stays_linear_in_points_and_groups():
    # r/3 cells over a 2000 m field at r = 1e-3 would number ~3.6e13; cells
    # widen so that the start table stays O(points + groups), also when
    # most groups are empty
    rng = np.random.default_rng(13)
    n, r = 10_000, 1e-3
    pts = rng.uniform(0, 2000, size=(n, 2))
    apexes = [tuple(p) for p in pts[:6] + (4e-4, 3e-4)]  # 5e-4 from a point
    for groups in (np.zeros(n, np.int64), np.where(rng.random(n) < 0.5, 0, 1001)):
        index = GridIndex(pts, r, groups)
        assert len(index.start) <= 6 * (n + int(groups.max()) + 1) + 1
        found = batched_hits(index, apexes, [0.0] * 6, math.pi, groups[:6])
        assert found == [{k} for k in range(6)]


def test_full_field_sector_returns_everything_but_apex():
    side = 1000.0
    rng = np.random.default_rng(9)
    pts = rng.uniform(0, side, size=(300, 2))
    apex_id = 17
    # radius beyond the points' extent
    index = GridIndex(pts, side * math.sqrt(2), np.zeros(300, np.int64))
    got = batched_hits(index, [tuple(pts[apex_id])], [0.0], math.pi)
    assert got == [set(range(300)) - {apex_id}]


def test_empty_index_query():
    index = GridIndex(np.zeros((0, 2)), 100.0, np.zeros(0, np.int64))
    assert batched_hits(index, [(0.0, 0.0), (50.0, 5.0)], [0.0, 1.0], 1.0) == [set(), set()]
    assert batched_hits(index, [], [], 1.0) == []


def test_sector_hits_drop_slots_covered_before_the_query():
    # a candidate whose slot is already covered is dropped untested: the
    # hits are the linear scan's less the covered nodes
    rng = np.random.default_rng(22)
    pts = rng.uniform(0, 1000, size=(500, 2))
    groups = rng.integers(0, 2, size=500)
    index = GridIndex(pts, 150.0, groups)
    covered = rng.random(500) < 0.5
    gone = set(index.order[covered].tolist())
    dropped = kept = 0
    for half in (0.3, 1.2, math.pi):
        apexes = [tuple(a) for a in rng.uniform(0, 1000, size=(60, 2))]
        axes = rng.uniform(0, 2 * math.pi, 60)
        query_groups = rng.integers(0, 2, size=60)
        got = batched_hits(index, apexes, axes, half, query_groups, covered.copy())
        for k, (apex, axis) in enumerate(zip(apexes, axes)):
            s = Sector(apex=Point2D(*apex), axis=axis, half_angle=half, radius=150.0)
            members = set(np.flatnonzero(groups == query_groups[k]).tolist())
            want = scan(pts, s, members)
            assert got[k] == want - gone, (apex, axis, half)
            dropped += len(want & gone)
            kept += len(got[k])
    assert dropped and kept


def test_sector_hits_mark_and_return_each_fresh_slot_once(monkeypatch):
    # 40 overlapping sectors of one flood (shift 0) in chunks of 1000 pairs:
    # the slots come back once each, are the scan's hits less the covered
    # ones, and are left covered
    monkeypatch.setattr(engine, "ROUND_CHUNK", 1000)
    rng = np.random.default_rng(23)
    pts = rng.uniform(0, 600, size=(400, 2))
    index = GridIndex(pts, 200.0, np.zeros(400, np.int64))
    covered = rng.random(400) < 0.3
    before = covered.copy()
    apexes = rng.uniform(100, 500, size=(40, 2))
    axes = rng.uniform(0, 2 * math.pi, 40)
    ux = np.array([math.cos(a) for a in axes])  # the scan's scalar axes
    uy = np.array([math.sin(a) for a in axes])
    half = 1.0
    slots = sector_hits(index, apexes[:, 0], apexes[:, 1], ux, uy, np.zeros(40, np.int64),
                        math.cos(half), np.array([math.cos(half + BOX_SLACK),
                                                  math.sin(half + BOX_SLACK)]),
                        np.zeros(40, np.int64), covered, lambda k: (ux[k], uy[k]))
    want = set().union(*(scan(pts, Sector(apex=Point2D(*a), axis=x, half_angle=half,
                                          radius=200.0))
                         for a, x in zip(apexes, axes)))
    assert len(slots) == len(set(slots.tolist())) > 0
    assert set(index.order[slots].tolist()) == want - set(index.order[before].tolist())
    assert (covered == (before | np.isin(np.arange(400), slots))).all()


def test_sector_hits_return_a_slot_hit_by_many_sectors_once():
    # 60 sectors on a ring of radius 150 m, in one chunk, all aimed at five
    # points near its centre: each sector hits all five, so every slot is
    # hit 60 times and comes back once; the two far points are never hit
    pts = np.array([(500.0, 500.0), (510.0, 500.0), (490.0, 505.0), (500.0, 480.0),
                    (505.0, 515.0), (100.0, 100.0), (900.0, 900.0)])
    index = GridIndex(pts, 200.0, np.zeros(len(pts), np.int64))
    ring = np.linspace(0.0, 2 * math.pi, 60, endpoint=False)
    ux, uy = -np.cos(ring), -np.sin(ring)
    covered = np.zeros(len(pts), bool)
    half = 0.5
    slots = sector_hits(index, 500.0 - 150.0 * ux, 500.0 - 150.0 * uy, ux, uy,
                        np.zeros(60, np.int64), math.cos(half),
                        np.array([math.cos(half + BOX_SLACK), math.sin(half + BOX_SLACK)]),
                        np.zeros(60, np.int64), covered, lambda k: (ux[k], uy[k]))
    assert sorted(index.order[slots].tolist()) == [0, 1, 2, 3, 4]
    assert len(slots) == 5 and covered.sum() == 5


def peak_of_narrow_floods(rng, n, n_nodes):
    """(slots, tracemalloc peak) of one flood_fields call: 22.5-degree floods
    over the first n_nodes[b] rows of one n-node field in a 7,000 m square."""
    floods = len(n_nodes)
    field = rng.uniform(0.0, 7000.0, size=(n, 2))
    d = rng.uniform(1000.0, 3000.0, floods)
    ends = np.array([3500.0 - d / 2, np.full(floods, 3500.0), 3500.0 + d / 2,
                     np.full(floods, 3500.0)])
    args = ([field], np.zeros(floods, np.int64), n_nodes, np.full(floods, math.radians(22.5)),
            ends, 200.0)
    tracemalloc.start()
    try:
        slots = int(engine.flood_fields(*args).offsets[-1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert slots == floods * n
    return slots, peak


def test_flood_fields_slots_cost_one_byte():
    # 400 narrow floods over the first 6,000 or 9,000 rows of one 10,000-node
    # field own 4 M slots: the call's peak stays within 1.25 B a slot, plus
    # 64 B a point for the index and 64 B a pair of ROUND_CHUNK for a
    # chunk's temporaries
    rng = np.random.default_rng(41)
    slots, peak = peak_of_narrow_floods(rng, 10_000, rng.choice([6000, 9000], 400))
    assert peak < 1.25 * slots + 64 * 10_000 + 64 * engine.ROUND_CHUNK


def test_floods_with_many_node_counts_cost_one_byte_a_slot():
    # 1,400 narrow floods over the first 500-2,999 rows of one 3,000-node
    # field, nearly every one with its own n_nodes: the rows past each
    # flood's n start covered, and their masks must not pile up beside the
    # 4.2 M slots (a mask kept per distinct n_nodes is 2.6 B a slot)
    rng = np.random.default_rng(42)
    slots, peak = peak_of_narrow_floods(rng, 3000, rng.integers(500, 3000, 1400))
    assert peak < 1.25 * slots + 64 * 3000 + 64 * engine.ROUND_CHUNK


def cell_keys(pts, groups, index):
    """Each point's cell key, (group, column, row) in the index's cells of
    width index._cell[0] and height index._cell[1] from the points'
    smallest x and y."""
    width, height = index._cell
    cells = ((pts - pts.min(axis=0)) / (width, height)).astype(np.int64)
    cols, rows = cells.max(axis=0) + 1
    return (groups * cols + cells[:, 0]) * rows + cells[:, 1]


def test_grid_index_order_is_the_stable_argsort_of_cell_keys():
    # points tied on a cell keep their row order; the start table counts
    # each cell's points
    rng = np.random.default_rng(23)
    clustered = rng.uniform(0, 30, size=(300, 2))  # a few cells, many points each
    twins = np.repeat(rng.uniform(0, 900, size=(40, 2)), 5, axis=0)  # exact duplicates
    spread = rng.uniform(0, 5000, size=(2000, 2))
    cases = [(clustered, np.zeros(300, np.int64)),
             (clustered, rng.integers(0, 3, 300)),
             (twins, rng.integers(0, 2, 200)),
             (spread[:1], np.zeros(1, np.int64)),
             (spread[:1], np.array([7])),
             (spread, rng.integers(0, 400, 2000)),  # many groups, some empty
             (spread, np.sort(rng.integers(0, 5, 2000)))]
    for pts, groups in cases:
        index = GridIndex(pts, 200.0, groups)
        keys = cell_keys(pts, groups, index)
        width, height = index._cell  # scaled up together where the table bound applies
        assert math.isclose(width / height, engine.CELL[0] / engine.CELL[1], rel_tol=1e-12)
        assert index.order.dtype == np.intp
        assert index.order.tolist() == np.argsort(keys, kind="stable").tolist()
        counts = np.bincount(keys, minlength=len(index.start) - 1)
        assert index.start.tolist() == [0, *np.cumsum(counts).tolist()]
    empty = GridIndex(np.zeros((0, 2)), 200.0, np.zeros(0, np.int64))
    assert empty.order.dtype == np.intp and len(empty.order) == 0
    assert empty.start.tolist() == [0]


def test_aim_vectors_use_scalar_math():
    # np.arctan2 and math.atan2 may disagree in the last bit; the kernel's
    # axes must equal the in_sector oracle's scalar path (atan2, two
    # floating-point mods, then math.cos and math.sin)
    rng = np.random.default_rng(12)
    dx = rng.uniform(-5000, 5000, 20000)
    dy = rng.uniform(-5000, 5000, 20000)
    differ = np.arctan2(dy, dx) != np.array([math.atan2(b, a) for a, b in zip(dx, dy)])
    dx = np.concatenate((dx[differ], dx[:500], [0.0, 0.0, 5.0, -5.0]))
    dy = np.concatenate((dy[differ], dy[:500], [0.0, 5.0, 0.0, 0.0]))
    deltas = rng.uniform(-1.0, 1.0, len(dx))
    ux, uy = aim_vectors(dx, dy, deltas)
    axes = [(math.atan2(b, a) % TWO_PI + e) % TWO_PI for a, b, e in zip(dx, dy, deltas)]
    assert ux.tolist() == [math.cos(a) for a in axes]
    assert uy.tolist() == [math.sin(a) for a in axes]
    # a transmitter on its destination aims at bearing 0, for zero offsets
    # of either sign
    ux, uy = aim_vectors(np.array([0.0, -0.0, 0.0, -0.0]), np.array([0.0, 0.0, -0.0, -0.0]),
                         np.zeros(4))
    assert (ux.tolist(), uy.tolist()) == ([1.0] * 4, [0.0] * 4)


def test_vector_axes_stay_within_near_of_scalar_axes():
    # pairs within NEAR of a sector's edge are decided again with the
    # scalar axes; that is exact only while the vector axes stay far inside
    # NEAR of them, so a numpy with worse trig must fail here, not drift
    rng = np.random.default_rng(12)
    dx = rng.uniform(-5000, 5000, 20000)
    dy = rng.uniform(-5000, 5000, 20000)
    differ = np.arctan2(dy, dx) != np.array([math.atan2(b, a) for a, b in zip(dx, dy)])
    assert differ.sum() > 1000
    rng = np.random.default_rng(14)
    n, k = 100_000, 10_000
    xs, ys = rng.uniform(-3000, 3000, (2, n))
    to_x, to_y = rng.uniform(-3000, 3000, (2, n))
    to_x[:k] = xs[:k]                       # straight up or down
    to_y[k:2 * k] = ys[k:2 * k]             # straight left or right
    to_x[2 * k:3 * k], to_y[2 * k:3 * k] = xs[2 * k:3 * k], ys[2 * k:3 * k]  # coincident
    # straight left, on both sides of the +-pi branch cut
    to_x[3 * k:4 * k] = xs[3 * k:4 * k] - rng.uniform(1e-9, 3000, k)
    ys[3 * k:4 * k] = 0.0
    to_y[3 * k:4 * k] = rng.choice([-1e-300, -0.0, 0.0, 1e-300], k)
    xs[:50], ys[:50], to_x[:50], to_y[:50] = 0.0, 0.0, -0.0, -0.0  # coincident, signed zeros
    deltas = rng.uniform(-math.pi, math.pi, n)
    deltas[4 * k:5 * k] = rng.choice([-math.pi, math.pi, math.nextafter(math.pi, 0.0),
                                      math.nextafter(-math.pi, 0.0)], k)
    deltas[5 * k:6 * k] = rng.choice([-1.0, 1.0], k) * rng.uniform(math.pi - 1e-6, math.pi, k)
    pinned = np.zeros(int(differ.sum()))    # the pairs where np.arctan2 is not libm's
    xs, ys = np.concatenate((pinned, xs)), np.concatenate((pinned, ys))
    to_x, to_y = np.concatenate((dx[differ], to_x)), np.concatenate((dy[differ], to_y))
    deltas = np.concatenate((pinned, deltas))
    ux, uy = aim_vectors(to_x - xs, to_y - ys, deltas)
    vx, vy = engine._vector_axes(to_x - xs, to_y - ys, deltas)
    assert max(np.abs(vx - ux).max(), np.abs(vy - uy).max()) <= NEAR / 1000


def edge_ray_scenes():
    """Scenes whose nodes lie on both edge rays of the source's sector, with
    destinations at exactly r and, under an aiming error of a half-angle,
    on an edge ray."""
    scenes = []
    for apex in ((0.0, 0.0), (1000.3, 777.7)):
        for theta_deg in (10.0, 60.0, 90.0, 120.0):
            half = math.radians(theta_deg) / 2.0
            for dest in ((200.0, 0.0), (120.0, 160.0), (-120.0, -160.0), (0.0, 500.0)):
                for err in (0.0, half, -half):
                    bearing = math.atan2(dest[1], dest[0]) % TWO_PI
                    nodes = [(apex[0] + rho * math.cos(bearing + err + side * half),
                              apex[1] + rho * math.sin(bearing + err + side * half))
                             for side in (-1.0, 1.0) for rho in np.linspace(10.0, 200.0, 12)]
                    dest_at = (apex[0] + dest[0], apex[1] + dest[1])
                    # eps only marks the flood as aimed: fixed_aim hands out err
                    s = make_scenario(nodes, apex, dest_at, theta_deg=theta_deg, eps_deg=180.0)
                    scenes.append((s, fixed_aim(s, err)))
    return scenes


def test_pairs_near_a_sector_edge_are_decided_with_scalar_axes(monkeypatch):
    # vector axes turned by +-1e-12 rad put the nodes on the edge rays on
    # the wrong side of them; the scalar re-decision must undo every flip
    scenes = edge_ray_scenes()
    wants = [flood_each([s], [aim]).outcome(0) for s, aim in scenes]
    for want, (s, aim) in zip(wants, scenes):
        oracle = brute_force_flood(s, aim)
        assert (want.success, want.implicated, want.covered, want.per_round_transmitters) == (
            oracle["success"], oracle["implicated"], oracle["covered"],
            oracle["per_round_transmitters"])
    vector_axes = engine._vector_axes
    for turn in (1e-12, -1e-12):
        def turned(dx, dy, deltas, turn=turn):
            ux, uy = vector_axes(dx, dy, deltas)
            return ux - turn * uy, uy + turn * ux
        monkeypatch.setattr(engine, "_vector_axes", turned)
        batch = flood_each([s for s, _ in scenes], [aim for _, aim in scenes])
        for b, (want, (s, aim)) in enumerate(zip(wants, scenes)):
            assert batch.outcome(b) == want == flood_each([s], [aim]).outcome(0), (turn, b)
    assert {w.success for w in wants} == {True, False}


def test_batch_slots_follow_the_index_order():
    # covered holds each flood's slots in the index's sort order; outcome(b)
    # must map them back to node ids for fields of any size, an empty one,
    # and floods that share a field
    base = ScenarioConfig(square_side=900.0, radius=180.0, theta_deg=100.0,
                          d=500.0)
    fields = [generate(replace(base, n_nodes=n, seed=20 + n)).nodes for n in (150, 0, 40, 300)]
    scenarios = []
    for k, nodes in enumerate(fields):
        for theta_deg in ((80.0, 200.0) if k == 3 else (120.0,)):  # two floods share field 3
            cfg = replace(base, n_nodes=len(nodes), theta_deg=theta_deg, seed=k)
            scenarios.append(Scenario(nodes, *endpoint_positions(cfg), cfg))
    batch = flood_each(scenarios)
    assert len(batch.offsets) == len(scenarios) + 1
    for b, scenario in enumerate(scenarios):
        want = brute_force_flood(scenario)
        got = batch.outcome(b)
        lo, hi = batch.offsets[b], batch.offsets[b + 1]
        assert hi - lo == len(scenario.nodes)
        assert int(batch.covered[lo:hi].sum()) == len(got.covered - {len(scenario.nodes)})
        assert (got.success, got.first_delivery_hop, got.implicated, got.covered, got.rounds,
                got.per_round_transmitters) == (
            want["success"], want["first_delivery_hop"], want["implicated"], want["covered"],
            want["rounds"], want["per_round_transmitters"]), b
    assert {len(batch.outcome(b).covered) > 0 for b in range(len(scenarios))} == {True, False}


def test_leaf_confinement_inflated_by_radius():
    # implicated nodes stay within the chain polygon fattened by one radius
    cfg = ScenarioConfig(square_side=4000.0, n_nodes=3000, radius=200.0,
                         theta_deg=90.0, d=1000.0, seed=77)
    scenario = generate(cfg)
    out = propagate(scenario)
    verts = build_leaf(cfg.d, cfg.radius, cfg.theta).vertices
    src, dst = scenario.source, scenario.destination
    ux, uy = (src.x - dst.x) / cfg.d, (src.y - dst.y) / cfg.d
    vx, vy = -uy, ux
    poly = [(dst.x + px * ux + py * vx, dst.y + px * uy + py * vy)
            for px, py in verts]
    poly += [(dst.x, dst.y)]
    poly += [(dst.x + px * ux - py * vx, dst.y + px * uy - py * vy)
             for px, py in reversed(verts[1:])]

    def dist_to_segment(p, a, b):
        apx, apy = p[0] - a[0], p[1] - a[1]
        abx, aby = b[0] - a[0], b[1] - a[1]
        denom = abx * abx + aby * aby
        t = 0.0 if denom == 0 else max(0.0, min(1.0, (apx * abx + apy * aby) / denom))
        return math.hypot(p[0] - (a[0] + t * abx), p[1] - (a[1] + t * aby))

    def inside_or_near(p):
        # ray cast for containment, else distance to the boundary
        inside = False
        j = len(poly) - 1
        for i in range(len(poly)):
            xi, yi = poly[i]
            xj, yj = poly[j]
            if (yi > p[1]) != (yj > p[1]):
                x_cross = xi + (p[1] - yi) * (xj - xi) / (yj - yi)
                if p[0] < x_cross:
                    inside = not inside
            j = i
        if inside:
            return True
        edge_dist = min(dist_to_segment(p, poly[i], poly[(i + 1) % len(poly)])
                        for i in range(len(poly)))
        return edge_dist <= cfg.radius + 1e-6

    for i in sorted(out.implicated - {SOURCE_ID}):
        assert inside_or_near(tuple(scenario.nodes[i])), i


def test_direction_error_is_actually_consumed():
    # node at 17.5 deg off-axis, just inside range: covered only when the
    # drawn aiming error tilts the 30-degree beam toward it
    s = make_scenario([(190.0, 60.0)], (0.0, 0.0), (600.0, 0.0),
                      theta_deg=30.0, eps_deg=60.0)
    eps = s.config.direction_error_bound
    hits = set()
    for k in range(40):
        out = flood_each([s], [np.random.default_rng(k).uniform(-eps, eps, 2)]).outcome(0)
        hits.add(0 in out.covered)
    assert hits == {True, False}


def test_flood_fields_rejects_short_aiming_draws():
    # errors[g] needs a draw for the source and one per row of field g: a
    # short array would aim field 0's last row with field 1's first draw,
    # and run off the end of the last field's draws
    nodes = generate(ScenarioConfig(square_side=1500.0, radius=250.0, n_nodes=90, seed=3)).nodes
    ends = np.tile([[100.0], [750.0], [1400.0], [750.0]], 2)
    for errors in ([np.zeros(90), np.zeros(91)], [np.zeros(91), np.zeros(90)], [np.zeros(91)],
                   [np.zeros(91)] * 3):
        with pytest.raises(ValueError, match="errors"):
            engine.flood_fields([nodes, nodes], [0, 1], [90, 90], [1.0, 1.0], ends, 250.0, errors)


def test_longer_aiming_draws_aim_as_exact_ones():
    # the aiming stream is prefix-stable, so draws past a field's last row
    # go unread: floods over the first 45 rows and all 90 rows of a fixed
    # field, and over a Poisson field behind it, aim as with exact arrays
    # and as each flood does alone
    base = ScenarioConfig(square_side=1500.0, radius=250.0, n_nodes=90, direction_error_deg=20.0)
    fields, scenarios, field_of = [], [], []
    for g, (seed, placement, views) in enumerate(((3, Placement.FIXED_COUNT, (45, 90)),
                                                  (4, Placement.POISSON_COUNT, (None,)))):
        cfg = replace(base, seed=seed, placement=placement)
        fields.append(generate(cfg).nodes)
        for n in views:
            n = len(fields[g]) if n is None else n
            scenarios += shared_field(replace(cfg, n_nodes=n), (45.0, 135.0), (600.0, 1200.0),
                                      fields[g][:n])
            field_of += [g] * 4
    eps = base.direction_error_bound
    exact = [engine.aim_errors(seed, eps, len(f) + 1) for seed, f in zip((3, 4), fields)]
    longer = [engine.aim_errors(seed, eps, len(f) + extra)
              for seed, f, extra in zip((3, 4), fields, (60, 2))]
    want, got = (flood_views(scenarios, fields, field_of, e) for e in (exact, longer))
    for b, scenario in enumerate(scenarios):
        alone = propagate(replace(scenario, nodes=scenario.nodes.copy()))
        assert got.outcome(b) == want.outcome(b) == alone, b


def test_flood_fields_rejects_node_counts_outside_the_field():
    # flood b runs over the first n_nodes[b] rows of its field: a count past
    # the field's rows would report a row's id as the destination, and a
    # negative one would cover every slot before round 0 and flood nothing
    nodes = generate(ScenarioConfig(square_side=1500.0, radius=250.0, n_nodes=90, seed=3)).nodes
    ends = np.tile([[100.0], [750.0], [1400.0], [750.0]], 2)
    for n_nodes in ([120, 90], [91, 90], [-5, 90], [0, -1]):
        with pytest.raises(ValueError, match="n_nodes"):
            engine.flood_fields([nodes], [0, 0], n_nodes, [1.0, 1.0], ends, 250.0)
    batch = engine.flood_fields([nodes], [0, 0], [0, 90], [1.0, 1.0], ends, 250.0)
    assert batch.outcome(0).implicated == {SOURCE_ID}
    alone = propagate(make_scenario(nodes, (100.0, 750.0), (1400.0, 750.0), side=1500.0,
                                    radius=250.0, theta_deg=math.degrees(1.0)))
    assert batch.outcome(1) == alone
    assert len(alone.implicated) > 1


def test_flood_fields_rejects_per_flood_lengths_that_differ():
    # every per-flood argument holds one entry a flood and field_of indexes
    # fields: a short n_nodes would flood and then fail in outcome(1), an
    # extra theta would go unread, and field_of -1 would flood the last field
    nodes = generate(ScenarioConfig(square_side=1500.0, radius=250.0, n_nodes=90, seed=3)).nodes
    ends = np.tile([[100.0], [750.0], [1400.0], [750.0]], 2)
    good = dict(field_of=[0, 0], n_nodes=[90, 90], theta=[1.0, 1.0], ends=ends)
    for bad in (dict(n_nodes=[90]), dict(theta=[1.0, 1.0, 1.0]), dict(field_of=[0]),
                dict(ends=ends[:, :1]), dict(ends=ends[:3]), dict(field_of=[0, 1]),
                dict(field_of=[0, -1]),
                dict(field_of=[], n_nodes=[], theta=[], ends=np.zeros((4, 0)))):
        with pytest.raises(ValueError, match="field_of"):
            engine.flood_fields([nodes], radius=250.0, **{**good, **bad})
    engine.flood_fields([nodes], radius=250.0, **good)


def test_coincident_endpoints_deliver_only_through_relays():
    # at d = 0 the source cannot cover its own position (q = 0 fails the
    # sector test), so no flood delivers at hop 1; a relay aims back at that
    # position and can deliver it from hop 2 on
    base = ScenarioConfig(d=0.0)  # the default 4000 m field of 2000 nodes
    hops = [propagate(generate(replace(base, seed=seed, theta_deg=theta_deg))).first_delivery_hop
            for seed in range(4) for theta_deg in (22.5, 90.0, 360.0)]
    assert 1 not in hops
    assert propagate(generate(base)).first_delivery_hop == 2


def test_coincident_endpoints_fail_gracefully():
    # d = 0 puts the destination on top of the source; the apex
    # exclusion keeps the source from covering it, the source's sector holds
    # no node of this sparse field to relay back to it, and the flood must
    # still terminate
    cfg = ScenarioConfig(square_side=1000.0, n_nodes=20, radius=200.0,
                         theta_deg=90.0, d=0.0, seed=3)
    out = propagate(generate(cfg))
    assert not out.success
    assert out.rounds >= 1


@pytest.mark.parametrize("side", [1e-100, 1e100])
def test_floods_at_the_field_side_bounds_match_a_1000_m_field(side):
    # squared coordinate differences stay normal floats at both bounds, so a
    # field scaled from 1000 m to either bound floods the same nodes
    def flood(side):
        k = side / 1000.0
        return propagate(generate(ScenarioConfig(square_side=side, n_nodes=300, radius=200.0 * k,
                                                 theta_deg=90.0, d=500.0 * k,
                                                 seed=3)))
    want = flood(1000.0)
    assert want.success and len(want.implicated) == 64
    assert flood(side) == want
