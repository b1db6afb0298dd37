"""Triangle-chain model: recurrence, areas, totals, error metric."""

import math

import numpy as np
import pytest

from sectorcast import leafmodel
from sectorcast.leafmodel import DegenerateLeafError, build_leaf, predicted_ratio, relative_error

from oracles import chain_oracle, next_edge, shoelace, triangle_area

DEG60 = math.radians(60.0)

# Frozen from the scripted recurrence oracle (chain_oracle) run before the
# build: d = 1000 m, r = 200 m, theta = 60 degrees.
ORACLE_D_SEQ_60 = (
    1000.0,
    832.8204119053667,
    667.1524451623612,
    503.9682517809169,
    345.549237165807,
    199.25488262098378,
)
ORACLE_TOTAL_60 = 254874.5228635435


def test_next_edge_example_60deg():
    assert next_edge(1000.0, 200.0, DEG60) == pytest.approx(832.8204119053667, rel=1e-12)


def test_next_edge_fixed_point_is_identity():
    for theta_deg in (30.0, 60.0, 90.0, 119.0):
        theta = math.radians(theta_deg)
        r = 200.0
        fp = r / (2.0 * math.cos(theta / 2.0))
        assert next_edge(fp, r, theta) == pytest.approx(fp, rel=1e-12)


def test_next_edge_example_180deg():
    # cos(90 deg) = 0: sqrt(1_040_000)
    assert next_edge(1000.0, 200.0, math.radians(180.0)) == pytest.approx(
        1019.803902718557, rel=1e-12)


@pytest.mark.parametrize("bad", [
    dict(d_prev=0.0, r=200.0, theta=DEG60),
    dict(d_prev=-5.0, r=200.0, theta=DEG60),
    dict(d_prev=100.0, r=0.0, theta=DEG60),
    dict(d_prev=100.0, r=200.0, theta=0.0),
    dict(d_prev=100.0, r=200.0, theta=2 * math.pi),
])
def test_next_edge_domain_errors(bad):
    with pytest.raises(ValueError):
        next_edge(bad["d_prev"], bad["r"], bad["theta"])


def test_triangle_area_examples():
    assert triangle_area(1000.0, 200.0, DEG60) == pytest.approx(50_000.0, rel=1e-12)
    assert triangle_area(1000.0, 200.0, math.radians(180.0)) == pytest.approx(
        100_000.0, rel=1e-12)
    assert triangle_area(1000.0, 200.0, 1e-9) < 1e-3  # thin-beam limit


def test_triangle_area_monotone_in_edge_and_radius():
    a = triangle_area(500.0, 200.0, DEG60)
    assert triangle_area(600.0, 200.0, DEG60) > a
    assert triangle_area(500.0, 250.0, DEG60) > a


def test_triangle_area_domain_errors():
    with pytest.raises(ValueError):
        triangle_area(-1.0, 200.0, DEG60)
    with pytest.raises(ValueError):
        triangle_area(100.0, 200.0, 7.0)


def test_build_leaf_steps_are_the_formula_helpers_bit_for_bit():
    # build_leaf inlines next_edge and triangle_area: a chain of the helpers'
    # own calls, under build_leaf's stopping rule, gives its exact floats
    rng = np.random.default_rng(21)
    for _ in range(300):
        r = float(rng.uniform(1.0, 500.0))
        d = r * float(rng.uniform(1.001, 50.0))
        theta = float(rng.uniform(1e-3, 2.0 * math.pi - 1e-3))
        seq = [d]
        for _ in range(leafmodel.MAX_TRIANGLES):
            seq.append(next_edge(seq[-1], r, theta))
            if (seq[-1] <= r or seq[-1] >= seq[-2]
                    or seq[-2] - seq[-1] < leafmodel.CONVERGENCE_FACTOR * r):
                break
        model = build_leaf(d, r, theta)
        assert model.d_seq == tuple(seq), (d, r, theta)
        assert model.areas == tuple(triangle_area(v, r, theta) for v in seq[1:]), (d, r, theta)


def test_build_leaf_matches_frozen_oracle():
    model = build_leaf(1000.0, 200.0, DEG60)
    assert model.n_triangles == 5
    assert not model.non_terminating
    assert model.d_seq == pytest.approx(ORACLE_D_SEQ_60, rel=1e-9)
    assert model.d_seq[-1] <= 200.0  # stops once within one hop
    assert model.total_area == pytest.approx(ORACLE_TOTAL_60, rel=1e-9)
    # areas carry the outgoing edge of each triangle
    for i, area in enumerate(model.areas):
        assert area == pytest.approx(
            0.5 * 200.0 * model.d_seq[i + 1] * math.sin(DEG60 / 2), rel=1e-12)
    assert model.total_area == pytest.approx(2.0 * sum(model.areas), rel=1e-12)


def test_build_leaf_degenerate_when_d_at_most_r():
    with pytest.raises(DegenerateLeafError):
        build_leaf(150.0, 200.0, DEG60)
    with pytest.raises(DegenerateLeafError):
        build_leaf(200.0, 200.0, DEG60)


def test_build_leaf_thin_beam_area_vanishes():
    model = build_leaf(1000.0, 200.0, 1e-7)
    assert model.total_area < 1e-1


def test_build_leaf_flags_only_beyond_120deg():
    # at 135 degrees the fixed point r/(2 cos 67.5) ~ 261 m > r: flagged
    assert build_leaf(1000.0, 200.0, math.radians(135.0)).non_terminating
    # at exactly 120 the fixed point equals r: truncated but not flagged
    m120 = build_leaf(1000.0, 200.0, math.radians(120.0))
    assert not m120.non_terminating
    assert m120.d_seq[-1] > 200.0  # converged above r rather than crossing it
    # comfortably contracting chains never flag
    assert not build_leaf(1000.0, 200.0, math.radians(112.5)).non_terminating


def test_build_leaf_wide_angles_terminate():
    # cos(theta/2) <= 0 gives a growing sequence; must stop and flag
    model = build_leaf(1000.0, 200.0, math.radians(200.0))
    assert model.non_terminating
    assert model.n_triangles >= 1


def test_build_leaf_raises_past_max_triangles(monkeypatch):
    # the 60 deg chain has 5 triangles: at the bound it builds, past it not
    monkeypatch.setattr(leafmodel, "MAX_TRIANGLES", 5)
    assert build_leaf(1000.0, 200.0, DEG60).n_triangles == 5
    monkeypatch.setattr(leafmodel, "MAX_TRIANGLES", 4)
    with pytest.raises(ValueError, match="MAX_TRIANGLES = 4 triangles"):
        build_leaf(1000.0, 200.0, DEG60)
    # a stalled chain counts its triangles too
    monkeypatch.setattr(leafmodel, "MAX_TRIANGLES", 2)
    with pytest.raises(ValueError):
        build_leaf(1000.0, 200.0, math.radians(135.0))


def test_d_seq_strictly_decreasing_above_fixed_point():
    rng = np.random.default_rng(5)
    for _ in range(100):
        r = rng.uniform(50, 400)
        theta = math.radians(rng.uniform(5, 119))
        d = rng.uniform(r * 1.5, r * 20)
        model = build_leaf(d, r, theta)
        fp = r / (2.0 * math.cos(theta / 2.0))
        diffs = np.diff(model.d_seq)
        assert np.all(diffs < 0)
        # every edge before the stopping one sits above r, hence above the
        # fixed point; only the final step may drop below it
        assert all(v > fp - 1e-9 * r for v in model.d_seq[:-1])


def test_scale_covariance():
    rng = np.random.default_rng(17)
    for _ in range(50):
        r = rng.uniform(50, 300)
        theta = math.radians(rng.uniform(10, 115))
        d = rng.uniform(r * 1.2, r * 10)
        k = rng.uniform(0.2, 8.0)
        a = build_leaf(d, r, theta)
        b = build_leaf(k * d, k * r, theta)
        assert b.n_triangles == a.n_triangles
        for da, db in zip(a.d_seq, b.d_seq):
            assert db == pytest.approx(k * da, rel=1e-9)
        assert b.total_area == pytest.approx(k * k * a.total_area, rel=1e-9)


def test_matches_scripted_oracle_on_random_triples():
    rng = np.random.default_rng(29)
    for _ in range(50):
        r = rng.uniform(50, 400)
        theta = math.radians(rng.uniform(5, 119.5))
        d = rng.uniform(r * 1.1, r * 15)
        seq, areas, total = chain_oracle(d, r, theta)
        model = build_leaf(d, r, theta)
        assert model.d_seq == pytest.approx(seq, rel=1e-9)
        assert model.areas == pytest.approx(areas, rel=1e-9)
        assert model.total_area == pytest.approx(total, rel=1e-9)


def test_areas_match_shoelace_reconstruction():
    rng = np.random.default_rng(37)
    for _ in range(50):
        r = rng.uniform(50, 400)
        theta = math.radians(rng.uniform(10, 119))
        d = rng.uniform(r * 1.2, r * 12)
        model = build_leaf(d, r, theta)
        verts = model.vertices
        assert len(verts) == len(model.d_seq)
        dest = (0.0, 0.0)
        # vertex radii reproduce the edge sequence
        for v, dv in zip(verts, model.d_seq):
            assert math.hypot(*v) == pytest.approx(dv, rel=1e-9)
        # triangle (dest, V_{k-1}, V_k) has area 0.5 r d_{k-1} sin(theta/2)
        for k in range(1, len(verts)):
            expect = 0.5 * r * model.d_seq[k - 1] * math.sin(theta / 2.0)
            assert shoelace(dest, verts[k - 1], verts[k]) == pytest.approx(expect, rel=1e-6)
        # hence the stored out-edge areas are the shoelace areas shifted by one
        for i in range(model.n_triangles - 1):
            assert model.areas[i] == pytest.approx(
                shoelace(dest, verts[i + 1], verts[i + 2]), rel=1e-6)


@pytest.mark.parametrize("theta_deg, n_triangles, turn_deg, model_over_drawn", [
    (45.0, 5, 74.45823325254747, 0.7274485556277552),
    (90.0, 7, 148.02324615444118, 0.8170890112137537),
    (112.5, 12, 344.5817493142489, 0.8754437918928899),
    (120.0, 31, 1403.4821797805898, 0.927272735532951),
])
def test_chain_geometry_at_the_criterion_1_angles(theta_deg, n_triangles, turn_deg,
                                                  model_over_drawn):
    # d = 1000 m, r = 200 m: how far each half of the chain turns around the
    # destination (past 180 degrees the two halves overlap) and how the
    # model's total_area compares with the area of the chain as drawn
    model = build_leaf(1000.0, 200.0, math.radians(theta_deg))
    pairs = list(zip(model.vertices, model.vertices[1:]))
    turn = sum(math.atan2(ax * by - ay * bx, ax * bx + ay * by) for (ax, ay), (bx, by) in pairs)
    drawn = 2.0 * sum(shoelace(a, b, (0.0, 0.0)) for a, b in pairs)
    assert model.n_triangles == n_triangles
    assert math.degrees(turn) == pytest.approx(turn_deg, rel=1e-9)
    assert model.total_area / drawn == pytest.approx(model_over_drawn, rel=1e-9)


def test_predicted_ratio_examples():
    model = build_leaf(1000.0, 200.0, DEG60)
    assert predicted_ratio(model, 4000.0) == pytest.approx(
        ORACLE_TOTAL_60 / 16e6, rel=1e-12)
    # clamped to 1 when the leaf dwarfs the field
    assert predicted_ratio(model, 100.0) == 1.0
    with pytest.raises(ValueError):
        predicted_ratio(model, 0.0)


def test_relative_error_examples():
    assert relative_error(0.10, 0.10) == 0.0
    assert relative_error(0.11, 0.10) == pytest.approx(0.10, rel=1e-9)
    assert relative_error(0.09, 0.10) == pytest.approx(-0.10, rel=1e-9)
    with pytest.raises(ValueError):
        relative_error(0.1, 0.0)
