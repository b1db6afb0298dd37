"""Scenario generation: placement, determinism, validation."""

import math
from dataclasses import replace

import numpy as np
import pytest

from sectorcast.scenario import (
    MAX_NODES,
    ConfigError,
    Placement,
    ScenarioConfig,
    derive_seed,
    endpoint_positions,
    generate,
)


def make_config(**kw):
    defaults = dict(square_side=4000.0, n_nodes=2000, radius=200.0,
                    theta=math.radians(90.0), sd_distance=1000.0, seed=42)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


@pytest.mark.parametrize("kw", [
    dict(square_side=0.0),
    dict(square_side=-10.0),
    dict(n_nodes=-1),
    dict(radius=0.0),
    dict(theta=0.0),
    dict(theta=2 * math.pi + 0.1),
    dict(sd_distance=-1.0),
    dict(sd_distance=4001.0),
    dict(seed=-1),
    dict(seed=2**64),
    dict(direction_error_bound=-0.1),
    dict(direction_error_bound=math.pi + 0.1),
    dict(n_nodes=MAX_NODES + 1),
    dict(square_side=1e160, radius=2e159, sd_distance=5e159),  # squares overflow
    dict(square_side=1e-200, radius=2e-201, sd_distance=5e-201),  # squares underflow
    dict(square_side=1.0, radius=0.1, sd_distance=1e-17),  # endpoints round to one point
])
def test_config_validation(kw):
    with pytest.raises(ConfigError):
        make_config(**kw)


def test_endpoint_placement_rule():
    src, dst = endpoint_positions(make_config(square_side=4000.0, sd_distance=1000.0))
    assert (src.x, src.y) == (1500.0, 2000.0)
    assert (dst.x, dst.y) == (2500.0, 2000.0)


def test_generate_empty_field():
    s = generate(make_config(n_nodes=0))
    assert s.nodes.shape == (0, 2)
    assert (s.source.x, s.source.y) == (1500.0, 2000.0)


def test_generate_endpoint_distance_exact():
    s = generate(make_config(sd_distance=1234.0))
    assert math.hypot(s.destination.x - s.source.x,
                      s.destination.y - s.source.y) == pytest.approx(1234.0, abs=1e-9)


def test_generate_is_deterministic():
    cfg = make_config(seed=7)
    a = generate(cfg)
    b = generate(cfg)
    assert np.array_equal(a.nodes, b.nodes)


def test_generate_nodes_inside_square():
    s = generate(make_config(n_nodes=5000, seed=3))
    assert np.all(s.nodes >= 0.0)
    assert np.all(s.nodes <= 4000.0)


def test_nodes_are_read_only():
    s = generate(make_config(seed=1))
    with pytest.raises(ValueError):
        s.nodes[0, 0] = 0.0


def test_adjacent_seeds_share_no_positions():
    a = generate(make_config(seed=100, n_nodes=3000))
    b = generate(make_config(seed=101, n_nodes=3000))
    shared = set(map(tuple, a.nodes)) & set(map(tuple, b.nodes))
    assert not shared


def test_uniformity_quadrant_counts():
    n = 100_000
    s = generate(make_config(n_nodes=n, seed=1234))
    half = 2000.0
    counts = [
        int(np.sum((s.nodes[:, 0] < half) & (s.nodes[:, 1] < half))),
        int(np.sum((s.nodes[:, 0] >= half) & (s.nodes[:, 1] < half))),
        int(np.sum((s.nodes[:, 0] < half) & (s.nodes[:, 1] >= half))),
        int(np.sum((s.nodes[:, 0] >= half) & (s.nodes[:, 1] >= half))),
    ]
    sigma = math.sqrt(n * 0.25 * 0.75)
    assert sum(counts) == n
    for c in counts:
        assert abs(c - n / 4) < 5 * sigma


def test_poisson_count_placement():
    cfg = make_config(n_nodes=2000, placement=Placement.POISSON_COUNT, seed=9)
    counts = {len(generate(replace(cfg, seed=s)).nodes) for s in range(30)}
    assert len(counts) > 1  # the count actually varies
    mean = np.mean([len(generate(replace(cfg, seed=s)).nodes) for s in range(30)])
    assert abs(mean - 2000) < 5 * math.sqrt(2000 / 30)


def test_fixed_count_placement_is_exact():
    for seed in range(5):
        assert len(generate(make_config(n_nodes=137, seed=seed)).nodes) == 137


def test_derive_seed_is_stable_and_spreads():
    assert derive_seed(42, 0) == derive_seed(42, 0)
    trials = [derive_seed(42, t) for t in range(100)]
    assert len(set(trials)) == 100
    assert all(0 <= s < 2**64 for s in trials)
    assert derive_seed(42, 0) != derive_seed(43, 0)


def test_fixed_fields_are_prefixes_of_larger_fields():
    # sweeps flood the first N rows of each trial's field at their largest N
    for t in range(400):
        seed = derive_seed(7, t)
        big = generate(make_config(n_nodes=3000, seed=seed)).nodes
        for n in (0, 1, 999, 1000, 2000):
            assert generate(make_config(n_nodes=n, seed=seed)).nodes.tobytes() == big[:n].tobytes()


def test_poisson_fields_are_not_always_prefixes():
    # rng.poisson consumes a share of the stream that depends on the mean,
    # so sweeps draw each Poisson N's field on its own
    seed = derive_seed(3, 0)
    small, big = (generate(make_config(n_nodes=n, seed=seed,
                                       placement=Placement.POISSON_COUNT)).nodes for n in (30, 60))
    assert len(small) <= len(big)
    assert small.tobytes() != big[:len(small)].tobytes()
