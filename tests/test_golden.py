"""Golden digests: pinned sha256 of short CLI outputs and of a flood corpus.

Rerun equality (criterion 8) cannot notice a refactor that changes every
number consistently; these pins can.  Each case writes one output file
through ``cli.main`` and compares its sha256 with the digest recorded when
the case was added.  The CLI pins hash aggregates, so the flood corpus
pins single floods: every outcome of a seeded set of batches, in node
order, through engine.flood_fields with a field per scenario and with
shared fields.  A deliberate output change must update the pin and say
why in CHANGES.md.

The pins hold on x86-64 Linux with CPython 3.11 and numpy 2.x; another libm
may round a transcendental differently and change the last digit of a float.
"""

import hashlib
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sectorcast import cli, engine
from sectorcast.scenario import Placement, Scenario, ScenarioConfig, endpoint_positions, generate

from oracles import flood_each, flood_views

SMALL = ["--set", "square_side=1500", "--set", "n_nodes=100", "--set", "radius=200",
         "--set", "d=600", "--seed", "11"]
GRID = ["--set", "sweep.theta_deg=45, 90, 135", "--set", "sweep.n_nodes=100, 200",
        "--set", "sweep.d=600"]
# 2 theta (one 360 deg) x 2 N x 3 d (one <= r): each trial's field serves
# the six (theta, d) cells of its N
SHARED = ["--set", "sweep.n_nodes=100, 200"]
SAMPLE_CFG = str(Path(__file__).resolve().parent.parent / "sample.cfg")

# name -> (argv without --out, sha256 of the written file)
GOLDEN = {
    # 12 trials: (135 deg, N 100) has 5 successes and takes the normal
    # approximation; the other cells have 1-4 or 10-11 (Clopper-Pearson path).
    "sweep.csv": (["sweep", *SMALL, *GRID, "--set", "sweep.trials=12"],
                  "f40229af6e70aaf87f0908d9b8fdefabbbefa827c396b317b934b6b2e74cace6"),
    "sweep-poisson-2w.csv": (["sweep", *SMALL, *GRID, "--set", "sweep.trials=6",
                              "--set", "placement=poisson",
                              "--set", "direction_error_deg=10", "--workers", "2"],
                             "fa7c1b36ad5338af218815818776a9ec7e51520725db7bdb8212f5032b7fc315"),
    "sweep-shared-fields.csv": (["sweep", *SMALL, *SHARED, "--set", "sweep.theta_deg=90, 360",
                                 "--set", "sweep.d=150, 600, 1000", "--set", "sweep.trials=8"],
                                "94323f5bb6fb90edbf390bc97b87e4f27fdaa9da94d4856bbec98291d33ad01c"),
    "sweep-shared-fields-poisson-2w.csv": (
        ["sweep", *SMALL, *SHARED, "--set", "sweep.theta_deg=45, 360",
         "--set", "sweep.d=200, 600, 1200", "--set", "sweep.trials=6",
         "--set", "placement=poisson", "--set", "direction_error_deg=10", "--workers", "2"],
        "de9cc06be3dfa5a00bb4b194213e8c3d0ffeaad3f70afe71633174cf53c28199"),
    # benchmark scale: N 1000-3000 in a 4000 m field, theta up to 135 deg,
    # d 1000-3000, where index cells and query boxes matter
    "sweep-sample-cfg.csv": (["sweep", "--config", SAMPLE_CFG, "--set", "sweep.trials=50"],
                             "54f0a78cb838df98e26759dc0674ab4385fb062d60e6b0b6c28eb4ba59f68893"),
    "compare.csv": (["compare", *SMALL, "--set", "sweep.theta_deg=60, 120",
                     "--set", "sweep.n_nodes=80", "--set", "sweep.trials=5"],
                    "abc033cfd43b04d022d835c0e2152d2d945244e0fa08e4c64c4e61c52808c296"),
    "simulate.json": (["simulate", *SMALL, "--set", "n_nodes=300",
                       "--set", "direction_error_deg=10"],
                      "bcf5a0bae8de2a42e7355fd21ea30bbcf4a0e63b36fbc918f1a0d9295e5cbd39"),
    "snapshot.svg": (["snapshot", *SMALL, "--set", "n_nodes=300", "--set", "theta_deg=120"],
                     "4d191bfa942cf042dfc63136d2246998c98d4a6829de508aa8909cede443f883"),
    "model-terminating.txt": (["model", "--set", "theta_deg=90", "--set", "d=1000"],
                              "c106c143357b1e1affca0158ba28d290b2c1e8c2ae6817efc6dceea5f587b78d"),
    "model-non-terminating.txt": (["model", "--set", "theta_deg=135", "--set", "d=1000"],
                                  "90453c4e1c1ad1eda667c6399e2019bd89c469b34209c417384f73c3f48b8b58"),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_output_digest(name, tmp_path, capsys):
    argv, digest = GOLDEN[name]
    out = tmp_path / name
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def corpus_batches(count, seed):
    """count seeded batches of (scenarios, fields, field of each scenario).
    Each batch shares a field side, radius, placement, aiming error (0, 0.17
    or 0.8 rad) and 1-6 theta values (1-360 deg), over 1-2 fields of 0-1500
    nodes, each flooded whole and as a view of its first half, from one d
    (0 to the side) per view.  The radius gives the largest field 1-12
    neighbours a node on average, so floods range from dying at once to
    covering the field."""
    rng = np.random.default_rng(seed)
    placements = (Placement.FIXED_COUNT, Placement.POISSON_COUNT)
    for _ in range(count):
        side = float(rng.uniform(500.0, 3000.0))
        sizes = [int(rng.integers(0, 1501 if rng.random() > 0.1 else 3))
                 for _ in range(rng.integers(1, 3))]
        degree = float(rng.uniform(1.0, 12.0))
        radius = min(side, side * math.sqrt(degree / (math.pi * max(50, *sizes))))
        base = ScenarioConfig(square_side=side, d=0.0, radius=radius,
                              placement=placements[rng.integers(2)],
                              direction_error_deg=float(
                                  rng.choice([0.0, math.degrees(0.17), 45.83662361046586])))
        thetas = [float(t) for t in rng.uniform(1.0, 360.0, rng.integers(1, 7))]
        if rng.random() < 0.3:
            thetas[-1] = 360.0
        scenarios, fields, field_of = [], [], []
        for n in sizes:
            cfg = replace(base, n_nodes=n, seed=int(rng.integers(2**63)))
            nodes = generate(cfg).nodes
            fields.append(nodes)
            for view in (nodes, nodes[:len(nodes) // 2]):
                d = float(rng.choice([0.0, side, rng.uniform(0.0, side)], p=[0.1, 0.1, 0.8]))
                for theta_deg in thetas:
                    cell = replace(cfg, theta_deg=theta_deg, d=d)
                    scenarios.append(Scenario(view, *endpoint_positions(cell), cell))
                    field_of.append(len(fields) - 1)
        yield scenarios, fields, field_of


# 28 batches, 302 floods, 27,932 transmitters
FLOOD_CORPUS = "32c9a78590a47c2c6871a38fa32e9ba9a75c0370f28769bdd5f8ace30cbde1d7"


# each batch through flood_fields with a field per scenario, or over the
# generated fields, each half view as an n_nodes entry
LAYOUTS = {"field_each": lambda scenarios, fields, field_of: flood_each(scenarios),
           "flood_fields": flood_views}


@pytest.mark.parametrize("chunk, layout", [
    pytest.param(chunk, layout, id=f"{chunk}-{layout}" if layout == "flood_fields" else f"{chunk}")
    for layout in LAYOUTS for chunk in (engine.ROUND_CHUNK, 64)])
def test_flood_corpus_digest(monkeypatch, chunk, layout):
    # success, first hop, sorted implicated ids and per-round counts of
    # each flood, never the slot layout, so an index redesign keeps the pin
    monkeypatch.setattr(engine, "ROUND_CHUNK", chunk)
    digest = hashlib.sha256()
    for scenarios, fields, field_of in corpus_batches(28, 7):
        batch = LAYOUTS[layout](scenarios, fields, field_of)
        for b in range(len(scenarios)):
            out = batch.outcome(b)
            digest.update(repr((out.success, out.first_delivery_hop, sorted(out.implicated),
                                out.per_round_transmitters)).encode())
    assert digest.hexdigest() == FLOOD_CORPUS
