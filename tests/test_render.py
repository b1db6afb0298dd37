"""SVG renderer: layer structure and coordinate mapping."""

import math
import re

import numpy as np

from sectorcast.engine import propagate
from sectorcast.render import render_svg
from sectorcast.scenario import ScenarioConfig, generate


def render_for(**kw):
    defaults = dict(square_side=2000.0, n_nodes=50, radius=200.0,
                    theta_deg=60.0, d=800.0, seed=21)
    defaults.update(kw)
    scenario = generate(ScenarioConfig(**defaults))
    return scenario, render_svg(scenario, propagate(scenario))


def test_all_layers_present_in_order():
    _, svg = render_for()
    ids = re.findall(r'<g id="(\w+)">', svg)
    assert ids == ["field", "nodes", "implicated", "chain", "endpoints"]


def test_node_count_split_between_layers():
    scenario, svg = render_for(n_nodes=80)
    out = propagate(scenario)
    n_implicated = len(out.implicated) - 1  # minus the source
    nodes_layer = svg.split('<g id="nodes">')[1].split("</g>")[0]
    impl_layer = svg.split('<g id="implicated">')[1].split("</g>")[0]
    assert nodes_layer.count("<circle") == 80 - n_implicated
    assert impl_layer.count("<circle") == n_implicated


def test_chain_polygon_starts_at_source_pixel():
    scenario, svg = render_for(n_nodes=0)
    poly = re.search(r'<polygon points="([^"]+)"', svg).group(1)
    first_x, first_y = (float(v) for v in poly.split(" ")[0].split(","))
    src = re.findall(r'<circle cx="([\d.]+)" cy="([\d.]+)" r="5.00"', svg)[0]
    assert math.hypot(first_x - float(src[0]), first_y - float(src[1])) < 0.02


def test_chain_polygon_is_mirror_symmetric_about_midline():
    # endpoints sit on the horizontal midline, so the leaf outline must be
    # symmetric in pixel y about the midline's pixel row
    scenario, svg = render_for(n_nodes=0, d=900.0)
    poly = re.search(r'<polygon points="([^"]+)"', svg).group(1)
    ys = [float(p.split(",")[1]) for p in poly.split(" ")]
    mid = (40.0 + 840.0) / 2.0
    top = max(y - mid for y in ys)
    bottom = max(mid - y for y in ys)
    assert abs(top - bottom) < 0.05


def test_fixed_format_keeps_bytes_stable():
    _, a = render_for(seed=5)
    _, b = render_for(seed=5)
    assert a == b
    assert not re.search(r"\d\.\d{3,}", a)  # two-decimal formatting throughout


def test_node_dots_match_scalar_mapping():
    # the node layers map all coordinates in one numpy pass; every dot must
    # print as the scalar per-node mapping prints it, in the same order
    for seed, n in ((3, 400), (4, 1), (5, 0)):
        scenario, svg = render_for(n_nodes=n, seed=seed, theta_deg=150.0)
        relays = propagate(scenario).implicated - {-1}
        scale = 800.0 / 2000.0

        def dot(i, r_px, fill):
            x, y = (float(v) for v in scenario.nodes[i])
            return (f'<circle cx="{40.0 + x * scale:.2f}" cy="{40.0 + (2000.0 - y) * scale:.2f}" '
                    f'r="{r_px}" fill="{fill}"/>')

        want = ['<g id="nodes">', *(dot(i, "1.50", "#b8b8b8") for i in range(n) if i not in relays),
                "</g>", '<g id="implicated">', *(dot(i, "2.50", "#d9534f") for i in sorted(relays)),
                "</g>"]
        lines = svg.splitlines()
        start = lines.index('<g id="nodes">')
        assert lines[start:start + len(want)] == want
        assert n < 400 or relays  # the 400-node scene draws both layers
