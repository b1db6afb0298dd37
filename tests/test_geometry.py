"""Point2D and the oracle's scalar sector test: membership, boundaries, symmetries."""

import math

import numpy as np
import pytest

from sectorcast.scenario import Point2D

from oracles import Sector, in_sector, polar_in_sector

ORIGIN = Point2D(0.0, 0.0)
STD_SECTOR = Sector(apex=ORIGIN, axis=0.0, half_angle=math.radians(30.0), radius=200.0)


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point2D(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Point2D(0.0, float("inf"))


def test_sector_invariants():
    with pytest.raises(ValueError):
        Sector(ORIGIN, 0.0, 0.0, 200.0)
    with pytest.raises(ValueError):
        Sector(ORIGIN, 0.0, math.pi * 1.01, 200.0)
    with pytest.raises(ValueError):
        Sector(ORIGIN, 0.0, 1.0, 0.0)
    # axis gets normalized into [0, 2*pi)
    assert Sector(ORIGIN, -math.pi / 2, 1.0, 1.0).axis == pytest.approx(1.5 * math.pi)


@pytest.mark.parametrize("p,expected", [
    ((100.0, 0.0), True),     # on-axis, within range
    ((0.0, 100.0), False),    # 90 degrees off a 30-degree half-angle
    ((150.0, 150.0), False),  # dist 150*sqrt(2) ~ 212.1 > 200
])
def test_in_sector_examples(p, expected):
    assert in_sector(Point2D(*p), STD_SECTOR) is expected


def test_in_sector_boundaries_closed_apex_open():
    # distance exactly r on the axis: inside
    assert in_sector(Point2D(200.0, 0.0), STD_SECTOR)
    # the apex itself is excluded
    assert not in_sector(ORIGIN, STD_SECTOR)
    # angular offset exactly the half-angle at an exactly-representable layout:
    # axis pi/2 with apex-to-p along +x gives offset exactly pi/2
    quarter = Sector(apex=ORIGIN, axis=math.pi / 2, half_angle=math.pi / 2, radius=10.0)
    assert in_sector(Point2D(5.0, 0.0), quarter)
    assert not in_sector(Point2D(5.0, -1e-9), quarter)


def test_full_circle_sector_covers_backwards():
    full = Sector(apex=ORIGIN, axis=0.0, half_angle=math.pi, radius=10.0)
    assert in_sector(Point2D(-5.0, 0.0), full)
    assert in_sector(Point2D(0.0, -5.0), full)
    assert not in_sector(ORIGIN, full)


def test_rotation_invariance():
    # membership survives rotating p, apex, and axis together about the apex
    rng = np.random.default_rng(23)
    for _ in range(300):
        apex = Point2D(*rng.uniform(-100, 100, 2))
        s = Sector(apex=apex, axis=rng.uniform(0, 2 * math.pi),
                   half_angle=rng.uniform(0.05, math.pi), radius=rng.uniform(1, 300))
        p = Point2D(*rng.uniform(-400, 400, 2))
        if p.x == apex.x and p.y == apex.y:
            continue
        rot = rng.uniform(0, 2 * math.pi)
        cr, sr = math.cos(rot), math.sin(rot)
        rx = apex.x + (p.x - apex.x) * cr - (p.y - apex.y) * sr
        ry = apex.y + (p.x - apex.x) * sr + (p.y - apex.y) * cr
        s_rot = Sector(apex=apex, axis=(s.axis + rot) % (2 * math.pi),
                       half_angle=s.half_angle, radius=s.radius)
        assert in_sector(p, s) == in_sector(Point2D(rx, ry), s_rot)


def test_mirror_symmetry_across_axis():
    rng = np.random.default_rng(31)
    for _ in range(300):
        apex = Point2D(*rng.uniform(-100, 100, 2))
        s = Sector(apex=apex, axis=rng.uniform(0, 2 * math.pi),
                   half_angle=rng.uniform(0.05, math.pi - 0.05),
                   radius=rng.uniform(1, 300))
        p = Point2D(*rng.uniform(-400, 400, 2))
        ux, uy = math.cos(s.axis), math.sin(s.axis)
        vx, vy = p.x - apex.x, p.y - apex.y
        proj = vx * ux + vy * uy
        mirrored = Point2D(apex.x + 2 * proj * ux - vx, apex.y + 2 * proj * uy - vy)
        assert in_sector(p, s) == in_sector(mirrored, s)


def test_agrees_with_polar_oracle_on_dense_grid():
    for axis_deg, half_deg, radius in [(0, 30, 200), (137, 75, 50), (301, 11, 400),
                                       (90, 180, 120)]:
        s = Sector(apex=Point2D(13.0, -7.0), axis=math.radians(axis_deg),
                   half_angle=math.radians(half_deg), radius=radius)
        for rho in np.linspace(0.05 * radius, 1.3 * radius, 23):
            for ang in np.linspace(0.0, 2 * math.pi, 97, endpoint=False):
                p = Point2D(s.apex.x + rho * math.cos(ang), s.apex.y + rho * math.sin(ang))
                assert in_sector(p, s) == polar_in_sector(p, s), (rho, ang)


def test_agrees_with_polar_oracle_on_random_points():
    rng = np.random.default_rng(43)
    s = Sector(apex=Point2D(500.0, 500.0), axis=1.1, half_angle=0.8, radius=250.0)
    pts = rng.uniform(0, 1000, size=(2000, 2))
    for x, y in pts:
        p = Point2D(x, y)
        assert in_sector(p, s) == polar_in_sector(p, s)
