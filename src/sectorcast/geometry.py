"""Planar primitives for sector coverage tests.

All angles are radians internally; degrees appear only at I/O boundaries.
Bearings are measured counterclockwise from the +x axis and normalized
to [0, 2*pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Point2D:
    """A position in meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"coordinates must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class Sector:
    """A transmitter's coverage wedge.

    apex: transmitter position
    axis: bearing of the sector bisector, in [0, 2*pi)
    half_angle: half the opening angle, in (0, pi]
    radius: transmission range in meters
    """

    apex: Point2D
    axis: float
    half_angle: float
    radius: float

    def __post_init__(self):
        if not 0.0 < self.half_angle <= math.pi:
            raise ValueError(f"half_angle must be in (0, pi], got {self.half_angle}")
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if not 0.0 <= self.axis < TWO_PI:
            object.__setattr__(self, "axis", self.axis % TWO_PI)


def in_sector(p: Point2D, s: Sector) -> bool:
    """Whether p lies in sector s.

    Boundaries (distance exactly radius, angular offset exactly half_angle)
    are inside; the apex itself is not: a transmitter never re-receives its
    own message.

    The angular test is |bearing of p from the apex - axis| <= half_angle on
    the circle, evaluated in dot-product form (cos is monotone on [0, pi]) so
    the same arithmetic can run vectorized in the engine.
    """
    dx = p.x - s.apex.x
    dy = p.y - s.apex.y
    q = dx * dx + dy * dy
    if q == 0.0 or q > s.radius * s.radius:
        return False
    if s.half_angle >= math.pi:
        return True
    ux = math.cos(s.axis)
    uy = math.sin(s.axis)
    return dx * ux + dy * uy >= math.sqrt(q) * math.cos(s.half_angle)
