"""Deterministic construction of experiment instances.

A scenario is a square field of uniformly placed nodes plus a source and a
destination on the horizontal midline, centered so the relayed region is
least clipped by borders.  Everything derives from (config, seed): the same
config yields bit-identical scenarios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

DEFAULT_SQUARE_SIDE = 4000.0
DEFAULT_RADIUS = 200.0

_MAX_SEED = 2**64
MAX_NODES = 1_000_000  # 16 MB of positions; larger fields are rejected, not allocated
# field sides in meters whose squared coordinate differences stay normal floats
MIN_SQUARE_SIDE, MAX_SQUARE_SIDE = 1e-100, 1e100


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class Point2D:
    """A position in meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"coordinates must be finite, got ({self.x}, {self.y})")


class Placement(Enum):
    FIXED_COUNT = "fixed"
    POISSON_COUNT = "poisson"


@dataclass(frozen=True)
class ScenarioConfig:
    """Full parameterization of one experiment.

    theta and direction_error_bound are radians; the CLI converts from
    degrees at the boundary.
    """

    square_side: float = DEFAULT_SQUARE_SIDE
    n_nodes: int = 2000
    radius: float = DEFAULT_RADIUS
    theta: float = math.radians(90.0)
    sd_distance: float = 1000.0
    seed: int = 0
    placement: Placement = Placement.FIXED_COUNT
    direction_error_bound: float = 0.0

    def __post_init__(self):
        if not MIN_SQUARE_SIDE <= self.square_side <= MAX_SQUARE_SIDE:
            raise ConfigError(f"square_side must be in [{MIN_SQUARE_SIDE:g}, "
                              f"{MAX_SQUARE_SIDE:g}] m, got {self.square_side}")
        if not 0 <= self.n_nodes <= MAX_NODES:
            raise ConfigError(f"n_nodes must be in [0, {MAX_NODES}], got {self.n_nodes}")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ConfigError(f"radius must be positive, got {self.radius}")
        if not 0.0 < self.theta <= 2.0 * math.pi:
            raise ConfigError(f"theta must be in (0, 2*pi] radians, got {self.theta}")
        if not 0.0 <= self.sd_distance <= self.square_side:
            raise ConfigError(
                f"sd_distance must be in [0, square_side], got {self.sd_distance} "
                f"with square_side {self.square_side}"
            )
        source_x, dest_x = _endpoint_xs(self.square_side, self.sd_distance)
        if self.sd_distance > 0.0 and source_x == dest_x:
            raise ConfigError(f"sd_distance {self.sd_distance} is too small for square_side "
                              f"{self.square_side}: both endpoints round to one point")
        if not 0 <= self.seed < _MAX_SEED:
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if not 0.0 <= self.direction_error_bound <= math.pi:
            raise ConfigError(
                f"direction_error_bound must be in [0, pi], got {self.direction_error_bound}"
            )


@dataclass(frozen=True)
class Scenario:
    """One concrete field: node positions plus the two endpoints.

    nodes is a read-only (n, 2) float64 array; source and destination are
    distinguished points, not rows of nodes.
    """

    nodes: np.ndarray
    source: Point2D
    destination: Point2D
    config: ScenarioConfig


def derive_seed(base_seed: int, trial: int) -> int:
    """Stable per-trial seed: uint64 drawn from SeedSequence((base_seed, trial))."""
    return int(np.random.SeedSequence((base_seed, trial)).generate_state(1, np.uint64)[0])


def _endpoint_xs(side: float, d: float) -> tuple[float, float]:
    return (side - d) / 2.0, (side + d) / 2.0


def endpoint_positions(config: ScenarioConfig) -> tuple[Point2D, Point2D]:
    """Source and destination on the midline, centered around the field middle."""
    y = config.square_side / 2.0
    source_x, dest_x = _endpoint_xs(config.square_side, config.sd_distance)
    return Point2D(source_x, y), Point2D(dest_x, y)


def generate(config: ScenarioConfig) -> Scenario:
    """Draw the node field for config; pure function of the config.

    Nodes are i.i.d. uniform in the square.  FIXED_COUNT places exactly
    n_nodes; POISSON_COUNT draws the count from Poisson(n_nodes) first
    (conditioned on its count a Poisson process is the same uniform field).
    """
    rng = np.random.default_rng(config.seed)
    if config.placement is Placement.POISSON_COUNT:
        count = int(rng.poisson(config.n_nodes))
    else:
        count = config.n_nodes
    nodes = rng.uniform(0.0, config.square_side, size=(count, 2))
    nodes.setflags(write=False)
    source, destination = endpoint_positions(config)
    return Scenario(nodes=nodes, source=source, destination=destination, config=config)
