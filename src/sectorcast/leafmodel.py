"""Triangle-chain model of the directional-broadcast coverage area.

The relayed region between source and destination is approximated by a
symmetric chain of triangles sharing the destination as a vertex.  Edge
lengths follow a law-of-cosines recurrence driven by the transmission
radius r and the beam opening angle theta; the chain stops once the
destination is within one transmission radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Relative step size below which the edge recurrence is treated as
# converged to its fixed point r / (2 cos(theta/2)).
CONVERGENCE_FACTOR = 1e-6

# Most triangles per side that build_leaf iterates: the chain grows like
# d / r, and 100,000 triangles take well under a second to build.
MAX_TRIANGLES = 100_000


class DegenerateLeafError(ValueError):
    """Destination already within one hop of the source (d <= r)."""


@dataclass(frozen=True)
class LeafModel:
    """Result of iterating the triangle chain.

    d_seq[0] is the source-destination distance; d_seq[i] is the length of
    the edge shared by triangles i and i+1.  areas[i] = 0.5 * r * d_seq[i+1]
    * sin(theta/2) is the area of triangle i+1, and total_area doubles the
    one-sided sum to cover both half-planes.  vertices[i], at distance
    d_seq[i] from the destination, steps r from vertices[i-1], turned
    theta/2 outward from its direction to the destination (local frame:
    destination at the origin, source at (d, 0), chain in the upper
    half-plane).  non_terminating marks chains whose edge recurrence can
    never drop below r (fixed point beyond r, i.e. theta > 120 degrees):
    d_seq then ends at numerical convergence and total_area is a
    truncation, not a limit.
    """

    d_seq: tuple[float, ...]
    areas: tuple[float, ...]
    vertices: tuple[tuple[float, float], ...]
    n_triangles: int
    total_area: float
    non_terminating: bool = False


def _check_positive(**values: float) -> None:
    for name, v in values.items():
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {v}")


def _check_theta(theta: float) -> None:
    if not (math.isfinite(theta) and 0.0 < theta < 2.0 * math.pi):
        raise ValueError(f"theta must be in (0, 2*pi), got {theta}")


def build_leaf(d: float, r: float, theta: float) -> LeafModel:
    """Iterate the edge recurrence from d_0 = d and accumulate triangle areas.

    Stops after the first step whose edge is <= r (destination one hop from
    the chain vertex).  When the recurrence stalls instead (step shrinkage
    below CONVERGENCE_FACTOR * r, or a non-contracting step), iteration
    stops there; the result is flagged non_terminating when the fixed point
    r / (2 cos(theta/2)) lies beyond r, which is what makes an edge <= r
    unreachable.

    Raises DegenerateLeafError when d <= r: delivery is direct and no relay
    triangle exists.  Raises ValueError past MAX_TRIANGLES triangles.
    """
    _check_positive(d=d, r=r)
    _check_theta(theta)
    if d <= r:
        raise DegenerateLeafError(f"d={d} <= r={r}: direct delivery, empty chain")

    # each step is tests/oracles.py's next_edge and triangle_area, validated once above
    cos_half, sin_half = math.cos(theta / 2.0), math.sin(theta / 2.0)
    seq, areas, verts = [d], [], [(d, 0.0)]
    vx, vy = verts[0]
    non_terminating = False
    for _ in range(MAX_TRIANGLES):
        d_prev = seq[-1]
        d_next = math.sqrt(d_prev * d_prev + r * r - 2.0 * r * d_prev * cos_half)
        seq.append(d_next)
        areas.append(0.5 * r * d_next * sin_half)
        norm = math.hypot(vx, vy)
        nx, ny = -vx / norm, -vy / norm
        vx += r * (nx * cos_half + ny * sin_half)
        vy += r * (-nx * sin_half + ny * cos_half)
        verts.append((vx, vy))
        if d_next <= r:
            break
        if d_next >= d_prev or (d_prev - d_next) < CONVERGENCE_FACTOR * r:
            # Stalled.  Only a fixed point beyond r makes termination by
            # range impossible; at exactly 120 degrees the fixed point IS r
            # and the truncated sum is the chain's limit, so no flag.
            non_terminating = cos_half < 0.5
            break
    else:
        raise ValueError(f"chain passes MAX_TRIANGLES = {MAX_TRIANGLES} triangles per side")

    return LeafModel(
        d_seq=tuple(seq),
        areas=tuple(areas),
        vertices=tuple(verts),
        n_triangles=len(areas),
        total_area=2.0 * math.fsum(areas),
        non_terminating=non_terminating,
    )


def predicted_ratio(model: LeafModel, square_side: float) -> float:
    """Expected implicated fraction under uniform placement: area over field area."""
    _check_positive(square_side=square_side)
    return min(1.0, max(0.0, model.total_area / (square_side * square_side)))


def relative_error(theoretical: float, simulated: float) -> float:
    """Signed model error (theoretical - simulated) / simulated."""
    if not simulated > 0.0:
        raise ValueError(f"simulated value must be positive, got {simulated}")
    return (theoretical - simulated) / simulated
