"""Directional sector-broadcast simulator and coverage-area model toolkit."""

from .leafmodel import (
    DegenerateLeafError,
    LeafModel,
    build_leaf,
    predicted_ratio,
    relative_error,
)
from .scenario import (
    ConfigError,
    Placement,
    Point2D,
    Scenario,
    ScenarioConfig,
    derive_seed,
    generate,
)
from .engine import (
    SOURCE_ID,
    BroadcastOutcome,
    propagate,
)
from .experiments import (
    DEFAULT_D_GRID,
    DEFAULT_N_GRID,
    DEFAULT_THETA_GRID_DEG,
    CellResult,
    SweepSpec,
    run_cell,
    run_sweep,
)
from .render import render_svg

__version__ = "0.1.0"

__all__ = [
    "DegenerateLeafError", "LeafModel", "build_leaf",
    "predicted_ratio", "relative_error",
    "ConfigError", "Placement", "Point2D", "Scenario", "ScenarioConfig",
    "derive_seed", "generate",
    "SOURCE_ID", "BroadcastOutcome", "propagate",
    "DEFAULT_D_GRID", "DEFAULT_N_GRID", "DEFAULT_THETA_GRID_DEG",
    "CellResult", "SweepSpec", "run_cell", "run_sweep",
    "render_svg",
    "__version__",
]
