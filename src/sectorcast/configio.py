"""Config-file parsing, overrides, and CSV emission.

The config format is flat ``key = value`` text with an optional ``[sweep]``
section holding comma-separated value lists; '#' starts a comment.  CLI
overrides use the same key names (sweep keys prefixed ``sweep.``) and
unknown keys are rejected, never ignored.

Every key is named once: _BASE maps a base key to its ScenarioConfig field
and type, in echo order, and _SWEEP maps a [sweep] key to its SweepSpec
field (a list of the base key's values, or the trial count).  Parsing,
overrides, record and echo all read these tables.  ``*_deg`` keys are
degrees outside and radians inside; _from_file and _to_file convert.

CSV columns are fixed; floats are written with shortest-round-trip repr so
parsed rows reproduce results bit-exactly, absent model fields are empty,
mean_hops_success is nan when no trial delivered, and the effective
configuration is echoed as '#' comment lines.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import astuple

from .scenario import ConfigError, Placement, ScenarioConfig
from .experiments import CellResult, SweepSpec

CSV_COLUMNS = (
    "theta_deg", "n_nodes", "d_m", "r_m", "square_side_m", "trials",
    "success_rate", "success_ci", "implicated_ratio_mean",
    "implicated_ratio_std", "bandwidth_gain", "mean_hops_success",
    "model_ratio", "model_relative_error",
)

# base key -> (ScenarioConfig field, value type), in echo order
_BASE = {
    "square_side": ("square_side", float),
    "n_nodes": ("n_nodes", int),
    "radius": ("radius", float),
    "theta_deg": ("theta", float),
    "d": ("sd_distance", float),
    "seed": ("seed", int),
    "placement": ("placement", Placement),
    "direction_error_deg": ("direction_error_bound", float),
}
# [sweep] key -> SweepSpec field
_SWEEP = {"theta_deg": "theta_values", "n_nodes": "n_values", "d": "d_values", "trials": "trials"}


def _from_file(key: str, text: str, kind):
    """One config-file value in library units (degrees become radians)."""
    try:
        value = kind(text.lower())  # float and int syntax is case-blind too
    except ValueError as exc:
        what = "expected 'fixed' or 'poisson', got" if kind is Placement else "cannot parse"
        raise ConfigError(f"field {key}: {what} {text!r}") from exc
    return math.radians(value) if key.endswith("_deg") else value


def _to_file(key: str, value):
    """One library value in config-file units (radians become degrees)."""
    if key.endswith("_deg"):
        return math.degrees(value)
    return value.value if isinstance(value, Placement) else value


def parse_config_text(text: str, source: str = "<config>") -> tuple[dict, dict]:
    """Split config text into raw (base, sweep) key -> string dicts."""
    base: dict[str, str] = {}
    sweep: dict[str, str] = {}
    into, table, what = base, _BASE, "key"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name != "sweep":
                raise ConfigError(f"{source}:{lineno}: unknown section [{name}]")
            into, table, what = sweep, _SWEEP, "sweep key"
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in table:
            raise ConfigError(f"{source}:{lineno}: unknown {what} {key!r}")
        into[key] = value
    return base, sweep


def apply_overrides(base: dict, sweep: dict, overrides: list[str]) -> None:
    """Apply key=value overrides in place; sweep keys use a 'sweep.' prefix."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, value = (part.strip() for part in item.split("=", 1))
        in_sweep = key.startswith("sweep.")
        key = key.removeprefix("sweep.")
        if key not in (_SWEEP if in_sweep else _BASE):
            raise ConfigError(f"unknown {'sweep ' if in_sweep else ''}override key {key!r}")
        (sweep if in_sweep else base)[key] = value


def to_scenario_config(base: dict) -> ScenarioConfig:
    """Build a validated ScenarioConfig from raw strings (degrees -> radians);
    a rejection's message ends with (key = text) for each given key it names."""
    given = [(key, field, _from_file(key, base[key], kind))
             for key, (field, kind) in _BASE.items() if key in base]
    try:
        return ScenarioConfig(**{field: value for _, field, value in given})
    except ConfigError as exc:
        named = [f"({key} = {base[key]})" for key, field, _ in given if field in str(exc)]
        raise ConfigError(" ".join([str(exc), *named])) from exc


def to_sweep_spec(config: ScenarioConfig, sweep: dict) -> SweepSpec:
    """Build a SweepSpec around config; unset lists fall back to the defaults."""
    kwargs: dict = {"base": config}
    for key, field in _SWEEP.items():
        if key not in _BASE and key in sweep:  # trials, one integer
            kwargs[field] = _from_file(key, sweep[key], int)
        elif key in sweep:
            items = [v.strip() for v in sweep[key].split(",") if v.strip()]
            if not items:
                raise ConfigError(f"field {key}: empty list")
            kwargs[field] = tuple(_from_file(key, v, _BASE[key][1]) for v in items)
    return SweepSpec(**kwargs)


def config_record(config: ScenarioConfig) -> dict:
    """Effective base configuration under its config-file keys (degrees)."""
    return {key: _to_file(key, getattr(config, field)) for key, (field, _) in _BASE.items()}


def config_echo_lines(spec: SweepSpec) -> list[str]:
    """Effective configuration as '#' comment lines for output-file headers."""
    lines = [f"# {k} = {v}" for k, v in config_record(spec.base).items()]
    lines.append("# [sweep]")
    for key, field in _SWEEP.items():
        value = getattr(spec, field)
        if key in _BASE:
            value = ", ".join(str(_to_file(key, v)) for v in value)
        lines.append(f"# {key} = {value}")
    return lines


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def result_row(result: CellResult, config: ScenarioConfig) -> str:
    theta, n_nodes, d, trials, *metrics = astuple(result)
    return ",".join(map(_fmt, (math.degrees(theta), n_nodes, d, config.radius,
                               config.square_side, trials, *metrics)))


def results_csv_text(results: list[CellResult], spec: SweepSpec) -> str:
    lines = config_echo_lines(spec)
    lines.append(",".join(CSV_COLUMNS))
    lines.extend(result_row(r, spec.base) for r in results)
    return "\n".join(lines) + "\n"


def ensure_writable(path: str) -> None:
    """Fail fast (OSError) when path's directory cannot receive the file."""
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise OSError(f"output directory does not exist: {parent}")
    if not os.access(parent, os.W_OK):
        raise OSError(f"output directory is not writable: {parent}")
    if os.path.isdir(path):
        raise OSError(f"output path is a directory: {path}")


def atomic_write_text(path: str, text: str) -> None:
    """Write-to-temp then rename, so readers never see partial files."""
    parent = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
