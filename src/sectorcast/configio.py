"""Config-file parsing, overrides, and CSV emission.

The config format is flat ``key = value`` text with an optional ``[sweep]``
section holding comma-separated value lists; '#' starts a comment.  CLI
overrides use the same key names (sweep keys prefixed ``sweep.``) and
unknown keys are rejected, never ignored.  Angles are degrees in files and
on the command line, radians everywhere inside.

CSV columns are fixed; floats are written with shortest-round-trip repr so
parsed rows reproduce results bit-exactly, absent model fields are empty,
and the effective configuration is echoed as '#' comment lines.
"""

from __future__ import annotations

import math
import os
import tempfile

from .scenario import ConfigError, Placement, ScenarioConfig
from .experiments import CellResult, SweepSpec

_BASE_FLOAT_KEYS = ("square_side", "radius", "theta_deg", "d", "direction_error_deg")
_BASE_INT_KEYS = ("n_nodes", "seed")
BASE_KEYS = _BASE_FLOAT_KEYS + _BASE_INT_KEYS + ("placement",)
SWEEP_KEYS = ("theta_deg", "n_nodes", "d", "trials")

CSV_COLUMNS = (
    "theta_deg", "n_nodes", "d_m", "r_m", "square_side_m", "trials",
    "success_rate", "success_ci", "implicated_ratio_mean",
    "implicated_ratio_std", "bandwidth_gain", "mean_hops_success",
    "model_ratio", "model_relative_error",
)


def parse_config_text(text: str, source: str = "<config>") -> tuple[dict, dict]:
    """Split config text into raw (base, sweep) key -> string dicts."""
    base: dict[str, str] = {}
    sweep: dict[str, str] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name != "sweep":
                raise ConfigError(f"{source}:{lineno}: unknown section [{name}]")
            section = "sweep"
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if section == "sweep":
            if key not in SWEEP_KEYS:
                raise ConfigError(f"{source}:{lineno}: unknown sweep key {key!r}")
            sweep[key] = value
        else:
            if key not in BASE_KEYS:
                raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
            base[key] = value
    return base, sweep


def apply_overrides(base: dict, sweep: dict, overrides: list[str]) -> None:
    """Apply key=value overrides in place; sweep keys use a 'sweep.' prefix."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, value = (part.strip() for part in item.split("=", 1))
        if key.startswith("sweep."):
            skey = key[len("sweep."):]
            if skey not in SWEEP_KEYS:
                raise ConfigError(f"unknown sweep override key {skey!r}")
            sweep[skey] = value
        elif key in BASE_KEYS:
            base[key] = value
        else:
            raise ConfigError(f"unknown override key {key!r}")


def _parse_number(key: str, value: str, kind):
    try:
        return kind(value)
    except ValueError as exc:
        raise ConfigError(f"field {key}: cannot parse {value!r}") from exc


def _parse_list(key: str, value: str, kind) -> tuple:
    items = [v.strip() for v in value.split(",") if v.strip()]
    if not items:
        raise ConfigError(f"field {key}: empty list")
    return tuple(_parse_number(key, v, kind) for v in items)


def to_scenario_config(base: dict) -> ScenarioConfig:
    """Build a validated ScenarioConfig from raw strings (degrees -> radians)."""
    kwargs = {}
    for key in _BASE_FLOAT_KEYS:
        if key in base:
            kwargs[key] = _parse_number(key, base[key], float)
    for key in _BASE_INT_KEYS:
        if key in base:
            kwargs[key] = _parse_number(key, base[key], int)
    if "placement" in base:
        value = base["placement"].lower()
        try:
            kwargs["placement"] = Placement(value)
        except ValueError:
            raise ConfigError(
                f"field placement: expected 'fixed' or 'poisson', got {base['placement']!r}"
            ) from None
    if "theta_deg" in kwargs:
        kwargs["theta"] = math.radians(kwargs.pop("theta_deg"))
    if "direction_error_deg" in kwargs:
        kwargs["direction_error_bound"] = math.radians(kwargs.pop("direction_error_deg"))
    if "d" in kwargs:
        kwargs["sd_distance"] = kwargs.pop("d")
    return ScenarioConfig(**kwargs)


def to_sweep_spec(config: ScenarioConfig, sweep: dict) -> SweepSpec:
    """Build a SweepSpec around config; unset lists fall back to the defaults."""
    kwargs: dict = {"base": config}
    if "theta_deg" in sweep:
        degs = _parse_list("theta_deg", sweep["theta_deg"], float)
        kwargs["theta_values"] = tuple(math.radians(t) for t in degs)
    if "n_nodes" in sweep:
        kwargs["n_values"] = _parse_list("n_nodes", sweep["n_nodes"], int)
    if "d" in sweep:
        kwargs["d_values"] = _parse_list("d", sweep["d"], float)
    if "trials" in sweep:
        kwargs["trials"] = _parse_number("trials", sweep["trials"], int)
    return SweepSpec(**kwargs)


def config_record(config: ScenarioConfig) -> dict:
    """Effective base configuration under its config-file keys (degrees)."""
    return {
        "square_side": config.square_side,
        "n_nodes": config.n_nodes,
        "radius": config.radius,
        "theta_deg": math.degrees(config.theta),
        "d": config.sd_distance,
        "seed": config.seed,
        "placement": config.placement.value,
        "direction_error_deg": math.degrees(config.direction_error_bound),
    }


def config_echo_lines(config: ScenarioConfig, spec: SweepSpec | None = None) -> list[str]:
    """Effective configuration as '#' comment lines for output-file headers."""
    lines = [f"# {k} = {v}" for k, v in config_record(config).items()]
    if spec is not None:
        lines += [
            "# [sweep]",
            f"# theta_deg = {', '.join(repr(math.degrees(t)) for t in spec.theta_values)}",
            f"# n_nodes = {', '.join(str(n) for n in spec.n_values)}",
            f"# d = {', '.join(repr(d) for d in spec.d_values)}",
            f"# trials = {spec.trials}",
        ]
    return lines


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def result_row(result: CellResult, config: ScenarioConfig) -> str:
    fields = (
        _fmt(math.degrees(result.theta)),
        str(result.n_nodes),
        _fmt(result.sd_distance),
        _fmt(config.radius),
        _fmt(config.square_side),
        str(result.trials),
        _fmt(result.success_rate),
        _fmt(result.success_ci_halfwidth),
        _fmt(result.implicated_ratio_mean),
        _fmt(result.implicated_ratio_std),
        _fmt(result.bandwidth_gain),
        _fmt(result.mean_hops_on_success),
        _fmt(result.model_ratio),
        _fmt(result.model_relative_error),
    )
    return ",".join(fields)


def results_csv_text(results: list[CellResult], config: ScenarioConfig,
                     spec: SweepSpec | None = None) -> str:
    lines = config_echo_lines(config, spec)
    lines.append(",".join(CSV_COLUMNS))
    lines.extend(result_row(r, config) for r in results)
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
