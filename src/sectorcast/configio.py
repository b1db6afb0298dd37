"""Config-file parsing, overrides, and CSV emission.

The config format is flat ``key = value`` text with an optional ``[sweep]``
section holding comma-separated value lists; '#' starts a comment.  CLI
overrides use the same key names (sweep keys prefixed ``sweep.``) and
unknown keys are rejected, never ignored.

The keys are the dataclass fields in field order (the echo order): a base
key is a ScenarioConfig field, parsed by scenario.TYPES and KINDS, and a
[sweep] key is a SweepSpec field after base, a list of the base key's values
or the trial count, so every message names a value by the key as typed.

CSV columns are fixed; floats are written with shortest-round-trip repr so
parsed rows reproduce results bit-exactly, absent model fields are empty,
mean_hops_success is nan when no trial delivered, and the effective
configuration is echoed as '#' comment lines.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import astuple, fields

from .scenario import KINDS, TYPES, ConfigError, ScenarioConfig
from .experiments import CellResult, SweepSpec

CSV_COLUMNS = (
    "theta_deg", "n_nodes", "d_m", "r_m", "square_side_m", "trials",
    "success_rate", "success_ci", "implicated_ratio_mean",
    "implicated_ratio_std", "bandwidth_gain", "mean_hops_success",
    "model_ratio", "model_relative_error",
)

# [sweep] keys, in echo order: the SweepSpec fields after base
_SWEEP = tuple(f.name for f in fields(SweepSpec)[1:])


def _from_file(key: str, text: str, kind):
    """One config-file value as its key's type."""
    try:
        return kind(text.lower())  # float and int syntax is case-blind too
    except ValueError as exc:
        raise ConfigError(f"{key} must be {KINDS[kind][1]}, got {text!r}") from exc


def parse_config_text(text: str, source: str = "<config>") -> tuple[dict, dict]:
    """Split config text into raw (base, sweep) key -> string dicts."""
    base: dict[str, str] = {}
    sweep: dict[str, str] = {}
    into, table, what = base, TYPES, "key"
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
        if key not in (_SWEEP if in_sweep else TYPES):
            raise ConfigError(f"unknown {'sweep ' if in_sweep else ''}override key {key!r}")
        (sweep if in_sweep else base)[key] = value


def to_scenario_config(base: dict) -> ScenarioConfig:
    """Build a validated ScenarioConfig from raw strings."""
    return ScenarioConfig(**{key: _from_file(key, base[key], kind)
                             for key, kind in TYPES.items() if key in base})


def to_sweep_spec(config: ScenarioConfig, sweep: dict) -> SweepSpec:
    """Build a SweepSpec around config; unset lists fall back to the defaults."""
    kwargs: dict = {"base": config}
    for key in _SWEEP:
        if key not in TYPES and key in sweep:  # trials, one integer
            kwargs[key] = _from_file(key, sweep[key], int)
        elif key in sweep:
            items = [v.strip() for v in sweep[key].split(",") if v.strip()]
            kwargs[key] = tuple(_from_file(key, v, TYPES[key]) for v in items)
    return SweepSpec(**kwargs)


def config_record(config: ScenarioConfig) -> dict:
    """Effective base configuration under its config-file keys."""
    return {key: getattr(config, key) for key in TYPES} | {"placement": config.placement.value}


def config_echo_lines(spec: SweepSpec) -> list[str]:
    """Effective configuration as '#' comment lines for output-file headers."""
    lines = [f"# {k} = {v}" for k, v in config_record(spec.base).items()]
    lines.append("# [sweep]")
    for key in _SWEEP:
        value = getattr(spec, key)
        lines.append(f"# {key} = {', '.join(map(str, value)) if key in TYPES else value}")
    return lines


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def result_row(result: CellResult, config: ScenarioConfig) -> str:
    theta_deg, n_nodes, d, trials, *metrics = astuple(result)
    return ",".join(map(_fmt, (theta_deg, n_nodes, d, config.radius,
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
