"""Output checks for the benchmark's ops, written independently of sectorcast.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET

CSV_COLUMNS = (
    "theta_deg", "n_nodes", "d_m", "r_m", "square_side_m", "trials",
    "success_rate", "success_ci", "implicated_ratio_mean",
    "implicated_ratio_std", "bandwidth_gain", "mean_hops_success",
    "model_ratio", "model_relative_error",
)

_SVG = "{http://www.w3.org/2000/svg}"
_SVG_GROUPS = ("field", "nodes", "implicated", "chain", "endpoints")


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def check_sweep_csv(text: str, workload, seed: int) -> list[str]:
    """Columns, (d, N, theta) row order, value ranges and the gain identity."""
    problems = []
    lines = text.splitlines()
    if f"# seed = {seed}" not in lines:
        problems.append(f"config echo lacks '# seed = {seed}'")
    body = [line for line in lines if line and not line.startswith("#")]
    if not body or tuple(body[0].split(",")) != CSV_COLUMNS:
        return problems + [f"unexpected CSV header: {body[:1]}"]
    rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in body[1:]]
    expected = workload.cells()
    if len(rows) != len(expected):
        return problems + [f"{len(rows)} rows, expected {len(expected)}"]
    trials = workload.trials
    for i, (row, (d, n, theta)) in enumerate(zip(rows, expected)):
        where = f"row {i} (d={d:g}, N={n}, theta={theta:g})"
        try:
            got_theta = float(row["theta_deg"])
            rate = float(row["success_rate"])
            ratio = float(row["implicated_ratio_mean"])
            gain = float(row["bandwidth_gain"])
            hops = float(row["mean_hops_success"])
            cells = (float(row["d_m"]), int(row["n_nodes"]), int(row["trials"]))
        except ValueError as exc:
            problems.append(f"{where}: unparsable value ({exc})")
            continue
        if cells != (d, n, trials) or not math.isclose(got_theta, theta, rel_tol=1e-12):
            problems.append(f"{where}: out of (d, N, theta) order or wrong trials: {row}")
        if not 0.0 <= rate <= 1.0 or not _close(rate * trials, round(rate * trials)):
            problems.append(f"{where}: success_rate {rate} not k/{trials} in [0, 1]")
        if not 0.0 < ratio <= 1.0:
            problems.append(f"{where}: implicated_ratio_mean {ratio} not in (0, 1]")
        if not _close(gain, ratio * got_theta / 360.0):
            problems.append(f"{where}: bandwidth_gain {gain} != ratio * theta / 360")
        if (rate == 0.0) != math.isnan(hops) or (rate > 0.0 and hops < 1.0):
            problems.append(f"{where}: mean_hops_success {hops} inconsistent with rate {rate}")
    return problems


def check_simulate_json(text: str, seed: int, n_nodes: int) -> tuple[list[str], int]:
    """Problems plus the implicated count (-1 when unreadable)."""
    try:
        record = json.loads(text)
        config, outcome = record["config"], record["outcome"]
        count = int(outcome["implicated_count"])
        per_round = list(outcome["per_round_transmitters"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"simulate JSON unreadable: {exc}"], -1
    problems = []
    if config.get("seed") != seed or config.get("n_nodes") != n_nodes:
        problems.append(f"simulate config echo {config} does not match seed {seed}, N {n_nodes}")
    if per_round[:1] != [1] or sum(per_round) != count or outcome.get("rounds") != len(per_round):
        problems.append(f"simulate transmitter accounting inconsistent: {outcome}")
    if not _close(outcome.get("implicated_ratio", -1.0), count / (n_nodes + 1)):
        problems.append("simulate implicated_ratio != implicated_count / (N + 1)")
    if bool(outcome.get("success")) != (outcome.get("first_delivery_hop") is not None):
        problems.append("simulate success and first_delivery_hop disagree")
    return problems, count


def check_snapshot_svg(text: str, n_nodes: int, implicated_count: int) -> list[str]:
    """The SVG parses, has every layer group and one dot per node."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"snapshot SVG does not parse: {exc}"]
    if root.tag != _SVG + "svg":
        return [f"snapshot root element is {root.tag}"]
    groups = {g.get("id"): g for g in root.findall(_SVG + "g")}
    missing = [g for g in _SVG_GROUPS if g not in groups]
    if missing:
        return [f"snapshot lacks groups {missing}"]
    plain = len(groups["nodes"].findall(_SVG + "circle"))
    marked = len(groups["implicated"].findall(_SVG + "circle"))
    problems = []
    if plain + marked != n_nodes:
        problems.append(f"snapshot draws {plain + marked} nodes, expected {n_nodes}")
    if marked != implicated_count - 1:  # the source is drawn as an endpoint
        problems.append(f"snapshot marks {marked} relays, simulate implicated {implicated_count}")
    return problems


def check_model_text(text: str) -> list[str]:
    """The model report ends with a predicted ratio in (0, 1]."""
    prefix = "predicted implicated ratio: "
    lines = [line for line in text.splitlines() if line.startswith(prefix)]
    try:
        ratio = float(lines[-1][len(prefix):])
    except (IndexError, ValueError):
        return ["model output lacks a predicted implicated ratio"]
    if not 0.0 < ratio <= 1.0 or "total area:" not in text:
        return [f"model output implausible: ratio {ratio}"]
    return []
