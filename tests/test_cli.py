"""CLI: config ingestion, commands, CSV/JSON/SVG emission, exit codes."""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace

import pytest

from sectorcast import cli, configio, experiments
from sectorcast.experiments import (DEFAULT_D_GRID, DEFAULT_N_GRID, DEFAULT_THETA_GRID_DEG,
                                    MAX_CELL_TRIALS, MAX_CELLS, MAX_TRIALS, SweepSpec, run_sweep)
from sectorcast.scenario import MAX_NODES, ConfigError, Placement, ScenarioConfig

from oracles import read_results_csv

BASE_TEXT = """\
# small test field
square_side = 1500
n_nodes = 100
radius = 200
theta_deg = 90
d = 600
seed = 11
placement = fixed
direction_error_deg = 0

[sweep]
theta_deg = 45, 90
n_nodes = 60, 100
d = 600
trials = 3
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "field.cfg"
    path.write_text(BASE_TEXT)
    return str(path)


def run_cli(*argv):
    return cli.main(list(argv))


# ---------------------------------------------------------------- config file

def test_parse_config_text_roundtrip():
    base, sweep = configio.parse_config_text(BASE_TEXT)
    cfg = configio.to_scenario_config(base)
    assert cfg.square_side == 1500.0
    assert cfg.n_nodes == 100
    assert cfg.theta_deg == 90.0
    assert cfg.d == 600.0
    assert cfg.placement is Placement.FIXED_COUNT
    spec = configio.to_sweep_spec(cfg, sweep)
    assert spec.trials == 3
    assert spec.n_nodes == (60, 100)
    assert spec.theta_deg == (45.0, 90.0)


def test_config_record_and_echo_read_back_to_the_same_config():
    # the record and the '#' echo name every key under its file key and
    # print each angle as entered, so reading them back gives the same
    # config and spec; every half degree is checked, as theta_deg, in the
    # [sweep] theta_deg list and, up to 180, as direction_error_deg
    base, sweep = configio.parse_config_text(BASE_TEXT)
    configio.apply_overrides(base, sweep, ["placement=poisson"])

    def read_back(base, sweep):
        cfg = configio.to_scenario_config(base)
        spec = configio.to_sweep_spec(cfg, sweep)
        record = configio.config_record(cfg)
        assert record.keys() == base.keys()
        text = "".join(f"{key} = {value}\n" for key, value in record.items())
        assert configio.to_scenario_config(configio.parse_config_text(text)[0]) == cfg
        echo = [line.removeprefix("# ") for line in configio.config_echo_lines(spec)]
        echo_base, echo_sweep = configio.parse_config_text("\n".join(echo))
        assert echo_sweep.keys() == {"theta_deg", "n_nodes", "d", "trials"}
        assert configio.to_sweep_spec(configio.to_scenario_config(echo_base), echo_sweep) == spec
        return record, echo

    record, _ = read_back(base, sweep)
    assert record["placement"] == "poisson"
    halves = [f"{v / 2:g}" for v in range(721)]
    for text in halves:
        keys = ["theta_deg"] * (text != "0") + ["direction_error_deg"] * (float(text) <= 180)
        for key in keys:
            record, echo = read_back({**base, key: text}, sweep)
            assert f"{record[key]}" == repr(float(text))
            assert f"{key} = {float(text)!r}" in echo
    _, echo = read_back(base, {**sweep, "theta_deg": ", ".join(halves[1:])})
    assert f"theta_deg = {', '.join(repr(float(t)) for t in halves[1:])}" in echo


def test_parse_config_reports_line_numbers():
    with pytest.raises(ConfigError, match="cfg:2"):
        configio.parse_config_text("square_side = 10\nbogus_key = 3\n", "cfg")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        configio.parse_config_text("just some words\n")
    with pytest.raises(ConfigError, match="unknown section"):
        configio.parse_config_text("[mystery]\n")


def test_overrides_apply_and_reject_unknown():
    base, sweep = configio.parse_config_text(BASE_TEXT)
    configio.apply_overrides(base, sweep, ["n_nodes=250", "sweep.trials=7"])
    assert base["n_nodes"] == "250"
    assert sweep["trials"] == "7"
    with pytest.raises(ConfigError, match="unknown override key"):
        configio.apply_overrides(base, sweep, ["no_such_key=1"])
    with pytest.raises(ConfigError, match="unknown sweep override"):
        configio.apply_overrides(base, sweep, ["sweep.what=1"])
    with pytest.raises(ConfigError, match="key=value"):
        configio.apply_overrides(base, sweep, ["oops"])


def test_placement_parse_error():
    with pytest.raises(ConfigError, match="placement"):
        configio.to_scenario_config({"placement": "grid"})


def test_unreadable_config_file_exits_2(tmp_path, capsys):
    # a missing file and one that is not UTF-8; every command loads alike
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"n_nodes = 10\xff\n")
    for path in (tmp_path / "missing.cfg", bad):
        assert run_cli("model", "--config", str(path)) == 2
        assert "config error: cannot read config file: " in capsys.readouterr().err


def test_atomic_write_leaves_nothing_when_the_text_cannot_be_encoded(tmp_path):
    target = tmp_path / "out.txt"
    with pytest.raises(UnicodeEncodeError):
        configio.atomic_write_text(str(target), "ok\ud800")
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------------- simulate

def test_simulate_deterministic_record(tmp_path, config_file, capsys):
    out = tmp_path / "run.json"
    assert run_cli("simulate", "--config", config_file, "--out", str(out)) == 0
    first = out.read_bytes()
    record = json.loads(first)
    assert record["config"]["seed"] == 11
    assert record["outcome"]["rounds"] >= 1
    assert "result:" in capsys.readouterr().out
    assert run_cli("simulate", "--config", config_file, "--out", str(out)) == 0
    assert out.read_bytes() == first


def test_simulate_one_hop_delivery(tmp_path, capsys):
    out = tmp_path / "hop.json"
    code = run_cli("simulate", "--set", "n_nodes=0", "--set", "d=150",
                   "--set", "radius=200", "--out", str(out))
    assert code == 0
    record = json.loads(out.read_text())
    assert record["outcome"]["success"] is True
    assert record["outcome"]["first_delivery_hop"] == 1
    assert record["outcome"]["implicated_count"] == 1
    assert "delivered" in capsys.readouterr().out


def test_simulate_config_error_exit_code(tmp_path, config_file, capsys):
    # the message names the key as typed, and angles in degrees
    for typed in ("theta_deg=400", "d=9999", "direction_error_deg=200"):
        code = run_cli("simulate", "--config", config_file,
                       "--set", typed, "--out", str(tmp_path / "x.json"))
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err
        key = typed.split("=")[0]
        if key.endswith("_deg"):
            assert f"{key} must be in" in err and "radians" not in err and "pi]" not in err
    # a sweep cell's angle is reported in degrees too
    code = run_cli("sweep", "--config", config_file, "--set", "sweep.theta_deg=400",
                   "--out", str(tmp_path / "x.csv"))
    assert code == 2
    err = capsys.readouterr().err
    assert "theta_deg" in err and "400" in err
    assert "radians" not in err and "2*pi" not in err


@pytest.mark.parametrize("typed", [
    "square_side=0", "n_nodes=-1", "n_nodes=1.5", "radius=-5", "theta_deg=400", "d=9999",
    "d=1e-17", "seed=-3", "placement=random", "direction_error_deg=200",
    "sweep.theta_deg=400", "sweep.n_nodes=x", "sweep.d=9999", "sweep.trials=0",
])
def test_config_errors_name_the_typed_key(tmp_path, config_file, capsys, typed):
    key, value = typed.removeprefix("sweep.").split("=")
    command = "sweep" if typed.startswith("sweep.") else "simulate"
    assert run_cli(command, "--config", config_file, "--set", typed,
                   "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert re.search(rf"\b{key} (must|{re.escape(value)}\b)", err), err
    assert "_distance" not in err  # the old field name for d


def test_simulate_smallest_placeable_distance_delivers_in_one_hop(tmp_path):
    # at side 1 m, d = 1e-15 still gives two endpoint x values (1e-17 does
    # not, and exits 2)
    out = tmp_path / "x.json"
    assert run_cli("simulate", "--set", "square_side=1", "--set", "radius=0.1", "--set",
                   "n_nodes=0", "--set", "d=1e-15", "--out", str(out)) == 0
    assert json.loads(out.read_text())["outcome"]["first_delivery_hop"] == 1


def test_oversized_inputs_exit_2_before_any_allocation(tmp_path, monkeypatch, capsys):
    def no_flood(*args, **kwargs):
        raise AssertionError("an oversized input reached the simulator")

    monkeypatch.setattr(cli, "generate", no_flood)
    monkeypatch.setattr(experiments, "generate", no_flood)
    for argv, message in (
        (["simulate", "--set", "n_nodes=1000000000000"], "n_nodes must be in [0, 1000000]"),
        (["snapshot", "--set", f"n_nodes={MAX_NODES + 1}"], "n_nodes must be in"),
        (["sweep", "--set", "sweep.n_nodes=1000,1000000000000"], "n_nodes must be in"),
        (["sweep", "--set", f"sweep.trials={MAX_TRIALS + 1}"], "trials must be in [1, 100000]"),
        (["compare", "--set", "sweep.trials=1000000000000"], "trials must be in"),
        # (side + d) / 2 would overflow to inf
        (["simulate", "--set", "square_side=1.7e308", "--set", "d=8e307", "--set",
          "radius=1e307"], "square_side must be in [1e-100, 1e+100] m"),
        # (side - d) / 2 and (side + d) / 2 would be one double
        (["simulate", "--set", "square_side=1", "--set", "radius=0.1", "--set", "d=1e-17"],
         "both endpoints round to one point"),
        (["sweep", "--set", "sweep.theta_deg=,"], "field theta_deg: empty list"),
    ):
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_oversized_sweeps_exit_2_before_the_sweep(tmp_path, monkeypatch, capsys):
    # the default grid is admitted at MAX_TRIALS; more theta values, or many
    # more N values at one trial, take it past a sweep bound before any cell
    # is built
    def no_sweep(*args, **kwargs):
        raise AssertionError("an oversized sweep started")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    monkeypatch.setattr(SweepSpec, "cells", no_sweep)
    per_theta = len(DEFAULT_N_GRID) * len(DEFAULT_D_GRID)
    per_n = len(DEFAULT_THETA_GRID_DEG) * len(DEFAULT_D_GRID)
    SweepSpec(ScenarioConfig(), trials=MAX_TRIALS)
    assert len(DEFAULT_THETA_GRID_DEG) * per_theta * MAX_TRIALS <= MAX_CELL_TRIALS
    thetas = MAX_CELL_TRIALS // (per_theta * MAX_TRIALS) + 1
    ns = MAX_CELLS // per_n + 1
    bounds = f"passes MAX_CELLS = {MAX_CELLS} or MAX_CELL_TRIALS = {MAX_CELL_TRIALS}"
    for argv, message in (
        (["sweep", "--set", f"sweep.theta_deg={', '.join(str(k + 1.0) for k in range(thetas))}",
          "--set", f"sweep.trials={MAX_TRIALS}"],
         f"a sweep of {thetas * per_theta} cells x {MAX_TRIALS} trials {bounds}"),
        (["compare", "--set", f"sweep.n_nodes={', '.join(map(str, range(ns)))}",
          "--set", "sweep.trials=1"], f"a sweep of {ns * per_n} cells x 1 trials {bounds}"),
    ):
        out = tmp_path / "out.csv"
        assert run_cli(*argv, "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "snapshot", "model", "sweep", "compare"])
def test_config_then_output_path_then_work(tmp_path, config_file, monkeypatch, capsys,
                                           command):
    # every command checks its config, then its output path, before it
    # generates a field, runs a sweep or builds a chain
    def no_work(*args, **kwargs):
        raise AssertionError(f"{command} computed before its checks")

    for owner, name in ((cli, "generate"), (experiments, "generate"), (cli, "run_sweep"),
                        (cli, "build_leaf")):
        monkeypatch.setattr(owner, name, no_work)
    missing = str(tmp_path / "missing_dir" / "out")
    assert run_cli(command, "--config", config_file, "--set", "radius=-5",
                   "--out", missing) == 2
    assert "config error: radius must be positive" in capsys.readouterr().err
    assert run_cli(command, "--config", config_file, "--out", missing) == 3
    assert "i/o error: output directory does not exist" in capsys.readouterr().err


def test_workers_only_on_sweep_and_compare_and_at_least_one(tmp_path, config_file, capsys):
    for command in ("sweep", "compare"):
        for bad in ("0", "-3"):
            out = tmp_path / f"{command}{bad}.csv"
            code = run_cli(command, "--config", config_file, "--workers", bad, "--out", str(out))
            assert code == 2
            assert f"--workers must be >= 1, got {bad}" in capsys.readouterr().err
            assert not out.exists()
        # --workers is part of the config: checked before the output path
        assert run_cli(command, "--config", config_file, "--workers", "0",
                       "--out", str(tmp_path / "missing_dir" / "x.csv")) == 2
        assert "config error: --workers must be >= 1, got 0" in capsys.readouterr().err
    for command in ("simulate", "snapshot", "model"):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--config", config_file, "--workers", "2",
                    "--out", str(tmp_path / command))
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err


def test_seed_flag_overrides_config(tmp_path, config_file, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli("simulate", "--config", config_file, "--seed", "99", "--out", str(a))
    run_cli("simulate", "--config", config_file, "--seed", "99", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["config"]["seed"] == 99
    # --seed is the last seed override: it beats --set seed=... in either
    # order, and replaces the file's seed line before that line is parsed
    bad_seed = tmp_path / "bad_seed.cfg"
    bad_seed.write_text(BASE_TEXT.replace("seed = 11", "seed = -3"))
    for argv in (["--config", config_file, "--seed", "5", "--set", "seed=7"],
                 ["--config", config_file, "--set", "seed=7", "--seed", "5"],
                 ["--config", str(bad_seed), "--seed", "5"]):
        assert run_cli("simulate", *argv, "--out", str(a)) == 0
        assert json.loads(a.read_text())["config"]["seed"] == 5
    capsys.readouterr()
    assert run_cli("simulate", "--config", config_file, "--seed", "-1", "--out", str(a)) == 2
    assert "seed must be an unsigned 64-bit integer" in capsys.readouterr().err


def test_flags_do_not_leak_into_the_next_call(tmp_path, config_file):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert run_cli("simulate", "--config", config_file, "--set", "n_nodes=5",
                   "--seed", "3", "--out", str(first)) == 0
    assert run_cli("simulate", "--config", config_file, "--out", str(second)) == 0
    assert cli.build_parser() is cli.build_parser()
    configs = [json.loads(path.read_text())["config"] for path in (first, second)]
    assert [(c["n_nodes"], c["seed"]) for c in configs] == [(5, 3), (100, 11)]


def test_one_shot_commands_leave_scipy_unloaded(tmp_path, config_file):
    code = f"""
import sys
from sectorcast import cli
for command in ("simulate", "snapshot", "model"):
    assert cli.main([command, "--config", {config_file!r},
                     "--out", {str(tmp_path)!r} + "/" + command]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.splitlines()[-1] == "[]"
    assert {p.name for p in tmp_path.iterdir()} >= {"simulate", "snapshot", "model"}


# ---------------------------------------------------------------------- sweep

def test_sweep_csv_matches_library_results(tmp_path, config_file):
    out = tmp_path / "grid.csv"
    assert run_cli("sweep", "--config", config_file, "--out", str(out)) == 0
    text = out.read_text()
    assert text.startswith("#")
    rows = read_results_csv(str(out))
    assert len(rows) == 4  # 2 theta x 2 N x 1 d

    base, sweep = configio.parse_config_text(BASE_TEXT)
    cfg = configio.to_scenario_config(base)
    spec = configio.to_sweep_spec(cfg, sweep)
    expect = run_sweep(spec)
    for row, res in zip(rows, expect):
        assert row["theta_deg"] == res.theta_deg
        assert row["n_nodes"] == res.n_nodes
        assert row["success_rate"] == res.success_rate
        assert row["implicated_ratio_mean"] == res.implicated_ratio_mean
        assert row["bandwidth_gain"] == res.bandwidth_gain
        assert row["model_ratio"] == res.model_ratio
        assert row["model_relative_error"] == res.model_relative_error
    # a library caller's integer degrees and lengths write the CLI's bytes:
    # 90.0 and 1500.0, not 90 and 1500
    whole = SweepSpec(replace(cfg, theta_deg=90, direction_error_deg=0, square_side=1500,
                              radius=200, d=600),
                      theta_deg=(45, 90), n_nodes=spec.n_nodes, d=(600,),
                      trials=spec.trials)
    assert configio.results_csv_text(run_sweep(whole), whole) == text


def test_library_integer_lengths_write_the_cli_record(tmp_path, config_file):
    out = tmp_path / "sim.json"
    assert run_cli("simulate", "--config", config_file, "--out", str(out)) == 0
    whole = ScenarioConfig(square_side=1500, n_nodes=100, radius=200, theta_deg=90,
                           d=600, seed=11)
    assert (json.dumps(configio.config_record(whole), sort_keys=True)
            == json.dumps(json.loads(out.read_text())["config"], sort_keys=True))


@pytest.mark.parametrize("command, ns, tail", [
    ("sweep", "60, 300", "4 model-eligible cells: 3.9895 "
                         "(theta 90 deg, N 60, d 600 m, success rate 0)"),
    ("compare", "300", "2 model-eligible cells: 0.4549 "
                       "(theta 45 deg, N 300, d 600 m, success rate 0.666667)"),
])
def test_summary_names_the_worst_model_cell(tmp_path, config_file, capsys, command, ns,
                                            tail):
    # the largest |model relative error| comes with its cell and that cell's
    # success rate, since a cell with no success does not test the model
    out = tmp_path / "worst.csv"
    assert run_cli(command, "--config", config_file, "--set", f"sweep.n_nodes={ns}",
                   "--out", str(out)) == 0
    rows = [r for r in read_results_csv(str(out)) if r["model_relative_error"] is not None]
    worst = max(rows, key=lambda r: abs(r["model_relative_error"]))
    line = capsys.readouterr().out.splitlines()[-1]
    assert line == (f"max |model relative error| over {len(rows)} model-eligible cells: "
                    f"{abs(worst['model_relative_error']):.4f} (theta {worst['theta_deg']:g} deg, "
                    f"N {worst['n_nodes']}, d {worst['d_m']:g} m, "
                    f"success rate {worst['success_rate']:g})")
    assert line == "max |model relative error| over " + tail


def test_sweep_rerun_byte_identical(tmp_path, config_file):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli("sweep", "--config", config_file, "--out", str(a))
    run_cli("sweep", "--config", config_file, "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_sweep_default_grid_has_54_rows(tmp_path):
    out = tmp_path / "grid54.csv"
    code = run_cli("sweep", "--set", "sweep.trials=1", "--set", "n_nodes=40",
                   "--set", "sweep.n_nodes=20, 30, 40",
                   "--set", "sweep.d=1000, 2000, 3000",
                   "--out", str(out))
    assert code == 0
    assert len(read_results_csv(str(out))) == 54


@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_full_circle_cells_have_empty_model_fields(tmp_path, command):
    # theta = 360 deg is a valid flood but has no triangle chain
    def run(thetas):
        out = tmp_path / f"{command}-{len(thetas)}.csv"
        assert run_cli(command, "--set", f"sweep.theta_deg={thetas}",
                       "--set", "sweep.n_nodes=10", "--set", "sweep.d=1000",
                       "--set", "d=1000", "--set", "sweep.trials=2",
                       "--out", str(out)) == 0
        return out

    both = run("90, 360")
    quarter, full = read_results_csv(str(both))
    assert full["theta_deg"] == 360.0
    assert full["model_ratio"] is None and full["model_relative_error"] is None
    assert quarter["model_ratio"] is not None
    # the 90 deg row is the same text as in a sweep without the 360 deg cell
    assert run("90").read_text().splitlines()[-1] == both.read_text().splitlines()[-2]


def test_duplicate_sweep_values_give_duplicate_rows(tmp_path, config_file):
    # a value listed twice is two cells, each with its own sweep.trials trials
    def run(*sets):
        out = tmp_path / f"dup-{len(sets)}.csv"
        argv = [arg for kv in sets for arg in ("--set", kv)]
        assert run_cli("sweep", "--config", config_file, *argv, "--set", "sweep.trials=5",
                       "--out", str(out)) == 0
        return [line for line in out.read_text().splitlines() if not line.startswith("#")][1:]

    single = run("sweep.theta_deg=90", "sweep.n_nodes=100")
    doubled = run("sweep.theta_deg=90, 90", "sweep.n_nodes=100, 100", "sweep.d=600, 600")
    assert len(single) == 1 and doubled == single * 8
    assert read_results_csv(str(tmp_path / "dup-3.csv"))[0]["trials"] == 5


def test_sweep_unwritable_output_fails_fast(tmp_path, config_file, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("sweep ran before its output path was checked")

    monkeypatch.setattr(cli, "run_sweep", no_work)
    (tmp_path / "taken").mkdir()
    for out, cause in ((tmp_path / "missing_dir" / "x.csv", "output directory does not exist"),
                       (tmp_path / "taken", "output path is a directory")):
        assert run_cli("sweep", "--config", config_file, "--out", str(out)) == 3
        assert f"i/o error: {cause}" in capsys.readouterr().err
    # a directory that denies writing: os.access passes for root, so deny it here
    access = os.access
    monkeypatch.setattr(configio.os, "access",
                        lambda path, mode: not mode & os.W_OK and access(path, mode))
    assert run_cli("sweep", "--config", config_file, "--out", str(tmp_path / "x.csv")) == 3
    assert "i/o error: output directory is not writable" in capsys.readouterr().err


# -------------------------------------------------------------------- compare

def test_compare_single_theta_single_row(tmp_path, config_file, capsys):
    out = tmp_path / "cmp.csv"
    code = run_cli("compare", "--config", config_file,
                   "--set", "sweep.theta_deg=90", "--set", "sweep.n_nodes=100",
                   "--out", str(out))
    assert code == 0
    rows = read_results_csv(str(out))
    assert len(rows) == 1
    assert rows[0]["model_ratio"] is not None
    assert rows[0]["model_relative_error"] is not None
    assert "max |model relative error|" in capsys.readouterr().out


def test_compare_uses_base_distance_only(tmp_path, config_file):
    out = tmp_path / "cmp2.csv"
    # the [sweep] d list is ignored by compare; base d = 600 is used
    run_cli("compare", "--config", config_file, "--set", "sweep.d=600, 700",
            "--out", str(out))
    rows = read_results_csv(str(out))
    assert {row["d_m"] for row in rows} == {600.0}
    assert len(rows) == 4  # 2 theta x 2 N


# ---------------------------------------------------------------------- model

def test_model_report_matches_oracle(capsys):
    assert run_cli("model", "--set", "d=1000", "--set", "radius=200",
                   "--set", "theta_deg=60", "--set", "square_side=4000") == 0
    out = capsys.readouterr().out
    assert "triangles per side: 5" in out
    assert "832.820412" in out
    assert "254874.52" in out
    assert "0.0159296577" in out


def test_model_degenerate_reports_zero_leaf(capsys):
    assert run_cli("model", "--set", "d=150", "--set", "radius=200") == 0
    out = capsys.readouterr().out
    assert "degenerate" in out
    assert "triangles per side: 0" in out


@pytest.mark.parametrize("setting, cause", [
    ("theta_deg=360", "theta_deg must be below 360"),
    ("d=0", "d must be positive"),
    # about 1e12 triangles: the bound stops the chain in well under a second
    ("radius=1e-9", "passes MAX_TRIANGLES = 100000 triangles per side"),
])
def test_model_without_chain_is_config_error(capsys, setting, cause):
    assert run_cli("model", "--set", setting) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: no triangle-chain model" in captured.err
    assert cause in captured.err
    assert "2*pi" not in captured.err and "6.283" not in captured.err  # degrees, as entered


def test_model_flagged_chain_notes_truncation(capsys):
    assert run_cli("model", "--set", "d=1000", "--set", "radius=200",
                   "--set", "theta_deg=135") == 0
    assert "cannot fall below r" in capsys.readouterr().out


def test_model_optional_file_output(tmp_path, capsys):
    out = tmp_path / "model.txt"
    run_cli("model", "--set", "d=1000", "--out", str(out))
    stdout = capsys.readouterr().out
    assert out.read_text() == stdout


# ------------------------------------------------------------------- snapshot

def test_snapshot_layers_and_determinism(tmp_path, config_file):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    assert run_cli("snapshot", "--config", config_file, "--out", str(a)) == 0
    run_cli("snapshot", "--config", config_file, "--out", str(b))
    svg = a.read_text()
    for layer in ("field", "nodes", "implicated", "chain", "endpoints"):
        assert f'<g id="{layer}">' in svg
    assert "<polygon" in svg  # chain overlay present when d > r
    assert a.read_bytes() == b.read_bytes()


def test_snapshot_empty_field(tmp_path):
    out = tmp_path / "empty.svg"
    run_cli("snapshot", "--set", "n_nodes=0", "--set", "d=150", "--out", str(out))
    svg = out.read_text()
    assert svg.count("<circle") == 2  # endpoints only
    assert "<polygon" not in svg  # no chain when d <= r


def test_snapshot_past_the_chain_bound_draws_no_chain(tmp_path):
    out = tmp_path / "tiny-radius.svg"
    assert run_cli("snapshot", "--set", "radius=1e-9", "--set", "n_nodes=50",
                   "--out", str(out)) == 0
    svg = out.read_text()
    assert '<g id="chain">\n</g>' in svg and "<polygon" not in svg


def test_sweep_past_the_chain_bound_has_empty_model_fields(tmp_path):
    out = tmp_path / "tiny-radius.csv"
    assert run_cli("sweep", "--set", "radius=1e-9", "--set", "sweep.theta_deg=90",
                   "--set", "sweep.n_nodes=50", "--set", "sweep.d=1000",
                   "--set", "sweep.trials=2", "--out", str(out)) == 0
    [row] = read_results_csv(str(out))
    assert row["model_ratio"] is None and row["model_relative_error"] is None
    assert row["success_rate"] == 0.0


# ------------------------------------------------------------------ outputs

def test_output_dir_env_var(tmp_path, config_file, monkeypatch):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    assert run_cli("simulate", "--config", config_file, "--out", "rel.json") == 0
    assert (tmp_path / "rel.json").exists()


def test_default_output_name(tmp_path, config_file, monkeypatch):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    assert run_cli("snapshot", "--config", config_file) == 0
    assert (tmp_path / "snapshot.svg").exists()
