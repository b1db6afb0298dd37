"""tools/ab.py: sweeps alternated between two copies of the package.

The tool is loaded from its file.  A copy of src/sectorcast under another
name stands in for the base revision, so only the tests that extract HEAD
need git.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def ab(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts src/ and bench/ first
    spec = importlib.util.spec_from_file_location("tools_ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def copy(tmp_path, monkeypatch):
    """src/sectorcast imported as package sectorcast_copy."""
    shutil.copytree(ROOT / "src" / "sectorcast", tmp_path / "sectorcast_copy",
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.syspath_prepend(str(tmp_path))
    yield "sectorcast_copy"
    for name in [m for m in sys.modules if m.partition(".")[0] == "sectorcast_copy"]:
        del sys.modules[name]


def test_compare_times_identical_sweeps_of_two_copies(ab, copy):
    report = ab.compare(copy, "sectorcast", ab.WORKLOADS["grid-narrow"], seed=1, pairs=2)
    assert report["pairs"] == 2 and 0 <= report["tree_wins"] <= 2
    for key in ("ratio", "base_ms", "tree_ms"):
        assert 0.0 < report[key]["q1"] <= report[key]["median"] <= report[key]["q3"]


def test_compare_stops_when_the_cell_results_differ(ab, copy, monkeypatch):
    experiments = importlib.import_module(f"{copy}.experiments")
    run_sweep = experiments.run_sweep
    monkeypatch.setattr(experiments, "run_sweep", lambda spec, workers: run_sweep(spec)[1:])
    with pytest.raises(SystemExit, match="pair 0 .* the CellResults differ"):
        ab.compare(copy, "sectorcast", ab.WORKLOADS["grid-narrow"], seed=1, pairs=2)


@pytest.mark.skipif(not (ROOT / ".git").exists() or shutil.which("git") is None,
                    reason="needs a git checkout")
def test_extract_writes_a_revision_of_the_package(ab, tmp_path):
    ab.extract("HEAD", tmp_path, "sectorcast_head")
    listed = subprocess.run(["git", "ls-tree", "-r", "--name-only", "HEAD", "src/sectorcast"],
                            cwd=ROOT, capture_output=True, text=True, check=True).stdout.split()
    assert sorted(p.name for p in (tmp_path / "sectorcast_head").iterdir()) == sorted(
        Path(p).name for p in listed)


SMALL_SWEEP = """\
square_side = 1500
n_nodes = 100
radius = 200
theta_deg = 90
d = 600
seed = 11

[sweep]
theta_deg = 45, 135
n_nodes = 60, 100
d = 600
trials = 3
"""


def test_compare_runs_the_sweep_of_a_config_file(ab, copy, tmp_path):
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_SWEEP, encoding="utf-8")
    workload = ab.ConfigSweep(config)
    report = ab.compare(copy, "sectorcast", workload, seed=2, pairs=2)
    assert report["workload"] == str(config) and report["pairs"] == 2
    # the config's seed gives way to the op seed, as a workload's does
    spec = ab.sweep_spec("sectorcast", workload, ab.op_seed(2, 1))
    assert spec.base.seed == ab.op_seed(2, 1) and spec.trials == 3 and workload.workers == 1


@pytest.mark.skipif(not (ROOT / ".git").exists() or shutil.which("git") is None,
                    reason="needs a git checkout")
def test_main_takes_a_config_file_in_place_of_a_workload(ab, tmp_path, capsys):
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_SWEEP, encoding="utf-8")
    assert ab.main(["--config", str(config), "--pairs", "2"]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (report["base"], report["workload"], report["pairs"]) == ("HEAD", str(config), 2)
    with pytest.raises(SystemExit) as refused:
        ab.main(["--config", str(config), "--workload", "grid-narrow"])
    assert refused.value.code == 2
