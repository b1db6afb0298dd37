"""The benchmark's call sites still name callables of the library.

bench/spans.py replaces attributes such as ``experiments.propagate`` with
span wrappers; a refactor that drops or renames one would break
``bench/run.py --trace 1``.  The module is loaded from its file and only
its site list is read, or its wrappers are installed around one run of
each command to check that the run records the spans the benchmark's
metrics are summed from.  bench/run.py's set-up snippet calls ``configio``
directly, so it is run as the benchmark runs it, and its imports are listed
to check that set-up loads no scipy module.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sectorcast import cli, configio, engine, experiments, leafmodel

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def setup_snippet() -> str:
    """bench/run.py's _SETUP_SNIPPET, read without importing the runner."""
    tree = ast.parse((ROOT / "bench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["_SETUP_SNIPPET"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py has no _SETUP_SNIPPET")


def test_every_trace_site_is_a_callable_attribute():
    sites = load_spans().call_sites(cli, configio, engine, experiments, leafmodel)
    assert sites
    for name, owner, attr, _ in sites:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"


def test_setup_snippet_loads_sample_cfg_in_a_fresh_interpreter():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-X", "importtime", "-c", setup_snippet(),
                          str(ROOT / "sample.cfg")],
                         capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
                         check=True)
    out = run.stdout.split()
    assert len(out) == 1
    assert float(out[0]) > 0.0
    # setup_s times this snippet: it must not pay for the imports of scipy or
    # of the process pool, which only a sweep over several workers uses
    imported = [line.split("|")[-1].strip() for line in run.stderr.splitlines()
                if line.startswith("import time:")]
    assert "sectorcast.configio" in imported
    assert [name for name in imported
            if name.split(".")[0] in ("scipy", "multiprocessing")] == []


SMALL_CFG = """\
square_side = 1500
n_nodes = 100
radius = 200
theta_deg = 90
d = 600
seed = 11

[sweep]
theta_deg = 45, 90
n_nodes = 60
d = 600
trials = 2
"""
ONE_FLOOD = {"cli.main", "scenario.generate", "engine.propagate", "configio.atomic_write_text"}
SWEEP = {"experiments.run_sweep", "scenario.derive_seed", "engine.build_index",
         "engine.candidates"}


@pytest.mark.parametrize("command, expected", [
    ("simulate", ONE_FLOOD),
    ("snapshot", ONE_FLOOD | {"render.render_svg"}),
    ("model", {"cli.main", "leafmodel.build_leaf", "configio.atomic_write_text"}),
    ("sweep", SWEEP),    # one worker: spans in pool workers are lost
    ("compare", SWEEP),
])
def test_each_command_records_its_spans(tmp_path, command, expected):
    # a library name bound locally (from ... import inside a function, a
    # default argument) would bypass the wrapper and read 0 under --trace 1
    spans = load_spans()
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_CFG)
    tracer = spans.Tracer()
    tracer.op = 0
    with spans.installed(tracer, spans.call_sites(cli, configio, engine, experiments,
                                                  leafmodel)):
        assert cli.main([command, "--config", str(config),
                         "--out", str(tmp_path / command)]) == 0
    recorded = tracer.summary([0])
    assert expected <= recorded.keys(), sorted(expected - recorded.keys())
