"""The benchmark's call sites still name callables of the library.

bench/spans.py replaces attributes such as ``experiments.propagate`` with
span wrappers; a refactor that drops or renames one would break
``bench/run.py --trace 1``.  The module is loaded from its file and only
its site list is read; no wrapper is installed.  bench/run.py's set-up
snippet calls ``configio`` directly, so it is run as the benchmark runs it,
and its imports are listed to check that set-up loads no scipy module.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

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
    # setup_s times this snippet: it must not pay for scipy's import
    imported = [line.split("|")[-1].strip() for line in run.stderr.splitlines()
                if line.startswith("import time:")]
    assert "sectorcast.configio" in imported
    assert [name for name in imported if name.split(".")[0] == "scipy"] == []
