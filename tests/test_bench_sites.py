"""The benchmark's trace sites still name callables of the library.

bench/spans.py replaces attributes such as ``experiments.propagate`` with
span wrappers; a refactor that drops or renames one would break
``bench/run.py --trace 1``.  The module is loaded from its file and only
its site list is read; no wrapper is installed.
"""

import importlib.util
from pathlib import Path

from sectorcast import cli, configio, engine, experiments, leafmodel

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_site_is_a_callable_attribute():
    sites = load_spans().call_sites(cli, configio, engine, experiments, leafmodel)
    assert sites
    for name, owner, attr, _ in sites:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"
