"""In-memory span tracer installed from outside on sectorcast's call sites.

Each wrapper replaces a public function on the name its callers look up
(``experiments.propagate``, ``cli.generate``, ``GridIndex.candidates``...),
so the library itself is untouched.  A span records its name, start, end,
parent span, the op it belongs to and its self time: its duration minus the
time its child spans cover.  Spans stay in memory until the run ends.

Spans recorded in forked pool workers stay in those workers and are lost;
callers that need trial-level spans run the trials in-process.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Collects finished spans; ``op`` tags every span with the current op."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end, self_s, attrs)
        self.op: int | str | None = None
        self._open: list[list] = []   # stack of [span id, child seconds]
        self._next_id = 0

    def wrap(self, name, fn, attrs=None):
        """fn wrapped in a span; attrs(args, result) -> dict of counters."""
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._open[-1][0] if self._open else None
            frame = [span_id, 0.0]
            self._open.append(frame)
            result = None
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                self._open.pop()
                if self._open:
                    self._open[-1][1] += end - start
                counters = attrs(args, result) if ok and attrs else None
                self.spans.append((span_id, parent, self.op, name, start, end,
                                   end - start - frame[1], counters))
        traced.__wrapped__ = fn
        return traced

    def summary(self, ops) -> dict:
        """name -> {"calls", "self_s", counter sums} over spans of the given ops."""
        out: dict = defaultdict(lambda: defaultdict(float))
        for _, _, op, name, _, _, self_s, counters in self.spans:
            if op not in ops:
                continue
            row = out[name]
            row["calls"] += 1
            row["self_s"] += self_s
            for key, value in (counters or {}).items():
                row[key] += value
        return out

    def write(self, path) -> None:
        keys = ("id", "parent", "op", "name", "start", "end", "self_s", "counters")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _nodes(args, scenario):
    return {"nodes": len(scenario.nodes)}


def _pairs(args, ids):
    return {"pairs": len(ids)}


def _flood(args, outcome):
    return {"rounds": outcome.rounds, "transmitters": len(outcome.implicated),
            "delivered": int(outcome.success)}


def _written_bytes(args, result):
    return {"bytes": len(args[1].encode("utf-8"))}


def _result_bytes(args, text):
    return {"bytes": len(text.encode("utf-8"))}


def call_sites(cli, configio, engine, experiments, leafmodel):
    """(span name, owner, attribute, counters) for every traced call site."""
    return [
        ("cli.main", cli, "main", None),
        ("scenario.derive_seed", experiments, "derive_seed", None),
        ("scenario.generate", experiments, "generate", _nodes),
        ("scenario.generate", cli, "generate", _nodes),
        ("engine.build_index", engine, "build_index", None),
        ("engine.candidates", engine.GridIndex, "candidates", _pairs),
        ("engine.propagate", experiments, "propagate", _flood),
        ("engine.propagate", cli, "propagate", _flood),
        ("experiments.run_sweep", cli, "run_sweep", None),
        ("experiments.run_cell", experiments, "run_cell", None),
        ("leafmodel.build_leaf", experiments, "build_leaf", None),
        ("leafmodel.build_leaf", cli, "build_leaf", None),
        ("leafmodel.build_leaf", leafmodel, "build_leaf", None),
        ("configio.parse_config_text", configio, "parse_config_text", None),
        ("configio.apply_overrides", configio, "apply_overrides", None),
        ("configio.to_scenario_config", configio, "to_scenario_config", None),
        ("configio.to_sweep_spec", configio, "to_sweep_spec", None),
        ("configio.results_csv_text", configio, "results_csv_text", None),
        ("configio.atomic_write_text", cli, "atomic_write_text", _written_bytes),
        ("render.render_svg", cli, "render_svg", _result_bytes),
    ]


@contextmanager
def installed(tracer: Tracer, sites):
    """Install span wrappers on every site; restore the originals on exit."""
    saved = []
    try:
        for name, owner, attr, attrs in sites:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, attrs))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
