#!/usr/bin/env python3
"""sectorcast benchmark: sweep throughput, one-shot CLI latency and set-up time.

Run from the repository root:

    python3 bench/run.py --workload grid-default --seed 1 --seconds 20 --trace 0

One single-process client drives ``sectorcast.cli.main`` in a closed loop:
the next op starts only after the previous one returned.  Op k of a run uses
config seed ``1000 * seed + k``.  Every output is checked and hashed; an
exception, a non-zero exit code or a failed check makes the op a failure.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every op
twice, plain and with span wrappers installed, and reports per-layer metrics
(per op) from the traced copies; see bench/README.md.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, call_sites, installed
from workloads import WORKLOADS, OpResult, op_seed, run_op

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_OPS = 2            # a p90 needs at least two samples
SETUP_SAMPLES = 3      # fresh interpreters per run; setup_s is their median
CHILD_TIMEOUT_S = 120

# Set-up as a CLI user pays it: import the package and load the config file.
_SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
from sectorcast import cli, configio
path = sys.argv[1]
with open(path, encoding="utf-8") as fh:
    base, sweep = configio.parse_config_text(fh.read(), path)
configio.to_sweep_spec(configio.to_scenario_config(base), sweep)
print(time.perf_counter() - t0)
"""

_LOAD_SPANS = ("configio.parse_config_text", "configio.apply_overrides",
               "configio.to_scenario_config", "configio.to_sweep_spec")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, env=_child_env(), cwd=ROOT, check=True)


def setup_samples(config_path: Path) -> list[float]:
    return [float(_child(["-c", _SETUP_SNIPPET, str(config_path)]).stdout.split()[-1])
            for _ in range(SETUP_SAMPLES)]


def import_split() -> dict:
    """Self import time (s) summed per top-level package, from -X importtime."""
    totals = {"scipy": 0.0, "numpy": 0.0, "sectorcast": 0.0}
    stderr = _child(["-X", "importtime", "-c", "import sectorcast.cli"]).stderr
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        top = fields[2].strip().split(".")[0]
        if top in totals:
            totals[top] += int(fields[0]) / 1e6
    return totals


def _cpu_s() -> float:
    """CPU seconds of this process and its reaped children (pool workers)."""
    return sum(u.ru_utime + u.ru_stime for u in
               (resource.getrusage(resource.RUSAGE_SELF),
                resource.getrusage(resource.RUSAGE_CHILDREN)))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "loadavg_before": os.getloadavg()}


class Client:
    """Runs ops for one workload and seed, turning exceptions into failed ops."""

    def __init__(self, workload, seed: int):
        from sectorcast import cli
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.out_dir = OUT / workload.name
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.out_dir / "workload.cfg"
        self.config_path.write_text(workload.config_text(), encoding="utf-8")
        self.ops = []

    def op(self, index: int, workers: int | None = None) -> OpResult:
        seed = op_seed(self.seed, index)
        try:
            result = run_op(self.cli, self.workload, self.config_path, self.out_dir,
                            seed, workers)
        except Exception:
            result = OpResult(seed, problems=[traceback.format_exc()])
        self.ops.append(result)
        return result

    def loop(self, seconds: float, body, min_ops: int = MIN_OPS) -> list[int]:
        """Call body(index) for index 0, 1, ... until `seconds` have passed."""
        deadline = time.perf_counter() + seconds
        index = 0
        while index < min_ops or time.perf_counter() < deadline:
            body(index)
            index += 1
        return list(range(index))

    @property
    def failed(self) -> list:
        return [r for r in self.ops if r.problems]


def end_to_end(client: Client, seconds: float) -> tuple[dict, dict]:
    cpu0, wall0 = _cpu_s(), time.perf_counter()
    client.loop(seconds, client.op)
    run = {"cpu_s": _cpu_s() - cpu0, "wall_s": time.perf_counter() - wall0}
    rss = peak_rss_mb()  # before the set-up children below are reaped
    setup = setup_samples(client.config_path)
    walls = [r.wall_s for r in client.ops]
    run["setup_samples_s"] = setup
    metrics = {
        "trials_per_s": (sum(r.trials for r in client.ops) / sum(walls), "1/s"),
        "op_ms_p50": (statistics.median(walls) * 1e3, "ms"),
        "op_ms_p90": (statistics.quantiles(walls, n=10)[8] * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return metrics, run


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(client: Client, seconds: float) -> tuple[dict, dict]:
    from sectorcast import cli, configio, engine, experiments, leafmodel

    imports = import_split()
    tracer = Tracer()
    sites = call_sites(cli, configio, engine, experiments, leafmodel)
    plain_wall = traced_wall = plain_cpu = 0.0
    two_phase = client.workload.workers > 1

    def plain_op(index):
        nonlocal plain_cpu
        cpu0 = _cpu_s()
        result = client.op(index)
        plain_cpu += _cpu_s() - cpu0
        return result

    def traced_op(index):
        tracer.op = index
        with installed(tracer, sites):
            return client.op(index)

    def pair(index):
        # Alternate which copy runs first, so neither gains from the other's warm-up.
        nonlocal plain_wall, traced_wall
        if index % 2:
            traced = traced_op(index)
            plain = plain_op(index)
        else:
            plain = plain_op(index)
            traced = traced_op(index)
        plain_wall += plain.wall_s
        traced_wall += traced.wall_s
        if not traced.problems and traced.digests != plain.digests:
            traced.problems.append("traced outputs differ from untraced outputs")

    ops = client.loop(seconds / 2 if two_phase else seconds, pair)
    trial_ops = ops
    if two_phase:
        # Spans recorded in forked workers never reach this process, so the
        # trial layers come from the same ops rerun on one in-process worker.
        reference = {r.seed: r.digests for r in client.ops}

        def in_process(index):
            tracer.op = f"1w:{index}"
            with installed(tracer, sites):
                result = client.op(index, workers=1)
            expected = reference.get(result.seed, result.digests)
            if not result.problems and result.digests != expected:
                result.problems.append("1-worker outputs differ from 2-worker outputs")

        trial_ops = [f"1w:{i}" for i in client.loop(seconds / 2, in_process, 1)]

    top = tracer.summary(set(ops))
    low = tracer.summary(set(trial_ops))
    n, nt = len(ops), len(trial_ops)

    def get(table, name, key, count):
        return table[name][key] / count if name in table else 0.0

    flood_s = get(low, "engine.propagate", "self_s", nt) + get(low, "engine.candidates", "self_s", nt)
    field_s = sum(get(low, s, "self_s", nt) for s in
                  ("scenario.derive_seed", "scenario.generate", "engine.build_index"))
    metrics = {}
    for name, keys in (("scenario.derive_seed", ("calls",)),
                       ("scenario.generate", ("calls", "nodes")),
                       ("engine.build_index", ("calls",)),
                       ("engine.candidates", ("calls", "pairs")),
                       ("engine.propagate", ("calls", "rounds", "transmitters"))):
        for key in keys:
            metrics[f"{name}.{key}"] = (get(low, name, key, nt), "count/op")
        metrics[f"{name}.self_s"] = (get(low, name, "self_s", nt), "s/op")
    transmitters = get(low, "engine.propagate", "transmitters", nt)
    metrics["engine.us_per_transmitter"] = (_ratio(flood_s, transmitters) * 1e6, "us")
    metrics["engine.pairs_per_s"] = (_ratio(get(low, "engine.candidates", "pairs", nt), flood_s), "1/s")
    metrics["engine.delivered_ratio"] = (_ratio(get(low, "engine.propagate", "delivered", nt),
                                                get(low, "engine.propagate", "calls", nt)), "ratio")
    metrics["trial.flood_share"] = (_ratio(flood_s, flood_s + field_s), "ratio")
    for name, keys in (("experiments.run_cell", ("calls", "self_s")),
                       ("experiments.run_sweep", ("self_s",)),
                       ("leafmodel.build_leaf", ("calls", "self_s")),
                       ("configio.results_csv_text", ("self_s",)),
                       ("configio.atomic_write_text", ("bytes", "self_s")),
                       ("render.render_svg", ("calls", "self_s", "bytes")),
                       ("cli.main", ("calls", "self_s"))):
        for key in keys:
            unit = "s/op" if key == "self_s" else ("B/op" if key == "bytes" else "count/op")
            metrics[f"{name}.{key}"] = (get(top, name, key, n), unit)
    metrics["configio.load_s"] = (sum(get(top, s, "self_s", n) for s in _LOAD_SPANS), "s/op")
    metrics["import.scipy_s"] = (imports["scipy"], "s")
    metrics["import.numpy_s"] = (imports["numpy"], "s")
    metrics["import.sectorcast_self_s"] = (imports["sectorcast"], "s")
    metrics["run.cpu_s"] = (plain_cpu / n, "s/op")
    metrics["run.wall_s"] = (plain_wall / n, "s/op")
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")

    tracer.write(OUT / f"{client.workload.name}-seed{client.seed}-spans.jsonl")
    return metrics, {"cpu_s": plain_cpu, "wall_s": plain_wall, "traced_wall_s": traced_wall}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sectorcast" / "__init__.py").is_file():
        print(f"bench: no sectorcast sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not 0 <= op_seed(args.seed, 0) < 2**63:
        print(f"bench: seed {args.seed} gives config seeds outside [0, 2**63)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    client = Client(WORKLOADS[args.workload], args.seed)
    env = environment()
    measure = per_layer if args.trace else end_to_end
    metrics, run = measure(client, args.seconds)
    env["loadavg_after"] = os.getloadavg()

    failed = client.failed
    for result in failed[:3]:
        print(f"op seed {result.seed} failed: {result.problems}", file=sys.stderr)
    attempted = len(client.ops)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": env, "run": run, "fail_ratio": len(failed) / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "ops": [{"seed": r.seed, "wall_s": r.wall_s, "digests": r.digests,
                 "problems": r.problems} for r in client.ops],
    }
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"{args.workload} seed {args.seed}: {attempted} ops, {len(failed)} failed "
          f"(fail_ratio {record['fail_ratio']:g}), wall {run['wall_s']:.2f} s, "
          f"cpu {run['cpu_s']:.2f} s; record in {result_path.relative_to(ROOT)}")
    print(f"env: {json.dumps(env)}")
    print(f"op 0 sha256: {json.dumps(client.ops[0].digests, sort_keys=True)}")
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
