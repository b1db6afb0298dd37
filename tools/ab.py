#!/usr/bin/env python3
"""In-process A/B of sectorcast: a base revision against the working tree.

Run from the repository root:

    python3 tools/ab.py --base HEAD --workload grid-narrow --pairs 40 --seed 5
    python3 tools/ab.py --base HEAD --config sample.cfg --pairs 12

The base revision's src/sectorcast is extracted with ``git archive`` into a
temporary directory and imported as the package ``sectorcast_base`` (the
package imports itself relatively, so the name is free); the working
tree's src/sectorcast is imported as ``sectorcast``.  Pair k runs one sweep
of a bench/workloads.py workload, or with --config of a config file's
[sweep] section on one worker, on each copy, with config seed
``op_seed(seed, k)`` as ``bench/run.py`` gives op k, and alternates which
copy runs first.  Both copies must return identical CellResults, or the
run stops with exit code 1.  Only ``experiments.run_sweep`` is timed, after
one untimed sweep on each copy.

The last line of stdout is one JSON object: the quartiles of the per-pair
ratio tree / base of op time, the pairs the tree won, and both copies'
op-time quartiles in ms.  Two sweeps in one process see the same host
state, so this resolves changes of a few percent that alternating
``bench/run.py`` runs cannot; ``BENCHMARK.json`` stays the claim of record.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
import zipfile
from dataclasses import astuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from workloads import WORKLOADS, op_seed  # noqa: E402


class ConfigSweep:
    """The [sweep] section of a config file, run as a bench workload is, on one worker."""

    workers = 1

    def __init__(self, path: Path):
        self.name, self._text = str(path), path.read_text(encoding="utf-8")

    def config_text(self) -> str:
        return self._text


def extract(rev: str, into: Path, name: str) -> None:
    """Write revision rev's src/sectorcast to into / name."""
    archive = subprocess.run(["git", "archive", "--format=zip", rev, "src/sectorcast"],
                             cwd=ROOT, capture_output=True, check=True).stdout
    with zipfile.ZipFile(io.BytesIO(archive)) as zipped:
        zipped.extractall(into)
    (into / "src" / "sectorcast").rename(into / name)


def sweep_spec(package: str, workload, seed: int):
    """The workload's SweepSpec at config seed `seed`, as `sectorcast sweep
    --config FILE --seed SEED` builds it, from package's configio."""
    configio = importlib.import_module(f"{package}.configio")
    base, sweep = configio.parse_config_text(workload.config_text())
    configio.apply_overrides(base, sweep, [f"seed={seed}"])
    return configio.to_sweep_spec(configio.to_scenario_config(base), sweep)


def timed_sweep(package: str, workload, seed: int) -> tuple[float, str]:
    """(seconds, repr of the CellResults) of one run_sweep on package."""
    spec = sweep_spec(package, workload, seed)
    run_sweep = importlib.import_module(f"{package}.experiments").run_sweep
    start = time.perf_counter()
    results = run_sweep(spec, workload.workers)
    return time.perf_counter() - start, repr([astuple(r) for r in results])


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def compare(base: str, tree: str, workload, seed: int, pairs: int) -> dict:
    """Alternate sweeps of workload between packages base and tree."""
    for package in (base, tree):
        timed_sweep(package, workload, op_seed(seed, 0))
    times = {base: [], tree: []}
    for k in range(pairs):
        seed_k = op_seed(seed, k)
        runs = {p: timed_sweep(p, workload, seed_k) for p in ((base, tree), (tree, base))[k % 2]}
        if runs[base][1] != runs[tree][1]:
            raise SystemExit(f"pair {k} (config seed {seed_k}): the CellResults differ")
        for package, (seconds, _) in runs.items():
            times[package].append(seconds)
    ratios = [t / b for t, b in zip(times[tree], times[base])]
    return {"workload": workload.name, "seed": seed, "pairs": pairs,
            "ratio": _quartiles(ratios), "tree_wins": sum(r < 1.0 for r in ratios),
            "base_ms": _quartiles([s * 1e3 for s in times[base]]),
            "tree_ms": _quartiles([s * 1e3 for s in times[tree]])}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    sweeps = [name for name, w in WORKLOADS.items() if w.is_sweep]
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--workload", choices=sweeps, default="grid-narrow")
    source.add_argument("--config", type=Path, help="a config file whose sweep to run")
    parser.add_argument("--pairs", type=int, default=40, help="timed pairs, at least 2")
    parser.add_argument("--seed", type=int, default=1, help="workload seed, as in bench/run.py")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    workload = ConfigSweep(args.config) if args.config else WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        extract(args.base, Path(tmp), "sectorcast_base")
        sys.path.insert(0, tmp)
        report = compare("sectorcast_base", "sectorcast", workload, args.seed, args.pairs)
    print(json.dumps({"base": args.base, **report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
