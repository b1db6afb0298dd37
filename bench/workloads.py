"""The benchmark's workloads and the ops that drive sectorcast's CLI.

Each op is one closed-loop call sequence through ``cli.main``; its config
seed is derived from the workload seed and the op's index, so a seed fixes
every input of a run.  Why each workload exists is in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_model_text, check_simulate_json, check_snapshot_svg, check_sweep_csv


@dataclass(frozen=True)
class Workload:
    name: str
    base: dict                 # base config keys, as in a config file
    sweep: dict = field(default_factory=dict)  # [sweep] section; empty for one-shot ops
    workers: int = 1

    @property
    def is_sweep(self) -> bool:
        return bool(self.sweep)

    @property
    def trials(self) -> int:
        return int(self.sweep["trials"])

    def _values(self, key, kind):
        return sorted(kind(v) for v in self.sweep[key].split(","))

    def cells(self) -> list[tuple[float, int, float]]:
        """(d, N, theta_deg) of every sweep cell, in the CSV's row order."""
        return [(d, n, t) for d in self._values("d", float)
                for n in self._values("n_nodes", int)
                for t in self._values("theta_deg", float)]

    def config_text(self) -> str:
        lines = [f"{k} = {v}" for k, v in self.base.items()]
        if self.sweep:
            lines.append("[sweep]")
            lines += [f"{k} = {v}" for k, v in self.sweep.items()]
        return "\n".join(lines) + "\n"


_SAMPLE_BASE = {"square_side": "4000", "n_nodes": "2000", "radius": "200",
                "theta_deg": "90", "d": "1000", "placement": "fixed",
                "direction_error_deg": "0"}

# Every sweep runs 50 trials a cell: the count at which ROADMAP.md timed the
# sample.cfg sweep, and the batch size a lockstep flood kernel would get.
_TRIALS = "50"

WORKLOADS = {w.name: w for w in (
    # The 135-degree row of the sample.cfg grid: the full 54-cell grid at 50
    # trials takes 15-25 s a sweep, too long for several ops in one run.
    Workload("grid-default", _SAMPLE_BASE, {
        "theta_deg": "135", "n_nodes": "1000, 2000, 3000",
        "d": "1000, 2000, 3000", "trials": _TRIALS}),
    Workload("grid-narrow", _SAMPLE_BASE, {
        "theta_deg": "22.5", "n_nodes": "1000, 2000, 3000",
        "d": "1000, 2000, 3000", "trials": _TRIALS}),
    Workload("grid-poisson-2w",
             {**_SAMPLE_BASE, "placement": "poisson", "direction_error_deg": "10"}, {
        "theta_deg": "67.5, 90, 112.5, 135", "n_nodes": "2000, 3000",
        "d": "1000, 2000", "trials": _TRIALS}, workers=2),
    Workload("oneshot-cli", {**_SAMPLE_BASE, "theta_deg": "135", "n_nodes": "3000",
                             "d": "3000"}),
)}


def op_seed(seed: int, index: int) -> int:
    """Config seed of op `index` in a run with workload seed `seed`."""
    return seed * 1000 + index


@dataclass
class OpResult:
    seed: int
    wall_s: float = 0.0
    trials: int = 0
    digests: dict = field(default_factory=dict)  # output name -> sha256
    problems: list = field(default_factory=list)


def _call(cli, argv: list[str], result: OpResult) -> None:
    """cli.main(argv) with its stdout swallowed; a non-zero exit is a problem."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        result.problems.append(f"exit code {code} from {argv[0]}")


def _read(path: Path, result: OpResult) -> str:
    data = path.read_bytes()
    result.digests[path.name] = hashlib.sha256(data).hexdigest()
    return data.decode("utf-8")


def run_op(cli, workload: Workload, config_path: Path, out_dir: Path,
           seed: int, workers: int | None = None) -> OpResult:
    """One op: a sweep over the grid, or simulate + snapshot + model for one seed.

    Only the cli.main calls are timed; output checks run afterwards.
    """
    result = OpResult(seed)
    common = ["--config", str(config_path), "--seed", str(seed)]
    if workload.is_sweep:
        workers = workload.workers if workers is None else workers
        csv = out_dir / "sweep.csv"
        start = time.perf_counter()
        _call(cli, ["sweep", *common, "--workers", str(workers), "--out", str(csv)], result)
        result.wall_s = time.perf_counter() - start
        result.trials = len(workload.cells()) * workload.trials
        if not result.problems:
            result.problems += check_sweep_csv(_read(csv, result), workload, seed)
        return result

    paths = {cmd: out_dir / name for cmd, name in
             (("simulate", "simulate.json"), ("snapshot", "snapshot.svg"), ("model", "model.txt"))}
    start = time.perf_counter()
    for cmd, path in paths.items():
        _call(cli, [cmd, *common, "--out", str(path)], result)
    result.wall_s = time.perf_counter() - start
    result.trials = 2  # simulate and snapshot each run one flood
    if result.problems:
        return result
    n_nodes = int(workload.base["n_nodes"])
    problems, implicated = check_simulate_json(_read(paths["simulate"], result), seed, n_nodes)
    problems += check_snapshot_svg(_read(paths["snapshot"], result), n_nodes, implicated)
    problems += check_model_text(_read(paths["model"], result))
    result.problems += problems
    return result
