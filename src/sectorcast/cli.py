"""Command-line front end: simulate, sweep, model, compare, snapshot.

Exit codes: 0 success, 2 configuration error, 3 output I/O error.  Every
command checks its config, then its output path, before it computes
anything.  Angles are degrees here and in config files.  Relative output
paths resolve under $SECTORCAST_OUTDIR when set; every output file is
written atomically and reruns of an identical invocation produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import replace

from . import configio
from .engine import propagate
from .experiments import SweepSpec, run_sweep
from .leafmodel import DegenerateLeafError, build_leaf, predicted_ratio
from .render import render_svg
from .scenario import ConfigError, ScenarioConfig, generate
from .configio import atomic_write_text, ensure_writable

OUTDIR_ENV = "SECTORCAST_OUTDIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


@functools.cache  # one parser per process: building it costs ~1.5 ms a main call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sectorcast",
        description="Directional sector-broadcast simulator and coverage-area model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="config file (key = value text)")
        p.add_argument("--set", dest="overrides", metavar="KEY=VALUE", action="append",
                       default=[], help="override a config key (sweep keys: sweep.KEY)")
        p.add_argument("--seed", type=int, help="override the base seed")
        p.add_argument("--out", metavar="PATH", help="output file path")
        if name in ("sweep", "compare"):
            p.add_argument("--workers", type=int, default=1,
                           help="worker processes for Monte Carlo trials (default 1)")
    return parser


def _load(args: argparse.Namespace) -> tuple[ScenarioConfig, SweepSpec]:
    """Config file (empty when absent), then --set in order, then --seed."""
    text = ""
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
    base_raw, sweep_raw = configio.parse_config_text(text, args.config)
    seed = [] if args.seed is None else [f"seed={args.seed}"]
    configio.apply_overrides(base_raw, sweep_raw, [*args.overrides, *seed])
    config = configio.to_scenario_config(base_raw)
    return config, configio.to_sweep_spec(config, sweep_raw)


def cmd_simulate(args: argparse.Namespace, config: ScenarioConfig, spec: SweepSpec,
                 out_path: str) -> int:
    outcome = propagate(generate(config))

    n_total = config.n_nodes + 1
    ratio = len(outcome.implicated) / n_total
    print(f"scenario: N={config.n_nodes} side={config.square_side:g} m "
          f"r={config.radius:g} m theta={config.theta_deg:g} deg "
          f"d={config.d:g} m seed={config.seed}")
    if outcome.success:
        print(f"result: delivered, first delivery at hop {outcome.first_delivery_hop}")
    else:
        print("result: transmission failure (no remaining relays)")
    print(f"implicated: {len(outcome.implicated)} of {n_total} "
          f"(ratio {ratio:.6g}); covered receivers: {len(outcome.covered)}")
    print(f"rounds: {outcome.rounds}; per-round transmitters: "
          f"{', '.join(str(c) for c in outcome.per_round_transmitters)}")

    record = {
        "config": configio.config_record(config),
        "outcome": {
            "success": outcome.success,
            "first_delivery_hop": outcome.first_delivery_hop,
            "implicated_count": len(outcome.implicated),
            "covered_count": len(outcome.covered),
            "implicated_ratio": ratio,
            "rounds": outcome.rounds,
            "per_round_transmitters": list(outcome.per_round_transmitters),
        },
    }
    atomic_write_text(out_path, json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"record written to {out_path}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace, config: ScenarioConfig, spec: SweepSpec,
              out_path: str) -> int:
    t0 = time.perf_counter()
    results = run_sweep(spec, workers=args.workers)
    elapsed = time.perf_counter() - t0
    atomic_write_text(out_path, configio.results_csv_text(results, spec))
    print(f"{len(results)} cells x {spec.trials} trials in {elapsed:.1f} s "
          f"-> {out_path}")
    eligible = [r for r in results if r.model_relative_error is not None]
    if eligible:
        worst = max(eligible, key=lambda r: abs(r.model_relative_error))
        print(f"max |model relative error| over {len(eligible)} "
              f"model-eligible cells: {abs(worst.model_relative_error):.4f} "
              f"(theta {worst.theta_deg:g} deg, N {worst.n_nodes}, "
              f"d {worst.d:g} m, success rate {worst.success_rate:g})")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace, config: ScenarioConfig, spec: SweepSpec,
                out_path: str) -> int:
    return cmd_sweep(args, config, replace(spec, d=(config.d,)), out_path)


def cmd_model(args: argparse.Namespace, config: ScenarioConfig, spec: SweepSpec,
              out_path: str | None) -> int:
    lines = [
        f"r = {config.radius:g} m, theta = {config.theta_deg:g} deg, "
        f"d = {config.d:g} m, field side = {config.square_side:g} m",
    ]
    try:
        model = build_leaf(config.d, config.radius, config.theta)
    except DegenerateLeafError:
        lines += [
            "degenerate case: d <= r, destination reachable in one hop",
            "triangles per side: 0",
            "total area: 0 m^2",
            "predicted implicated ratio: 0",
        ]
    except ValueError as exc:  # d = 0, a full circle or a chain past MAX_TRIANGLES
        cause = (f"theta_deg must be below 360, got {config.theta_deg:g}"
                 if config.theta >= math.tau else exc)  # build_leaf speaks radians
        raise ConfigError(f"no triangle-chain model for this cell: {cause}") from exc
    else:
        lines.append("edge lengths d_i (m): "
                     + ", ".join(f"{v:.6f}" for v in model.d_seq))
        lines.append("triangle areas (m^2): "
                     + ", ".join(f"{v:.6f}" for v in model.areas))
        lines.append(f"triangles per side: {model.n_triangles}")
        if model.non_terminating:
            lines.append("note: edge recurrence cannot fall below r "
                         "(fixed point beyond r); chain truncated at convergence")
        lines.append(f"total area: {model.total_area:.6f} m^2")
        lines.append("predicted implicated ratio: "
                     f"{predicted_ratio(model, config.square_side):.9g}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if out_path is not None:
        atomic_write_text(out_path, text)
    return EXIT_OK


def cmd_snapshot(args: argparse.Namespace, config: ScenarioConfig, spec: SweepSpec,
                 out_path: str) -> int:
    scenario = generate(config)
    outcome = propagate(scenario)
    atomic_write_text(out_path, render_svg(scenario, outcome))
    print(f"snapshot written to {out_path} "
          f"(success={outcome.success}, implicated={len(outcome.implicated)})")
    return EXIT_OK


# name -> (handler(args, config, spec, out_path), help, default output; None: --out only)
_COMMANDS = {
    "simulate": (cmd_simulate, "run one scenario and report the flood outcome",
                 "simulate.json"),
    "sweep": (cmd_sweep, "run the (theta x N x d) Monte Carlo grid to CSV", "sweep.csv"),
    "model": (cmd_model, "print the triangle-chain area model for the configured cell",
              None),
    "compare": (cmd_compare,
                "sweep theta x N at fixed d and compare simulation to the model",
                "compare.csv"),
    "snapshot": (cmd_snapshot, "render one scenario as an SVG scene", "snapshot.svg"),
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler, _, default_out = _COMMANDS[args.command]
    try:
        config, spec = _load(args)
        if getattr(args, "workers", 1) < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        out_path = args.out or default_out
        if out_path is not None:  # an absolute path survives the join as it is
            out_path = os.path.join(os.environ.get(OUTDIR_ENV, "."), out_path)
            ensure_writable(out_path)
        return handler(args, config, spec, out_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
