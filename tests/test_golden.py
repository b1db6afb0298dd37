"""Golden digests: pinned sha256 of short CLI outputs.

Rerun equality (criterion 8) cannot notice a refactor that changes every
number consistently; these pins can.  Each case writes one output file
through ``cli.main`` and compares its sha256 with the digest recorded when
the case was added.  A deliberate output change must update the pin and
say why in CHANGES.md.

The pins hold on x86-64 Linux with CPython 3.11 and numpy 2.x; another libm
may round a transcendental differently and change the last digit of a float.
"""

import hashlib
from pathlib import Path

import pytest

from sectorcast import cli

SMALL = ["--set", "square_side=1500", "--set", "n_nodes=100", "--set", "radius=200",
         "--set", "d=600", "--seed", "11"]
GRID = ["--set", "sweep.theta_deg=45, 90, 135", "--set", "sweep.n_nodes=100, 200",
        "--set", "sweep.d=600"]
# 2 theta (one 360 deg) x 2 N x 3 d (one <= r): each trial's field serves
# the six (theta, d) cells of its N
SHARED = ["--set", "sweep.n_nodes=100, 200"]
SAMPLE_CFG = str(Path(__file__).resolve().parent.parent / "sample.cfg")

# name -> (argv without --out, sha256 of the written file)
GOLDEN = {
    # 12 trials: (135 deg, N 100) has 5 successes and takes the normal
    # approximation; the other cells have 1-4 or 10-11 (Clopper-Pearson path).
    "sweep.csv": (["sweep", *SMALL, *GRID, "--set", "sweep.trials=12"],
                  "f40229af6e70aaf87f0908d9b8fdefabbbefa827c396b317b934b6b2e74cace6"),
    "sweep-poisson-2w.csv": (["sweep", *SMALL, *GRID, "--set", "sweep.trials=6",
                              "--set", "placement=poisson",
                              "--set", "direction_error_deg=10", "--workers", "2"],
                             "fa7c1b36ad5338af218815818776a9ec7e51520725db7bdb8212f5032b7fc315"),
    "sweep-shared-fields.csv": (["sweep", *SMALL, *SHARED, "--set", "sweep.theta_deg=90, 360",
                                 "--set", "sweep.d=150, 600, 1000", "--set", "sweep.trials=8"],
                                "94323f5bb6fb90edbf390bc97b87e4f27fdaa9da94d4856bbec98291d33ad01c"),
    "sweep-shared-fields-poisson-2w.csv": (
        ["sweep", *SMALL, *SHARED, "--set", "sweep.theta_deg=45, 360",
         "--set", "sweep.d=200, 600, 1200", "--set", "sweep.trials=6",
         "--set", "placement=poisson", "--set", "direction_error_deg=10", "--workers", "2"],
        "de9cc06be3dfa5a00bb4b194213e8c3d0ffeaad3f70afe71633174cf53c28199"),
    # benchmark scale: N 1000-3000 in a 4000 m field, theta up to 135 deg,
    # d 1000-3000, where index cells and query boxes matter
    "sweep-sample-cfg.csv": (["sweep", "--config", SAMPLE_CFG, "--set", "sweep.trials=50"],
                             "54f0a78cb838df98e26759dc0674ab4385fb062d60e6b0b6c28eb4ba59f68893"),
    "compare.csv": (["compare", *SMALL, "--set", "sweep.theta_deg=60, 120",
                     "--set", "sweep.n_nodes=80", "--set", "sweep.trials=5"],
                    "cc91a95b8d28e0539f506930f3d0ada149160ebebd21fc80d0389736b0c389f3"),
    "simulate.json": (["simulate", *SMALL, "--set", "n_nodes=300",
                       "--set", "direction_error_deg=10"],
                      "bcf5a0bae8de2a42e7355fd21ea30bbcf4a0e63b36fbc918f1a0d9295e5cbd39"),
    "snapshot.svg": (["snapshot", *SMALL, "--set", "n_nodes=300", "--set", "theta_deg=120"],
                     "4d191bfa942cf042dfc63136d2246998c98d4a6829de508aa8909cede443f883"),
    "model-terminating.txt": (["model", "--set", "theta_deg=90", "--set", "d=1000"],
                              "c106c143357b1e1affca0158ba28d290b2c1e8c2ae6817efc6dceea5f587b78d"),
    "model-non-terminating.txt": (["model", "--set", "theta_deg=135", "--set", "d=1000"],
                                  "90453c4e1c1ad1eda667c6399e2019bd89c469b34209c417384f73c3f48b8b58"),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_output_digest(name, tmp_path, capsys):
    argv, digest = GOLDEN[name]
    out = tmp_path / name
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
