"""The README's examples run as written."""

import pathlib
import re
import shlex

from sectorcast import cli, configio

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def section(title: str) -> str:
    """The text of the README section under "## title"."""
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def library_example() -> str:
    """The first python block of the README's "## Library" section."""
    return section("Library").split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_example_runs():
    # a name the example uses that is renamed or removed fails here
    namespace = {}
    exec(compile(library_example(), f"{README.name} (## Library)", "exec"), namespace)
    assert namespace["cell"].trials == 500


def test_readme_names_every_bench_record():
    # the Performance list has one line per BENCH_*.json of the repository root
    named = set(re.findall(r"BENCH_\w+\.json", README.read_text(encoding="utf-8")))
    assert named == {path.name for path in README.parent.glob("BENCH_*.json")}


def test_readme_field_cfg_is_sample_cfg():
    # the usage section's field.cfg block reads as the same config as sample.cfg
    block = section("Command-line usage").split("```ini\n", 1)[1].split("\n```", 1)[0]

    def load(text):
        base, sweep = configio.parse_config_text(text)
        config = configio.to_scenario_config(base)
        return config, configio.to_sweep_spec(config, sweep)

    assert load(block) == load((README.parent / "sample.cfg").read_text(encoding="utf-8"))


def test_readme_usage_lines_parse():
    # every command of the usage block is accepted by the CLI's parser; none runs
    block = section("Command-line usage").split("```sh\n", 1)[1].split("\n```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert [argv[0] for argv in commands] == ["sectorcast"] * 5
    for argv in commands:
        args = cli.build_parser().parse_args(argv[1:])
        assert args.command == argv[1]
