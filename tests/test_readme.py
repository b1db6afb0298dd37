"""The README's examples run as written."""

import pathlib

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first python block of the README's "## Library" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_example_runs():
    # a name the example uses that is renamed or removed fails here
    namespace = {}
    exec(compile(library_example(), f"{README.name} (## Library)", "exec"), namespace)
    assert namespace["cell"].trials == 500
