"""tools/loc.py: total and code lines of the modules under src/."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SAMPLE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line

# a comment-only line


class Box:
    """One line."""

    side = 2.0

    def area(self):
        """Two
        lines."""
        text = """a string that is not a docstring

        keeps its lines"""
        return self.side * self.side, text
'''


def load():
    spec = importlib.util.spec_from_file_location("tools_loc", ROOT / "tools" / "loc.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_skips_docstrings_comments_and_blank_lines():
    # code: import, class, side, def, the two lines of text that are not
    # blank, and return
    assert load().count(SAMPLE) == (20, 7)


def test_main_prints_each_module_and_the_sum(capsys):
    loc = load()
    assert loc.main() == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    paths = sorted(p.relative_to(loc.SRC) for p in loc.SRC.rglob("*.py"))
    assert [row[0] for row in rows] == [*map(str, paths), "total"]
    assert [int(v) for v in rows[-1][1:]] == [sum(int(row[k]) for row in rows[:-1]) for k in (1, 2)]
    assert int(rows[-1][1]) == sum(len(p.read_text().splitlines())
                                   for p in loc.SRC.rglob("*.py"))
