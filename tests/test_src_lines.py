"""``tools/src_lines.py``: the physical and code line counts of the package."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

# a comment line
import os


def f(x):
    """Function docstring."""
    # another comment

    text = """a multi-line string
that is not a docstring"""
    return x  # a trailing comment counts as code
'''


def test_count_leaves_out_docstrings_comments_and_blank_lines():
    # code lines: import, def, both lines of the string assignment, return
    assert src_lines.count(FIXTURE) == (14, 5)


def test_count_of_a_class_docstring_and_an_empty_module():
    assert src_lines.count('class A:\n    """Doc\n    more."""\n    x = 1\n') == (4, 2)
    assert src_lines.count("") == (0, 0)


def test_main_prints_a_total_equal_to_the_sum_of_its_module_rows(capsys):
    assert src_lines.main(["src_lines.py", str(ROOT / "src" / "extensor")]) == 0
    header, *rows, total = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", "physical", "code"]
    assert len(rows) == len(list((ROOT / "src" / "extensor").glob("*.py")))
    cells = [row.split() for row in rows]
    assert total.split() == ["total", str(sum(int(c[1]) for c in cells)),
                             str(sum(int(c[2]) for c in cells))]
    for name, phys, code in cells:
        text = (ROOT / "src" / "extensor" / name).read_text(encoding="utf-8")
        assert src_lines.count(text) == (int(phys), int(code))


def test_main_refuses_a_directory_without_modules(tmp_path, capsys):
    assert src_lines.main(["src_lines.py", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"no .py files under {tmp_path}\n"
