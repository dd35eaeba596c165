import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "line_split.py"
spec = importlib.util.spec_from_file_location("line_split", TOOL)
line_split = importlib.util.module_from_spec(spec)
spec.loader.exec_module(line_split)

SOURCE = '''"""Module docstring

over three lines."""

# a comment
x = 1  # code with a comment


class A:
    """One line."""

    def f(self):
        """Two
        lines."""
        s = """not a docstring"""
        return s
'''


def test_each_line_is_counted_once():
    counts = line_split.split(SOURCE)
    assert counts == {"docstrings": 6, "comments": 1, "blank": 4, "code": 5}
    assert sum(counts.values()) == len(SOURCE.splitlines())


def test_main_prints_a_total_row(tmp_path, capsys):
    (tmp_path / "m.py").write_text(SOURCE)
    assert line_split.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["total", "16", "6", "1", "4", "5"]
