import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def git(cwd, *args):
    config = ["-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    subprocess.run(["git", *config, *args], cwd=cwd, check=True, capture_output=True)


def test_against_a_revision(tmp_path, capsys, monkeypatch):
    # the totals at the revision come from git, not the working tree: a file changed, one deleted, one added
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text(SOURCE)
    (tmp_path / "src" / "gone.py").write_text("x = 1\n")
    (tmp_path / "src" / "notes.txt").write_text("not python\n")
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", ".")
    git(tmp_path, "commit", "-q", "-m", "first")
    (tmp_path / "src" / "a.py").write_text(SOURCE + "y = 2\n\n")
    (tmp_path / "src" / "gone.py").unlink()
    (tmp_path / "src" / "new.py").write_text('"""Doc."""\n')
    monkeypatch.chdir(tmp_path)
    assert line_split.main(["--against", "HEAD", "src"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [
        ["at", "HEAD", "17", "6", "1", "4", "6"],
        ["now", "19", "7", "1", "5", "6"],
        ["change", "+2", "+1", "+0", "+1", "+0"],
    ]


@pytest.mark.parametrize("repository", [False, True], ids=["no-checkout", "unknown-revision"])
def test_against_a_revision_git_cannot_read(tmp_path, repository):
    # git's own message, as a usage error: this was a CalledProcessError traceback with exit 1
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text(SOURCE)
    if repository:
        git(tmp_path, "init", "-q")
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(tmp_path.parent))
    proc = subprocess.run([sys.executable, str(TOOL), "--against", "nope"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    message = "Not a valid object name nope" if repository else "not a git repository"
    assert (proc.returncode, proc.stdout) == (2, "")
    assert message in proc.stderr.splitlines()[-1] and "Traceback" not in proc.stderr
