"""The repository's helper scripts under tools/."""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _code_lines(*paths) -> list[str]:
    run = subprocess.run([sys.executable, str(TOOLS / "code_lines.py"), *map(str, paths)],
                         capture_output=True, text=True, check=True)
    return run.stdout.splitlines()


def test_code_lines_counts_a_directory_as_its_sorted_python_files(tmp_path):
    (tmp_path / "b.py").write_text('"""Docstring."""\n\nx = 1  # comment\n')
    (tmp_path / "a.py").write_text("def f():\n    return (1,\n            2)\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "c.py").write_text("y = 2\n")
    lines = _code_lines(tmp_path)
    assert [line.split() for line in lines] == [
        ["3", str(tmp_path / "a.py")], ["1", str(tmp_path / "b.py")], ["4", "total"]]
    assert _code_lines(tmp_path / "a.py", tmp_path / "b.py") == lines
