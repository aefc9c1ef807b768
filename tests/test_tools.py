"""The repository's helper scripts under tools/."""

import os
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


def test_json_kernel_timing_prints_each_column_kind():
    # One job per kind, one turn; the kernel file itself stands in for a
    # baseline, and every text timed is checked against json.dumps.
    src = Path(__file__).resolve().parents[1] / "src"
    kernel = src / "gravscatter" / "_json_floats.py"
    run = subprocess.run([sys.executable, str(TOOLS / "json_kernel_timing.py"), "--jobs", "1",
                          "--repeats", "1", "--baseline", str(kernel)],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    lines = run.stdout.splitlines()
    assert lines[1].split() == ["column", "kernel", "json.dumps", "baseline", "ratio"]
    kinds = [line.split() for line in lines[2:]]
    assert [row[0] for row in kinds] == ["theta", "dcs_si", "qed_si", "amplitude", "coincidence",
                                         "zeros"]
    assert all(len(row) == 5 and all(float(x) > 0 for x in row[1:]) for row in kinds)
