"""The package's public names, and the BLAS threads that importing it starts."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gravscatter

SRC = Path(__file__).resolve().parents[1] / "src"
# The variables OpenBLAS reads for its thread count, most specific first.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# Runs the python -m path: the package is imported before gravscatter.cli runs as __main__.
CLI_VERIFY = """
import runpy, sys
sys.argv[1:] = ["verify", "--samples", "5"]
try:
    runpy.run_module("gravscatter.cli", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    assert stop.code == 0, stop.code
"""

needs_thread_count = pytest.mark.skipif(
    not os.path.exists("/proc/self/status")
    or len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="reads Threads: in /proc/self/status, with at least two usable CPUs")

MODULES = ["lorentz", "kinematics", "amplitudes", "qed", "cross_sections",
           "coincidence", "constants", "verify", "cli"]


@pytest.mark.parametrize("name", [None] + MODULES)
def test_all_names_resolve(name):
    module = gravscatter if name is None else importlib.import_module(f"gravscatter.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    for attribute in exported:
        assert hasattr(module, attribute), f"{module.__name__}.{attribute}"


def test_verify_is_the_module():
    """gravscatter.verify is the verify module: no public name of the package shadows it."""
    assert gravscatter.verify is importlib.import_module("gravscatter.verify")
    assert "verify" not in gravscatter.__all__


@pytest.mark.parametrize("module, name", [
    ("cross_sections", "relative_phase"),
    ("amplitudes", "POLE_TOLERANCE"),
    ("amplitudes", "CHUNK_ANGLES")])
def test_retired_names_stay_retired(module, name):
    """A symmetry is a test, not a function; a tuning constant is private."""
    assert name not in gravscatter.__all__
    assert not hasattr(gravscatter, name)
    assert not hasattr(importlib.import_module(f"gravscatter.{module}"), name)


def test_cross_sections_imports_nothing_from_amplitudes():
    tree = ast.parse((SRC / "gravscatter" / "cross_sections.py").read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "amplitudes" not in imported


def test_namespace_binds_no_module_it_imports_for_blas():
    assert not {"os", "sys", "numpy", "_os", "_sys"} & set(vars(gravscatter))


def _fresh(code: str, **env) -> tuple[int, str | None]:
    """Threads and OPENBLAS_NUM_THREADS after running ``code`` in a fresh interpreter.

    The child starts from this environment without the BLAS thread variables,
    plus ``env``, and imports the package from this checkout.
    """
    report = ("\nimport json, os\n"
              "threads = [line.split()[1] for line in open('/proc/self/status')"
              " if line.startswith('Threads:')]\n"
              "print(json.dumps([int(threads[0]), os.environ.get('OPENBLAS_NUM_THREADS')]))\n")
    base = {key: value for key, value in os.environ.items() if key not in BLAS_THREAD_VARIABLES}
    run = subprocess.run([sys.executable, "-c", code + report], capture_output=True, text=True,
                         check=True, timeout=60, env={**base, "PYTHONPATH": str(SRC), **env})
    return tuple(json.loads(run.stdout.splitlines()[-1]))


@needs_thread_count
@pytest.mark.parametrize("code, env, expected", [
    ("import gravscatter", {}, (1, None)),
    ("import gravscatter", {"OPENBLAS_NUM_THREADS": "2"}, (2, "2")),
    ("import gravscatter", {"OMP_NUM_THREADS": "2"}, (2, None)),
    ("import gravscatter", {"GOTO_NUM_THREADS": "2"}, (2, None)),
    (CLI_VERIFY, {}, (1, None)),
], ids=["import", "user-set", "user-set-omp", "user-set-goto", "cli"])
def test_blas_threads(code, env, expected):
    assert _fresh(code, **env) == expected


@needs_thread_count
def test_numpy_imported_first_keeps_its_threads():
    threads, variable = _fresh("import numpy, gravscatter")
    assert (threads, variable) == (_fresh("import numpy")[0], None)
    assert threads > 1
