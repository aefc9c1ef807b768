"""Self-test of the benchmark: a one-second run of every workload.

Run from the repository root (it takes a minute or two):

    python3 -m pytest -q bench/test_bench.py

It checks that each workload, untraced and traced, prints every metric that
BENCHMARK.json declares, with its unit, and no failed operation; that traced
call counts repeat on the same seed; and that the benchmark refuses to run
without the program's sources.
"""

import functools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRIC_MAP = json.loads((ROOT / "bench" / "metric_map.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
SEED = 3


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@functools.cache
def short_run(workload: str, trace: int) -> dict:
    proc = run_bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_reports_every_declared_metric(workload, trace):
    result = short_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"])
    if not trace:
        assert result["metrics"]["success_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_call_counts_repeat_on_the_same_seed(workload):
    def counts(result):
        return {name: metric["value"] for name, metric in result["metrics"].items()
                if name.endswith((".calls", "_bytes", "_built"))}

    first = counts(short_run(workload, 1))
    short_run.cache_clear()
    assert counts(short_run(workload, 1)) == first


def test_metric_map_names_declared_metrics_and_workloads():
    assert set(METRIC_MAP["per_layer"]) == {metric["name"] for metric in SPEC["per_layer"]}
    end_to_end = {metric["name"] for metric in SPEC["end_to_end"]}
    for target in METRIC_MAP["per_layer"].values():
        assert target["workload"] in WORKLOADS + [None]
        assert set(target["moves"]) <= end_to_end


def test_refuses_to_run_without_program_sources():
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
