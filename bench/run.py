#!/usr/bin/env python3
"""Benchmark of the gravscatter command line.

Run from the root of a source checkout:

    python3 bench/run.py --workload verify_gate --seed 1 --seconds 45 --trace 0

With ``--trace 0`` the benchmark drives a closed loop of
``python -m gravscatter.cli ...`` subprocesses (one client, one child at a
time, ``PYTHONPATH=src``), checks every output against closed forms evaluated
here with frozen CODATA constants, and reports the end-to-end metrics of
BENCHMARK.json. With ``--trace 1`` it runs the same generated argv in-process
through ``gravscatter.cli.main`` with timing wrappers around the functions
the CLI and the amplitude module look up at call time, and reports the
per-layer metrics. Every input is drawn from ``--seed``; the program sees
only the generated argv.

End-to-end metrics, all over the timed calls of one run:

    setup_s        median wall time of fresh `python -c "import gravscatter.cli"`,
                   probed at even steps through the run
    call_ms.p50    median wall time per call shape (command and format),
                   averaged over the shapes of the workload's mix
    call_ms.tail   highest percentile of the pooled call times with at least
                   ten samples beyond it; the percentile and sample count
                   are in the details line
    cpu_ms.p50     as call_ms.p50, for the child's user plus system time
    items_per_s    work done over summed call wall time: verified angles
                   (verify_gate), emitted rows (scan_bulk)
    peak_rss_mb    largest ru_maxrss of any timed child
    success_frac   share of checked operations that passed

Standard output ends with two JSON lines: the run's details (provenance,
tail percentile and sample count, per-shape figures, first failures), then
the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import time
from array import array
from functools import partial
from importlib import metadata
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CALL_TIMEOUT_S = 60.0
SETUP_PROBES = 7
IMPORT_PROBES = 5
# Outputs are printed with %.9g (CSV) or in full (JSON).
REL_TOL = 2e-8
VERIFY_SAMPLES = 1000
PERTURBATION = "1e-3"

# CODATA 2022 values, frozen so the reference does not share a dependency
# with the program it checks.
NEWTON_G = 6.6743e-11
HBAR = 1.0545718176461565e-34
LIGHT_SPEED = 299792458.0
ELECTRON_MASS = 9.1093837139e-31
FINE_STRUCTURE = 0.0072973525643
PLANCK_LENGTH = math.sqrt(NEWTON_G * HBAR / LIGHT_SPEED ** 3)
COMPTON_WAVELENGTH = HBAR * LIGHT_SPEED / (ELECTRON_MASS * LIGHT_SPEED ** 2)

PATTERNS = ["".join(map(str, p)) for p in itertools.product((1, 2), repeat=4)]
ZERO_PATTERNS = [name for name in PATTERNS if sum(map(int, name)) % 2 == 1]


class CheckError(Exception):
    """An output disagreed with the request or with the reference values."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# reference closed forms (cancellation-free where the printed forms cancel)

def ref_amplitudes(theta: np.ndarray) -> dict[str, np.ndarray]:
    c = np.cos(theta)
    co = -(9.0 + 6.0 * c * c + c ** 4) / np.sin(theta) ** 2
    pair = 7.0 + c * c
    same = -2.0 * (2.0 - c + c * c) / np.sin(0.5 * theta) ** 2
    swap = -2.0 * (2.0 + c + c * c) / np.cos(0.5 * theta) ** 2
    by_pattern = {"1111": co, "2222": co, "1122": pair, "2211": pair,
                  "1212": same, "2121": same, "1221": swap, "2112": swap}
    zero = np.zeros_like(theta)
    return {f"m_{name}": by_pattern.get(name, zero) for name in PATTERNS}


def ref_dcs_pqg(theta: np.ndarray, weight: float) -> np.ndarray:
    c = np.cos(theta)
    g = c + c ** 3
    return 8.0 * (4.0 * (1.0 + weight) + (1.0 - weight) * g * g) / np.sin(theta) ** 4


def ref_dcs_averaged(theta: np.ndarray) -> np.ndarray:
    half = 0.5 * theta
    return 32.0 * (1.0 + np.cos(half) ** 16 + np.sin(half) ** 16) / np.sin(theta) ** 4


def ref_dcs_qed(theta: np.ndarray, weight: float, wavelength: float) -> np.ndarray:
    c = np.cos(theta)
    prefactor = (FINE_STRUCTURE ** 4 / (2.0 * 45.0 ** 2 * (2.0 * math.pi) ** 2)
                 * COMPTON_WAVELENGTH ** 8 / wavelength ** 6)
    return prefactor * ((1.0 + weight) * (31.0 + 3.0 * c * c) ** 2
                        + (1.0 - weight) * (22.0 * c) ** 2)


def si_factor(wavelength: float) -> float:
    return PLANCK_LENGTH ** 4 / wavelength ** 2


# Interference weights of the product state and the two Bell states.
STATE_WEIGHTS = {"dcs_product": 0.0, "dcs_psi_plus": 1.0, "dcs_psi_minus": -1.0}


# ---------------------------------------------------------------------------
# output parsing and comparison

def compare(name: str, got, want: np.ndarray, atol: float = 0.0) -> None:
    got = np.asarray(got, dtype=np.float64)
    require(got.shape == want.shape, f"{name}: {got.shape[0]} rows, expected {want.shape[0]}")
    bad = ~(np.abs(got - want) <= REL_TOL * np.abs(want) + atol)
    if bad.any():
        i = int(np.argmax(bad))
        raise CheckError(f"{name}: {int(bad.sum())} values off, first at row {i}: "
                         f"got {got[i]!r}, expected {want[i]!r}")


def csv_columns(text: str, header: list[str], rows: int) -> dict[str, np.ndarray]:
    lines = text.split("\n")
    require(lines[-1] == "", "CSV output does not end with a newline")
    require(lines[0] == ",".join(header), f"CSV header {lines[0]!r}")
    require(len(lines) == rows + 2, f"CSV has {len(lines) - 2} rows, expected {rows}")
    fields = ",".join(lines[1:-1]).split(",")
    require(len(fields) == rows * len(header), "CSV rows have the wrong field count")
    try:
        values = np.array(fields, dtype=np.float64).reshape(rows, len(header))
    except ValueError as error:
        raise CheckError(f"CSV field is not a number: {error}") from None
    return {name: values[:, k] for k, name in enumerate(header)}


def json_payload(text: str, command: str) -> dict:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise CheckError(f"output is not JSON: {error}") from None
    require(isinstance(payload, dict) and payload.get("command") == command,
            f"JSON payload does not name command {command!r}")
    return payload


def table_columns(text: str, fmt: str, command: str, header: list[str], rows: int,
                  meta: dict) -> dict[str, np.ndarray]:
    if fmt == "csv":
        return csv_columns(text, header, rows)
    payload = json_payload(text, command)
    for key, value in meta.items():
        require(payload.get(key) == value, f"JSON {key} is {payload.get(key)!r}, expected {value!r}")
    if command == "amp-table":
        elements = payload.get("elements", {})
        require(sorted(elements) == sorted(PATTERNS), "JSON elements do not cover 16 patterns")
        payload = {"theta": payload.get("theta"),
                   **{f"m_{name}": values for name, values in elements.items()}}
    columns = {}
    for name in header:
        column = payload.get(name)
        require(isinstance(column, list) and len(column) == rows,
                f"JSON {name} is not a list of {rows} values")
        columns[name] = column
    return columns


# ---------------------------------------------------------------------------
# generated calls and their checks

class Call(NamedTuple):
    argv: list[str]
    expect_rc: int
    check: Callable[[str], int]   # returns the work done, raises CheckError


def flag(name: str, value: float) -> str:
    # "=" keeps argparse from reading a negative value as an option.
    return f"--{name}={value!r}"


def theta_ends(rng: random.Random, margin: float, spread: float) -> tuple[float, float]:
    return (rng.uniform(margin, margin + spread),
            rng.uniform(math.pi - margin - spread, math.pi - margin))


def wavelength(rng: random.Random) -> float:
    return 10.0 ** rng.uniform(-9.0, -3.0)


def sized(samples: int, fmt: str) -> list[str]:
    return ["--samples", str(samples), "--format", fmt]


def check_table(command, header, grid, want, meta, fmt, atol, text) -> int:
    columns = table_columns(text, fmt, command, header, len(grid), meta)
    compare(header[0], columns[header[0]], grid)
    for name in header[1:]:
        compare(name, columns[name], want[name], atol)
    return len(grid)


def amp_table_call(rng, samples: int, fmt: str) -> Call:
    a, b = theta_ends(rng, 0.01, 0.49)
    grid = np.linspace(a, b, samples)
    header = ["theta"] + [f"m_{name}" for name in PATTERNS]
    argv = ["amp-table", flag("theta-min", a), flag("theta-max", b), *sized(samples, fmt)]
    return Call(argv, 0, partial(check_table, "amp-table", header, grid,
                                 ref_amplitudes(grid), {}, fmt, 0.0))


def dcs_scan_call(rng, samples: int, fmt: str) -> Call:
    a, b = theta_ends(rng, 0.01, 0.49)
    lam = wavelength(rng)
    grid = np.linspace(a, b, samples)
    want = {name: si_factor(lam) * ref_dcs_pqg(grid, w) for name, w in STATE_WEIGHTS.items()}
    want["dcs_averaged"] = si_factor(lam) * ref_dcs_averaged(grid)
    header = ["theta", *STATE_WEIGHTS, "dcs_averaged"]
    argv = ["dcs-scan", flag("theta-min", a), flag("theta-max", b),
            "--units", "si", flag("lambda", lam), *sized(samples, fmt)]
    meta = {"units": "si", "wavelength_m": lam}
    return Call(argv, 0, partial(check_table, "dcs-scan", header, grid, want, meta,
                                 fmt, 0.0))


def qed_scan_call(rng, samples: int, fmt: str) -> Call:
    a, b = theta_ends(rng, 0.01, 0.49)
    lam = wavelength(rng)
    grid = np.linspace(a, b, samples)
    want = {name: ref_dcs_qed(grid, w, lam) for name, w in STATE_WEIGHTS.items()}
    header = ["theta", *STATE_WEIGHTS]
    argv = ["qed-scan", flag("theta-min", a), flag("theta-max", b),
            flag("lambda", lam), *sized(samples, fmt)]
    meta = {"units": "si", "wavelength_m": lam}
    return Call(argv, 0, partial(check_table, "qed-scan", header, grid, want, meta,
                                 fmt, 0.0))


def coincidence_scan_call(rng, samples: int, fmt: str) -> Call:
    lo = rng.uniform(-math.pi, 0.0)
    hi = rng.uniform(math.pi, 3.0 * math.pi)
    grid = np.linspace(lo, hi, samples)
    # Default state phi = pi/4, rho = 0: factor 1 + cos(delta). Near delta = pi
    # the sum cancels, so the tolerance scales with the summands, not the sum.
    want = {"factor": 2.0 * np.cos(0.5 * grid) ** 2}
    argv = ["coincidence-scan", flag("delta-min", lo), flag("delta-max", hi),
            *sized(samples, fmt)]
    meta = {"phi": math.pi / 4, "rho": 0.0}
    return Call(argv, 0, partial(check_table, "coincidence-scan", ["delta", "factor"],
                                 grid, want, meta, fmt, 2.0 * REL_TOL))


def check_verify(samples: int, a: float, b: float, text: str) -> int:
    payload = json_payload(text, "verify")
    require(payload.get("passed") is True, "verify did not pass")
    require((payload.get("samples"), payload.get("theta_min"), payload.get("theta_max"))
            == (samples, a, b), "verify echoes a different grid")
    tolerance = payload.get("tolerance")
    require(tolerance == 1e-9 and payload.get("gauge_tolerance") == 1e-9,
            "verify used non-default tolerances")
    deviations = payload.get("pattern_deviations", {})
    require(sorted(deviations) == sorted(PATTERNS), "verify does not cover 16 patterns")
    require(all(0.0 <= d <= tolerance for d in deviations.values()),
            "verify passed with a deviation above tolerance")
    require(payload.get("identically_zero") == ZERO_PATTERNS, "verify zero patterns differ")
    require(0.0 <= payload.get("gauge_deviation", math.inf) <= tolerance,
            "verify passed with a gauge deviation above tolerance")
    return samples


def verify_call(rng) -> Call:
    a, b = theta_ends(rng, 0.05, 0.25)
    seed = rng.randrange(2 ** 31)
    argv = ["verify", "--format", "json", "--samples", str(VERIFY_SAMPLES),
            "--seed", str(seed), flag("theta-min", a), flag("theta-max", b)]
    return Call(argv, 0, partial(check_verify, VERIFY_SAMPLES, a, b))


def check_negative_control(text: str) -> int:
    require("result: FAIL" in text, "perturbed vertex did not report a failure")
    return 1


NEGATIVE_CONTROL = Call(["verify", "--perturb-vertex", PERTURBATION], 1,
                        check_negative_control)


def verify_gate_cycle(rng, index: int) -> list[Call]:
    return [verify_call(rng)]


def scan_bulk_cycle(rng, index: int) -> list[Call]:
    # Formats alternate along the cycle and swap from one cycle to the next,
    # so every scan runs as CSV and as JSON.
    makers = [(dcs_scan_call, 100000), (qed_scan_call, 100000),
              (amp_table_call, 20000), (coincidence_scan_call, 100000)]
    return [make(rng, samples, ("csv", "json")[(k + index) % 2])
            for k, (make, samples) in enumerate(makers)]


# Each workload is a cycle of calls. The timed loop runs whole cycles only,
# so a slow drift of the machine falls on every command alike.
WORKLOADS = {
    "verify_gate": verify_gate_cycle,
    "scan_bulk": scan_bulk_cycle,
}


def cycles(workload: str, seed: int):
    rng = random.Random(seed)
    for index in itertools.count():
        yield WORKLOADS[workload](rng, index)


def shape(argv: list[str]) -> str:
    """Command and output format: calls of one shape cost about the same."""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "default"
    return f"{argv[0]} {fmt}"


def mean_of_medians(samples: list[tuple[str, float]]) -> float:
    """Median per call shape, averaged over shapes.

    A workload mixing commands of different cost has a pooled median that
    jumps between the modes of the mix; this figure does not.
    """
    groups: dict[str, list[float]] = {}
    for key, value in samples:
        groups.setdefault(key, []).append(value)
    return statistics.fmean(statistics.median(v) for v in groups.values())


# ---------------------------------------------------------------------------
# subprocess runs

class Outcome(NamedTuple):
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    returncode: int
    stdout: str
    stderr: str
    timed_out: bool


class Launcher:
    """Runs children through bench/spawn.py, which explains why."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(ROOT / "bench" / "spawn.py")],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def _read(self, size: int) -> bytes:
        data = self.proc.stdout.read(size)
        if len(data) != size:
            raise RuntimeError("child launcher exited early")
        return data

    def run(self, args: list[str]) -> Outcome:
        request = {"args": args, "timeout": CALL_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request).encode() + b"\n")
        self.proc.stdin.flush()
        streams = {b"1": bytearray(), b"2": bytearray()}
        while True:
            head = self._read(5)
            payload = self._read(int.from_bytes(head[1:], "big"))
            if head[:1] == b"0":
                break
            streams[head[:1]] += payload
        outcome = json.loads(payload)
        return Outcome(outcome["wall_s"], outcome["cpu_s"], outcome["maxrss_kb"],
                       outcome["returncode"], streams[b"1"].decode(),
                       streams[b"2"].decode(errors="replace"), outcome["timed_out"])


class Ledger:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, check: Callable[[], int]) -> int | None:
        self.attempted += 1
        try:
            return check()
        except CheckError as error:
            self.failures.append(f"{label}: {error}")
            print(f"FAILED {label}: {error}", file=sys.stderr)
            return None


def checked_call(ledger: Ledger, call: Call, launcher: Launcher) -> tuple[Outcome, int | None]:
    outcome = launcher.run(["-m", "gravscatter.cli", *call.argv])

    def check() -> int:
        require(not outcome.timed_out, f"timed out after {CALL_TIMEOUT_S} s")
        require(outcome.returncode == call.expect_rc,
                f"exit code {outcome.returncode}, expected {call.expect_rc}; "
                f"stderr: {outcome.stderr.strip()[-300:]}")
        return call.check(outcome.stdout)

    items = ledger.record(" ".join(call.argv), check)
    # Large scan outputs are not kept once checked.
    return outcome._replace(stdout="", stderr=""), items


def probe(ledger: Ledger, args: list[str], launcher: Launcher) -> Outcome:
    outcome = launcher.run(args)

    def check() -> int:
        require(outcome.returncode == 0 and not outcome.timed_out,
                f"exit code {outcome.returncode}; stderr: {outcome.stderr.strip()[-300:]}")
        return 1

    ledger.record(" ".join(args[-2:]), check)
    return outcome


def tail(values: list[float]) -> tuple[float, int]:
    """Highest percentile with at least ten samples beyond it, and that percentile."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100
    return ordered[-11], (100 * (len(ordered) - 10)) // len(ordered)


def run_untraced(workload: str, seed: int, seconds: float) -> tuple[Ledger, dict, dict]:
    ledger = Ledger()
    stream = cycles(workload, seed)
    first = next(stream)
    timed: list[tuple[str, Outcome, int | None]] = []
    with Launcher() as launcher:
        # Untimed warm-up: compiles bytecode in a fresh checkout and fills the
        # page cache before anything is timed.
        checked_call(ledger, first[0], launcher)
        # Set-up probes are spread over the run, so they see the same state
        # of the machine as the calls; their time does not count as run time.
        setup: list[float] = []
        start = time.perf_counter()
        for cycle in itertools.chain([first], stream):
            for call in cycle:
                outcome, items = checked_call(ledger, call, launcher)
                timed.append((shape(call.argv), outcome, items))
                share = (time.perf_counter() - start - sum(setup)) / seconds
                while len(setup) < min(1.0, share) * SETUP_PROBES:
                    setup.append(probe(ledger, ["-c", "import gravscatter.cli"],
                                       launcher).wall_s)
            if time.perf_counter() - start - sum(setup) >= seconds:
                break
        while len(setup) < SETUP_PROBES:
            setup.append(probe(ledger, ["-c", "import gravscatter.cli"], launcher).wall_s)
        checked_call(ledger, NEGATIVE_CONTROL, launcher)

    walls = [outcome.wall_s for _, outcome, _ in timed]
    tail_s, percentile = tail(walls)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "call_ms.p50": (1e3 * mean_of_medians([(k, o.wall_s) for k, o, _ in timed]), "ms"),
        "call_ms.tail": (1e3 * tail_s, "ms"),
        "cpu_ms.p50": (1e3 * mean_of_medians([(k, o.cpu_s) for k, o, _ in timed]), "ms"),
        "items_per_s": (sum(items or 0 for _, _, items in timed) / sum(walls), "1/s"),
        "peak_rss_mb": (max(o.maxrss_kb for _, o, _ in timed) / 1024.0, "MB"),
        "success_frac": (1.0 - len(ledger.failures) / ledger.attempted, "ratio"),
    }
    by_shape: dict[str, list[Outcome]] = {}
    for key, outcome, _ in timed:
        by_shape.setdefault(key, []).append(outcome)
    detail = {
        "call_ms.tail": {"percentile": percentile, "samples": len(walls)},
        "setup_probes_s": setup,
        "per_shape": {key: {"calls": len(v),
                            "wall_ms_p50": 1e3 * statistics.median(o.wall_s for o in v),
                            "maxrss_mb": max(o.maxrss_kb for o in v) / 1024.0}
                      for key, v in by_shape.items()},
    }
    return ledger, metrics, detail


# ---------------------------------------------------------------------------
# traced in-process runs

# Functions wrapped in the traced run, as (module, name). The wrappers replace
# the names in gravscatter.cli and gravscatter.amplitudes, where they are
# looked up at call time. A name a later version no longer has is skipped
# and reports zero calls.
TRACED = [
    ("cli", "main"),
    ("amplitudes", "diagram_sum_matrix"),
    ("amplitudes", "amplitude_sum"),
    ("amplitudes", "vertex_tensor"),
    ("amplitudes", "closed_form_element"),
    ("lorentz", "contract_rank4_vectors"),
    ("kinematics", "com_config"),
    ("kinematics", "gauge_shift"),
    ("cross_sections", "dcs_entangled_pqg"),
    ("cross_sections", "dcs_averaged"),
    ("cross_sections", "si_convert"),
    ("cross_sections", "dcs_entangled_qed"),
    ("coincidence", "coincidence_factor"),
]
VERTEX_TENSOR_BYTES = 4 ** 4 * 8


class Tracer:
    """Spans (label, start, end, parent) of one cli.main call at a time.

    Spans stay in memory while a call runs; ``reduce`` folds them into
    per-label call counts and self times (duration minus the time covered
    by direct children) and clears them.
    """

    def __init__(self):
        self.labels = [f"{module}.{name}" for module, name in TRACED]
        self.calls = np.zeros(len(self.labels), dtype=np.int64)
        self.self_s = np.zeros(len(self.labels))
        self._clear()

    def _clear(self):
        self.label = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]

    def wrap(self, index: int, fn):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = len(self.start)
            self.label.append(index)
            self.parent.append(self.stack[-1])
            self.end.append(0.0)
            self.stack.append(span)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                self.stack.pop()

        return traced

    def reduce(self):
        labels = np.frombuffer(self.label, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        own = duration.copy()
        nested = parents >= 0
        np.subtract.at(own, parents[nested], duration[nested])
        self.calls += np.bincount(labels, minlength=len(self.labels))
        self.self_s += np.bincount(labels, weights=own, minlength=len(self.labels))
        self._clear()


@contextlib.contextmanager
def installed(tracer: Tracer, modules: dict):
    sites = [modules["cli"], modules["amplitudes"]]
    saved = []
    try:
        for index, (module, name) in enumerate(TRACED):
            original = getattr(modules[module], name, None)
            if original is None:
                continue
            wrapper = tracer.wrap(index, original)
            for site in sites:
                if getattr(site, name, None) is original:
                    saved.append((site, name, original))
                    setattr(site, name, wrapper)
        yield
    finally:
        for site, name, original in reversed(saved):
            setattr(site, name, original)


def in_process_pass(ledger: Ledger, calls: list[Call], modules: dict,
                    tracer: Tracer | None) -> tuple[float, int]:
    """Run every call through cli.main; return wall time and output bytes."""
    wall = 0.0
    output_bytes = 0
    for call in calls:
        buffer = io.StringIO()
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(installed(tracer, modules))
            stack.enter_context(contextlib.redirect_stdout(buffer))
            start = time.perf_counter()
            try:
                code = modules["cli"].main(call.argv)
            except SystemExit as exc:
                code = exc.code
            wall += time.perf_counter() - start
        if tracer is not None:
            tracer.reduce()
        text = buffer.getvalue()
        output_bytes += len(text.encode())

        def check() -> int:
            require(code == call.expect_rc, f"exit code {code}, expected {call.expect_rc}")
            return call.check(text)

        ledger.record(" ".join(call.argv), check)
    return wall, output_bytes


IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)")


def import_times_ms(stderr: str) -> dict[str, float]:
    """Cumulative -X importtime per top package, counting outermost entries only."""
    entries = [(len(m.group(2)) // 2, m.group(3).split(".")[0], int(m.group(1)))
               for m in map(IMPORT_LINE.match, stderr.splitlines()) if m]
    totals = {"numpy": 0.0, "scipy": 0.0, "gravscatter": 0.0}
    ancestors: list[tuple[int, str]] = []
    # Lines are printed in post-order; reversed, each parent precedes its children.
    for depth, root, cumulative_us in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if root in totals and all(root != outer for _, outer in ancestors):
            totals[root] += cumulative_us / 1e3
        ancestors.append((depth, root))
    return totals


def run_traced(workload: str, seed: int, seconds: float) -> tuple[Ledger, dict, dict]:
    ledger = Ledger()
    with Launcher() as launcher:
        probes = [import_times_ms(probe(ledger, ["-X", "importtime", "-c",
                                                 "import gravscatter.cli"], launcher).stderr)
                  for _ in range(IMPORT_PROBES)]
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"gravscatter.{name}")
               for name in {module for module, _ in TRACED}}
    calls = next(cycles(workload, seed))
    tracer = Tracer()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        before = tracer.calls.copy()
        untraced_s, _ = in_process_pass(ledger, calls, modules, None)
        traced_s, output_bytes = in_process_pass(ledger, calls, modules, tracer)
        passes.append((untraced_s, traced_s, output_bytes, tracer.calls - before))
    counts = passes[0][3]
    ledger.record("traced call counts", lambda: require(
        all(np.array_equal(p[3], counts) for p in passes),
        "traced call counts differ between passes") or 1)
    per_pass = len(passes)
    calls_of = dict(zip(tracer.labels, counts.tolist()))
    self_ms = dict(zip(tracer.labels, (1e3 * tracer.self_s / per_pass).tolist()))

    metrics = {f"import.{root}_ms": (statistics.median(p[root] for p in probes), "ms")
               for root in ("numpy", "scipy", "gravscatter")}
    for label in tracer.labels[1:]:
        metrics[f"{label}.calls"] = (calls_of[label], "count")
        if label != "kinematics.gauge_shift":
            metrics[f"{label}.self_ms"] = (self_ms[label], "ms")
    metrics["amplitudes.vertex_bytes_built"] = (
        calls_of["amplitudes.vertex_tensor"] * VERTEX_TENSOR_BYTES, "B")
    metrics["cli.self_ms"] = (self_ms["cli.main"], "ms")
    metrics["cli.output_bytes"] = (passes[0][2], "B")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced / untraced - 1.0 for untraced, traced, _, _ in passes),
        "ratio")
    detail = {
        "passes": per_pass,
        "argv": [call.argv for call in calls],
        "untraced_s_total": sum(p[0] for p in passes),
        "traced_s_total": sum(p[1] for p in passes),
        "import_probes_ms": probes,
    }
    return ledger, metrics, detail


# ---------------------------------------------------------------------------
# provenance and entry point

def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over the program's sources, since a checkout may carry no git data."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "gravscatter").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def provenance(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "seed": seed,
        "loadavg_start": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gravscatter" / "cli.py").is_file():
        print(f"no gravscatter sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    record = provenance(args.seed)
    run = run_traced if args.trace else run_untraced
    ledger, metrics, detail = run(args.workload, args.seed, args.seconds)
    record["loadavg_end"] = list(os.getloadavg())
    failed = len(ledger.failures)
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "provenance": record, **detail,
                      "failures": ledger.failures[:10]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
