"""Command-line interface behavior, exit codes, and output formats."""

import contextlib
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gravscatter import cli
from gravscatter.cli import VERIFY_THETA_MAX, VERIFY_THETA_MIN, main
from gravscatter.cross_sections import si_convert
from gravscatter.verify import build_verify_report

GATE_GRID = np.linspace(VERIFY_THETA_MIN, VERIFY_THETA_MAX, 5)
RIGHT_ANGLE_ARGS = ["--theta-min", "0.01", "--theta-max", str(math.pi - 0.01),
                    "--samples", "101"]
SRC = Path(__file__).resolve().parents[1] / "src"


def _rows(csv_text):
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    data = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return header, data


class TestDcsScan:
    def test_header_is_pinned(self, capsys):
        assert main(["dcs-scan", "--samples", "3"]) == 0
        header, _ = _rows(capsys.readouterr().out)
        assert header == ["theta", "dcs_product", "dcs_psi_plus",
                          "dcs_psi_minus", "dcs_averaged"]

    def test_row_count_and_grid(self, capsys):
        assert main(["dcs-scan", "--samples", "7", "--theta-min", "0.5",
                     "--theta-max", "2.5"]) == 0
        _, data = _rows(capsys.readouterr().out)
        assert len(data) == 7
        assert_allclose([row[0] for row in data], np.linspace(0.5, 2.5, 7),
                        rtol=1e-8)

    def test_right_angle_row(self, capsys):
        # an odd symmetric grid hits pi/2 exactly at the middle row
        assert main(["dcs-scan", *RIGHT_ANGLE_ARGS]) == 0
        _, data = _rows(capsys.readouterr().out)
        middle = data[50]
        assert_allclose(middle[0], math.pi / 2, rtol=1e-8)
        assert_allclose(middle[1], 32.0, rtol=1e-8)
        assert_allclose(middle[2], 64.0, rtol=1e-8)
        assert abs(middle[3]) <= 1e-12
        assert_allclose(middle[4], 32.25, rtol=1e-8)

    def test_byte_determinism(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["dcs-scan", "--output", str(first)]) == 0
        assert main(["dcs-scan", "--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_figure_units_rescale_by_eighty(self, capsys):
        assert main(["dcs-scan", "--samples", "4"]) == 0
        _, reduced = _rows(capsys.readouterr().out)
        assert main(["dcs-scan", "--samples", "4", "--units", "figure3"]) == 0
        _, scaled = _rows(capsys.readouterr().out)
        for row_r, row_s in zip(reduced, scaled):
            assert row_r[0] == row_s[0]
            for a, b in zip(row_r[1:], row_s[1:]):
                assert_allclose(b, a / 80.0, rtol=1e-8, atol=1e-300)

    def test_si_units(self, capsys):
        assert main(["dcs-scan", *RIGHT_ANGLE_ARGS, "--units", "si",
                     "--lambda", "5e-7"]) == 0
        _, data = _rows(capsys.readouterr().out)
        assert_allclose(data[50][2], si_convert(64.0, 5e-7), rtol=1e-8)

    def test_si_requires_wavelength(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["dcs-scan", "--units", "si"])
        assert excinfo.value.code == 2

    def test_json_round_trip(self, capsys):
        assert main(["dcs-scan", "--samples", "5", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "dcs-scan"
        assert payload["units"] == "reduced"
        assert len(payload["theta"]) == 5
        assert len(payload["dcs_psi_minus"]) == 5

    @pytest.mark.parametrize("argv", [
        ["dcs-scan", "--theta-min", "2.0", "--theta-max", "1.0"],
        ["dcs-scan", "--theta-min", "-0.5"],
        ["dcs-scan", "--theta-max", "3.5"],
        ["dcs-scan", "--samples", "1"],
        ["dcs-scan", "--units", "si", "--lambda", "-2e-7"],
    ])
    def test_usage_errors(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


class TestAmpTable:
    def test_columns_and_right_angle_values(self, capsys):
        assert main(["amp-table", *RIGHT_ANGLE_ARGS]) == 0
        header, data = _rows(capsys.readouterr().out)
        assert len(header) == 17
        assert header[0] == "theta"
        assert header[1] == "m_1111"
        assert header[-1] == "m_2222"
        middle = dict(zip(header, data[50]))
        assert_allclose(middle["m_1111"], -9.0, rtol=1e-8)
        assert_allclose(middle["m_1122"], 7.0, rtol=1e-8)
        assert_allclose(middle["m_1212"], -8.0, rtol=1e-8)
        assert middle["m_1112"] == 0.0

    def test_json_elements(self, capsys):
        assert main(["amp-table", "--samples", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = {"".join(p) for p in itertools.product("12", repeat=4)}
        assert set(payload["elements"].keys()) == expected


class TestQedScan:
    def test_reduced_brackets(self, capsys):
        assert main(["qed-scan", *RIGHT_ANGLE_ARGS, "--units", "reduced"]) == 0
        header, data = _rows(capsys.readouterr().out)
        assert header == ["theta", "dcs_product", "dcs_psi_plus", "dcs_psi_minus"]
        middle = data[50]
        assert_allclose(middle[1], 961.0, rtol=1e-8)
        assert_allclose(middle[2], 1922.0, rtol=1e-8)
        assert abs(middle[3]) <= 1e-8

    def test_si_default_needs_wavelength(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["qed-scan"])
        assert excinfo.value.code == 2

    def test_si_values(self, capsys):
        assert main(["qed-scan", "--samples", "3", "--lambda", "5e-7"]) == 0
        _, data = _rows(capsys.readouterr().out)
        assert all(row[2] > 0.0 for row in data)
        assert all(row[2] < 1e-71 for row in data)

    def test_figure_units_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["qed-scan", "--units", "figure3"])
        assert excinfo.value.code == 2


class TestCoincidenceScan:
    def test_default_state_fringe(self, capsys):
        assert main(["coincidence-scan", "--samples", "5", "--delta-min", "0",
                     "--delta-max", str(2.0 * math.pi)]) == 0
        header, data = _rows(capsys.readouterr().out)
        assert header == ["delta", "factor"]
        factors = [row[1] for row in data]
        assert_allclose(factors[0], 2.0, rtol=1e-8)
        assert abs(factors[2]) <= 1e-8
        assert_allclose(factors[4], 2.0, rtol=1e-8)

    def test_custom_state(self, capsys):
        assert main(["coincidence-scan", "--phi", "0.0", "--rho", "0.0",
                     "--samples", "4"]) == 0
        _, data = _rows(capsys.readouterr().out)
        assert all(row[1] == 1.0 for row in data)

    def test_bad_state_is_usage_error(self, capsys):
        for option, value, words in (("--phi", "2.0", "phi must lie in [0, pi/2]"),
                                     ("--rho", "5.0", "rho must lie in")):
            with pytest.raises(SystemExit) as excinfo:
                main(["coincidence-scan", option, value])
            assert excinfo.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            last = captured.err.strip().splitlines()[-1]
            assert last.startswith("gravscatter: error: ") and words in last

    def test_bad_grid_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["coincidence-scan", "--delta-min", "3.0", "--delta-max", "1.0"])
        assert excinfo.value.code == 2


class TestVerify:
    def test_stock_build_passes(self, capsys):
        assert main(["verify", "--samples", "20"]) == 0
        out = capsys.readouterr().out
        assert "result: PASS" in out
        assert out.count("identically zero") == 8
        assert out.count("m_") == 16

    def test_perturbed_vertex_fails(self, capsys):
        assert main(["verify", "--samples", "8", "--perturb-vertex", "1e-3"]) == 1
        assert "result: FAIL" in capsys.readouterr().out

    def test_json_report(self, capsys):
        assert main(["verify", "--samples", "10", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert len(payload["pattern_deviations"]) == 16
        assert len(payload["identically_zero"]) == 8
        assert payload["gauge_deviation"] <= 1e-9

    def test_report_object(self):
        report, _ = build_verify_report(GATE_GRID, tolerance=1e-9, gauge_tolerance=1e-9, seed=20)
        assert report["passed"]
        assert set(report["identically_zero"]) == {
            "1112", "1121", "1211", "2111", "1222", "2122", "2212", "2221"}
        for name, deviation in report["pattern_deviations"].items():
            assert deviation <= 1e-9, name

    @pytest.mark.parametrize("argv, code", [
        (["--seed", "0"], 0),
        (["--tolerance", "inf", "--gauge-tolerance", "inf"], 0),
        (["--tolerance", "0"], 1),
        (["--gauge-tolerance", "0"], 1),
    ])
    def test_option_bounds_are_not_usage_errors(self, argv, code, capsys):
        assert main(["verify", "--samples", "5", *argv]) == code
        assert capsys.readouterr().out.endswith(f"result: {'FAIL' if code else 'PASS'}\n")

    def test_tight_tolerance_can_fail(self):
        report, _ = build_verify_report(GATE_GRID, tolerance=1e-17,
                                        gauge_tolerance=1e-17, seed=20)
        assert not report["passed"]

    @pytest.mark.parametrize("option", ["tolerance", "gauge_tolerance"])
    def test_one_pass_rule_at_its_edge(self, option):
        """A largest deviation equal to its tolerance passes; one ulp less tolerance fails.

        Either way the JSON "passed", the result line and every row's status
        agree with deviation <= tolerance.
        """
        loose = {"tolerance": math.inf, "gauge_tolerance": math.inf, "seed": 20}
        report, _ = build_verify_report(GATE_GRID, **loose)
        largest = (max(report["pattern_deviations"].values()) if option == "tolerance"
                   else report["gauge_deviation"])
        assert largest > 0.0
        for tolerance, passed in ((largest, True), (np.nextafter(largest, 0.0), False)):
            report, text = build_verify_report(GATE_GRID, **{**loose, option: tolerance})
            rows = [deviation <= report["tolerance"]
                    for deviation in report["pattern_deviations"].values()]
            rows.append(report["gauge_deviation"] <= report["gauge_tolerance"])
            statuses = re.findall(r"max deviation \S+  (PASS|FAIL)", text)
            assert statuses == ["PASS" if row else "FAIL" for row in rows]
            assert all(rows) is passed
            assert report["passed"] is passed
            assert text.endswith(f"result: {'PASS' if passed else 'FAIL'}\n")


class TestSiSummary:
    def test_pqg_exponent(self, capsys):
        assert main(["si", "--lambda", "5e-7"]) == 0
        out = capsys.readouterr().out
        assert "exponent: -126" in out

    def test_qed_exponent(self, capsys):
        assert main(["si", "--lambda", "1e-8", "--theory", "qed"]) == 0
        assert "exponent: -62" in capsys.readouterr().out

    def test_json_payload(self, capsys):
        assert main(["si", "--lambda", "5e-7", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exponent"] == -126
        assert_allclose(payload["dcs_scale_m2_sr"], si_convert(32.0, 5e-7),
                        rtol=1e-12)

    def test_lambda_required(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["si"])
        assert excinfo.value.code == 2

    def test_lambda_positive(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["si", "--lambda", "-1e-7"])
        assert excinfo.value.code == 2

    def test_smallest_normal_values_print(self, capsys):
        # 2.18e-306 is a normal float, if only just: 1e85 gives a subnormal
        assert main(["si", "--lambda", "1e84"]) == 0
        assert "dcs_scale_m2_sr: 2.183683e-306\n" in capsys.readouterr().out


class TestUnevaluableInputs:
    """A grid on a pole or an input beyond float range: exit 2, one error line."""

    @pytest.mark.parametrize("argv, words", [
        (["verify", "--theta-min", "1e-6"], "pole at theta = 1e-06"),
        (["verify", "--theta-min", "1e-6", "--format", "json"], "t-channel"),
        (["dcs-scan", "--theta-min", "1e-100"], "divide by zero"),
        (["dcs-scan", "--theta-min", "1e-100", "--units", "si", "--lambda", "1e-6",
          "--format", "json"], "divide by zero"),
        (["amp-table", "--theta-min", "1e-170"], "divide by zero"),
        (["amp-table", "--theta-min", "1e-170", "--format", "json"], "divide by zero"),
        (["si", "--lambda", "1e-200"], "divide by zero"),
        (["qed-scan", "--lambda", "1e-80"], "division by zero"),
        (["dcs-scan", "--units", "si", "--lambda", "1e300"], "out of range"),
        (["coincidence-scan", "--delta-max", "inf"], "finite"),
        (["verify", "--seed", "-1"], "--seed must be non-negative"),
        (["verify", "--tolerance", "nan"], "--tolerance must be a non-negative"),
        (["verify", "--tolerance=-1e-9", "--format", "json"], "--tolerance must be"),
        (["verify", "--gauge-tolerance", "nan"], "--gauge-tolerance must be"),
        (["verify", "--gauge-tolerance=-1"], "--gauge-tolerance must be"),
        (["si", "--lambda", "inf"], "--lambda must be finite and positive"),
        (["si", "--lambda=-1e-7"], "--lambda must be finite and positive"),
        (["si", "--lambda", "0"], "--lambda must be finite and positive"),
        (["si", "--lambda", "nan", "--theory", "qed"], "--lambda must be finite"),
        (["dcs-scan", "--units", "si", "--lambda", "inf"], "--lambda must be finite"),
        (["dcs-scan", "--units", "si", "--lambda", "inf", "--format", "json"],
         "--lambda must be finite"),
        (["qed-scan", "--lambda", "inf"], "--lambda must be finite"),
        (["qed-scan", "--lambda=-inf", "--format", "json"], "--lambda must be finite"),
        (["verify", "--perturb-vertex", "inf"], "--perturb-vertex must be finite"),
        (["verify", "--perturb-vertex=-inf", "--format", "json"],
         "--perturb-vertex must be finite"),
        (["verify", "--perturb-vertex", "nan"], "--perturb-vertex must be finite"),
        (["si", "--lambda", "1e100"], "underflows to 0"),
        (["si", "--theory", "qed", "--lambda", "1e40"], "underflows to 0"),
        (["si", "--lambda", "1e100", "--format", "json"], "underflows to 0"),
        (["dcs-scan", "--units", "si", "--lambda", "1e100", "--samples", "3"],
         "pqg cross section at --lambda 1e+100 underflows to 0"),
        (["qed-scan", "--lambda", "1e40", "--samples", "3"],
         "qed cross section at --lambda 1e+40 underflows to 0"),
        # Subnormal values have lost significant digits, so they count as 0.
        (["si", "--lambda", "1e90"], "below the smallest normal float"),
        (["si", "--lambda", "1e85"], "below the smallest normal float"),
        (["si", "--theory", "qed", "--lambda", "1e35"], "below the smallest normal float"),
        (["dcs-scan", "--units", "si", "--lambda", "1e90", "--samples", "3"],
         "pqg cross section at --lambda 1e+90 underflows to 0"),
        (["qed-scan", "--lambda", "1e35", "--theta-min", "1e-8", "--theta-max", "1.5",
          "--samples", "3"], "qed cross section at --lambda 1e+35 underflows to 0"),
        (["qed-scan", "--lambda", "2e35", "--theta-min", "1e-8", "--theta-max", "1.5",
          "--samples", "3"], "qed cross section at --lambda 2e+35 underflows to 0"),
        # numpy refuses the first count outright; the second would need
        # 711 PiB. Neither allocates anything.
        (["verify", "--samples", "10000000000000000000"], "--samples"),
        (["verify", "--samples", "100000000000000000", "--format", "json"], "--samples"),
        (["coincidence-scan", "--samples", "10000000000000000000"], "--samples"),
        (["coincidence-scan", "--samples", "100000000000000000"], "--samples"),
        (["coincidence-scan", "--samples", "1"], "--samples must be at least 2"),
    ])
    def test_usage_error(self, argv, words, capsys):
        assert words in self._error_line(argv, capsys)

    @pytest.mark.parametrize("argv", [
        ["coincidence-scan", "--delta-min=-1e308", "--delta-max=1e308"],
        ["verify", "--perturb-vertex", "1e300"],
    ])
    def test_unevaluable_names_no_foreign_option(self, argv, capsys):
        # Neither command has --lambda, so the catch-all hint must not name it.
        last = self._error_line(argv, capsys)
        assert "cannot evaluate (" in last and "--lambda" not in last

    @staticmethod
    def _error_line(argv, capsys) -> str:
        """The one stderr line of a usage error, after checking exit 2 and no stdout."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        last = captured.err.strip().splitlines()[-1]
        assert last.startswith("gravscatter: error: ")
        return last

    @pytest.mark.parametrize("argv", [
        # Only the row next to the pole is representable in SI units.
        ["dcs-scan", "--units", "si", "--lambda", "1e100", "--theta-min", "1e-8",
         "--theta-max", "1.5", "--samples", "3"],
        # An overflow to inf is a non-zero row too.
        ["dcs-scan", "--units", "si", "--lambda", "1e100", "--theta-min", "1e-80",
         "--samples", "3"],
    ])
    def test_si_scan_with_a_non_zero_row_prints(self, argv, capsys):
        assert main(argv) == 0
        _, data = _rows(capsys.readouterr().out)
        assert all(value != 0.0 for value in data[0])

    def test_si_scan_with_a_zero_cell_prints(self, capsys):
        # psi- vanishes at the right angle, but the table's largest value does not
        argv = ["qed-scan", "--units", "si", "--lambda", "1e31", "--theta-min", "1e-8",
                "--theta-max", repr(math.pi / 2), "--samples", "2"]
        assert main(argv) == 0
        _, data = _rows(capsys.readouterr().out)
        assert all(value > 0.0 for value in data[0][1:])
        assert data[-1][3] == 0.0 < data[-1][1]

    def test_overflow_rows_still_print(self, capsys):
        assert main(["dcs-scan", "--theta-min", "1e-80", "--samples", "3"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "1e-80,inf,inf,inf,inf"
        assert main(["amp-table", "--theta-min", "1e-160", "--samples", "3"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("1e-160,-inf,0,")


class TestNegativeValues:
    """A negative float written after its option, as argparse alone would refuse it."""

    @staticmethod
    def _outcome(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("joined", [
        "verify --samples 5 --perturb-vertex=-1e-3",
        "verify --samples 5 --perturb-vertex=-1e-3 --format json",
        "verify --samples 5 --tolerance=-1e-9",
        "verify --samples 5 --gauge-tolerance=-1E-9",
        "verify --samples 5 --theta-min=-1e-3",
        "coincidence-scan --delta-min=-1e-3 --samples 2",
        "coincidence-scan --delta-min=-2e0 --delta-max=-1e-3 --samples 3",
        "coincidence-scan --delta-min=-inf --samples 2",
        "coincidence-scan --phi=-1e-3 --samples 2",
        "coincidence-scan --rho=-1e-3 --samples 2 --format json",
        "dcs-scan --theta-min=1e-3 --theta-max=-1e-3 --samples 2",
        "dcs-scan --units si --lambda=-5e-7 --samples 2",
        "qed-scan --lambda=-5e-7 --samples 2",
        "si --lambda=-5e-7",
    ])
    def test_spaced_value_reads_as_joined(self, joined, capsys):
        spaced = [piece for token in joined.split() for piece in token.split("=")]
        assert "=" in joined
        assert self._outcome(spaced, capsys) == self._outcome(joined.split(), capsys)

    def test_negative_perturbation_fails(self, capsys):
        code, out, _ = self._outcome(["verify", "--samples", "5", "--perturb-vertex", "-1e-3"],
                                     capsys)
        assert code == 1
        assert out.endswith("result: FAIL\n")


def test_output_file(tmp_path):
    path = tmp_path / "scan.csv"
    assert main(["dcs-scan", "--samples", "4", "--output", str(path)]) == 0
    header, data = _rows(path.read_text(encoding="utf-8"))
    assert header[0] == "theta"
    assert len(data) == 4


def test_missing_command_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_theta_formatting_has_nine_significant_digits(capsys):
    assert main(["dcs-scan", "--samples", "2", "--theta-min",
                 "1.234567891234", "--theta-max", "2.0"]) == 0
    out = capsys.readouterr().out
    assert "1.23456789," in out


def _cli_process(argv, **streams):
    """The CLI started as a child process, from this checkout's sources.

    Its stdout is block-buffered, as by default, so that a small table
    reaches the device only when the CLI flushes.
    """
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return subprocess.Popen([sys.executable, "-m", "gravscatter.cli", *argv],
                            env=dict(env, PYTHONPATH=str(SRC)), start_new_session=True,
                            **streams)


def _kill_group(proc):
    """Kill whatever is left of the CLI's process group, workers included."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)


def _output_error_line(stderr: bytes) -> str:
    lines = stderr.decode().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("gravscatter: error: cannot write output: ")
    return lines[0]


class TestOutputErrors:
    """Each case runs as a subprocess under a timeout: a formatting worker
    left blocked or orphaned would hold the stderr pipe open and fail it."""

    def test_closed_stdout_ends_quietly(self):
        # gravscatter dcs-scan --samples 100000 | head -1
        with _cli_process(["dcs-scan", "--samples", "100000"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            try:
                assert proc.stdout.readline().startswith(b"theta,dcs_product,")
                proc.stdout.close()
                _, err = proc.communicate(timeout=60)
            finally:
                _kill_group(proc)
        assert (proc.returncode, err) == (141, b"")

    def test_unwritable_output_path(self, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        with _cli_process(["dcs-scan", "--output", str(path)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            try:
                out, err = proc.communicate(timeout=60)
            finally:
                _kill_group(proc)
        assert (proc.returncode, out) == (2, b"")
        assert "No such file or directory" in _output_error_line(err)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("samples", ["7", "100000"])
    def test_full_device(self, samples):
        # A table small enough to sit in stdout's buffer until the flush, and
        # one large enough to be formatted by workers.
        with open("/dev/full", "wb") as full, \
                _cli_process(["dcs-scan", "--format", "json", "--samples", samples],
                             stdout=full, stderr=subprocess.PIPE) as proc:
            try:
                _, err = proc.communicate(timeout=60)
            finally:
                _kill_group(proc)
        assert proc.returncode == 2
        assert "No space left on device" in _output_error_line(err)


class TestFormattingWorkers:
    def test_one_worker_per_usable_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        assert cli._workers(cli._FORK_MIN_VALUES - 1) == 0
        assert cli._workers(cli._FORK_MIN_VALUES) == 4
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert cli._workers(10 ** 9) == 0

    def test_forked_scan_writes_nothing_to_stderr(self, monkeypatch, capfd):
        monkeypatch.setattr(cli, "_workers", lambda values: 2)
        assert main(["dcs-scan", "--samples", "100", "--format", "json"]) == 0
        out, err = capfd.readouterr()
        assert err == ""
        assert json.loads(out)["theta"][-1] == cli.DEFAULT_THETA_MAX

    def test_failed_worker_fails_the_command(self, monkeypatch, capsys):
        argv = ["dcs-scan", "--samples", "95"]
        assert main(argv) == 0
        table = capsys.readouterr().out
        # Chunks of 10 rows; the job of the sixth, rows 50 to 59, raises in
        # the second of two workers, which has sent the frames before it.
        real = cli._csv_rows
        failing_start = float(table.splitlines()[51].split(",")[0])

        def failing(row, chunk):
            if float("%.9g" % chunk[0, 0]) == failing_start:
                raise RuntimeError("job failed")
            return real(row, chunk)

        monkeypatch.setattr(cli, "_csv_rows", failing)
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 10)
        monkeypatch.setattr(cli, "_workers", lambda values: 2)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert "formatting worker" in _output_error_line(err.encode())
        # The relay stops at the failed job: the header and five chunks.
        assert out == "".join(table.splitlines(keepends=True)[:51])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_exit_status_fails_the_command(self, monkeypatch, capsys):
        argv = ["dcs-scan", "--samples", "95"]
        assert main(argv) == 0
        table = capsys.readouterr().out
        # Each worker sends every frame, then exits 3 instead of 0.
        real_exit = os._exit
        monkeypatch.setattr(os, "_exit", lambda code: real_exit(3 if code == 0 else code))
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 10)
        monkeypatch.setattr(cli, "_workers", lambda values: 2)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert "ended with wait status" in _output_error_line(err.encode())
        assert out == table
