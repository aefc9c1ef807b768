"""Command-line interface behavior, exit codes, and output formats."""

import argparse
import contextlib
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gravscatter import cli, verify
from gravscatter.amplitudes import channel_amplitudes
from gravscatter.cli import VERIFY_THETA_MAX, VERIFY_THETA_MIN, main
from gravscatter.constants import COMPTON_WAVELENGTH, PLANCK_LENGTH
from gravscatter.cross_sections import si_convert
from gravscatter.kinematics import com_arrays
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
        report, _ = build_verify_report(GATE_GRID)
        assert report["passed"]
        assert set(report["identically_zero"]) == {
            "1112", "1121", "1211", "2111", "1222", "2122", "2212", "2221"}
        for name, deviation in report["pattern_deviations"].items():
            assert deviation <= 1e-9, name

    def test_gauge_round_off_on_the_default_grid(self):
        # A vertex built from the field strengths F = k ^ e gives F(p, p) = 0
        # exactly, so the unperturbed Ward amplitude rounds to 0.0.
        grid = np.linspace(VERIFY_THETA_MIN, VERIFY_THETA_MAX, 100)
        assert build_verify_report(grid)[0]["gauge_deviation"] == 0.0

    @given(ends=st.tuples(st.floats(1e-4, math.pi - 1e-4), st.floats(1e-4, math.pi - 1e-4)),
           samples=st.integers(2, 50))
    @settings(max_examples=50, deadline=None)
    def test_ward_amplitude_is_zero_on_any_grid(self, ends, samples):
        grid = np.linspace(min(ends), max(ends), samples)
        assert build_verify_report(grid)[0]["gauge_deviation"] == 0.0

    def test_gauge_sweep_catches_a_small_perturbation(self):
        # On the default grid a 1e-9 vertex perturbation stays within the
        # pattern tolerance, so only the gauge row can catch it.
        grid = np.linspace(VERIFY_THETA_MIN, VERIFY_THETA_MAX, 100)
        report, _ = build_verify_report(grid, vertex_perturbation=1e-9)
        assert report["gauge_deviation"] > report["gauge_tolerance"]
        assert max(report["pattern_deviations"].values()) <= report["tolerance"]
        assert not report["passed"]

    @pytest.mark.parametrize("perturbation", [1e-12, -1e-12, 4e-10, -4e-10, 1e-9, 1e-3, -1e-3])
    def test_gauge_score_is_linear_in_the_perturbation(self, perturbation):
        # Unperturbed the Ward amplitude is 0.0, so the score is the
        # perturbation term's alone: 2.6213 |x| on the default grid, to
        # first order in x.
        grid = np.linspace(VERIFY_THETA_MIN, VERIFY_THETA_MAX, 100)
        report, _ = build_verify_report(grid, vertex_perturbation=perturbation)
        assert report["gauge_deviation"] == pytest.approx(2.6213497 * abs(perturbation),
                                                          rel=1e-3)
        assert report["passed"] is (abs(perturbation) < 3e-10)

    @pytest.mark.parametrize("perturbation", ["4e-10", "-4e-10"])
    def test_gauge_row_alone_fails_a_4e_10_perturbation(self, perturbation, capsys):
        # Every pattern row passes; the Ward score, 2.62 times the
        # perturbation, does not.
        assert main(["verify", f"--perturb-vertex={perturbation}"]) == 1
        statuses = re.findall(r"max deviation \S+  (PASS|FAIL)", capsys.readouterr().out)
        assert statuses == ["PASS"] * 16 + ["FAIL"]

    @pytest.mark.parametrize("photon", range(4))
    def test_score_bounds_every_shift_up_to_ten(self, photon):
        # Each amplitude is linear in each polarization, so shifting e_j by
        # xi p_j moves M(P) by xi times the Ward amplitude: with |xi| <= 10 no
        # shift moves any pattern by more than the score.
        grid = np.linspace(VERIFY_THETA_MIN, VERIFY_THETA_MAX, 100)
        score = build_verify_report(grid, vertex_perturbation=1e-3)[0]["gauge_deviation"]
        rng = np.random.default_rng(8 + photon)
        angles = np.linspace(grid[0], grid[-1], verify._GAUGE_ANGLES)
        for theta, momenta, basis in zip(angles, *com_arrays(angles)):
            for labels in verify._NONZERO_LABELS:
                pols = basis[np.arange(4), labels]
                base = channel_amplitudes(theta, pols, vertex_perturbation=1e-3).sum()
                for xi in rng.uniform(-10.0, 10.0, size=4):
                    shifted = pols.copy()
                    shifted[photon] += xi * momenta[photon]
                    moved = channel_amplitudes(theta, shifted, vertex_perturbation=1e-3).sum()
                    assert abs(moved - base) <= (score + 1e-13) * abs(base)

    @pytest.mark.parametrize("seed", ["0", "3", "-1", str(2**64)])
    @pytest.mark.parametrize("output", ["text", "json"])
    def test_seed_is_accepted_and_ignored(self, output, seed, capsys):
        argv = ["verify", "--samples", "5", "--format", output]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main([*argv, "--seed", seed]) == 0
        assert capsys.readouterr().out == plain

    def test_help_does_not_offer_seed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--help"])
        assert excinfo.value.code == 0
        options = re.findall(r"^  (-[-\w]+)", capsys.readouterr().out, flags=re.MULTILINE)
        assert options == ["-h", "--theta-min", "--theta-max", "--samples",
                           "--perturb-vertex", "--format", "--output"]

    @pytest.mark.parametrize("argv, code", [
        (["--samples", "2"], 0),
        (["--perturb-vertex", "-1"], 1),  # a zeroed vertex term fails the gate
    ])
    def test_option_bounds_are_not_usage_errors(self, argv, code, capsys):
        assert main(["verify", "--samples", "5", *argv]) == code
        assert capsys.readouterr().out.endswith(f"result: {'FAIL' if code else 'PASS'}\n")

    def test_tight_tolerance_can_fail(self, monkeypatch):
        monkeypatch.setattr(verify, "_TOLERANCE", 1e-17)
        monkeypatch.setattr(verify, "_GAUGE_TOLERANCE", 1e-17)
        report, _ = build_verify_report(GATE_GRID)
        assert not report["passed"]

    @pytest.mark.parametrize("constant", ["_TOLERANCE", "_GAUGE_TOLERANCE"])
    def test_one_pass_rule_at_its_edge(self, constant, monkeypatch):
        """A largest deviation equal to its tolerance passes; one ulp less tolerance fails.

        Either way the JSON "passed", the result line and every row's status
        agree with deviation <= tolerance. The unperturbed gauge score is 0.0,
        so its case runs on a vertex perturbed by 1e-12.
        """
        perturbation = 1e-12 if constant == "_GAUGE_TOLERANCE" else 0.0
        monkeypatch.setattr(verify, "_TOLERANCE", math.inf)
        monkeypatch.setattr(verify, "_GAUGE_TOLERANCE", math.inf)
        report, _ = build_verify_report(GATE_GRID, vertex_perturbation=perturbation)
        largest = (max(report["pattern_deviations"].values()) if constant == "_TOLERANCE"
                   else report["gauge_deviation"])
        assert largest > 0.0
        # A Python float: an np.float64 limit would make each row's verdict an np.bool_.
        for tolerance, passed in ((largest, True), (float(np.nextafter(largest, 0.0)), False)):
            monkeypatch.setattr(verify, constant, tolerance)
            report, text = build_verify_report(GATE_GRID, vertex_perturbation=perturbation)
            rows = [deviation <= report["tolerance"]
                    for deviation in report["pattern_deviations"].values()]
            rows.append(report["gauge_deviation"] <= report["gauge_tolerance"])
            statuses = re.findall(r"max deviation \S+  (PASS|FAIL)", text)
            assert statuses == ["PASS" if row else "FAIL" for row in rows]
            assert all(rows) is passed
            assert report["passed"] is passed
            assert text.endswith(f"result: {'PASS' if passed else 'FAIL'}\n")

    @pytest.mark.parametrize("option", ["--tolerance", "--gauge-tolerance"])
    def test_tolerances_are_not_options(self, option, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--samples", "5", option, "1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


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

    @pytest.mark.parametrize("argv, line", [
        # Just above the electron's reduced Compton wavelength, the QED floor
        (["si", "--theory", "qed", "--lambda", "4e-13"], "dcs_scale_m2_sr: 4.950011e-36\n"),
        (["si", "--theory", "qed", "--lambda", repr(math.nextafter(COMPTON_WAVELENGTH, 1.0))],
         "exponent: -36\n"),
        # Just above the Planck length, the gravity floor, where the largest
        # gravity value is normal: 8.359297e-69
        (["si", "--lambda", "2e-35"], "dcs_scale_m2_sr: 5.459207e-69\n"),
        (["si", "--lambda", repr(math.nextafter(PLANCK_LENGTH, 1.0))],
         "dcs_scale_m2_sr: 8.359297e-69\n"),
        # Reduced values carry no wavelength, so they have no floor.
        (["qed-scan", "--units", "reduced", "--lambda", "1e-80", "--samples", "2"],
         "0.01,1639.9312,2311.9592,967.903203\n"),
        (["dcs-scan", "--units", "reduced", "--lambda", "1e-250", "--samples", "3"],
         "1.57079633,32,64,4.13769353e-31,32.25\n"),
    ])
    def test_wavelength_floor_spares(self, argv, line, capsys):
        assert main(argv) == 0
        assert line in capsys.readouterr().out

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
        # Perturbative gravity holds only above the Planck length; the bound is named.
        (["si", "--lambda", "1e-250"],
         "wavelength 1e-250 m must lie above the Planck length, 1.61626e-35 m"),
        (["si", "--lambda", "1e-223", "--format", "json"], "above the Planck length"),
        (["si", "--lambda", "1e-40"], "above the Planck length, 1.61626e-35 m"),
        (["si", "--lambda", repr(PLANCK_LENGTH)], "perturbative quantum gravity fails"),
        (["dcs-scan", "--units", "si", "--lambda", "1e-40", "--samples", "3"],
         "above the Planck length, 1.61626e-35 m"),
        (["qed-scan", "--lambda", "1e-80"], "above the electron's reduced Compton wavelength"),
        (["dcs-scan", "--units", "si", "--lambda", "1e300"], "out of range"),
        (["coincidence-scan", "--delta-max", "inf"], "finite"),
        (["dcs-scan", "--theta-min", "nan"], "need 0 < --theta-min < --theta-max < pi"),
        (["verify", "--theta-max", "nan"], "need 0 < --theta-min < --theta-max < pi"),
        (["amp-table", "--theta-min", "1", "--theta-max", "1"],
         "need 0 < --theta-min < --theta-max < pi"),
        (["qed-scan", "--theta-min", "0"], "need 0 < --theta-min < --theta-max < pi"),
        (["dcs-scan", "--theta-max", "3.141592653589793"],
         "need 0 < --theta-min < --theta-max < pi"),
        (["verify", "--samples", "1"], "--samples must be at least 2"),
        (["verify", "--theta-max", "4"], "need 0 < --theta-min < --theta-max < pi"),
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
        # The loop formula holds only well above lambda_C; the bound is named.
        (["si", "--theory", "qed", "--lambda", "1e-60"],
         "wavelength 1e-60 m must lie above the electron's reduced Compton wavelength, "
         "3.86159e-13 m"),
        (["qed-scan", "--lambda", "1e-80", "--samples", "100000", "--format", "json"],
         "reduced Compton wavelength, 3.86159e-13 m"),
        (["si", "--theory", "qed", "--lambda", "1e-15"],
         "reduced Compton wavelength, 3.86159e-13 m"),
        (["si", "--theory", "qed", "--lambda", repr(COMPTON_WAVELENGTH)], "pair threshold"),
    ])
    def test_usage_error(self, argv, words, capsys):
        last = self._error_line(argv, capsys)
        assert words in last
        assert "cannot convert" not in last  # Python's text for int(inf)

    @pytest.mark.parametrize("argv", [
        ["coincidence-scan", "--delta-min=-1e308", "--delta-max=1e308"],
        ["verify", "--perturb-vertex", "1e300"],
    ])
    def test_unevaluable_names_no_foreign_option(self, argv, capsys):
        # Neither command has --lambda, so the catch-all hint must not name it.
        last = self._error_line(argv, capsys)
        assert "cannot evaluate (" in last and "--lambda" not in last

    @pytest.mark.parametrize("handler, fields, message", [
        (cli._run_si, {"wavelength": 0.0, "theory": "pqg", "format": "text"},
         "--lambda must be finite and positive"),
        (cli._run_coincidence_scan, {"phi": 2.0, "rho": 0.0, "delta_min": 0.0, "delta_max": 1.0,
                                     "samples": 5, "format": "csv"},
         "phi must lie in [0, pi/2], got 2.0"),
    ])
    def test_handler_raises_the_usage_error(self, handler, fields, message, capsys):
        # A handler takes the parsed arguments alone and raises where it
        # finds the fault; only main reports it, so nothing is written here.
        with pytest.raises(ValueError) as excinfo:
            handler(argparse.Namespace(**fields))
        assert str(excinfo.value) == message
        assert capsys.readouterr() == ("", "")

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


class TestStreamedColumns:
    """Each formatting job computes its own rows; one pass over the grid, in
    chunks of _CHUNK_VALUES angles, finds every usage error first."""

    # psi+ is each row's largest value. At --lambda 9.552e32 it is subnormal
    # on rows 1-4 of this grid and normal from row 5 on; at 1e33, on every row.
    GRID = ["--theta-min", repr(math.pi / 2), "--theta-max", repr(math.pi - 1e-3),
            "--samples", "50"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_normal_rows_after_subnormal_jobs_print_the_whole_table(self, fmt, monkeypatch,
                                                                     capsys):
        argv = ["qed-scan", "--lambda", "9.552e32", *self.GRID, "--format", fmt]
        assert main(argv) == 0
        whole = capsys.readouterr().out  # every column in one job
        psi_plus = (json.loads(whole)["dcs_psi_plus"] if fmt == "json"
                    else [row[2] for row in _rows(whole)[1]])
        assert max(psi_plus[:4]) < sys.float_info.min <= psi_plus[4]
        for values in (3, 4, 7):
            monkeypatch.setattr(cli, "_CHUNK_VALUES", values)
            assert main(argv) == 0
            assert capsys.readouterr().out == whole, values

    @pytest.mark.parametrize("argv, words", [
        (["qed-scan", "--lambda", "1e33", *GRID],
         "the qed cross section at --lambda 1e+33 underflows to 0"),
        (["qed-scan", "--lambda", "1e33", *GRID, "--format", "json"],
         "the qed cross section at --lambda 1e+33 underflows to 0"),
        (["dcs-scan", "--theta-min", "1e-170"], "cannot evaluate (divide by zero"),
        (["dcs-scan", "--theta-min", "1e-170", "--format", "json"],
         "cannot evaluate (divide by zero"),
        (["amp-table", "--theta-min", "1e-170"], "cannot evaluate (divide by zero"),
        (["amp-table", "--theta-min", "1e-170", "--format", "json"],
         "cannot evaluate (divide by zero"),
    ])
    @pytest.mark.parametrize("values", [3, 4])
    def test_usage_errors_with_tiny_jobs(self, argv, words, values, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_CHUNK_VALUES", values)
        assert words in TestUnevaluableInputs._error_line(argv, capsys)

    @pytest.mark.parametrize("workers", [3, 0], ids=["forked", "in-process"])
    def test_overflow_to_inf_prints_without_a_warning(self, workers, monkeypatch, capfd):
        # A warning raised in a forked job fails its worker, and so the command.
        monkeypatch.setattr(cli, "_workers", lambda jobs: workers)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["dcs-scan", "--units", "si", "--lambda", "1e100",
                         "--theta-min", "1e-80", "--samples", "3"]) == 0
        out, err = capfd.readouterr()
        assert out.splitlines()[1] == "1e-80,inf,inf,inf,inf"
        assert err == ""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("workers", [3, 0], ids=["forked", "in-process"])
    def test_lambda_below_the_planck_length_writes_nothing(self, workers, fmt, monkeypatch,
                                                           capfd):
        # Every value there would overflow to inf; the first chunk of the
        # checking pass stops the command before any byte is written.
        monkeypatch.setattr(cli, "_workers", lambda jobs: workers)
        with pytest.raises(SystemExit) as excinfo:
            main(["dcs-scan", "--units", "si", "--lambda", "1e-250", "--samples", "100000",
                  "--format", fmt])
        assert excinfo.value.code == 2
        out, err = capfd.readouterr()
        assert out == ""
        assert err.splitlines()[-1].endswith("must lie above the Planck length, 1.61626e-35 m: "
                                             "perturbative quantum gravity fails at the "
                                             "Planck energy")


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
        "verify --samples 5 --theta-max=-1E-9",
        "verify --samples 5 --seed=-1",
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


def test_lambda_help_names_the_reduced_wavelength(capsys):
    # The library's wavelength is hbar c/E. An ordinary wavelength would
    # give rates (2 pi)^2 too small for gravity and (2 pi)^6 for QED.
    with_lambda = []
    for command in ("amp-table", "dcs-scan", "qed-scan", "coincidence-scan", "verify", "si"):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        if "--lambda METERS " in text:
            with_lambda.append(command)
            assert "--lambda METERS reduced wavelength hbar c/E, in meters" in text, command
    assert with_lambda == ["dcs-scan", "qed-scan", "si"]


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
        assert cli._workers(cli._FORK_MIN_JOBS - 1) == 0
        assert cli._workers(cli._FORK_MIN_JOBS) == 4
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert cli._workers(10 ** 9) == 0

    def test_one_job_per_column_stays_in_process(self, monkeypatch):
        # amp-table's JSON arrays are 17 jobs at any row count up to 4096.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"), raising=False)
        assert main(["amp-table", "--samples", "4096", "--format", "json",
                     "--output", os.devnull]) == 0

    def test_no_more_workers_than_jobs(self, monkeypatch, capsys):
        argv = ["dcs-scan", "--samples", "30"]
        monkeypatch.setattr(cli, "_CHUNK_VALUES", 50)  # 10 rows of 5 columns
        assert main(argv) == 0
        table = capsys.readouterr().out
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(cli, "_workers", lambda jobs: 8)
        assert main(argv) == 0
        assert capsys.readouterr().out == table
        assert len(forks) == 3  # one per 10-row job

    def test_forked_scan_writes_nothing_to_stderr(self, monkeypatch, capfd):
        monkeypatch.setattr(cli, "_workers", lambda jobs: 2)
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
        # A CSV job's chunk is its rows' grid slice.
        real = cli._csv_rows
        failing_start = float(table.splitlines()[51].split(",")[0])

        def failing(row, columns, chunk):
            if float("%.9g" % chunk[0]) == failing_start:
                raise RuntimeError("job failed")
            return real(row, columns, chunk)

        monkeypatch.setattr(cli, "_csv_rows", failing)
        monkeypatch.setattr(cli, "_CHUNK_VALUES", 50)
        monkeypatch.setattr(cli, "_workers", lambda jobs: 2)
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
        monkeypatch.setattr(cli, "_CHUNK_VALUES", 50)
        monkeypatch.setattr(cli, "_workers", lambda jobs: 2)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert "ended with wait status" in _output_error_line(err.encode())
        assert out == table
