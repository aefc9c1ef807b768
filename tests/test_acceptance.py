"""End-to-end acceptance runs, one test per shipping criterion.

Every test prints a PASS or FAIL line naming its criterion, so the suite log
doubles as the sign-off sheet; run with ``pytest -s tests/test_acceptance.py``
to see all nine lines.
"""

import itertools
import math

import numpy as np

from gravscatter.amplitudes import channel_amplitudes, closed_form_grid, diagram_sum_grid
from gravscatter.cli import main as cli_main
from gravscatter.coincidence import coincidence_factor
from gravscatter.cross_sections import (
    TwoPhotonPolState,
    dcs_averaged,
    dcs_entangled_pqg,
    dcs_entangled_qed,
    dcs_general_state,
    si_convert,
)
from gravscatter.kinematics import com_arrays
from gravscatter.constants import COMPTON_WAVELENGTH, FINE_STRUCTURE
from gravscatter.qed import qed_element_1212, qed_element_1221

ALL_PATTERNS = tuple(itertools.product((1, 2), repeat=4))
GRID = np.linspace(0.05, math.pi - 0.05, 100)


def _verdict(number: int, title: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {title}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _index(pattern):
    """0-based array index of a pattern of 1-based polarization labels."""
    return tuple(label - 1 for label in pattern)


def test_criterion_1_diagram_sum_matches_closed_forms():
    worst = 0.0
    for computed, reference in zip(diagram_sum_grid(GRID), closed_form_grid(GRID)):
        scale = float(np.max(np.abs(reference)))
        for pattern in ALL_PATTERNS:
            want = reference[_index(pattern)]
            got = computed[_index(pattern)]
            if abs(want) > 0.0:
                worst = max(worst, abs(got - want) / abs(want))
            else:
                worst = max(worst, abs(got) / scale)
    _verdict(1, "diagram sum reproduces all 16 closed-form elements at 1e-9",
             worst <= 1e-9, f"max deviation {worst:.2e} over {GRID.size} angles")


def test_criterion_2_averaged_closed_form():
    worst = 0.0
    for theta, matrix in zip(GRID, closed_form_grid(GRID)):
        mean = float(np.sum(np.abs(matrix) ** 2)) / 16.0
        value = dcs_averaged(float(theta))
        worst = max(worst, abs(value - mean) / mean)
    anchor = abs(dcs_averaged(math.pi / 2) - 32.25)
    ok = worst <= 1e-12 and anchor <= 1e-12
    _verdict(2, "averaged cross section equals the element mean and hits 32.25",
             ok, f"max deviation {worst:.2e}, right-angle residue {anchor:.2e}")


def test_criterion_3_entangled_closed_form_matches_contraction():
    worst = 0.0
    thetas = np.linspace(0.3, math.pi - 0.3, 10)
    phis = np.linspace(0.0, math.pi / 2, 10)
    rhos = np.linspace(-math.pi / 2, 3 * math.pi / 2, 10, endpoint=False)
    for theta, matrix in zip(thetas, closed_form_grid(thetas)):
        for phi, rho in itertools.product(phis, rhos):
            state = TwoPhotonPolState(float(phi), float(rho))
            closed = dcs_entangled_pqg(float(theta), state)
            general = dcs_general_state(state.coefficients, matrix)
            worst = max(worst, abs(closed - general) / max(abs(closed), 1.0))
    _verdict(3, "entangled closed form equals the general contraction at 1e-12",
             worst <= 1e-12, f"max deviation {worst:.2e} over a 10x10x10 lattice")


def test_criterion_4_right_angle_anchors():
    plus = dcs_entangled_pqg(math.pi / 2, TwoPhotonPolState.psi_plus())
    minus = dcs_entangled_pqg(math.pi / 2, TwoPhotonPolState.psi_minus())
    product = dcs_entangled_pqg(math.pi / 2, TwoPhotonPolState(0.0, 0.0))
    residues = (abs(plus - 64.0), abs(product - 32.0), abs(minus))
    ok = all(residue <= 1e-12 for residue in residues)
    _verdict(4, "right-angle rates are 64, 32 and 0 within 1e-12", ok,
             f"residues {residues[0]:.1e}, {residues[1]:.1e}, {residues[2]:.1e}")


def test_criterion_5_si_magnitudes():
    plus = TwoPhotonPolState.psi_plus()
    exponents = {
        "pqg 500nm": math.floor(math.log10(si_convert(32.0, 500e-9))),
        "pqg 10nm": math.floor(math.log10(si_convert(32.0, 10e-9))),
        "qed 500nm": math.floor(math.log10(dcs_entangled_qed(0.0, plus, 500e-9))),
        "qed 10nm": math.floor(math.log10(dcs_entangled_qed(0.0, plus, 10e-9))),
    }
    bands = {"pqg 500nm": -126, "pqg 10nm": -123, "qed 500nm": -72, "qed 10nm": -62}
    ok = all(abs(exponents[key] - bands[key]) <= 1 for key in bands)
    detail = ", ".join(f"{key} -> 1e{exponents[key]}" for key in exponents)
    _verdict(5, "SI magnitudes land in the expected decades", ok, detail)


def test_criterion_6_qed_closed_form_matches_element_assembly():
    wavelength = 500e-9
    prefactor = (FINE_STRUCTURE ** 4
                 / (2.0 * 45.0 ** 2 * (2.0 * math.pi) ** 2)
                 * COMPTON_WAVELENGTH ** 8 / wavelength ** 6)
    floor = 1e-12 * prefactor * 2312.0
    worst = 0.0
    states = [TwoPhotonPolState(phi, rho)
              for phi in np.linspace(0.0, math.pi / 2, 6)
              for rho in np.linspace(-math.pi / 2, 3 * math.pi / 2, 6, endpoint=False)]
    for theta in np.linspace(0.0, math.pi, 50):
        f = qed_element_1212(float(theta))
        g = qed_element_1221(float(theta))
        for state in states:
            keep = state.coefficients[0, 1] * f + state.coefficients[1, 0] * g
            swap = state.coefficients[0, 1] * g + state.coefficients[1, 0] * f
            assembled = prefactor * 0.5 * (abs(keep) ** 2 + abs(swap) ** 2)
            direct = dcs_entangled_qed(float(theta), state, wavelength)
            worst = max(worst, abs(direct - assembled) / max(direct, floor))
    plus_value = dcs_entangled_qed(math.pi / 2, TwoPhotonPolState.psi_plus(), wavelength)
    minus_value = dcs_entangled_qed(math.pi / 2, TwoPhotonPolState.psi_minus(), wavelength)
    suppressed = minus_value <= 1e-12 * plus_value
    ok = worst <= 1e-12 and suppressed
    _verdict(6, "loop closed form equals the two-element assembly at 1e-12",
             ok, f"max deviation {worst:.2e}, right-angle suppression "
                 f"{minus_value / plus_value:.1e}")


def test_criterion_7_symmetry_battery():
    # identical outgoing particles: swapping labels 3 and 4 mirrors the angle
    exchange_worst = 0.0
    for forward, backward in zip(closed_form_grid(GRID), closed_form_grid(math.pi - GRID)):
        swapped = backward.swapaxes(2, 3)
        scale = float(np.max(np.abs(forward)))
        exchange_worst = max(exchange_worst,
                             float(np.max(np.abs(forward - swapped))) / scale)

    # gauge invariance: a shift eps_j -> eps_j + xi p_j moves every amplitude,
    # which is linear in eps_j, by xi times the Ward amplitude, the amplitude
    # with p_j in place of eps_j; it must be exactly 0, per channel and summed
    gauge_worst = 0.0
    for theta in np.linspace(0.2, math.pi - 0.2, 5):
        momenta, basis = com_arrays(float(theta))
        for pattern in ALL_PATTERNS:
            for photon in range(4):
                pols = basis[np.arange(4), _index(pattern)]
                pols[photon] = momenta[photon]
                ward = channel_amplitudes(theta, pols)
                gauge_worst = max(gauge_worst, *np.abs(ward), abs(ward.sum()))

    # invariance under local polarization-basis rotations
    rng = np.random.default_rng(77)

    def random_unitary():
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(raw)
        phases = np.diag(r)
        return q * (phases / np.abs(phases))[None, :]

    basis_worst = 0.0
    for matrix in closed_form_grid([0.7, math.pi / 2, 2.3]):
        for state in (TwoPhotonPolState.psi_plus(),
                      TwoPhotonPolState(0.4, 1.0)):
            reference = dcs_general_state(state.coefficients, matrix)
            for _ in range(100):
                u = random_unitary()
                v = random_unitary()
                rotated_state = u @ state.coefficients @ v.T
                rotated_values = np.einsum("Aa,Bb,abcd->ABcd",
                                           np.conj(u), np.conj(v), matrix)
                rotated = dcs_general_state(rotated_state, rotated_values)
                basis_worst = max(basis_worst, abs(rotated - reference) / reference)

    # ordering of the canonical states everywhere on the grid
    plus_state = TwoPhotonPolState.psi_plus()
    minus_state = TwoPhotonPolState.psi_minus()
    product_state = TwoPhotonPolState(0.0, 0.0)
    ordered = True
    for theta in GRID:
        top = dcs_entangled_pqg(float(theta), plus_state)
        mid = dcs_entangled_pqg(float(theta), product_state)
        bottom = dcs_entangled_pqg(float(theta), minus_state)
        slack = 1e-12 * top
        if not (top >= mid - slack and mid >= bottom - slack and bottom >= -slack):
            ordered = False

    ok = (exchange_worst <= 1e-12 and gauge_worst == 0.0
          and basis_worst <= 1e-10 and ordered)
    _verdict(7, "exchange, gauge, basis and ordering symmetries hold", ok,
             f"exchange {exchange_worst:.1e}, gauge {gauge_worst:.1e}, "
             f"basis {basis_worst:.1e}, ordered {ordered}")


def test_criterion_8_coincidence_factor():
    plus = TwoPhotonPolState.psi_plus()
    minus = TwoPhotonPolState.psi_minus()
    product = TwoPhotonPolState(0.0, 0.0)
    anchors = (
        abs(coincidence_factor(0.0, plus) - 2.0),
        abs(coincidence_factor(0.0, product) - 1.0),
        abs(coincidence_factor(0.0, minus)),
        abs(coincidence_factor(math.pi / 2, plus) - 1.0),
    )
    rng = np.random.default_rng(8)
    bounded = True
    for _ in range(500):
        state = TwoPhotonPolState(
            float(rng.uniform(0.0, math.pi / 2)),
            float(rng.uniform(-math.pi / 2, 3 * math.pi / 2)))
        value = coincidence_factor(float(rng.uniform(-50.0, 50.0)), state)
        if not -1e-12 <= value <= 2.0 + 1e-12:
            bounded = False
    ok = all(residue <= 1e-12 for residue in anchors) and bounded
    _verdict(8, "coincidence factor hits 2/1/0, the quadrature point, and stays "
                "in [0, 2]", ok,
             f"anchor residues {max(anchors):.1e}, bounded {bounded}")


def test_criterion_9_cli_contract(tmp_path, capsys):
    stock = cli_main(["verify"])
    capsys.readouterr()
    perturbed = cli_main(["verify", "--samples", "10", "--perturb-vertex", "1e-3"])
    capsys.readouterr()

    first = tmp_path / "scan_a.csv"
    second = tmp_path / "scan_b.csv"
    assert cli_main(["dcs-scan", "--output", str(first)]) == 0
    assert cli_main(["dcs-scan", "--output", str(second)]) == 0
    deterministic = first.read_bytes() == second.read_bytes()

    lines = first.read_text(encoding="utf-8").strip().split("\n")
    header_ok = lines[0] == "theta,dcs_product,dcs_psi_plus,dcs_psi_minus,dcs_averaged"
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    ordered = all(row[2] >= row[1] >= row[3] >= 0.0 or
                  (row[2] >= row[1] and abs(row[3]) <= 1e-12 * row[2])
                  for row in rows)
    # the forward pole must dominate the mid-grid values by a wide margin
    divergent = rows[0][1] > 100.0 * rows[len(rows) // 2][1]

    usage = 0
    try:
        cli_main(["dcs-scan", "--units", "si"])
    except SystemExit as error:
        usage = error.code
    capsys.readouterr()

    ok = (stock == 0 and perturbed == 1 and deterministic and header_ok
          and ordered and divergent and usage == 2)
    _verdict(9, "CLI verify gate, pinned CSV contract and exit codes", ok,
             f"verify {stock}/{perturbed}, deterministic {deterministic}, "
             f"header {header_ok}, ordered {ordered}, divergent {divergent}, "
             f"usage {usage}")
