"""Delayed-coincidence modulation factor."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gravscatter.coincidence import coincidence_factor, separation_to_phase
from gravscatter.cross_sections import TwoPhotonPolState


def _factor(phase, phi, rho):
    return coincidence_factor(phase, TwoPhotonPolState.from_angles(phi, rho))


def test_symmetric_bell_state_doubles_at_zero_phase():
    assert _factor(0.0, math.pi / 4, 0.0) == 2.0


def test_antisymmetric_bell_state_cancels_at_zero_phase():
    assert _factor(0.0, math.pi / 4, math.pi) == 0.0


def test_product_states_are_flat():
    for phase in np.linspace(-7.0, 7.0, 29):
        assert _factor(phase, 0.0, 0.4) == 1.0
        assert _factor(phase, math.pi / 2, 0.4) == pytest.approx(1.0, abs=1e-15)


def test_quadrature_phase_flattens_the_bell_state():
    # rho = +-pi/2 kills the modulation at zero separation
    assert _factor(0.0, math.pi / 4, math.pi / 2) == pytest.approx(1.0, abs=1e-15)
    assert _factor(0.0, math.pi / 4, -math.pi / 2) == pytest.approx(1.0, abs=1e-15)


def test_boundary_at_half_pi_phase():
    # the symmetric Bell state crosses from enhancement to suppression
    assert _factor(math.pi / 2, math.pi / 4, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert _factor(math.pi / 2 - 0.2, math.pi / 4, 0.0) > 1.0
    assert _factor(math.pi / 2 + 0.2, math.pi / 4, 0.0) < 1.0


def test_full_cancellation_at_pi_phase():
    assert _factor(math.pi, math.pi / 4, 0.0) == pytest.approx(0.0, abs=1e-12)


@given(phase=st.floats(min_value=-100.0, max_value=100.0),
       phi=st.floats(min_value=0.0, max_value=math.pi / 2),
       rho=st.floats(min_value=-math.pi / 2, max_value=3 * math.pi / 2,
                     exclude_max=True))
@settings(max_examples=300, deadline=None)
def test_factor_bounded(phase, phi, rho):
    value = _factor(phase, phi, rho)
    assert -1e-12 <= value <= 2.0 + 1e-12


class TestSeparationToPhase:
    def test_zero_distance(self):
        assert separation_to_phase(0.0, 500e-9) == 0.0

    def test_quarter_wave_times_pi_hits_the_boundary(self):
        wavelength = 500e-9
        distance = math.pi * wavelength / 4.0
        assert_allclose(separation_to_phase(distance, wavelength), math.pi / 2,
                        rtol=1e-15)

    def test_half_wave_times_pi_cancels_the_bell_state(self):
        wavelength = 1e-6
        phase = separation_to_phase(math.pi * wavelength / 2.0, wavelength)
        assert _factor(phase, math.pi / 4, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_linear_in_distance(self):
        assert separation_to_phase(3.0, 2.0) == 3.0

    def test_validation(self):
        for wavelength in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="wavelength"):
                separation_to_phase(1.0, wavelength)
        with pytest.raises(ValueError):
            separation_to_phase(-1.0, 1.0)
        with pytest.raises(ValueError):
            separation_to_phase(math.inf, 1.0)


class TestCoincidenceFactorInputs:
    def test_rejects_general_state(self):
        general = TwoPhotonPolState(np.eye(2, dtype=complex) / math.sqrt(2.0))
        with pytest.raises(ValueError, match="two-term family"):
            coincidence_factor(0.0, general)

    def test_rejects_non_finite_phase(self):
        for phase in (math.nan, np.array([0.5, -math.inf])):
            with pytest.raises(ValueError, match="finite"):
                coincidence_factor(phase, TwoPhotonPolState.psi_plus())
        # A long array's message names the bad value, not numpy's elided summary.
        long_phase = np.zeros(10001)
        long_phase[5000] = math.nan
        with pytest.raises(ValueError, match="finite, got nan"):
            coincidence_factor(long_phase, TwoPhotonPolState.psi_plus())
