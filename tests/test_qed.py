"""Electron-loop amplitude elements and the physical constants."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gravscatter.constants import (
    COMPTON_WAVELENGTH,
    ELECTRON_MASS,
    FINE_STRUCTURE,
    HBAR,
    NEWTON_CONSTANT,
    PLANCK_LENGTH,
    SPEED_OF_LIGHT,
)
from gravscatter.qed import qed_element_1212, qed_element_1221


def test_forward_value():
    assert qed_element_1212(0.0) == complex(0.0, -56.0)


def test_backward_value():
    assert qed_element_1212(math.pi) == complex(0.0, -12.0)


def test_right_angle_value():
    assert_allclose(qed_element_1212(math.pi / 2).imag, -31.0, rtol=1e-14)


def test_swapped_element_mirrors_the_angle():
    for theta in np.linspace(0.0, math.pi, 41):
        assert qed_element_1221(theta) == qed_element_1212(math.pi - theta)
    assert qed_element_1221(0.0) == complex(0.0, -12.0)


def test_purely_imaginary_with_negative_imag():
    for theta in np.linspace(0.0, math.pi, 101):
        value = qed_element_1212(theta)
        assert value.real == 0.0
        assert value.imag < 0.0


def test_never_vanishes():
    # 3c^2 + 22c + 31 is increasing on [-1, 1], so the minimum modulus is 12
    values = [abs(qed_element_1212(theta)) for theta in np.linspace(0.0, math.pi, 201)]
    assert min(values) >= 12.0 - 1e-12


class TestConstants:
    def test_default_constants(self):
        assert_allclose(FINE_STRUCTURE, 7.2973525693e-3, rtol=1e-9)
        assert_allclose(ELECTRON_MASS * SPEED_OF_LIGHT ** 2, 8.18710565e-14, rtol=1e-7)
        assert_allclose(COMPTON_WAVELENGTH, 3.8615926796e-13, rtol=1e-8)

    def test_matches_scipy_codata_2022(self):
        # scipy.constants carries CODATA 2022 from scipy 1.15 on.
        pytest.importorskip("scipy", minversion="1.15")
        from scipy import constants
        assert NEWTON_CONSTANT == float(constants.G)
        assert HBAR == float(constants.hbar)
        assert SPEED_OF_LIGHT == float(constants.c)
        assert ELECTRON_MASS == float(constants.m_e)
        assert FINE_STRUCTURE == float(constants.fine_structure)

    def test_derived_lengths_follow_their_formulas(self):
        # The operation order is part of the contract: SI outputs stay bit-identical.
        assert PLANCK_LENGTH == math.sqrt(NEWTON_CONSTANT * HBAR / SPEED_OF_LIGHT ** 3)
        assert COMPTON_WAVELENGTH == (
            HBAR * SPEED_OF_LIGHT / (ELECTRON_MASS * SPEED_OF_LIGHT ** 2))
