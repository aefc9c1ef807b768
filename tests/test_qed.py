"""Electron-loop amplitude elements and the record of physical constants."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gravscatter.constants import CODATA_2022, Constants
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
        record = CODATA_2022
        assert_allclose(record.fine_structure, 7.2973525693e-3, rtol=1e-9)
        assert_allclose(record.electron_mass * record.c ** 2, 8.18710565e-14, rtol=1e-7)
        assert_allclose(record.compton_wavelength, 3.8615926796e-13, rtol=1e-8)

    def test_compton_scales_inversely_with_mass(self):
        heavy = dataclasses.replace(CODATA_2022,
                                    electron_mass=2.0 * CODATA_2022.electron_mass)
        assert_allclose(heavy.compton_wavelength, 0.5 * CODATA_2022.compton_wavelength,
                        rtol=1e-14)

    @pytest.mark.parametrize("name", [field.name for field in dataclasses.fields(Constants)])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_non_positive_and_non_finite_fields(self, name, value):
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(CODATA_2022, **{name: value})

    def test_frozen(self):
        with pytest.raises(AttributeError):
            CODATA_2022.fine_structure = 0.008

    def test_matches_scipy_codata_2022(self):
        # scipy.constants carries CODATA 2022 from scipy 1.15 on.
        pytest.importorskip("scipy", minversion="1.15")
        from scipy import constants
        assert CODATA_2022 == Constants(
            newton_constant=float(constants.G), hbar=float(constants.hbar),
            c=float(constants.c), electron_mass=float(constants.m_e),
            fine_structure=float(constants.fine_structure))

    def test_derived_lengths_follow_their_formulas(self):
        # The operation order is part of the contract: SI outputs stay bit-identical.
        record = CODATA_2022
        assert record.planck_length == math.sqrt(
            record.newton_constant * record.hbar / record.c ** 3)
        assert record.compton_wavelength == (
            record.hbar * record.c / (record.electron_mass * record.c ** 2))
