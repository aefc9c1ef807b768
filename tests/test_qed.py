"""Electron-loop amplitude elements and their context object."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gravscatter.constants import CODATA_2022, Codata
from gravscatter.cross_sections import DEFAULT_CONSTANTS
from gravscatter.qed import QedContext, qed_element_1212, qed_element_1221


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


class TestQedContext:
    def test_default_constants(self):
        ctx = QedContext()
        assert_allclose(ctx.fine_structure_constant, 7.2973525693e-3, rtol=1e-9)
        assert_allclose(ctx.electron_mass_energy, 8.18710565e-14, rtol=1e-7)
        assert_allclose(ctx.compton_wavelength, 3.8615926796e-13, rtol=1e-8)

    def test_compton_scales_inversely_with_mass(self):
        ctx = QedContext()
        heavy = QedContext(electron_mass_energy=2.0 * ctx.electron_mass_energy)
        assert_allclose(heavy.compton_wavelength, 0.5 * ctx.compton_wavelength,
                        rtol=1e-14)

    @pytest.mark.parametrize("kwargs", [
        {"electron_mass_energy": 0.0},
        {"electron_mass_energy": -1.0},
        {"fine_structure_constant": 0.0},
        {"fine_structure_constant": -0.007},
    ])
    def test_rejects_non_positive_inputs(self, kwargs):
        with pytest.raises(ValueError):
            QedContext(**kwargs)

    def test_frozen(self):
        ctx = QedContext()
        with pytest.raises(AttributeError):
            ctx.fine_structure_constant = 0.008


class TestConstantsRecord:
    def test_matches_scipy_codata_2022(self):
        # scipy.constants carries CODATA 2022 from scipy 1.15 on.
        pytest.importorskip("scipy", minversion="1.15")
        from scipy import constants
        assert CODATA_2022 == Codata(
            newton_constant=float(constants.G), hbar=float(constants.hbar),
            c=float(constants.c), electron_mass=float(constants.m_e),
            fine_structure=float(constants.fine_structure))

    def test_both_contexts_read_the_record(self):
        record = CODATA_2022
        assert (DEFAULT_CONSTANTS.newton_constant, DEFAULT_CONSTANTS.hbar,
                DEFAULT_CONSTANTS.c) == (record.newton_constant, record.hbar, record.c)
        ctx = QedContext()
        assert ctx.fine_structure_constant == record.fine_structure
        assert ctx.electron_mass_energy == record.electron_mass * record.c ** 2
        assert ctx.compton_wavelength == record.hbar * record.c / ctx.electron_mass_energy
