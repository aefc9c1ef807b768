"""Cross-section closed forms, the general contraction rule, and unit handling."""

import cmath
import dataclasses
import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gravscatter.amplitudes import closed_form_grid, diagram_sum_grid
from gravscatter.constants import COMPTON_WAVELENGTH, FINE_STRUCTURE, PLANCK_LENGTH
from gravscatter.cross_sections import (
    NORMALIZATION_TOL,
    TwoPhotonPolState,
    dcs_averaged,
    dcs_entangled_pqg,
    dcs_entangled_qed,
    dcs_general_state,
    qed_bracket,
    relative_phase,
    si_convert,
)
from gravscatter.qed import qed_element_1212, qed_element_1221


def _basis_state(xi1: int, xi2: int) -> np.ndarray:
    coefficients = np.zeros((2, 2), dtype=complex)
    coefficients[xi1 - 1, xi2 - 1] = 1.0
    return coefficients


def _random_state(rng) -> np.ndarray:
    raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return raw / np.linalg.norm(raw)


def _random_unitary(rng) -> np.ndarray:
    raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(raw)
    phases = np.diag(r)
    return q * (phases / np.abs(phases))[None, :]


def _rotate_incoming_basis(matrix: np.ndarray, u: np.ndarray,
                           v: np.ndarray) -> np.ndarray:
    # m'[A,B,c,d] = sum_ab conj(u[A,a]) conj(v[B,b]) m[a,b,c,d]
    return np.einsum("Aa,Bb,abcd->ABcd", np.conj(u), np.conj(v), matrix)


class TestTwoPhotonPolState:
    def test_angle_construction(self):
        state = TwoPhotonPolState(0.3, 1.1)
        c = state.coefficients
        assert c[0, 1] == math.cos(0.3)
        assert c[1, 0] == cmath.exp(1j * 1.1) * math.sin(0.3)
        assert c[0, 0] == 0.0 and c[1, 1] == 0.0
        assert state.phi == 0.3 and state.rho == 1.1

    def test_bell_states(self):
        root_half = math.sqrt(0.5)
        plus = TwoPhotonPolState.psi_plus()
        minus = TwoPhotonPolState.psi_minus()
        assert_allclose(plus.coefficients[0, 1], root_half, rtol=1e-15)
        assert_allclose(plus.coefficients[1, 0], root_half, rtol=1e-15)
        assert_allclose(minus.coefficients[1, 0], -root_half, rtol=1e-12)
        assert plus.interference_weight == 1.0
        assert minus.interference_weight == -1.0

    def test_product_state_weight_vanishes(self):
        assert TwoPhotonPolState(0.0, 0.0).interference_weight == 0.0
        assert TwoPhotonPolState(math.pi / 2, 0.5).interference_weight == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("phi,rho", [
        (-0.1, 0.0),
        (math.pi / 2 + 0.1, 0.0),
        (0.3, -math.pi / 2 - 0.01),
        (0.3, 3 * math.pi / 2),
    ])
    def test_angle_domain(self, phi, rho):
        with pytest.raises(ValueError):
            TwoPhotonPolState(phi, rho)

    def test_repr_rebuilds_the_state(self):
        state = TwoPhotonPolState(0.3, 1.1)
        assert repr(state) == "TwoPhotonPolState(phi=0.3, rho=1.1)"
        rebuilt = eval(repr(state), {"TwoPhotonPolState": TwoPhotonPolState})
        assert rebuilt == state
        assert np.array_equal(rebuilt.coefficients, state.coefficients)
        assert (rebuilt.phi, rebuilt.rho) == (state.phi, state.rho)

    def test_coefficients_read_only(self):
        state = TwoPhotonPolState.psi_plus()
        with pytest.raises(ValueError):
            state.coefficients[0, 0] = 1.0

    def test_frozen(self):
        state = TwoPhotonPolState.psi_plus()
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.phi = None

    def test_fields_are_floats(self):
        # ints and numpy scalars become plain floats, so equal angles give
        # equal, hashable states and no field or property is ever None
        state = TwoPhotonPolState(0, np.float64(1.0))
        assert type(state.phi) is float and type(state.rho) is float
        assert state == TwoPhotonPolState(0.0, 1.0)
        assert hash(state) == hash(TwoPhotonPolState(0.0, 1.0))
        assert type(state.interference_weight) is float
        assert state.coefficients.shape == (2, 2)


class TestAveraged:
    def test_right_angle_anchor(self):
        assert_allclose(dcs_averaged(math.pi / 2), 32.25, rtol=1e-13)

    def test_pi_third_anchor(self):
        assert_allclose(dcs_averaged(math.pi / 3), 72098.0 / 1152.0, rtol=1e-13)

    def test_backward_forward_symmetry(self):
        for theta in np.linspace(0.2, 1.5, 14):
            assert_allclose(dcs_averaged(math.pi - theta), dcs_averaged(theta),
                            rtol=1e-12)

    def test_equals_mean_over_basis_states(self):
        # the average must equal (1/4) sum over incoming basis states of the
        # general contraction, which collapses to sum |m|^2 / 16
        for theta in np.linspace(0.3, math.pi - 0.3, 11):
            matrix = closed_form_grid([theta])[0]
            mean = np.sum(np.abs(matrix) ** 2) / 16.0
            assert_allclose(dcs_averaged(theta), mean, rtol=1e-12)

    @pytest.mark.parametrize("theta", [0.0, math.pi, -0.5, math.nan])
    def test_domain(self, theta):
        with pytest.raises(ValueError):
            dcs_averaged(theta)


class TestEntangledPqg:
    def test_right_angle_anchors(self):
        plus = TwoPhotonPolState.psi_plus()
        minus = TwoPhotonPolState.psi_minus()
        product = TwoPhotonPolState(0.0, 0.0)
        assert abs(dcs_entangled_pqg(math.pi / 2, plus) - 64.0) <= 1e-12
        assert abs(dcs_entangled_pqg(math.pi / 2, product) - 32.0) <= 1e-12
        assert abs(dcs_entangled_pqg(math.pi / 2, minus)) <= 1e-12

    def test_pi_third_product_anchor(self):
        product = TwoPhotonPolState(0.0, 0.0)
        assert_allclose(dcs_entangled_pqg(math.pi / 3, product), 562.0 / 9.0,
                        rtol=1e-13)

    def test_matches_general_contraction_on_lattice(self):
        phis = np.linspace(0.0, math.pi / 2, 10)
        rhos = np.linspace(-math.pi / 2, 3 * math.pi / 2, 10, endpoint=False)
        for theta in np.linspace(0.3, math.pi - 0.3, 10):
            matrix = closed_form_grid([theta])[0]
            for phi, rho in itertools.product(phis, rhos):
                state = TwoPhotonPolState(phi, rho)
                closed = dcs_entangled_pqg(theta, state)
                general = dcs_general_state(state.coefficients, matrix)
                assert abs(closed - general) <= 1e-12 * max(abs(closed), 1.0)

    def test_depends_only_on_sin_2phi_cos_rho(self):
        # two very different (phi, rho) pairs with the same weight
        first = TwoPhotonPolState(math.pi / 4, math.pi / 3)
        second = TwoPhotonPolState(math.pi / 12, 0.0)
        assert_allclose(first.interference_weight, 0.5, rtol=1e-14)
        assert_allclose(second.interference_weight, 0.5, rtol=1e-14)
        for theta in (0.4, 1.1, 2.7):
            assert_allclose(dcs_entangled_pqg(theta, first),
                            dcs_entangled_pqg(theta, second), rtol=1e-13)

    def test_bell_states_bracket_product_state(self):
        plus = TwoPhotonPolState.psi_plus()
        minus = TwoPhotonPolState.psi_minus()
        product = TwoPhotonPolState(0.0, 0.0)
        for theta in np.linspace(0.05, math.pi - 0.05, 50):
            top = dcs_entangled_pqg(theta, plus)
            mid = dcs_entangled_pqg(theta, product)
            bottom = dcs_entangled_pqg(theta, minus)
            assert top >= mid - 1e-12 * top
            assert mid >= bottom - 1e-12 * top
            assert bottom >= 0.0

    def test_small_angle_entanglement_blindness(self):
        # forward scattering cannot tell Bell states from product states
        plus = TwoPhotonPolState.psi_plus()
        product = TwoPhotonPolState(0.0, 0.0)
        for theta in (0.005, 0.01, 0.02, 0.05):
            ratio = dcs_entangled_pqg(theta, plus) / dcs_entangled_pqg(theta, product)
            assert abs(ratio - 1.0) <= 0.01



class TestGeneralState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="must sum to 1"):
            dcs_general_state([[1.0, 0.0], [0.5, 0.0]], closed_form_grid([1.0])[0])

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            dcs_general_state([1.0, 0.0, 0.0, 0.0], closed_form_grid([1.0])[0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            dcs_general_state([[math.nan, 0.0], [0.0, 0.0]], closed_form_grid([1.0])[0])

    def test_normalization_tolerance(self):
        assert NORMALIZATION_TOL == 1e-12
        matrix = closed_form_grid([1.0])[0]
        inside = np.sqrt(1.0 + 0.5 * NORMALIZATION_TOL)
        outside = np.sqrt(1.0 + 2.0 * NORMALIZATION_TOL)
        assert dcs_general_state(inside * _basis_state(1, 2), matrix) > 0.0
        with pytest.raises(ValueError, match="must sum to 1"):
            dcs_general_state(outside * _basis_state(1, 2), matrix)

    def test_single_basis_state_anchor(self):
        # incoming (1, 1) at a right angle: (81 + 49) / 4
        matrix = closed_form_grid([math.pi / 2])[0]
        value = dcs_general_state(_basis_state(1, 1), matrix)
        assert_allclose(value, 32.5, rtol=1e-13)

    def test_non_negative_for_random_states(self):
        rng = np.random.default_rng(40)
        for theta in (0.5, 1.5, 2.5):
            matrix = closed_form_grid([theta])[0]
            for _ in range(20):
                value = dcs_general_state(_random_state(rng), matrix)
                assert value >= 0.0

    def test_basis_independence(self):
        rng = np.random.default_rng(41)
        theta = 1.3
        matrix = closed_form_grid([theta])[0]
        state = _random_state(rng)
        reference = dcs_general_state(state, matrix)
        for _ in range(10):
            u = _random_unitary(rng)
            v = _random_unitary(rng)
            rotated_state = u @ state @ v.T
            rotated_matrix = _rotate_incoming_basis(matrix, u, v)
            value = dcs_general_state(rotated_state, rotated_matrix)
            assert_allclose(value, reference, rtol=1e-12)

    def test_result_shape_follows_the_leading_axes(self):
        grid = np.array([[0.4, 1.1, 2.0], [0.7, 1.6, 2.9]])
        amplitudes = closed_form_grid(grid.ravel()).reshape(grid.shape + (2, 2, 2, 2))
        state = TwoPhotonPolState.psi_plus().coefficients
        values = dcs_general_state(state, amplitudes)
        assert values.shape == grid.shape
        flat = amplitudes.reshape(-1, 2, 2, 2, 2)
        assert np.array_equal(values.ravel(), dcs_general_state(state, flat))
        assert isinstance(dcs_general_state(state, amplitudes[1, 2]), float)

    def test_grid_equals_per_angle_calls_and_closed_form(self):
        grid = np.linspace(0.05, math.pi - 0.05, 301)
        rng = np.random.default_rng(42)
        two_term = [TwoPhotonPolState.psi_plus(), TwoPhotonPolState.psi_minus(),
                    TwoPhotonPolState(0.0, 0.0),
                    TwoPhotonPolState(0.4, 1.0)]
        for amplitudes in (closed_form_grid(grid), diagram_sum_grid(grid)):
            for state in ([s.coefficients for s in two_term]
                          + [_random_state(rng) for _ in range(3)]):
                values = dcs_general_state(state, amplitudes)
                assert values.shape == grid.shape
                for value, row in zip(values, amplitudes):
                    single = dcs_general_state(state, row)
                    assert isinstance(single, float) and value == single
            for state in two_term:
                closed = dcs_entangled_pqg(grid, state)
                general = dcs_general_state(state.coefficients, amplitudes)
                assert np.all(np.abs(closed - general) <= 1e-12 * np.maximum(closed, 1.0))


class TestRelativePhase:
    def test_gravitational_cross_element_phase_vanishes(self):
        for theta in np.linspace(0.1, math.pi - 0.1, 25):
            assert relative_phase(theta) == 0.0

    def test_loop_cross_element_phase_vanishes(self):
        for theta in np.linspace(0.1, math.pi - 0.1, 25):
            assert relative_phase(theta, element=qed_element_1212) == 0.0

    def test_sign_change_gives_pi(self):
        # an element that flips sign across pi/2 must report a half-turn
        element = lambda angle: complex(math.cos(angle))
        assert_allclose(relative_phase(0.3, element=element), math.pi, rtol=1e-12)

    def test_wraps_both_ways(self):
        # phases pi - 0.1 and -(pi - 0.1) on either side of pi/2: the raw
        # difference +-(2 pi - 0.2) wraps to -+0.2
        element = lambda angle: cmath.exp(
            1j * (math.pi - 0.1) * (1 if angle < math.pi / 2 else -1))
        assert_allclose(relative_phase(0.3, element=element), -0.2, rtol=1e-12)
        assert_allclose(relative_phase(2.8, element=element), 0.2, rtol=1e-12)

    def test_vanishing_element_rejected(self):
        with pytest.raises(ValueError):
            relative_phase(1.0, element=lambda angle: 0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            relative_phase(0.0)


class TestQedCrossSection:
    def test_bracket_anchors(self):
        plus = TwoPhotonPolState.psi_plus()
        minus = TwoPhotonPolState.psi_minus()
        product = TwoPhotonPolState(0.0, 0.0)
        assert_allclose(qed_bracket(0.0, plus), 2.0 * 34.0 ** 2, rtol=1e-14)
        assert_allclose(qed_bracket(0.0, minus), 2.0 * 484.0, rtol=1e-14)
        assert_allclose(qed_bracket(0.0, product), 34.0 ** 2 + 484.0, rtol=1e-14)

    def test_right_angle_ratio(self):
        plus = TwoPhotonPolState.psi_plus()
        product = TwoPhotonPolState(0.0, 0.0)
        ratio = (dcs_entangled_qed(math.pi / 2, plus, 500e-9)
                 / dcs_entangled_qed(math.pi / 2, product, 500e-9))
        assert_allclose(ratio, 2.0, rtol=1e-12)

    def test_antisymmetric_state_suppressed_at_right_angle(self):
        plus = TwoPhotonPolState.psi_plus()
        minus = TwoPhotonPolState.psi_minus()
        ratio = (dcs_entangled_qed(math.pi / 2, minus, 500e-9)
                 / dcs_entangled_qed(math.pi / 2, plus, 500e-9))
        assert ratio <= 1e-30

    def test_wavelength_power_law(self):
        plus = TwoPhotonPolState.psi_plus()
        ratio = (dcs_entangled_qed(1.0, plus, 1e-8)
                 / dcs_entangled_qed(1.0, plus, 2e-8))
        assert_allclose(ratio, 2.0 ** 6, rtol=1e-12)

    def test_matches_element_assembly(self):
        # rebuild the cross section from the two loop elements directly
        wavelength = 500e-9
        prefactor = (FINE_STRUCTURE ** 4
                     / (2.0 * 45.0 ** 2 * (2.0 * math.pi) ** 2)
                     * COMPTON_WAVELENGTH ** 8 / wavelength ** 6)
        for theta in np.linspace(0.0, math.pi, 21):
            for phi, rho in ((0.0, 0.0), (math.pi / 4, 0.0), (math.pi / 4, math.pi),
                             (0.3, 1.2), (math.pi / 8, -0.7)):
                state = TwoPhotonPolState(phi, rho)
                keep = (state.coefficients[0, 1] * qed_element_1212(theta)
                        + state.coefficients[1, 0] * qed_element_1221(theta))
                swap = (state.coefficients[0, 1] * qed_element_1221(theta)
                        + state.coefficients[1, 0] * qed_element_1212(theta))
                assembled = prefactor * 0.5 * (abs(keep) ** 2 + abs(swap) ** 2)
                direct = dcs_entangled_qed(theta, state, wavelength)
                # the antisymmetric state at a right angle is a double zero;
                # anchor the floor to the largest bracket instead
                assert_allclose(direct, assembled, rtol=1e-12,
                                atol=1e-12 * prefactor * 2312.0)

    def test_wavelength_validation(self):
        for wavelength in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="wavelength"):
                dcs_entangled_qed(1.0, TwoPhotonPolState.psi_plus(), wavelength)


# Wavelength in m: the bits of si_convert(32.0, wavelength) and of the loop
# prefactor alpha^4 lambda_C^8 / (2 * 45^2 * (2 pi)^2 wavelength^6), as the
# CODATA 2022 record gave them before the constants became module floats.
# From 4e32 m to 8.7e32 m the prefactor is subnormal and keeps fewer digits.
SI_BITS = {
    1e-12: ("0x1.582a795ffdf05p-378", "0x1.8722c715af966p-137"),
    1e-09: ("0x1.68e2558ea5a4bp-398", "0x1.c2f2ed464fa15p-197"),
    5e-07: ("0x1.7a6a17c05276bp-416", "0x1.03f45103ae8c7p-250"),
    1.0: ("0x1.a012310237113p-458", "0x1.5989e2a3f3d69p-376"),
    1e10: ("0x1.330199e77d754p-524", "0x1.15a12bad4c1a4p-575"),
    1e20: ("0x1.c50faf0aa9a04p-591", "0x1.be222e89694d9p-775"),
    1e30: ("0x1.4e4cda6de3355p-657", "0x1.667457d3ca380p-974"),
    4.5e32: ("0x1.b0c3b09903b40p-675", "0x0.0c268f84a0c6fp-1022"),
    6e32: ("0x1.e6dc26ac242a9p-676", "0x0.02299ceb0add7p-1022"),
    8.5e32: ("0x1.e52ce254bc66bp-677", "0x0.00447c59eb4eep-1022"),
}


class TestSiConversion:
    def test_planck_length(self):
        assert_allclose(PLANCK_LENGTH, 1.616255e-35, rtol=1e-4)

    def test_peak_scale_at_500nm(self):
        assert_allclose(si_convert(32.0, 500e-9), 8.73e-126, rtol=1e-2)

    def test_exponent_bands(self):
        assert math.floor(math.log10(si_convert(32.0, 500e-9))) == -126
        assert math.floor(math.log10(si_convert(32.0, 10e-9))) in (-124, -123, -122)

    def test_module_constants_bit_for_bit(self):
        # Both SI conversions read gravscatter.constants in this operation order.
        states = (TwoPhotonPolState.psi_plus(), TwoPhotonPolState(0.3, 1.2))
        for wavelength in (1e-12, 500e-9, 1.0, 1e20):
            for reduced in (32.0, 0.1, 1e-8):
                assert (si_convert(reduced, wavelength)
                        == reduced * PLANCK_LENGTH ** 4 / wavelength ** 2)
            prefactor = (FINE_STRUCTURE ** 4 / (2.0 * 45.0 ** 2 * (2.0 * math.pi) ** 2)
                         * COMPTON_WAVELENGTH ** 8 / wavelength ** 6)
            for theta, state in itertools.product((0.0, 0.3, math.pi / 2, math.pi), states):
                assert (dcs_entangled_qed(theta, state, wavelength)
                        == prefactor * qed_bracket(theta, state))

    def test_wavelength_validation(self):
        for wavelength in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="wavelength"):
                si_convert(1.0, wavelength)

    @pytest.mark.parametrize("wavelength", sorted(SI_BITS))
    def test_si_convert_keeps_its_bits(self, wavelength):
        expected = float.fromhex(SI_BITS[wavelength][0])
        scalar = si_convert(32.0, wavelength)
        assert type(scalar) is float and scalar == expected
        array = si_convert(np.array([32.0, 32.0]), wavelength)
        assert isinstance(array, np.ndarray) and (array == expected).all()

    @pytest.mark.parametrize("wavelength", sorted(SI_BITS))
    def test_qed_prefactor_keeps_its_bits(self, wavelength):
        prefactor = float.fromhex(SI_BITS[wavelength][1])
        theta = np.linspace(1e-3, math.pi - 1e-3, 7)
        for state in (TwoPhotonPolState.psi_plus(), TwoPhotonPolState(0.3, 1.2)):
            values = dcs_entangled_qed(theta, state, wavelength)
            assert (values == prefactor * qed_bracket(theta, state)).all()
            scalar = dcs_entangled_qed(0.3, state, wavelength)
            assert type(scalar) is float
            assert scalar == prefactor * qed_bracket(0.3, state)
