"""Center-of-momentum construction and its invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gravscatter.kinematics import (
    PARALLEL,
    PERPENDICULAR,
    check_theta,
    com_arrays,
    com_config,
    gauge_shift,
)
from gravscatter.lorentz import FourVector, minkowski_dot

angles = st.floats(min_value=1e-3, max_value=math.pi - 1e-3)


@given(theta=angles)
@settings(max_examples=150, deadline=None)
def test_all_momenta_null(theta):
    config = com_config(theta)
    for photon in (1, 2, 3, 4):
        p = config.momentum(photon)
        assert abs(minkowski_dot(p, p)) <= 1e-14


@given(theta=angles)
@settings(max_examples=150, deadline=None)
def test_momentum_conservation(theta):
    config = com_config(theta)
    total = config.p1 + config.p2 - config.p3 - config.p4
    assert np.all(np.abs(total.components) <= 1e-14)


@given(theta=angles)
@settings(max_examples=150, deadline=None)
def test_transversality(theta):
    config = com_config(theta)
    for photon in (1, 2, 3, 4):
        p = config.momentum(photon)
        for label in (PERPENDICULAR, PARALLEL):
            eps = config.polarization(photon, label)
            assert abs(minkowski_dot(eps, p)) <= 1e-14


@given(theta=angles)
@settings(max_examples=150, deadline=None)
def test_polarization_orthonormality(theta):
    config = com_config(theta)
    for photon in (1, 2, 3, 4):
        for a in (PERPENDICULAR, PARALLEL):
            for b in (PERPENDICULAR, PARALLEL):
                dot = minkowski_dot(config.polarization(photon, a),
                                    config.polarization(photon, b))
                expected = -1.0 if a == b else 0.0
                assert abs(dot - expected) <= 1e-14


@given(theta=angles)
@settings(max_examples=150, deadline=None)
def test_counter_propagating_pairs(theta):
    config = com_config(theta)
    assert np.array_equal(config.p2.components[1:], -config.p1.components[1:])
    assert np.array_equal(config.p4.components[1:], -config.p3.components[1:])


class TestFixedAngles:
    def test_right_angle_momenta(self):
        config = com_config(math.pi / 2)
        assert config.p1 == FourVector(1.0, 0.0, 0.0, 1.0)
        assert config.p2 == FourVector(1.0, 0.0, 0.0, -1.0)
        assert_allclose(config.p3.components, [1.0, 1.0, 0.0, 0.0], atol=1e-15)
        assert_allclose(config.p4.components, [1.0, -1.0, 0.0, 0.0], atol=1e-15)

    def test_right_angle_polarizations(self):
        config = com_config(math.pi / 2)
        perp = FourVector(0.0, 0.0, 1.0, 0.0)
        for photon in (1, 2, 3, 4):
            assert config.polarization(photon, PERPENDICULAR) == perp
        assert config.polarization(1, PARALLEL) == FourVector(0.0, 1.0, 0.0, 0.0)
        assert config.polarization(2, PARALLEL) == FourVector(0.0, -1.0, 0.0, 0.0)
        assert_allclose(config.polarization(3, PARALLEL).components,
                        [0.0, 0.0, 0.0, -1.0], atol=1e-15)
        assert_allclose(config.polarization(4, PARALLEL).components,
                        [0.0, 0.0, 0.0, 1.0], atol=1e-15)

    def test_mandelstam_products_at_pi_third(self):
        config = com_config(math.pi / 3)
        assert minkowski_dot(config.p1, config.p2) == 2.0
        assert_allclose(minkowski_dot(config.p1, config.p3), 0.5, rtol=1e-15)
        assert_allclose(minkowski_dot(config.p1, config.p4), 1.5, rtol=1e-15)


def test_mandelstam_relations_on_grid():
    # s + t + u = 0 for massless external legs, with s pinned to 4.
    for theta in np.linspace(0.1, math.pi - 0.1, 29):
        config = com_config(theta)
        s_total = config.p1 + config.p2
        t_total = config.p1 - config.p3
        u_total = config.p1 - config.p4
        s = minkowski_dot(s_total, s_total)
        t = minkowski_dot(t_total, t_total)
        u = minkowski_dot(u_total, u_total)
        assert s == 4.0
        assert_allclose(t, -2.0 * (1.0 - math.cos(theta)), rtol=1e-13, atol=1e-15)
        assert_allclose(u, -2.0 * (1.0 + math.cos(theta)), rtol=1e-13, atol=1e-15)
        assert abs(s + t + u) <= 1e-12


@pytest.mark.parametrize("theta", [0.0, math.pi, -0.3, math.pi + 0.3,
                                   math.nan, math.inf])
def test_domain_errors(theta):
    with pytest.raises(ValueError):
        com_config(theta)


def test_check_theta_scalars_and_arrays():
    assert check_theta(1) == 1.0 and isinstance(check_theta(1), float)
    grid = np.array([0.1, 1.0, 3.0])
    assert check_theta(grid) is grid
    for bad in (0.0, math.pi, math.nan, -math.inf):
        with pytest.raises(ValueError, match=f"got {bad}"):
            check_theta(bad)
        with pytest.raises(ValueError, match=f"got {bad}"):
            check_theta(np.array([0.5, bad, 0.7]))


def test_com_arrays_match_config_on_any_shape():
    grid = np.array([[0.3, 1.2], [2.0, 2.9]])
    momenta, basis = com_arrays(grid)
    assert momenta.shape == (2, 2, 4, 4)
    assert basis.shape == (2, 2, 4, 2, 4)
    config = com_config(2.0)
    for photon in (1, 2, 3, 4):
        assert_allclose(momenta[1, 0, photon - 1], config.momentum(photon).components,
                        rtol=0.0, atol=1e-15)
        for label in (PERPENDICULAR, PARALLEL):
            assert_allclose(basis[1, 0, photon - 1, label - 1],
                            config.polarization(photon, label).components,
                            rtol=0.0, atol=1e-15)


def test_accessor_validation():
    config = com_config(1.0)
    with pytest.raises(ValueError):
        config.momentum(0)
    with pytest.raises(ValueError):
        config.momentum(5)
    with pytest.raises(ValueError):
        config.polarization(1, 0)
    with pytest.raises(ValueError):
        config.polarization(1, 3)


def test_replaced_polarization_swaps_one_entry():
    config = com_config(1.0)
    substitute = FourVector(0.0, 0.5, 0.5, 0.0)
    swapped = config.replaced_polarization(3, PARALLEL, substitute)
    assert swapped.polarization(3, PARALLEL) == substitute
    assert swapped.polarization(3, PERPENDICULAR) == config.polarization(3, PERPENDICULAR)
    for photon in (1, 2, 4):
        for label in (PERPENDICULAR, PARALLEL):
            assert swapped.polarization(photon, label) == config.polarization(photon, label)
    # the original stays untouched
    assert config.polarization(3, PARALLEL) != substitute


class TestGaugeShift:
    def test_example(self):
        eps = FourVector(0.0, 1.0, 0.0, 0.0)
        p = FourVector(1.0, 0.0, 0.0, 1.0)
        assert gauge_shift(eps, p, 2.0) == FourVector(2.0, 1.0, 0.0, 2.0)

    def test_zero_shift_is_identity(self):
        eps = FourVector(0.0, 0.0, 1.0, 0.0)
        p = FourVector(1.0, 0.0, 0.0, 1.0)
        assert gauge_shift(eps, p, 0.0) == eps

    @given(theta=angles, xi=st.floats(min_value=-10.0, max_value=10.0))
    @settings(max_examples=150, deadline=None)
    def test_preserves_transversality_and_norm(self, theta, xi):
        config = com_config(theta)
        for photon in (1, 2, 3, 4):
            p = config.momentum(photon)
            eps = config.polarization(photon, PARALLEL)
            shifted = gauge_shift(eps, p, xi)
            assert abs(minkowski_dot(shifted, p)) <= 1e-13
            assert abs(minkowski_dot(shifted, shifted) + 1.0) <= 1e-12
