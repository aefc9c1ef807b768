"""Center-of-momentum construction and its invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gravscatter.kinematics import check_theta, com_arrays
from gravscatter.lorentz import minkowski_dot

angles = st.floats(min_value=1e-3, max_value=math.pi - 1e-3)

PERPENDICULAR, PARALLEL = 0, 1  # label - 1


@given(theta=angles)
@settings(max_examples=150, deadline=None)
def test_all_momenta_null(theta):
    momenta, _ = com_arrays(theta)
    for p in momenta:
        assert abs(minkowski_dot(p, p)) <= 1e-14


@given(theta=angles)
@settings(max_examples=150, deadline=None)
def test_momentum_conservation(theta):
    p1, p2, p3, p4 = com_arrays(theta)[0]
    total = p1 + p2 - p3 - p4
    assert np.all(np.abs(total) <= 1e-14)


@given(theta=angles)
@settings(max_examples=150, deadline=None)
def test_transversality(theta):
    momenta, basis = com_arrays(theta)
    for p, pair in zip(momenta, basis):
        for eps in pair:
            assert abs(minkowski_dot(eps, p)) <= 1e-14


@given(theta=angles)
@settings(max_examples=150, deadline=None)
def test_polarization_orthonormality(theta):
    _, basis = com_arrays(theta)
    for pair in basis:
        for a in (PERPENDICULAR, PARALLEL):
            for b in (PERPENDICULAR, PARALLEL):
                dot = minkowski_dot(pair[a], pair[b])
                expected = -1.0 if a == b else 0.0
                assert abs(dot - expected) <= 1e-14


@given(theta=angles)
@settings(max_examples=150, deadline=None)
def test_counter_propagating_pairs(theta):
    p1, p2, p3, p4 = com_arrays(theta)[0]
    assert np.array_equal(p2[1:], -p1[1:])
    assert np.array_equal(p4[1:], -p3[1:])


class TestFixedAngles:
    def test_right_angle_momenta(self):
        p1, p2, p3, p4 = com_arrays(math.pi / 2)[0]
        assert np.array_equal(p1, [1.0, 0.0, 0.0, 1.0])
        assert np.array_equal(p2, [1.0, 0.0, 0.0, -1.0])
        assert_allclose(p3, [1.0, 1.0, 0.0, 0.0], atol=1e-15)
        assert_allclose(p4, [1.0, -1.0, 0.0, 0.0], atol=1e-15)

    def test_right_angle_polarizations(self):
        _, basis = com_arrays(math.pi / 2)
        for pair in basis:
            assert np.array_equal(pair[PERPENDICULAR], [0.0, 0.0, 1.0, 0.0])
        assert np.array_equal(basis[0, PARALLEL], [0.0, 1.0, 0.0, 0.0])
        assert np.array_equal(basis[1, PARALLEL], [0.0, -1.0, 0.0, 0.0])
        assert_allclose(basis[2, PARALLEL], [0.0, 0.0, 0.0, -1.0], atol=1e-15)
        assert_allclose(basis[3, PARALLEL], [0.0, 0.0, 0.0, 1.0], atol=1e-15)

    def test_mandelstam_products_at_pi_third(self):
        p1, p2, p3, p4 = com_arrays(math.pi / 3)[0]
        assert minkowski_dot(p1, p2) == 2.0
        assert_allclose(minkowski_dot(p1, p3), 0.5, rtol=1e-15)
        assert_allclose(minkowski_dot(p1, p4), 1.5, rtol=1e-15)


def test_mandelstam_relations_on_grid():
    # s + t + u = 0 for massless external legs, with s pinned to 4.
    for theta in np.linspace(0.1, math.pi - 0.1, 29):
        p1, p2, p3, p4 = com_arrays(theta)[0]
        s = minkowski_dot(p1 + p2, p1 + p2)
        t = minkowski_dot(p1 - p3, p1 - p3)
        u = minkowski_dot(p1 - p4, p1 - p4)
        assert s == 4.0
        assert_allclose(t, -2.0 * (1.0 - math.cos(theta)), rtol=1e-13, atol=1e-15)
        assert_allclose(u, -2.0 * (1.0 + math.cos(theta)), rtol=1e-13, atol=1e-15)
        assert abs(s + t + u) <= 1e-12


@pytest.mark.parametrize("theta", [0.0, math.pi, -0.3, math.pi + 0.3,
                                   math.nan, math.inf])
def test_domain_errors(theta):
    with pytest.raises(ValueError):
        com_arrays(theta)
    with pytest.raises(ValueError):
        com_arrays([1.0, theta])


def test_check_theta_scalars_and_arrays():
    assert check_theta(1) == 1.0 and isinstance(check_theta(1), float)
    grid = np.array([0.1, 1.0, 3.0])
    assert check_theta(grid) is grid
    for bad in (0.0, math.pi, math.nan, -math.inf):
        with pytest.raises(ValueError, match=f"got {bad}"):
            check_theta(bad)
        with pytest.raises(ValueError, match=f"got {bad}"):
            check_theta(np.array([0.5, bad, 0.7]))


def test_com_arrays_match_single_angles_on_any_shape():
    grid = np.array([[0.3, 1.2], [2.0, 2.9]])
    momenta, basis = com_arrays(grid)
    assert momenta.shape == (2, 2, 4, 4)
    assert basis.shape == (2, 2, 4, 2, 4)
    single_momenta, single_basis = com_arrays(2.0)
    assert single_momenta.shape == (4, 4)
    assert single_basis.shape == (4, 2, 4)
    assert_allclose(momenta[1, 0], single_momenta, rtol=0.0, atol=1e-15)
    assert_allclose(basis[1, 0], single_basis, rtol=0.0, atol=1e-15)


@given(theta=angles, xi=st.floats(min_value=-10.0, max_value=10.0))
@settings(max_examples=150, deadline=None)
def test_gauge_shift_preserves_transversality_and_norm(theta, xi):
    momenta, basis = com_arrays(theta)
    for p, eps in zip(momenta, basis[:, PARALLEL]):
        shifted = eps + xi * p
        assert abs(minkowski_dot(shifted, p)) <= 1e-13
        assert abs(minkowski_dot(shifted, shifted) + 1.0) <= 1e-12
