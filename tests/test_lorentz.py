"""Four-vector plumbing."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gravscatter.amplitudes import channel_amplitudes, contracted_vertex
from gravscatter.lorentz import (
    METRIC,
    FourVector,
    lower_index,
    minkowski_dot,
)
from vertex_reference import vertex_tensor_reference

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


class TestMetric:
    def test_signature(self):
        assert np.array_equal(METRIC, np.diag([1.0, -1.0, -1.0, -1.0]))

    def test_read_only(self):
        with pytest.raises(ValueError):
            METRIC[0, 0] = 2.0


class TestFourVector:
    def test_component_access(self):
        v = FourVector(1.0, 2.0, 3.0, 4.0)
        assert (v.t, v.x, v.y, v.z) == (1.0, 2.0, 3.0, 4.0)
        assert np.array_equal(v.components, [1.0, 2.0, 3.0, 4.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            FourVector(1.0, bad, 0.0, 0.0)

    def test_components_read_only(self):
        v = FourVector(1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            v.components[0] = 5.0

    def test_from_array_shape(self):
        with pytest.raises(ValueError):
            FourVector.from_array([1.0, 2.0, 3.0])

    def test_arithmetic(self):
        a = FourVector(1.0, 2.0, 3.0, 4.0)
        b = FourVector(0.5, -1.0, 0.0, 2.0)
        assert a + b == FourVector(1.5, 1.0, 3.0, 6.0)
        assert a - b == FourVector(0.5, 3.0, 3.0, 2.0)
        assert -a == FourVector(-1.0, -2.0, -3.0, -4.0)
        assert 2.0 * a == FourVector(2.0, 4.0, 6.0, 8.0)
        assert a * 2.0 == 2.0 * a

    def test_equality_ignores_other_types(self):
        assert FourVector(1.0, 0.0, 0.0, 0.0) != (1.0, 0.0, 0.0, 0.0)


class TestMinkowskiDot:
    def test_pure_time(self):
        v = FourVector(2.0, 0.0, 0.0, 0.0)
        assert minkowski_dot(v, v) == 4.0

    def test_null_vector(self):
        v = FourVector(1.0, 0.0, 0.0, 1.0)
        assert minkowski_dot(v, v) == 0.0

    def test_spatial_directions_negative(self):
        for axis in range(1, 4):
            parts = [0.0] * 4
            parts[axis] = 1.0
            v = FourVector(*parts)
            assert minkowski_dot(v, v) == -1.0

    def test_mixed_example(self):
        a = FourVector(1.0, 2.0, 3.0, 4.0)
        b = FourVector(5.0, 6.0, 7.0, 8.0)
        assert minkowski_dot(a, b) == 5.0 - 12.0 - 21.0 - 32.0

    @given(values=st.lists(finite_floats, min_size=8, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, values):
        a = FourVector(*values[:4])
        b = FourVector(*values[4:])
        assert minkowski_dot(a, b) == minkowski_dot(b, a)

    @given(values=st.lists(finite_floats, min_size=12, max_size=12),
           scale=st.floats(min_value=-100.0, max_value=100.0))
    @settings(max_examples=100, deadline=None)
    def test_bilinearity(self, values, scale):
        a = FourVector(*values[:4])
        b = FourVector(*values[4:8])
        c = FourVector(*values[8:])
        left = minkowski_dot(a + scale * b, c)
        right = minkowski_dot(a, c) + scale * minkowski_dot(b, c)
        scale_ref = abs(minkowski_dot(a, c)) + abs(scale * minkowski_dot(b, c)) + 1.0
        assert abs(left - right) <= 1e-12 * scale_ref


class TestLowerIndex:
    def test_flips_spatial_signs(self):
        v = FourVector(1.0, 2.0, 3.0, 4.0)
        assert lower_index(v) == FourVector(1.0, -2.0, -3.0, -4.0)

    def test_involution(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            v = FourVector.from_array(rng.normal(size=4))
            assert lower_index(lower_index(v)) == v

    def test_contraction_reproduces_dot(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            a = FourVector.from_array(rng.normal(size=4))
            b = FourVector.from_array(rng.normal(size=4))
            via_lower = float(lower_index(a).components @ b.components)
            assert_allclose(via_lower, minkowski_dot(a, b), rtol=1e-13, atol=1e-13)


def _contract_loops(tensor: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quadruple-loop contraction of the two photon slots (beta, alpha)."""
    out = np.zeros((4, 4))
    for m, n, beta, alpha in itertools.product(range(4), repeat=4):
        out[m, n] += tensor[m, n, beta, alpha] * a[beta] * b[alpha]
    return out


class TestContractRank4Vectors:
    """The rank-4 vertex contracted with two four-vectors, in closed form."""

    def test_single_entry(self):
        rng = np.random.default_rng(11)
        q, p = rng.normal(size=(2, 4))
        tensor = vertex_tensor_reference(q, p)
        unit = np.eye(4)
        for beta, alpha in itertools.product(range(4), repeat=2):
            block = contracted_vertex(q, p, unit[beta], unit[alpha])
            assert_allclose(block, tensor[:, :, beta, alpha], rtol=1e-13, atol=1e-13)

    def test_matches_quadruple_loops(self):
        rng = np.random.default_rng(12)
        for perturbation in (0.0, 0.5, -1e-3) * 5:
            q, p, a, b = rng.normal(size=(4, 4))
            block = contracted_vertex(q, p, a, b, perturbation=perturbation)
            reference = _contract_loops(vertex_tensor_reference(q, p, perturbation), a, b)
            assert_allclose(block, reference, rtol=1e-12, atol=1e-12)

    def test_bilinearity(self):
        q, p, a1, a2, b1, b2 = np.random.default_rng(13).normal(size=(6, 4))
        combined = contracted_vertex(q, p, a1 + 3.0 * a2, b1)
        split = contracted_vertex(q, p, a1, b1) + 3.0 * contracted_vertex(q, p, a2, b1)
        assert_allclose(combined, split, rtol=1e-12, atol=1e-12)
        combined = contracted_vertex(q, p, a1, b1 - 2.0 * b2)
        split = contracted_vertex(q, p, a1, b1) - 2.0 * contracted_vertex(q, p, a1, b2)
        assert_allclose(combined, split, rtol=1e-12, atol=1e-12)

    # Shapes of the polarizations filling the photon slots: each must be a
    # four-vector, and there must be one per photon.
    @pytest.mark.parametrize("slots", [
        ((4,), (4,), (4,), (3,)),
        ((4,), (4,), (4,), (5,)),
        ((4,), (4,), (4,), ()),
        ((4,), (4,), (4,)),
        ((4,), (4,), (4,), (4,), (4,)),
    ])
    def test_invalid_slots(self, slots):
        momenta = np.ones((4, 4))
        with pytest.raises(ValueError, match="four polarizations"):
            channel_amplitudes(momenta, [np.ones(shape) for shape in slots])
