"""Four-vector plumbing."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gravscatter.amplitudes import channel_amplitudes, contracted_vertex
from gravscatter.lorentz import METRIC, minkowski_dot
from vertex_reference import vertex_tensor_reference

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


class TestMetric:
    def test_signature(self):
        assert np.array_equal(METRIC, np.diag([1.0, -1.0, -1.0, -1.0]))

    def test_read_only(self):
        with pytest.raises(ValueError):
            METRIC[0, 0] = 2.0


class TestMinkowskiDot:
    def test_pure_time(self):
        v = np.array([2.0, 0.0, 0.0, 0.0])
        assert minkowski_dot(v, v) == 4.0

    def test_null_vector(self):
        v = np.array([1.0, 0.0, 0.0, 1.0])
        assert minkowski_dot(v, v) == 0.0

    def test_spatial_directions_negative(self):
        for axis in range(1, 4):
            v = np.zeros(4)
            v[axis] = 1.0
            assert minkowski_dot(v, v) == -1.0

    def test_mixed_example(self):
        assert minkowski_dot([1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]) == \
            5.0 - 12.0 - 21.0 - 32.0

    @given(values=st.lists(finite_floats, min_size=8, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, values):
        a = np.array(values[:4])
        b = np.array(values[4:])
        assert minkowski_dot(a, b) == minkowski_dot(b, a)

    @given(values=st.lists(finite_floats, min_size=12, max_size=12),
           scale=st.floats(min_value=-100.0, max_value=100.0))
    @settings(max_examples=100, deadline=None)
    def test_bilinearity(self, values, scale):
        a, b, c = np.array(values).reshape(3, 4)
        left = minkowski_dot(a + scale * b, c)
        right = minkowski_dot(a, c) + scale * minkowski_dot(b, c)
        scale_ref = abs(minkowski_dot(a, c)) + abs(scale * minkowski_dot(b, c)) + 1.0
        assert abs(left - right) <= 1e-12 * scale_ref

    def test_metric_contraction_reproduces_dot(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            a, b = rng.normal(size=(2, 4))
            assert_allclose(a @ METRIC @ b, minkowski_dot(a, b), rtol=1e-13, atol=1e-13)

    def test_broadcasts_over_leading_axes(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 1, 4))
        b = rng.normal(size=(5, 4))
        products = minkowski_dot(a, b)
        assert products.shape == (3, 5)
        for i, j in itertools.product(range(3), range(5)):
            assert_allclose(products[i, j], minkowski_dot(a[i, 0], b[j]),
                            rtol=1e-13, atol=1e-13)


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
