"""Diagram evaluation against the closed-form reference table."""

import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gravscatter import amplitudes
from gravscatter.amplitudes import (
    PoleError,
    channel_amplitudes,
    closed_form_grid,
    contracted_vertex,
    diagram_sum_grid,
    graviton_coupling,
)
from gravscatter.cli import VERIFY_THETA_MAX, VERIFY_THETA_MIN
from gravscatter.kinematics import com_arrays
from gravscatter.lorentz import METRIC, minkowski_dot
from gravscatter.verify import build_verify_report
from vertex_reference import vertex_tensor_reference

ALL_PATTERNS = tuple(itertools.product((1, 2), repeat=4))
NONZERO_PATTERNS = tuple(p for p in ALL_PATTERNS if sum(p) % 2 == 0)
ZERO_PATTERNS = tuple(p for p in ALL_PATTERNS if sum(p) % 2 == 1)

_ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def _index(pattern):
    """0-based array index of a pattern of 1-based polarization labels."""
    return tuple(label - 1 for label in pattern)


def _legs(theta, pattern):
    """Momenta and the pattern's polarization vectors at one angle, (4, 4) each."""
    momenta, basis = com_arrays(theta)
    return momenta, basis[np.arange(4), _index(pattern)]


def _pattern_channels(theta, pattern):
    """The t, u and s amplitudes of one pattern at one angle."""
    return channel_amplitudes(theta, _legs(theta, pattern)[1])


def _shifted(pols, photon, shift):
    """Polarizations with photon's (1-based) vector moved by ``shift``."""
    pols = pols.copy()
    pols[photon - 1] += shift
    return pols


def _block_reference(tensor, eps_out, eps_in):
    """Covariant photon slots (beta, alpha) against contravariant polarizations."""
    return np.einsum("mnba,b,a->mn", tensor, eps_out, eps_in)


# Harmonic-gauge numerator P_{mu nu alpha beta}, all indices covariant.
_PROPAGATOR = 0.5 * (np.einsum("ma,nb->mnab", _ETA, _ETA)
                     + np.einsum("mb,na->mnab", _ETA, _ETA)
                     - np.einsum("mn,ab->mnab", _ETA, _ETA))


def _coupling_reference(block1, block2):
    raised1 = _ETA @ block1 @ _ETA
    raised2 = _ETA @ block2 @ _ETA
    return float(np.einsum("mn,mnab,ab->", raised1, _PROPAGATOR, raised2))


def _random_null_momentum(rng):
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    energy = rng.uniform(0.5, 2.0)
    return np.array([energy, *(energy * direction)])


def _random_legs(rng, rows):
    """Null momenta and arbitrary, non-transverse polarizations, (rows, 4) each."""
    p_out = np.array([_random_null_momentum(rng) for _ in range(rows)])
    p_in = np.array([_random_null_momentum(rng) for _ in range(rows)])
    return p_out, p_in, rng.normal(size=(rows, 4)), rng.normal(size=(rows, 4))


def _random_symmetric_blocks(rng, rows):
    raw = rng.normal(size=(rows, 4, 4))
    return raw + raw.swapaxes(1, 2)


class TestVertexTensor:
    """The contracted vertex block against the full tensor built here."""

    def test_entries_match_term_by_term_reference(self):
        rng = np.random.default_rng(21)
        p_out, p_in, eps_out, eps_in = _random_legs(rng, 20)
        for perturbation in (0.0, 0.5, -1e-3):
            blocks = contracted_vertex(p_out, p_in, eps_out, eps_in,
                                       perturbation=perturbation)
            for row in range(20):
                tensor = vertex_tensor_reference(p_out[row], p_in[row], perturbation)
                reference = _block_reference(tensor, eps_out[row], eps_in[row])
                scale = float(np.max(np.abs(reference)))
                assert_allclose(blocks[row], reference, rtol=1e-12, atol=1e-12 * scale)

    def test_symmetric_in_graviton_indices(self):
        blocks = contracted_vertex(*_random_legs(np.random.default_rng(22), 10))
        assert np.array_equal(blocks, blocks.swapaxes(1, 2))

    def test_bilinear_in_momenta(self):
        p_out, p_in, eps_out, eps_in = _random_legs(np.random.default_rng(23), 10)
        scaled = contracted_vertex(3.0 * p_out, -2.0 * p_in, eps_out, eps_in)
        assert_allclose(scaled, -6.0 * contracted_vertex(p_out, p_in, eps_out, eps_in),
                        rtol=1e-12, atol=1e-12)

    def test_sign_flip_is_exact(self):
        p_out, p_in, eps_out, eps_in = _random_legs(np.random.default_rng(24), 10)
        base = contracted_vertex(p_out, p_in, eps_out, eps_in)
        assert np.array_equal(contracted_vertex(-p_out, p_in, eps_out, eps_in), -base)
        assert np.array_equal(contracted_vertex(p_out, -p_in, eps_out, eps_in), -base)

    def test_perturbation_rescales_metric_pair_term(self):
        p_out, p_in, eps_out, eps_in = _random_legs(np.random.default_rng(25), 10)
        base = contracted_vertex(p_out, p_in, eps_out, eps_in)
        bumped = contracted_vertex(p_out, p_in, eps_out, eps_in, perturbation=0.5)
        dot = np.einsum("rm,mn,rn->r", p_out, _ETA, p_in)
        e_low = eps_out @ _ETA
        f_low = eps_in @ _ETA
        pair = np.einsum("rm,rn->rmn", e_low, f_low) + np.einsum("rm,rn->rmn", f_low, e_low)
        assert_allclose(bumped, base - 0.5 * dot[:, None, None] * pair,
                        rtol=1e-12, atol=1e-12)


class TestPropagatorNumerator:
    """The block coupling against the numerator P contracted in full."""

    @staticmethod
    def _unit_block(m, n):
        block = np.zeros((4, 4))
        block[m, n] += 1.0
        block[n, m] += 1.0 if m != n else 0.0
        return block

    def test_selected_entries(self):
        assert _PROPAGATOR[0, 0, 0, 0] == 0.5
        assert _PROPAGATOR[0, 1, 0, 1] == -0.5
        assert _PROPAGATOR[1, 1, 0, 0] == 0.5
        assert _PROPAGATOR[1, 2, 1, 2] == 0.5
        assert _PROPAGATOR[0, 1, 2, 3] == 0.0
        # symmetric unit blocks pick out (sums of) raised numerator entries
        unit = self._unit_block
        assert graviton_coupling(unit(0, 0), unit(0, 0)) == 0.5
        assert graviton_coupling(unit(1, 1), unit(0, 0)) == 0.5
        assert graviton_coupling(unit(0, 1), unit(0, 1)) == -2.0
        assert graviton_coupling(unit(1, 2), unit(1, 2)) == 2.0
        assert graviton_coupling(unit(0, 1), unit(2, 3)) == 0.0
        for pair1, pair2 in itertools.product(
                itertools.combinations_with_replacement(range(4), 2), repeat=2):
            assert graviton_coupling(unit(*pair1), unit(*pair2)) == \
                _coupling_reference(unit(*pair1), unit(*pair2))

    def test_index_symmetries(self):
        assert np.array_equal(_PROPAGATOR, _PROPAGATOR.transpose(1, 0, 2, 3))
        assert np.array_equal(_PROPAGATOR, _PROPAGATOR.transpose(0, 1, 3, 2))
        assert np.array_equal(_PROPAGATOR, _PROPAGATOR.transpose(2, 3, 0, 1))
        rng = np.random.default_rng(26)
        block1 = _random_symmetric_blocks(rng, 10)
        block2 = _random_symmetric_blocks(rng, 10)
        assert np.array_equal(graviton_coupling(block1, block2),
                              graviton_coupling(block2, block1))

    def test_trace_identity(self):
        # eta^{mu nu} P_{mu nu alpha beta} = -eta_{alpha beta}, by explicit loops
        trace = np.zeros((4, 4))
        for a, b, m, n in itertools.product(range(4), repeat=4):
            trace[a, b] += METRIC[m, n] * _PROPAGATOR[m, n, a, b]
        assert np.array_equal(trace, -METRIC)
        # so coupling the metric itself to a block returns minus its trace
        blocks = _random_symmetric_blocks(np.random.default_rng(27), 10)
        traces = np.einsum("rmn,mn->r", blocks, _ETA)
        assert_allclose(graviton_coupling(METRIC, blocks), -traces, rtol=1e-13, atol=1e-13)

    def test_coupling_matches_propagator_einsum(self):
        rng = np.random.default_rng(28)
        random1 = _random_symmetric_blocks(rng, 20)
        random2 = _random_symmetric_blocks(rng, 20)
        vertex1 = contracted_vertex(*_random_legs(rng, 20))
        vertex2 = contracted_vertex(*_random_legs(rng, 20))
        for block1, block2 in ((random1, random2), (vertex1, vertex2)):
            coupled = graviton_coupling(block1, block2)
            for row in range(20):
                reference = _coupling_reference(block1[row], block2[row])
                scale = float(np.sum(np.abs(block1[row])) * np.sum(np.abs(block2[row])))
                assert abs(coupled[row] - reference) <= 1e-12 * scale


class TestExchangeMomenta:
    @pytest.mark.parametrize("theta", [0.3, 1.0, math.pi / 2, 2.5])
    def test_channel_q_squared(self, theta):
        p1, p2, p3, p4 = com_arrays(theta)[0]
        t_leg = p1 - p3
        u_leg = p1 - p4
        s_leg = p1 + p2
        assert_allclose(minkowski_dot(t_leg, t_leg),
                        -2.0 * (1.0 - math.cos(theta)), rtol=1e-13, atol=1e-15)
        assert_allclose(minkowski_dot(u_leg, u_leg),
                        -2.0 * (1.0 + math.cos(theta)), rtol=1e-13, atol=1e-15)
        assert minkowski_dot(s_leg, s_leg) == 4.0

    def test_forward_pole_raises(self):
        with pytest.raises(PoleError, match="t-channel"):
            _pattern_channels(1e-6, (1, 1, 1, 1))
        with pytest.raises(PoleError, match="t-channel"):
            diagram_sum_grid([1e-6])

    def test_backward_pole_raises(self):
        with pytest.raises(PoleError, match="u-channel"):
            _pattern_channels(math.pi - 1e-6, (1, 1, 1, 1))

    def test_pole_error_is_value_error(self):
        assert issubclass(PoleError, ValueError)

    @pytest.mark.parametrize("pole, channel", [(0.0, "t"), (math.pi, "u")],
                             ids=["forward", "backward"])
    def test_pole_window_is_1e_10_in_q_squared(self, pole, channel):
        # Near either pole |q^2| = 2 (1 - cos(delta)), about delta^2, so the
        # window's edge sits at delta = 1e-5 from the pole.
        outside = abs(pole - 1.01e-5)
        assert np.all(np.isfinite(diagram_sum_grid([outside])))
        with pytest.raises(PoleError, match=f"{channel}-channel .* within 1e-10 of the pole"):
            diagram_sum_grid([abs(pole - 0.99e-5)])

    @pytest.mark.parametrize("theta, channel, shown", [
        (1e-6, "t", "1e-06"), (math.pi - 1e-6, "u", "3.14159")])
    def test_grid_pole_error_names_channel_and_angle(self, theta, channel, shown):
        with pytest.raises(PoleError, match=f"{channel}-channel .* theta = {shown}"):
            diagram_sum_grid([1.0, theta])
        with pytest.raises(PoleError, match=f"{channel}-channel .* theta = {shown}"):
            _pattern_channels(theta, (1, 1, 1, 1))


class TestDiagramSum:
    def test_right_angle_cross_element(self):
        value = _pattern_channels(math.pi / 2, (1, 2, 1, 2)).sum()
        assert_allclose(value, -8.0, rtol=1e-12)

    def test_pi_third_cross_element(self):
        value = _pattern_channels(math.pi / 3, (1, 2, 1, 2)).sum()
        assert_allclose(value, -14.0, rtol=1e-12)

    def test_matches_closed_forms_on_grid(self):
        grid = np.linspace(0.05, math.pi - 0.05, 25)
        worst = 0.0
        for computed, reference in zip(diagram_sum_grid(grid), closed_form_grid(grid)):
            scale = float(np.max(np.abs(reference)))
            for pattern in ALL_PATTERNS:
                want = reference[_index(pattern)]
                got = computed[_index(pattern)]
                if abs(want) > 0.0:
                    worst = max(worst, abs(got - want) / abs(want))
                else:
                    worst = max(worst, abs(got) / scale)
        assert worst <= 1e-11

    @pytest.mark.parametrize("theta", [0.4, 1.3, 2.8])
    def test_parity_odd_patterns_vanish(self, theta):
        values = diagram_sum_grid([theta])[0]
        scale = float(np.max(np.abs(values)))
        for pattern in ZERO_PATTERNS:
            assert abs(values[_index(pattern)]) <= 1e-15 * scale

    def test_grid_agrees_with_per_pattern_sums(self):
        values = diagram_sum_grid([1.1])[0]
        for pattern in ALL_PATTERNS:
            assert_allclose(values[_index(pattern)],
                            _pattern_channels(1.1, pattern).sum(),
                            rtol=1e-14, atol=1e-14)

    def test_values_are_real(self):
        assert diagram_sum_grid([0.9]).dtype == np.float64
        assert _pattern_channels(0.9, (1, 2, 1, 2)).dtype == np.float64

    def test_sum_is_gauge_invariant(self):
        rng = np.random.default_rng(30)
        for theta in (0.5, math.pi / 2, 2.4):
            for pattern in ((1, 1, 1, 1), (1, 2, 1, 2), (2, 1, 1, 2), (2, 2, 2, 2)):
                momenta, pols = _legs(theta, pattern)
                base = channel_amplitudes(theta, pols).sum()
                for photon in (1, 2, 3, 4):
                    xi = float(rng.uniform(-10.0, 10.0))
                    shifted = _shifted(pols, photon, xi * momenta[photon - 1])
                    moved = channel_amplitudes(theta, shifted).sum()
                    assert abs(moved - base) <= 1e-12 * abs(base)

    def test_each_single_diagram_is_gauge_invariant(self):
        # the vertex is transverse in both photon slots, so even one topology
        # on its own must not move under a gauge shift
        theta = 1.2
        momenta, pols = _legs(theta, (1, 2, 1, 2))
        base = channel_amplitudes(theta, pols)
        for photon in (1, 2, 3, 4):
            shifted = _shifted(pols, photon, 2.5 * momenta[photon - 1])
            moved = channel_amplitudes(theta, shifted)
            for channel in range(3):
                assert abs(moved[channel] - base[channel]) <= \
                    1e-12 * max(abs(base[channel]), 1.0)

    def test_perturbed_vertex_breaks_the_match(self):
        theta = 1.0
        reference = closed_form_grid([theta])[0]
        perturbed = diagram_sum_grid([theta], vertex_perturbation=1e-3)[0]
        worst = 0.0
        for pattern in NONZERO_PATTERNS:
            want = reference[_index(pattern)]
            worst = max(worst, abs(perturbed[_index(pattern)] - want) / abs(want))
        assert worst > 1e-7


class TestDiagramSumGrid:
    @pytest.mark.parametrize("samples", [1, amplitudes._CHUNK_ANGLES - 1,
                                         amplitudes._CHUNK_ANGLES,
                                         amplitudes._CHUNK_ANGLES + 1, 1000])
    def test_matches_one_element_grids(self, samples):
        grid = np.linspace(0.05, math.pi - 0.05, samples)
        batched = diagram_sum_grid(grid)
        assert batched.shape == (samples, 2, 2, 2, 2)
        for theta, values in zip(grid, batched):
            single = diagram_sum_grid([theta])[0]
            scale = float(np.max(np.abs(single)))
            assert np.max(np.abs(values - single)) <= 1e-12 * scale

    def test_perturbed_vertex_fails_the_gate_across_chunks(self):
        grid = np.linspace(VERIFY_THETA_MIN, VERIFY_THETA_MAX, amplitudes._CHUNK_ANGLES + 1)
        report, _ = build_verify_report(grid, seed=20, vertex_perturbation=1e-3)
        assert not report["passed"]
        assert report["pattern_deviations"]["1212"] > report["tolerance"]
        assert report["gauge_deviation"] > report["gauge_tolerance"]

    def test_domain_errors(self):
        pols = _legs(1.0, (1, 1, 1, 1))[1]
        for theta in (0.0, math.pi, math.nan):
            with pytest.raises(ValueError, match="strictly between 0 and pi"):
                diagram_sum_grid([1.0, theta])
            with pytest.raises(ValueError, match="strictly between 0 and pi"):
                channel_amplitudes(theta, pols)
            with pytest.raises(ValueError, match="strictly between 0 and pi"):
                closed_form_grid([1.0, theta])


class TestClosedForm:
    @staticmethod
    def _element(pattern, theta):
        """One reference element: the one-element grid at theta, indexed by the pattern."""
        return closed_form_grid([theta])[0][_index(pattern)]

    def test_right_angle_table(self):
        theta = math.pi / 2
        assert_allclose(self._element((1, 1, 1, 1), theta), -9.0, rtol=1e-14)
        assert_allclose(self._element((2, 2, 2, 2), theta), -9.0, rtol=1e-14)
        assert_allclose(self._element((1, 1, 2, 2), theta), 7.0, rtol=1e-14)
        assert_allclose(self._element((1, 2, 1, 2), theta), -8.0, rtol=1e-13)
        assert_allclose(self._element((1, 2, 2, 1), theta), -8.0, rtol=1e-13)

    def test_rational_anchors(self):
        assert_allclose(self._element((1, 1, 1, 1), math.pi / 3),
                        -169.0 / 12.0, rtol=1e-14)
        assert_allclose(self._element((1, 2, 1, 2), math.pi / 3),
                        -14.0, rtol=1e-14)
        assert_allclose(self._element((1, 2, 1, 2), 2.0 * math.pi / 3),
                        -22.0 / 3.0, rtol=1e-13)

    def test_label_swap_pairs_are_identical(self):
        for theta in (0.7, 1.9):
            values = closed_form_grid([theta])[0]
            assert values[0, 0, 0, 0] == values[1, 1, 1, 1]
            assert values[0, 0, 1, 1] == values[1, 1, 0, 0]
            assert values[0, 1, 0, 1] == values[1, 0, 1, 0]
            assert values[0, 1, 1, 0] == values[1, 0, 0, 1]

    def test_parity_odd_patterns_are_exactly_zero(self):
        values = closed_form_grid([1.234])[0]
        for pattern in ZERO_PATTERNS:
            assert values[_index(pattern)] == 0.0

    @pytest.mark.parametrize("evaluate", [closed_form_grid, diagram_sum_grid],
                             ids=lambda evaluate: evaluate.__name__)
    def test_outgoing_exchange_symmetry(self, evaluate):
        # Crossing, m_abcd(theta) = m_abdc(pi - theta), on both evaluators.
        # Rounding pi - theta alone costs about ulp(pi) / theta near the
        # poles, hence the margin of 0.05.
        grid = np.linspace(0.05, math.pi - 0.05, 1001)
        direct = evaluate(grid)
        crossed = evaluate(math.pi - grid).swapaxes(-1, -2)
        axes = (1, 2, 3, 4)
        deviation = np.max(np.abs(direct - crossed), axis=axes)
        assert np.all(deviation <= 1e-13 * np.max(np.abs(direct), axis=axes))

    def test_domain_errors(self):
        for theta in (0.0, math.pi, -1.0, math.nan):
            with pytest.raises(ValueError):
                closed_form_grid([theta])

    def test_grid_rows_match_one_element_grids(self):
        # Powers go through np.float_power, so a row of a long grid equals
        # the one-element grid of its angle exactly.
        grid = np.linspace(1e-7, math.pi - 1e-7, 1667)
        for theta, row in zip(grid, closed_form_grid(grid)):
            assert np.array_equal(row, closed_form_grid([float(theta)])[0])

    def test_one_element_grid_is_real_and_has_the_module_layout(self):
        values = closed_form_grid([0.8])
        assert values.dtype == np.float64
        assert values.shape == (1, 2, 2, 2, 2)
