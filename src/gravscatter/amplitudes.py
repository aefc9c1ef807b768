"""Tree-level graviton-exchange amplitudes for photon-photon scattering.

Every amplitude here is reduced: the matrix element is divided by the overall
coupling-squared-times-energy-squared scale, leaving a pure function of the
scattering angle. Three exchange topologies contribute,

    t: photon 1 -> 3 at one vertex, 2 -> 4 at the other, q = p1 - p3,
    u: photon 1 -> 4 and 2 -> 3,                         q = p1 - p4,
    s: 1 and 2 annihilate, 3 and 4 emerge,               q = p1 + p2.

Crossing puts a flipped momentum on one leg at each s-channel vertex. The
vertex is strictly bilinear in its two momenta, so each flip negates its
block exactly and the two negations cancel in the coupling; the s channel
therefore feeds every vertex the photons' own momenta. The closed-form
element table is the reference the diagram evaluator must land on, entry by
entry. The overall sign choice and two corrections to commonly printed
vertex formulas are recorded in ERRATA.md.

Amplitudes over a grid of N angles are real arrays of shape
(N, 2, 2, 2, 2): values[n, a, b, c, d] is the element at theta[n] for
incoming polarization labels (a + 1, b + 1) and outgoing labels
(c + 1, d + 1), so flattening the last four axes lists the 16 patterns in
the order of PATTERN_NAMES: 1111, 1112, ..., 2222. One angle is a
one-element grid.
"""

from __future__ import annotations

import itertools

import numpy as np

from .kinematics import check_theta, com_arrays
from .lorentz import _ETA, METRIC, minkowski_dot

__all__ = [
    "PATTERN_NAMES",
    "PoleError",
    "contracted_vertex",
    "graviton_coupling",
    "channel_amplitudes",
    "diagram_sum_grid",
    "closed_form_grid",
]

# The labels (a + 1, b + 1, c + 1, d + 1) of each pattern as a string, in
# the flattened order of the last four axes.
PATTERN_NAMES = tuple(map("".join, itertools.product("12", repeat=4)))

# Angles per kernel call in diagram_sum_grid. An angle holds four 4x4 blocks
# per vertex plus temporaries, a few kB, so a chunk stays well under 1 MB
# however long the grid is.
_CHUNK_ANGLES = 256

# channel_amplitudes refuses an angle whose squared exchange momentum lies
# this close to the massless propagator's pole.
_POLE_TOLERANCE = 1e-10

_ETA_PAIR = np.outer(_ETA, _ETA)


class PoleError(ValueError):
    """Squared exchange momentum fell inside the massless-propagator pole window."""


def _field_strength(k, eps) -> np.ndarray:
    """Covariant field strength F_{mu nu} = k_mu eps_nu - k_nu eps_mu; leading axes broadcast."""
    outer = (k * _ETA)[..., :, None] * (eps * _ETA)[..., None, :]
    return outer - np.swapaxes(outer, -1, -2)


def _trace(block) -> np.ndarray:
    """eta^{mu nu} B_{mu nu} over the last two axes.

    By einsum, not by @ on the diagonal, which OpenBLAS may sum in an order
    that depends on the CPU kernel it picks.
    """
    return np.einsum("...mm,m->...", block, _ETA)


def contracted_vertex(p_out, p_in, eps_out, eps_in, *,
                      perturbation: float = 0.0) -> np.ndarray:
    """Two-photon-graviton vertex with both photon slots filled: minus the photons' stress tensor.

    Gravity couples to the stress tensor. With q = p_out, e = eps_out,
    p = p_in and f = eps_in, take the field strengths F_out = q ^ e and
    F_in = p ^ f of _field_strength, and X = F_out eta F_in^T, that is
    X_{mu nu} = F_out,{mu a} eta^{ab} F_in,{nu b}. The covariant rank-2
    block is

        B = -T(F_out, F_in) - delta (q.p) {e, f},
        T = X + X^T - (1/2) eta tr X,

    where T is the bilinear Maxwell stress tensor, tr T = eta^{mu nu} T_{mu nu},
    {a, b}_{mu nu} = a_mu b_nu + b_mu a_nu and delta = ``perturbation``.
    T is traceless in four dimensions, so tr B = -2 delta (q.p)(e.f).

    Expanded, B is the full rank-4 vertex contracted with e on its outgoing
    and f on its incoming photon slot, with the vertex's (q.p) metric-pair
    term scaled by (1 + delta); tests/vertex_reference.py builds that
    tensor term by term. B is symmetric and bilinear in the two momenta, so
    a sign-flipped momentum for a crossed leg flips the whole block.
    ``perturbation`` exists purely as a negative control for the
    verification gate and must stay 0 in physics use. Arguments carry
    contravariant components on the last axis; leading axes broadcast.
    """
    q, p, e, f = (np.asarray(v, dtype=np.float64) for v in (p_out, p_in, eps_out, eps_in))
    x = np.einsum("...ma,a,...na->...mn", _field_strength(q, e), _ETA, _field_strength(p, f))
    # Build half of B, then add its transpose once: the block comes out
    # exactly symmetric.
    half = (0.25 * _trace(x))[..., None, None] * METRIC - x
    if perturbation:
        weight = float(perturbation) * minkowski_dot(q, p)
        half -= (e * _ETA)[..., :, None] * (weight[..., None] * f * _ETA)[..., None, :]
    return half + np.swapaxes(half, -1, -2)


def graviton_coupling(block1, block2) -> np.ndarray:
    """Two symmetric vertex blocks joined by the harmonic-gauge propagator.

    With the numerator P_{mu nu alpha beta} = (eta_{mu alpha} eta_{nu beta} +
    eta_{mu beta} eta_{nu alpha} - eta_{mu nu} eta_{alpha beta}) / 2, the
    contraction B1^{mu nu} P_{mu nu alpha beta} B2^{alpha beta} of symmetric
    blocks reduces to B1:B2 - tr B1 tr B2 / 2, every index raised by the
    metric. Leading axes broadcast. A photon block is traceless (see
    contracted_vertex), so the trace term adds nothing to a physical
    amplitude; it is kept for the perturbed block of the negative control,
    which has a trace.
    """
    full = np.einsum("...mn,...mn,mn->...", block1, block2, _ETA_PAIR)
    return full - 0.5 * _trace(block1) * _trace(block2)


# Per channel: two vertices, each (photon on the out slot, photon on the in
# slot), photons 0-based; then the exchange momentum q = p1 + sign * p_k as
# (k, sign). The s channel's crossed legs, p2 at one vertex and p4 at the
# other, need no flipped sign: the two flips negate the two blocks exactly,
# and graviton_coupling's product of blocks cancels them bit for bit.
_CHANNELS = (
    ("t", ((2, 0), (3, 1)), (2, -1.0)),
    ("u", ((3, 0), (2, 1)), (3, -1.0)),
    ("s", ((1, 0), (2, 3)), (1, 1.0)),
)


def channel_amplitudes(theta, polarizations, *,
                       vertex_perturbation: float = 0.0) -> np.ndarray:
    """Reduced t, u and s exchange amplitudes at angle theta, batched by broadcasting.

    ``theta`` is an angle or an array of them; com_arrays builds the momenta
    and check_theta refuses an angle outside (0, pi). ``polarizations`` holds
    four arrays, one per photon in order (a sequence, or an array with the
    photon on its first axis), with contravariant components on the last
    axis. Theta's shape and the polarizations' leading shapes broadcast
    together; the result has that shape plus a last axis t, u, s. Giving
    each photon's label its own axis yields all 16 patterns while each
    vertex block is built once per label pair. Polarizations may be
    arbitrary, e.g. gauge-shifted. Raises PoleError, naming the channel and
    the angle, where an exchange momentum squared is within 1e-10 of zero.
    """
    momenta = np.moveaxis(com_arrays(theta)[0], -2, 0)
    polarizations = [np.asarray(v, dtype=np.float64) for v in polarizations]
    if len(polarizations) != 4 or any(v.shape[-1:] != (4,) for v in polarizations):
        raise ValueError("need four polarizations, each with four components on the last axis")
    amplitudes = []
    for channel, vertices, (k, sign) in _CHANNELS:
        q = momenta[0] + sign * momenta[k]
        q2 = minkowski_dot(q, q)
        near = np.abs(q2) < _POLE_TOLERANCE
        if np.any(near):
            raise PoleError(f"{channel}-channel exchange momentum squared {q2[near][0]:.3e} "
                            f"lies within {_POLE_TOLERANCE} of the pole at theta = "
                            f"{np.asarray(theta)[near][0]:.6g}")
        block1, block2 = (
            contracted_vertex(momenta[out], momenta[into], polarizations[out],
                              polarizations[into], perturbation=vertex_perturbation)
            for out, into in vertices)
        amplitudes.append(graviton_coupling(block1, block2) / q2)
    return np.stack(amplitudes, axis=-1)


def diagram_sum_grid(theta, *, vertex_perturbation: float = 0.0) -> np.ndarray:
    """Three-channel sums over a 1-D array of angles, 256 at a time.

    Real, shape (N, 2, 2, 2, 2) in the module's layout. Photon k's
    polarization label runs along pattern axis k, so each vertex block is
    built once per label pair.
    """
    theta = check_theta(theta).reshape(-1)
    values = np.empty((theta.size, 2, 2, 2, 2))
    for start in range(0, theta.size, _CHUNK_ANGLES):
        chunk = theta[start:start + _CHUNK_ANGLES]
        basis = com_arrays(chunk)[1]
        pols = [basis[:, k].reshape((-1,) + tuple(2 if j == k else 1 for j in range(4)) + (4,))
                for k in range(4)]
        values[start:start + _CHUNK_ANGLES] = channel_amplitudes(
            chunk[:, None, None, None, None], pols,
            vertex_perturbation=vertex_perturbation).sum(axis=-1)
    return values


# Numerators of the closed-form elements (c = cos(theta), an array); swapping
# labels 1 <-> 2 leaves each element unchanged. Powers of a per-angle value
# use np.float_power, never `**`: numpy's `**` may run a SIMD pow that
# differs from the scalar pow in the last bit, while np.float_power gives
# each angle the scalar pow's value, the one the pinned output bytes hold.
_NUMERATORS = {
    (1, 1, 1, 1): lambda c: -9.0 - 6.0 * c * c - np.float_power(c, 4),
    (1, 1, 2, 2): lambda c: 7.0 - 6.0 * c * c - np.float_power(c, 4),
    (1, 2, 1, 2): lambda c: -8.0 - 4.0 * c - 4.0 * np.float_power(c, 3),
    (1, 2, 2, 1): lambda c: -8.0 + 4.0 * c + 4.0 * np.float_power(c, 3),
}
_NUMERATORS.update({tuple(3 - label for label in pattern): numerator
                    for pattern, numerator in list(_NUMERATORS.items())})


def closed_form_grid(theta) -> np.ndarray:
    """All 16 reference elements over a 1-D array of angles.

    Real, shape (N, 2, 2, 2, 2) in the module's layout; one angle is
    ``closed_form_grid([theta])[0]``. With c = cos(theta), the eight
    non-vanishing patterns share a 1/sin^2 factor multiplying

        1111, 2222:  -9 - 6 c^2 - c^4
        1122, 2211:   7 - 6 c^2 - c^4
        1212, 2121:  -8 - 4 c - 4 c^3
        1221, 2112:  -8 + 4 c + 4 c^3

    Any pattern with an odd number of in-plane labels vanishes identically,
    since the one-sided reflection of the scattering plane flips its sign.
    """
    theta = check_theta(theta).reshape(-1)
    columns = [_closed_form_column(theta, pattern) for pattern in PATTERN_NAMES]
    return np.stack(columns, axis=-1).reshape(theta.shape + (2, 2, 2, 2))


def _closed_form_column(theta, pattern: str) -> np.ndarray:
    """One pattern's elements over a 1-D array of angles, without the other fifteen.

    ``pattern`` is one of PATTERN_NAMES. Each value is numerator(cos theta)
    / sin^2 theta, or 0 for a vanishing pattern; closed_form_grid stacks
    the sixteen columns.
    """
    theta = check_theta(theta).reshape(-1)
    numerator = _NUMERATORS.get(tuple(map(int, pattern)))
    if numerator is None:
        return np.zeros(theta.shape)
    return numerator(np.cos(theta)) / np.float_power(np.sin(theta), 2)
