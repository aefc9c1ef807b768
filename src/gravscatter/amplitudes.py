"""Tree-level graviton-exchange amplitudes for photon-photon scattering.

Every amplitude here is reduced: the matrix element is divided by the overall
coupling-squared-times-energy-squared scale, leaving a pure function of the
scattering angle. Three exchange topologies contribute,

    t: photon 1 -> 3 at one vertex, 2 -> 4 at the other, q = p1 - p3,
    u: photon 1 -> 4 and 2 -> 3,                         q = p1 - p4,
    s: 1 and 2 annihilate, 3 and 4 emerge,               q = p1 + p2.

Crossed legs enter the vertex with their momentum sign flipped; the vertex
is strictly bilinear in its two momenta, so the flips at the two s-channel
vertices cancel in the product and the summed amplitude is insensitive to
that bookkeeping. The closed-form element table is the reference the diagram
evaluator must land on, entry by entry. The overall sign choice and two
corrections to commonly printed vertex formulas are recorded in ERRATA.md.

Amplitudes over a grid of N angles are real arrays of shape
(N, 2, 2, 2, 2): values[n, a, b, c, d] is the element at theta[n] for
incoming polarization labels (a + 1, b + 1) and outgoing labels
(c + 1, d + 1), so flattening the last four axes lists the 16 patterns in
the order 1111, 1112, ..., 2222. One angle is a one-element grid.
"""

from __future__ import annotations

import math

import numpy as np

from .kinematics import check_theta, com_arrays
from .lorentz import METRIC, minkowski_dot

__all__ = [
    "POLE_TOLERANCE",
    "PoleError",
    "CHUNK_ANGLES",
    "contracted_vertex",
    "graviton_coupling",
    "channel_amplitudes",
    "diagram_sum_grid",
    "closed_form_element",
    "closed_form_grid",
]

POLE_TOLERANCE = 1e-10

# The conventional diagram rule carries an overall minus sign; evaluated as
# written it reproduces the negative of the reference element table, so the
# reduced amplitudes here use +1. See ERRATA.md.
_DIAGRAM_SIGN = 1.0

# Angles per kernel call in diagram_sum_grid. An angle holds four 4x4 blocks
# per vertex plus temporaries, a few kB, so a chunk stays well under 1 MB
# however long the grid is.
CHUNK_ANGLES = 256

_ETA = np.diag(METRIC).copy()
_ETA_PAIR = np.outer(_ETA, _ETA)


class PoleError(ValueError):
    """Squared exchange momentum fell inside the massless-propagator pole window."""


def _check_pols(pols) -> tuple[int, int, int, int]:
    pols = tuple(pols)
    if len(pols) != 4 or any(label not in (1, 2) for label in pols):
        raise ValueError(f"expected four polarization labels from {{1, 2}}, got {pols!r}")
    return pols


def contracted_vertex(p_out, p_in, eps_out, eps_in, *,
                      perturbation: float = 0.0) -> np.ndarray:
    """Two-photon-graviton vertex with both photon slots filled.

    The vertex T_{mu nu beta alpha}(q, p), q = p_out and p = p_in, has (mu, nu)
    on the graviton, beta on the outgoing photon and alpha on the incoming
    one:

        T =   q_alpha p_mu eta_{beta nu} + (mu <-> nu)
            + p_beta  q_mu eta_{alpha nu} + (mu <-> nu)
            - eta_{alpha beta} (q_mu p_nu + p_mu q_nu)
            + (q . p) eta_{mu nu} eta_{alpha beta} - eta_{mu nu} p_beta q_alpha
            - (q . p) (eta_{mu alpha} eta_{nu beta} + eta_{mu beta} eta_{nu alpha}).

    Contracting beta with e = eps_out and alpha with f = eps_in leaves the
    covariant rank-2 block

        B = (q.f) {p, e} + (p.e) {q, f} - (e.f) {q, p}
            + [(q.p)(e.f) - (p.e)(q.f)] eta - (q.p) {e, f},

    where {a, b}_{mu nu} = a_mu b_nu + b_mu a_nu. B is symmetric and bilinear
    in the two momenta, so a sign-flipped momentum for a crossed leg flips
    the whole block. ``perturbation`` rescales the final metric-pair term by
    (1 + perturbation); it exists purely as a negative control for the
    verification gate and must stay 0 in physics use. Arguments carry
    contravariant components on the last axis; leading axes broadcast.
    """
    q, p, e, f = (np.asarray(v, dtype=np.float64) for v in (p_out, p_in, eps_out, eps_in))
    qf, pe, ef, qp = (minkowski_dot(a, b) for a, b in ((q, f), (p, e), (e, f), (q, p)))
    ql, pl, el, fl = (v * _ETA for v in (q, p, e, f))
    # Sum the a_mu (w b)_nu halves of the {a, b} terms, then add the
    # transpose once: the block comes out exactly symmetric.
    half = (0.5 * (qp * ef - pe * qf))[..., None, None] * METRIC
    for a, b, weight in ((pl, el, qf), (ql, fl, pe), (ql, pl, -ef),
                         (el, fl, -qp * (1.0 + float(perturbation)))):
        half += a[..., :, None] * (weight[..., None] * b)[..., None, :]
    block = half + np.swapaxes(half, -1, -2)
    return block


def graviton_coupling(block1, block2) -> np.ndarray:
    """Two symmetric vertex blocks joined by the harmonic-gauge propagator.

    With the numerator P_{mu nu alpha beta} = (eta_{mu alpha} eta_{nu beta} +
    eta_{mu beta} eta_{nu alpha} - eta_{mu nu} eta_{alpha beta}) / 2, the
    contraction B1^{mu nu} P_{mu nu alpha beta} B2^{alpha beta} of symmetric
    blocks reduces to B1:B2 - tr B1 tr B2 / 2, every index raised by the
    metric. Leading axes broadcast.
    """
    full = np.einsum("...mn,...mn,mn->...", block1, block2, _ETA_PAIR)
    trace1 = np.diagonal(block1, axis1=-2, axis2=-1) @ _ETA
    trace2 = np.diagonal(block2, axis1=-2, axis2=-1) @ _ETA
    return full - 0.5 * trace1 * trace2


# Per channel: two vertices, each (photon on the out slot, sign of the
# momentum fed to it, photon on the in slot, sign of its momentum), photons
# 0-based; then the exchange momentum q = p1 + sign * p_k as (k, sign).
# Crossed legs appear with flipped momentum signs.
_CHANNELS = (
    ("t", ((2, 1.0, 0, 1.0), (3, 1.0, 1, 1.0)), (2, -1.0)),
    ("u", ((3, 1.0, 0, 1.0), (2, 1.0, 1, 1.0)), (3, -1.0)),
    ("s", ((1, -1.0, 0, 1.0), (2, 1.0, 3, -1.0)), (1, 1.0)),
)


def _check_pole(channel: str, q2: np.ndarray, momenta) -> None:
    if not np.any(np.abs(q2) < POLE_TOLERANCE):
        return
    q2, p1, p3 = np.broadcast_arrays(q2[..., None], momenta[0][..., 1:], momenta[2][..., 1:])
    row = tuple(np.argwhere(np.abs(q2[..., 0]) < POLE_TOLERANCE)[0])
    theta = math.atan2(np.linalg.norm(np.cross(p1[row], p3[row])), p1[row] @ p3[row])
    raise PoleError(
        f"{channel}-channel exchange momentum squared {q2[row][0]:.3e} lies "
        f"within {POLE_TOLERANCE} of the pole at theta = {theta:.6g}"
    )


def channel_amplitudes(momenta, polarizations, *,
                       vertex_perturbation: float = 0.0) -> np.ndarray:
    """Reduced t, u and s exchange amplitudes, batched by broadcasting.

    ``momenta`` and ``polarizations`` hold four arrays each, one per photon
    in order (a sequence, or an array with the photon on its first axis),
    with contravariant components on the last axis. Their leading shapes
    broadcast together; the result has that shape plus a last axis t, u, s.
    Giving each photon's label its own axis yields all 16 patterns while
    each vertex block is built once per label pair. Polarizations may be
    arbitrary, e.g. gauge-shifted. Raises PoleError, naming the channel and
    the angle, where an exchange momentum squared is within POLE_TOLERANCE
    of zero.
    """
    momenta = [np.asarray(v, dtype=np.float64) for v in momenta]
    polarizations = [np.asarray(v, dtype=np.float64) for v in polarizations]
    if (len(momenta), len(polarizations)) != (4, 4) or any(
            v.shape[-1:] != (4,) for v in momenta + polarizations):
        raise ValueError("need four momenta and four polarizations, each with "
                         "four components on the last axis")
    amplitudes = []
    for channel, vertices, (k, sign) in _CHANNELS:
        q = momenta[0] + sign * momenta[k]
        q2 = minkowski_dot(q, q)
        _check_pole(channel, q2, momenta)
        block1, block2 = (
            contracted_vertex(sign_out * momenta[out], sign_in * momenta[into],
                              polarizations[out], polarizations[into],
                              perturbation=vertex_perturbation)
            for out, sign_out, into, sign_in in vertices)
        amplitudes.append(_DIAGRAM_SIGN * graviton_coupling(block1, block2) / q2)
    return np.stack(amplitudes, axis=-1)


def diagram_sum_grid(theta, *, vertex_perturbation: float = 0.0) -> np.ndarray:
    """Three-channel sums over a 1-D array of angles, CHUNK_ANGLES at a time.

    Real, shape (N, 2, 2, 2, 2) in the module's layout. Photon k's
    polarization label runs along pattern axis k, so each vertex block is
    built once per label pair.
    """
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    values = np.empty((theta.size, 2, 2, 2, 2))
    for start in range(0, theta.size, CHUNK_ANGLES):
        momenta, basis = com_arrays(theta[start:start + CHUNK_ANGLES])
        moms = [momenta[:, k, None, None, None, None] for k in range(4)]
        pols = [basis[:, k].reshape((-1,) + tuple(2 if j == k else 1 for j in range(4)) + (4,))
                for k in range(4)]
        values[start:start + CHUNK_ANGLES] = channel_amplitudes(
            moms, pols, vertex_perturbation=vertex_perturbation).sum(axis=-1)
    return values


# Numerators of the closed-form elements, shared by the scalar and the array
# paths (c = cos(theta) is a float or an array); swapping labels 1 <-> 2
# leaves each element unchanged. Powers of a per-angle value use
# np.float_power, never `**`: on an array numpy's `**` may run a SIMD pow
# that differs from the scalar pow in the last bit, and np.float_power keeps
# every array element equal to the float its angle gives alone.
_NUMERATORS = {
    (1, 1, 1, 1): lambda c: -9.0 - 6.0 * c * c - np.float_power(c, 4),
    (1, 1, 2, 2): lambda c: 7.0 - 6.0 * c * c - np.float_power(c, 4),
    (1, 2, 1, 2): lambda c: -8.0 - 4.0 * c - 4.0 * np.float_power(c, 3),
    (1, 2, 2, 1): lambda c: -8.0 + 4.0 * c + 4.0 * np.float_power(c, 3),
}
_NUMERATORS.update({tuple(3 - label for label in pattern): numerator
                    for pattern, numerator in list(_NUMERATORS.items())})


def closed_form_element(pols, theta: float) -> float:
    """Reference value of one reduced amplitude element.

    With c = cos(theta), the eight non-vanishing patterns share a 1/sin^2
    factor multiplying

        1111, 2222:  -9 - 6 c^2 - c^4
        1122, 2211:   7 - 6 c^2 - c^4
        1212, 2121:  -8 - 4 c - 4 c^3
        1221, 2112:  -8 + 4 c + 4 c^3

    Any pattern with an odd number of in-plane labels vanishes identically,
    since the one-sided reflection of the scattering plane flips its sign.
    """
    numerator = _NUMERATORS.get(_check_pols(pols))
    theta = check_theta(theta)
    if numerator is None:
        return 0.0
    return float(numerator(np.cos(theta)) / np.float_power(np.sin(theta), 2))


def closed_form_grid(theta) -> np.ndarray:
    """All 16 closed-form elements over a 1-D array of angles.

    Real, shape (N, 2, 2, 2, 2) in the module's layout.
    """
    theta = check_theta(np.asarray(theta, dtype=np.float64).reshape(-1))
    c = np.cos(theta)
    sin_sq = np.float_power(np.sin(theta), 2)
    values = np.zeros(theta.shape + (2, 2, 2, 2))
    for pattern, numerator in _NUMERATORS.items():
        values[(slice(None), *(label - 1 for label in pattern))] = numerator(c) / sin_sq
    return values
