"""The full two-photon-graviton vertex tensor, built entry by entry.

An oracle for the closed-form contracted vertex: the package never forms
the 256-entry tensor, so the tests build it here.
"""

import itertools

import numpy as np

_ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def vertex_entry_reference(p_out, p_in, m, n, b, a):
    """Literal term-by-term transcription of the five vertex contributions."""
    ql = _ETA @ p_out
    pl = _ETA @ p_in
    s = float(p_out @ _ETA @ p_in)
    value = ql[a] * pl[m] * _ETA[b, n] + ql[a] * pl[n] * _ETA[b, m]
    value += pl[b] * ql[m] * _ETA[a, n] + pl[b] * ql[n] * _ETA[a, m]
    value -= _ETA[a, b] * (ql[m] * pl[n] + pl[m] * ql[n])
    value += s * _ETA[m, n] * _ETA[a, b] - _ETA[m, n] * pl[b] * ql[a]
    value -= s * (_ETA[m, a] * _ETA[n, b] + _ETA[m, b] * _ETA[n, a])
    return value


def vertex_tensor_reference(p_out, p_in, perturbation=0.0):
    """All 256 vertex entries, with the metric-pair term scaled by (1 + perturbation)."""
    tensor = np.empty((4, 4, 4, 4))
    for m, n, b, a in itertools.product(range(4), repeat=4):
        tensor[m, n, b, a] = vertex_entry_reference(p_out, p_in, m, n, b, a)
    dot = float(p_out @ _ETA @ p_in)
    pair = np.einsum("ma,nb->mnba", _ETA, _ETA) + np.einsum("mb,na->mnba", _ETA, _ETA)
    return tensor - perturbation * dot * pair
