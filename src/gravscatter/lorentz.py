"""The Minkowski metric and product.

Conventions shared by the whole package: metric signature (+, -, -, -),
components ordered (t, x, y, z), natural units hbar = c = 1 with all photon
energies normalized to 1. A four-vector is a float array with its
contravariant components on the last axis; leading axes index batches of
vectors. Tensors are stored with every index covariant and raising is
always an explicit metric contraction, never implicit. No contraction in
the package uses @: every one is an einsum, because @ hands the sum to
OpenBLAS, whose summation order depends on the CPU core it picks, so the
last bits of a result could change from one machine to the next.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "METRIC",
    "minkowski_dot",
]

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])
METRIC.flags.writeable = False

_ETA = np.diag(METRIC).copy()


def minkowski_dot(a, b) -> np.ndarray:
    """a . b = a^0 b^0 - a^1 b^1 - a^2 b^2 - a^3 b^3 over the last axis.

    Leading axes broadcast; two single vectors give a numpy scalar. Summed
    left to right by einsum, as the formula reads.
    """
    return np.einsum("...m,...m,m->...", a, b, _ETA, dtype=np.float64)
