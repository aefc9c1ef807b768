"""The Minkowski metric and product.

Conventions shared by the whole package: metric signature (+, -, -, -),
components ordered (t, x, y, z), natural units hbar = c = 1 with all photon
energies normalized to 1. A four-vector is a float array with its
contravariant components on the last axis; leading axes index batches of
vectors. Tensors are stored with every index covariant and raising is
always an explicit metric contraction, never implicit.
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

    Leading axes broadcast; two single vectors give a numpy scalar.
    """
    return (np.asarray(a, dtype=np.float64) * np.asarray(b, dtype=np.float64)) @ _ETA
