"""Minkowski four-vectors and the metric.

Conventions shared by the whole package: metric signature (+, -, -, -),
components ordered (t, x, y, z), natural units hbar = c = 1 with all photon
energies normalized to 1. Tensors are stored with every index covariant and
raising is always an explicit metric contraction, never implicit.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = [
    "METRIC",
    "FourVector",
    "minkowski_dot",
    "lower_index",
]

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])
METRIC.flags.writeable = False


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class FourVector:
    """Real four-vector; stored components are contravariant."""

    __slots__ = ("_components",)

    def __init__(self, t: float, x: float, y: float, z: float):
        components = np.array([t, x, y, z], dtype=np.float64)
        if not np.all(np.isfinite(components)):
            raise ValueError(f"four-vector components must be finite, got {components}")
        self._components = _frozen(components)

    @classmethod
    def from_array(cls, values) -> "FourVector":
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (4,):
            raise ValueError(f"expected 4 components, got shape {values.shape}")
        return cls(*values)

    @property
    def components(self) -> np.ndarray:
        """Read-only view (t, x, y, z)."""
        return self._components

    @property
    def t(self) -> float:
        return float(self._components[0])

    @property
    def x(self) -> float:
        return float(self._components[1])

    @property
    def y(self) -> float:
        return float(self._components[2])

    @property
    def z(self) -> float:
        return float(self._components[3])

    def __add__(self, other):
        if not isinstance(other, FourVector):
            return NotImplemented
        return FourVector.from_array(self._components + other._components)

    def __sub__(self, other):
        if not isinstance(other, FourVector):
            return NotImplemented
        return FourVector.from_array(self._components - other._components)

    def __neg__(self):
        return FourVector.from_array(-self._components)

    def __mul__(self, scalar):
        if not isinstance(scalar, numbers.Real):
            return NotImplemented
        return FourVector.from_array(float(scalar) * self._components)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, FourVector):
            return NotImplemented
        return bool(np.array_equal(self._components, other._components))

    def __repr__(self):
        t, x, y, z = self._components
        return f"FourVector({t!r}, {x!r}, {y!r}, {z!r})"


def minkowski_dot(a: FourVector, b: FourVector) -> float:
    """a . b = a^0 b^0 - a^1 b^1 - a^2 b^2 - a^3 b^3."""
    u = a.components
    v = b.components
    return float(u[0] * v[0] - u[1] * v[1] - u[2] * v[2] - u[3] * v[3])


def lower_index(v: FourVector) -> FourVector:
    """Covariant components (v^0, -v^1, -v^2, -v^3), packed in a FourVector.

    Applying the function twice restores the original vector.
    """
    return FourVector(v.t, -v.x, -v.y, -v.z)
