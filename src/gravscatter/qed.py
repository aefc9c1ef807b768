"""Low-energy photon-photon scattering elements from the electron loop.

Only the two cross-polarized elements that feed the entangled-state cross
section are provided. Reduced values are expressed in units of
4 alpha^2 E^4 / (45 m^4 c^8); with the phase convention used here the
elements are purely imaginary with negative imaginary part, and they never
vanish on 0 <= theta <= pi, which is what makes the relative phase of the
two cross elements well defined everywhere.
"""

from __future__ import annotations

import math

__all__ = [
    "qed_element_1212",
    "qed_element_1221",
]


def qed_element_1212(theta: float) -> complex:
    """Cross-polarized loop element, -i (31 + 22 cos + 3 cos^2) in reduced units."""
    c = math.cos(theta)
    return complex(0.0, -(31.0 + 22.0 * c + 3.0 * c * c))


def qed_element_1221(theta: float) -> complex:
    """Swapped-output partner, equal to the 1212 element at pi - theta."""
    return qed_element_1212(math.pi - theta)
