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
from dataclasses import dataclass

from .constants import CODATA_2022

__all__ = [
    "QedContext",
    "qed_element_1212",
    "qed_element_1221",
]

@dataclass(frozen=True)
class QedContext:
    """Electron-scale inputs for the loop-induced cross section.

    Defaults are the CODATA 2022 values; override either field to study
    parameter sensitivity. ``compton_wavelength`` is the reduced Compton wavelength
    hbar c / (m c^2), about 3.86e-13 m for the physical electron.
    """

    electron_mass_energy: float = CODATA_2022.electron_mass * CODATA_2022.c ** 2
    fine_structure_constant: float = CODATA_2022.fine_structure

    def __post_init__(self):
        if not self.electron_mass_energy > 0.0:
            raise ValueError(
                f"electron mass energy must be positive, got {self.electron_mass_energy}")
        if not self.fine_structure_constant > 0.0:
            raise ValueError(
                f"fine structure constant must be positive, got {self.fine_structure_constant}")

    @property
    def compton_wavelength(self) -> float:
        return CODATA_2022.hbar * CODATA_2022.c / self.electron_mass_energy


def qed_element_1212(theta: float) -> complex:
    """Cross-polarized loop element, -i (31 + 22 cos + 3 cos^2) in reduced units."""
    c = math.cos(theta)
    return complex(0.0, -(31.0 + 22.0 * c + 3.0 * c * c))


def qed_element_1221(theta: float) -> complex:
    """Swapped-output partner, equal to the 1212 element at pi - theta."""
    return qed_element_1212(math.pi - theta)
