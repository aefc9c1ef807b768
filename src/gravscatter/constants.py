"""Physical constants: one frozen record of SI values, and the CODATA 2022 set.

``CODATA_2022`` holds the CODATA 2022 recommended values as the exact floats
scipy.constants 1.17 supplies, so SI outputs do not depend on which scipy,
if any, is installed. ``si_convert`` and ``dcs_entangled_qed`` take it as
their default ``constants=``; build another ``Constants`` to study how a
result depends on one of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

__all__ = ["Constants", "CODATA_2022"]


@dataclass(frozen=True)
class Constants:
    """One set of SI constants: G, hbar, c, electron mass and alpha.

    Each must be finite and positive.
    """

    newton_constant: float
    hbar: float
    c: float
    electron_mass: float
    fine_structure: float

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{field.name} must be finite and positive, got {value}")

    @property
    def planck_length(self) -> float:
        """sqrt(G hbar / c^3), about 1.616e-35 m."""
        return math.sqrt(self.newton_constant * self.hbar / self.c ** 3)

    @property
    def compton_wavelength(self) -> float:
        """Reduced electron Compton wavelength hbar c / (m c^2), about 3.86e-13 m."""
        return self.hbar * self.c / (self.electron_mass * self.c ** 2)


CODATA_2022 = Constants(
    newton_constant=6.6743e-11,
    hbar=1.0545718176461565e-34,
    c=299792458.0,
    electron_mass=9.1093837139e-31,
    fine_structure=0.0072973525643,
)
