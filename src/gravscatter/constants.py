"""Physical constants: the CODATA 2022 recommended values, frozen in SI units.

These are the exact floats scipy.constants 1.17 supplies, so SI outputs do
not depend on which scipy, if any, is installed. ``PhysicalConstants`` and
``QedContext`` take their defaults from this one record.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Codata", "CODATA_2022"]


@dataclass(frozen=True)
class Codata:
    """One set of SI constants: G, hbar, c, electron mass and alpha."""

    newton_constant: float
    hbar: float
    c: float
    electron_mass: float
    fine_structure: float


CODATA_2022 = Codata(
    newton_constant=6.6743e-11,
    hbar=1.0545718176461565e-34,
    c=299792458.0,
    electron_mass=9.1093837139e-31,
    fine_structure=0.0072973525643,
)
