"""Physical constants: the CODATA 2022 values in SI units, and two lengths from them.

The values are the exact floats scipy.constants 1.17 supplies, so SI outputs
do not depend on which scipy, if any, is installed. ``si_convert`` and
``dcs_entangled_qed`` read them.
"""

import math

__all__ = ["NEWTON_CONSTANT", "HBAR", "SPEED_OF_LIGHT", "ELECTRON_MASS", "FINE_STRUCTURE",
           "PLANCK_LENGTH", "COMPTON_WAVELENGTH"]

NEWTON_CONSTANT = 6.6743e-11  # G, m^3 / (kg s^2)
HBAR = 1.0545718176461565e-34  # J s
SPEED_OF_LIGHT = 299792458.0  # c, m / s
ELECTRON_MASS = 9.1093837139e-31  # kg
FINE_STRUCTURE = 0.0072973525643  # alpha

# sqrt(G hbar / c^3), about 1.616e-35 m.
PLANCK_LENGTH = math.sqrt(NEWTON_CONSTANT * HBAR / SPEED_OF_LIGHT ** 3)
# Reduced electron Compton wavelength hbar c / (m c^2), about 3.86e-13 m.
COMPTON_WAVELENGTH = HBAR * SPEED_OF_LIGHT / (ELECTRON_MASS * SPEED_OF_LIGHT ** 2)
