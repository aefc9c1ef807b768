"""Graviton-mediated photon-photon scattering at tree level.

The package evaluates the three exchange diagrams from contracted vertex
blocks, checks them against the closed-form amplitude table, and turns
the amplitudes into differential cross sections for polarization-entangled
photon pairs, alongside the electron-loop channel that dominates at
accessible energies and the coincidence modulation a paired detector would
record.

Every quantity is a numpy array or a float: four-vectors carry their
components on the last axis, and the amplitudes over N angles have shape
(N, 2, 2, 2, 2), indexed by the four polarization labels minus one.
"""

from . import amplitudes, coincidence, constants, cross_sections, kinematics, lorentz, qed, verify
from .lorentz import *
from .kinematics import *
from .amplitudes import *
from .qed import *
from .cross_sections import *
from .coincidence import *
from .constants import *
from .verify import *

__version__ = "0.1.0"

# Every public name of every module, stated once in that module's __all__.
__all__ = [name for module in (lorentz, kinematics, amplitudes, qed, cross_sections,
                               coincidence, constants, verify)
           for name in module.__all__] + ["__version__"]
