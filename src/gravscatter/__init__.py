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

import os as _os
import sys as _sys

# numpy's OpenBLAS starts a worker thread per CPU as it loads, and each spins
# about 0.1 s before it sleeps; no code here calls BLAS on enough data to
# share it out. OpenBLAS reads OPENBLAS_NUM_THREADS once, at load, so the
# variable is set only around that first import: this process gets one
# thread, while os.environ and the environment of any subprocess stay as they
# were. A thread count the user set in any of the variables OpenBLAS reads,
# or a numpy imported first, is left alone.
if "numpy" not in _sys.modules and not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                        "OMP_NUM_THREADS"} & _os.environ.keys():
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        __import__("numpy")
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]
del _os, _sys

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
