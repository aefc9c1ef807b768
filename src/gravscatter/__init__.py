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

from .lorentz import METRIC, minkowski_dot
from .kinematics import com_arrays
from .amplitudes import (
    POLE_TOLERANCE,
    PoleError,
    contracted_vertex,
    graviton_coupling,
    channel_amplitudes,
    diagram_sum_grid,
    closed_form_element,
    closed_form_grid,
)
from .qed import QedContext, qed_element_1212, qed_element_1221
from .cross_sections import (
    PhysicalConstants,
    DEFAULT_CONSTANTS,
    TwoPhotonPolState,
    dcs_averaged,
    dcs_entangled_pqg,
    dcs_general_state,
    relative_phase,
    qed_bracket,
    dcs_entangled_qed,
    si_convert,
)
from .coincidence import CoincidenceQuery, coincidence_factor, separation_to_phase

__version__ = "0.1.0"

__all__ = [
    "METRIC",
    "minkowski_dot",
    "com_arrays",
    "POLE_TOLERANCE",
    "PoleError",
    "contracted_vertex",
    "graviton_coupling",
    "channel_amplitudes",
    "diagram_sum_grid",
    "closed_form_element",
    "closed_form_grid",
    "QedContext",
    "qed_element_1212",
    "qed_element_1221",
    "PhysicalConstants",
    "DEFAULT_CONSTANTS",
    "TwoPhotonPolState",
    "dcs_averaged",
    "dcs_entangled_pqg",
    "dcs_general_state",
    "relative_phase",
    "qed_bracket",
    "dcs_entangled_qed",
    "si_convert",
    "CoincidenceQuery",
    "coincidence_factor",
    "separation_to_phase",
    "__version__",
]
