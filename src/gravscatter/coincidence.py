"""Joint-detection modulation for the two-term polarization family.

With cross-polarized detectors the delayed-coincidence rate picks up the
factor 1 + sin(2 phi) cos(Delta + rho), where the single phase Delta absorbs
the detector geometry; for equal-time detection displaced along the
propagation axis it is 2 d / lambda. Product states give a flat factor of 1,
the symmetric Bell state swings the full range [0, 2].
"""

from __future__ import annotations

import math

import numpy as np

from .cross_sections import TwoPhotonPolState, _check_wavelength, _float_or_array

__all__ = [
    "coincidence_factor",
    "separation_to_phase",
]


def coincidence_factor(phase, state: TwoPhotonPolState):
    """1 + sin(2 phi) cos(Delta + rho), bounded by [0, 2], at the accumulated phase Delta.

    ``phase`` is a float or an array of them, and an array gives an array.
    Every phase must be finite; otherwise ValueError, naming the first
    non-finite phase.
    """
    outside = np.asarray(phase)[~np.isfinite(phase)]
    if outside.size:
        raise ValueError(f"phase must be finite, got {float(outside[0])}")
    return _float_or_array(1.0 + math.sin(2.0 * state.phi) * np.cos(phase + state.rho))


def separation_to_phase(distance: float, wavelength: float) -> float:
    """Phase 2 d / lambda for equal-time detectors separated by d on the axis.

    A quarter-wavelength-times-pi separation (d = pi lambda / 4) lands on the
    Delta = pi/2 boundary where the symmetric Bell state's modulation crosses
    from enhancement to suppression.
    """
    distance = float(distance)
    wavelength = float(wavelength)
    _check_wavelength(wavelength)
    if not distance >= 0.0 or not math.isfinite(distance):
        raise ValueError(f"distance must be finite and non-negative, got {distance}")
    return 2.0 * distance / wavelength
