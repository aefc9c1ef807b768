"""Joint-detection modulation for the two-term polarization family.

With cross-polarized detectors the delayed-coincidence rate picks up the
factor 1 + sin(2 phi) cos(Delta + rho), where the single phase Delta absorbs
the detector geometry; for equal-time detection displaced along the
propagation axis it is 2 d / lambda. Product states give a flat factor of 1,
the symmetric Bell state swings the full range [0, 2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cross_sections import TwoPhotonPolState

__all__ = [
    "CoincidenceQuery",
    "coincidence_factor",
    "separation_to_phase",
]


@dataclass(frozen=True)
class CoincidenceQuery:
    """Accumulated phase, a float or an array of them, plus the prepared state."""

    phase: float | np.ndarray
    state: TwoPhotonPolState

    def __post_init__(self):
        if not np.all(np.isfinite(self.phase)):
            raise ValueError(f"phase must be finite, got {self.phase}")
        if self.state.phi is None:
            raise ValueError(
                "coincidence factor is defined for the (phi, rho) two-term family")


def coincidence_factor(query: CoincidenceQuery):
    """1 + sin(2 phi) cos(Delta + rho), bounded by [0, 2]; an array for an array of phases."""
    factor = 1.0 + math.sin(2.0 * query.state.phi) * np.cos(query.phase + query.state.rho)
    return factor if np.ndim(factor) else float(factor)


def separation_to_phase(distance: float, wavelength: float) -> float:
    """Phase 2 d / lambda for equal-time detectors separated by d on the axis.

    A quarter-wavelength-times-pi separation (d = pi lambda / 4) lands on the
    Delta = pi/2 boundary where the symmetric Bell state's modulation crosses
    from enhancement to suppression.
    """
    distance = float(distance)
    wavelength = float(wavelength)
    if not wavelength > 0.0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    if not distance >= 0.0 or not math.isfinite(distance):
        raise ValueError(f"distance must be finite and non-negative, got {distance}")
    return 2.0 * distance / wavelength
