"""Center-of-momentum kinematics for elastic two-photon scattering.

The scattering plane is the x-z plane. Photon 1 comes in along +z, photon 2
along -z; photon 3 leaves at polar angle theta from +z and photon 4 takes the
opposite direction. Polarization label 1 points out of the scattering plane
(the y axis, same vector for all four photons) and label 2 lies in the plane.
With every photon energy normalized to 1 the spatial momenta are unit length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .lorentz import FourVector

__all__ = [
    "PERPENDICULAR",
    "PARALLEL",
    "KinematicConfig",
    "check_theta",
    "com_arrays",
    "com_config",
    "gauge_shift",
]

PERPENDICULAR = 1
PARALLEL = 2

_PHOTONS = (1, 2, 3, 4)
_POL_LABELS = (PERPENDICULAR, PARALLEL)


@dataclass(frozen=True)
class KinematicConfig:
    """Momenta and polarization basis at one fixed scattering angle.

    ``polarizations`` is indexed [photon - 1][label - 1]; use the accessors
    for the 1-based bookkeeping everything else in the package follows.
    """

    theta: float
    p1: FourVector
    p2: FourVector
    p3: FourVector
    p4: FourVector
    polarizations: tuple[tuple[FourVector, FourVector], ...]

    def momentum(self, photon: int) -> FourVector:
        if photon not in _PHOTONS:
            raise ValueError(f"photon index must be 1..4, got {photon}")
        return (self.p1, self.p2, self.p3, self.p4)[photon - 1]

    def polarization(self, photon: int, label: int) -> FourVector:
        if photon not in _PHOTONS:
            raise ValueError(f"photon index must be 1..4, got {photon}")
        if label not in _POL_LABELS:
            raise ValueError(
                f"polarization label must be {PERPENDICULAR} (perpendicular) "
                f"or {PARALLEL} (parallel), got {label}"
            )
        return self.polarizations[photon - 1][label - 1]

    def replaced_polarization(self, photon: int, label: int,
                              vector: FourVector) -> "KinematicConfig":
        """Copy of the configuration with a single polarization vector swapped.

        No orthonormality is re-imposed on the substitute; the main use is
        feeding gauge-shifted vectors to invariance checks.
        """
        self.polarization(photon, label)  # reuse the index validation
        rows = list(self.polarizations)
        pair = list(rows[photon - 1])
        pair[label - 1] = vector
        rows[photon - 1] = tuple(pair)
        return replace(self, polarizations=tuple(rows))


def check_theta(theta):
    """Return theta (a float, or an array unchanged) if every angle lies in (0, pi).

    Both ends are exchange poles. Otherwise, NaN included, raise ValueError
    naming the first angle outside.
    """
    if isinstance(theta, np.ndarray) and theta.ndim:
        outside = theta[~((theta > 0.0) & (theta < math.pi))]
        if outside.size:
            raise ValueError(
                f"theta must lie strictly between 0 and pi, got {float(outside[0])}")
        return theta
    theta = float(theta)
    if not 0.0 < theta < math.pi:
        raise ValueError(f"theta must lie strictly between 0 and pi, got {theta}")
    return theta


def com_arrays(theta) -> tuple[np.ndarray, np.ndarray]:
    """Center-of-momentum momenta and polarization basis over an array of angles.

    Momenta: p1 = (1, 0, 0, 1), p2 = (1, 0, 0, -1), p3 = (1, sin t, 0, cos t),
    p4 = (1, -sin t, 0, -cos t). The in-plane polarization of a photon moving
    at angle psi inside the x-z plane is (0, cos psi, 0, -sin psi); psi takes
    the values 0, pi, theta and theta + pi for photons 1 through 4.

    Returns momenta indexed [..., photon - 1, component] and polarizations
    indexed [..., photon - 1, label - 1, component], with theta's shape first.
    """
    theta = check_theta(np.asarray(theta, dtype=np.float64))
    st, ct = np.sin(theta), np.cos(theta)
    one, zero = np.ones_like(theta), np.zeros_like(theta)

    def vectors(*rows):
        return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)

    momenta = vectors((one, zero, zero, one), (one, zero, zero, -one),
                      (one, st, zero, ct), (one, -st, zero, -ct))
    perp = (zero, zero, one, zero)
    in_plane = ((zero, one, zero, zero), (zero, -one, zero, zero),
                (zero, ct, zero, -st), (zero, -ct, zero, st))
    polarizations = np.stack([vectors(perp, vec) for vec in in_plane], axis=-3)
    return momenta, polarizations


def com_config(theta: float) -> KinematicConfig:
    """Build the center-of-momentum configuration at scattering angle theta.

    The vectors are those of ``com_arrays`` at one angle. theta must lie
    strictly between 0 and pi so that both exchange poles stay excluded.
    """
    theta = check_theta(theta)
    momenta, basis = com_arrays(theta)
    p1, p2, p3, p4 = (FourVector.from_array(row) for row in momenta)
    polarizations = tuple(tuple(FourVector.from_array(vec) for vec in pair)
                          for pair in basis)
    return KinematicConfig(theta, p1, p2, p3, p4, polarizations)


def gauge_shift(eps: FourVector, p: FourVector, xi: float) -> FourVector:
    """eps + xi * p.

    For a null momentum p with p . eps = 0 the shifted vector keeps both its
    norm and its transversality, and physical summed amplitudes must not move.
    """
    return eps + float(xi) * p
