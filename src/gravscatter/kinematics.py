"""Center-of-momentum kinematics for elastic two-photon scattering.

The scattering plane is the x-z plane. Photon 1 comes in along +z, photon 2
along -z; photon 3 leaves at polar angle theta from +z and photon 4 takes the
opposite direction. Polarization label 1 points out of the scattering plane
(the y axis, same vector for all four photons) and label 2 lies in the plane.
With every photon energy normalized to 1 the spatial momenta are unit length.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "check_theta",
    "com_arrays",
]


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
    Every angle must lie strictly between 0 and pi, away from both poles.
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
