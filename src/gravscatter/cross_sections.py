"""Differential cross sections in reduced and SI units.

The gravitational cross sections come out as pure angle functions times
l_P^4 / lambda^2, with l_P the Planck length and lambda = hbar c / E the
photon wavelength in the center-of-momentum frame; functions named dcs_*
return the reduced angle function unless stated otherwise. The general rule
connecting an initial two-photon polarization state with coefficients c and
the reduced amplitudes m at one angle, indexed [in1, in2, out1, out2], is

    dcs = (1/4) sum_{out} | sum_{in} c[in] m[in, out] |^2,

which dcs_general_state evaluates for any (2, 2) coefficient array. The
closed forms below are what that contraction collapses to for the
unpolarized average and for the two-term superposition family, the one kind
of state TwoPhotonPolState holds; they depend on the state only through
w = sin(2 phi) cos(rho). The electron loop channel carries its own SI
prefactor built from the fine-structure constant and the electron Compton
wavelength, so those values are returned directly in m^2 per steradian.

The angle functions take a float, a sequence or an array of angles, read
as float64, and return a float for a number and an array otherwise.
Powers of a per-angle value go through np.float_power, so an array gives,
element by element, exactly the float each angle gives alone. The angle
functions and si_convert hold at most two arrays the size of their input
at once: they update their own temporaries in place, in the operation
order of their docstring formulas, and never write into an array they
were given.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .constants import COMPTON_WAVELENGTH, FINE_STRUCTURE, PLANCK_LENGTH
from .kinematics import check_theta

__all__ = [
    "TwoPhotonPolState",
    "dcs_averaged",
    "dcs_entangled_pqg",
    "dcs_general_state",
    "qed_bracket",
    "dcs_entangled_qed",
    "si_convert",
]

NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class TwoPhotonPolState:
    """Initial two-photon polarization state in the linear basis,

        cos(phi) |1, 2> + e^{i rho} sin(phi) |2, 1>,

    with phi in [0, pi/2] and rho in [-pi/2, 3 pi/2); phi = 0 or pi/2 is a
    product state, and phi = pi/4 with rho = 0 or pi gives the symmetric or
    antisymmetric Bell state. Any other coefficients go to
    ``dcs_general_state`` as an array.
    """

    phi: float
    rho: float

    def __post_init__(self):
        object.__setattr__(self, "phi", float(self.phi))
        object.__setattr__(self, "rho", float(self.rho))
        if not 0.0 <= self.phi <= math.pi / 2:
            raise ValueError(f"phi must lie in [0, pi/2], got {self.phi}")
        if not -math.pi / 2 <= self.rho < 3 * math.pi / 2:
            raise ValueError(f"rho must lie in [-pi/2, 3 pi/2), got {self.rho}")

    @classmethod
    def psi_plus(cls) -> "TwoPhotonPolState":
        """Symmetric Bell state, phi = pi/4 and rho = 0."""
        return cls(math.pi / 4, 0.0)

    @classmethod
    def psi_minus(cls) -> "TwoPhotonPolState":
        """Antisymmetric Bell state, phi = pi/4 and rho = pi."""
        return cls(math.pi / 4, math.pi)

    @property
    def coefficients(self) -> np.ndarray:
        """Read-only (2, 2) array c[xi1-1][xi2-1] over the product states |xi1, xi2>."""
        coefficients = np.zeros((2, 2), dtype=np.complex128)
        coefficients[0, 1] = math.cos(self.phi)
        coefficients[1, 0] = cmath.exp(1j * self.rho) * math.sin(self.phi)
        coefficients.flags.writeable = False
        return coefficients

    @property
    def interference_weight(self) -> float:
        """sin(2 phi) cos(rho), the knob every closed form depends on."""
        return math.sin(2.0 * self.phi) * math.cos(self.rho)


def _column(values) -> np.ndarray:
    """``values`` as a float64 array with at least one axis: a float gives one element.

    A float64 array comes back as the caller's own, so it is only read.
    """
    return np.atleast_1d(np.asarray(values, dtype=np.float64))


def _like(values, column: np.ndarray):
    """``column`` where ``values`` is an array, its one element as a Python float otherwise."""
    return column if np.ndim(values) else float(column[0])


def _check_wavelength(wavelength) -> None:
    """Raise ValueError unless the wavelength is finite and positive."""
    if not 0.0 < wavelength < math.inf:
        raise ValueError(f"wavelength must be finite and positive, got {wavelength}")


def dcs_averaged(theta):
    """Polarization-averaged reduced cross section.

    32 [1 + cos^16(theta/2) + sin^16(theta/2)] / sin^4(theta), which equals
    the mean of |m|^2 over the 16 elements.
    """
    angles = _column(check_theta(theta))
    half = np.multiply(0.5, angles)
    numerator = np.cos(half)
    np.float_power(numerator, 16, out=numerator)
    numerator += 1.0
    numerator += np.float_power(np.sin(half, out=half), 16, out=half)
    numerator *= 32.0
    numerator /= np.float_power(np.sin(angles, out=half), 4, out=half)
    return _like(theta, numerator)


def dcs_entangled_pqg(theta, state: TwoPhotonPolState):
    """Reduced cross section for the two-term superposition family.

    With w = sin(2 phi) cos(rho) and g = cos(theta) + cos^3(theta),

        dcs = (8 / sin^4 theta) [4 (1 + w) + (1 - w) g^2].

    The w = +1 Bell state doubles the product-state value at theta = pi/2
    and the w = -1 one shuts the right-angle rate off entirely.
    """
    weight = state.interference_weight
    angles = _column(check_theta(theta))
    c = np.cos(angles)
    g = np.float_power(c, 3)
    g += c
    # bracket = 4 (1 + w) + ((1 - w) g) g, in c's buffer.
    bracket = np.multiply(1.0 - weight, g, out=c)
    bracket *= g
    bracket += 4.0 * (1.0 + weight)
    bracket *= 8.0
    bracket /= np.float_power(np.sin(angles, out=g), 4, out=g)
    return _like(theta, bracket)


def dcs_general_state(coefficients, amplitudes):
    """Reduced cross section for arbitrary normalized coefficients.

    Evaluates (1/4) sum_{out} |sum_{in} c m|^2 for a (2, 2) array-like c,
    indexed c[xi1-1][xi2-1] (a family state passes ``state.coefficients``),
    and amplitudes m of shape (..., 2, 2, 2, 2), such as closed_form_grid or
    diagram_sum_grid give: one row is one angle and gives a float, a grid
    gives an array. The squared coefficients must sum to 1 within
    NORMALIZATION_TOL.
    """
    coefficients = np.asarray(coefficients, dtype=np.complex128)
    if coefficients.shape != (2, 2):
        raise ValueError(f"expected coefficient shape (2, 2), got {coefficients.shape}")
    if not np.all(np.isfinite(coefficients)):
        raise ValueError("state coefficients must be finite")
    norm = float(np.sum(np.abs(coefficients) ** 2))
    if abs(norm - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"squared coefficients must sum to 1, got {norm!r}")
    outgoing = np.einsum("ij,...ijkl->...kl", coefficients, amplitudes)
    dcs = 0.25 * np.sum(np.abs(outgoing) ** 2, axis=(-2, -1))
    return dcs if dcs.ndim else float(dcs)


def qed_bracket(theta, state: TwoPhotonPolState):
    """Angle factor of the loop-induced cross section, prefactor stripped.

    (1 + w) (31 + 3 cos^2)^2 + (1 - w) (22 cos)^2 with w the interference
    weight; defined on the closed interval [0, pi] since the loop elements
    have no pole.
    """
    weight = state.interference_weight
    c = np.cos(_column(theta))
    # (31 + (3 c) c)^2 (1 + w), then (22 c)^2 (1 - w) in c's buffer.
    bracket = np.multiply(3.0, c)
    bracket *= c
    bracket += 31.0
    np.float_power(bracket, 2, out=bracket)
    bracket *= 1.0 + weight
    c *= 22.0
    np.float_power(c, 2, out=c)
    c *= 1.0 - weight
    bracket += c
    return _like(theta, bracket)


def dcs_entangled_qed(theta, state: TwoPhotonPolState, wavelength: float):
    """Loop-induced cross section in m^2 per steradian for the two-term family.

    The SI prefactor is alpha^4 lambda_C^8 / (2 * 45^2 * (2 pi)^2 lambda^6)
    with lambda_C the reduced electron Compton wavelength and lambda the
    photon wavelength in meters.
    """
    _check_wavelength(wavelength)
    prefactor = (FINE_STRUCTURE ** 4 / (2.0 * 45.0 ** 2 * (2.0 * math.pi) ** 2)
                 * COMPTON_WAVELENGTH ** 8 / wavelength ** 6)
    # The bracket is a new array, or a float that becomes one.
    dcs = _column(qed_bracket(theta, state))
    dcs *= prefactor
    return _like(theta, dcs)


def si_convert(reduced, wavelength: float):
    """Reduced gravitational value times l_P^4 / lambda^2, in m^2 per steradian."""
    _check_wavelength(wavelength)
    si = np.multiply(_column(reduced), PLANCK_LENGTH ** 4)
    si /= wavelength ** 2
    return _like(reduced, si)
