"""Differential cross sections in reduced and SI units.

The gravitational cross sections come out as pure angle functions times
l_P^4 / lambda^2, with l_P the Planck length and lambda = hbar c / E the
reduced photon wavelength (the ordinary one over 2 pi) in the
center-of-momentum frame; functions named dcs_*
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

Each SI formula holds only above its own wavelength floor and raises
ValueError at or below it, naming the bound: si_convert above the Planck
length, where perturbative quantum gravity breaks down at the Planck energy,
and dcs_entangled_qed above the electron's reduced Compton wavelength, where
the low-energy loop formula fails at the pair threshold. The reduced angle
functions carry no wavelength and no floor.

The angle functions take a float, a sequence or an array of angles, read
as float64, and return a float for a number and an array otherwise.
Powers of a per-angle value go through np.float_power, so an array gives,
element by element, exactly the float each angle gives alone. Each of
them and si_convert is its docstring formula, evaluated out of place in
that formula's operation order, and never writes into an array it was
given. A scan's memory is bounded by the CLI's jobs, which call these
functions on grid slices of at most a few thousand values.
"""

from __future__ import annotations

import cmath
import math
import sys
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


def _like(values, result):
    """``result`` where ``values`` is an array, as a Python float otherwise."""
    return result if np.ndim(values) else float(result)


def _check_wavelength(wavelength) -> None:
    """Raise ValueError unless the wavelength is finite and positive."""
    if not 0.0 < wavelength < math.inf:
        raise ValueError(f"wavelength must be finite and positive, got {wavelength}")


def _check_floor(wavelength, floor: float, name: str, failure: str) -> None:
    """Raise ValueError unless the wavelength is finite and above ``floor``.

    ``name`` names the floor and ``failure`` says what fails at or below it.
    """
    _check_wavelength(wavelength)
    if wavelength <= floor:
        raise ValueError(f"wavelength {wavelength:g} m must lie above {name}, "
                         f"{floor:.6g} m: {failure}")


def dcs_averaged(theta):
    """Polarization-averaged reduced cross section.

    32 [1 + cos^16(theta/2) + sin^16(theta/2)] / sin^4(theta), which equals
    the mean of |m|^2 over the 16 elements.
    """
    angles = check_theta(theta)
    half = 0.5 * angles
    return _like(angles, 32.0 * (1.0 + np.float_power(np.cos(half), 16)
                                 + np.float_power(np.sin(half), 16))
                 / np.float_power(np.sin(angles), 4))


def dcs_entangled_pqg(theta, state: TwoPhotonPolState):
    """Reduced cross section for the two-term superposition family.

    With w = sin(2 phi) cos(rho) and g = cos(theta) + cos^3(theta),

        dcs = (8 / sin^4 theta) [4 (1 + w) + (1 - w) g^2].

    The w = +1 Bell state doubles the product-state value at theta = pi/2
    and the w = -1 one shuts the right-angle rate off entirely.
    """
    w = state.interference_weight
    angles = check_theta(theta)
    c = np.cos(angles)
    g = c + np.float_power(c, 3)
    return _like(angles, 8.0 * (4.0 * (1.0 + w) + (1.0 - w) * g * g)
                 / np.float_power(np.sin(angles), 4))


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
    w = state.interference_weight
    angles = np.asarray(theta, dtype=np.float64)
    c = np.cos(angles)
    return _like(angles, (1.0 + w) * np.float_power(31.0 + 3.0 * c * c, 2)
                 + (1.0 - w) * np.float_power(22.0 * c, 2))


def dcs_entangled_qed(theta, state: TwoPhotonPolState, wavelength: float):
    """Loop-induced cross section in m^2 per steradian for the two-term family.

    The SI prefactor is alpha^4 lambda_C^8 / (2 * 45^2 * (2 pi)^2 lambda^6)
    with lambda_C the reduced electron Compton wavelength and lambda the
    photon wavelength in meters. The formula is the low-energy limit of the
    electron loop: it needs lambda >> lambda_C and fails at the pair
    threshold, so a wavelength at or below lambda_C raises ValueError.
    """
    _check_floor(wavelength, COMPTON_WAVELENGTH, "the electron's reduced Compton wavelength",
                 "the low-energy loop formula fails at the pair threshold")
    numerator = (FINE_STRUCTURE ** 4 / (2.0 * 45.0 ** 2 * (2.0 * math.pi) ** 2)
                 * COMPTON_WAVELENGTH ** 8)
    prefactor = numerator / wavelength ** 6
    if prefactor < sys.float_info.min:
        # A subnormal or zero prefactor has lost digits that the bracket, up
        # to 4624, would bring back into the normal range.
        return numerator * qed_bracket(theta, state) / wavelength ** 6
    return prefactor * qed_bracket(theta, state)


def si_convert(reduced, wavelength: float):
    """Reduced gravitational value times l_P^4 / lambda^2, in m^2 per steradian.

    Perturbative quantum gravity holds only for photon energies far below
    the Planck energy, so a wavelength at or below the Planck length l_P
    raises ValueError. Above it lambda^2 is a normal float.
    """
    _check_floor(wavelength, PLANCK_LENGTH, "the Planck length",
                 "perturbative quantum gravity fails at the Planck energy")
    values = np.asarray(reduced, dtype=np.float64)
    return _like(values, values * PLANCK_LENGTH ** 4 / wavelength ** 2)
