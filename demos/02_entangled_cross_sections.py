"""Differential cross sections for entangled and product photon pairs.

Scans the scattering angle and prints the graviton-exchange differential
cross section in reduced units for the two Bell states and for an
unentangled product state, with the polarization-averaged curve alongside.

    python3 demos/02_entangled_cross_sections.py
"""

import math

import numpy as np

from gravscatter import (
    TwoPhotonPolState,
    dcs_averaged,
    dcs_entangled_pqg,
)

psi_plus = TwoPhotonPolState.psi_plus()
psi_minus = TwoPhotonPolState.psi_minus()
product = TwoPhotonPolState(0.0, 0.0)

print("reduced-unit differential cross sections (multiples of l_P^4 / lambda^2)")
print()
header = f"{'theta':>8} {'psi_plus':>12} {'product':>12} {'psi_minus':>12} {'averaged':>12}"
print(header)
for theta in np.linspace(0.2, math.pi - 0.2, 15):
    row = (
        dcs_entangled_pqg(theta, psi_plus),
        dcs_entangled_pqg(theta, product),
        dcs_entangled_pqg(theta, psi_minus),
        dcs_averaged(theta),
    )
    print(f"{theta:8.4f} " + " ".join(f"{value:12.4f}" for value in row))

print()
print("right-angle anchors")
right = math.pi / 2
print(f"  psi_plus:  {dcs_entangled_pqg(right, psi_plus):.6f}   (expect 64)")
print(f"  product:   {dcs_entangled_pqg(right, product):.6f}   (expect 32)")
print(f"  psi_minus: {dcs_entangled_pqg(right, psi_minus):.2e}   (expect 0)")
print(f"  averaged:  {dcs_averaged(right):.6f}   (expect 32.25)")

print()
print("ordering: the symmetric Bell state scatters hardest, the antisymmetric")
print("one softest, and every product state sits in between at every angle")

print()
print("entanglement sensitivity fades at small angles:")
for theta in (0.5, 0.2, 0.05):
    plus = dcs_entangled_pqg(theta, psi_plus)
    minus = dcs_entangled_pqg(theta, psi_minus)
    spread = (plus - minus) / (plus + minus)
    print(f"  theta = {theta:5.2f}: relative spread between Bell states {spread:.4f}")
print("forward-dominated detection geometries therefore wash the effect out")
