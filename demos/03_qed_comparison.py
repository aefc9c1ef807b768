"""Compare graviton exchange against the light-by-light QED background.

Both processes scatter photon pairs, so an experiment has to separate them.
This script prints SI-unit differential cross sections at two wavelengths
and shows how each depends on the initial polarization state.

    python3 demos/03_qed_comparison.py
"""

import math

from gravscatter import (
    TwoPhotonPolState,
    dcs_entangled_pqg,
    dcs_entangled_qed,
    qed_element_1212,
    relative_phase,
    si_convert,
)

psi_plus = TwoPhotonPolState.psi_plus()
psi_minus = TwoPhotonPolState.psi_minus()
product = TwoPhotonPolState(0.0, 0.0)
right = math.pi / 2

print("right-angle differential cross sections in m^2/sr")
for wavelength, label in ((500e-9, "500 nm (optical)"), (10e-9, "10 nm (soft x-ray)")):
    print(f"\n  wavelength {label}")
    for state, name in ((psi_plus, "psi_plus"), (product, "product"), (psi_minus, "psi_minus")):
        grav = si_convert(dcs_entangled_pqg(right, state), wavelength)
        qed = dcs_entangled_qed(right, state, wavelength)
        print(f"    {name:9s}  graviton {grav:11.3e}   qed {qed:11.3e}")

print()
print("the graviton signal gains on the background as the wavelength drops:")
print("graviton scattering scales as 1/lambda^2, the QED box as 1/lambda^6,")
print("but the box starts some fifty orders of magnitude ahead at optical")
print("wavelengths, so both remain far beyond direct detection")

print()
print("polarization dependence distinguishes the two mechanisms:")
for name, state in (("psi_plus", psi_plus), ("psi_minus", psi_minus)):
    grav = dcs_entangled_pqg(right, state)
    qed = dcs_entangled_qed(right, state, 500e-9)
    print(f"  {name:9s}  graviton (reduced) {grav:8.4f}   qed (m^2/sr) {qed:.3e}")
print("graviton exchange shuts off completely for the antisymmetric Bell state")
print("at a right angle; the QED box does not")

print()
print("relative phase between the two cross-polarized amplitude branches,")
print("arg m(theta) - arg m(pi - theta), for each mechanism")
for theta in (math.pi / 3, math.pi / 2, 2 * math.pi / 3):
    grav_phase = relative_phase(theta)
    qed_phase = relative_phase(theta, qed_element_1212)
    print(f"  theta = {theta:.4f}: graviton {grav_phase:+.4f} rad   qed {qed_phase:+.4f} rad")
print("both vanish identically, so the delayed-coincidence fringe carries no")
print("extra phase offset from either amplitude")
