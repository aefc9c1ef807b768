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
print("polarization dependence, psi_minus against psi_plus: the rate ratio")
print("psi_minus / psi_plus at a right angle, and the contrast")
print("(psi_plus - psi_minus) / (psi_plus + psi_minus) at theta = 0.1")
mechanisms = (("graviton", dcs_entangled_pqg),
              ("qed", lambda theta, state: dcs_entangled_qed(theta, state, 500e-9)))
ratio, contrast = {}, {}
for name, dcs in mechanisms:
    ratio[name] = dcs(right, psi_minus) / dcs(right, psi_plus)
    plus, minus = dcs(0.1, psi_plus), dcs(0.1, psi_minus)
    contrast[name] = (plus - minus) / (plus + minus)
    print(f"  {name:8s}  ratio at pi/2 {ratio[name]:.1e}   contrast at 0.1 {contrast[name]:.3f}")
# The text below states what these numbers show; the demo fails if they part ways.
assert all(value < 1e-20 for value in ratio.values()), ratio
assert contrast["graviton"] < contrast["qed"], contrast
print("both mechanisms shut the antisymmetric Bell state off at a right angle,")
print("down to the rounding of cos(pi/2); they differ at small angles, where")
print("graviton exchange barely tells the two Bell states apart and the QED")
print("box still does")

print()
print("relative phase between the two cross-polarized amplitude branches,")
print("arg m(theta) - arg m(pi - theta), for each mechanism")
for theta in (math.pi / 3, math.pi / 2, 2 * math.pi / 3):
    grav_phase = relative_phase(theta)
    qed_phase = relative_phase(theta, qed_element_1212)
    print(f"  theta = {theta:.4f}: graviton {grav_phase:+.4f} rad   qed {qed_phase:+.4f} rad")
print("both vanish identically, so the delayed-coincidence fringe carries no")
print("extra phase offset from either amplitude")
