"""Compare graviton exchange against the light-by-light QED background.

Both processes scatter photon pairs, so an experiment has to separate them.
This script prints SI-unit differential cross sections at two wavelengths,
shows how each depends on the initial polarization state, and checks the
crossing relation that keeps the coincidence fringe free of a phase offset.

    python3 demos/03_qed_comparison.py
"""

import math

import numpy as np

from gravscatter import (
    TwoPhotonPolState,
    closed_form_grid,
    dcs_entangled_pqg,
    dcs_entangled_qed,
    diagram_sum_grid,
    si_convert,
)

psi_plus = TwoPhotonPolState.psi_plus()
psi_minus = TwoPhotonPolState.psi_minus()
product = TwoPhotonPolState(0.0, 0.0)
right = math.pi / 2

# Every wavelength the library takes is the reduced one, hbar c / E: the
# ordinary wavelength over 2 pi. An ordinary wavelength passed in its place
# would make the graviton rates (2 pi)^2 and the QED rates (2 pi)^6 too small.
print("right-angle differential cross sections in m^2/sr")
for wavelength, label in ((500e-9, "500 nm (wavelength 3.1 um, infrared)"),
                          (10e-9, "10 nm (wavelength 63 nm, extreme ultraviolet)")):
    print(f"\n  reduced wavelength {label}")
    for state, name in ((psi_plus, "psi_plus"), (product, "product"), (psi_minus, "psi_minus")):
        grav = si_convert(dcs_entangled_pqg(right, state), wavelength)
        qed = dcs_entangled_qed(right, state, wavelength)
        print(f"    {name:9s}  graviton {grav:11.3e}   qed {qed:11.3e}")

print()
print("the graviton signal gains on the background as the wavelength drops:")
print("graviton scattering scales as 1/lambda^2, the QED box as 1/lambda^6,")
print("but the box starts some fifty orders of magnitude ahead at infrared")
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
print("crossing: swapping the two outgoing photons is the same as scattering")
print("at pi - theta, m_abcd(theta) = m_abdc(pi - theta); worst deviation over")
print("1001 angles in [0.05, pi - 0.05], relative to each angle's largest element")
grid = np.linspace(0.05, math.pi - 0.05, 1001)
axes = (1, 2, 3, 4)
crossing = {}
for name, evaluate in (("diagrams", diagram_sum_grid), ("closed forms", closed_form_grid)):
    direct = evaluate(grid)
    crossed = evaluate(math.pi - grid).swapaxes(-1, -2)
    crossing[name] = float(np.max(np.max(np.abs(direct - crossed), axis=axes)
                                  / np.max(np.abs(direct), axis=axes)))
    print(f"  {name:12s}  {crossing[name]:.1e}")
# As above, the demo fails if the text and the numbers part ways.
assert all(value < 1e-13 for value in crossing.values()), crossing
print("the loop elements obey it by definition, since qed_element_1221 is")
print("qed_element_1212 at pi - theta; the relation compares complex values,")
print("which is stronger than comparing phases, so the delayed-coincidence")
print("fringe carries no extra phase offset from either amplitude")
