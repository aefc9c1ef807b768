"""Delayed-coincidence fringes for polarization-entangled pairs.

A beam-splitter coincidence measurement on the scattered pair picks up an
interference factor that oscillates with the path-length phase. The fringe
contrast tracks the entanglement of the prepared state, so the pattern is a
practical readout for it.

    python3 demos/04_coincidence_fringes.py
"""

import math

import numpy as np

from gravscatter import (
    TwoPhotonPolState,
    coincidence_factor,
    separation_to_phase,
)

states = (
    ("psi_plus", TwoPhotonPolState.psi_plus()),
    ("product", TwoPhotonPolState.from_angles(0.0, 0.0)),
    ("psi_minus", TwoPhotonPolState.psi_minus()),
)

print("coincidence factor versus path-length phase (columns per state)")
print(f"{'delta':>8} " + " ".join(f"{name:>10}" for name, _ in states))
for delta in np.linspace(0.0, 2.0 * math.pi, 13):
    row = [coincidence_factor(delta, state) for _, state in states]
    print(f"{delta:8.4f} " + " ".join(f"{value:10.4f}" for value in row))

print()
print("the symmetric Bell state swings over the full range 0..2, the")
print("antisymmetric one swings opposite in phase, and a product state")
print("holds flat at 1: fringe contrast measures the entanglement")

print()
print("detector separation maps to phase as delta = 2 d / lambda")
wavelength = 500e-9
for separation in (0.0, math.pi * wavelength / 4, math.pi * wavelength / 2):
    delta = separation_to_phase(separation, wavelength)
    factor = coincidence_factor(delta, states[0][1])
    print(f"  d = {separation * 1e9:6.1f} nm -> delta = {delta:6.4f} rad, factor {factor:.4f}")
print("sliding the detectors by pi lambda / 4 takes the symmetric state from")
print("doubled coincidences to the uncorrelated rate, and twice that distance")
print("suppresses them entirely")

print()
print("intermediate entanglement interpolates the contrast")
for phi_frac, label in ((1 / 8, "phi = pi/8"), (1 / 4, "phi = pi/4")):
    state = TwoPhotonPolState.from_angles(phi_frac * math.pi, 0.0)
    peak = coincidence_factor(0.0, state)
    trough = coincidence_factor(math.pi, state)
    print(f"  {label}: factor ranges {trough:.4f} .. {peak:.4f}")
