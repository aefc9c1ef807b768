"""Walk through the diagram evaluation for one scattering angle.

Builds the center-of-momentum momenta and polarizations, evaluates the three
exchange topologies for one polarization pattern, and checks the sum against
the closed-form element table. Run directly:

    python3 demos/01_amplitude_table.py
"""

import itertools
import math

import numpy as np

from gravscatter import (
    channel_amplitudes,
    closed_form_grid,
    com_arrays,
    diagram_sum_grid,
)

THETA = math.pi / 3

print(f"scattering angle: {THETA:.6f} rad ({math.degrees(THETA):.0f} degrees)")
momenta, basis = com_arrays(THETA)
print("momenta (t, x, y, z), energies normalized to 1:")
for photon, p in enumerate(momenta, start=1):
    print(f"  p{photon} = {p}")

print()
print("channel-by-channel breakdown for the cross-polarized pattern 1212")
pattern = (1, 2, 1, 2)
# Photon k's polarization vector for its label in the pattern.
pols = basis[np.arange(4), [label - 1 for label in pattern]]
channels = channel_amplitudes(THETA, pols)
for name, value in zip("tus", channels):
    print(f"  {name}-exchange: {value:+.6f}")
print(f"  sum:        {channels.sum():+.6f}")
# One angle is a one-element grid; an element is indexed by its labels minus one.
references = closed_form_grid([THETA])[0]
print(f"  closed form {references[tuple(label - 1 for label in pattern)]:+.6f}")

print()
print("all 16 polarization patterns (diagram sum vs closed form)")
values = diagram_sum_grid([THETA])[0]
for labels in itertools.product((1, 2), repeat=4):
    name = "".join(str(p) for p in labels)
    computed = values[tuple(label - 1 for label in labels)]
    reference = references[tuple(label - 1 for label in labels)]
    print(f"  m_{name}: {computed:+12.6f}   reference {reference:+12.6f}")

print()
print("gauge check: shift the in-plane polarization of photon 3 by 5 * p3")
shifted = pols.copy()
shifted[2] += 5.0 * momenta[2]
before = channels.sum()
after = channel_amplitudes(THETA, shifted).sum()
print(f"  before {before:+.12f}")
print(f"  after  {after:+.12f}")
print(f"  relative movement {abs(after - before) / abs(before):.2e}")
print("the summed amplitude does not move; unphysical polarization pieces drop out")
