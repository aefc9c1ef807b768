"""The verification gate: the three-diagram sum against the closed forms.

Each check is a function of the angle grid that returns its JSON fields and
its rows. A row is a tuple (label, deviation, tolerance, note) and prints as
one line, "label deviation status note". build_verify_report runs the checks
in order, and one comparison, deviation <= tolerance, decides each row's
PASS or FAIL and whether the gate passed.
"""

from __future__ import annotations

import numpy as np

from .amplitudes import PATTERN_NAMES, channel_amplitudes, closed_form_grid, diagram_sum_grid
from .kinematics import com_arrays

__all__ = ["build_verify_report"]

# Patterns with an odd number of in-plane labels vanish identically.
_ZERO_PATTERNS = tuple(name for name in PATTERN_NAMES if name.count("1") % 2)
_NONZERO_LABELS = np.array([list(map(int, name)) for name in PATTERN_NAMES
                            if name not in _ZERO_PATTERNS]) - 1
_GAUGE_ANGLES = 10
# The gate's pass thresholds, relative deviations; each check reads its own.
_TOLERANCE = 1e-9
_GAUGE_TOLERANCE = 1e-9


def _pattern_check(grid, vertex_perturbation):
    """Each pattern's largest deviation of the diagram sum from the closed form.

    Non-vanishing patterns are scored by relative deviation; the eight
    identically-zero patterns are scored against the largest element at the
    same angle.
    """
    # Scored in place: a long grid holds three (samples, 16) arrays at most.
    reference = closed_form_grid(grid).reshape(len(grid), -1)
    error = diagram_sum_grid(grid, vertex_perturbation=vertex_perturbation).reshape(len(grid), -1)
    error -= reference
    np.abs(error, out=error)
    np.abs(reference, out=reference)
    error /= np.where(reference > 0.0, reference, reference.max(axis=1, keepdims=True))
    deviations = dict(zip(PATTERN_NAMES, error.max(axis=0, initial=0.0).tolist()))
    rows = [(f"  m_{name}  max deviation", deviation, _TOLERANCE,
             "  (identically zero)" if name in _ZERO_PATTERNS else "")
            for name, deviation in deviations.items()]
    return {"pattern_deviations": deviations, "identically_zero": _ZERO_PATTERNS}, rows


def _gauge_check(grid, vertex_perturbation):
    """The largest change a gauge shift could make to the summed amplitude, relative to it.

    At ten angles spanning the grid and for every non-vanishing pattern P,
    each photon j in turn has its polarization replaced by its momentum.
    The amplitude is linear in each polarization, so shifting e_j by xi p_j
    moves M(P) by exactly xi M(P; e_j -> p_j), the Ward amplitude. The score
    10 |M(P; e_j -> p_j)| / |M(P)| bounds the relative change of any shift
    with |xi| <= 10; without round-off the Ward amplitude is zero.
    """
    # pols[angle, pattern, 0] holds the physical polarizations; entry j > 0
    # puts photon j's momentum in place of its polarization.
    angles = np.linspace(grid[0], grid[-1], _GAUGE_ANGLES)
    momenta, basis = com_arrays(angles)
    physical = basis[:, np.arange(4), _NONZERO_LABELS]
    pols = np.repeat(physical[:, :, None], 5, axis=2)
    for photon in range(4):
        pols[:, :, photon + 1, photon] = momenta[:, None, photon]
    sums = channel_amplitudes(angles[:, None, None], np.moveaxis(pols, -2, 0),
                              vertex_perturbation=vertex_perturbation).sum(axis=-1)
    deviation = float(np.max(10.0 * np.abs(sums[:, :, 1:]) / np.abs(sums[:, :, :1])))
    return {"gauge_deviation": deviation}, [("gauge shifts: max deviation", deviation,
                                             _GAUGE_TOLERANCE, "")]


def build_verify_report(grid, *, vertex_perturbation: float = 0.0) -> tuple[dict, str]:
    """Run the gate on a 1-D array of angles: return its JSON fields and its text.

    The fields open with "passed", the grid's size and ends and the two
    tolerances, then each check's fields in order: the pattern deviations,
    then the Ward amplitudes' score; each check holds its own tolerance.
    ``vertex_perturbation`` is forwarded to the vertex so the gate can
    demonstrate that it catches a broken vertex.
    """
    fields = {"passed": True, "samples": len(grid), "theta_min": float(grid[0]),
              "theta_max": float(grid[-1]), "tolerance": _TOLERANCE,
              "gauge_tolerance": _GAUGE_TOLERANCE}
    lines = ["diagram sum vs closed-form reference",
             f"grid: {len(grid)} angles in [{grid[0]:.6g}, {grid[-1]:.6g}]; "
             f"tolerance {_TOLERANCE:g}, gauge tolerance {_GAUGE_TOLERANCE:g}"]
    for check_fields, rows in (_pattern_check(grid, vertex_perturbation),
                               _gauge_check(grid, vertex_perturbation)):
        fields.update(check_fields)
        for label, deviation, limit, note in rows:
            passed = deviation <= limit
            fields["passed"] &= passed
            lines.append(f"{label} {deviation:.2e}  {'PASS' if passed else 'FAIL'}{note}")
    lines.append(f"result: {'PASS' if fields['passed'] else 'FAIL'}")
    return fields, "\n".join(lines) + "\n"
