"""The verification gate: the three-diagram sum against the closed forms.

Each check is a function of the angle grid that returns its JSON fields and
its rows. A row is a tuple (label, deviation, tolerance, note) and prints as
one line, "label deviation status note". build_verify_report runs the checks
in order, and one comparison, deviation <= tolerance, decides each row's
PASS or FAIL and whether the gate passed.
"""

from __future__ import annotations

import random

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


def _gauge_check(grid, vertex_perturbation, seed):
    """How far a gauge shift moves the summed amplitude, relative to it.

    At ten angles spanning the grid and for every non-vanishing pattern,
    each photon's polarization in turn is shifted by xi times its momentum,
    xi = -10 + 20 u in [-10, 10), with u drawn by ``random.Random(seed).random()``
    in (angle, pattern, photon) order.
    """
    # Python's random, not numpy's generators: loading those costs more time
    # and memory than the gate's whole sweep, and Python keeps the random()
    # sequence of a seed the same across versions.
    draws = random.Random(seed)
    shape = (_GAUGE_ANGLES, len(_NONZERO_LABELS), 4)
    xi = -10.0 + 20.0 * np.array([draws.random() for _ in range(np.prod(shape))]).reshape(shape)
    # pols[angle, pattern, 0] holds the physical polarizations; entry j > 0
    # shifts photon j's by xi * p_j.
    angles = np.linspace(grid[0], grid[-1], _GAUGE_ANGLES)
    momenta, basis = com_arrays(angles)
    physical = basis[:, np.arange(4), _NONZERO_LABELS]
    pols = np.repeat(physical[:, :, None], 5, axis=2)
    for photon in range(4):
        pols[:, :, photon + 1, photon] += xi[:, :, photon, None] * momenta[:, None, photon]
    sums = channel_amplitudes(angles[:, None, None], np.moveaxis(pols, -2, 0),
                              vertex_perturbation=vertex_perturbation).sum(axis=-1)
    base = sums[:, :, :1]
    deviation = float(np.max(np.abs(sums[:, :, 1:] - base) / np.abs(base)))
    return {"gauge_deviation": deviation}, [("gauge shifts: max deviation", deviation,
                                             _GAUGE_TOLERANCE, "")]


def build_verify_report(grid, *, seed: int, vertex_perturbation: float = 0.0) -> tuple[dict, str]:
    """Run the gate on a 1-D array of angles: return its JSON fields and its text.

    The fields open with "passed", the grid's size and ends and the two
    tolerances, then each check's fields in order: the pattern deviations,
    then the gauge shifts, whose amounts ``random.Random(seed)`` draws; each
    check holds its own tolerance. ``vertex_perturbation`` is forwarded to
    the vertex so the gate can demonstrate that it catches a broken vertex.
    """
    fields = {"passed": True, "samples": len(grid), "theta_min": float(grid[0]),
              "theta_max": float(grid[-1]), "tolerance": _TOLERANCE,
              "gauge_tolerance": _GAUGE_TOLERANCE}
    lines = ["diagram sum vs closed-form reference",
             f"grid: {len(grid)} angles in [{grid[0]:.6g}, {grid[-1]:.6g}]; "
             f"tolerance {_TOLERANCE:g}, gauge tolerance {_GAUGE_TOLERANCE:g}"]
    for check_fields, rows in (_pattern_check(grid, vertex_perturbation),
                               _gauge_check(grid, vertex_perturbation, seed)):
        fields.update(check_fields)
        for label, deviation, limit, note in rows:
            passed = deviation <= limit
            fields["passed"] &= passed
            lines.append(f"{label} {deviation:.2e}  {'PASS' if passed else 'FAIL'}{note}")
    lines.append(f"result: {'PASS' if fields['passed'] else 'FAIL'}")
    return fields, "\n".join(lines) + "\n"
