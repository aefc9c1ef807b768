"""Time the JSON kernel against json.dumps on the columns the scans print.

For each column kind (the angle grid, an SI gravitational cross section, an
SI QED cross section, an amplitude, a coincidence factor and zeros) the
script cuts the column into jobs of cli._CHUNK_VALUES values, as the JSON
writer does, and times each job in turn with
gravscatter._json_floats.json_values and with json.dumps, in process. Each
line prints the median time per value of each. With ``--baseline FILE``,
another copy of the kernel module (say, _json_floats.py as an earlier
commit has it) is timed in the same turns, and the line also prints the
median over jobs of the kernel's time over the baseline's. Every timed text
is checked against json.dumps.

    PYTHONPATH=src python tools/json_kernel_timing.py [--jobs 8] [--repeats 15]
        [--baseline /path/to/_json_floats.py]
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import statistics
import sys
import time

import numpy as np

from gravscatter import cli
from gravscatter._json_floats import json_values
from gravscatter.amplitudes import _closed_form_column
from gravscatter.coincidence import coincidence_factor
from gravscatter.cross_sections import (TwoPhotonPolState, dcs_entangled_pqg,
                                        dcs_entangled_qed, si_convert)

# The grids and the wavelength of a typical benchmark scan; the coincidence
# factor is coincidence-scan's default state's, 1 + cos(delta).
_THETA = (0.3, 2.8)
_DELTA = (-2.0, 8.0)
_WAVELENGTH = 3e-8


def column_kinds(values: int) -> dict[str, np.ndarray]:
    """Each column kind the JSON scans print, ``values`` long."""
    theta = np.linspace(*_THETA, values)
    state = TwoPhotonPolState.psi_plus()
    return {
        "theta": theta,
        "dcs_si": si_convert(dcs_entangled_pqg(theta, state), _WAVELENGTH),
        "qed_si": dcs_entangled_qed(theta, state, _WAVELENGTH),
        "amplitude": _closed_form_column(theta, pattern="1111"),
        "coincidence": coincidence_factor(np.linspace(*_DELTA, values),
                                          TwoPhotonPolState(math.pi / 4, 0.0)),
        "zeros": np.zeros(values),
    }


def _load_kernel(path: str):
    spec = importlib.util.spec_from_file_location("baseline_json_floats", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.json_values


def _dumps(sep: str, chunk: np.ndarray) -> str:
    return json.dumps(chunk.tolist(), separators=(sep, ": "))[1:-1]


def _seconds(spell, chunk: np.ndarray) -> tuple[float, str]:
    start = time.perf_counter()
    text = spell(",\n    ", chunk)
    return time.perf_counter() - start, text


def time_kind(column: np.ndarray, spellers: dict, repeats: int) -> dict[str, list[float]]:
    """Per-job seconds of each speller, all timed on each job in turn.

    The order of the spellers rotates from one job to the next, so no
    speller always runs first on a warm or a cold cache.
    """
    size = cli._CHUNK_VALUES
    jobs = [column[start:start + size] for start in range(0, len(column), size)]
    names = list(spellers)
    times = {name: [] for name in names}
    for turn in range(repeats * len(jobs)):
        chunk = jobs[turn % len(jobs)]
        texts = set()
        for k in range(len(names)):
            name = names[(turn + k) % len(names)]
            seconds, text = _seconds(spellers[name], chunk)
            times[name].append(seconds)
            texts.add(text)
        if len(texts) != 1:
            raise SystemExit(f"the spellers disagree on a job of {len(chunk)} values")
    return times


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=8, help="jobs per column kind")
    parser.add_argument("--repeats", type=int, default=15, help="turns over each job")
    parser.add_argument("--baseline", help="another _json_floats.py to time beside the kernel")
    args = parser.parse_args(argv)
    spellers = {"kernel": json_values, "json.dumps": _dumps}
    if args.baseline:
        spellers["baseline"] = _load_kernel(args.baseline)
    size = cli._CHUNK_VALUES
    print(f"us per value, medians over {args.jobs} jobs of {size} values x {args.repeats} turns")
    print(f"{'column':12s} {'kernel':>8s} {'json.dumps':>10s}"
          + (f" {'baseline':>8s} {'ratio':>6s}" if args.baseline else ""))
    for kind, column in column_kinds(args.jobs * size).items():
        times = time_kind(column, spellers, args.repeats)
        per_value = {name: statistics.median(t) / size * 1e6 for name, t in times.items()}
        line = f"{kind:12s} {per_value['kernel']:8.3f} {per_value['json.dumps']:10.3f}"
        if args.baseline:
            ratio = statistics.median(map(float.__truediv__, times["kernel"], times["baseline"]))
            line += f" {per_value['baseline']:8.3f} {ratio:6.3f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
