"""Command-line interface.

Subcommands cover amplitude tables, gravitational and loop-induced cross
section scans, coincidence-fringe scans, SI magnitude summaries and the
verification gate, which gravscatter.verify runs on the command's angle
grid. All angles are radians. Exit codes: 0 on success, 1 when verification
fails, 2 on usage errors, a grid that reaches a pole and a --samples too
large to allocate included, and on output errors (an unwritable --output or
stdout, or a failed formatting worker), reported on one line of stderr. A
stdout closed by its reader (``| head``) ends the command quietly with 141,
the status of a program stopped by SIGPIPE.

Each subcommand handler returns its result, and main alone writes it in the
chosen format. A scan's table is named numpy columns, one array per column,
printed as CSV or JSON by one writer. The writer cuts a table into
formatting jobs of up to _CHUNK_ROWS rows or array values; a large table's
jobs run in forked workers, one per usable CPU, and the bytes written do not
depend on how many there are.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
import warnings

import numpy as np

from .amplitudes import PATTERN_NAMES, PoleError, closed_form_grid
from .coincidence import coincidence_factor
from .cross_sections import (
    TwoPhotonPolState,
    dcs_averaged,
    dcs_entangled_pqg,
    dcs_entangled_qed,
    qed_bracket,
    si_convert,
)
from .kinematics import check_theta
from .verify import build_verify_report

__all__ = ["build_parser", "main"]

DEFAULT_THETA_MIN = 0.01
DEFAULT_THETA_MAX = math.pi - 0.01
VERIFY_THETA_MIN = 0.05
VERIFY_THETA_MAX = math.pi - 0.05

# The "figure3" unit choice rescales reduced values by this plotting divisor.
_FIGURE_UNITS_DIVISOR = 80.0

_CANONICAL_STATES = {"dcs_product": TwoPhotonPolState(0.0, 0.0),
                     "dcs_psi_plus": TwoPhotonPolState.psi_plus(),
                     "dcs_psi_minus": TwoPhotonPolState.psi_minus()}
# Rows (CSV) or array values (JSON) formatted per job; bounds the text held
# at once, here and in each worker.
_CHUNK_ROWS = 4096
# Smaller tables are formatted in this process: a worker costs about 5 ms to
# fork, feed through a pipe and reap, a value 0.5-2.3 us to format.
_FORK_MIN_VALUES = 1 << 16


def _csv_rows(row: str, chunk: np.ndarray) -> str:
    return row * len(chunk) % tuple(chunk.ravel().tolist())


def _json_values(sep: str, chunk: np.ndarray) -> str:
    # Without indent, json's C encoder spells the values; [1:-1] drops the brackets.
    return json.dumps(chunk.tolist(), separators=(sep, ": "))[1:-1]


def _csv_pieces(columns: dict[str, np.ndarray]):
    """A header line, then jobs of rows in one prebuilt %.9g row format."""
    yield ",".join(columns) + "\n"
    table = np.column_stack(list(columns.values()))
    row = ",".join(["%.9g"] * table.shape[1]) + "\n"
    for start in range(0, len(table), _CHUNK_ROWS):
        yield _csv_rows, row, table[start:start + _CHUNK_ROWS]


def _json_pieces(value, pad: str = "\n"):
    """The text of json.dumps(value, indent=2), as pieces.

    Besides what json takes, a value may be a 1-D float array; every dict
    and array must be non-empty. An array bypasses json's pure-Python
    encoder (indent turns the C one off) and becomes jobs of values.
    """
    inner = pad + "  "
    if isinstance(value, dict):
        for k, (key, item) in enumerate(value.items()):
            yield ("," if k else "{") + inner + json.dumps(key) + ": "
            yield from _json_pieces(item, inner)
        yield pad + "}"
    elif isinstance(value, np.ndarray):
        for start in range(0, len(value), _CHUNK_ROWS):
            yield ("," if start else "[") + inner
            yield _json_values, "," + inner, value[start:start + _CHUNK_ROWS]
        yield pad + "]"
    else:
        yield json.dumps(value, indent=2).replace("\n", pad)


def _workers(values: int) -> int:
    """Children to format a table of ``values`` numbers: one per usable CPU, or none.

    Where os.sched_getaffinity exists, so does os.fork.
    """
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return usable if usable > 1 and values >= _FORK_MIN_VALUES else 0


def _serve(jobs: list, sink, pipes: list) -> None:
    """In a forked child: write each job's text to ``sink`` as a frame, then exit.

    A frame is the 8-byte little-endian length of the UTF-8 text, then the
    text. os._exit skips the exit handlers and buffered output of the parent.
    """
    try:
        # The parent's read ends: one left open here would keep a sibling
        # from failing when the parent stops reading.
        for pipe in pipes:
            pipe.close()
        for form, argument, chunk in jobs:
            data = form(argument, chunk).encode()
            sink.writelines((len(data).to_bytes(8, "little"), data))
            sink.flush()
        os._exit(0)
    finally:
        os._exit(1)


def _frame(pipe) -> str:
    """The text of the next frame on ``pipe``; a short frame means its child failed."""
    head = pipe.read(8)
    data = pipe.read(int.from_bytes(head, "little"))
    if len(head) < 8 or len(data) < int.from_bytes(head, "little"):
        raise ChildProcessError("a formatting worker stopped before its last job")
    return data.decode()


def _render(pieces: list, write) -> None:
    """Pass the text of each piece, literal text or a job, to ``write`` in order.

    A job is a tuple (format, argument, chunk) whose text is
    format(argument, chunk). With _workers children, child w of W runs jobs
    w, w + W, ... and sends each text as a frame down its own pipe, while
    this process relays the pieces in order, holding about one job's text
    per child. Without, the jobs run here. The text is the same either way.
    A child that stops early or exits non-zero raises ChildProcessError.
    """
    jobs = [piece for piece in pieces if not isinstance(piece, str)]
    workers = _workers(sum(chunk.size for _, _, chunk in jobs))
    pipes, pids = [], []
    try:
        for w in range(workers):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            with open(write_end, "wb") as sink, warnings.catch_warnings():
                # From Python 3.12 os.fork warns in a process with threads.
                # Importing gravscatter loads numpy's OpenBLAS with one
                # thread, so this process has more only when the user set a
                # BLAS thread count or imported numpy first. The child
                # only formats floats into strings, takes no lock another
                # thread may hold, and leaves through os._exit.
                warnings.filterwarnings("ignore", ".* is multi-threaded", DeprecationWarning)
                pids.append(os.fork())
                if pids[-1] == 0:
                    _serve(jobs[w::workers], sink, pipes)
        texts = (map(_frame, itertools.cycle(pipes)) if pipes
                 else (form(argument, chunk) for form, argument, chunk in jobs))
        for piece in pieces:
            write(piece if isinstance(piece, str) else next(texts))
    finally:
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    if any(statuses):
        raise ChildProcessError(f"a formatting worker ended with wait status {max(statuses)}")


def _theta_grid(args, parser) -> np.ndarray:
    try:
        check_theta(np.array([args.theta_min, args.theta_max]))
        ordered = args.theta_min < args.theta_max
    except ValueError:
        ordered = False
    if not ordered:
        parser.error("need 0 < --theta-min < --theta-max < pi")
    return _grid(args.theta_min, args.theta_max, args.samples, parser)


def _grid(start: float, stop: float, samples: int, parser) -> np.ndarray:
    """np.linspace(start, stop, samples), or a usage error for a count it refuses."""
    if samples < 2:
        parser.error("--samples must be at least 2")
    try:
        return np.linspace(start, stop, samples)
    except ValueError:  # numpy's "Maximum allowed size exceeded"
        parser.error(f"--samples {samples} is too large to allocate")


def _check_wavelength(args, parser) -> None:
    # `si` requires --lambda, so only the scans reach the --units test.
    if args.wavelength is None:
        if args.units == "si":
            parser.error("--lambda is required with --units si")
    elif not 0.0 < args.wavelength < math.inf:
        parser.error("--lambda must be finite and positive")


def _check_underflow(args, parser, theory: str, values) -> None:
    """Stop with a usage error where every SI value the command prints is 0 or subnormal.

    ``values`` holds the SI columns of a scan, or the one value of ``si``; an
    inf counts as printable. A subnormal value has lost significant digits,
    so it counts as 0.
    """
    if max(np.max(value) for value in values) < sys.float_info.min:
        parser.error(f"the {theory} cross section at --lambda {args.wavelength:g} underflows "
                     "to 0 or below the smallest normal float")


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (fields, plain), the JSON object after
# "command" and either the CSV columns or the text that verify and si print

def _run_amp_table(args, parser):
    grid = _theta_grid(args, parser)
    elements = dict(zip(PATTERN_NAMES, closed_form_grid(grid).reshape(len(grid), -1).T))
    columns = {"theta": grid, **{f"m_{name}": column for name, column in elements.items()}}
    return {"theta": grid, "elements": elements}, columns


def _run_dcs_scan(args, parser):
    grid = _theta_grid(args, parser)
    _check_wavelength(args, parser)
    columns = {name: dcs_entangled_pqg(grid, state) for name, state in _CANONICAL_STATES.items()}
    columns["dcs_averaged"] = dcs_averaged(grid)
    if args.units == "si":
        for name, column in columns.items():
            columns[name] = si_convert(column, args.wavelength)
        _check_underflow(args, parser, "pqg", columns.values())
    elif args.units == "figure3":
        for column in columns.values():
            column /= _FIGURE_UNITS_DIVISOR
    columns = {"theta": grid, **columns}
    return {"units": args.units, "wavelength_m": args.wavelength, **columns}, columns


def _run_qed_scan(args, parser):
    grid = _theta_grid(args, parser)
    _check_wavelength(args, parser)
    if args.units == "si":
        columns = {name: dcs_entangled_qed(grid, state, args.wavelength)
                   for name, state in _CANONICAL_STATES.items()}
        _check_underflow(args, parser, "qed", columns.values())
    else:
        columns = {name: qed_bracket(grid, state) for name, state in _CANONICAL_STATES.items()}
    columns = {"theta": grid, **columns}
    return {"units": args.units, "wavelength_m": args.wavelength, **columns}, columns


def _run_coincidence_scan(args, parser):
    if not -math.inf < args.delta_min < args.delta_max < math.inf:
        parser.error("need finite --delta-min < --delta-max")
    grid = _grid(args.delta_min, args.delta_max, args.samples, parser)
    try:
        state = TwoPhotonPolState(args.phi, args.rho)
    except ValueError as error:
        parser.error(str(error))
    columns = {"delta": grid, "factor": coincidence_factor(grid, state)}
    return {"phi": args.phi, "rho": args.rho, **columns}, columns


def _run_verify(args, parser):
    grid = _theta_grid(args, parser)
    for option, tolerance in (("--tolerance", args.tolerance),
                              ("--gauge-tolerance", args.gauge_tolerance)):
        if not tolerance >= 0.0:  # NaN included: no deviation would pass it
            parser.error(f"{option} must be a non-negative number")
    if not math.isfinite(args.perturb_vertex):
        parser.error("--perturb-vertex must be finite")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return build_verify_report(grid, tolerance=args.tolerance,
                               gauge_tolerance=args.gauge_tolerance, seed=args.seed,
                               vertex_perturbation=args.perturb_vertex)


def _run_si(args, parser):
    _check_wavelength(args, parser)
    # pqg: the product state's right-angle value, 32 (the psi+ Bell state
    # gives 64), times the Planck-length conversion. qed: the loop cross
    # section at its maximum, psi+ at theta = 0.
    value = (si_convert(32.0, args.wavelength) if args.theory == "pqg"
             else dcs_entangled_qed(0.0, TwoPhotonPolState.psi_plus(), args.wavelength))
    _check_underflow(args, parser, args.theory, [value])
    label = ("32 l_P^4 / lambda^2" if args.theory == "pqg"
             else "loop prefactor times the maximal angle bracket")
    exponent = math.floor(math.log10(value))
    return ({"theory": args.theory, "wavelength_m": args.wavelength,
             "dcs_scale_m2_sr": value, "exponent": exponent},
            f"theory: {args.theory}\n"
            f"wavelength_m: {args.wavelength:.9g}\n"
            f"scale: {label}\n"
            f"dcs_scale_m2_sr: {value:.6e}\n"
            f"exponent: {exponent}\n")


# ---------------------------------------------------------------------------
# parser assembly

def _add_theta_options(sub, theta_min=DEFAULT_THETA_MIN, theta_max=DEFAULT_THETA_MAX):
    sub.add_argument("--theta-min", type=float, default=theta_min,
                     help="grid start in radians (default %(default).6g)")
    sub.add_argument("--theta-max", type=float, default=theta_max,
                     help="grid end in radians (default %(default).6g)")
    sub.add_argument("--samples", type=int, default=100,
                     help="number of grid points (default %(default)s)")


def _add_output_options(sub, formats=("csv", "json")):
    sub.add_argument("--format", choices=formats, default=formats[0],
                     help="output format (default %(default)s)")
    sub.add_argument("--output", metavar="PATH", default=None,
                     help="write to PATH instead of stdout")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a negative number after a long option as its value.

    argparse takes only -N and -N.N for negative numbers, so it reads -1e-3
    or -inf as an option and leaves --delta-min -1e-3 without a value. Such a
    token is joined to the option before it as --delta-min=-1e-3, which
    argparse reads as the same option and value; no option here is a number.
    """

    def parse_known_args(self, args=None, namespace=None):
        joined = []
        for token in sys.argv[1:] if args is None else args:
            if (joined and joined[-1].startswith("--") and "=" not in joined[-1]
                    and "--" not in joined and _is_negative_number(token)):
                joined[-1] += "=" + token
            else:
                joined.append(token)
        return super().parse_known_args(joined, namespace)


def _is_negative_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return token.startswith("-")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gravscatter",
        description="Graviton-mediated photon-photon scattering cross sections "
                    "for polarization-entangled photon pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    amp = sub.add_parser("amp-table",
                         help="tabulate the 16 closed-form amplitude elements")
    _add_theta_options(amp)
    _add_output_options(amp)
    amp.set_defaults(handler=_run_amp_table)

    dcs = sub.add_parser("dcs-scan",
                         help="gravitational cross sections for the canonical states")
    _add_theta_options(dcs)
    dcs.add_argument("--units", choices=("reduced", "si", "figure3"),
                     default="reduced",
                     help="reduced l_P^4/lambda^2 multiples, SI m^2/sr, or the "
                          "reduced values divided by 80 (default %(default)s)")
    dcs.add_argument("--lambda", dest="wavelength", type=float, default=None,
                     metavar="METERS", help="photon wavelength, needed for SI units")
    _add_output_options(dcs)
    dcs.set_defaults(handler=_run_dcs_scan)

    qed = sub.add_parser("qed-scan",
                         help="electron-loop cross sections for the canonical states")
    _add_theta_options(qed)
    qed.add_argument("--units", choices=("reduced", "si"), default="si",
                     help="prefactor-stripped bracket or SI m^2/sr (default %(default)s)")
    qed.add_argument("--lambda", dest="wavelength", type=float, default=None,
                     metavar="METERS", help="photon wavelength, needed for SI units")
    _add_output_options(qed)
    qed.set_defaults(handler=_run_qed_scan)

    coin = sub.add_parser("coincidence-scan",
                          help="joint-detection modulation versus the phase delta")
    coin.add_argument("--phi", type=float, default=math.pi / 4,
                      help="superposition angle in [0, pi/2] (default pi/4)")
    coin.add_argument("--rho", type=float, default=0.0,
                      help="relative phase in [-pi/2, 3pi/2) (default %(default)s)")
    coin.add_argument("--delta-min", type=float, default=0.0,
                      help="phase grid start (default %(default)s)")
    coin.add_argument("--delta-max", type=float, default=2.0 * math.pi,
                      help="phase grid end (default 2 pi)")
    coin.add_argument("--samples", type=int, default=100,
                      help="number of grid points (default %(default)s)")
    _add_output_options(coin)
    coin.set_defaults(handler=_run_coincidence_scan)

    verify = sub.add_parser("verify",
                            help="replay the diagram evaluation against the closed forms")
    _add_theta_options(verify, theta_min=VERIFY_THETA_MIN, theta_max=VERIFY_THETA_MAX)
    verify.add_argument("--tolerance", type=float, default=1e-9,
                        help="per-element relative tolerance (default %(default)g)")
    verify.add_argument("--gauge-tolerance", type=float, default=1e-9,
                        help="gauge-shift relative tolerance (default %(default)g)")
    verify.add_argument("--perturb-vertex", type=float, default=0.0,
                        help="rescale one vertex term by (1+x); a nonzero value "
                             "must make the gate fail")
    verify.add_argument("--seed", type=int, default=20,
                        help="seed for the gauge-shift draws (default %(default)s)")
    _add_output_options(verify, formats=("text", "json"))
    verify.set_defaults(handler=_run_verify)

    si = sub.add_parser("si", help="SI magnitude summary at a given wavelength")
    si.add_argument("--lambda", dest="wavelength", type=float, required=True,
                    metavar="METERS", help="photon wavelength")
    si.add_argument("--theory", choices=("pqg", "qed"), default="pqg",
                    help="which scale to report (default %(default)s)")
    _add_output_options(si, formats=("text", "json"))
    si.set_defaults(handler=_run_si)

    return parser


def main(argv=None) -> int:
    """Run one subcommand: write its result in the chosen format, return the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # An overflow to inf is a value the tables print; a division by zero
        # or an invalid operation means an input sits on a pole or beyond
        # the floating-point range, as does a scalar ArithmeticError.
        with np.errstate(all="ignore", divide="raise", invalid="raise"):
            fields, plain = args.handler(args, parser)
        if args.format == "json":
            pieces = itertools.chain(_json_pieces({"command": args.command, **fields}), ["\n"])
        elif args.format == "csv":
            pieces = _csv_pieces(plain)
        else:
            pieces = [plain]
        with open(args.output, "w", encoding="utf-8") if args.output is not None \
                else contextlib.nullcontext(sys.stdout) as out:
            _render(list(pieces), out.write)
            out.flush()
    except PoleError as error:
        parser.error(str(error))
    except MemoryError:
        parser.error("cannot allocate the arrays: --samples is too large")
    except ArithmeticError as error:
        parser.error(f"cannot evaluate ({error}): an input lies on a pole or outside "
                     "floating-point range")
    except OSError as error:
        # Only the output raises it: an unwritable --output or stdout, or a
        # formatting worker that failed. What the process's stdout still
        # holds goes to devnull, as Python's signal docs advise for a closed
        # pipe, so that the flush at exit neither fails again nor adds to a
        # table cut short.
        if sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(error, BrokenPipeError):
            return 128 + 13  # quietly, with what a shell reports for SIGPIPE
        parser.exit(2, f"{parser.prog}: error: cannot write output: {error}\n")
    return 0 if fields.get("passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
