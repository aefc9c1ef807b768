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
chosen format. A scan's table holds one array, its grid; every other column
comes from a function of a grid slice. Before any byte is written, main
evaluates every column once over the grid, in chunks of _CHUNK_VALUES
angles, and keeps only their running maximum, so a pole or an SI value that
underflows is a usage error with nothing printed. The writer then cuts the
table into formatting jobs of up to _CHUNK_VALUES values: whole rows for
CSV, one column's values for JSON. A job holds a view of its grid slice and
computes its own values as it runs, so no other column of the table exists
whole. A table of _FORK_MIN_JOBS jobs or more runs them in forked workers,
one per usable CPU and no more than there are jobs, and the bytes written do
not depend on how many there are.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys
import warnings

import numpy as np

from .amplitudes import PATTERN_NAMES, PoleError, _closed_form_column
from .coincidence import coincidence_factor
from .cross_sections import (
    TwoPhotonPolState,
    dcs_averaged,
    dcs_entangled_pqg,
    dcs_entangled_qed,
    qed_bracket,
    si_convert,
)
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
# Values formatted per job, as whole CSV rows or JSON array values; bounds
# the values a job computes and the text held at once, here and in each
# worker. This constant, not the column functions, is what bounds a scan's
# memory beyond its grid.
_CHUNK_VALUES = 4096
# Tables of fewer jobs are formatted in this process: a worker costs about
# 5 ms to fork, feed through a pipe and reap, a value 0.3-0.9 us to format
# as CSV and 0.17-0.18 us as JSON. A JSON array is at least one job, so this
# exceeds amp-table's 17 columns: every table forks from about 2^16 values.
_FORK_MIN_JOBS = 18


def _csv_rows(row: str, columns: list, chunk: np.ndarray) -> str:
    """The text of one job's rows: its grid slice, then each column's values on it."""
    table = np.column_stack([chunk, *(column(chunk) for column in columns)])
    return row * len(chunk) % tuple(table.ravel().tolist())


def _csv_pieces(table: dict):
    """A header line, then jobs of rows in one prebuilt %.9g row format.

    ``table`` maps each column's name to the grid, first, and then to a
    function of a grid slice. A job holds a view of its rows' grid slice
    and computes their values as it runs.
    """
    yield ",".join(table) + "\n"
    grid, *columns = table.values()
    row = ",".join(["%.9g"] * len(table)) + "\n"
    rows = max(1, _CHUNK_VALUES // len(table))
    for start in range(0, len(grid), rows):
        yield functools.partial(_csv_rows, row, columns, grid[start:start + rows])


def _json_values(json_values, separator: str, column, chunk: np.ndarray) -> str:
    """The text of one JSON job: a column's values on a grid slice, spelled by json_values."""
    return json_values(separator, column(chunk))


def _json_pieces(value, grid=None, pad: str = "\n"):
    """The text of json.dumps(value, indent=2), as pieces.

    Besides what json takes, a value may be a 1-D float64 array, or a
    function that gives float64 values on a slice of ``grid``, a column;
    every dict and array must be non-empty. An array or a column bypasses
    json's pure-Python encoder (indent turns the C one off) and becomes jobs
    of values, each computed from its slice as it runs and spelled by
    gravscatter._json_floats.json_values, a numpy kernel with repr's
    digits. It is imported here, so that only a JSON table loads it.
    """
    inner = pad + "  "
    if isinstance(value, dict):
        for k, (key, item) in enumerate(value.items()):
            yield ("," if k else "{") + inner + json.dumps(key) + ": "
            yield from _json_pieces(item, grid, inner)
        yield pad + "}"
    elif isinstance(value, np.ndarray) or callable(value):
        from ._json_floats import json_values

        column, values = (value, grid) if callable(value) else (np.asarray, value)
        for start in range(0, len(values), _CHUNK_VALUES):
            yield ("," if start else "[") + inner
            yield functools.partial(_json_values, json_values, "," + inner, column,
                                    values[start:start + _CHUNK_VALUES])
        yield pad + "]"
    else:
        yield json.dumps(value, indent=2).replace("\n", pad)


def _workers(jobs: int) -> int:
    """Children to format a table of ``jobs`` jobs: one per usable CPU, or none.

    Where os.sched_getaffinity exists, so does os.fork.
    """
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return usable if usable > 1 and jobs >= _FORK_MIN_JOBS else 0


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
        for job in jobs:
            data = job().encode()
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

    A job is a callable that takes no argument and returns its text, as
    _csv_pieces and _json_pieces build them. With W children (_workers'
    count, capped at the number of jobs), child w runs jobs w, w + W, ... and
    sends each text as a frame down its own pipe, while this process relays
    the pieces in order, holding about one job's text per child. Without,
    the jobs run here. The text is the same either way.
    A child that stops early or exits non-zero raises ChildProcessError.
    """
    jobs = [piece for piece in pieces if not isinstance(piece, str)]
    workers = min(len(jobs), _workers(len(jobs)))
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
        texts = map(_frame, itertools.cycle(pipes)) if pipes else (job() for job in jobs)
        for piece in pieces:
            write(piece if isinstance(piece, str) else next(texts))
    finally:
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    if any(statuses):
        raise ChildProcessError(f"a formatting worker ended with wait status {max(statuses)}")


def _theta_grid(args, parser) -> np.ndarray:
    if not 0.0 < args.theta_min < args.theta_max < math.pi:  # NaN included
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


def _check_underflow(args, parser, largest) -> None:
    """Stop with a usage error where the largest SI value printed, ``largest``, is 0 or subnormal.

    An inf counts as printable. A subnormal value has lost significant
    digits, so it counts as 0.
    """
    if largest < sys.float_info.min:
        parser.error(f"the {args.theory} cross section at --lambda {args.wavelength:g} underflows "
                     "to 0 or below the smallest normal float")


def _largest(grid: np.ndarray, columns: list) -> float:
    """The largest value of the columns on ``grid``, from one pass in chunks of _CHUNK_VALUES.

    The pass evaluates every column as the jobs will, keeping only the
    running maximum, so that under main's raising np.errstate a pole or a
    value beyond float range stops the command before any byte is written.
    """
    largest = -math.inf
    for start in range(0, len(grid), _CHUNK_VALUES):
        chunk = grid[start:start + _CHUNK_VALUES]
        largest = max(largest, *(np.max(column(chunk)) for column in columns))
    return largest


def _converted(column, convert, argument):
    """The column whose values on a grid slice are convert(column(chunk), argument)."""
    return lambda chunk: convert(column(chunk), argument)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (fields, plain), the JSON object after
# "command" and either a scan's table, its grid and then functions of a grid
# slice, or the text that verify and si print

def _run_amp_table(args, parser):
    grid = _theta_grid(args, parser)
    elements = {name: functools.partial(_closed_form_column, pattern=name)
                for name in PATTERN_NAMES}
    table = {"theta": grid, **{f"m_{name}": column for name, column in elements.items()}}
    return {"theta": grid, "elements": elements}, table


def _run_dcs_scan(args, parser):
    grid = _theta_grid(args, parser)
    _check_wavelength(args, parser)
    columns = {name: functools.partial(dcs_entangled_pqg, state=state)
               for name, state in _CANONICAL_STATES.items()}
    columns["dcs_averaged"] = dcs_averaged
    if args.units != "reduced":
        convert, argument = ((si_convert, args.wavelength) if args.units == "si"
                             else (np.divide, _FIGURE_UNITS_DIVISOR))
        columns = {name: _converted(column, convert, argument)
                   for name, column in columns.items()}
    table = {"theta": grid, **columns}
    return {"units": args.units, "wavelength_m": args.wavelength, **table}, table


def _run_qed_scan(args, parser):
    grid = _theta_grid(args, parser)
    _check_wavelength(args, parser)
    column = (functools.partial(dcs_entangled_qed, wavelength=args.wavelength)
              if args.units == "si" else qed_bracket)
    table = {"theta": grid, **{name: functools.partial(column, state=state)
                               for name, state in _CANONICAL_STATES.items()}}
    return {"units": args.units, "wavelength_m": args.wavelength, **table}, table


def _run_coincidence_scan(args, parser):
    if not -math.inf < args.delta_min < args.delta_max < math.inf:
        parser.error("need finite --delta-min < --delta-max")
    grid = _grid(args.delta_min, args.delta_max, args.samples, parser)
    try:
        state = TwoPhotonPolState(args.phi, args.rho)
    except ValueError as error:
        parser.error(str(error))
    table = {"delta": grid, "factor": functools.partial(coincidence_factor, state=state)}
    return {"phi": args.phi, "rho": args.rho, **table}, table


def _run_verify(args, parser):
    grid = _theta_grid(args, parser)
    if not math.isfinite(args.perturb_vertex):
        parser.error("--perturb-vertex must be finite")
    return build_verify_report(grid, vertex_perturbation=args.perturb_vertex)


def _run_si(args, parser):
    _check_wavelength(args, parser)
    # pqg: the product state's right-angle value, 32 (the psi+ Bell state
    # gives 64), times the Planck-length conversion. qed: the loop cross
    # section at its maximum, psi+ at theta = 0.
    value = (si_convert(32.0, args.wavelength) if args.theory == "pqg"
             else dcs_entangled_qed(0.0, TwoPhotonPolState.psi_plus(), args.wavelength))
    if value == math.inf:
        parser.error(f"the {args.theory} cross section at --lambda {args.wavelength:g} "
                     "overflows past the largest float")
    _check_underflow(args, parser, value)
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
                     metavar="METERS", help="reduced wavelength hbar c/E, in meters, for SI units")
    _add_output_options(dcs)
    dcs.set_defaults(handler=_run_dcs_scan, theory="pqg")

    qed = sub.add_parser("qed-scan",
                         help="electron-loop cross sections for the canonical states")
    _add_theta_options(qed)
    qed.add_argument("--units", choices=("reduced", "si"), default="si",
                     help="prefactor-stripped bracket or SI m^2/sr (default %(default)s)")
    qed.add_argument("--lambda", dest="wavelength", type=float, default=None,
                     metavar="METERS", help="reduced wavelength hbar c/E, in meters, for SI units")
    _add_output_options(qed)
    qed.set_defaults(handler=_run_qed_scan, theory="qed")

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
    verify.add_argument("--perturb-vertex", type=float, default=0.0,
                        help="rescale one vertex term by (1+x); a nonzero value "
                             "must make the gate fail")
    # Accepted and ignored, for callers that still pass it; the gauge row
    # draws nothing since it scores the Ward amplitude.
    verify.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    _add_output_options(verify, formats=("text", "json"))
    verify.set_defaults(handler=_run_verify)

    si = sub.add_parser("si", help="SI magnitude summary at a given wavelength")
    si.add_argument("--lambda", dest="wavelength", type=float, required=True,
                    metavar="METERS", help="reduced wavelength hbar c/E, in meters")
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
            grid = None
            if isinstance(plain, dict):
                grid, *columns = plain.values()
                largest = _largest(grid, columns)
                if getattr(args, "units", None) == "si":
                    _check_underflow(args, parser, largest)
        if args.format == "json":
            pieces = itertools.chain(
                _json_pieces({"command": args.command, **fields}, grid), ["\n"])
        elif args.format == "csv":
            pieces = _csv_pieces(plain)
        else:
            pieces = [plain]
        # The pass above raised on anything the jobs could meet but an
        # overflow to inf, which they print without a warning.
        with open(args.output, "w", encoding="utf-8") if args.output is not None \
                else contextlib.nullcontext(sys.stdout) as out, np.errstate(all="ignore"):
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
