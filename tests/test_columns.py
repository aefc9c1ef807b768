"""Array-valued closed forms, cross sections and the CLI table writer.

Every function that takes an array of angles must return, element by
element, the very float the same function returns for that angle alone:
the comparisons here are ==, never a tolerance. The writer must reproduce
json.dumps(payload, indent=2) and the %.9g CSV rows exactly, whether its
jobs run in this process or in forked workers.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravscatter.amplitudes import closed_form_grid
from gravscatter import cli
from gravscatter.cli import _csv_pieces, _json_pieces, _render
from gravscatter.coincidence import coincidence_factor
from gravscatter.cross_sections import (
    TwoPhotonPolState,
    dcs_averaged,
    dcs_entangled_pqg,
    dcs_entangled_qed,
    qed_bracket,
    si_convert,
)

STATES = (
    TwoPhotonPolState(0.0, 0.0),
    TwoPhotonPolState.psi_plus(),
    TwoPhotonPolState.psi_minus(),
    TwoPhotonPolState(0.3, 2.0),
    TwoPhotonPolState(1.2, -1.0),
)
# Dense enough that numpy's SIMD `**` would miss the scalar pow on hundreds
# of these angles; both ends sit 1e-7 from a pole.
DENSE = np.linspace(1e-7, math.pi - 1e-7, 5001)

angle_arrays = st.lists(st.floats(min_value=1e-7, max_value=math.pi - 1e-7),
                        min_size=1, max_size=64).map(np.array)
phase_arrays = st.lists(st.floats(min_value=-50.0, max_value=50.0),
                        min_size=1, max_size=64).map(np.array)
wavelengths = st.floats(min_value=1e-12, max_value=1.0)


def _functions(wavelength=5e-7):
    """Each array-valued angle function, as (name, function of the angles)."""
    yield "dcs_averaged", dcs_averaged
    for k, state in enumerate(STATES):
        yield f"dcs_entangled_pqg[{k}]", lambda t, s=state: dcs_entangled_pqg(t, s)
        yield f"qed_bracket[{k}]", lambda t, s=state: qed_bracket(t, s)
        yield (f"dcs_entangled_qed[{k}]",
               lambda t, s=state: dcs_entangled_qed(t, s, wavelength))
        yield (f"si_convert[{k}]",
               lambda t, s=state: si_convert(dcs_entangled_pqg(t, s), wavelength))
        yield (f"coincidence_factor[{k}]",
               lambda t, s=state: coincidence_factor(t, s))


def _assert_elementwise_equal(function, angles):
    column = function(angles)
    assert isinstance(column, np.ndarray) and column.shape == angles.shape
    for angle, element in zip(angles.tolist(), column.tolist()):
        scalar = function(angle)
        assert type(scalar) is float
        assert element == scalar, (angle, element, scalar)


FUNCTIONS = dict(_functions())


@pytest.mark.parametrize("name", FUNCTIONS)
def test_dense_grid_matches_scalar_calls(name):
    function = FUNCTIONS[name]
    _assert_elementwise_equal(function, DENSE)


@given(angles=angle_arrays, wavelength=wavelengths)
@settings(max_examples=60, deadline=None)
def test_random_arrays_match_scalar_calls(angles, wavelength):
    for function in dict(_functions(wavelength)).values():
        _assert_elementwise_equal(function, angles)


@given(phases=phase_arrays)
@settings(max_examples=60, deadline=None)
def test_coincidence_phases_match_scalar_calls(phases):
    for state in STATES:
        _assert_elementwise_equal(
            lambda delta, s=state: coincidence_factor(delta, s), phases)


def test_qed_bracket_closed_interval():
    # The loop brackets have no pole, so the arrays may include 0 and pi.
    angles = np.linspace(0.0, math.pi, 1001)
    for state in STATES:
        _assert_elementwise_equal(lambda t, s=state: qed_bracket(t, s), angles)


@given(angles=angle_arrays)
@settings(max_examples=40, deadline=None)
def test_closed_form_grid_equals_one_element_grids(angles):
    for theta, row in zip(angles.tolist(), closed_form_grid(angles)):
        assert np.array_equal(row, closed_form_grid([theta])[0]), theta


def test_array_phase_must_be_finite():
    with pytest.raises(ValueError, match="finite"):
        coincidence_factor(np.array([0.0, math.inf]), TwoPhotonPolState.psi_plus())


# ---------------------------------------------------------------------------
# the table writer

def _rendered(pieces):
    parts = []
    _render(list(pieces), parts.append)
    return "".join(parts)


def _json_text(payload):
    return _rendered(_json_pieces(payload))


floats = st.floats(allow_nan=True, allow_infinity=True)
float_arrays = st.lists(floats, min_size=1, max_size=20).map(np.array)
scalars = st.one_of(st.none(), st.booleans(), st.integers(-10 ** 6, 10 ** 6), floats,
                    st.text(max_size=8))
columns = st.dictionaries(st.text(min_size=1, max_size=6), float_arrays,
                          min_size=1, max_size=4)
payloads = st.dictionaries(
    st.text(min_size=1, max_size=6),
    st.one_of(scalars, float_arrays, columns, st.lists(st.text(max_size=4), max_size=3)),
    min_size=1, max_size=6)


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


@given(payload=payloads)
@settings(max_examples=100, deadline=None)
def test_json_writer_matches_json_dumps(payload):
    assert _json_text(payload) == json.dumps(_plain(payload), indent=2)


def test_json_writer_spells_non_finite_values_like_json():
    payload = {"x": np.array([math.inf, -math.inf, math.nan, 1e-300, -0.0])}
    assert _json_text(payload) == json.dumps(_plain(payload), indent=2)


@pytest.mark.parametrize("workers", [0, 3], ids=["in-process", "forked"])
def test_json_writer_spans_chunks(monkeypatch, workers):
    # Non-finite values in the first, a middle and the last chunk of 3.
    monkeypatch.setattr(cli, "_workers", lambda values: workers)
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 3)
    column = np.arange(11.0) / 7.0
    column[[0, 4, 10]] = [math.inf, math.nan, -math.inf]
    payload = {"a": column, "b": {"c": column[:6], "d": 1.5}}
    assert _json_text(payload) == json.dumps(_plain(payload), indent=2)


@given(table=st.lists(st.tuples(floats, floats, floats), min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_csv_writer_matches_row_formatting(table):
    columns = {name: np.array(column) for name, column in zip("abc", zip(*table))}
    expected = "a,b,c\n" + "".join(
        ",".join(format(value, ".9g") for value in row) + "\n" for row in table)
    assert _rendered(_csv_pieces(columns)) == expected


def _assert_csv_spans_chunks(monkeypatch):
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 3)
    columns = {"t": np.arange(10.0), "v": np.arange(10.0) / 3.0}
    lines = _rendered(_csv_pieces(columns)).splitlines()
    assert lines[0] == "t,v"
    assert lines[1:] == [f"{t:.9g},{t / 3.0:.9g}" for t in np.arange(10.0).tolist()]


def test_csv_writer_spans_chunks(monkeypatch):
    _assert_csv_spans_chunks(monkeypatch)


def test_csv_writer_spans_chunks_in_workers(monkeypatch):
    monkeypatch.setattr(cli, "_workers", lambda values: 3)
    _assert_csv_spans_chunks(monkeypatch)


def _loaded_by_cli_import(modules):
    """Which of ``modules`` a fresh interpreter holds after importing the CLI."""
    code = f"import sys, gravscatter.cli; print([m for m in {modules!r} if m in sys.modules])"
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    return run.stdout.strip()


def test_import_does_not_load_scipy():
    assert _loaded_by_cli_import(["scipy"]) == "[]"


def test_import_does_not_load_process_pools():
    # The table writer forks with os.fork; these would cost start-up time.
    assert _loaded_by_cli_import(["multiprocessing", "concurrent.futures"]) == "[]"
