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
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravscatter.amplitudes import (
    _NUMERATORS,
    PATTERN_NAMES,
    _closed_form_column,
    closed_form_grid,
    diagram_sum_grid,
)
from gravscatter import _json_floats, cli
from gravscatter._json_floats import json_values
from gravscatter.cli import _csv_pieces, _json_pieces, _render
from gravscatter.coincidence import coincidence_factor
from gravscatter.constants import COMPTON_WAVELENGTH, FINE_STRUCTURE, PLANCK_LENGTH
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


# One rule reads the angles of every function: a list or a tuple is the
# float64 array of its values, and a number gives a Python float from the
# column functions and a one-row grid from the grids.
SEQUENCE_FUNCTIONS = {**FUNCTIONS, "si_convert": lambda x: si_convert(x, 5e-7),
                      "closed_form_grid": closed_form_grid,
                      "diagram_sum_grid": diagram_sum_grid}


@pytest.mark.parametrize("kind", [list, tuple])
@pytest.mark.parametrize("name", SEQUENCE_FUNCTIONS)
def test_sequences_read_as_float64_arrays(name, kind):
    function = SEQUENCE_FUNCTIONS[name]
    angles = [0.3, 1.0, math.pi / 2, 2.9]
    expected = function(np.array(angles))
    values = function(kind(angles))
    assert isinstance(values, np.ndarray) and values.dtype == np.float64
    assert values.shape == expected.shape and np.array_equal(values, expected)
    if name.endswith("_grid"):
        assert np.array_equal(function(angles[0]), expected[:1])
    else:
        assert type(function(angles[0])) is float


# A number arrives as a Python float, a numpy float64 or a 0-d array: the
# demos iterate np.linspace. Each gives the Python float the array gives.
@pytest.mark.parametrize("name", [*FUNCTIONS, "si_convert"])
def test_numpy_scalars_and_0d_arrays_give_floats(name):
    function = SEQUENCE_FUNCTIONS[name]
    angles = DENSE[::50]
    column = function(angles)
    for angle, element in zip(angles, column.tolist()):
        for number in (np.float64(angle), np.array(angle)):
            value = function(number)
            assert type(value) is float, (type(number), type(value))
            assert value == element, (float(angle), value, element)


# Each column function beside its docstring formula evaluated out of place,
# one operation at a time in the same order: in IEEE arithmetic * and +
# commute exactly, but (1 - w) g g is ((1 - w) g) g.
def _averaged(t):
    half = 0.5 * t
    return (32.0 * (1.0 + np.float_power(np.cos(half), 16) + np.float_power(np.sin(half), 16))
            / np.float_power(np.sin(t), 4))


def _pqg(t, w):
    g = np.cos(t) + np.float_power(np.cos(t), 3)
    return 8.0 * (4.0 * (1.0 + w) + (1.0 - w) * g * g) / np.float_power(np.sin(t), 4)


def _bracket(t, w):
    c = np.cos(t)
    return (1.0 + w) * np.float_power(31.0 + 3.0 * c * c, 2) + (1.0 - w) * np.float_power(22.0 * c, 2)


def _qed_prefactor(wavelength):
    return (FINE_STRUCTURE ** 4 / (2.0 * 45.0 ** 2 * (2.0 * math.pi) ** 2)
            * COMPTON_WAVELENGTH ** 8 / wavelength ** 6)


def _references(wavelength=5e-7):
    """(name, function, reference) for each column function."""
    yield "dcs_averaged", dcs_averaged, _averaged
    for k, state in enumerate(STATES):
        w = state.interference_weight
        yield (f"dcs_entangled_pqg[{k}]", lambda t, s=state: dcs_entangled_pqg(t, s),
               lambda t, w=w: _pqg(t, w))
        yield (f"qed_bracket[{k}]", lambda t, s=state: qed_bracket(t, s),
               lambda t, w=w: _bracket(t, w))
        yield (f"dcs_entangled_qed[{k}]", lambda t, s=state: dcs_entangled_qed(t, s, wavelength),
               lambda t, w=w: _qed_prefactor(wavelength) * _bracket(t, w))
    yield ("si_convert", lambda x: si_convert(x, wavelength),
           lambda x: x * PLANCK_LENGTH ** 4 / wavelength ** 2)
    for k, state in enumerate(STATES):
        yield (f"coincidence_factor[{k}]", lambda d, s=state: coincidence_factor(d, s),
               lambda d, s=state: 1.0 + math.sin(2.0 * s.phi) * np.cos(d + s.rho))


REFERENCES = {name: (function, reference) for name, function, reference in _references()}


@pytest.mark.parametrize("name", REFERENCES)
def test_columns_keep_the_bits_of_their_formula(name):
    function, reference = REFERENCES[name]
    angles = DENSE.copy()
    column = function(angles)
    assert np.array_equal(angles, DENSE)
    assert not np.shares_memory(column, angles)
    assert column.dtype == np.float64 and column.shape == angles.shape
    assert np.array_equal(column, reference(DENSE))
    for angle in (1e-7, 0.3, math.pi / 2, 2.9):
        scalar = function(angle)
        assert type(scalar) is float
        assert scalar == reference(angle), angle


def test_coincidence_factor_keeps_its_bits_off_the_angle_range():
    phases = np.linspace(-50.0, 50.0, 20001)
    for k in range(len(STATES)):
        function, reference = REFERENCES[f"coincidence_factor[{k}]"]
        assert np.array_equal(function(phases), reference(phases))
        for phase in (-50.0, -1e-300, 0.0, 7.5, 1e15):
            assert function(phase) == reference(phase), phase


# Part of the contract, not of the formula: an array of another dtype is
# read as float64 first, so a float32 array gives its float64 copy's values
# rather than values from sin and cos taken in float32.
@pytest.mark.parametrize("name", REFERENCES)
def test_columns_read_other_dtypes_as_float64(name):
    function, _ = REFERENCES[name]
    for angles in (DENSE.astype(np.float32), np.arange(1, 4)):
        column = function(angles)
        assert column.dtype == np.float64
        assert np.array_equal(column, function(angles.astype(np.float64)))


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


def _one_pass_grid(theta):
    """The 16 closed forms with cos and sin^2 taken once for the whole grid."""
    c = np.cos(theta)
    sin_sq = np.float_power(np.sin(theta), 2)
    values = np.zeros(theta.shape + (2, 2, 2, 2))
    for pattern, numerator in _NUMERATORS.items():
        values[(slice(None), *(label - 1 for label in pattern))] = numerator(c) / sin_sq
    return values.reshape(len(theta), -1)


DENSE_ONE_PASS = _one_pass_grid(DENSE)


@pytest.mark.parametrize("k, pattern", list(enumerate(PATTERN_NAMES)))
def test_closed_form_column_is_its_grid_column(k, pattern):
    # Bit for bit, signed zeros included: %.9g prints -0.0 as "-0".
    expected = DENSE_ONE_PASS[:, k].view(np.uint64)
    column = _closed_form_column(DENSE, pattern)
    grid_column = closed_form_grid(DENSE).reshape(len(DENSE), -1)[:, k]
    assert column.dtype == grid_column.dtype == np.float64
    assert np.array_equal(column.view(np.uint64), expected)
    assert np.array_equal(grid_column.view(np.uint64), expected)


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


# Where repr's spelling changes below 2^50, the numpy kernel's domain:
# signed zeros, the subnormal and normal ends, the largest float below 2^50,
# 1e15 and its neighbours, the switch to scientific notation below 1e-4,
# and three-digit exponents.
KERNEL_EDGES = [0.0, -0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                math.nextafter(2.0 ** 50, 0.0), 1e-4, 1e-5, 1e-100, -1.5e-101, 1e-99,
                1.2345e-300, math.nextafter(1e15, 0.0), 1e15, math.nextafter(1e15, math.inf)]
# And from 2^50 up, where json.dumps spells the chunk: 2^50, 2^53 and its
# neighbours, the switch to scientific notation at 1e16, the largest floats
# and the non-finite values.
FALLBACK_EDGES = [2.0 ** 50, math.inf, -math.inf, math.nan, 1.7976931348623157e308,
                  -1.7976931348623157e308, 2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, 1e100,
                  1e99, 9.87e250,
                  *(x for p in (1e16, 1e17) for x in (math.nextafter(p, 0.0), p,
                                                      math.nextafter(p, math.inf)))]
EDGES = KERNEL_EDGES + FALLBACK_EDGES


def test_json_writer_spells_non_finite_values_like_json():
    payload = {"x": np.array([math.inf, -math.inf, math.nan, 1e-300, -0.0, *EDGES])}
    assert _json_text(payload) == json.dumps(_plain(payload), indent=2)


def test_json_values_equal_json_dumps_on_random_bit_patterns():
    # Every exponent, NaN payloads, infinities and subnormals, then round
    # values, which have the most digits to remove: the integers to 2^16 and
    # k 10^j, each with its two float neighbours. One job at a time.
    bits = np.random.default_rng(20).integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64)
    round_values = np.concatenate([
        np.arange(2.0 ** 16 + 1),
        [float(f"{k}e{j}") for k in range(1, 100) for j in range(-20, 21)]])
    values = np.concatenate([bits.view(np.float64), round_values,
                             np.nextafter(round_values, -math.inf),
                             np.nextafter(round_values, math.inf)])
    for start in range(0, len(values), 4096):
        chunk = values[start:start + 4096]
        assert json_values(", ", chunk) == json.dumps(chunk.tolist())[1:-1], start


@pytest.fixture
def kernel_only(monkeypatch):
    """json_values with its json.dumps fallback turned into a failure."""
    def fall_back(*args, **kwargs):
        raise AssertionError("a chunk below 2^50 fell back to json.dumps")

    monkeypatch.setattr(_json_floats, "json", SimpleNamespace(dumps=fall_back))


def _reference(chunk, sep=", "):
    return json.dumps(chunk.tolist(), separators=(sep, ": "))[1:-1]


def test_json_kernel_spells_random_bit_patterns_below_2_50(kernel_only):
    # Every exponent field below 1073, that is every magnitude below 2^50,
    # with random sign and mantissa bits, then the round values below 2^50
    # and their neighbours. No chunk may leave the kernel.
    rng = np.random.default_rng(21)
    sign, exponent, mantissa = (rng.integers(0, end, 10 ** 6, dtype=np.uint64)
                                for end in (2, 1073, 2 ** 52))
    bits = sign << np.uint64(63) | exponent << np.uint64(52) | mantissa
    round_values = np.concatenate([
        np.arange(2.0 ** 16 + 1),
        [float(f"{k}e{j}") for k in range(1, 100) for j in range(-20, 15)]])
    round_values = round_values[round_values < 2.0 ** 50]
    values = np.concatenate([bits.view(np.float64), round_values,
                             np.nextafter(round_values, -math.inf),
                             np.nextafter(round_values, math.inf)])
    assert np.all(np.abs(values) < 2.0 ** 50)
    for start in range(0, len(values), 4096):
        chunk = values[start:start + 4096]
        assert json_values(", ", chunk) == _reference(chunk), start


def test_json_kernel_spells_the_edges_below_2_50(kernel_only):
    chunk = np.array(KERNEL_EDGES)
    assert json_values(", ", chunk) == _reference(chunk)
    for value in KERNEL_EDGES:
        pair = np.array([value, -value])
        assert json_values(", ", pair) == _reference(pair)


# The kernel's own paths: a job of +0.0 alone is a repeated string; a zero
# among other values, or a job of zeros with a -0.0, takes the digits of
# 1.5, less 15; the sign and the "0.000" of 0.000ddd take a word only in
# jobs that have them; fixed and scientific rows take their layouts and
# exponent words from tables built on the first job.
KERNEL_PATHS = {
    "positive zeros": [0.0] * 9,
    "negative zeros": [-0.0] * 9,
    "mixed zeros": [0.0, -0.0, -0.0, 0.0, 0.0, -0.0],
    "one zero": [1.5, -2.25, 3e-7, 0.0, 123456.789, 0.1, 7.0],
    "one negative zero": [1.5, -0.0, 2.5e-300],
    "fixed": [1.0, 0.5, 123.456, 2.0 ** 49, 1e15, 0.0001, 0.001234, 99.99, 1e-4 * 3],
    "fixed, positive, from 1": [1.0, 10.0, 2.5, 123456789.125, 1e15 + 2],
    "fixed and scientific": [1.0, 1e-5, -0.5, 9.99e-5, 1.2345e-100, 5e-324, 0.0123, 42.0,
                             -7.1e-310, 3.0],
    "scientific": [1e-5, 2.5e-10, -3.75e-200, 1e-99, 1e-100, 2.2250738585072014e-308],
}


@pytest.mark.parametrize("sep", [", ", ",\n    ", ",\n                  ", ","])
@pytest.mark.parametrize("values", KERNEL_PATHS.values(), ids=KERNEL_PATHS)
def test_json_kernel_paths(kernel_only, values, sep):
    chunk = np.array(values)
    assert json_values(sep, chunk) == _reference(chunk, sep)
    assert json_values(sep, chunk[::-1]) == _reference(chunk[::-1], sep)


def test_json_kernel_text_does_not_depend_on_byte_order(kernel_only, monkeypatch):
    # A big-endian machine holds the same word values with their bytes in
    # the other order; the words are laid out little-endian before their
    # bytes are read, so the text is the same.
    words = _json_floats._words
    monkeypatch.setattr(_json_floats, "_words", lambda *args: words(*args).astype(">u8"))
    for values in KERNEL_PATHS.values():
        chunk = np.array(values)
        for sep in (", ", ",\n    "):
            assert json_values(sep, chunk) == _reference(chunk, sep)


def test_json_kernel_fills_its_exponent_table_in_any_order(kernel_only, monkeypatch):
    # Starting from an empty table, a second job brings exponents the first
    # did not, in no particular order; each exponent's column is filled once,
    # the first time a job holds it, and no other column is touched.
    monkeypatch.setattr(_json_floats, "_TERMS", np.zeros_like(_json_floats._TERMS))
    first = np.array([1.5, 3.0, 0.75, 1.25])
    second = np.array([2.0 ** -900, 1.5, 1e-5, 3e14, 5e-324, 0.75, 2.0 ** -1000, 7.0])
    seen = set()
    for chunk in (first, second, first[::-1]):
        assert json_values(", ", chunk) == _reference(chunk)
        seen |= set((chunk.view(np.uint64) >> np.uint64(52)).tolist())
        filled = np.flatnonzero(_json_floats._TERMS.any(axis=0))
        assert filled.tolist() == sorted(seen)
        for ex in filled.tolist():
            assert tuple(_json_floats._TERMS[:, ex].tolist()) == _json_floats._terms(ex)


def _multiplier(ex):
    return sum(limb << 32 * j for j, limb in enumerate(_json_floats._terms(ex)[:4]))


def test_json_kernel_bounds_hold_for_every_exponent():
    # _digits takes 2 or 3 digits off at first from the width of the
    # rounding interval, vp - vm, which must lie in [10, 999]: it is 4 mul
    # or, where the mantissa is a power of two, 3 mul over 2^121, give or
    # take one.
    for ex in range(1073):
        mul = _multiplier(ex)
        assert 10 <= (3 * mul >> 121) - 1 and (4 * mul >> 121) + 1 <= 999, ex


# Mantissas whose product's bits from 2^96 to 2^121 equal the top bits of
# 2^121 less the remainder of 2 mul (row 7 of the terms), or of that
# remainder (row 8): vp or vm then depends on lower bits, and the kernel
# takes their products itself. Found by a random search over mantissas at
# each exponent.
REMAINDER_TIES = [(1023, 7, "0x1.1405e70cfda1ap+0"), (1023, 8, "0x1.2d90e54796e5ap+0"),
                  (1000, 7, "0x1.5df51a76353c4p-23"), (1000, 8, "0x1.c3b1b4b8dbeaep-23"),
                  (700, 7, "0x1.f8fcb6059dce3p-323"), (700, 8, "0x1.8caf775eff470p-323"),
                  (1, 7, "0x1.69fc0d88099abp-1022"), (1, 8, "0x1.748027e60bfcep-1022"),
                  (0, 7, "0x0.e9a033a79171fp-1022"), (0, 8, "0x0.d6dcb9741cc3ep-1022")]


def test_json_kernel_takes_the_products_where_remainder_bits_tie(kernel_only):
    values = np.array([float.fromhex(text) for _, _, text in REMAINDER_TIES])
    for value, (ex, row, _) in zip(values.tolist(), REMAINDER_TIES):
        bits = np.array([value]).view(np.uint64)
        frac = int(bits[0]) & (1 << 52) - 1
        mv = np.array([(frac | (ex > 0) << 52) << 2], np.uint64)
        terms = np.array(_json_floats._terms(ex), np.uint64)[:, None]
        assert int(bits[0] >> np.uint64(52)) == ex
        assert _json_floats._mul_shift(mv, terms)[1][0] == terms[row, 0]
    for chunk in (values, -values, np.concatenate([values, [0.3, 1e-7, 2.5]])):
        assert json_values(", ", chunk) == _reference(chunk)
        for value in chunk.tolist():
            assert json_values(", ", np.array([value])) == repr(value)


@pytest.mark.parametrize("value", FALLBACK_EDGES)
@pytest.mark.parametrize("where", [0, 7, -1])
def test_one_value_from_2_50_up_sends_its_chunk_to_json_dumps(monkeypatch, value, where):
    # One value from 2^50 up, an infinity or a NaN among values the kernel
    # spells: json.dumps spells the whole chunk, in the kernel's layout.
    # The kernel's arithmetic holds below 2^50, where Ryu's binary exponent
    # is -5 or less; 2^50 itself must already fall back.
    calls = []

    def dumps(*args, **kwargs):
        calls.append(args)
        return json.dumps(*args, **kwargs)

    monkeypatch.setattr(_json_floats, "json", SimpleNamespace(dumps=dumps))
    chunk = np.array(KERNEL_EDGES)
    chunk[where] = value
    assert json_values(",\n  ", chunk) == _reference(chunk, ",\n  ")
    assert len(calls) == 1


def test_json_values_take_float64_only():
    # json spells an integer without ".0", so an int array must not pass as floats.
    with pytest.raises(TypeError, match="float64"):
        json_values(", ", np.arange(3))


@pytest.mark.parametrize("workers", [0, 3], ids=["in-process", "forked"])
def test_json_writer_spans_chunks(monkeypatch, workers):
    # Non-finite values in the first, a middle and the last chunk of 3.
    monkeypatch.setattr(cli, "_workers", lambda jobs: workers)
    monkeypatch.setattr(cli, "_CHUNK_VALUES", 3)
    column = np.arange(11.0) / 7.0
    column[[0, 4, 10]] = [math.inf, math.nan, -math.inf]
    payload = {"a": column, "b": {"c": column[:6], "d": 1.5}}
    assert _json_text(payload) == json.dumps(_plain(payload), indent=2)
    # A column gives its values on the grid's slices, computed in each job.
    text = _rendered(_json_pieces({"e": np.negative, "f": {"g": np.negative}}, column))
    assert text == json.dumps({"e": (-column).tolist(), "f": {"g": (-column).tolist()}},
                              indent=2)


def _looked_up(values):
    """A column that gives row k of ``values`` at the grid value k."""
    return lambda chunk: np.asarray(values)[chunk.astype(np.intp)]


@given(table=st.lists(st.tuples(floats, floats, floats), min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_csv_writer_matches_row_formatting(table):
    columns = {name: _looked_up(column) for name, column in zip("abc", zip(*table))}
    expected = "k,a,b,c\n" + "".join(
        ",".join(format(value, ".9g") for value in (k, *row)) + "\n"
        for k, row in enumerate(table))
    grid = np.arange(float(len(table)))
    assert _rendered(_csv_pieces({"k": grid, **columns})) == expected


def _assert_csv_spans_chunks(monkeypatch):
    monkeypatch.setattr(cli, "_CHUNK_VALUES", 6)  # 3 rows of 2 columns
    table = {"t": np.arange(10.0), "v": lambda t: t / 3.0}
    lines = _rendered(_csv_pieces(table)).splitlines()
    assert lines[0] == "t,v"
    assert lines[1:] == [f"{t:.9g},{t / 3.0:.9g}" for t in np.arange(10.0).tolist()]


def test_csv_writer_spans_chunks(monkeypatch):
    _assert_csv_spans_chunks(monkeypatch)


def test_csv_writer_spans_chunks_in_workers(monkeypatch):
    monkeypatch.setattr(cli, "_workers", lambda jobs: 3)
    _assert_csv_spans_chunks(monkeypatch)


def test_csv_jobs_hold_at_most_chunk_values():
    # amp-table's 17 columns: 240 whole rows a job, not 4096. A job holds a
    # view of its rows' grid slice; the other columns are computed as it runs.
    grid = np.arange(10_000.0)
    table = {"theta": grid, **{f"c{k}": np.negative for k in range(16)}}
    jobs = [piece.args[-1] for piece in _csv_pieces(table) if not isinstance(piece, str)]
    assert all(chunk.base is grid for chunk in jobs)
    assert max(17 * len(chunk) for chunk in jobs) == 17 * (cli._CHUNK_VALUES // 17)
    assert sum(len(chunk) for chunk in jobs) == 10_000


# tracemalloc sees numpy's buffers. A scan of N rows holds its grid, N
# floats, and one job's working set: a CSV job's values as Python floats and
# text, a JSON job's digit arrays. The bound is the grid plus 170 bytes a
# job value as CSV and 380 as JSON: 1.9 and 2.9 arrays of N at N = 1e5, and
# 1.2 and 1.5 at N = 4e5. With whole columns these scans peaked at 2.4-6.4
# arrays at N = 1e5, and amp-table at 22-24 at N = 2e4.
@pytest.mark.parametrize("argv, rows", [
    (["dcs-scan", "--units", "si", "--lambda", "5e-7", "--format", "csv"], 100_000),
    (["dcs-scan", "--units", "si", "--lambda", "5e-7", "--format", "json"], 100_000),
    (["qed-scan", "--lambda", "5e-7", "--format", "csv"], 100_000),
    (["qed-scan", "--lambda", "5e-7", "--format", "json"], 100_000),
    (["amp-table", "--format", "csv"], 20_000),
    (["amp-table", "--format", "json"], 20_000),
    (["coincidence-scan", "--format", "csv"], 100_000),
    (["coincidence-scan", "--format", "json"], 100_000),
    (["dcs-scan", "--units", "si", "--lambda", "5e-7", "--format", "csv"], 400_000),
    (["dcs-scan", "--units", "si", "--lambda", "5e-7", "--format", "json"], 400_000),
], ids=["dcs-csv", "dcs-json", "qed-csv", "qed-json", "amp-csv", "amp-json",
        "coincidence-csv", "coincidence-json", "dcs-csv-4e5", "dcs-json-4e5"])
def test_scans_hold_each_column_once(monkeypatch, argv, rows):
    monkeypatch.setattr(cli, "_workers", lambda jobs: 0)
    tracemalloc.start()
    try:
        assert cli.main([*argv, "--samples", str(rows), "--output", os.devnull]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_value = {"csv": 170, "json": 380}[argv[-1]]
    assert peak < 8 * rows + per_value * cli._CHUNK_VALUES, peak / (8 * rows)


def _loaded_by_cli_import(modules, argv=None):
    """Which of ``modules`` a fresh interpreter holds after importing the CLI.

    With ``argv``, the child first runs ``gravscatter.cli.main(argv)`` with
    its stdout sent to devnull, and it must exit 0.
    """
    code = "import sys, gravscatter.cli\n"
    if argv is not None:
        code += ("import contextlib, os\n"
                 "with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
                 f"    assert gravscatter.cli.main({argv!r}) == 0\n")
    code += f"print([m for m in {modules!r} if m in sys.modules])"
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    return run.stdout.strip()


def test_import_does_not_load_scipy():
    assert _loaded_by_cli_import(["scipy"]) == "[]"


def test_import_does_not_load_process_pools():
    # The table writer forks with os.fork; these would cost start-up time.
    assert _loaded_by_cli_import(["multiprocessing", "concurrent.futures"]) == "[]"


@pytest.mark.parametrize("argv, loaded", [
    (None, False),
    (["verify", "--samples", "5", "--format", "json"], False),
    (["dcs-scan", "--samples", "5"], False),
    (["dcs-scan", "--samples", "5", "--format", "json"], True),
], ids=["import", "verify-json", "scan-csv", "scan-json"])
def test_json_kernel_loads_only_for_json_arrays(argv, loaded):
    module = "gravscatter._json_floats"
    assert _loaded_by_cli_import([module], argv) == repr([module] if loaded else [])


def test_verify_does_not_load_numpy_random():
    # The gate draws nothing at random; loading numpy.random would cost
    # more time and memory than its whole gauge row.
    assert _loaded_by_cli_import(["numpy.random"], ["verify", "--samples", "5"]) == "[]"
