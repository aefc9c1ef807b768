"""JSON text of float64 arrays, with the digits of repr, computed in numpy.

json_values(sep, chunk) returns exactly
``json.dumps(chunk.tolist(), separators=(sep, ": "))[1:-1]``: each value as
``float.__repr__`` spells it, each followed by ``sep`` but the last. repr
prints the shortest digits that read back as the same float, nearest the
exact value, ties to even. For a chunk whose every value lies below 2^50 in
magnitude they are found here with the 64-bit integer arithmetic of Ryu's
``d2s`` (Ulf Adams, "Ryu: fast float-to-string conversion", PLDI 2018), over
whole arrays. There Ryu's binary exponent is -5 or less, so one branch of
its arithmetic serves every value, and every value is spelled in fixed
notation or with a negative exponent. Any other chunk, one holding a value
of 2^50 or more, an infinity or a NaN, is spelled by json.dumps itself.
Every table of the default grids stays on the kernel; a table reaches
json.dumps only near a pole (reduced cross sections within about 5e-4 of
one, amplitudes within about 1.2e-7), for QED cross sections at wavelengths
below about 2e-21 m, or for phases of 2^50 or more. json.dumps stays the
reference: tests/test_columns.py compares the two on random bit patterns,
in and out of the kernel's domain, and on an edge list.
"""

from __future__ import annotations

import json

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_POW10 = np.array([10 ** k for k in range(20)], dtype=_U)
# The places of a value's text: the sign; four for the zeros of 0.000ddd
# and 17 for the digits, with one for the point put in among them; "e",
# the exponent's sign and three digits; then the separator.
_BODY, _EXP, _WIDTH = 1, 23, 28


def _terms(ex: int) -> tuple[int, ...]:
    """Ryu's quantities for the biased exponent ``ex`` below 1073, from Python ints.

    The binary exponent e2 is then -5 or less. Returns the four 32-bit limbs
    of the multiplier (below 2^126), the shift s past 64 bits, 64 - s, the
    exponent of the power of two whose multiples have an exact vr (63 where
    none has), and minus the decimal exponent of vr, which is negative.
    """
    e2 = max(ex, 1) - 1077
    q = (-e2 * 732923 >> 20) - 1  # floor(-e2 log10 5), less one
    p5 = 5 ** (-e2 - q)
    mul, shift = (p5 << 125) >> p5.bit_length(), q - p5.bit_length() + 125
    limbs = tuple(mul >> 32 * j & 0xFFFFFFFF for j in range(4))
    return limbs + (shift - 64, 128 - shift, min(q, 63), -e2 - q)


def _mul_shift(m: np.ndarray, u: np.ndarray) -> np.ndarray:
    """floor(m * mul / 2^(64 + s)) for m < 2^56, where u holds, for each value,
    the four 32-bit limbs b of mul, then s and 64 - s.

    The product is summed in 32-bit columns of uint64 arrays; before column
    j is complete, ``acc`` holds the carry and the high half of a0 * b[j - 1].
    """
    a0, a1 = m & _M32, m >> _U(32)
    acc, words = a0 * u[0] >> _U(32), []
    for j in (1, 2, 3):
        product = a0 * u[j]
        acc += (product & _M32) + a1 * u[j - 1]
        words.append(acc & _M32)
        acc = (acc >> _U(32)) + (product >> _U(32))
    acc += a1 * u[3]
    return (((words[2] << _U(32)) | words[1]) >> u[4]) | (acc << u[5])


def _digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest digits of nonzero values below 2^50, as an integer and its power of ten."""
    bits = values.view(_U)
    ex = ((bits >> _U(52)) & _U(0x7FF)).astype(np.intp)
    frac = bits & _U((1 << 52) - 1)
    # Ryu's quantities for each exponent in the chunk, then for each value.
    exps = np.flatnonzero(np.bincount(ex, minlength=1))
    column = np.zeros(0x7FF, np.intp)
    column[exps] = np.arange(len(exps))
    *u, minus_e10 = np.take(np.array([_terms(e) for e in exps.tolist()], _U).T, column[ex], axis=1)
    # Four times the mantissa, and the ends of its rounding interval: the
    # lower end is closer where the mantissa is a power of two.
    mv = (frac | (ex > 0) * _U(1 << 52)) << _U(2)
    mm_shift = (frac != 0) | (ex <= 1)
    vr, vp, vm = (_mul_shift(m, u) for m in (mv, mv + _U(2), mv - _U(1) - mm_shift))
    # Digits removed: at least as many as vp - vm has, then one more while
    # the interval still holds two numbers that differ in the next digit.
    removed = np.searchsorted(_POW10, vp - vm, side="right") - 1
    p = _POW10[removed + 1]
    rows = np.flatnonzero(vp // p > vm // p)
    while rows.size:
        removed[rows] += 1
        p = _POW10[removed[rows] + 1]
        rows = rows[vp[rows] // p > vm[rows] // p]
    p = _POW10[removed]
    out = vr // p
    half = (vr - out * p) * _U(2)
    # vr is exact when 4 m2 is a multiple of 2^tz_bits; then a removed part
    # of exactly one half rounds to even. Where nothing is removed, half = 0 < p.
    tie = (half == p) & ((mv & ((_U(1) << u[6]) - _U(1))) == 0) & (out % _U(2) == 0)
    out += (out == vm // p) | ((half >= p) & ~tie)
    return out, removed - minus_e10.astype(np.int64)


def json_values(sep: str, chunk: np.ndarray) -> str:
    """json.dumps(chunk.tolist(), separators=(sep, ": "))[1:-1] for a 1-D float64 array.

    ``sep`` holds no NUL character. Any other dtype raises TypeError, since
    json spells an integer without ".0".
    """
    if chunk.dtype != np.float64:
        raise TypeError(f"json_values takes float64 values, not {chunk.dtype}")
    if not np.all(np.abs(chunk) < 2.0 ** 50):
        return json.dumps(chunk.tolist(), separators=(sep, ": "))[1:-1]
    n, tail = len(chunk), np.frombuffer(sep.encode(), np.uint8)
    regular = chunk != 0.0
    out, e = np.zeros(n, _U), np.zeros(n, np.int64)
    if regular.any():
        out[regular], e[regular] = _digits(chunk[regular])
    digits = np.maximum(np.searchsorted(_POW10, out, side="right"), 1)
    decpt = e + digits  # where the point goes, counted from the first digit
    fixed = decpt > -4  # below 2^50, decpt is at most 16
    # Text is built one place per row, one value per column, and transposed
    # at the end. The body: a NUL, four places for the zeros of 0.000ddd,
    # then the 17 digits left-aligned, then a NUL. The digits are spelled
    # from two halves of nine; the first place of the high half is always 0
    # and is overwritten by the zeros. An integral value shows its zeros and
    # one after the point; a digit not shown is NUL.
    body = np.zeros((23, n), np.uint8)
    x = out * _POW10[17 - digits]
    high = x // _U(10 ** 9)
    halves = np.stack([high, x - high * _U(10 ** 9)]).astype(np.uint32)
    for j in range(8, -1, -1):
        quotient = halves // np.uint32(10)
        body[4 + j], body[13 + j] = halves - quotient * np.uint32(10)
        halves = quotient
    body[5:22] += ord("0")
    body[5:22] *= np.arange(17)[:, None] < np.where(fixed, np.maximum(digits, decpt + 1), digits)
    first_zero = np.where(fixed & (decpt <= 0), 3 + decpt, 4)
    body[1:5] = (np.arange(4)[:, None] >= first_zero) * np.uint8(ord("0"))
    # The decimal point takes place ``point`` of the 22 after the sign; the
    # body places before it move one place left.
    point = 4 + np.where(fixed, decpt, 1)
    text = np.zeros((_WIDTH + len(tail), n), np.uint8)
    text[0] = (chunk.view(_U) >> _U(63)) * _U(ord("-"))
    text[_BODY:_EXP] = body[:22] + (body[1:] - body[:22]) * (np.arange(22)[:, None] < point)
    text[_BODY + point, np.arange(n)] = (fixed | (digits > 1)) * ord(".")
    # The exponent of the scientific rows, all below 1e-4.
    power = 1 - decpt
    text[_EXP:_EXP + 2] = np.frombuffer(b"e-", np.uint8)[:, None]
    text[_EXP + 2] = (power // 100 + ord("0")) * (power >= 100)
    text[_EXP + 3] = power // 10 % 10 + ord("0")
    text[_EXP + 4] = power % 10 + ord("0")
    text[_EXP:_WIDTH] *= ~fixed
    text[_WIDTH:, :-1] = tail[:, None]
    # Places that are NUL in every value need not be transposed.
    return text[text.any(axis=1)].T.tobytes().translate(None, b"\0").decode()
