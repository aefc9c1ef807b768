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

The text of a value is built in 64-bit words, eight ASCII places each, the
first place in the low byte, with NUL in every place not shown. The words
are laid out little-endian, whatever the machine's byte order, and the NULs
are deleted from the whole job's bytes at the end. The tables of that text
are built when the module is imported, which the CLI does in its main
process for a JSON table only, so forked formatting workers inherit them.
"""

from __future__ import annotations

import json

import numpy as np

_U = np.uint64
_POW10 = np.array([10 ** k for k in range(20)], dtype=_U)
# Ryu's quantities for each biased exponent below 1073, one column each,
# filled on first use (see _terms); a column not yet filled is all zero.
# Filling all 1073 at import would take 4-7 ms, more than a call saves.
_TERMS = np.zeros((9, 1073), _U)


def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The text's tables, built once at import: layouts, exponents and quads.

    A forked worker inherits them from the process that imported the module.

    Column 21 digits + max(decpt, -4) of the layouts holds, for a value
    of ``digits`` digits whose point comes ``decpt`` places after the first
    (-4 stands for every scientific value): the power of ten that
    left-aligns the digits in 17 places; the one that puts a "0" in at
    place ``point``, which turns into the point: after the integral part,
    after the first digit in scientific notation, and past the digits shown
    where 0.000ddd has its point in the prefix; the prefix word, "0.000" cut
    to its places; then the three body words that take 2 from place
    ``point``, which turns its "0" into ".", and the three that keep the
    first ``shown`` places: an integral value shows its zeros and one after
    the point. Exponent word decpt + 323 is "e-" and the exponent's digits,
    from place 18, and 0 for a value in fixed notation. Quad k is the ASCII
    of k < 10^4 in four places.
    """
    layouts = []
    for digits, decpt in ((key // 21, key % 21 - 4) for key in range(4, 21 * 18)):
        point = decpt if decpt > 0 else 17 if decpt > -4 else 1
        shown = max(digits, decpt + 1) + 1 if decpt > 0 else digits + (decpt == -4 and digits > 1)
        prefix = 0x3030302E3000 & (1 << 24 - 8 * decpt) - 1 if -4 < decpt <= 0 else 0
        words = [x >> 64 * j & 2 ** 64 - 1 for x in (2 << 8 * point, (1 << 8 * shown) - 1)
                 for j in range(3)]
        layouts.append([10 ** (17 - digits), 10 ** (17 - point), prefix, *words])
    exponents = [int.from_bytes(b"\0\0e-%02d" % (1 - d), "little") for d in range(-323, -3)]
    quads = sum((np.arange(10 ** 4) // 10 ** (3 - j) % 10 + 48) << 8 * j for j in range(4))
    return np.array(layouts, _U).T.copy(), np.array(exponents + [0] * 20, _U), quads.astype("u4")


_LAYOUTS, _EXPONENTS, _QUADS = _tables()


def _terms(ex: int) -> tuple[int, ...]:
    """Ryu's quantities for the biased exponent ``ex`` below 1073, from Python ints.

    The binary exponent e2 is then -5 or less. Returns the four 32-bit limbs
    of the multiplier mul, shifted so that every exponent divides its
    products by 2^121 (it is below 2^128); the mask of the bits below the
    power of two whose multiples have an exact vr (2^63 where none has);
    minus the decimal exponent of vr, which is negative; then 2 mul as
    A 2^121 + rest: A, and the bits from 2^96 up of 2^121 - rest and of rest.
    """
    e2 = max(ex, 1) - 1077
    q = (-e2 * 732923 >> 20) - 1  # floor(-e2 log10 5), less one
    p5 = 5 ** (-e2 - q)
    mul = (p5 << 125) >> p5.bit_length() << (p5.bit_length() - q - 4)
    rest = 2 * mul & 2 ** 121 - 1
    return (*(mul >> 32 * j & 0xFFFFFFFF for j in range(4)), (1 << min(q, 63)) - 1, -e2 - q,
            2 * mul >> 121, 2 ** 121 - rest >> 96, rest >> 96)


def _mul_shift(m: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(m * mul / 2^121) and the bits of m * mul from 2^96 to 2^121, for m < 2^56.

    b holds the 32-bit limbs of mul < 2^128. The product is summed in 32-bit
    columns; before column j is complete, ``acc`` holds the carry and the
    high half of a0 * b[j - 1]. Column 3 ends at bit 128: its low 25 bits
    are the second result, and what lies above it, a1 * b[3] and the high
    half of a0 * b[3], is multiplied by 2^7.
    """
    a0, a1 = m & _U(2 ** 32 - 1), m >> _U(32)
    acc = a0 * b[0] >> _U(32)
    for j in (1, 2, 3):
        product = a0 * b[j]
        acc += (product & _U(2 ** 32 - 1)) + a1 * b[j - 1]
        acc = (acc >> _U(32)) + (product >> _U(32)) if j < 3 else acc
    return (acc >> _U(25)) + ((product >> _U(32)) + a1 * b[3] << _U(7)), acc & _U(2 ** 25 - 1)


def _digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shortest digits of nonzero values below 2^50 in magnitude.

    Returns them as an integer, with its digit count and decpt, the place of
    the decimal point counted from the first digit.
    """
    ex = (values.view(_U) >> _U(52) & _U(0x7FF)).astype(np.intp)
    frac = values.view(_U) & _U((1 << 52) - 1)
    # Fills the columns of the exponents seen for the first time.
    if not (filled := np.take(_TERMS[3], ex)).all():
        new = np.flatnonzero(np.bincount(ex[filled == 0]))
        _TERMS[:, new] = np.array([_terms(e) for e in new.tolist()], _U).T
    # Four times the mantissa m2; the ends of its rounding interval are
    # 4 m2 + 2 and 4 m2 - 2, or 4 m2 - 1 where m2 is a power of two.
    mv = (frac | (ex > 0) * _U(1 << 52)) << _U(2)
    closer = (frac == 0) & (ex > 1)
    # (mv +- 2) mul is mv mul +- (A 2^121 + rest): vp and vm are vr +- A,
    # and one more where rest carries past 2^121 or borrows from it. r, the
    # top bits of mv mul's own remainder, decides that unless they equal
    # rest's; those values, and those with a closer lower end, take the
    # products themselves.
    vr, r = _mul_shift(mv, np.take(_TERMS[:4], ex, axis=1))
    a, carry, borrow = np.take(_TERMS[6:], ex, axis=1)
    vp, vm = vr + a + (r > carry), vr - a - (r < borrow)
    rows = np.flatnonzero((r == carry) | (r == borrow) | closer)
    if rows.size:
        m, b = mv[rows] + _U(2), np.take(_TERMS[:4], ex[rows], axis=1)
        vp[rows], vm[rows] = _mul_shift(np.stack([m, m - _U(4) + closer[rows]]), b)[0]
    # Digits removed: the most for which a multiple of their power of ten
    # lies in (vm, vp]. vp - vm is between 30 and 400 (A is 20 to 199), so
    # 10 and 10^(2 or 3) have one; the next power has at most one, c p, and
    # if so its trailing zeros come off as well.
    removed = np.where((width := vp - vm) > _U(99), 3, 2)
    c = vp // (p := _POW10[removed])
    up = vp - c * p < width
    removed -= ~up
    rows = np.flatnonzero(up & (c == c // _U(10) * _U(10)))
    removed[rows] += (c[rows, None] % _POW10[1:18] == 0).sum(axis=1)
    p = _POW10[removed]
    out = vr // p
    half = (vr - out * p) * _U(2)
    # vr is exact when 4 m2 is a multiple of 2^q; then a removed part of
    # exactly one half rounds to even. Where nothing is removed, half = 0 < p.
    tie = (half == p) & ((mv & np.take(_TERMS[4], ex)) == 0) & ((out & _U(1)) == 0)
    out += (vm >= out * p) | ((half >= p) & ~tie)
    # The digits of out p, which lies in (vm, vp].
    places = np.searchsorted(_POW10, out * p, side="right")
    return out, places - removed, places - np.take(_TERMS[5], ex).astype(np.int64)


def _words(tail: bytes, chunk: np.ndarray) -> np.ndarray:
    """The text of a job in words of eight places, one column per value, with NUL between.

    Row by row: the sign and the "0.000" of 0.000ddd, if any value has
    either; three words of digits, point and exponent; then ``tail``, the
    separator, which the last value does not get.
    """
    signs, zero = np.signbit(chunk), chunk == 0.0
    # A zero takes the digits of 1.5, less 15.
    out, digits, decpt = _digits(np.where(zero, 1.5, chunk))
    out -= zero * _U(15)
    key = digits * 21 + np.maximum(decpt, -4)
    x = out * np.take(_LAYOUTS[0], key)
    y = x + x // (point := np.take(_LAYOUTS[1], key)) * point * _U(9)
    top, low = y // _U(10 ** 10), y // _U(100)
    halves = np.stack([top, low - top * _U(10 ** 8)])
    prefix = np.take(_LAYOUTS[2], key)
    lead = int(signs.any() or prefix.any())
    text = np.zeros((lead + 3 + (len(tail) + 7) // 8, len(chunk)), _U)
    body = text[lead:lead + 3]
    hi = halves // _U(10 ** 4)
    body[:2] = np.take(_QUADS, hi) | np.take(_QUADS, halves - hi * _U(10 ** 4)).astype(_U) << _U(32)
    body[2] = np.take(_QUADS, y - low * _U(100)) >> _U(16)
    body -= np.take(_LAYOUTS[3:6], key, axis=1)
    body &= np.take(_LAYOUTS[6:], key, axis=1)
    body[2] |= np.take(_EXPONENTS, decpt + 323)
    text[:lead] = signs * _U(ord("-")) | prefix
    text[lead + 3:, :-1] = np.frombuffer(tail + bytes(-len(tail) % 8), "<u8")[:, None]
    return text


def json_values(sep: str, chunk: np.ndarray) -> str:
    """json.dumps(chunk.tolist(), separators=(sep, ": "))[1:-1] for a 1-D float64 array.

    ``sep`` holds no NUL character. Any other dtype raises TypeError, since
    json spells an integer without ".0".
    """
    if chunk.dtype != np.float64:
        raise TypeError(f"json_values takes float64 values, not {chunk.dtype}")
    if not np.all(np.abs(chunk) < 2.0 ** 50):
        return json.dumps(chunk.tolist(), separators=(sep, ": "))[1:-1]
    if not chunk.view(_U).any():
        return sep.join(["0.0"] * len(chunk))
    words = _words(sep.encode(), chunk).T.astype("<u8", copy=False)
    return words.tobytes().translate(None, b"\0").decode()
