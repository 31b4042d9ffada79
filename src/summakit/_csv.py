"""CSV text of a column table, with every float cell exactly
``format(v, ".17g")`` and every integer cell exactly ``str(i)``.

Each column's formatter is chosen once, from its type: float64 arrays and
lists of floats, int64 arrays and ranges, and everything else (strings,
mixed lists, other dtypes), which keeps one ``str`` per cell.  The table
is cut into chunks of about ``_CHUNK_CELLS`` cells, so the temporary
buffers stay a few hundred kilobytes whatever the table's size.  Within a
chunk the float cells are deduplicated on their bit patterns and each
distinct double is formatted once.

Seventeen significant digits (the fixed-precision mode of Ryu printf,
U. Adams, OOPSLA 2019, done here with double-double arithmetic): for a
finite nonzero double v with E = floor(log10 |v|), the digits are the
integer D nearest to x = |v| * 10**(16 - E), ties to even, in
[10**16, 10**17).  10**k is held as (hi + lo) * 2**shift with hi in [1, 2)
and |hi + lo - 10**k / 2**shift| below 2**-105 relative, built on first
use from exact rationals.  |v| = m * 2**e is rescaled exactly to
v' = m * 2**(e + shift), a double near x, and Dekker's TwoProduct gives
v' * hi = p + err exactly, so x = p + c with c = err + v' * lo.  The
error of the computed c is a few 2**-50 (rounding of v' * lo and of the
sum, each below 2**-49, and the 2**-105 relative error of hi + lo on
x < 10**17, about 1.2e-15): at most about 1e-14 on the 17-digit integer.
p >= 2**53 is an even integer, so D = p + rint(c) with numpy's
half-to-even rint rounds x correctly unless x lies within 1e-14 of a
half-integer.  Where 10**k is itself a double (0 <= k <= 22), lo = 0 and
c is exact, so rint settles even an exact tie such as 1234567890123456.25.
Elsewhere the cells with |frac(c)| within ``_TIE_MARGIN`` = 1e-9 of 1/2
are given to ``format()``, a margin 1e5 times the error.  So are the
non-finite cells, and the rare cells where log10 rounds across a power of
ten, so that x falls below 10**16 - 0.04 or within 1 of 10**17.  (x in
[10**16 - 0.05, 10**16) prints the same as with the smaller exponent, as
10x rounds up to 10**17.)  On random 64-bit patterns about 1 cell in 2000
goes to ``format()``, nearly all of them NaN or infinite.

Each cell is laid out as ASCII bytes: the digits come from a table of the
4-digit groups 0000..9999, and a template keyed by sign, fixed or
scientific notation, exponent and digit count picks the bytes of the
cell, as ``format`` does for the ``g`` type: fixed notation for exponents
-4 to 16, else scientific with a signed exponent of at least two digits,
trailing zeros and a bare decimal point dropped.
"""

from __future__ import annotations

from functools import cache
from itertools import repeat

import numpy as np

from .summation import two_product

__all__ = ["csv_text", "float_cells", "int_cells"]

_CHUNK_CELLS = 2**14  # 8192 rows of a two-column table
_TIE_MARGIN = 1e-9
# the scale 10**k, k = 16 - E, over E = floor(log10 |v|) of every finite
# nonzero double: E runs from -324 (subnormals) to 308
_K_MIN, _K_MAX = 16 - 308, 16 + 324
_ZERO = ord("0")

# byte positions in the row a float cell is laid out from: the 17 digits,
# then these, the exponent's sign and three digits, and a NUL that pads
# the cell; NUL bytes are dropped when the cells are joined into lines
_MINUS, _POINT, _ZEROS, _E, _ESIGN, _E100, _NUL = 17, 18, 19, 20, 21, 22, 25
_FLOAT_WIDTH = 24  # the longest cell: -1.2345678901234567e-308


@cache
def _quads() -> np.ndarray:
    """The ASCII digits of 0000 ... 9999, four bytes to a uint32."""
    q = np.arange(10000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10
    return (q + _ZERO).astype(np.uint8).view(np.uint32).ravel()


def _digits(u: np.ndarray, groups: int) -> np.ndarray:
    """(N, 4 * groups) ASCII digits of the non-negative int64 u, zero-padded."""
    quads = np.empty((u.size, groups), np.int64)
    for g in range(groups - 1, 0, -1):
        q = u // 10000
        quads[:, g] = u - q * 10000
        u = q
    quads[:, 0] = u
    return _quads()[quads].view(np.uint8)


@cache
def _powers() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """hi, lo, shift with 10**k = (hi + lo) * 2**shift within 2**-105
    relative, hi in [1, 2), entry k - _K_MIN for k in [_K_MIN, _K_MAX].
    Python's int / int is correctly rounded, so both parts come from exact
    integers."""
    hi, lo, shift = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        b = num.bit_length() - den.bit_length()
        num, den = (num, den << b) if b >= 0 else (num << -b, den)
        if num < den:  # num / den in (1/2, 1): move one more 2 into the scale
            num, b = 2 * num, b - 1
        h = num / den
        hi.append(h)
        lo.append((num * 2**52 - int(h * 2**52) * den) / (den * 2**52))
        shift.append(b)
    return np.array(hi), np.array(lo), np.array(shift, np.int64)


def _layout(neg: bool, exp: int, ndig: int, fixed: bool) -> list[int]:
    digits = list(range(ndig))
    if not fixed:
        mantissa = digits[:1] + ([_POINT] + digits[1:] if ndig > 1 else [])
        cell = mantissa + [_E, _ESIGN] + list(range(_E100 + (abs(exp) < 100), _E100 + 3))
    elif exp < 0:
        cell = [_ZEROS, _POINT] + [_ZEROS] * (-exp - 1) + digits
    elif ndig <= exp + 1:
        cell = digits + [_ZEROS] * (exp + 1 - ndig)
    else:
        cell = digits[: exp + 1] + [_POINT] + digits[exp + 1 :]
    return [_MINUS] * neg + cell


# template key: sign * _SIGNED + fixed (exponent -4..16) * 17 + digits - 1,
# or _FIXED + (digits - 1) * 2 + (|exponent| >= 100) in scientific notation
_FIXED = 21 * 17
_SIGNED = _FIXED + 17 * 2


@cache
def _templates() -> np.ndarray:
    """Source positions of each template's bytes, padded with _NUL."""
    cells = []
    for neg in (False, True):
        cells += [_layout(neg, x, n, True) for x in range(-4, 17) for n in range(1, 18)]
        cells += [_layout(neg, x, n, False) for n in range(1, 18) for x in (10, 100)]
    table = np.full((len(cells), _FLOAT_WIDTH), _NUL, np.intp)
    for row, cell in zip(table, cells):
        row[: len(cell)] = cell
    return table


def float_cells(x) -> tuple[np.ndarray, np.ndarray]:
    """``format(v, ".17g")`` of each double of the 1-d array x as ASCII.

    Returns (cells, slow): row i of the (N, 24) uint8 array is cell i,
    padded with NUL bytes, and slow marks the cells ``format()`` wrote.
    """
    x = np.asarray(x, np.float64)
    a = np.abs(x)
    finite = np.isfinite(a)
    nonzero = finite & (a > 0)
    w = np.where(nonzero, a, 1.0)
    exp = np.floor(np.log10(w)).astype(np.int64)
    hi, lo, shift = _powers()
    k = 16 - _K_MIN - exp
    m, e = np.frexp(w)
    v = np.ldexp(m, e + shift[k])
    p, err = two_product(v, hi[k])
    c = err + v * lo[k]
    r = np.rint(c)
    slow = (
        ~finite
        | ((np.abs(np.abs(c - r) - 0.5) < _TIE_MARGIN) & (lo[k] != 0))
        | ((p - 1e16) + c < -0.04)
        | ((p - 1e17) + c > -1.0)
    )
    d = np.where(nonzero & ~slow, p.astype(np.int64) + r.astype(np.int64), 0)

    src = np.empty((x.size, _NUL + 1), np.uint8)
    src[:, :17] = _digits(d, 5)[:, 3:]
    src[:, _MINUS:_ESIGN] = np.frombuffer(b"-.0e", np.uint8)
    src[:, _ESIGN] = np.where(exp < 0, ord("-"), ord("+"))
    src[:, _E100:_NUL] = _digits(np.abs(exp), 1)[:, 1:]
    src[:, _NUL] = 0
    # significant digits: up to the last nonzero one, one for zero
    ndig = 17 - np.argmax(src[:, 16::-1] != _ZERO, axis=1)
    zero = d == 0
    ndig[zero] = 1
    exp[zero] = 0
    key = np.where(
        (exp >= -4) & (exp < 17),
        (np.clip(exp, -4, 16) + 4) * 17 + ndig - 1,
        _FIXED + (ndig - 1) * 2 + (np.abs(exp) >= 100),
    ) + _SIGNED * np.signbit(x)
    index = np.take(_templates(), key, axis=0)
    index += np.arange(0, src.size, src.shape[1])[:, None]
    cells = np.take(src.ravel(), index)
    for i in np.flatnonzero(slow):
        text = format(float(x[i]), ".17g").encode()
        cells[i] = 0
        cells[i, : len(text)] = np.frombuffer(text, np.uint8)
    return cells, slow


_POW10 = np.array([10**k for k in range(1, 19)], np.int64)


def int_cells(x) -> np.ndarray:
    """``str(i)`` of each entry of the 1-d int64 array x (no entry -2**63)
    as ASCII: (N, W) uint8, each cell right-aligned after NUL bytes, W the
    digit count of the largest |i| plus one byte for a sign."""
    x = np.asarray(x, np.int64)
    neg = x < 0
    u = np.abs(x)
    width = 2 + int(np.searchsorted(_POW10, u.max(initial=0), side="right"))
    digits = _digits(u, -(-width // 4))[:, -width:]
    # the first significant digit's column; the sign goes just before it
    first = width - 1 - np.searchsorted(_POW10, u, side="right")
    cells = np.multiply(digits, np.arange(width) >= first[:, None])
    cells[np.flatnonzero(neg), first[neg] - 1] = ord("-")
    return cells


def _text_cells(values) -> tuple[np.ndarray, np.ndarray]:
    data = [
        (format(v, ".17g") if isinstance(v, float) else str(v)).encode() for v in values
    ]
    lens = np.fromiter(map(len, data), np.int64, len(data))
    cells = np.array(data, dtype=f"S{max(1, int(lens.max(initial=0)))}")
    return cells.view(np.uint8).reshape(len(data), -1), lens


def _column(col) -> tuple[str, object]:
    """('float', float64 array), ('int', int64 array or range) or ('text',
    cells): the column's formatter, chosen once.  int_cells takes no -2**63."""
    if isinstance(col, range):
        ends = (col[0], col[-1]) if col else (0, 0)
        return ("int" if -(2**63) < min(ends) and max(ends) < 2**63 else "text"), col
    if isinstance(col, np.ndarray):
        if col.dtype == np.float64:
            return "float", col
        if col.dtype == np.int64 and (not col.size or col.min() > -(2**63)):
            return "int", col
        return "text", col
    if all(map(isinstance, col, repeat(float))):
        return "float", np.array(col, np.float64)
    return "text", col


def _chunk(columns, start: int, stop: int) -> bytes:
    rows = stop - start
    floats = [v[start:stop] for kind, v in columns if kind == "float"]
    if floats:
        keys, inverse = np.unique(np.concatenate(floats).view(np.uint64), return_inverse=True)
        distinct = np.full((keys.size, _FLOAT_WIDTH + 1), ord(","), np.uint8)
        distinct[:, :-1] = float_cells(keys.view(np.float64))[0]
        float_slots = iter(distinct[inverse.reshape(len(floats), rows)])
    # each cell in a slot of fixed width, then its separator; the line is
    # the bytes kept: all but the NUL padding of float and integer cells,
    # and of a text cell the first lens bytes
    slots, texts, at = [], [], 0
    separator = np.full((rows, 1), ord(","), np.uint8)
    for kind, v in columns:
        if kind == "float":
            slots.append(next(float_slots))
            at += _FLOAT_WIDTH + 1
            continue
        part = v[start:stop]
        if kind == "int":
            if isinstance(part, range):
                part = np.arange(part.start, part.stop, part.step)
            cells = int_cells(part)
        else:
            cells, lens = _text_cells(part.tolist() if isinstance(part, np.ndarray) else part)
            texts.append((slice(at, at + cells.shape[1]), lens))
        slots += [cells, separator]
        at += cells.shape[1] + 1
    buf = np.concatenate(slots, axis=1)
    buf[:, -1] = ord("\n")
    keep = buf != 0
    for cols, lens in texts:
        keep[:, cols] = np.arange(cols.stop - cols.start) < lens[:, None]
    return buf.ravel()[keep.ravel()].tobytes()


def csv_text(table: dict) -> str:
    """The table (column name -> cells) as CSV: a header line, then one
    line per row, each line ending in a newline."""
    columns = [_column(c) for c in table.values()]
    nrows = min((len(v) for _, v in columns), default=0)
    step = max(1, _CHUNK_CELLS // max(1, len(columns)))
    parts = [(",".join(table) + "\n").encode()]
    parts += [_chunk(columns, s, min(s + step, nrows)) for s in range(0, nrows, step)]
    return b"".join(parts).decode()
