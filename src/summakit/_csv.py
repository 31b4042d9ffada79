"""CSV and JSON text of a column table, rendered column by column.

As CSV every float cell is exactly ``format(v, ".17g")`` and every integer
cell exactly ``str(i)``.  As JSON the rows are exactly what ``json.dumps``
writes for a list of lists, or of objects keyed by column name: a float
cell is ``repr(v)``, or ``NaN``, ``Infinity`` and ``-Infinity``, an integer
cell ``str(i)``, and any other cell the caller's encoding of it.

Each column's formatter is chosen once, from its type: float64 arrays and
lists of floats, int64 arrays and ranges, and everything else (strings,
mixed lists, other dtypes), which keeps one encoding call per cell (one
per run of equal values of a numpy string column).  The table is cut into
chunks of about ``_CHUNK_CELLS`` cells, so the temporary buffers stay a
few hundred kilobytes whatever the table's size.  Within a chunk the float
cells are deduplicated on their bit patterns and each distinct double is
formatted once.  Each cell is laid out in a slot of fixed width between
the constant bytes of its row (separators, brackets, keys), and the rows
are the bytes kept: all but the NUL padding of the slots.

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

The shortest digits that read back (``repr``, the digits Steele & White's
and Ryu's shortest modes give, U. Adams, PLDI 2018) come from the same x.
A decimal reads back as v when it lies within half the gap from v to its
neighbour on that side: on the x scale, half an ulp of |v| times
10**(16 - E), hi * 2**(e + shift - 54) within 2**-52 relative, and half
that below v when v is a power of two.  15-digit decimals are spaced wider
than 4 ulps, so at most one reads back, and if any decimal of 15 digits
or fewer does, it is the rounded 15-digit one, D15 = round(x / 100).
Otherwise the rounded 16-digit one, D16 = round(x / 10), is taken if it
reads back, or, below a power of two, the 16-digit decimal just above v
(the wider gap is on that side); and otherwise D, which always reads back.
The distances D15 * 100 - x and D16 * 10 - x are exact integers minus c,
so each decision is as accurate as c.  At a 16-digit tie two decimals may
read back, and ``repr`` takes the even one: so does an exact tie (10**k a
double and x = 10 j + 5).  Other cells within ``_TIE_MARGIN`` of a
decision or of a 16-digit tie go to ``repr()``, as do subnormals and the
cells ``format()`` would take; about 1 cell in 700 of random 64-bit
patterns.

Each cell is built from 8-byte words, every byte it does not use NUL: a
prefix (the sign and the "0.000" of fixed notation below 1), a body of
three words, and the exponent ("e-308"); each part is then cut to the
bytes the widest cell of the call uses.  The 17 digits come from a table
of the 4-digit groups 0000..9999.  The body is the digits before the
point, the point, and the digits after it: the digits are moved into
place a whole word at a time, twice (once for each side of the point),
and each copy is masked by a row of a table keyed by the point's place and
the body's length.  The layout is that of ``format``'s ``g`` type and of
``repr``: fixed notation for exponents -4 to 16 (to 15 for ``repr``,
which writes integral values with a trailing ``.0``), else scientific with
a signed exponent of at least two digits, trailing zeros and a bare
decimal point dropped.
"""

from __future__ import annotations

from functools import cache
from itertools import repeat

import numpy as np

from .summation import two_product

__all__ = ["csv_text", "json_rows", "float_cells", "repr_cells", "int_cells"]

_CHUNK_CELLS = 2**14  # 8192 rows of a two-column table
_TIE_MARGIN = 1e-9
# the scale 10**k, k = 16 - E, over E = floor(log10 |v|) of every finite
# nonzero double: E runs from -324 (subnormals) to 308
_K_MIN, _K_MAX = 16 - 308, 16 + 324
_ZERO = ord("0")
_TINY = 2.0**-1022  # the smallest normal double

# the longest body of a float cell, its digits and decimal point
# (1234567890123456.7), in three 8-byte words
_BODY = 18
_WORD = np.dtype("<u8")


@cache
def _quads() -> np.ndarray:
    """The ASCII digits of 0000 ... 9999, four bytes to a uint32."""
    q = np.arange(10000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10
    return (q + _ZERO).astype(np.uint8).view(np.uint32).ravel()


def _groups(u: np.ndarray, groups: int) -> np.ndarray:
    """(N, groups) int64: the 4-digit groups of the non-negative int64 u,
    the most significant first."""
    out = np.empty((u.size, groups), np.int64)
    for g in range(groups - 1, 0, -1):
        q = u // 10000
        out[:, g] = u - q * 10000
        u = q
    out[:, 0] = u
    return out


def _digits(u: np.ndarray, groups: int) -> np.ndarray:
    """(N, 4 * groups) ASCII digits of the non-negative int64 u, zero-padded."""
    return _quads().take(_groups(u, groups)).view(np.uint8)


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


@cache
def _bodies() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masks of the 24-byte body of a cell with its point at t (none for
    t = _BODY) and its first n bytes kept, row t * 19 + n, as three words:
    the digits before t, the digits shifted one right after it, and the
    point itself."""
    j = np.arange(24)
    t, n = np.divmod(np.arange(19 * 19), 19)
    t, keep = t[:, None], j < n[:, None]
    masks = (((j < t) & keep) * 0xFF, ((j > t) & keep) * 0xFF, ((j == t) & keep) * ord("."))
    return tuple(m.astype(np.uint8).view(_WORD) for m in masks)


@cache
def _affixes() -> tuple[np.ndarray, np.ndarray]:
    """The 8-byte words of the prefixes "", "0.", ..., "0.000" and "-" with
    each, and of the exponents "e-324" ... "e+308" (entry E + 324), then
    ""."""
    leads = ["", "0.", "0.0", "0.00", "0.000"]
    prefixes = leads + ["-" + lead for lead in leads]
    suffixes = [f"e{e:+03d}" for e in range(-324, 309)] + [""]
    return tuple(
        np.array([t.encode() for t in texts], "S8").view(_WORD) for texts in (prefixes, suffixes)
    )


@cache
def _layouts(top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The layout of a cell by its exponent E + 324 (E in -324..308) and,
    for the body, its digit count n: the _bodies row (point t and length;
    entry (E + 324) * 18 + n), the prefix (its count of leading "0."
    bytes) and the _affixes suffix.  Fixed notation for E in -4..top - 1,
    integral values with a trailing ".0" where top is 16 (repr)."""
    exp, ndig = np.arange(-324, 309)[:, None], np.arange(18)
    fixed = (exp >= -4) & (exp < top)
    whole = fixed & (exp >= 0)
    lead = fixed & (exp < 0)
    point = np.where(whole, exp + 1, np.where(lead, _BODY, 1))
    size = np.where(
        whole,
        np.where(ndig > exp + 1, ndig + 1, exp + 1 + 2 * (top == 16)),
        ndig + (~fixed & (ndig > 1)),
    )
    exp, lead, fixed = exp[:, 0], lead[:, 0], fixed[:, 0]
    # suffix 633 is the empty one
    return (point * 19 + size).ravel(), np.where(lead, -exp, 0), np.where(fixed, 633, exp + 324)


@cache
def _quad_zeros() -> np.ndarray:
    """The trailing zero digits of 0000 ... 9999, four for 0000."""
    q = np.arange(10000)
    return sum((q % 10**k == 0).astype(np.int8) for k in (1, 2, 3, 4))


def _scaled(x: np.ndarray):
    """The 17-digit scale of each double v of x: E = floor(log10 |v|) (0
    for zero and non-finite v), x = |v| * 10**(16 - E) = p + c, whether
    10**(16 - E) is a double, half an ulp of |v| on that scale, whether |v|
    is a power of two, and the cells no digits are made for here."""
    a = np.abs(x)
    finite = np.isfinite(a)
    w = np.where(finite & (a > 0), a, 1.0)
    exp = np.floor(np.log10(w)).astype(np.int64)
    hi, lo, shift = _powers()
    k = 16 - _K_MIN - exp
    m, e = np.frexp(w)
    e += shift[k]
    v = np.ldexp(m, e)
    p, err = two_product(v, hi[k])
    lo = lo[k]
    c = err + v * lo
    half_ulp = np.ldexp(hi[k], e - 54)
    slow = ~finite | ((p - 1e16) + c < -0.04) | ((p - 1e17) + c > -1.0)
    return w, exp, p, c, lo == 0, half_ulp, m == 0.5, slow


def _cells(x, d, exp, slow, top: int, spell) -> np.ndarray:
    """(N, W) uint8 slots of the 17-digit integers d (0 for zero) with
    exponents exp, W the bytes the widest cell needs: fixed notation for
    exp in -4..top - 1, integral values with a trailing ".0" where top is
    16 (repr); the slow cells are spell(v)."""
    n = d.size
    quads = _groups(d, 5)
    words = np.zeros(3 * n + 1, _WORD)
    digits = words[:-1].view(np.uint32).reshape(n, 6)
    digits[:, :5] = _quads().take(quads)
    digits[:, 5] = _quads()[0]
    # the 17 digits at bytes 3..19 of each row's three words, "0" around:
    # moved down 3 bytes they start the body, moved down 2 they follow the
    # point; what moves in from the next row lands past byte 20, outside
    # every body
    lo, hi = words[:-1], words[1:]
    # significant digits: up to the last nonzero one, one for zero
    zeros = _quad_zeros().take(quads)
    tz = zeros[:, 0]
    for g in range(1, 5):
        tz = zeros[:, g] + (zeros[:, g] == 4) * tz
    ndig = np.maximum(17 - tz, 1)
    at = np.clip(exp, -324, 308) + 324
    bodies, leads, exponents = _layouts(top)
    key = bodies.take(at * 18 + ndig)
    before, after, dot = (m.take(key, axis=0).ravel() for m in _bodies())
    body = np.empty((n, 3), _WORD)
    flat, spare = body.ravel(), np.empty(lo.size, _WORD)
    for out, down, mask in ((flat, 24, before), (spare, 16, after)):
        np.right_shift(lo, down, out=out)
        out |= hi << (64 - down)
        out &= mask
    flat |= spare
    flat |= dot
    prefixes, suffixes = _affixes()
    parts = (
        prefixes.take(leads.take(at) + 5 * np.signbit(x))[:, None],
        body,
        suffixes.take(exponents.take(at))[:, None],
    )
    # each part cut to the bytes some cell uses: the text of a prefix and
    # an exponent starts at its first byte, and a body is size bytes long
    sizes = [_bytes_used(parts[0]), int((key % 19).max(initial=0)), _bytes_used(parts[2])]
    texts = {i: spell(float(x[i])).encode() for i in np.flatnonzero(slow)}
    cells = np.zeros((n, max([sum(sizes)] + list(map(len, texts.values())))), np.uint8)
    start = 0
    for part, size in zip(parts, sizes):
        cells[:, start : start + size] = part.view(np.uint8)[:, :size]
        start += size
    for i, text in texts.items():
        cells[i] = 0
        cells[i, : len(text)] = np.frombuffer(text, np.uint8)
    return cells


def _bytes_used(words: np.ndarray) -> int:
    """The length of the longest of the left-aligned texts in words."""
    return (int(np.bitwise_or.reduce(words, axis=None, initial=0)).bit_length() + 7) // 8


def float_cells(x) -> tuple[np.ndarray, np.ndarray]:
    """``format(v, ".17g")`` of each double of the 1-d array x as ASCII.

    Returns (cells, slow): row i of the (N, W) uint8 array is cell i, its
    unused bytes NUL, W no wider than the cells need, and slow marks the
    cells ``format()`` wrote.
    """
    x = np.asarray(x, np.float64)
    _, exp, p, c, exact, _, _, slow = _scaled(x)
    r = np.rint(c)
    slow |= (np.abs(np.abs(c - r) - 0.5) < _TIE_MARGIN) & ~exact
    d = p.astype(np.int64) + r.astype(np.int64)
    d[slow | (x == 0)] = 0
    return _cells(x, d, exp, slow, 17, lambda v: format(v, ".17g")), slow


def repr_cells(x, spell=repr) -> tuple[np.ndarray, np.ndarray]:
    """``repr(v)`` of each double of the 1-d array x as ASCII, laid out as
    float_cells' cells; the cells it hands over are spell(v) (json.dumps
    for JSON's spellings of the non-finite values)."""
    x = np.asarray(x, np.float64)
    w, exp, p, c, exact, up, pow2, slow = _scaled(x)
    slow |= w <= _TINY  # at and below it the gaps are not those of normal doubles
    whole = p.astype(np.int64)
    r = np.rint(c)
    down = np.where(pow2, up / 2, up)  # the gap below a power of two is half as wide

    def nearest(scale):
        # the rounded decimal of x / scale (up at a tie), its distance to x
        # and its slack: |distance| less the half gap on its side, negative
        # where it reads back
        q = whole // scale
        digits = q + np.floor((whole - q * scale + c) / scale + 0.5).astype(np.int64)
        delta = (digits * scale - whole) - c
        return digits, delta, np.abs(delta) - np.where(delta > 0, up, down)

    d15, _, slack15 = nearest(100)
    d16, delta16, slack16 = nearest(10)
    # an exact 16-digit tie, x = 10 j + 5 with c exact and integral: repr
    # takes the even neighbour where both read back
    odd = exact & (c == r) & ((whole + r.astype(np.int64)) % 20 == 5)
    d16 -= odd
    delta16[odd] = -5.0
    slack16[odd] = 5.0 - down[odd]
    # below a power of two the decimal just above may read back where the
    # nearer one below does not
    bump = pow2 & (delta16 < 0) & (slack16 > _TIE_MARGIN)
    d16 += bump
    slack16 = np.where(bump, delta16 + 10 - up, slack16)
    ok15 = slack15 < -_TIE_MARGIN
    ok16 = ~ok15 & (slack16 < -_TIE_MARGIN)
    slow |= np.abs(slack15) <= _TIE_MARGIN
    slow |= ~ok15 & (np.abs(slack16) <= _TIE_MARGIN)
    slow |= ~ok15 & ~exact & (np.abs(np.abs(delta16) - 5) < _TIE_MARGIN)
    slow |= ~ok15 & ~ok16 & ~exact & (np.abs(np.abs(c - r) - 0.5) < _TIE_MARGIN)
    d = np.where(ok15, d15 * 100, np.where(ok16, d16 * 10, whole + r.astype(np.int64)))
    carry = d == 10**17  # rounded up to the next power of ten
    d[carry] = 10**16
    exp += carry
    d[slow | (x == 0)] = 0
    return _cells(x, d, exp, slow, 16, spell), slow


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


def _text_cells(part, encode) -> tuple[np.ndarray, np.ndarray | None]:
    """(N, W) uint8 cells of encode(v), padded with NUL bytes, and their
    lengths where some cell holds a NUL byte of its own (else None).  A
    numpy string column is encoded once per run of equal values."""
    if isinstance(part, np.ndarray) and part.dtype.kind in "US" and part.size:
        heads = np.flatnonzero(np.concatenate(([True], part[1:] != part[:-1])))
        runs = np.diff(heads, append=part.size)
        cells, lens = _text_cells(part[heads].tolist(), encode)
        return np.repeat(cells, runs, axis=0), None if lens is None else np.repeat(lens, runs)
    data = [encode(v).encode() for v in (part.tolist() if isinstance(part, np.ndarray) else part)]
    cells = np.array(data, dtype=f"S{max(1, max(map(len, data), default=0))}")
    cells = cells.view(np.uint8).reshape(len(data), -1)
    if b"\0" not in b"".join(data):
        return cells, None
    return cells, np.fromiter(map(len, data), np.int64, len(data))


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


def _chunk(columns, start: int, stop: int, floats, encode, pieces, tails) -> bytes:
    """The bytes of rows start..stop: pieces[0] first, pieces[j + 1] after
    cell j as uint8 arrays; tails is the (float columns, M) array of the
    pieces after the float cells, padded with NUL."""
    rows = stop - start
    values = [v[start:stop] for kind, v in columns if kind == "float"]
    if values:
        keys, inverse = np.unique(np.concatenate(values).view(np.uint64), return_inverse=True)
        distinct = floats(keys.view(np.float64))[0]
        width = distinct.shape[1]
        # each float cell's slot ends in the piece after it
        wide = np.zeros((keys.size, width + tails.shape[1]), np.uint8)
        wide[:, :width] = distinct
        slotted = np.take(wide, inverse, axis=0).reshape(len(values), rows, -1)
        slotted[:, :, width:] = tails[:, None, :]
        float_slots = iter(slotted)
    # each cell in a slot of fixed width between constant pieces; the row
    # is the bytes kept: all but the NUL padding of the cells, which for a
    # text cell holding NUL bytes of its own is all past its length
    slots = [np.broadcast_to(pieces[0], (rows, pieces[0].size))]
    texts, at = [], pieces[0].size
    for (kind, v), piece in zip(columns, pieces[1:]):
        if kind == "float":
            slots.append(next(float_slots))
            at += slots[-1].shape[1]
            continue
        if kind == "int":
            part = v[start:stop]
            if isinstance(part, range):
                part = np.arange(part.start, part.stop, part.step)
            cells = int_cells(part)
        else:
            cells, lens = _text_cells(v[start:stop], encode)
            if lens is not None:
                texts.append((slice(at, at + cells.shape[1]), lens))
        slots += [cells, np.broadcast_to(piece, (rows, piece.size))]
        at += cells.shape[1] + piece.size
    buf = np.concatenate(slots, axis=1)
    if not texts:
        return buf.tobytes().translate(None, b"\0")
    keep = buf != 0
    for cols, lens in texts:
        keep[:, cols] = np.arange(cols.stop - cols.start) < lens[:, None]
    return buf.ravel()[keep.ravel()].tobytes()


def _rows(table: dict, floats, encode, pieces) -> list[bytes]:
    """The bytes of the table's rows, a chunk at a time: pieces[0] first,
    pieces[j + 1] after cell j, float cells written by floats and every
    other cell that is not an int64 by encode."""
    columns = [_column(c) for c in table.values()]
    nrows = min((len(v) for _, v in columns), default=0)
    step = max(1, _CHUNK_CELLS // max(1, len(columns)))
    after = [piece for (kind, _), piece in zip(columns, pieces[1:]) if kind == "float"]
    tails = np.zeros((len(after), max(map(len, after), default=0)), np.uint8)
    for row, piece in zip(tails, after):
        row[: len(piece)] = np.frombuffer(piece, np.uint8)
    pieces = [np.frombuffer(piece, np.uint8) for piece in pieces]
    return [
        _chunk(columns, s, min(s + step, nrows), floats, encode, pieces, tails)
        for s in range(0, nrows, step)
    ]


def _csv_cell(v) -> str:
    return format(v, ".17g") if isinstance(v, float) else str(v)


def csv_text(table: dict) -> str:
    """The table (column name -> cells) as CSV: a header line, then one
    line per row, each line ending in a newline."""
    pieces = [b""] + [b","] * (len(table) - 1) + [b"\n"]
    head = (",".join(table) + "\n").encode()
    return b"".join([head] + _rows(table, float_cells, _csv_cell, pieces)).decode()


def json_rows(table: dict, encode, keys: bool = False) -> str:
    """``json.dumps`` of the table's rows, a list of lists, or with keys a
    list of objects keyed by column name.  encode(v) is the JSON text of
    v: of the column names, of the cells that are neither floats nor int64,
    and of the float cells repr_cells hands over."""
    if not table:
        return "[]"
    if keys:
        names = [encode(name).encode() + b": " for name in table]
        pieces = [b"{" + names[0]] + [b", " + n for n in names[1:]] + [b"}, "]
    else:
        pieces = [b"["] + [b", "] * (len(table) - 1) + [b"], "]
    rows = _rows(table, lambda x: repr_cells(x, encode), encode, pieces)
    if rows:  # every row ends in ", ", which the last one drops
        rows[-1] = memoryview(rows[-1])[:-2]
    return b"".join([b"["] + rows + [b"]"]).decode()
