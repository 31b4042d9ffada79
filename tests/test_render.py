"""The CSV and JSON renderers against Python's own formatting: every CSV
float cell must be ``format(v, ".17g")``, every JSON float cell ``repr(v)``
(json.dumps's spelling), and every integer cell ``str(i)``, byte for byte."""

import json
import math
from decimal import Decimal
from fractions import Fraction
from itertools import repeat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from summakit._csv import _CHUNK_CELLS, csv_text, float_cells, int_cells, json_rows, repr_cells


def cells_of(cells):
    """The rows of a cell array as strings, without their NUL padding."""
    return [b.replace(b"\0", b"").decode() for b in cells.view(f"S{cells.shape[1]}").ravel()]


def check_floats(values):
    """Renderer cells equal format() on every value; returns the fallback count."""
    values = np.asarray(values, np.float64)
    cells, slow = float_cells(values)
    want = list(map(format, values.tolist(), repeat(".17g")))
    # a float cell is its slot's bytes without their NUL padding
    text = b"\n".join(cells.view(f"S{cells.shape[1]}").ravel().tolist()).replace(b"\0", b"")
    if text != "\n".join(want).encode():
        got = cells_of(cells)
        bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
        pytest.fail(f"{len(bad)} cells differ from format(), e.g. {bad[:5]}")
    return int(slow.sum())


def reference_csv(table):
    """The row-by-row rendering the columnar one must equal."""
    def cell(v):
        return format(v, ".17g") if isinstance(v, float) else str(v)

    cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in table.values()]
    return "".join(",".join(map(cell, r)) + "\n" for r in [list(table), *zip(*cols)])


@given(st.lists(st.floats(), min_size=1, max_size=64))
@example([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
          2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308])
def test_hypothesis_floats(values):
    check_floats(values)


def test_negative_nan_prints_nan():
    nan = np.array([math.nan, -math.nan]).view(np.uint64)
    nan |= np.uint64(1) << np.uint64(63)  # every sign bit set
    assert cells_of(float_cells(nan.view(np.float64))[0]) == ["nan", "nan"]


def test_random_bit_patterns():
    rng = np.random.default_rng(20261018)
    slow = total = 0
    for _ in range(5):  # 1e6 patterns, 2e5 at a time
        bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
        slow += check_floats(bits.view(np.float64))
        total += bits.size
    assert slow / total < 0.01


def test_powers_of_ten_and_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    check_floats(np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
                                 -powers]))


def dyadic_ties():
    """Doubles m * 2**-n on a 17-digit rounding tie: m 5**n has 18 digits,
    the last a 5, so n <= 25 and the scale is 10**(n - 1).  For n >= 24
    that power is not a double; those nine are all there are."""
    ties = []
    for n in range(1, 26):
        first = -(-(10**17) // 5**n) | 1  # the smallest odd m with 18 digits
        for m in range(first, min((10**18 - 1) // 5**n + 1, 2**53), 2)[:12]:
            ties.append(math.ldexp(m, -n))
    return ties


def test_exact_ties_round_half_even():
    assert cells_of(float_cells(np.array([1234567890123456.25]))[0]) == ["1234567890123456.2"]
    assert cells_of(float_cells(np.array([3 * 2.0**-24]))[0]) == ["1.7881393432617188e-07"]
    ties = dyadic_ties()
    assert len(ties) > 200 and sum(v < 1e-6 for v in ties) == 9
    for v in ties:
        digits = Decimal(v).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    check_floats(ties + [-v for v in ties])


def near_ties(k, offsets):
    """Doubles v whose scaled x = v * 10**k lies j * 2**-51 from a half-integer,
    for each j of offsets: v = m * 2**(-51 - k) with m 5**k = 2**50 + j
    modulo 2**51.  Only k = 23 and 24 leave room for every such m."""
    out = []
    inverse = pow(5**k, -1, 2**51)
    low = -(-(10**16 * 2**51) // 5**k)
    for j in offsets:
        m = (2**50 + j) * inverse % 2**51
        m += max(0, -(-(low - m) // 2**51)) * 2**51
        v = math.ldexp(m, -51 - k)
        x = Fraction(v) * 10**k
        assert m < 2**53 and 10**16 <= x < 10**17
        assert x - math.floor(x) == Fraction(1, 2) + Fraction(j, 2**51)
        out.append(v)
    return out


def test_near_ties_take_the_fallback():
    # 10**23 and 10**24 are not doubles, so the scaled value carries a
    # rounding error; within 1e-9 of a tie the cell goes to format()
    values = near_ties(23, range(-40, 41)) + near_ties(24, range(-40, 41))
    assert check_floats(values) == len(values)


def test_exponent_off_by_one_is_caught(monkeypatch):
    # log10 rounding across a power of ten puts E one off; force it both
    # ways on every value: each cell must still equal format(), and no
    # cell away from a power of ten may keep the wrong E
    rng = np.random.default_rng(11)
    spread = 10.0 ** rng.uniform(-300, 300, 5_000)
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    log10 = np.log10
    for shift in (-1.0, 1.0):
        monkeypatch.setattr(np, "log10", lambda w, shift=shift: log10(w) + shift)
        check_floats(np.concatenate([spread, powers, np.nextafter(powers, np.inf)]))
        assert float_cells(spread)[1].all()


def test_integer_cells():
    rng = np.random.default_rng(7)
    edges = [10**k + d for k in range(19) for d in (-1, 0, 1)]
    values = np.array(edges[1:] + [0, 2**63 - 1, -(2**63) + 1], np.int64)
    values = np.concatenate([values, -values, rng.integers(0, 10**12, 20_000),
                             np.round(10.0 ** rng.uniform(0, 12, 20_000)).astype(np.int64)])
    assert cells_of(int_cells(values)) == [str(i) for i in values.tolist()]


def test_integer_cell_width_follows_the_data():
    # one call per largest magnitude: its digit count plus a byte for a sign
    cases = [[v] for v in (9, 10, 10**8 - 1, 10**8, 2**63 - 1, 0)]
    cases += [[s * (10**k - 1), s * 10 ** (k - 1), s * 7, 0] for k in range(1, 19) for s in (1, -1)]
    cases += [[-v for v in case] for case in cases[:6]]
    for values in cases:
        cells = int_cells(np.array(values, np.int64))
        assert cells.shape == (len(values), len(str(max(map(abs, values)))) + 1)
        assert cells_of(cells) == [str(v) for v in values]
    assert int_cells(np.array([], np.int64)).shape == (0, 2)


def test_integer_columns_up_to_1e12():
    step = 10**12 // 50_000 + 1
    table = {"i": range(0, 10**12 + 1, step), "j": np.arange(-10**12, 1, step)}
    assert csv_text(table) == reference_csv(table)


@pytest.mark.parametrize(
    "table",
    [
        {},
        {"x": []},
        {"x": np.array([], np.float64), "i": range(0)},
        {"x": [0.5, -0.0, 1e300], "n": [1, -2, 3], "mixed": ["a", 2.5, None]},
        {"flag": np.array([True, False]), "s": np.array(["p_mid", "q_aligned"])},
        {"f32": np.array([0.1, 3e38], np.float32), "u": np.array([0, 2**64 - 1], np.uint64)},
        {"big": [2**70, -(2**70)], "b": [True, False], "np": [np.int64(4), np.int64(-4)],
         "min": np.array([0, -(2**63)], np.int64), "range": range(2**63, 2**64, 2**62)},
        {"i": range(5, -5, -3), "x": np.array([math.inf, -math.inf, math.nan, 0.0])},
        {"unicode": ["é", "中"], "nul": ["a\0b", "\0"]},
    ],
    ids=lambda t: ",".join(t) or "empty",
)
def test_column_kinds(table):
    assert csv_text(table) == reference_csv(table)


def test_chunks_and_repeated_values():
    # several chunks, rows that repeat across and within chunks, columns
    # that differ in length (the table is as long as its shortest column)
    rng = np.random.default_rng(3)
    rows = 3 * _CHUNK_CELLS // 4 + 17
    pool = rng.standard_normal(50) * 10.0 ** rng.integers(-30, 30, 50)
    table = {
        "i": range(rows + 5),
        "x": pool[rng.integers(0, 50, rows)],
        "y": rng.standard_normal(rows + 1),
        "c": [pool[0]] * rows,
        "z": np.zeros(rows),
    }
    assert csv_text(table) == reference_csv(table)


# ---------------------------------------------------------------- repr cells


def check_reprs(values, spell=repr):
    """repr_cells' cells equal spell() on every value; returns the fallback
    count."""
    values = np.asarray(values, np.float64)
    cells, slow = repr_cells(values, spell)
    want = [spell(v) for v in values.tolist()]
    text = b"\n".join(cells.view(f"S{cells.shape[1]}").ravel().tolist()).replace(b"\0", b"")
    if text != "\n".join(want).encode():
        got = cells_of(cells)
        bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
        pytest.fail(f"{len(bad)} cells differ from {spell.__name__}(), e.g. {bad[:5]}")
    return int(slow.sum())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
@example([-0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 0.0001, 1e15, 1e16, 1e22, 2.0, 0.1,
          0.30000000000000004])
@example([0.0, math.inf, -math.inf, math.nan, 1.7976931348623157e308, 9.999999999999999e22,
          1e23, 0.9999999999999999, 123456789012345.67, 1234567890123456.8])
def test_repr_hypothesis_floats(values):
    check_reprs(values)
    check_reprs(values, json.dumps)


def test_repr_json_spellings():
    values = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, -1e16, 1e-5])
    cells, slow = repr_cells(values, json.dumps)
    assert cells_of(cells) == ["NaN", "Infinity", "-Infinity", "-0.0", "0.0", "1.0", "-1e+16",
                               "1e-05"]
    assert slow.tolist() == [True] * 3 + [False] * 5


def test_repr_random_bit_patterns():
    rng = np.random.default_rng(20261019)
    slow = total = 0
    for _ in range(5):  # 1e6 patterns, 2e5 at a time
        bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
        slow += check_reprs(bits.view(np.float64))
        total += bits.size
    assert slow / total < 0.01


def test_repr_common_values_take_no_fallback():
    # uniforms, running means, short decimals, integers and exact 16-digit
    # ties: none is a near-decision.  Integers of 17 to 20 digits often put
    # a 16-digit decimal exactly on the midpoint between a double and its
    # neighbour, which strtod settles by the parity of the mantissa:
    # repr() decides those (28% of the doubles in [1e16, 1e17), 5% in
    # [1e17, 1e18), few above).
    rng = np.random.default_rng(5)
    u = rng.random(50_000)
    values = np.concatenate([
        u, np.cumsum(u) / np.arange(1, u.size + 1), np.round(u * 1e6) / 1000,
        rng.integers(-(10**15), 10**15, 20_000).astype(float), u * 10.0 ** rng.integers(-30, 15, u.size),
    ])
    assert check_reprs(values) == 0
    assert check_reprs(u * 10.0 ** rng.integers(15, 30, u.size)) < 0.05 * u.size


def test_repr_powers_of_ten_and_two_with_neighbours():
    # below a power of two the gap to the lower neighbour is half as wide
    powers = np.concatenate([[float(f"1e{k}") for k in range(-323, 309)],
                             np.ldexp(1.0, np.arange(-1074, 1024))])
    check_reprs(np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
                                -powers]))


def decimal_ties(digits, count=12):
    """Doubles m * 2**-n that are (digits + 1)-digit decimals ending in 5: a
    tie between two digits-digit decimals.  m 5**n must have that many
    digits, and m < 2**53."""
    ties = []
    for n in range(1, 26):
        first = -(-(10**digits) // 5**n) | 1  # the smallest odd m with digits + 1 digits
        for m in range(first, min((10 ** (digits + 1) - 1) // 5**n + 1, 2**53), 2)[:count]:
            ties.append(math.ldexp(m, -n))
    return ties


@pytest.mark.parametrize("digits", [15, 16])
def test_repr_ties_and_near_ties(digits):
    # a 15-digit tie never reads back (15-digit decimals are spaced wider
    # than 4 ulps), so repr keeps all 16 digits; at a 16-digit tie both
    # neighbours may read back, and repr() itself picks one
    ties = decimal_ties(digits)
    assert len(ties) > 150
    for v in ties:
        d = Decimal(v).as_tuple().digits
        assert len(d) == digits + 1 and d[-1] == 5
    ties = np.array(ties)
    near = np.concatenate([np.nextafter(ties, 0), np.nextafter(ties, np.inf)])
    check_reprs(np.concatenate([ties, -ties, near]))
    if digits == 15:
        assert all(len(Decimal(r).as_tuple().digits) == 16 for r in map(repr, ties.tolist()))


def test_repr_short_decimals_and_their_neighbours():
    # decimals of 1 to 17 digits read back to the nearest double, whose repr
    # is often that decimal; one ulp off, it needs more digits
    rng = np.random.default_rng(9)
    texts = [f"{rng.integers(1, 10**k)}e{rng.integers(-40, 40)}" for k in range(1, 18) for _ in range(400)]
    values = np.array(list(map(float, texts)))
    check_reprs(np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, np.inf)]))


def test_repr_exponent_off_by_one_is_caught(monkeypatch):
    # as for float_cells: with log10 one off on every value, each cell must
    # still equal repr(), and no cell away from a power of ten may keep
    # the wrong E
    rng = np.random.default_rng(13)
    spread = 10.0 ** rng.uniform(-300, 300, 5_000)
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    log10 = np.log10
    for shift in (-1.0, 1.0):
        monkeypatch.setattr(np, "log10", lambda w, shift=shift: log10(w) + shift)
        check_reprs(np.concatenate([spread, powers, np.nextafter(powers, np.inf)]))
        assert repr_cells(spread)[1].all()


def reference_json(table, keys=False):
    """The row-by-row json.dumps the columnar rendering must equal."""
    cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in table.values()]
    rows = [dict(zip(table, r)) if keys else list(r) for r in zip(*cols)]
    return json.dumps(rows)


@pytest.mark.parametrize("keys", [False, True])
@pytest.mark.parametrize(
    "table",
    [
        {},
        {"x": []},
        {"x": np.array([], np.float64), "i": range(0)},
        {"x": [0.5, -0.0, 1e300], "n": [1, -2, 3], "mixed": ["a", 2.5, None]},
        {"flag": np.array([True, False]), "s": np.array(["p_mid", "q_aligned"])},
        {"i": range(5, -5, -3), "x": np.array([math.inf, -math.inf, math.nan, 0.0])},
        {"unicode": ["é", "中"], "nul": ["a\0b", "\0"], "quote": ['"', "\\"]},
        {"s": np.repeat(["p_aligned", "p_mid", "q_aligned", "q_mid"], [3, 2, 3, 2]),
         "k": np.arange(10), "v": np.linspace(-1, 1, 10)},
    ],
    ids=lambda t: ",".join(t) or "empty",
)
def test_json_column_kinds(table, keys):
    assert json_rows(table, json.dumps, keys) == reference_json(table, keys)


def test_json_chunks_and_repeated_values():
    rng = np.random.default_rng(4)
    rows = 3 * _CHUNK_CELLS // 4 + 17
    pool = rng.standard_normal(50) * 10.0 ** rng.integers(-30, 30, 50)
    table = {
        "i": range(rows + 5),
        "x": pool[rng.integers(0, 50, rows)],
        "y": rng.standard_normal(rows + 1),
        "s": np.repeat(np.array(["a", "bb"]), [rows // 3, rows - rows // 3]),
    }
    for keys in (False, True):
        assert json_rows(table, json.dumps, keys) == reference_json(table, keys)
