"""Sequence transforms: Cesaro means, p-binomial means, their composition,
and the weight-table representation of the Cesaro-of-binomial transform.

A transform prefix of horizon H is the vector of transform values at indices
0..H.  A p-binomial mean sum_i B(n,i,p) a_i of a geometric sequence a**n
takes its closed form (q + p a)**n (_geometric_means).  For any other, a
prefix or an array of point queries is read once up to the largest n as its
support (a dense sequence as the support of every index) and goes through
one kernel call, _binomial_means_sparse.  A lone point query (_lone_row)
reads its row's window, at most twice, through the sequence's one term rule
(see RealSequence), the same terms by the same routines, so the same bits;
a row those reads do not settle is one such kernel row.

The masses come from binomial_kernel; this module only weights them.  Row 0
is a_0 itself, and a row whose terms up to n are not all finite is not
built: its weights are all positive, so it is +-inf for one infinity and NaN
for a NaN or both.  One pass of running extrema finds those rows and every
other row's peak, the largest |a_i| for i <= n.  Any other row is weighted
near its mode m, inside the window m +- W with W = ceil(9 sqrt(n p q)) +
30, and certified (_certified): the mass it drops, times its peak, must be
at most 2**-53 of the row's kept sum_i B(n,i,p) |a_i|.

* Ratio products (_routed_means): a row n >= 1 whose window holds support
  on at least 1/4 of its indices inside [0, n] (every dense row, islets
  rows in and near an island, spike rows at small n) is weighted by one
  kernel, _block, in a block of rows that share one window of _unit_window
  products.  B(n0 + j, .) = B(n0, .) * B(j, .) (Vandermonde's identity,
  the semigroup of Euler means): a block weights row n0's products over
  m0 +- W' (W' = W of n0 rounded up to a multiple of 16) into the
  correlations c_k = sum_i B(n0, i) a_{i+k}, k < count.  A row whose
  peak is below _SHIFT_FROM, whatever its support, is row j = n mod 8 of
  the split block n0 = n - j, and its mean is sum_k B(j, k) c_k: one
  window of masses for 8 rows.  A split row its block does not certify,
  and a row with a huge peak, is a windowed row, a block of one row (n0 =
  n) whose mean is c_0; one that does not certify is weighted again at
  twice the half-width, until it certifies or its window spans [0, n],
  where its value is final.  Half-widths are a function of n alone, so a
  row gives the same bits in any batch, and no row takes a full PMF
  row.  A row whose peak times its widest window could overflow
  the sums weights its terms at a power of two (_overflow_shift), its mean
  held within its peak.  One driver, _blocks, takes a call's split blocks,
  then each widening pass's windowed rows, in groups of one half-width,
  over one zero-filled buffer spanning only their windows and one product
  buffer that every group reuses.  A bounded dense sequence costs O(H
  sqrt(H)), a split prefix, dense or islets, 8 times fewer masses; a
  widened row (unbounded terms, or a**n with |a| < 1 given term by term)
  up to O(n).  Ratio products cost 13-30 ns a mass against about 25 ns a
  term in log space with a log k! table (a prefix) and 45 ns without
  (sampled rows), and are accurate to about 1e-16 where log-space masses
  are off by up to about n eps log n.  The 1/4 is the best of a threshold
  sweep over eight islets prefixes (README).
* Log space (_sparse_rows, which also sends its routed rows to
  _routed_means, and _lone_row for a lone row): the other rows weight the
  support indices in their window plus, on each side, the nearest support
  index outside it and every index up to where the mass has fallen a further
  2**-64, so a row whose window holds no support still certifies; one that
  does not is summed over its whole support (_whole_support_mean, O(support)
  where widening is O(n)).  Terms are log_pmf_many masses summed by
  _log_weighted, in blocks of up to 2**13 rows and about 2**14 terms, which
  keeps peak memory small; a block only weights its terms, in the buffer
  log_pmf_many returns, and one pass a call then certifies every row.
  Where the call's support values hold one sign (every islets and spikes
  sequence), |mean| is a row's sum B |a| bit for bit, and no second sum
  is taken.  A kernel call whose rows cover at least half of 0..H, H its
  largest n (every prefix), evaluates log k! once over 0..H
  (_log_factorials: H + 1 doubles, no more than the prefix) when its first
  log-space block needs it, and its blocks and fallbacks read log i!,
  log (n - i)! and log n! from that table; sampled rows (point-query arrays, lone
  rows) evaluate them term by term, the same values.  A row costs one mass
  per kept support index: a bounded number for spikes past small n,
  O(sqrt(n)) inside an islet, so their prefixes cost O(H) and O(H sqrt(H)).

A lone row n >= 1 with a finite peak keeps its masses and weighted sums in
those routines (log_pmf_many through _log_weighted, and _block) and its two
extensions in one _sparse_extension call, and does its bookkeeping on Python
numbers through the block rows' helpers: mode, half-width, routing, split
and certificate.  It reads its reach m +- 2W.  A routed row splits from
those terms, which hold its block's window (W >= 30), replaying the block's
first j + 1 correlations, padded to 8, by the same reductions: a lone
alternating01 query at n = 1e8 takes 2.3-5.6 ms and a signed_linear one
3-10 ms, in 7-11 MB, a lone islets query in an island at n = 4**9 / p
about 0.15-0.22 ms, and a lone spikes query at n in [2e5, 2.1e6] about 30
us, 2-core Xeon VM.  A log-space row whose nearest support index or kept
term lies past the reach reads window(0, n), its support up to n, once
more.  It has one exit for every other row: n = 0, a non-finite peak, a
routed row with a peak of _SHIFT_FROM or more, or a row whose reads do not
certify goes to _binomial_means_sparse as one row over window(0, n), which
applies the row-0 and non-finite rules, splits, widens, or sums the whole
support.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .binomial_kernel import (
    _certified,
    _log_factorials,
    _mode,
    _ratio_down,
    _ratio_up,
    _row_mass,
    _unit_window,
    _window_halfwidth,
    log_pmf_many,
)
from .exceptions import HorizonError, ParameterDomainError
from .summation import power_dd, running_mean, suffix_sums, two_product, two_sum

__all__ = [
    "RealSequence",
    "TransformedPrefix",
    "WeightTable",
    "SplitSums",
    "cesaro_prefix",
    "binomial_prefix",
    "binomial_mean_at",
    "pstar_prefix",
    "compose_check",
    "weights",
    "epsilon",
    "split_xyz",
]


def _check_prob(p, name="p"):
    if not (0.0 < p < 1.0):
        raise ParameterDomainError(f"{name} must lie strictly inside (0, 1), got {p!r}")


def _check_horizon(horizon, name="horizon"):
    integer = isinstance(horizon, (int, np.integer)) and not isinstance(horizon, bool)
    if not (integer and 0 <= horizon < 2**63):  # the kernels hold indices as int64
        raise ParameterDomainError(f"{name} must be an integer in [0, 2**63), got {horizon!r}")


@dataclass
class RealSequence:
    """A real sequence indexed from 0, given by one term rule.

    ``window(lo, hi)`` gives the terms on [lo, hi] as sorted int64 indices
    with their float values: every index of a dense sequence, the nonzero
    support there of a ``sparse`` one (empty where hi < lo).  ``peak(n)``
    gives the exact max |a_i| over i <= n, finite exactly when every such
    term is (NaN where one is NaN).  ``prefix(h)`` is window(0, h),
    scattered into zeros for a sparse sequence, and ``support(h)`` is
    window(0, h) of a sparse one; both check the ``nonneg`` claim, that
    every term is >= 0, lazily on what they return.

    The sequence holds the rule as _rule(h), the window and peak rules for
    indices up to h.  from_window gives both in closed form (the named
    families do), taken at their word; from_function and from_values serve
    them as slices of one checked read of a prefix or support rule up to
    h.  An explicit vector raises HorizonError past its end.  A geometric
    sequence (see geometric) also carries its ratio, from which its binomial
    means have a closed form.  A lone binomial mean reads only its row's
    window through _rule (see transforms._lone_row); prefixes and array
    queries read through prefix and support.
    """

    name: str = "sequence"
    nonneg: bool = False
    sparse: bool = False
    _rule: Optional[Callable[[int], tuple]] = field(default=None, repr=False)
    _ratio: Optional[float] = field(default=None, repr=False)

    @classmethod
    def from_values(cls, values, nonneg=False, name="explicit"):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ParameterDomainError("explicit sequences need a non-empty 1-d vector")

        def prefix(horizon):
            if horizon >= len(arr):
                raise HorizonError(
                    f"horizon {horizon} beyond explicit sequence of length {len(arr)}"
                )
            return arr[: horizon + 1].copy()

        return cls.from_function(prefix, nonneg=nonneg, name=name)

    @classmethod
    def from_function(cls, prefix=None, support=None, nonneg=False, name="rule"):
        """A sequence from exactly one rule: ``prefix(h)``, terms 0..h as a
        vector, or ``support(h)``, the sorted indices of the nonzero terms
        up to h with their values (a sparse sequence).  Windows and peaks
        up to h are slices of one checked read of it up to h: support
        indices must be non-negative integers (integer-valued floats pass)
        in strictly increasing order, one per value, and a prefix rule
        must give h + 1 terms in a 1-d vector."""
        if (prefix is None) == (support is None):
            raise ParameterDomainError("a sequence takes exactly one rule: prefix or support")

        def rule(horizon):
            if support is None:
                return _slices(np.arange(horizon + 1), seq._checked_prefix(prefix(horizon), horizon))
            return _slices(*seq._checked_support(*support(horizon)))

        seq = cls(name=name, nonneg=nonneg, sparse=support is not None, _rule=rule)
        return seq

    @classmethod
    def from_window(cls, window, peak, *, sparse=False, nonneg=False, name="rule"):
        """A sequence from closed forms of its window and peak rules (see
        the class docstring), taken at their word."""
        rules = (window, peak)
        return cls(name=name, nonneg=nonneg, sparse=sparse, _rule=lambda horizon: rules)

    @classmethod
    def geometric(cls, a, name="geometric"):
        """The sequence a**n for a finite ratio a (0**0 = 1); its binomial
        means are (q + p a)**n (see _geometric_means)."""
        a = float(a)
        if not math.isfinite(a):
            raise ParameterDomainError(f"a geometric ratio must be finite, got {a!r}")

        def prefix(h):
            with np.errstate(over="ignore", invalid="ignore"):
                return np.power(a, np.arange(h + 1, dtype=float))

        seq = cls.from_function(prefix, nonneg=a >= 0, name=name)
        seq._ratio = a
        return seq

    def _checked(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if self.nonneg and np.count_nonzero(values < 0.0):
            raise ParameterDomainError(
                f"sequence {self.name!r} is declared non-negative but has a negative term"
            )
        return values

    def _checked_prefix(self, values, horizon):
        values = self._checked(values)
        if values.shape != (horizon + 1,):
            raise ParameterDomainError(
                f"sequence {self.name!r} has a prefix rule that gave shape {values.shape} "
                f"for horizon {horizon}, not ({horizon + 1},)"
            )
        return values

    def _checked_support(self, idx, vals):
        raw, vals = np.asarray(idx), self._checked(vals)
        with np.errstate(invalid="ignore"):  # NaN or inf: caught as non-integers
            out = raw.astype(np.int64)
        if out.shape != vals.shape:
            problem = "not one value per index"
        elif not (out == raw).all():
            problem = "an index that is not an integer"
        elif (out[1:] <= out[:-1]).any():
            problem = "indices that are not strictly increasing"
        elif len(out) and out[0] < 0:
            problem = "a negative index"
        else:
            return out, vals
        raise ParameterDomainError(f"sequence {self.name!r} has support with {problem}")

    def prefix(self, horizon: int) -> np.ndarray:
        """Terms 0..horizon as a vector."""
        _check_horizon(horizon)
        idx, vals = self._rule(horizon)[0](0, horizon)
        vals = self._checked(vals)
        if not self.sparse:
            return vals
        out = np.zeros(horizon + 1)
        out[idx] = vals
        return out

    def support(self, horizon: int):
        """Sorted nonzero indices up to horizon, with their values."""
        if not self.sparse:
            raise ParameterDomainError(f"sequence {self.name!r} declares no support set")
        _check_horizon(horizon)
        idx, vals = self._rule(horizon)[0](0, horizon)
        return np.asarray(idx, dtype=np.int64), self._checked(vals)

    def window(self, lo: int, hi: int):
        """Terms on [lo, hi] as sorted indices with their values."""
        _check_horizon(lo, "lo")
        _check_horizon(hi, "hi")
        return self._rule(hi)[0](lo, hi)

    def peak(self, n: int) -> float:
        """max |a_i| over i <= n, exactly."""
        _check_horizon(n, "n")
        return self._rule(n)[1](n)


def _slices(idx, vals):
    """The window and peak rules of the sequence that is vals at the sorted
    indices idx and 0 elsewhere, as slices of those arrays."""

    def window(lo, hi):
        first, stop = idx.searchsorted((lo, hi + 1)).tolist()
        return idx[first:stop], vals[first:stop]

    def peak(n):
        k = int(idx.searchsorted(n, side="right"))
        return float(np.abs(vals[:k]).max()) if k else 0.0

    return window, peak


@dataclass(frozen=True)
class TransformedPrefix:
    """Transform values at indices 0..horizon of some source sequence."""

    kind: str  # 'cesaro' | 'binomial' | 'pstar'
    p: Optional[float]
    values: np.ndarray

    @property
    def horizon(self) -> int:
        return len(self.values) - 1


@dataclass(frozen=True)
class WeightTable:
    """Weights of the Cesaro-of-binomial transform at one index.

    weights[i] is (1/p) times the probability that a Binomial(n+1, p)
    variable exceeds i: a plateau close to 1/p, then a sharp drop to 0 in a
    window of width ~sqrt(n) around n*p.
    """

    n: int
    p: float
    weights: np.ndarray


@dataclass(frozen=True)
class SplitSums:
    """Weighted partial sums over the plateau / drop window / tail index ranges.

    (x + y + z) / (n + 1) reproduces the Cesaro-of-binomial transform at n.
    """

    x: float
    y: float
    z: float
    n: int
    p: float

    @property
    def total_mean(self) -> float:
        return (self.x + self.y + self.z) / (self.n + 1)


def cesaro_prefix(a: RealSequence, horizon: int) -> TransformedPrefix:
    """Running arithmetic means: entry n is the mean of a_0..a_n.

    One compensated pass, O(horizon) total: the prefix sums come from the
    vectorised Sum2 scan of summation.compensated_cumsum, so each mean is
    within about one rounding of the exact mean of the given terms.  A
    term of inf makes every later mean inf, inf and -inf together make NaN,
    and a NaN term makes every later mean NaN.
    """
    seq = a.prefix(horizon)
    return TransformedPrefix("cesaro", None, running_mean(seq))


# A block's half-width is W of its n0 rounded up to a multiple of _HALF_STEP.
_HALF_STEP = 16


def _stepped(half):
    """half rounded up to a multiple of _HALF_STEP (an int, or an array)."""
    return -(-half // _HALF_STEP) * _HALF_STEP


# No row with a peak below _SHIFT_FROM needs an _overflow_shift: its window
# holds fewer than 2**64 indices.  Its callers skip the call below it.
_SHIFT_FROM = 2.0**959


def _overflow_shift(peak, span):
    """The power-of-two exponents that keep a windowed row's sums finite,
    for rows with peak and widest half-width span (arrays): the sums of a
    window of up to 2 span + 1 unit-seeded products times terms stay below
    peak * (2 span + 1), which at 2**-shift is below 2**1023.  0 for every
    row where that product is below 2**1023, so those rows keep their
    bits."""
    bits = np.frexp(peak)[1] + np.frexp(2.0 * span + 1.0)[1] - 1023
    return bits * (bits > 0)


def _support_windows(idx, av, lo, hi):
    """A zero-filled buffer holding av at idx over the windows [lo, hi) of
    rows in ascending n, with the offset of each row: its window starts at
    buffer[lo + offset].

    Rows whose windows overlap share one run of the buffer and the others
    start runs of their own, so the buffer spans only the windows, plus one
    width of zeros at its end.
    """
    new = np.ones(len(lo), dtype=bool)
    new[1:] = lo[1:] >= np.maximum.accumulate(hi)[:-1]
    heads = np.flatnonzero(new)
    run_lo = np.minimum.reduceat(lo, heads)
    run_hi = np.maximum.reduceat(hi, heads)
    base = np.cumsum(run_hi - run_lo) - (run_hi - run_lo)  # each run's place
    first, count = idx.searchsorted(run_lo), idx.searchsorted(run_hi)
    count -= first
    pos = np.arange(count.sum()) + np.repeat(first - (np.cumsum(count) - count), count)
    buffer = np.zeros(base[-1] + run_hi[-1] - run_lo[-1] + int((hi - lo).max()))
    buffer[idx[pos] + np.repeat(base - run_lo, count)] = av[pos]
    return buffer, (base - run_lo)[np.cumsum(new) - 1]


# A split block is the _SPLIT rows n0..n0 + _SPLIT - 1, n0 a multiple of
# _SPLIT.  On dense prefixes (2-core Xeon VM) _SPLIT = 4 costs about 40%
# more than 8 and 16 no less, while a lone row replays up to _SPLIT
# correlations.
_SPLIT = 8


@functools.lru_cache(maxsize=1)
def _triangle(p):
    """B(j, k, p) for j, k < _SPLIT, +0 for k > j: the _unit_window rows of
    j = 0.._SPLIT-1 over [0, j], each divided by its sum; the mask of the
    entries above the diagonal; and each row's largest entry's k.  All
    three read-only, in one slot: the last p's stay in memory."""
    j = np.arange(float(_SPLIT))
    m = _mode(j, p)
    below, above = int(m.max()), int((j - m).max())
    w, _ = _unit_window(j, m, p, below, above)
    k = np.arange(_SPLIT)
    upper = k > j[:, None]
    at = np.minimum(below + k - m[:, None].astype(np.int64), below + above)
    t = np.where(upper, 0.0, np.take_along_axis(w, at, axis=1))
    t /= t.sum(axis=1, keepdims=True)
    m = m.astype(np.int64)
    t.flags.writeable = upper.flags.writeable = m.flags.writeable = False
    return t, upper, m


def _block(buffer, first, n0, p, half, peak, triangle=None, count=1, shift=None, out=None):
    """Means of the blocks of rows starting at n0 (a float array), and a
    mask of the rows they certify.

    Block b weights its terms with row n0's _unit_window products w over
    m0 +- half into the correlations c_k = sum_i w_i a_{i+k} / sum_i w_i,
    k < count.  A windowed row is a block of one row (no triangle, count
    1) whose mean is c_0.  A split block (triangle from _triangle) is the
    rows n0 + j, j < _SPLIT, and row j's mean is sum_k B(j, k) c_k
    (_triangle_sums), count _SPLIT, or j + 1 for a lone row j (the rest
    are 0).  buffer[first[b] + i] holds block b's term at index m0 - half +
    i, a finite one; products at indices past n0 are 0, so c_k reads
    nothing past n0 + k.  peak[b, j] is row j's largest |a_i|: a row
    certifies when w's dropped mass, relative to sum w, times its peak is
    at most 2**-53 of |mean|, or else of its sum B |a|, which is weighted
    only for the blocks holding such a row.  With shift (_overflow_shift),
    block b's terms and peak are weighted at 2**-shift[b], and a mean so
    scaled is held within its peak, so that scaling it back cannot round
    past DBL_MAX.  out, if given, is a buffer for the products: at least
    len(n0) count (2 half + 1) doubles.  A row depends only on its n, its
    terms, count and shift, never on the other blocks.
    """
    m = _mode(n0, p)
    w, dropped = _unit_window(n0, m, p, half, half)
    width = 2 * half + 1
    shape = (len(n0), count, width)
    size = math.prod(shape)
    terms = (np.empty(size) if out is None else out[:size]).reshape(shape)
    # each block's terms once (rows of the view whose row i starts at
    # buffer[i]), and its count shifted windows as a view
    reach = width + count - 1
    span = np.ndarray((len(buffer) - reach + 1, reach), buffer=buffer, strides=(8, 8))[first]
    if shift is not None:
        np.ldexp(span, -shift[:, None], out=span)
        peak = np.ldexp(peak, -shift[:, None])
    shifts = np.ndarray(shape, buffer=span, strides=(span.strides[0], 8, 8))
    np.multiply(shifts, w[:, None], out=terms)
    total = w.sum(axis=1)[:, None]
    dropped = dropped[:, None] / total
    value = _triangle_sums(terms, total, triangle)
    if shift is not None:
        np.copyto(value, np.clip(value, -peak, peak), where=shift[:, None] > 0)
    certified = _certified(value, np.abs(value), dropped, peak)
    fail = ~certified.all(axis=1)
    if fail.any():
        part = terms if fail.all() else terms[fail]
        scale = _triangle_sums(np.abs(part, out=part), total[fail], triangle)
        certified[fail] |= _certified(value[fail], scale, dropped[fail], peak[fail])
    if shift is not None:
        value = np.ldexp(value, shift[:, None])
    return value, certified


def _triangle_sums(terms, total, triangle):
    """sum_k B(j, k) c_k for every block b and row j < _SPLIT, c_k = sum_i
    terms[b, k, i] / total[b] (a ratio of two sums of w, whose roundings
    cancel for a nearly constant sequence), correlations k past terms'
    count taken as 0; with no triangle, c_0 alone.  Row j takes it as c_m
    + sum_k B(j, k) (c_k - c_m), m the mode of B(j, .), so that the
    roundings of the triangle and of the sum scale with how far the c_k
    spread, not with their size; B(j, m) >= 1 / (j + 1) keeps |c_m| within
    (j + 1) sum B |a|.  Every entry above the diagonal is +0: a
    correlation past a row's n may overflow to inf on huge finite terms
    that the row itself does not hold."""
    if triangle is None:
        return terms.sum(axis=2) / total
    c = np.zeros((len(terms), _SPLIT))
    np.divide(terms.sum(axis=2), total, out=c[:, : terms.shape[1]])
    t, upper, mode = triangle
    ref = c[:, mode]
    products = c[:, None] - ref[:, :, None]
    products *= t
    np.copyto(products, 0.0, where=upper)
    return ref + products.sum(axis=2)


# Blocks of one half-width go in groups of at most _GROUP_MASSES masses
# (or one block, if it alone has more): a split group weights _SPLIT
# products a mass, a windowed group one.  Swept on alternating01,
# signed_linear, normal and islets prefixes (2-core Xeon VM): in one
# process 2**14, 2**15 and 2**16 are within 2% at H = 1e3 and 1e4 and
# within noise at 1e5; in fresh processes (p = 0.3, median of 5 calls)
# 2**14 took 37.6-40.3 ms at H = 3500 and 349-382 ms at H = 2e4, 2**15
# 35.0-36.6 and 315-337 ms, 2**16 36.2-50.5 and 329-330 ms.
_GROUP_MASSES = 2**15


def _blocks(idx, av, n0, halves, peaks, p, triangle, count, shift):
    """_block means and certified mask of the blocks starting at n0 (in
    ascending order, with non-decreasing half-widths halves) of the
    sequence that is av at the sorted indices idx and 0 elsewhere; peaks,
    triangle, count and shift (or None) as _block takes them.

    The blocks go in groups of one half-width and at most _GROUP_MASSES
    masses, through one buffer of terms spanning only their windows and
    one product buffer no larger than the largest group needs.
    """
    lo = _mode(n0, p).astype(np.int64) - halves
    buffer, offset = _support_windows(idx, av, lo, lo + 2 * halves + count)
    first, n0 = lo + offset, n0.astype(float)
    widest = 2 * int(halves[-1]) + 1
    out = np.empty(count * min(len(n0) * widest, max(_GROUP_MASSES, widest)))
    value, certified = np.empty(peaks.shape), np.empty(peaks.shape, dtype=bool)
    start = 0
    while start < len(n0):
        half = int(halves[start])
        stop = start + max(1, _GROUP_MASSES // (2 * half + 1))
        g = slice(start, min(stop, halves.searchsorted(half, side="right")))
        value[g], certified[g] = _block(
            buffer, first[g], n0[g], p, half, peaks[g], triangle, count,
            None if shift is None else shift[g], out,
        )
        start = g.stop
    return value, certified


def _routed_means(idx, av, peak, p, ns):
    """Means of the routed rows ns (every n >= 1, any order) of the
    sequence that is av at the sorted indices idx and 0 elsewhere; peak[r]
    is the largest |a_i| for i <= ns[r].

    A row whose peak is below _SHIFT_FROM is split, whatever its support;
    split blocks take W of n0 rounded up to a multiple of _HALF_STEP.  A
    windowed row (one the split does not certify, or a huge peak) takes its
    own, doubled while it does not certify, up to the least such multiple
    that spans [0, n].  Whether a row is weighted at a power of two
    (_overflow_shift) is decided once here.
    """
    value = np.empty(len(ns))
    split = peak < _SHIFT_FROM
    if split.any():
        rows = np.flatnonzero(split)
        j = ns[rows] % _SPLIT
        n0 = np.sort(ns[rows] - j)
        n0 = n0[np.diff(n0, prepend=-1) > 0]
        block = n0.searchsorted(ns[rows] - j)
        peaks = np.zeros((len(n0), _SPLIT))  # rows not asked for certify at no cost
        peaks[block, j] = peak[rows]
        halves = _stepped(_window_halfwidth(n0, p)).astype(np.int64)
        means, certified = _blocks(idx, av, n0, halves, peaks, p, _triangle(p), _SPLIT, None)
        value[rows], split[rows] = means[block, j], certified[block, j]
    rows = np.flatnonzero(~split)
    rows = rows[np.argsort(ns[rows], kind="stable")]
    n, top = ns[rows], peak[rows]
    m = _mode(n, p).astype(np.int64)
    spans = _stepped(np.maximum(m, n - m))  # least to span [0, n]
    shift = _overflow_shift(top, spans) if np.max(top, initial=0.0) >= _SHIFT_FROM else None
    halves = _stepped(_window_halfwidth(n, p)).astype(np.int64)
    while len(rows):
        means, certified = _blocks(idx, av, n, halves, top[:, None], p, None, 1, shift)
        value[rows] = means[:, 0]
        again = ~certified[:, 0] & (halves < spans)
        rows, n, top, spans = (x[again] for x in (rows, n, top, spans))
        shift = None if shift is None else shift[again]
        halves = np.minimum(2 * halves[again], spans)
    return value


# Rows, and terms, per block of sparse rows; keep the block's arrays, and
# peak memory, small.  Swept with masses evaluated in place on six prefixes
# (spikes C = 1, 0.5 and 2 at p = 0.5, 0.3 and 0.8 to H = 2e4, 1e4 and
# 3e3; islets at p = 0.5, 0.3 and 0.8 to H = 2e4, 5e3 and 1e4; least of 12
# interleaved calls, two runs, 2-core Xeon VM): against 2**11 rows and
# 2**12 terms, in total 2**13 rows cost 3% less, and 10-11% less with
# 2**13 terms and 15% less with 2**14; at 2**14 terms, 2**12 and 2**14
# rows cost 10-14% and 12% less; 2**15 terms cost more again.  First calls
# in fresh processes agree (median of 6: 85, 72 and 72 ms at 2**12, 2**13
# and 2**14 terms).  An array of one double a term is then 128 KB.
_BLOCK_ROWS = 2**13
_BLOCK_TERMS = 2**14

# Past the nearest support index outside a row's window, the kept range goes
# on outward until the mass has fallen by 2**-64.  log 2**-64 and 1 are also
# held as 0-d arrays, which short ufunc calls take faster than Python floats.
_LOG_EXTEND = 64.0 * math.log(2.0)
_LOG_FALL, _ONE = np.array(-_LOG_EXTEND), np.array(1.0)


def _sparse_extension(ratio):
    """Steps t past a support index with outward mass ratio ``ratio`` < 1
    after which the mass has fallen by 2**-64, and the bound ratio**(t+1) /
    (1 - ratio) on all the mass beyond them, relative to the mass at that
    index (both 0 where ratio is 0, through log(0) = -inf: the caller
    ignores divide errors)."""
    t = np.ceil(_LOG_FALL / np.log(ratio))
    return t.astype(np.int64), np.power(ratio, t + _ONE) / (_ONE - ratio)


# A row whose window m +- W holds support on at least 1/_ROUTE_SHARE of its
# indices inside [0, n] goes to _routed_means: split, or windowed.
_ROUTE_SHARE = 4


def _routed(n, m, half, in_window):
    """Which rows n >= 1 go to _routed_means: those with in_window, the
    support indices in the window m +- half, at least 1/_ROUTE_SHARE of
    the window's indices inside [0, n] (every row of a dense sequence); a
    lone row passes ints."""
    if isinstance(n, np.ndarray):
        inside = np.minimum(m + half, n) - np.maximum(m - half, 0.0) + 1.0
    else:
        inside = min(m + half, n) - max(m - half, 0) + 1
    return _ROUTE_SHARE * in_window >= inside


def _log_weighted(n, p, indices, values, offsets, edges, signed, counts=None, table=None):
    """Pairwise sums of masses times values over the runs of terms starting
    at offsets; the same sums of their absolute values, taken as |sums|
    unless signed (where no run mixes signs they are those bit for bit);
    and the masses at the term positions edges.  The masses are exp of
    log_pmf_many (counts is its _counts, one n per run, table its _table),
    weighted in its buffer."""
    weighted = log_pmf_many(n, p, indices, _counts=counts, _table=table)
    np.exp(weighted, out=weighted)
    at = weighted[edges]
    weighted *= values
    value = np.add.reduceat(weighted, offsets)
    scale = np.add.reduceat(np.abs(weighted, out=weighted), offsets) if signed else abs(value)
    return value, scale, at


def _whole_support_mean(idx, av, p, n, k, table):
    """sum_i B(n,i,p) * av[i] over the first k support indices, all <= n:
    the log-space rows' fallback for a row they cannot certify (table is
    log_pmf_many's _table, or None)."""
    return np.exp(log_pmf_many(n, p, idx[:k], _table=table)) @ av[:k]


def _sparse_rows(idx, av, peak, p, ns, log_factorials, signed):
    """_binomial_means_sparse for a block of rows n >= 1; peak[j] = max
    |av[:j+1]|.  Its routed rows go through one _routed_means call (split,
    or windowed), the others are log-space rows: blocks of terms weight
    them, then one pass certifies them all, with |value| as their sum B |a|
    unless signed (av holds both signs), and sums those that fail over
    their whole support.  log_factorials, if given, returns the log k!
    table their masses read (log_pmf_many's _table), built on its first
    call."""
    out = np.zeros(len(ns))
    size = np.searchsorted(idx, ns, side="right")  # support indices <= n
    m = _mode(ns, p)
    half = _window_halfwidth(ns, p)
    lo = np.searchsorted(idx, (m - half).astype(np.int64), side="left")
    hi = np.minimum(np.searchsorted(idx, (m + half).astype(np.int64), side="right"), size)
    routed = _routed(ns, m, half, hi - lo)
    if routed.any():  # a routed row holds support, so size >= 1
        out[routed] = _routed_means(idx, av, peak[size[routed] - 1], p, ns[routed])
    rows = np.flatnonzero(~routed & (size > 0))
    if not len(rows):
        return out
    n, k, m, half, lo, hi = (x[rows] for x in (ns, size, m, half, lo, hi))
    table = log_factorials() if log_factorials else None

    # the nearest support index outside the window on each side, if any
    left, right = lo > 0, hi < k
    j_lo = idx[np.maximum(lo - 1, 0)].astype(float)
    j_hi = idx[np.minimum(hi, k - 1)].astype(float)
    ratios = np.where((left, right), (_ratio_down(n, j_lo, p), _ratio_up(n, j_hi + 1.0, p)), 0.0)
    (t_lo, t_hi), (tail_lo, tail_hi) = _sparse_extension(ratios)
    first = np.where(left, np.searchsorted(idx, j_lo.astype(np.int64) - t_lo), lo)
    last = np.searchsorted(idx, j_hi.astype(np.int64) + t_hi, side="right")
    count = np.where(right, np.minimum(last, k), hi) - first
    # where j_lo and j_hi sit among a row's terms (any term where absent)
    at = np.where((left, right), (lo - 1 - first, hi - first), 0)

    value, scale = np.empty((2, len(rows)))
    edges = np.empty((2, len(rows)))
    ends = count.cumsum()
    start = 0
    while start < len(rows):
        stop = ends.searchsorted(ends[start] - count[start] + _BLOCK_TERMS, "right")
        block = slice(start, max(stop, start + 1))
        # row r weights the support slice idx[first[r]:first[r] + count[r]]
        c = count[block]
        offsets = c.cumsum() - c
        pos = np.arange(offsets[-1] + c[-1]) + (first[block] - offsets).repeat(c)
        value[block], scale[block], edges[:, block] = _log_weighted(
            n[block], p, idx[pos], av[pos], offsets, at[:, block] + offsets, signed, c, table
        )
        start = block.stop
    dropped = edges[0] * tail_lo
    dropped += edges[1] * tail_hi
    certified = _certified(value, scale, dropped, peak[k - 1])
    for r in np.flatnonzero(~certified).tolist():
        value[r] = _whole_support_mean(idx, av, p, int(n[r]), int(k[r]), table)
    out[rows] = value
    return out


# a lone row's terms as one run: _log_weighted's offsets (an array is
# about 0.5 us faster in each reduceat than the list [0]) and _block's first
_ONE_RUN = np.zeros(1, dtype=np.intp)


def _lone_block(idx, av, n0, p, half, peak, count):
    """_block for the one split block n0 (an int) of a lone row, count its
    correlations, its terms read from the support idx and values av of the
    row's reads."""
    base = _mode(n0, p) - half
    sel = slice(*idx.searchsorted((base, base + 2 * half + count)).tolist())
    terms = np.zeros(2 * half + count)
    terms[idx[sel] - base] = av[sel]
    return _block(terms, _ONE_RUN, np.array([float(n0)]), p, half, peak, _triangle(p), count)


def _split_start(n: int, p: float):
    """A lone row's place j in its split block, and the block's n0 and
    half-width, as ints."""
    j = n % _SPLIT
    return j, n - j, _stepped(_window_halfwidth(n - j, p))


def _lone_row(window, peak, p: float, n: int) -> float:
    """_binomial_means_sparse for the one row n of the sequence with window
    rule window(lo, hi) and peak rule peak(n) (see RealSequence), under the
    caller's np.errstate, with the bookkeeping on Python numbers.

    A row n >= 1 with a finite peak takes the block rows' routing, split,
    window, extension, kept terms and certificate, so their bits.  It reads
    its reach m +- 2W.  A routed row whose peak is below _SHIFT_FROM
    splits from those terms, which hold its split block's window (W >=
    30): it replays the block's first j + 1 correlations, j = n mod
    _SPLIT.  A log-space row whose nearest support index outside m +- W,
    or one of whose kept terms, lies past the reach reads window(0, n)
    once and settles there.  Every other row (n = 0, a non-finite peak,
    which the batch's gate settles, a routed row with a larger peak or a
    split that does not certify, a log-space window that does not
    certify) is one batch row over window(0, n).
    """
    top = peak(n)
    if n and math.isfinite(top):
        x = float(n)
        m, half = _mode(n, p), _window_halfwidth(n, p)
        a, b = m - half, m + half
        r_lo, r_hi = max(a - half, 0), min(b + half, n)
        idx, av = window(r_lo, r_hi)
        lo, hi = idx.searchsorted((a, b + 1)).tolist()
        if _routed(n, m, half, hi - lo):
            if top < _SHIFT_FROM:
                j, n0, h0 = _split_start(n, p)
                peaks = np.zeros((1, _SPLIT))
                peaks[0, j] = top
                value, certified = _lone_block(idx, av, n0, p, h0, peaks, j + 1)
                if certified[0, j]:
                    return float(value[0, j])
        else:
            if not ((lo or not r_lo) and (hi < len(idx) or r_hi == n)):
                # a nearest support index outside m +- W may lie past the reach
                r_lo, r_hi = 0, n
                idx, av = window(0, n)
                lo, hi = idx.searchsorted((a, b + 1)).tolist()
            if not len(idx):  # no support up to n
                return 0.0
            # the nearest support index outside the window on each side, if
            # any, and the kept range: the window, extended past them
            left, right = lo > 0, hi < len(idx)
            j_lo, j_hi = int(idx[lo - 1]) if left else a, int(idx[hi]) if right else b
            ratios = (_ratio_down(x, float(j_lo), p) if left else 0.0,
                      _ratio_up(x, j_hi + 1.0, p) if right else 0.0)
            steps, tails = _sparse_extension(np.array(ratios))
            t_lo, t_hi = steps.tolist()
            k_lo, k_hi = max(j_lo - t_lo, 0), min(j_hi + t_hi, n)
            if k_lo < r_lo or k_hi > r_hi:  # never after window(0, n)
                idx, av = window(0, n)
                lo, hi = idx.searchsorted((a, b + 1)).tolist()
            first, stop = idx.searchsorted((k_lo, k_hi + 1)).tolist()
            # where j_lo and j_hi sit among the terms (any term where absent)
            at = [lo - 1 - first if left else 0, hi - first if right else 0]
            value, scale, edge = _log_weighted(
                x, p, idx[first:stop], av[first:stop], _ONE_RUN, at, signed=True
            )
            dropped = float(edge[0] * tails[0] + edge[1] * tails[1])
            value = float(value[0])
            if _certified(value, float(scale[0]), dropped, top):
                return value
    return float(_binomial_means_sparse(*window(0, n), p, np.array([n]))[0])


def _binomial_means_sparse(idx: np.ndarray, av: np.ndarray, p: float, ns) -> np.ndarray:
    """sum_{i in idx, i <= n} B(n,i,p) * av[i] for each n of the array ns.

    idx holds the sorted support indices, av their values; ns may come in
    any order.  One pass of running extrema gates every row.  Row 0 is a_0
    (-0.0 included).  A row whose terms up to n are not all finite is
    settled: its weights are all positive, so it is the running max plus
    the running min at its last support index, +-inf for one infinity and
    the canonical NaN for a NaN or both.  The other rows get only the
    support before the first non-finite term, with the larger magnitude
    of the extrema as each row's peak, and go in blocks of _BLOCK_ROWS
    through _sparse_rows, which certifies each block's log-space rows in
    one pass, by |mean| where those terms hold one sign and by sum B |a|
    where they hold both.  Where ns holds at least half as many rows as
    0..max(ns) has (every prefix), their log-space masses read log k! from
    one table over 0..max(ns), built when the first block needs it;
    sampled rows evaluate it term by term.
    """
    ns = np.asarray(ns, dtype=np.int64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = np.zeros(len(ns))
        if len(idx) and idx[0] == 0:
            out[ns == 0] = av[0]
        top, bottom = np.maximum.accumulate(av), np.minimum.accumulate(av)
        peak = np.maximum(top, -bottom)
        # the first non-finite term: peak only rises, and a NaN in it stays
        j = int(np.count_nonzero(np.isfinite(peak)))
        settled = ns >= (idx[j] if j < len(idx) else np.iinfo(np.int64).max)
        if j < len(idx):
            at = idx.searchsorted(ns[settled], side="right") - 1
            value = top[at] + bottom[at]
            value[np.isnan(value)] = np.nan  # inf + -inf is a NaN of either sign
            out[settled] = value
            idx, av, peak = idx[:j], av[:j], peak[:j]
        rows = np.flatnonzero((ns > 0) & ~settled)
        # support values of one sign (every islets and spikes sequence)
        # leave sum B |a| = |sum B a| in each row
        signed = bool(j) and not (bottom[j - 1] >= 0.0 or top[j - 1] <= 0.0)
        last = int(ns.max(initial=0))
        table = functools.cache(lambda: _log_factorials(last)) if 2 * len(ns) > last else None
        for start in range(0, len(rows), _BLOCK_ROWS):
            block = rows[start : start + _BLOCK_ROWS]
            out[block] = _sparse_rows(idx, av, peak, p, ns[block], table, signed)
    return out


def _geometric_means(a: float, p: float, ns: np.ndarray) -> np.ndarray:
    """sum_i B(n,i,p) * a**i = (q + p a)**n for each n of ns: the Euler mean
    of a geometric sequence (Hardy, Divergent Series, ch. 8).

    The base q + p a = 1 - p + p a is held as a double-double (a rounded
    base would carry its rounding n-fold into the power), and power_dd
    raises |base|, mantissa and exponent apart, so nothing overflows or
    underflows before the one rounding of m_hi + m_lo and the final ldexp.
    Odd powers of a negative base are negated; a base of exactly 0 (p =
    1/(1 - a)) gives 1 at n = 0 and 0 after.
    """
    # 1 - p and p a are exact as sums of two doubles, their sum within
    # about 2**-106 relative unless it cancels.  A ratio |a| >= 1 enters
    # the product scaled into [1/2, 1) by a power of two, exactly, so that
    # two_product's split cannot overflow.
    k = max(math.frexp(a)[1], 0)
    pa_hi, pa_lo = two_product(p, math.ldexp(a, -k))
    pa_hi, pa_lo = math.ldexp(pa_hi, k), math.ldexp(pa_lo, k)
    q_hi, q_lo = two_sum(1.0, -p)
    base_hi, base_lo = two_sum(q_hi, pa_hi)
    base_hi, base_lo = two_sum(base_hi, base_lo + (q_lo + pa_lo))
    if base_hi == 0.0:
        return np.where(ns == 0, 1.0, 0.0)
    sign = math.copysign(1.0, base_hi)
    m_hi, m_lo, e = power_dd(sign * base_hi, sign * base_lo, ns)
    value = m_hi + m_lo
    if sign < 0.0:
        np.negative(value, out=value, where=(ns & 1) == 1)
    # exponents past +-2200 give inf or 0 either way
    with np.errstate(over="ignore"):
        return np.ldexp(value, np.clip(e, -2200, 2200))


def _binomial_means(a: RealSequence, p: float, ns: np.ndarray) -> np.ndarray:
    """sum_i B(n,i,p) * a_i for each n of the int64 array ns: a geometric
    sequence by its closed form, any other read once up to max(ns), as its
    support, through one _binomial_means_sparse call."""
    top = int(ns.max(initial=0))
    if a.sparse:
        return _binomial_means_sparse(*a.support(top), p, ns)
    if a._ratio is not None:
        return _geometric_means(a._ratio, p, ns)
    return _binomial_means_sparse(np.arange(top + 1), a.prefix(top), p, ns)


def binomial_prefix(a: RealSequence, p: float, horizon: int) -> TransformedPrefix:
    """Binomially weighted means: entry n is sum_i B(n,i,p) * a_i.

    Geometric sequences cost O(horizon log horizon) by their closed form,
    bounded dense ones O(horizon^1.5), sparse ones one mass per kept support
    index per row; rows the certified windows cannot carry cost O(n) each
    (see the module docstring).
    """
    _check_prob(p)
    _check_horizon(horizon)
    return TransformedPrefix("binomial", p, _binomial_means(a, p, np.arange(horizon + 1)))


def binomial_mean_at(a: RealSequence, p: float, n):
    """Binomial means at n, without building the prefix.

    ``n`` is a non-negative integer, giving a float from the row's window
    alone (see RealSequence.window), or a 1-d array of them in any order
    and with repeats, giving an array of the same length from one read of
    the sequence and one kernel call.  A row does not depend on
    its batch: entry n of binomial_prefix, the scalar and every array call
    give the same bits, dense, geometric and sparse rows alike (see the
    module docstring).
    """
    _check_prob(p)
    if isinstance(n, (int, np.integer)):
        _check_horizon(n, "n")
        n = int(n)
        if a._ratio is not None:
            return float(_geometric_means(a._ratio, p, np.array([n]))[0])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return _lone_row(*a._rule(n), p, n)
    ns = np.asarray(n)
    if ns.ndim == 1 and (ns.dtype.kind in "iu" or not ns.size):
        ns = ns.astype(np.int64)  # a uint64 past 2**63 wraps negative: rejected below
        if not (ns < 0).any():
            return _binomial_means(a, p, ns)
    raise ParameterDomainError(f"n must be a non-negative integer or a 1-d array, got {n!r}")


def pstar_prefix(a: RealSequence, p: float, horizon: int) -> TransformedPrefix:
    """Cesaro means of the binomial means (the two-stage averaging transform)."""
    binom = binomial_prefix(a, p, horizon)
    return TransformedPrefix("pstar", p, running_mean(binom.values))


def compose_check(a: RealSequence, p: float, q: float, horizon: int) -> float:
    """Max absolute gap between the q-mean of the p-means and the direct pq-mean.

    The two sides are identical in exact arithmetic, so the returned value is
    pure floating-point error.
    """
    _check_prob(p)
    _check_prob(q, "q")
    inner = binomial_prefix(a, p, horizon)
    two_step = binomial_prefix(
        RealSequence.from_values(inner.values, name=f"{a.name}^p"), q, horizon
    )
    direct = binomial_prefix(a, p * q, horizon)
    return float(np.max(np.abs(two_step.values - direct.values)))


def weights(n: int, p: float) -> WeightTable:
    """Weight table for the Cesaro-of-binomial transform at index n.

    Computed from the closed form w[i] = (1/p) * (1 - CDF_{n+1,p}(i)); the
    complement is accumulated right-to-left over the PMF row of n+1 trials so
    the right tail keeps relative accuracy (w[n] comes out as p**n instead of
    a cancelled 1 - 1).  Matches the direct double-sum definition.
    """
    _check_horizon(n, "n")
    _check_prob(p)
    mass = _row_mass(n + 1, p)
    # survival[i] = P[Y > i] for Y ~ Binomial(n+1, p), i = 0..n
    survival = suffix_sums(mass[1:])
    w = np.clip(survival, 0.0, 1.0) / p
    return WeightTable(int(n), p, w)


def epsilon(n: int) -> float:
    """Half-width sqrt(n) * ln(n) of the weight-table drop window (1 for n < 2)."""
    if n < 0:
        raise ParameterDomainError(f"n must be non-negative, got {n!r}")
    if n < 2:
        return 1.0
    return math.sqrt(n) * math.log(n)


def split_xyz(a: RealSequence, p: float, n: int) -> SplitSums:
    """Split the weighted sum behind the Cesaro-of-binomial value at n into
    plateau (x), drop-window (y) and tail (z) blocks.

    Block boundaries floor(p n -/+ eps(n)) are clamped to [0, n]; empty
    blocks contribute 0, so x + y + z always covers indices 0..n exactly once.
    Block sums are exact (math.fsum) and, where one could pass the double
    range, taken at a power of two, so a sum past DBL_MAX is +-inf.
    """
    _check_prob(p)
    _check_horizon(n, "n")
    table = weights(n, p)
    seq = a.prefix(n)
    eps = epsilon(n)
    lo = math.floor(p * n - eps)  # last plateau index
    hi = math.floor(p * n + eps)  # first tail index
    # n + 1 products of weights up to 1/p <= 2**(1 - frexp(p)) and terms up
    # to the peak stay below 2**1023 at 2**-shift
    peak = float(np.abs(seq).max())
    shift = max(math.frexp(n + 1)[1] + math.frexp(peak)[1] + 1 - math.frexp(p)[1] - 1023, 0)
    terms = table.weights * np.ldexp(seq, -shift)
    scale = 2.0**shift  # a Python float product saturates to +-inf, unlike ldexp
    x = math.fsum(terms[0 : min(lo, n) + 1]) * scale if lo >= 0 else 0.0
    y_start, y_stop = max(lo + 1, 0), min(hi - 1, n) + 1
    y = math.fsum(terms[y_start:y_stop]) * scale if y_stop > y_start else 0.0
    z = math.fsum(terms[max(hi, 0) : n + 1]) * scale if hi <= n else 0.0
    return SplitSums(x, y, z, int(n), p)
