"""Sequence transforms: Cesaro means, p-binomial means, their composition,
and the weight-table representation of the Cesaro-of-binomial transform.

A transform prefix of horizon H is the vector of transform values at indices
0..H.  Dense binomial prefixes weight each row only inside a window of
ceil(9 sqrt(n p q)) + 30 indices either side of its mode, rows batched into
blocks, so a bounded sequence costs O(H sqrt(H)) instead of O(H^2).
Each row certifies its window: the mass it drops, bounded from the ratios at
its edges, times the largest |a_i| so far must be at most 2**-53 of the
window's sum_i B(n,i,p) |a_i|.  Rows that fail (tilted sequences such as
a**n with |a| < 1, unbounded ones such as (-3)**n) or come out non-finite
fall back to the full PMF row, O(n) each.

Sequences that declare a sparse support go through one kernel,
_binomial_means_sparse, shared by sparse prefixes, sparse point means and
the spike probe.  A row weights the support inside the same window around
its mode plus, on each side, the nearest support index outside it and every
index up to where the mass has fallen a further 2**-64 (worked out from the
mass ratio at that index; ratios only fall moving outward), so rows whose
window holds no support still certify.  The certificate is the dense one:
the mass beyond the kept range, bounded by the edge mass times r / (1 - r),
times the largest |a_i| so far must be at most 2**-53 of the kept sum
B |a_i|.  Masses come from log_pmf_many, term for term as a whole-support
sum would compute them, for blocks of up to 2**11 rows and about 2**13
terms, which keeps peak memory small.  A row that fails or comes out non-finite is summed over its whole
support <= n.  A row costs one mass per kept support index: a bounded
number for spikes, O(sqrt(n)) inside an islet, so their prefixes cost O(H)
and O(H sqrt(H)); each call also pays a fixed numpy overhead of about
a tenth of a millisecond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .binomial_kernel import _row_mass, log_pmf_many
from .exceptions import HorizonError, ParameterDomainError
from .summation import running_mean, suffix_sums

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


def _check_horizon(horizon):
    if not isinstance(horizon, (int, np.integer)) or horizon < 0:
        raise ParameterDomainError(f"horizon must be a non-negative integer, got {horizon!r}")


@dataclass
class RealSequence:
    """A real sequence indexed from 0, given by two rules.

    ``prefix(h)`` returns terms 0..h as a vector; an optional ``support(h)``
    returns the sorted indices of the nonzero terms up to h with their
    values, and marks the sequence sparse.  An explicit vector is a prefix
    rule that raises HorizonError past its end.  The ``nonneg`` flag is a
    claim that every term is >= 0, checked lazily on what either rule
    returns.
    """

    name: str = "sequence"
    nonneg: bool = False
    _prefix: Optional[Callable[[int], np.ndarray]] = field(default=None, repr=False)
    _support: Optional[Callable[[int], tuple]] = field(default=None, repr=False)

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

        return cls(name=name, nonneg=nonneg, _prefix=prefix)

    @classmethod
    def from_function(cls, prefix, support=None, nonneg=False, name="rule"):
        return cls(name=name, nonneg=nonneg, _prefix=prefix, _support=support)

    @property
    def sparse(self) -> bool:
        """True when the sequence declares its nonzero support."""
        return self._support is not None

    def _checked(self, values: np.ndarray) -> np.ndarray:
        if self.nonneg and (values < 0).any():
            raise ParameterDomainError(
                f"sequence {self.name!r} is declared non-negative but has a negative term"
            )
        return values

    def prefix(self, horizon: int) -> np.ndarray:
        """Terms 0..horizon as a vector."""
        _check_horizon(horizon)
        return self._checked(np.asarray(self._prefix(horizon), dtype=float))

    def support(self, horizon: int):
        """Sorted nonzero indices up to horizon, with their values."""
        if not self.sparse:
            raise ParameterDomainError(f"sequence {self.name!r} declares no support set")
        idx, vals = self._support(horizon)
        return np.asarray(idx, dtype=np.int64), self._checked(np.asarray(vals, dtype=float))


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


# Masses per block of windowed rows; keeps the block's arrays in cache.
_BLOCK_MASSES = 2**15


def _window_halfwidth(n: int, p: float) -> int:
    """Half-width W = ceil(9 sqrt(n p q)) + 30 of a row's window around its mode."""
    return math.ceil(9.0 * math.sqrt(n * p * (1.0 - p))) + 30


def _window_width(n: int, p: float) -> int:
    return 2 * _window_halfwidth(n, p) + 1


def _windowed_block(windows, pad, peak, p, ns):
    """Windowed means for the rows ns, with a mask of the rows it certifies.

    Each row runs the ratios of _row_mass outward from a unit seed at the
    mode over offsets -W..W (W taken at the block's largest n) and is
    renormalised by its window sum.  The ratio into index -1 or n+1 is 0, so
    weights past the support vanish; terms below 0 come from the zero
    padding and terms past n are zeroed, so a non-finite term beyond n
    cannot leak in.
    """
    q = 1.0 - p
    half = _window_halfwidth(ns[-1], p)
    n = ns.astype(float)
    x = (n + 1.0) * p
    m = np.floor(x)
    m -= m == x  # mode_index: a tie goes to the smaller index; m <= n
    # n - i + 1 and i as exact integers, so the ratios are bit for bit those
    # of _row_mass: i = m + k going up, i = m - k going down
    top = (n + 1.0 - m)[:, None]
    mode = m[:, None]
    k = np.arange(1.0, half + 1.0)
    w = np.empty((len(ns), 2 * half + 1))
    w[:, half] = 1.0
    np.cumprod((top - k) * p / ((mode + k) * q), axis=1, out=w[:, half + 1 :])
    k -= 1.0
    np.cumprod((mode - k) * q / ((top + k) * p), axis=1, out=w[:, half - 1 :: -1])

    terms = windows[(m - half).astype(np.int64) + pad, : 2 * half + 1]
    if (m + half > n).any():
        terms[np.arange(-half, half + 1.0) > n[:, None] - mode] = 0.0
    weighted = w * terms
    value = weighted.sum(axis=1) / w.sum(axis=1)

    # Dropped mass past each edge is at most edge mass * r / (1 - r), r the
    # next ratio outward: ratios only fall moving away from the mode.
    lo, hi = m - half, m + half
    r_lo = lo * q / ((n - lo + 1.0) * p)
    r_hi = (n - hi) * p / ((hi + 1.0) * q)
    dropped = np.where(lo > 0.0, w[:, 0] * r_lo / (1.0 - r_lo), 0.0)
    dropped += np.where(hi < n, w[:, -1] * r_hi / (1.0 - r_hi), 0.0)
    scale = np.abs(weighted, out=weighted).sum(axis=1)
    certified = dropped * peak[ns] <= 2.0**-53 * scale
    return value, certified & np.isfinite(value)


def _first_nan_row(seq: np.ndarray) -> int:
    """Smallest n whose seq[:n+1] holds a NaN, or both a +inf and a -inf
    (len(seq) if there is none)."""

    def first(mask):
        i = int(np.argmax(mask))
        return i if mask[i] else len(seq)

    return min(first(np.isnan(seq)), max(first(seq == np.inf), first(seq == -np.inf)))


def _binomial_means_dense(seq: np.ndarray, p: float, ns: np.ndarray) -> np.ndarray:
    """sum_i B(n,i,p) * seq[i] for each n of the ascending array ns (1 <= n < len(seq)).

    Rows go through _windowed_block in blocks of about _BLOCK_MASSES masses.
    A row is kept only if the mass its window drops, times max |seq[i]| over
    i <= n, is at most 2**-53 of its window's sum_i B(n,i,p) |seq[i]|; any
    other row, and any row with a non-finite window value, is the full
    _row_mass row dotted with seq[:n+1].  A row whose seq[:n+1] holds a NaN,
    or both a +inf and a -inf, is NaN whatever its masses, and is not built.
    """
    out = np.full(len(ns), np.nan)
    ns = ns[: np.searchsorted(ns, _first_nan_row(seq))]
    if not len(ns):
        return out
    with np.errstate(over="ignore", invalid="ignore"):
        peak = np.maximum.accumulate(np.abs(seq))
        # windows[pad + j] starts at seq[j]; 2 pad zeros on the right keep a
        # full-width window in range for rows whose block has a smaller W
        pad = _window_halfwidth(ns[-1], p)
        padded = np.zeros(len(seq) + 3 * pad)
        padded[pad : pad + len(seq)] = seq
        windows = sliding_window_view(padded, 2 * pad + 1)
        start = 0
        while start < len(ns):
            # rows sized by the first row's window, then by the last row's
            stop = start + _BLOCK_MASSES // _window_width(ns[start], p)
            stop = start + _BLOCK_MASSES // _window_width(ns[min(stop, len(ns)) - 1], p)
            stop = min(max(stop, start + 1), len(ns))
            value, certified = _windowed_block(windows, pad, peak, p, ns[start:stop])
            for k in np.flatnonzero(~certified):
                n = int(ns[start + k])
                value[k] = _row_mass(n, p) @ seq[: n + 1]
            out[start:stop] = value
            start = stop
    return out


def _binomial_prefix_dense(seq: np.ndarray, p: float) -> np.ndarray:
    vals = np.empty(len(seq))
    vals[0] = seq[0]
    vals[1:] = _binomial_means_dense(seq, p, np.arange(1, len(seq)))
    return vals


# Rows, and terms, per block of sparse rows; keep the block's arrays, and
# peak memory, small.
_BLOCK_ROWS = 2**11
_BLOCK_TERMS = 2**13

# Past the nearest support index outside a row's window, the kept range goes
# on outward until the mass has fallen by 2**-64.
_LOG_EXTEND = 64.0 * math.log(2.0)


def _sparse_extension(ratio):
    """Steps t past a support index with outward mass ratio ``ratio`` < 1
    after which the mass has fallen by 2**-64, and the bound ratio**(t+1) /
    (1 - ratio) on all the mass beyond them, relative to the mass at that
    index (both 0 where ratio is 0)."""
    with np.errstate(divide="ignore"):
        t = np.ceil(_LOG_EXTEND / -np.log(ratio))
    return t.astype(np.int64), np.power(ratio, t + 1.0) / (1.0 - ratio)


def _sparse_terms(idx, av, p, ns, first, count):
    """Means and sums of |terms| of the rows ns, row r weighting the support
    slice idx[first[r]:first[r] + count[r]] (every count >= 1), with the
    masses and the offset of each row's first term among them."""
    offsets = np.zeros(len(ns), dtype=np.int64)
    np.cumsum(count[:-1], out=offsets[1:])
    pos = np.arange(offsets[-1] + count[-1]) + np.repeat(first - offsets, count)
    # a lone row (point queries) skips log_pmf_many's per-distinct-n pass
    rows_n = ns[0] if len(ns) == 1 else np.repeat(ns, count)
    masses = np.exp(log_pmf_many(rows_n, p, idx[pos]))
    weighted = masses * av[pos]
    value = np.add.reduceat(weighted, offsets)
    scale = np.add.reduceat(np.abs(weighted, out=weighted), offsets)
    return value, scale, masses, offsets


def _whole_support_mean(idx, av, p, n, k):
    """sum_i B(n,i,p) * av[i] over the first k support indices, all <= n:
    the sparse kernel's fallback for a row it cannot certify."""
    return np.exp(log_pmf_many(n, p, idx[:k])) @ av[:k]


def _sparse_rows(idx, av, peak, p, ns):
    """_binomial_means_sparse for a block of rows; peak[j] = max |av[:j+1]|."""
    out = np.zeros(len(ns))
    size = np.searchsorted(idx, ns, side="right")  # support indices <= n
    rows = np.flatnonzero(size)
    if not len(rows):
        return out
    q = 1.0 - p
    n, k = ns[rows], size[rows]
    x = (n + 1.0) * p
    m = np.floor(x)
    m -= m == x  # mode_index
    half = np.ceil(9.0 * np.sqrt(n * p * q)) + 30.0
    lo = np.searchsorted(idx, (m - half).astype(np.int64), side="left")
    hi = np.minimum(np.searchsorted(idx, (m + half).astype(np.int64), side="right"), k)

    # the nearest support index outside the window on each side, if any
    left, right = lo > 0, hi < k
    j_lo = idx[np.maximum(lo - 1, 0)].astype(float)
    j_hi = idx[np.minimum(hi, k - 1)].astype(float)
    t_lo, tail_lo = _sparse_extension(np.where(left, j_lo * q / ((n - j_lo + 1.0) * p), 0.0))
    t_hi, tail_hi = _sparse_extension(np.where(right, (n - j_hi) * p / ((j_hi + 1.0) * q), 0.0))
    first = np.where(left, np.searchsorted(idx, j_lo.astype(np.int64) - t_lo), lo)
    last = np.searchsorted(idx, j_hi.astype(np.int64) + t_hi, side="right")
    count = np.where(right, np.minimum(last, k), hi) - first
    # where j_lo and j_hi sit among a row's terms (any term where absent)
    at_lo = np.where(left, lo - 1 - first, 0)
    at_hi = np.where(right, hi - first, 0)

    ends = np.cumsum(count)
    start = 0
    while start < len(rows):
        stop = np.searchsorted(ends, ends[start] - count[start] + _BLOCK_TERMS, "right")
        block = slice(start, max(stop, start + 1))
        value, scale, masses, offsets = _sparse_terms(
            idx, av, p, n[block], first[block], count[block]
        )
        dropped = masses[offsets + at_lo[block]] * tail_lo[block]
        dropped += masses[offsets + at_hi[block]] * tail_hi[block]
        certified = (dropped * peak[k[block] - 1] <= 2.0**-53 * scale) & np.isfinite(value)
        for r in np.flatnonzero(~certified):
            value[r] = _whole_support_mean(idx, av, p, int(n[start + r]), int(k[start + r]))
        out[rows[block]] = value
        start = block.stop
    return out


def _binomial_means_sparse(idx: np.ndarray, av: np.ndarray, p: float, ns) -> np.ndarray:
    """sum_{i in idx, i <= n} B(n,i,p) * av[i] for each n of the array ns.

    idx holds the sorted support indices, av their values; ns may come in
    any order.  A row keeps the support inside the dense window m +- W
    around its mode m and, on each side, the nearest support index j outside
    it plus every index up to t steps further out, where the mass ratio r
    one step outward from j gives r**t <= 2**-64 (ratios only fall moving
    outward).  The mass beyond is at most B(n,j,p) r**(t+1) / (1 - r); a
    row is kept only if that dropped mass, times max |av| over indices <= n,
    is at most 2**-53 of its kept sum B |av|.  Other rows, and rows that
    come out non-finite, are exp(log_pmf_many(n, p, idx[:k])) @ av[:k] over
    the whole support <= n.  Rows go in blocks of _BLOCK_ROWS, their kept
    terms through log_pmf_many in blocks of about _BLOCK_TERMS, each row
    summed pairwise.
    """
    ns = np.asarray(ns, dtype=np.int64)
    out = np.empty(len(ns))
    peak = np.abs(av)
    np.maximum.accumulate(peak, out=peak)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(ns), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            out[block] = _sparse_rows(idx, av, peak, p, ns[block])
    return out


def _binomial_prefix_sparse(a: RealSequence, p: float, horizon: int) -> np.ndarray:
    idx, av = a.support(horizon)
    return _binomial_means_sparse(idx, av, p, np.arange(horizon + 1))


def binomial_prefix(a: RealSequence, p: float, horizon: int) -> TransformedPrefix:
    """Binomially weighted means: entry n is sum_i B(n,i,p) * a_i.

    Dense sequences are weighted inside a certified window around each row's
    mode, O(horizon^1.5) total for bounded sequences; rows whose window
    cannot be certified to drop less than 2**-53 of sum_i B(n,i,p) |a_i|
    use the full PMF row, as do rows with non-finite values, so unbounded or
    tilted sequences cost up to O(horizon^2).  Sparse sequences are weighted
    only on their declared support, inside a certified window extended to the
    nearest support index on each side (_binomial_means_sparse).
    """
    _check_prob(p)
    _check_horizon(horizon)
    if a.sparse:
        vals = _binomial_prefix_sparse(a, p, horizon)
    else:
        vals = _binomial_prefix_dense(a.prefix(horizon), p)
    return TransformedPrefix("binomial", p, vals)


def binomial_mean_at(a: RealSequence, p: float, n: int) -> float:
    """Single binomial-mean value at index n, without building the prefix.

    Dense and sparse sequences go through the same certified windows as
    binomial_prefix.
    """
    _check_prob(p)
    _check_horizon(n)
    if a.sparse:
        return float(_binomial_means_sparse(*a.support(n), p, np.array([n]))[0])
    seq = a.prefix(n)
    if n == 0:
        return float(seq[0])
    return float(_binomial_means_dense(seq, p, np.array([n]))[0])


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
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ParameterDomainError(f"n must be a non-negative integer, got {n!r}")
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
    """
    _check_prob(p)
    _check_horizon(n)
    table = weights(n, p)
    seq = a.prefix(n)
    eps = epsilon(n)
    lo = math.floor(p * n - eps)  # last plateau index
    hi = math.floor(p * n + eps)  # first tail index
    terms = table.weights * seq
    x = math.fsum(terms[0 : min(lo, n) + 1]) if lo >= 0 else 0.0
    y_start, y_stop = max(lo + 1, 0), min(hi - 1, n) + 1
    y = math.fsum(terms[y_start:y_stop]) if y_stop > y_start else 0.0
    z = math.fsum(terms[max(hi, 0) : n + 1]) if hi <= n else 0.0
    return SplitSums(x, y, z, int(n), p)
