"""Numerically stable evaluation of the binomial probability mass function.

Each mass computation is one routine, shared by every caller:

* log_pmf_many: log masses by one elementwise formula, so trial counts up
  to 1e7 never overflow (log_pmf is its scalar form), with log k! from
  _log_factorial, numpy only: correctly rounded table entries below 2048,
  Stirling's series above, within 2 ulp.  A caller that needs log k! for
  most k up to some top (a prefix of means) takes them once from
  _log_factorials and passes that table; each mass keeps its bits.
* _unit_window: ratio products from a unit seed at the mode over a window
  of one row or a column of rows, which keep relative accuracy in the far
  tails, and a bound on the mass outside; _row_mass normalises them.
* _certified: the 2**-53 test of a window's dropped mass.

Tail masses outside a band around n p (tail_mass_outside) come from a
row's two tail tables, P[X <= a] and P[X >= b], then O(1) per radius.
Every fourth row seeds them afresh in O(n) from compensated sums of its
masses, corrected for the rounding of q = 1 - p, both tables in one
scan; the rows between step from it by X' = X + Bernoulli(p), a few
vector operations each.  Tails are within 7e-15 relative of exact
rationals for n < 3000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ParameterDomainError, PreconditionError
from .summation import compensated_cumsum, two_sum

__all__ = [
    "PMFParams",
    "PMFRow",
    "pmf",
    "log_pmf",
    "log_pmf_many",
    "pmf_row",
    "mode_index",
    "tail_mass_outside",
    "chernoff_bound",
    "center_ratio",
    "peak_asymptotic_ratio",
]


@dataclass(frozen=True)
class PMFParams:
    """Binomial distribution parameters: n trials, success probability p."""

    n: int
    p: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise ParameterDomainError(f"n must be an integer, got {self.n!r}")
        if self.n < 0:
            raise ParameterDomainError(f"n must be non-negative, got {self.n}")
        if not (0.0 < self.p < 1.0):
            raise ParameterDomainError(f"p must lie strictly inside (0, 1), got {self.p!r}")


@dataclass(frozen=True)
class PMFRow:
    """Full mass vector of a binomial distribution: mass[i] = P[X = i]."""

    params: PMFParams
    mass: np.ndarray


def log_pmf(params: PMFParams, i: int) -> float:
    """Natural log of P[X = i], or -inf outside the support; equals the
    log_pmf_many entry bit for bit.  i must be integer-valued: an integer
    float or a numpy integer is accepted, NaN and fractions are not."""
    if not isinstance(i, (int, np.integer)) and not float(i).is_integer():
        raise ParameterDomainError(f"index must be an integer, got {i!r}")
    if i < 0 or i > params.n:
        return -math.inf
    return float(log_pmf_many(params.n, params.p, i))


def pmf(params: PMFParams, i: int) -> float:
    """P[X = i] for X ~ Binomial(n, p); exactly 0 for i outside [0, n]."""
    return math.exp(log_pmf(params, i))


def _log_factorial_table(size: int) -> np.ndarray:
    """log k! for k < size, each rounded once from a sum within a few 1e-16
    of the exact value.

    math.log of an integer past the double range adds e * log(2) in double
    arithmetic, which costs up to 1.2 ulp at k near 2000.  Here k! = m 2**e
    with m below 2**64, and e log(2) is split as in fdlibm (the high part
    has 32 bits, so e times it is exact) before one math.fsum.
    """
    ln2_hi, ln2_lo = 6.93147180369123816490e-01, 1.90821492927058770002e-10
    out = np.empty(size)
    f = 1
    for k in range(size):
        f *= max(k, 1)
        shift = max(f.bit_length() - 64, 0)
        if not shift:
            out[k] = math.log(f)
            continue
        e = shift + 64  # k! = m 2**e, m = (k! >> shift) / 2**64 in [1/2, 1)
        out[k] = math.fsum([math.log(math.ldexp(f >> shift, -64)), e * ln2_hi, e * ln2_lo])
    return out


# log k! below 2048 is a table entry; from there up, the first term
# Stirling's series leaves out, 1/(360 k**3), is below 0.2 ulp of log k!.
_LOG_FACTORIALS = _log_factorial_table(2048)
# The constants of _log_factorial as 0-d arrays: a short ufunc call takes
# one about a third faster than a Python float, whose type it resolves anew.
_STIRLING_FROM = np.array(float(len(_LOG_FACTORIALS)))
_HALF, _ONE, _TWELFTH = np.array(0.5), np.array(1.0), np.array(1.0 / 12.0)
_STIRLING_CONST = np.array(0.5 * math.log(2.0 * math.pi) + 0.5)


def _log_factorial(x) -> np.ndarray:
    """lgamma(x + 1) for an array of non-negative integer-valued floats.

    From _STIRLING_FROM up it is Stirling's series with one correction
    term, (x + 1/2)(log x - 1) + (log(2 pi) + 1)/2 + 1/(12 x), where 1/(12 x)
    is the stirlerr term of Loader's saddle-point method; below, a table
    entry.  Within 2 ulp of the exact value (the rounding of log x, times
    x, is most of it).
    """
    small = x < _STIRLING_FROM
    any_small = np.count_nonzero(small)  # cheaper than small.any() on short arrays
    y = np.maximum(x, _STIRLING_FROM) if any_small else x
    out = (y + _HALF) * (np.log(y) - _ONE) + (_STIRLING_CONST + _TWELFTH / y)
    if any_small:
        out[small] = _LOG_FACTORIALS[x[small].astype(np.intp)]
    return out


def _log_factorials(top: int) -> np.ndarray:
    """log k! for k = 0..top in one _log_factorial pass: entry for entry the
    values log_pmf_many takes term by term, for its private ``_table``."""
    return _log_factorial(np.arange(top + 1.0))


def log_pmf_many(n, p: float, indices, *, _counts=None, _table=None) -> np.ndarray:
    """log P[X = i] for each index i inside the support of row n.

    ``n`` is a trial count or an integer array broadcast against
    ``indices``; with the private ``_counts`` (the log-space blocks of rows)
    it holds one n per row, and row r covers the next _counts[r] indices.
    With the private ``_table`` (_log_factorials up to the largest n, and
    integer n and an integer array of indices) log k! is read from it
    instead of evaluated.  One elementwise expression, evaluated in place
    on the buffer of the log i! it reads, so an entry depends only on its
    own (n, i): every layout of equal (n, i), with or without a table,
    gives the same bits.
    """
    if _table is not None:
        i, rest = indices, (n if _counts is None else n.repeat(_counts)) - indices
        head, lf_i, lf_rest = _table[n], _table[i], _table[rest]
    else:
        n = np.asarray(n, dtype=float)
        rows = n if _counts is None else np.repeat(n, _counts)
        shape = np.broadcast(rows, indices).shape
        k = math.prod(shape)
        # i, n - i and n's own entries in one array: one _log_factorial pass
        # keeps the fixed numpy cost of a short call low, and takes log n! once
        x = np.empty(2 * k + n.size)
        i, rest = x[:k].reshape(shape), x[k : 2 * k].reshape(shape)
        i[...], x[2 * k :] = indices, n.ravel()
        np.subtract(rows, i, out=rest)
        lf = _log_factorial(x)
        head = lf[2 * k :].reshape(n.shape)
        lf_i, lf_rest = lf[:k].reshape(shape), lf[k : 2 * k].reshape(shape)
    if _counts is not None:
        head = head.repeat(_counts)
    # head - lf_i - lf_rest + i log p + rest log q, left to right, in place
    out = np.subtract(head, lf_i, out=lf_i)
    out -= lf_rest
    out += np.multiply(i, math.log(p), out=lf_rest)
    out += np.multiply(rest, math.log1p(-p), out=lf_rest)
    return out


def _lib(n):
    """numpy for an array n, math for a number: _mode and _window_halfwidth
    take either, with the same values (floor, ceil and sqrt are exact or
    correctly rounded in both), as ints for a number."""
    return np if isinstance(n, np.ndarray) else math


def _mode(n, p: float):
    """mode_index of row n, for a number n or an array of them (as floats).

    For 0 < p < 1 it lies in [0, n]: (n+1)p > 0 cannot round to 0, and
    where it rounds up to n + 1 the tie rule takes it back to n.
    """
    x = (n + 1.0) * p
    m = _lib(n).floor(x)
    return m - (m == x)


def _ratio_up(n, i, p: float):
    """mass[i] / mass[i-1] of row n; 0 at i = n + 1.  n + 1 - i and i are
    exact integer floats, so one (n, i) gives one double for every caller."""
    return (n + 1.0 - i) * p / (i * (1.0 - p))


def _ratio_down(n, i, p: float):
    """mass[i-1] / mass[i] of row n; 0 at i = 0."""
    return i * (1.0 - p) / ((n + 1.0 - i) * p)


def mode_index(params: PMFParams) -> int:
    """Smallest index maximizing the mass.

    Equals floor((n+1)p), except when (n+1)p is an integer m: then mass[m]
    ties mass[m-1] and the smaller index wins.
    """
    return int(_mode(params.n, params.p))


def _window_halfwidth(n, p: float):
    """Half-width W = ceil(9 sqrt(n p q)) + 30 of the certified window around
    row n's mode (a float array for an array n).  The binomial means of
    transforms and the row slices of _row_mass keep at least the window
    m +- W of every row they weight."""
    lib = _lib(n)
    return lib.ceil(9.0 * lib.sqrt(n * p * (1.0 - p))) + 30


def _unit_window(n, m, p: float, below: int, above: int):
    """Ratio products of row n over m - below..m + above from 1.0 at its
    mode m, and a bound on the mass outside them relative to that seed.

    n and m are numbers, or 1-d float arrays for a column of rows (one row
    of products each).  Products only shrink moving away from the peak, so
    nothing overflows, and the ratio into index -1 or n + 1 is 0.  The
    bound is, on each side that stops short of 0 or n, the edge product
    times r / (1 - r), r the ratio one step further out (ratios only fall
    moving outward); where every row's span reaches 0 and n it is 0 and is
    not computed.
    """
    rows = (len(n),) if isinstance(n, np.ndarray) else ()
    col, mode = (n[:, None], m[:, None]) if rows else (n, m)
    w = np.empty(rows + (below + above + 1,))
    w[..., below] = 1.0
    # each side's _ratio_up and _ratio_down in two buffers, rounded as they are
    q = 1.0 - p
    i = mode + np.arange(1.0, above + 1.0)
    t = col + 1.0 - i
    t *= p
    i *= q
    t /= i
    np.cumprod(t, axis=-1, out=w[..., below + 1 :])
    i = mode - np.arange(float(below))
    t = col + 1.0 - i
    t *= p
    i *= q
    i /= t
    np.cumprod(i, axis=-1, out=w[..., :below][..., ::-1])
    if rows and (m <= below).all() and (n - m <= above).all():
        return w, np.zeros(rows)
    if not rows and m <= below and n - m <= above:
        return w, 0.0
    # w.T[0] and w.T[-1] are each row's edge products.  Past 0 or n the
    # ratios are <= 0, so a side that is not cut adds +-0.
    lo, hi = m - below, m + above
    r_lo, r_hi = _ratio_down(n, lo, p), _ratio_up(n, hi + 1.0, p)
    dropped = w.T[0] * r_lo / (1.0 - r_lo) * (lo > 0)
    dropped += w.T[-1] * r_hi / (1.0 - r_hi) * (hi < n)
    return w, dropped


def _certified(value, scale, dropped, peak):
    """Whether dropped mass times peak, the largest |a_i| weighted, is at
    most 2**-53 of the kept sum B |a_i|, scale, and value is finite (numbers
    or arrays)."""
    return (dropped * peak <= 2.0**-53 * scale) & (abs(value) < math.inf)


def _row_mass(n: int, p: float, *, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Masses of row n at the indices lo..min(hi, n), lo >= 0; all n + 1 of
    them with the default bounds.

    The _unit_window products over the span [max(0, min(lo, m - W)),
    min(n, max(hi, m + W))], W the window half-width, divided by their sum,
    which also pins it against the recurrence's ~n*eps drift: O(n) for the
    whole row, O(sqrt(n) + hi - lo) for a slice near the mode.  A span that
    is not _certified is sliced from the whole row instead.
    """
    hi = n if hi is None else hi
    m = int(_mode(n, p))
    start, stop = 0, n
    if lo > 0 or hi < n:  # the default bounds span the whole row
        half = int(_window_halfwidth(n, p))
        start, stop = max(0, min(lo, m - half)), min(n, max(hi, m + half))
    mass, dropped = _unit_window(n, m, p, m - start, stop - m)
    total = mass.sum()
    if not _certified(total, total, dropped, 1.0):
        return _row_mass(n, p)[lo : hi + 1]
    mass /= total
    return mass[lo - start : hi - start + 1]


def pmf_row(params: PMFParams) -> PMFRow:
    """All n+1 masses at once, as _row_mass's ratio products: O(n) work and
    memory.  pmf(params, i) is a log-space mass, off by up to about eps n
    ln n relative, so the two differ by up to about that: 3.4e-14 at n =
    50, p = 0.3 (50 of 51 entries; row 14 eps, pmf 141 eps from exact)."""
    return PMFRow(params, _row_mass(params.n, params.p))


# A tail table is seeded afresh at every row that is a multiple of
# _TAIL_SEED and stepped from there to the rows up to the next seed.
_TAIL_SEED = 4
# (n, p, left, right, c, k, left_view, right_view) of the row _tail_row
# returned last: its tables, c = fl(n p), k = ceil(c) and memoryviews of
# the tables, which a scalar query reads; p = 0 matches none
_tail_slot = (-1, 0.0, None, None, 0.0, 0, None, None)


def _tail_seed(n: int, p: float):
    """Tail tables of seed row (n, p): left[a] = P[X <= a] and right[b] =
    P[X >= b] for a, b = 0..n.  Two read-only doubles per index.

    The masses are the full-row _unit_window products with one first-order
    correction.  Their q = fl(1 - p) misses 1 - p by e, exactly known from
    TwoSum, and every ratio carries it, so product i drifts by about
    (i - n p) e / q relative: 8.6e-14 at n = 2999, p = 0.3.  Each product
    is multiplied by 1 - (i - n p) e / q, which leaves their own roundings
    and moves the row's sum by O(e**2).  left is their compensated prefix
    sums and right their compensated suffix sums, so each entry sums its
    small far-tail masses first and is the sum of the masses it covers up
    to about one rounding; both are divided by the compensated total
    left[n].  Both come from one summation.compensated_cumsum scan over
    the masses and their reverse as the two rows of one array, so left has
    the bits of compensated_cumsum(w) and right, the second row read
    backwards, those of suffix_sums(w).  Building costs O(n): the row and
    one scan.
    """
    m = int(_mode(n, p))
    w, _ = _unit_window(n, m, p, m, n - m)
    q, e = two_sum(1.0, -p)
    v = np.empty((2, n + 1))  # the masses and their reverse, cheaper than np.stack
    v[0] = w
    if e:
        v[0] *= 1.0 - (np.arange(n + 1.0) - n * p) * (e / q)
    v[1] = v[0, ::-1]
    s = compensated_cumsum(v)
    total = s[0, -1]
    left, right = s[0] / total, s[1, ::-1] / total  # both in index order
    left.flags.writeable = right.flags.writeable = False
    return left, right


def _tail_step(left, right, p: float):
    """The tail tables of row n + 1 from those of row n.

    X' = X + Y with Y a Bernoulli(p) trial, so P[X' <= a] = q P[X <= a] +
    p P[X <= a - 1] and P[X' >= b] = q P[X >= b] + p P[X >= b - 1], with
    P[X <= n + 1] = P[X >= -1] = 1 and P[X <= -1] = P[X >= n + 1] = 0
    (q = fl(1 - p)).  A sum of two positive products: each entry takes on
    at most about 1.5 ulp of relative error, and the rounding of q about
    e / q more, where the raw-mass recurrence over a whole triangle would
    compound n steps.  O(n): a few vector operations.
    """
    q = 1.0 - p
    size = len(left) + 1
    lo, hi = np.empty(size), np.empty(size)
    np.multiply(left, q, out=lo[:-1])
    lo[-1] = q
    lo[1:] += p * left
    np.multiply(right, q, out=hi[:-1])
    hi[-1] = 0.0
    hi[1:] += p * right
    hi[0] += p
    lo.flags.writeable = hi.flags.writeable = False
    return lo, hi


def _tail_row(n: int, p: float):
    """Tail tables (left, right) of row (n, p), as _tail_seed's: the seed
    row n0 = n - n % _TAIL_SEED stepped n - n0 times by _tail_step.

    So a row is at most three steps from its seed, about 4.5 ulp of
    relative error more (tails within 7e-15 relative of exact rationals
    for n < 3000), and its bits depend on (n, p) alone.  One slot holds the
    row returned last: a query at that row reads it, a later row of the
    same seed steps forward from it, and any other row seeds afresh.  A
    sweep of consecutive n at one p thus makes one seed and up to three
    steps a seed, and the last table stays in memory until another row
    replaces it.  The slot also holds c = fl(n p), k = ceil(c) and
    memoryviews of the two tables, from which a scalar tail_mass_outside
    query at this row reads its two entries as Python floats.
    """
    global _tail_slot
    row, slot_p, left, right = _tail_slot[:4]
    if row == n and slot_p == p:
        return left, right
    if not (slot_p == p and row < n and row // _TAIL_SEED == n // _TAIL_SEED):
        row = n - n % _TAIL_SEED
        left, right = _tail_seed(row, p)
    for _ in range(n - row):
        left, right = _tail_step(left, right, p)
    c = n * p
    _tail_slot = (n, p, left, right, c, math.ceil(c), memoryview(left), memoryview(right))
    return left, right


def tail_mass_outside(params: PMFParams, radius: float | np.ndarray) -> float | np.ndarray:
    """Total mass at indices i with |i - n p| >= radius.

    ``radius`` may be an array of radii; the result is then an array of the
    same shape whose entries equal the scalar calls bit for bit.  A
    negative or NaN radius is rejected.  The distance |i - n p| is the
    double |fl(i - c)|, c = fl(n p).

    Those indices are two runs, 0..a below c and b..n from c on, so the
    tail is left[a] + right[b] of the row's tables (see _tail_row), which
    the first query at an (n, p) builds or steps to in O(n).  Each radius
    then costs O(1).  For n < 2**52, c - i is exact for integers i < c, so
    a = floor(c - r), except where fl(c - r) rounds up onto an integer; on
    the right fl(i - c) can round, but never past the integer b, so b is
    ceil(c + r) or one more.  Either way the run may take one index too
    many, the one nearest c, and one test of its distance drops it.  A
    tail is a sum of two table entries, so its error is about theirs:
    within 7e-15 relative of the exact tail for n < 3000, wherever that is
    a normal double.

    A Python float radius returns a Python float.  At the (n, p) of
    _tail_row's slot it reads c, k and the two table entries straight off
    the slot, with no numpy call; at any other row it calls _tail_row
    first.  Every other radius takes the array path.
    """
    n, p = params.n, params.p
    if type(radius) is float:  # sweeps make many scalar calls: no array round trip
        if not radius >= 0.0:  # a NaN fails it too
            raise ParameterDomainError(f"radius must be non-negative, got {radius!r}")
        if radius > n:  # every distance is at most n
            return 0.0
        row, slot_p, _, _, c, k, left, right = _tail_slot  # k: the right run's first index
        if row != n or slot_p != p:
            _tail_row(n, p)
            _, _, _, _, c, k, left, right = _tail_slot
        a = math.floor(c - radius)
        if a >= k:
            a = k - 1
        if a >= 0 and c - a < radius:
            a -= 1
        b = math.ceil(c + radius)  # at least k, as c + r >= c
        if b <= n and b - c < radius:
            b += 1
        return (left[a] if a >= 0 else 0.0) + (right[b] if b <= n else 0.0)
    radii = np.asarray(radius, dtype=float)
    if not (radii >= 0.0).all():
        raise ParameterDomainError(f"radius must be non-negative, got {radius!r}")
    left, right = _tail_row(n, p)
    c = n * p
    k = math.ceil(c)
    # the scalar path's arithmetic; a radius above n selects nothing, as n + 1
    r = np.minimum(radii, n + 1.0)
    a = np.minimum(np.floor(c - r), k - 1)
    a -= (a >= 0) & (c - a < r)
    b = np.ceil(c + r)
    b += (b <= n) & (b - c < r)
    a, b = a.astype(np.intp), b.astype(np.intp)
    out = np.where(a >= 0, left[np.maximum(a, 0)], 0.0)
    out += np.where(b <= n, right[np.minimum(b, n)], 0.0)
    return float(out) if radii.ndim == 0 else out


def chernoff_bound(params: PMFParams, alpha: float) -> float:
    """Exponential tail bound 2 exp(-alpha^2 / (3 p)).

    Dominates tail_mass_outside(params, sqrt(n) * alpha) whenever
    0 < alpha < p * sqrt(n); outside that range nothing is guaranteed and
    the call is rejected.
    """
    n, p = params.n, params.p
    if not (0.0 < alpha < p * math.sqrt(n)):
        raise PreconditionError(
            f"alpha must satisfy 0 < alpha < p*sqrt(n) = {p * math.sqrt(n)!r}, got {alpha!r}"
        )
    return 2.0 * math.exp(-alpha * alpha / (3.0 * p))


def center_ratio(params: PMFParams, beta: int) -> float:
    """mass[floor(n p)] / mass[floor(n p) - beta], as a log-space difference.

    For n >= 100 and 8 <= |beta| <= sqrt(n) the result stays below
    exp(beta**2 / (p (1-p) n)) up to rounding; for smaller |beta| the ratio
    is still computed but no bound is promised (integer floor effects can
    push it past that expression).  beta must be integer-valued, as the
    index of log_pmf.
    """
    if not isinstance(beta, (int, np.integer)) and not float(beta).is_integer():
        raise ParameterDomainError(f"beta: index must be an integer, got {beta!r}")
    n, p = params.n, params.p
    m = math.floor(n * p)
    j = m - beta
    if not (0 <= j <= n):
        raise PreconditionError(
            f"denominator index {j} falls outside the support [0, {n}]"
        )
    return math.exp(log_pmf(params, m) - log_pmf(params, j))


def peak_asymptotic_ratio(params: PMFParams) -> float:
    """sqrt(2 pi p (1-p) n) times the mass at floor(n p); tends to 1 in n."""
    n, p = params.n, params.p
    if n < 1:
        raise PreconditionError("n must be at least 1")
    peak = math.exp(log_pmf(params, math.floor(n * p)))
    return math.sqrt(2.0 * math.pi * p * (1.0 - p) * n) * peak
