"""Compensated running sums: one vectorised scan serves every long sum.

Cesaro means, p* means, the suffix sums behind weight tables and the
binomial tail tables all go through compensated_cumsum, which evaluates
Sum2 of Ogita, Rump & Oishi (Accurate Sum and Dot Product, SIAM J. Sci.
Comput. 2005) at every prefix: the plain cumulative sum, plus the
cumulative sum of the exact rounding error of each of its steps (Knuth's
TwoSum).  Entry k is within
u |S_k| + gamma_k**2 * sum_{i<=k} |v_i| of the exact prefix sum S_k
(u = 2**-53, gamma_k = k u / (1 - k u)), i.e. as accurate as summing in
twice the working precision and rounding once.  Where the plain cumulative
sum is non-finite the scan returns it unchanged, with IEEE semantics: inf
stays inf, inf + -inf is NaN, and NaN propagates.

The same error-free transformations give double-double powers: power_dd
raises a base held as an unevaluated sum hi + lo to integer powers by
binary powering, each product exact up to about 2**-104 relative through
Dekker's TwoProduct (T. J. Dekker, A floating-point technique for
extending the available precision, Numer. Math. 1971), with the operands
split by Veltkamp's 2**27 + 1 multiplier, since math.fma needs Python 3.13.
"""

import numpy as np

# Veltkamp's splitter: _split(x) cuts a double into two halves of at most
# 26 significant bits each, so their pairwise products are exact.
_SPLITTER = 2.0**27 + 1.0


def two_sum(a, b):
    """s = fl(a + b) and err with s + err == a + b exactly (Knuth's TwoSum)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _split(x):
    c = _SPLITTER * x
    hi = c - (c - x)
    return hi, x - hi


def two_product(a, b):
    """x = fl(a * b) and err with x + err == a * b exactly (Dekker), for
    operands well inside the double range."""
    x = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return x, al * bl - (((x - ah * bh) - al * bh) - ah * bl)


def _mul_dd(ah, al, bh, bl):
    """(ah + al)(bh + bl) as a renormalised double-double."""
    x, err = two_product(ah, bh)
    err += ah * bl + al * bh
    s = x + err
    return s, err - (s - x)


def _normalised(hi, lo, e):
    """(hi, lo, e) rescaled by a power of two so that hi lies in [1/2, 1)."""
    hi, k = np.frexp(hi)
    return hi, np.ldexp(lo, -k), e + k.astype(np.int64)


def power_dd(hi: float, lo: float, ns: np.ndarray):
    """(hi + lo)**n for each n of the non-negative integer array ns, as
    mantissas (m_hi, m_lo) and int64 exponents e with
    (hi + lo)**n = (m_hi + m_lo) * 2**e, m_hi in [1/2, 1).

    hi + lo must be a positive normalised double-double.  Each product
    adds a relative error of a few 2**-104 (exact TwoProduct plus rounded
    cross terms), and a squaring doubles the error already present, so
    m_hi + m_lo is within about n * 2**-102 relative: below one rounding to
    double for every n under 2**40.  Mantissa and exponent are kept apart
    at every step, so no intermediate overflows or underflows.
    """
    ns = np.asarray(ns, dtype=np.int64)
    m_hi, m_lo, e = np.full(len(ns), 0.5), np.zeros(len(ns)), np.ones(len(ns), np.int64)
    b_hi, b_lo, b_e = _normalised(np.float64(hi), np.float64(lo), np.int64(0))
    top = int(ns.max(initial=0))
    bit = 1
    while bit <= top:
        odd = (ns & bit) != 0
        x_hi, x_lo = _mul_dd(m_hi, m_lo, b_hi, b_lo)
        x_hi, x_lo, x_e = _normalised(x_hi, x_lo, e + b_e)
        m_hi, m_lo, e = np.where(odd, x_hi, m_hi), np.where(odd, x_lo, m_lo), np.where(odd, x_e, e)
        bit <<= 1
        if bit <= top:
            b_hi, b_lo, b_e = _normalised(*_mul_dd(b_hi, b_lo, b_hi, b_lo), 2 * b_e)
    return m_hi, m_lo, e


def compensated_cumsum(values) -> np.ndarray:
    """Prefix sums along the last axis, entry k = Sum2(values[..., 0..k]).

    Each row of a 2-D input is scanned on its own, with the bits a 1-D call
    on that row gives: a cumulative sum adds along the row from the left,
    and the rest is elementwise.
    """
    v = np.asarray(values, dtype=float)
    s = np.add.accumulate(v, axis=-1)
    a, b, t = s[..., :-1], v[..., 1:], s[..., 1:]
    # the compensation's own inf - inf past a non-finite sum is not the data's
    with np.errstate(invalid="ignore"):
        # two_sum's error (a - (t - z)) + (b - z), z = t - a, of each step,
        # in place on two temporaries: t + err == a + b exactly
        z = t - a
        err = t - z
        np.subtract(a, err, out=err)
        err += np.subtract(b, z, out=z)
    # once a partial sum is non-finite every later one of its row is, so
    # the last column tells; err is non-finite only where s already is, and
    # zeroing it there leaves those sums, and every other row, as they are
    if not np.isfinite(s[..., -1:]).all():
        err[~np.isfinite(err)] = 0.0
    t += np.add.accumulate(err, axis=-1, out=err)
    return s


def running_mean(values) -> np.ndarray:
    """Cumulative means: entry k is the mean of values[0..k].

    Where the first non-finite running sum comes at a finite term, the sums
    passed the double range while the means cannot: the scan is taken again
    on the terms times 2**-e, e the bits of the count plus one, so no sum
    of finite terms can overflow, and the means from that sum on are its
    means scaled back by 2**e (inf and NaN terms act there as in the plain
    scan).  Every other input, and every mean before that sum, takes the
    one plain scan, whose overflow is therefore never the result's.
    """
    v = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):
        sums = compensated_cumsum(v)
    count = np.arange(1, len(sums) + 1)
    if len(sums) and not np.isfinite(sums[-1]):
        first = int(np.isfinite(sums).argmin())
        if np.isfinite(v[first]):
            e = len(v).bit_length() + 1
            scaled = compensated_cumsum(np.ldexp(v, -e))[first:] / count[first:]
            sums[first:] = np.ldexp(scaled, e)
            sums[:first] /= count[:first]
            return sums
    sums /= count
    return sums


def suffix_sums(values) -> np.ndarray:
    """Right-to-left cumulative sums: entry k is the sum of values[k:]."""
    return compensated_cumsum(np.asarray(values, dtype=float)[::-1])[::-1]
