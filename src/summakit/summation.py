"""Compensated running sums: one vectorised scan serves every long sum.

Cesaro means, p* means and the suffix sums behind weight tables all go
through compensated_cumsum, which evaluates Sum2 of Ogita, Rump & Oishi
(Accurate Sum and Dot Product, SIAM J. Sci. Comput. 2005) at every prefix:
the plain cumulative sum, plus the cumulative sum of the exact rounding
error of each of its steps (Knuth's TwoSum).  Entry k is within
u |S_k| + gamma_k**2 * sum_{i<=k} |v_i| of the exact prefix sum S_k
(u = 2**-53, gamma_k = k u / (1 - k u)), i.e. as accurate as summing in
twice the working precision and rounding once.  Where the plain cumulative
sum is non-finite the scan returns it unchanged, with IEEE semantics: inf
stays inf, inf + -inf is NaN, and NaN propagates.
"""

import numpy as np


def compensated_cumsum(values) -> np.ndarray:
    """Prefix sums of a vector, entry k = Sum2(values[0..k])."""
    v = np.asarray(values, dtype=float)
    s = np.cumsum(v)
    # the compensation's own inf - inf past a non-finite sum is not the data's
    with np.errstate(invalid="ignore"):
        # TwoSum: s[k] + err[k-1] == s[k-1] + v[k] exactly
        z = s[1:] - s[:-1]
        err = (s[:-1] - (s[1:] - z)) + (v[1:] - z)
    # once a partial sum is non-finite every later one is, so s[-1] tells;
    # err is non-finite only where s already is, and zeroing it there
    # leaves those sums as they are
    if not np.isfinite(s[-1:]).all():
        err[~np.isfinite(err)] = 0.0
    s[1:] += np.cumsum(err)
    return s


def running_mean(values) -> np.ndarray:
    """Cumulative means: entry k is the mean of values[0..k]."""
    sums = compensated_cumsum(values)
    sums /= np.arange(1, len(sums) + 1)
    return sums


def suffix_sums(values) -> np.ndarray:
    """Right-to-left cumulative sums: entry k is the sum of values[k:]."""
    return compensated_cumsum(np.asarray(values, dtype=float)[::-1])[::-1]
