"""Reference values for checking summakit outputs, computed without summakit.

Nothing here imports the package under test.  Closed forms and binomial
masses are evaluated in 40-digit mpmath arithmetic from the exact binary
values of the float inputs, so their own error is far below one double
rounding.  Sparse brute-force sums use scipy.stats through
``tests/oracles.py``; their masses are good to about 1e-16 near the mode and
1e-12 in the far tails, which bounds what ``accuracy_digits`` can show on the
sparse paths.  ``test_bench.py`` checks these references against the
exact-rational oracles of ``tests/oracles.py`` at sizes those can afford.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.stats import binom

# brute-force p-binomial mean at n over a sparse support, with scipy masses
from oracles import sparse_binomial_scipy as sparse_binomial  # noqa: F401

MP = mpmath.MPContext()
MP.dps = 40

# Reference magnitudes below this are compared absolutely: a double cannot
# carry relative accuracy in the subnormal range.
TINY = 1e-290


class CheckFailed(Exception):
    """An output disagrees with its reference or is malformed."""


def rel_err(got, ref, scale=None) -> float:
    """|got - ref| over max(|ref|, scale, TINY), with ref and scale exact.

    ``scale`` is the sum of absolute weighted terms when the reference is a
    cancelling sum, so the error is measured against the problem's
    conditioning instead of a value that may be near zero.
    """
    got = float(got)
    if not math.isfinite(got):
        return math.inf
    den = max(abs(MP.mpf(ref)), MP.mpf(0 if scale is None else scale), MP.mpf(TINY))
    return float(abs(MP.mpf(got) - MP.mpf(ref)) / den)


def require(errors, tol, what):
    """Raise CheckFailed when any relative error exceeds tol; return the errors."""
    worst = max(errors, default=0.0)
    if not worst <= tol:
        raise CheckFailed(f"{what}: relative error {worst:.3e} > {tol:.0e}")
    return errors


# ---------------------------------------------------------------- sequences


def spike_support(C, height_scale, horizon):
    """Spike positions n_1 = 1, n_{j+1} = n_j + ceil(C sqrt(n_j)) up to horizon,
    with heights height_scale * sqrt(n_j)."""
    idx = []
    j = 1
    while j <= horizon:
        idx.append(j)
        j += math.ceil(C * math.sqrt(j))
    idx = np.asarray(idx, dtype=np.int64)
    return idx, height_scale * np.sqrt(idx.astype(float))


def islet_support(horizon):
    """Indices i <= horizon with |i - 4^k| < 2^k k for some k >= 1, valued 1."""
    blocks = []
    k = 1
    while 4**k - 2**k * k + 1 <= horizon:
        blocks.append(np.arange(4**k - 2**k * k + 1, min(4**k + 2**k * k - 1, horizon) + 1))
        k += 1
    idx = np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)
    return idx.astype(np.int64), np.ones(len(idx))


def sparse_support(family, horizon, C=None, height_scale=1.0):
    if family == "spikes":
        return spike_support(C, height_scale, horizon)
    return islet_support(horizon)


# ------------------------------------------------------------- closed forms


def _geo(r, n):
    """sum_{m=0}^{n} r^m."""
    return MP.mpf(n + 1) if r == 1 else (1 - r ** (n + 1)) / (1 - r)


def _dgeo(r, n):
    """sum_{m=1}^{n} m r^(m-1)."""
    if r == 1:
        return MP.mpf(n) * (n + 1) / 2
    return (1 - (n + 1) * r**n + n * r ** (n + 1)) / (1 - r) ** 2


def dense_binomial(family, a, p, n):
    """(value, scale) of the p-binomial mean at n of a dense family.

    alternating01: (1 + (1-2p)^n)/2; geometric: (p(a-1)+1)^n;
    signed_linear: -n p (1-2p)^(n-1).  scale is sum_i B(n,i,p) |a_i|.
    """
    p = MP.mpf(p)
    r = 1 - 2 * p
    if family == "alternating01":
        v = (1 + r**n) / 2
        return v, v
    if family == "geometric":
        a = MP.mpf(a)
        return (p * (a - 1) + 1) ** n, (p * (abs(a) - 1) + 1) ** n
    return (-n * p * r ** (n - 1) if n else MP.mpf(0)), n * p


def dense_pstar(family, a, p, n):
    """(value, scale) of the Cesaro mean of the binomial means 0..n."""
    p = MP.mpf(p)
    r = 1 - 2 * p
    if family == "alternating01":
        v = (n + 1 + _geo(r, n)) / (2 * (n + 1))
        return v, v
    if family == "geometric":
        a = MP.mpf(a)
        return _geo(p * (a - 1) + 1, n) / (n + 1), _geo(p * (abs(a) - 1) + 1, n) / (n + 1)
    return -p * _dgeo(r, n) / (n + 1), p * MP.mpf(n) / 2


def cesaro(family, n, a=None, C=None, height_scale=1.0):
    """(value, scale) of the running mean of terms 0..n."""
    if family == "alternating01":
        v = MP.mpf(n // 2 + 1) / (n + 1)
        return v, v
    if family == "signed_linear":
        s = n // 2 if n % 2 == 0 else -(n + 1) // 2
        return MP.mpf(s) / (n + 1), MP.mpf(n) / 2
    if family == "geometric":
        a = MP.mpf(a)
        return _geo(a, n) / (n + 1), _geo(abs(a), n) / (n + 1)
    _, vals = sparse_support(family, n, C, height_scale)
    v = MP.mpf(math.fsum(vals)) / (n + 1)
    return v, v


# ---------------------------------------------------------- binomial masses


def pmf(n, p, i):
    """P[X = i] for X ~ Binomial(n, p), to 40 digits."""
    if i < 0 or i > n:
        return MP.mpf(0)
    p = MP.mpf(p)
    return MP.binomial(n, i) * p**i * (1 - p) ** (n - i)


def _walk(n, p, k, step):
    # masses shrink monotonically moving away from the mode, so the sum stops
    # once a term no longer moves the 36th digit
    P = MP.mpf(p)
    Q = 1 - P
    term = pmf(n, p, k)
    total = term
    while 0 <= k + step <= n:
        if step > 0:
            term *= (n - k) * P / ((k + 1) * Q)
        else:
            term *= k * Q / ((n - k + 1) * P)
        k += step
        total += term
        if term < total * MP.mpf("1e-36"):
            break
    return total


def _mode(n, p):
    return int(MP.floor((n + 1) * MP.mpf(p)))


def upper_tail(n, p, i):
    """P[X > i] for X ~ Binomial(n, p), to about 36 digits."""
    if i >= n:
        return MP.mpf(0)
    if i < 0:
        return MP.mpf(1)
    if i + 1 >= _mode(n, p):
        return _walk(n, p, i + 1, +1)
    return 1 - _walk(n, p, i, -1)


def lower_tail(n, p, j):
    """P[X <= j] for X ~ Binomial(n, p), to about 36 digits."""
    if j < 0:
        return MP.mpf(0)
    if j >= n:
        return MP.mpf(1)
    if j < _mode(n, p):
        return _walk(n, p, j, -1)
    return 1 - _walk(n, p, j + 1, +1)


def tail_outside(n, p, radius):
    """Total mass at indices i with |i - n p| >= radius."""
    centre = n * MP.mpf(p)
    lo = int(MP.floor(centre - MP.mpf(radius)))
    hi = int(MP.ceil(centre + MP.mpf(radius)))
    if hi <= lo:  # radius 0 at an integer centre: every index qualifies
        return MP.mpf(1)
    return lower_tail(n, p, lo) + upper_tail(n, p, hi - 1)


# ------------------------------------------------------------- sparse sums


def sparse_pstar(idx, vals, n, p):
    """Cesaro mean at n of the p-binomial means, through the weight identity
    sum_{m=i}^{n} B(m,i,p) = P[Binomial(n+1,p) > i] / p."""
    keep = idx <= n
    sf = binom.sf(idx[keep], n + 1, p)
    return math.fsum(sf * vals[keep]) / (p * (n + 1))


# ------------------------------------------------------------------ markov


def markov_residual(P, A, rows):
    """Largest of the infinity norms of AP-A, PA-A and AA-A over the given
    rows, max |row sum - 1| and the most negative entry of A, evaluated in
    extended precision."""
    P = np.asarray(P, dtype=np.longdouble)
    A = np.asarray(A, dtype=np.longdouble)
    Ar = A[rows]

    def norm(M):
        return float(np.abs(M).sum(axis=1).max())

    return max(
        norm(Ar @ P - Ar),
        norm(P[rows] @ A - Ar),
        norm(Ar @ A - Ar),
        float(np.abs(A.sum(axis=1) - 1).max()),
        float(max(0, -A.min())),
    )
