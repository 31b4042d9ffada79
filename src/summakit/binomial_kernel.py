"""Numerically stable evaluation of the binomial probability mass function.

Masses are computed in log space by one elementwise log-gamma formula,
log_pmf_many, so trial counts up to 1e7 never overflow; log_pmf is its
scalar form.  Full rows are built by a multiplicative recurrence from a
unit seed at the mode and then normalised, which keeps relative accuracy
in the far tails where a cumulative construction would not.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .exceptions import ParameterDomainError, PreconditionError

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
    log_pmf_many entry bit for bit."""
    if i < 0 or i > params.n:
        return -math.inf
    return float(log_pmf_many(params.n, params.p, i))


def pmf(params: PMFParams, i: int) -> float:
    """P[X = i] for X ~ Binomial(n, p); exactly 0 for i outside [0, n]."""
    if i < 0 or i > params.n:
        return 0.0
    return math.exp(log_pmf(params, i))


def log_pmf_many(n, p: float, indices) -> np.ndarray:
    """log P[X = i] for each index i inside the support of row n.

    ``n`` is a trial count or an integer array broadcast against
    ``indices``.  One elementwise expression, so an entry depends only on
    its own (n, i): a scalar n and an array of equal n give the same bits.
    Used by the sparse transform paths, where the nonzero sequence
    positions must be weighted for many different n.
    """
    i = np.asarray(indices, dtype=float)
    n = np.asarray(n, dtype=float)
    return (
        gammaln(n + 1.0)
        - gammaln(i + 1.0)
        - gammaln(n - i + 1.0)
        + i * math.log(p)
        + (n - i) * math.log1p(-p)
    )


def _mode(n, p: float):
    """mode_index of row n, for a float n or an array of them, as floats.

    For 0 < p < 1 it lies in [0, n]: (n+1)p > 0 cannot round to 0, and
    where it rounds up to n + 1 the tie rule takes it back to n.
    """
    x = (n + 1.0) * p
    m = np.floor(x)
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


def _row_mass(n: int, p: float) -> np.ndarray:
    # Multiplicative recurrence mass[i+1] = mass[i] * ratio(i+1), run outward
    # from a unit seed at the mode; products only shrink moving away from
    # the peak, so there is no overflow and tails keep relative accuracy.
    mass = np.empty(n + 1)
    m = int(_mode(n, p))
    mass[m] = 1.0
    np.cumprod(_ratio_up(n, np.arange(m + 1, n + 1, dtype=float), p), out=mass[m + 1 :])
    np.cumprod(_ratio_down(n, np.arange(m, 0, -1, dtype=float), p), out=mass[:m][::-1])
    # one division turns the unit-seeded row into masses; it also pins the
    # sum against the recurrence's ~n*eps drift without disturbing
    # relative tail accuracy
    mass /= mass.sum()
    return mass


def pmf_row(params: PMFParams) -> PMFRow:
    """All n+1 masses at once; entry i equals pmf(params, i)."""
    return PMFRow(params, _row_mass(params.n, params.p))


@functools.lru_cache(maxsize=1)
def _tail_row(n: int, p: float):
    """Read-only PMF row of (n, p) with the distances |i - n p|.

    One slot: a sweep of tail queries at one (n, p) builds the row once, and
    the last row queried stays in memory until another (n, p) replaces it.
    """
    mass = _row_mass(n, p)
    dist = np.abs(np.arange(n + 1, dtype=float) - n * p)
    mass.flags.writeable = dist.flags.writeable = False
    return mass, dist


def tail_mass_outside(params: PMFParams, radius: float | np.ndarray) -> float | np.ndarray:
    """Total mass at indices i with |i - n p| >= radius.

    ``radius`` may be an array of radii; the result is then an array of the
    same shape whose entries equal the scalar calls bit for bit.
    """
    radii = np.asarray(radius, dtype=float)
    # sweeps make many scalar calls: skip the array reduction for them
    if (radius < 0) if radii.ndim == 0 else (radii < 0).any():
        raise ParameterDomainError(f"radius must be non-negative, got {radius!r}")
    mass, dist = _tail_row(params.n, params.p)
    if radii.ndim == 0:
        return float(mass[dist >= radii].sum())
    tails = [mass[dist >= r].sum() for r in radii.flat]
    return np.array(tails, dtype=float).reshape(radii.shape)


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
    push it past that expression).
    """
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
