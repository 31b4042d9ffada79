"""Limit matrix of a finite row-stochastic matrix via the lazy-chain construction.

The half-identity mix (P + I)/2 keeps every eigenvalue inside a disc of
radius 1/2 centred at 1/2, so its powers always converge; repeated squaring
reaches the 2**k-th power in k products.  The resulting matrix A is the
Cesaro limit of the powers of P itself and satisfies AP = PA = A = A*A,
which the report's residual diagnostics measure directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, MatrixValidationError

__all__ = [
    "StochasticMatrix",
    "LimitReport",
    "validate",
    "lazy",
    "limit_matrix",
    "cesaro_matrix",
    "load_matrix_csv",
    "inf_norm",
]


def inf_norm(M) -> float:
    """Induced infinity norm: the largest absolute row sum."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return float(np.abs(M).sum(axis=1).max())


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """A validated square matrix with non-negative entries and unit row sums."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def validate(matrix, row_tol: float = 1e-12) -> StochasticMatrix:
    """Validate and normalize a raw square matrix.

    Entries in [-row_tol, 0) are clamped to 0 and rows whose sums are within
    row_tol of 1 are renormalized; anything worse, and a row that sums to 0
    once clamped, is rejected with the offending row named.  row_tol must
    be non-negative.
    """
    tol = float(row_tol)
    if not tol >= 0.0:  # a NaN fails it too
        raise MatrixValidationError(f"row_tol must be non-negative, got {tol!r}")
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 1:
        raise MatrixValidationError(f"expected a non-empty square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise MatrixValidationError("matrix contains non-finite entries")
    lows = M.min(axis=1)
    bad = lows < -row_tol
    if bad.any():
        r = int(np.argmax(bad))
        raise MatrixValidationError(
            f"row {r} has a negative entry {float(lows[r])!r} beyond tolerance {tol!r}"
        )
    M = np.clip(M, 0.0, None)
    sums = M.sum(axis=1)
    bad = np.abs(sums - 1.0) > row_tol
    if bad.any():
        r = int(np.argmax(bad))
        raise MatrixValidationError(
            f"row {r} sums to {float(sums[r])!r}, off 1 by more than tolerance {tol!r}"
        )
    if not sums.all():  # within a row_tol of 1 or more
        r = int(np.argmin(sums))
        raise MatrixValidationError(f"row {r} sums to 0 and cannot be normalized")
    return StochasticMatrix(M / sums[:, None])


def lazy(P: StochasticMatrix) -> StochasticMatrix:
    """The half-identity mix (P + I) / 2; stochastic as a convex combination."""
    return StochasticMatrix((P.matrix + np.eye(P.dim)) / 2.0)


@dataclass(frozen=True)
class LimitReport:
    """Computed limit matrix with residual diagnostics.

    residual_fix = max(||A P - A||_inf, ||P A - A||_inf) measures the
    fixed-point property, residual_idem = ||A A - A||_inf the idempotence.
    """

    A: StochasticMatrix
    iterations: int
    residual_fix: float
    residual_idem: float


def limit_matrix(P: StochasticMatrix, tol: float = 1e-12, max_squarings: int = 64) -> LimitReport:
    """Limit of the lazy-chain powers by repeated squaring.

    Squares (P+I)/2 until consecutive iterates differ by at most tol in the
    infinity norm.  Convergence of the underlying powers is guaranteed, so
    exhausting max_squarings signals a tolerance too tight for the chain's
    conditioning; the raised error carries the last residual.  tol must be
    positive and finite, and max_squarings at least 1.
    """
    if not tol > 0.0:  # a NaN fails it too
        raise MatrixValidationError(f"tol must be positive, got {float(tol)!r}")
    if tol == math.inf:  # the stopping test would pass after one squaring
        raise MatrixValidationError(f"tol must be finite, got {float(tol)!r}")
    if max_squarings < 1:
        raise MatrixValidationError(f"max_squarings must be at least 1, got {max_squarings!r}")
    M = lazy(P).matrix
    delta = np.inf
    for k in range(1, max_squarings + 1):
        M2 = M @ M
        delta = inf_norm(M2 - M)
        M = M2
        if delta <= tol:
            break
    else:
        raise ConvergenceError(
            f"no convergence after {max_squarings} squarings; last step moved {delta:.3e}",
            residual=delta,
        )
    # tidy float drift so A is itself a valid stochastic matrix
    A = np.clip(M, 0.0, None)
    A /= A.sum(axis=1)[:, None]
    Pm = P.matrix
    report = LimitReport(
        A=StochasticMatrix(A),
        iterations=k,
        residual_fix=max(inf_norm(A @ Pm - A), inf_norm(Pm @ A - A)),
        residual_idem=inf_norm(A @ A - A),
    )
    return report


def cesaro_matrix(P: StochasticMatrix, N: int) -> np.ndarray:
    """Entrywise average of the powers P^0 .. P^N."""
    if N < 0:
        raise MatrixValidationError(f"N must be non-negative, got {N!r}")
    Pm = P.matrix
    power = np.eye(P.dim)
    total = np.eye(P.dim)
    for _ in range(N):
        power = power @ Pm
        total += power
    return total / (N + 1)


def load_matrix_csv(path) -> np.ndarray:
    """Read a header-free CSV matrix: one row per line, comma-separated decimals.

    numpy's C parser reads the lines in one call; it converts each cell as
    float() does, bit for bit.  Lines of whitespace only are dropped first,
    as the line loop skips them (loadtxt would read one as a cell).  A file
    it rejects (a bad cell, ragged rows, spellings float() accepts and it
    does not, such as 1_0) or that is not UTF-8 text is read again line by
    line with float(), which accepts what float() accepts and names what it
    does not.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        # loadtxt only warns on a file with no rows: leave that to the loop
        if text.strip():
            lines = [line for line in text.split("\n") if not line.isspace()]
            return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:  # UnicodeDecodeError included
        pass
    return _load_matrix_lines(path)


def _load_matrix_lines(path) -> np.ndarray:
    """load_matrix_csv one line at a time with float(), naming the first
    fault: bytes that are not UTF-8, a bad cell's line, ragged rows, no rows."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise MatrixValidationError(f"{path} is not UTF-8 text: {exc}") from exc
        for lineno, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise MatrixValidationError(f"line {lineno + 1} of {path}: {exc}") from exc
    if not rows:
        raise MatrixValidationError(f"{path} contains no matrix rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise MatrixValidationError(f"{path} has ragged rows")
    return np.asarray(rows, dtype=float)
