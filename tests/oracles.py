"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the package's own evaluation paths:
exact big-integer rationals for single masses and mode comparisons, direct
definition-following double sums for weight tables, and scipy.stats for the
sparse brute-force sums.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.special import gammaln

from summakit import GeneratorSpec, ParameterDomainError
from summakit.sequences import islet_ranges


def pmf_exact_double(n, p_float, i):
    """Exact-rational binomial mass at the float's exact value, rounded to double.

    p_float is taken at its exact binary value u / 2^s, so the reference is
    the correctly rounded double of an exact rational.
    """
    if i < 0 or i > n:
        return 0.0
    u, d = p_float.as_integer_ratio()
    num = math.comb(n, i) * pow(u, i) * pow(d - u, n - i)
    return num / pow(d, n)  # big-int true division is correctly rounded


def pmf_row_exact_doubles(n, p_float):
    """All n+1 exact-rational masses as correctly rounded doubles."""
    u, d = p_float.as_integer_ratio()
    v = d - u
    upow = [1] * (n + 1)
    vpow = [1] * (n + 1)
    for k in range(1, n + 1):
        upow[k] = upow[k - 1] * u
        vpow[k] = vpow[k - 1] * v
    den = pow(d, n)
    out = np.empty(n + 1)
    c = 1
    for i in range(n + 1):
        out[i] = (c * upow[i] * vpow[n - i]) / den
        c = c * (n - i) // (i + 1)
    return out


def tails_exact(n, p_float, radii):
    """Mass of {i : |i - n p| >= r} for each radius r, exactly: integer
    numerators over one common denominator, returned as (numerators, den).

    p is taken at its exact binary value u / d.  The index set of a radius
    is the one its distances select in double (float i minus the double
    n * p), which is how tail_mass_outside defines it; the masses summed
    over it are exact: the integer terms C(n,i) u**i v**(n-i) (v = d - u),
    walked by the exact ratio (n-i) u / ((i+1) v), over d**n.
    """
    u, d = p_float.as_integer_ratio()
    v = d - u
    term, prefix = v**n, [0]
    for i in range(n + 1):
        prefix.append(prefix[-1] + term)
        term = term * ((n - i) * u) // ((i + 1) * v)
    dist = np.abs(np.arange(n + 1, dtype=float) - n * p_float)
    numerators = []
    for r in radii:
        # runs of selected indices: edges where the selection switches
        edges = np.flatnonzero(np.diff(np.concatenate([[False], dist >= r, [False]])))
        numerators.append(sum(prefix[b] - prefix[a] for a, b in zip(edges[::2], edges[1::2])))
    return numerators, d**n


def sparse_binomial_exact(indices, values, n, p_float):
    """sum_{i in indices, i <= n} B(n,i,p) * values[i] as an exact Fraction,
    p and the values at their exact binary values.

    The integer term C(n,i) u**i v**(n-i) (p = u/d, v = d - u) is walked
    from the first index to the last by the exact ratio (n-i) u / ((i+1) v),
    so the cost is one step per index between them, each on numbers of
    about n log2(d) bits: a contiguous run of indices is cheap.
    """
    u, d = p_float.as_integer_ratio()
    v = d - u
    kept = [(int(i), float(x).as_integer_ratio()) for i, x in zip(indices, values) if i <= n]
    if not kept:
        return Fraction(0)
    scale = max(den for _, (_, den) in kept)  # a power of two
    i = kept[0][0]
    term = math.comb(n, i) * u**i * v ** (n - i)
    total = 0
    for j, (num, den) in kept:
        for k in range(i, j):
            term = term * ((n - k) * u) // ((k + 1) * v)
        i = j
        total += term * num * (scale // den)
    return Fraction(total, d**n * scale)


def binomial_run_numerator(n, p_float, lo, hi):
    """The integer N with sum_{i=lo}^{hi} B(n,i,p) = N / d**n exactly, where
    p = u/d at its exact binary value, for 0 <= lo <= hi <= n.  Runs of one
    row share the denominator, so their numerators add, and comparing
    through integers skips the gcd of a Fraction of n log2(d) bits.

    N = u**lo v**(n-hi) A with v = d - u, where A = sum_i C(n,i) u**(i-lo)
    v**(hi-i) is taken by Horner's rule from the top index down, A_i =
    C(n,i) v**(hi-i) + u A_(i+1): its numbers grow to about (hi - lo)
    log2(d) bits, not n log2(d), so a run far from index 0 stays cheap.
    """
    u, d = p_float.as_integer_ratio()
    v = d - u
    c, vp, acc = math.comb(n, hi), 1, 0
    for i in range(hi, lo - 1, -1):
        acc = c * vp + u * acc
        vp *= v
        c = c * i // (n - i + 1)  # C(n, i-1)
    return acc * u**lo * v ** (n - hi)


def mode_law_violations(n_max, tenths):
    """Exact-integer check of the mass-ratio criterion for p = k/10.

    For every n <= n_max and 1 <= i <= n, compares the exact masses
    C(n,i) k^i (10-k)^(n-i) and C(n,i-1) k^(i-1) (10-k)^(n-i+1) and demands
    the first is >= the second exactly when 10 i <= (n+1) k.  Returns the
    list of violating (n, k, i) triples.
    """
    bad = []
    for k in tenths:
        kk = 10 - k
        kpow = [1] * (n_max + 1)
        qpow = [1] * (n_max + 1)
        for j in range(1, n_max + 1):
            kpow[j] = kpow[j - 1] * k
            qpow[j] = qpow[j - 1] * kk
        for n in range(1, n_max + 1):
            c_prev = 1  # C(n, 0)
            for i in range(1, n + 1):
                c_cur = c_prev * (n - i + 1) // i
                lhs = c_cur * kpow[i] * qpow[n - i]
                rhs = c_prev * kpow[i - 1] * qpow[n - i + 1]
                if (lhs >= rhs) != (10 * i <= (n + 1) * k):
                    bad.append((n, k, i))
                c_prev = c_cur
    return bad


def weights_double_sum(n, p):
    """Direct definition of the weight table: w[i] = sum_{j=i}^n C(j,i) p^i (1-p)^(j-i).

    Each term is evaluated in log space; terms are non-negative so the sum
    carries no cancellation.
    """
    out = np.empty(n + 1)
    lp, l1p = math.log(p), math.log1p(-p)
    for i in range(n + 1):
        j = np.arange(i, n + 1, dtype=float)
        logs = gammaln(j + 1.0) - gammaln(i + 1.0) - gammaln(j - i + 1.0) + i * lp + (j - i) * l1p
        out[i] = float(np.exp(logs).sum())
    return out


def sparse_binomial_scipy(indices, values, n, p):
    """Brute-force sparse binomial mean via scipy.stats masses and fsum."""
    from scipy.stats import binom

    indices = np.asarray(indices)
    keep = indices <= n
    masses = binom.pmf(indices[keep], n, p)
    return math.fsum(m * v for m, v in zip(masses, np.asarray(values)[keep]))


def geometric_binomial_errors(a, p, values, ns=None):
    """Exact errors of values[j] against the p-binomial mean of a**n at
    n = ns[j] (ns defaults to 0, 1, 2, ...; any order).

    That mean is the exact rational r**n, r = p(a-1) + 1, and
    sum_i B(n,i,p) |a|**i is s**n, s = p(|a|-1) + 1, with p and a at their
    exact binary values.  Both are dyadic, so every row is done in integer
    arithmetic (no gcd on the growing powers).  Returns two arrays:
    |values[j] - r**n| and |values[j] - r**n| / s**n, each the correctly
    rounded double of the exact rational.
    """
    ns = np.arange(len(values)) if ns is None else np.asarray(ns)
    r = Fraction(p) * (Fraction(a) - 1) + 1
    s = Fraction(p) * (abs(Fraction(a)) - 1) + 1
    k = max(r.denominator, s.denominator).bit_length() - 1  # common 2**k
    big_r, big_s = r * 2**k, s * 2**k
    assert big_r.denominator == 1 and big_s.denominator == 1
    big_r, big_s = big_r.numerator, big_s.numerator
    err, rel = np.empty(len(values)), np.empty(len(values))
    prev, r_n, s_n = 0, 1, 1  # R**n and S**n: r**n = R**n / 2**(k n)
    for j in np.argsort(ns, kind="stable"):
        n = int(ns[j])
        r_n *= big_r ** (n - prev)
        s_n *= big_s ** (n - prev)
        prev = n
        num, den = float(values[j]).as_integer_ratio()
        g = den.bit_length() - 1
        diff = abs((num << (k * n)) - (r_n << g))
        err[j] = diff / (1 << (g + k * n))
        rel[j] = diff / (s_n << g)
    return err, rel


# -- sequence families, term by term ------------------------------------------


def _is_islet(i: int) -> bool:
    # 4**k - 2**k * k > i for every k past ceil(log2(i)/2) + 1, so the scan
    # below is total.
    if i <= 0:
        return False
    kmax = (i.bit_length() + 1) // 2 + 1
    for k in range(1, kmax + 1):
        if abs(i - (1 << (2 * k))) < (1 << k) * k:
            return True
    return False


def islets_count_upto(n: int) -> int:
    """Number of ones in the islets sequence at indices 0..n."""
    return sum(hi - lo + 1 for lo, hi in islet_ranges(n))


def spike_positions(C: float, horizon: int) -> list:
    """Spike positions <= horizon, walked one at a time from n_1 = 1 with
    gaps ceil(C * sqrt(n_j)): no chain is cached or shared."""
    out, j = [], 1
    while j <= horizon:
        out.append(j)
        j += math.ceil(C * math.sqrt(j))
    return out


def generate(spec: GeneratorSpec, i: int) -> float:
    """Term i of the family, evaluated pointwise: the reference that the
    vectorized rules of sequence_from_spec are tested against."""
    if i < 0:
        raise ParameterDomainError(f"sequence index must be >= 0, got {i}")
    f = spec.family
    if f == "alternating01":
        return 1.0 if i % 2 == 0 else 0.0
    if f == "geometric":
        a = float(spec.a)
        try:
            return a**i
        except OverflowError:
            return math.inf if (a > 0 or i % 2 == 0) else -math.inf
    if f == "signed_linear":
        return float(-i if i % 2 else i)
    if f == "islets":
        return 1.0 if _is_islet(i) else 0.0
    # spikes: walk the deterministic index chain up to i
    j = 1
    while j < i:
        j += math.ceil(spec.C * math.sqrt(j))
    return spec.height_scale * math.sqrt(i) if j == i else 0.0


def limit_matrix_squaring(P, tol=1e-12, max_squarings=64):
    """The plain repeated-squaring loop behind markov.limit_matrix, a fresh
    array for every product and difference: (A, iterations, residual_fix,
    residual_idem), or None where max_squarings pass without convergence."""

    def norm(X):
        return float(np.abs(X).sum(axis=1).max())

    P = np.asarray(P, dtype=float)
    M = (P + np.eye(len(P))) / 2.0
    for k in range(1, max_squarings + 1):
        M2 = M @ M
        delta = norm(M2 - M)
        M = M2
        if delta <= tol:
            break
    else:
        return None
    A = np.clip(M, 0.0, None)
    A /= A.sum(axis=1)[:, None]
    fix = max(norm(A @ P - A), norm(P @ A - A))
    return A, k, fix, norm(A @ A - A)
