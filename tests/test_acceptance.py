"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np

from summakit import (
    GeneratorSpec,
    PMFParams,
    RealSequence,
    binomial_mean_at,
    binomial_prefix,
    cesaro_matrix,
    cesaro_prefix,
    chernoff_bound,
    compose_check,
    estimate_limit,
    limit_matrix,
    peak_asymptotic_ratio,
    pstar_prefix,
    run_table1,
    sequence_from_spec,
    split_xyz,
    tail_mass_outside,
    validate,
    weights,
)
from summakit.summation import running_mean

from oracles import mode_law_violations, sparse_binomial_scipy, weights_double_sum

P_GRID = [k / 10 for k in range(1, 10)]


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:2d} {status}: {desc} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {desc} {detail}"


def test_criterion_01_composition_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(100):
        seq = RealSequence.from_values(rng.random(201), nonneg=True)
        p, q = rng.uniform(0.05, 0.95, size=2)
        worst = max(worst, compose_check(seq, float(p), float(q), 200))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    _report(1, "composition identity on 100 random sequences",
            ok, f"(max discrepancy {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_weight_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for n in (10, 100, 300):
        for p in P_GRID:
            gap = np.max(np.abs(weights(n, p).weights - weights_double_sum(n, p)))
            worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-11 and elapsed < 10.0
    _report(2, "weight closed form vs direct double sum",
            ok, f"(max entrywise gap {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_03_mode_law_exact():
    bad = mode_law_violations(200, range(1, 10))
    _report(3, "exact-rational mode law for n <= 200",
            not bad, f"({len(bad)} violations)")


def test_criterion_04_chernoff_grid():
    start = time.perf_counter()
    violations = 0
    checks = 0
    for p in P_GRID:
        for n in range(1, 2001):
            params = PMFParams(n, p)
            limit = p * math.sqrt(n)
            alpha = 0.5
            while alpha < limit:
                bound = chernoff_bound(params, alpha)
                if tail_mass_outside(params, math.sqrt(n) * alpha) > bound:
                    violations += 1
                checks += 1
                alpha += 0.5
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 20.0
    _report(4, "Chernoff bound dominates every measured tail",
            ok, f"({checks} checks, {violations} violations, {elapsed:.1f}s)")


def test_criterion_05_peak_asymptotic():
    worst = max(abs(peak_asymptotic_ratio(PMFParams(10_000, p)) - 1.0) for p in (0.2, 0.5, 0.7))
    _report(5, "scaled peak height within 0.01 of 1 at n=1e4",
            worst <= 0.01, f"(max |ratio-1| = {worst:.2e})")


def test_criterion_06_closed_forms():
    n = np.arange(501, dtype=float)
    alternating = sequence_from_spec(GeneratorSpec("alternating01"))
    signed = sequence_from_spec(GeneratorSpec("signed_linear"))
    worst_alt = 0.0
    worst_signed = 0.0
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        got = binomial_prefix(alternating, p, 500).values
        worst_alt = max(worst_alt, float(np.max(np.abs(got - (1.0 + (1.0 - 2.0 * p) ** n) / 2.0))))
        got = binomial_prefix(signed, p, 500).values
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = -n * p * (1.0 - 2.0 * p) ** (n - 1.0)
        expected[0] = 0.0
        worst_signed = max(worst_signed, float(np.max(np.abs(got - expected))))
    ces = cesaro_prefix(signed, 499).values
    odd_exact = all(ces[k] == -0.5 for k in range(1, 500, 2))
    ok = worst_alt <= 1e-12 and worst_signed <= 1e-9 and odd_exact
    _report(6, "closed forms of the alternating and signed-linear transforms",
            ok, f"(alt {worst_alt:.2e}, signed {worst_signed:.2e}, odd-index means exact: {odd_exact})")


def test_criterion_07_table1_consistency():
    start = time.perf_counter()
    ok = True
    details = []
    for p, q in ((0.25, 0.75), (0.3, 0.6), (0.4, 0.7)):
        report = run_table1(p, q, 10_000)
        ok = ok and report.contradictions == 0
        wit = report.pq_witness
        ok = ok and wit["witnessed"] and wit["a"] == -3.0
        details.append(f"({p},{q}): {report.contradictions} flags")
        if (p, q) == (0.25, 0.75):
            # the geometric witness there is exact: p-mean identically 0, |q-mean| = 2^n
            geo = sequence_from_spec(GeneratorSpec("geometric", a=-3.0))
            vp = binomial_prefix(geo, 0.25, 20).values
            vq = binomial_prefix(geo, 0.75, 20).values
            ok = ok and float(np.max(np.abs(vp[1:]))) <= 1e-9
            ok = ok and float(
                np.max(np.abs(np.abs(vq) - 2.0 ** np.arange(21)) / 2.0 ** np.arange(21))
            ) <= 1e-12
    elapsed = time.perf_counter() - start
    _report(7, "implication grid has zero contradiction flags",
            ok, f"({'; '.join(details)}, {elapsed:.1f}s)")


def test_criterion_08_convergence_transfer_at_scale():
    start = time.perf_counter()
    p = 0.5
    horizon = 10**6

    # islets: the binomial mean oscillates between islet-aligned and
    # gap-aligned indices, which proves it diverges...
    islets = sequence_from_spec(GeneratorSpec("islets"))
    osc_ok = True
    for k in (8, 9, 10):
        idx_hi = int(4**k / p)
        idx_lo = int(4**k / (2 * p))
        sup_hi = islets.support(idx_hi)
        sup_lo = islets.support(idx_lo)
        hi = binomial_mean_at(islets, p, idx_hi)
        lo = binomial_mean_at(islets, p, idx_lo)
        osc_ok = osc_ok and hi >= 0.7 and lo <= 0.3
        # oracle agreement at 1e-8: log-gamma exponents at n ~ 2e6 carry
        # ~n*eps*log(n) of intrinsic rounding, far inside the 0.7/0.3 margins
        osc_ok = osc_ok and abs(hi - sparse_binomial_scipy(*sup_hi, idx_hi, p)) <= 1e-8
        osc_ok = osc_ok and abs(lo - sparse_binomial_scipy(*sup_lo, idx_lo, p)) <= 1e-8

    # ...while its Cesaro mean is already small at 2^20
    islets_cesaro = cesaro_prefix(islets, 2**20).values[-1]
    cesaro_small = islets_cesaro <= 0.05

    # every other non-negative family whose binomial mean is judged
    # convergent must have a Cesaro mean convergent to the same value
    checkpoints = np.unique(np.linspace(1, horizon, 64).astype(np.int64))
    families = [
        GeneratorSpec("alternating01"),
        GeneratorSpec("geometric", a=0.5),
        GeneratorSpec("geometric", a=1.0),
        GeneratorSpec("spikes", C=1.0),
    ]
    agree_ok = True
    converged_count = 0
    for spec in families:
        seq = sequence_from_spec(spec)
        binom_values = binomial_mean_at(seq, p, checkpoints)
        binom = estimate_limit(binom_values, window=8)
        if not binom.converged:
            continue
        converged_count += 1
        cesaro = estimate_limit(running_mean(seq.prefix(horizon)))
        agree_ok = agree_ok and cesaro.converged
        agree_ok = agree_ok and abs(cesaro.value - binom.value) <= 1e-3
    elapsed = time.perf_counter() - start
    ok = osc_ok and cesaro_small and agree_ok and converged_count >= 3
    _report(8, "binomial-to-Cesaro convergence transfer at horizon 1e6",
            ok,
            f"(islets oscillation ok: {osc_ok}, islets cesaro {islets_cesaro:.4f}, "
            f"{converged_count} convergent families agree, {elapsed:.1f}s)")


def test_criterion_09_markov_limits():
    start = time.perf_counter()
    rng = np.random.default_rng(99)

    def random_stochastic(dim, sparsity=0.0):
        M = rng.random((dim, dim)) ** 2
        if sparsity:
            M = M * (rng.random((dim, dim)) >= sparsity)
            for r in range(dim):
                if M[r].sum() == 0.0:
                    M[r, rng.integers(dim)] = 1.0
        return M / M.sum(axis=1)[:, None]

    def permutation(dim):
        M = np.zeros((dim, dim))
        M[np.arange(dim), np.roll(np.arange(dim), 1)] = 1.0
        return M

    fixtures = [
        np.eye(3),
        permutation(2),
        permutation(5),
        np.array([[1.0, 0.0], [0.5, 0.5]]),
        np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.25, 0.25, 0.25, 0.25],
                [0.0, 0.5, 0.2, 0.3],
            ]
        ),
        np.array([[0.99, 0.01], [0.01, 0.99]]),
        random_stochastic(3),
        random_stochastic(5),
        random_stochastic(7),
        random_stochastic(10),
    ]
    matrices = [random_stochastic(int(rng.integers(1, 21)), sparsity=0.3) for _ in range(100)]
    matrices += fixtures

    residual_ok = True
    for M in matrices:
        P = validate(M)
        report = limit_matrix(P)
        residual_ok = residual_ok and report.residual_fix <= 1e-9
        residual_ok = residual_ok and report.residual_idem <= 1e-9
        residual_ok = residual_ok and np.max(np.abs(report.A.matrix.sum(axis=1) - 1.0)) <= 1e-10

    cesaro_ok = True
    worst_gap = 0.0
    for M in fixtures:  # the dim <= 10 suite
        P = validate(M)
        A = limit_matrix(P).A.matrix
        gap = float(np.max(np.abs(cesaro_matrix(P, 10_000) - A)))
        worst_gap = max(worst_gap, gap)
        cesaro_ok = cesaro_ok and gap <= 0.01
    elapsed = time.perf_counter() - start
    ok = residual_ok and cesaro_ok and elapsed < 120.0
    _report(9, "limit matrices of 100 random chains plus fixtures",
            ok, f"(residuals ok: {residual_ok}, max cesaro gap {worst_gap:.2e}, {elapsed:.1f}s)")


def test_criterion_10_decomposition_identity():
    worst = 0.0
    families = [
        GeneratorSpec("alternating01"),
        GeneratorSpec("geometric", a=0.5),
        GeneratorSpec("geometric", a=1.0),
        GeneratorSpec("islets"),
        GeneratorSpec("spikes", C=2.0),
    ]
    ok = True
    for spec in families:
        seq = sequence_from_spec(spec)
        for p in (0.3, 0.5, 0.7):
            for n in (10, 100, 1000):
                parts = split_xyz(seq, p, n)
                ref = pstar_prefix(seq, p, n).values[n]
                rel = abs(parts.total_mean - ref) / abs(ref)
                worst = max(worst, rel)
                ok = ok and rel <= 1e-10
    _report(10, "x+y+z decomposition reproduces the two-stage transform",
            ok, f"(worst relative gap {worst:.2e})")
