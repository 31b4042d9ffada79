"""SHA-256 pins of the mass kernels' bits.

Other tests bound these values against exact rationals or allow a few eps
between paths; the pins here hold every bit, so a change to how masses are
built that moves any of them fails.  The digests were taken from the
kernels as they stood before their ratio products, certificate, log masses
and log-space weighted sums each became one routine, except where a test
says otherwise.
"""

import hashlib
import math

import numpy as np

from summakit.binomial_kernel import (
    PMFParams,
    _mode,
    _row_mass,
    _window_halfwidth,
    log_pmf_many,
    tail_mass_outside,
)
from summakit.sequences import GeneratorSpec, islet_ranges, sequence_from_spec
from summakit.transforms import RealSequence, binomial_mean_at, binomial_prefix
from test_tracing_contract import huge_support
from test_transforms import count_sparse_fallbacks


def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def slice_grid():
    """(n, p, lo, hi) row slices: mode 0, mode n, spans cut on one side and
    on both, slices reaching past the window and past the row."""
    out = []
    for n, p in [
        (50, 0.01),  # n p < 1: the mode is 0
        (300, 0.999),  # the mode is n
        (5000, 0.002),  # mode 10: the span reaches 0, cut above
        (5000, 0.998),  # the span reaches n, cut below
        (40_000, 0.3),  # cut on both sides
        (200_000, 0.5),
        (1_000_000, 0.07),
    ]:
        m = int(_mode(n, p))
        w = int(_window_halfwidth(n, p))
        for lo, hi in [(m, m), (max(0, m - 5), m + 5), (max(0, m - 2 * w), m + 2 * w),
                       (max(0, m - w // 2), n + 10), (0, min(n, m + 3))]:
            out.append((n, p, lo, hi))
    return out


def test_row_slices_pinned():
    got = digest(_row_mass(n, p, lo=lo, hi=hi) for n, p, lo, hi in slice_grid())
    assert got == "c1117207c58ef1e3a66f39577ce01383ea72ed87c79c1d5c691ff94c403b4488"


def geometric_prefixes(ratios):
    arrays = []
    with np.errstate(over="ignore", invalid="ignore"):
        for a in ratios:
            seq = sequence_from_spec(GeneratorSpec("geometric", a=a))
            for p in (0.3, 0.97):
                arrays.append(binomial_prefix(seq, p, 3000).values)
    return arrays


def test_geometric_prefixes_pinned():
    # taken before geometric means took their closed form (q + p a)**n,
    # which gives these bits unchanged
    got = digest(geometric_prefixes((0.5, 0.999)))
    assert got == "5f39b4546ddc96151337d68c6f1e07d490053bde9c89e79d4b5bb3fa18563394"


def test_negative_ratio_prefixes_pinned():
    # taken after geometric means took their closed form: each value is
    # within 2**-52 relative of the exact rational where that is a normal
    # double, and within 2**-1074 below
    got = digest(geometric_prefixes((-0.7,)))
    assert got == "6338ecc2e099317e1a9813eaec0c18170577265bd2ef80b2a03131fd280bd9c8"


def test_routed_islets_prefix_pinned():
    # re-pinned when a row's support share came to be counted over its
    # window's indices inside [0, n]: 51 rows between 3 and 54 moved to the
    # windowed kernel, and against exact rationals their worst relative
    # error went from 1.55e-14 to 2.56e-16 (48 of them closer).  Re-pinned
    # when every routed row came to be split: 1142 rows between 3 and 2628
    # moved, and against exact rationals their worst error went from 5.93
    # to 4.56 eps of the mean (median 0.53 to 0.51, 581 of them closer)
    seq = sequence_from_spec(GeneratorSpec("islets"))
    got = digest([binomial_prefix(seq, 0.5, 5000).values])
    assert got == "4b68e9cb76ad37681575c632910aaf7332761f0791a4fe0b81180f49fc2517bc"


def test_lone_spike_means_pinned():
    seq = sequence_from_spec(GeneratorSpec("spikes", C=1.0))
    ns = np.linspace(2e5, 2.1e6, 40).astype(np.int64)
    values = [binomial_mean_at(seq, 0.4, int(n)) for n in ns]
    assert digest([values]) == "c84c74f04f1cc215a2fc439835be6d262fbeb4ce47efb363fc67282cec1f12a4"


def test_lone_islets_means_pinned():
    # lone rows whose mode sits on an island (4**k / p), at an island's
    # edges (e / p) and in the gap below it (4**k / (2 p)); taken while a
    # gap row still grew its read fourfold until it met an island.
    # Re-pinned when every routed row came to be split: 31 island and edge
    # rows moved, gap rows did not; against exact sums their worst error
    # went from 261.6 to 256.6 eps of the mean at p = 0.3 (fl(1 - p)'s
    # drift) and from 17.6 to 18.6 at p = 0.6, 11 of the 31 closer
    seq = sequence_from_spec(GeneratorSpec("islets"))
    values = []
    for p in (0.3, 0.6):
        edges = [e for lo, hi in islet_ranges(4**10) for e in (lo - 1, lo, hi, hi + 1)]
        ns = [int(4**k / p) for k in range(5, 11)] + [int(e / p) for e in edges[12:]]
        ns += [int(4**k / (2 * p)) for k in range(5, 11)]
        values += [binomial_mean_at(seq, p, n) for n in ns]
    assert digest([values]) == "0e84c82fc96ca4f754055988308d931aeae0ca5b129c52852a83b5c76f049a2b"


def test_log_pmf_many_layouts_pinned():
    rng = np.random.default_rng(18)
    ns = np.concatenate([rng.integers(0, 2048, 20), rng.integers(2048, 3_000_000, 20)])
    counts = rng.integers(1, 12, ns.size)
    flat = np.repeat(ns, counts)
    indices = (rng.random(flat.size) * (flat + 1)).astype(np.int64)
    arrays = []
    for p in (1e-6, 0.3, 1 - 1e-6):
        arrays.append(log_pmf_many(1_234_567, p, np.arange(0, 1_234_568, 997)))
        arrays.append(log_pmf_many(700, p, np.arange(701)))
        arrays.append(log_pmf_many(flat, p, indices))
        arrays.append(log_pmf_many((ns + 4)[:, None], p, np.arange(5)))
        arrays.append(log_pmf_many(ns, p, indices, _counts=counts))
    assert digest(arrays) == "6daeadf9bf6f1b2f4fcf4effe2cce7c72b252aa574813cca36e1d40ba48d925f"


def test_sparse_prefixes_pinned():
    # log-space prefix rows: spikes rows whose kept indices cross k = 2048,
    # where log k! goes from table entries to Stirling's series, and islets
    # rows in the gaps between islands; taken while every term evaluated
    # its own log k!, before prefixes read them from one table.  Re-pinned
    # when every routed row came to be split: spike rows below 700 and
    # islets rows in and near an island moved, log-space rows did not.
    # Worst error against exact rationals, in eps of sum B |a|: spikes
    # (C = 0.5) 2.09 -> 1.53, 1.37 -> 1.11 and 1.60 -> 1.60 over 843, 102
    # and 48 rows, (C = 2) 1.36 -> 0.70, 0.68 -> 1.57 and 0.95 -> 1.40
    # over 6, 5 and 7 rows; islets 60.17 -> 57.79 (3524 rows, p = 0.2,
    # fl(1 - p)'s drift) and 14.83 -> 13.12 (987 rows)
    arrays = []
    for C in (0.5, 2.0):
        seq = sequence_from_spec(GeneratorSpec("spikes", C=C))
        arrays += [binomial_prefix(seq, p, 12_000).values for p in (0.05, 0.5, 0.97)]
    assert digest(arrays) == "ced513ae8e13210a76364b69883d5f89f059a2fe500d9281ce46d67104244db8"
    seq = sequence_from_spec(GeneratorSpec("islets"))
    arrays = [binomial_prefix(seq, p, 9000).values for p in (0.2, 0.85)]
    assert digest(arrays) == "a3a8fae5407bae4fb9f7386524c7995a1d61f025f177e13cd60ed9d5a5b1bc5c"


def test_whole_support_fallbacks_pinned():
    # rows past a 1e300 term, which no window certifies, summed over their
    # whole support (187, 656 and 720 rows); taken at the same point
    seq = huge_support()
    arrays = [binomial_prefix(seq, p, 1200).values for p in (0.3, 0.5, 0.9)]
    assert digest(arrays) == "3c68051b5bee4e0dcd70591b8e3761190ce1a0aa951afa18e269bdbd8e26795a"


def mixed_signs():
    """Support values of both signs: +-1 pairs about the modes of rows 400
    and 8000 at p = 0.5, a 1e62 term at 5 and a 1e300 term at 2308, which
    their log-space windows do not hold."""
    idx = np.array([5, 40, 190, 210, 600, 2308, 2507, 3990, 4010, 5000])
    vals = np.array([1e62, -2.0, 1.0, -1.0, 0.5, 1e300, 1.0, 1.0, -1.0, -0.5])
    return RealSequence.from_function(support=lambda h: (idx[idx <= h], vals[idx <= h]))


def test_mixed_sign_rows_pinned(monkeypatch):
    # a support of both signs certifies with sum B |a| taken term by term:
    # row 400 at p = 0.5 cancels to 6e-14 of it and certifies (its bound
    # on the 1e62 term is 2e-23 of it, but 3e-10 of |mean|); row 8000 cancels
    # to 2e-12 of it, but its bound on the 1e300 term fails, so it is
    # summed over its whole support.  Taken before log-space rows were
    # certified in one pass a call, and one-signed supports with |mean|
    calls = count_sparse_fallbacks(monkeypatch)
    seq = mixed_signs()
    ns = np.array([400, 8000, 400, 7, 3001, 8000, 2500, 9000])
    arrays = []
    for p in (0.3, 0.5):
        arrays.append(binomial_prefix(seq, p, 9000).values)
        arrays.append(binomial_mean_at(seq, p, ns))
    arrays.append([binomial_mean_at(seq, 0.5, int(n)) for n in ns])
    assert digest(arrays) == "98fbb55e47600856bc734c1e4c64acda5c2e49c8d7302d19e784ed492b25c215"
    del calls[:]
    means = binomial_mean_at(seq, 0.5, np.array([400, 8000]))
    assert calls == [8000]
    idx, av = seq.support(8000)
    for n, mean in zip((400, 8000), means):
        scale = np.exp(log_pmf_many(n, 0.5, idx[idx <= n])) @ np.abs(av[idx <= n])
        assert 0 < abs(mean) < 1e-11 * scale


def ratio_product_rows():
    """Rows weighted by the ratio-product kernel that the pins above do not
    reach: dense prefixes split into blocks, rows that widen their window,
    rows weighted at a power of two, and lone rows at both ends of a block."""
    rng = np.random.default_rng(28)
    dense = [sequence_from_spec(GeneratorSpec("alternating01")),
             sequence_from_spec(GeneratorSpec("signed_linear")),
             RealSequence.from_values(rng.standard_normal(4001))]
    arrays = [binomial_prefix(seq, p, 4000).values for seq in dense for p in (0.003, 0.3, 0.97)]
    with np.errstate(over="ignore", invalid="ignore"):
        arrays.append(binomial_prefix(RealSequence.from_values((-3.0) ** np.arange(801.0)),
                                      0.45, 800).values)
        ones = np.ones(3001)
        ones[900] = np.inf
        arrays.append(binomial_prefix(RealSequence.from_values(ones), 0.3, 3000).values)
        # random signs of 1e308: every row is weighted at a power of two
        huge = RealSequence.from_values(rng.choice([-1e308, 1e308], 1501))
        arrays += [binomial_prefix(huge, p, 1500).values for p in (0.3, 0.8)]
    ns = [n0 + j for n0 in (8, 4000, 10**6, 10**8) for j in (0, 7)]
    arrays += [[binomial_mean_at(seq, p, n) for n in ns] for seq in dense[:2] for p in (0.3, 0.97)]
    return arrays


def test_ratio_product_rows_pinned():
    # taken before the split and windowed rows became one block kernel, and
    # again when rows past an infinite term became that infinity without
    # being weighted: rows 900-1026 of the +inf prefix went from NaN to
    # +inf, every other byte of the 17 arrays kept its bits
    got = digest(ratio_product_rows())
    assert got == "30e4add43c1eec7487308e7fdcd48e9a36753b1bf67cdf131353aa1781805e10"


def tail_grid():
    """(n, p, radii) over rows up to 3000: for each p = k/64 and for 0.1 and
    0.3, whose q = 1 - p is not exact, a seed row and its three stepped
    rows (every n mod 4), and rows 0..3 and 2996..2999.  The radii are
    criterion 4's alpha sqrt(n), 0, inf, and a few double distances
    |i - n p| with their one-ulp neighbours."""
    rng = np.random.default_rng(32)
    out = []
    for p in [k / 64 for k in range(1, 64)] + [0.1, 0.3]:
        n0 = 4 * int(rng.integers(1, 749))
        for n in [*range(4), *range(n0, n0 + 4), *range(2996, 3000)]:
            alphas = np.arange(0.5, p * math.sqrt(n), 0.5)
            dist = np.abs(rng.integers(0, n + 1, 6) - n * p)
            c = math.ceil(n * p)
            dist = [*dist.tolist(), abs(c - 1 - n * p), abs(c - n * p)]
            near = [math.nextafter(d, side) for d in dist for side in (-math.inf, math.inf)]
            radii = [0.0, *(math.sqrt(n) * alphas).tolist(), *dist, *near, math.inf]
            out.append((n, p, [r for r in radii if r >= 0.0]))
    return out


def test_tails_pinned():
    # taken while each radius was an O(1) read of the stepped tail tables
    # and scalar float radii read them through numpy scalars
    arrays = []
    for n, p, radii in tail_grid():
        params = PMFParams(n, p)
        arrays.append([tail_mass_outside(params, r) for r in radii])
        arrays.append(tail_mass_outside(params, np.array(radii)))
    assert digest(arrays) == "4835de980c1c24c182c2d21c821df3869443370b488a8d0845a27ee0619f5ac9"
