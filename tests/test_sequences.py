import hashlib
import json
import math
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summakit import (
    GeneratorSpec,
    HorizonError,
    ParameterDomainError,
    RealSequence,
    binomial_prefix,
    cesaro_prefix,
    estimate_limit,
    probe_open_problem,
    run_table1,
    sequence_from_spec,
)
from summakit import transforms
from summakit.binomial_kernel import log_pmf_many
from summakit.sequences import (
    _CACHED_CHAINS,
    default_families,
    _geometric_pq_witness,
    _spike_chain,
    islet_ranges,
    spike_indices,
)

from oracles import generate, islets_count_upto, sparse_binomial_exact, spike_positions

EPS = np.finfo(float).eps


class TestGeneratorSpec:
    def test_unknown_family(self):
        with pytest.raises(ParameterDomainError):
            GeneratorSpec("fibonacci")

    def test_geometric_needs_a(self):
        with pytest.raises(ParameterDomainError):
            GeneratorSpec("geometric")

    def test_spikes_needs_positive_C(self):
        with pytest.raises(ParameterDomainError):
            GeneratorSpec("spikes")
        with pytest.raises(ParameterDomainError):
            GeneratorSpec("spikes", C=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "family, name",
        [("geometric", "a"), ("spikes", "C"), ("spikes", "height_scale")],
    )
    def test_non_finite_parameters_rejected(self, family, name, value):
        kwargs = {"geometric": {"a": 0.5}, "spikes": {"C": 1.0}}[family]
        kwargs[name] = value
        with pytest.raises(ParameterDomainError, match=name):
            GeneratorSpec(family, **kwargs)


class TestGenerate:
    def test_alternating(self):
        assert [generate(GeneratorSpec("alternating01"), i) for i in range(5)] == [1, 0, 1, 0, 1]

    def test_signed_linear(self):
        spec = GeneratorSpec("signed_linear")
        assert generate(spec, 5) == -5.0
        assert generate(spec, 8) == 8.0
        assert generate(spec, 0) == 0.0

    def test_geometric(self):
        spec = GeneratorSpec("geometric", a=-3.0)
        assert generate(spec, 3) == -27.0
        assert generate(spec, 0) == 1.0
        # huge indices saturate instead of raising
        assert generate(spec, 10_001) == -math.inf

    def test_islets_examples(self):
        spec = GeneratorSpec("islets")
        assert generate(spec, 16) == 1.0
        assert generate(spec, 100) == 0.0
        assert generate(spec, 0) == 0.0

    def test_islets_against_wide_scan(self):
        spec = GeneratorSpec("islets")
        for i in list(range(0, 2000)) + [65_536, 65_535 - 4600, 1_048_576]:
            brute = any(abs(i - 4**k) < 2**k * k for k in range(1, 40))
            assert generate(spec, i) == float(brute)

    @pytest.mark.parametrize(
        "spec",
        [
            GeneratorSpec("alternating01"),
            GeneratorSpec("geometric", a=-3.0),
            GeneratorSpec("geometric", a=-0.7),
            GeneratorSpec("geometric", a=0.999),
            GeneratorSpec("geometric", a=0.0),
            GeneratorSpec("signed_linear"),
            GeneratorSpec("islets"),
            GeneratorSpec("spikes", C=1.3, height_scale=2.5),
        ],
        ids=lambda spec: spec.label,
    )
    def test_prefix_rule_matches_pointwise(self, spec):
        prefix = sequence_from_spec(spec).prefix(1200)
        expected = np.array([generate(spec, i) for i in range(1201)])
        if spec.family == "geometric":
            # numpy's vectorised power and the C library's pow, which the
            # pointwise rule uses, may differ in the last bit
            finite = np.isfinite(expected)
            np.testing.assert_array_equal(prefix[~finite], expected[~finite])
            gap = np.abs(prefix[finite] - expected[finite])
            assert np.all(gap <= np.spacing(np.abs(expected[finite])))
        else:
            np.testing.assert_array_equal(prefix, expected)

    def test_negative_index_rejected(self):
        with pytest.raises(ParameterDomainError):
            generate(GeneratorSpec("alternating01"), -1)

    def test_spikes_chain(self):
        spec = GeneratorSpec("spikes", C=1.0, height_scale=2.0)
        idx = spike_indices(1.0, 30)
        np.testing.assert_array_equal(idx, [1, 2, 4, 6, 9, 12, 16, 20, 25, 30])
        for i in range(31):
            expected = 2.0 * math.sqrt(i) if i in set(idx.tolist()) else 0.0
            assert generate(spec, i) == expected


    @pytest.mark.parametrize(
        "order",
        [
            [0, 1, 2, 3, 10, 500, 20_000],
            [20_000, 500, 10, 3, 2, 1, 0],
            [2, 2, 0, 0, 1, 1, 5000, 5000, 4999, 5001, 2],
        ],
    )
    def test_spike_support_reuses_its_chain(self, order):
        for C in (0.5, 1.0, 2.7):
            seq = sequence_from_spec(GeneratorSpec("spikes", C=C, height_scale=3.0))
            for h in order:
                idx, vals = seq.support(h)
                np.testing.assert_array_equal(idx, spike_positions(C, h))
                np.testing.assert_array_equal(vals, 3.0 * np.sqrt(idx.astype(float)))
                prefix = seq.prefix(h)
                assert np.array_equal(np.flatnonzero(prefix), idx)

    def test_spike_support_is_read_only(self):
        seq = sequence_from_spec(GeneratorSpec("spikes", C=1.0))
        idx, _ = seq.support(100)
        with pytest.raises(ValueError):
            idx[0] = 7
        assert spike_indices(1.0, 100).flags.writeable


class TestSharedSpikeChain:
    """Every spike sequence with one float(C) reads one chain."""

    def test_one_C_interleaved(self):
        C = 0.75
        a, b = (sequence_from_spec(GeneratorSpec("spikes", C=C, height_scale=s)) for s in (1, 2))
        horizons = [10, 3000, 50, 90_000, 0, 90_001, 1, 40_000, 250_000, 7, 250_000]
        for h_a, h_b in zip(horizons, reversed(horizons)):
            for seq, h, scale in ((a, h_a, 1.0), (b, h_b, 2.0)):
                idx, vals = seq.support(h)
                np.testing.assert_array_equal(idx, spike_positions(C, h))
                np.testing.assert_array_equal(vals, scale * np.sqrt(idx.astype(float)))
        # both read views of one array; spike_indices hands out a copy
        assert np.shares_memory(a.support(500)[0], b.support(9)[0])
        assert not np.shares_memory(a.support(500)[0], spike_indices(C, 500))

    def test_view_outlives_an_extension(self):
        C = 1.0 / 3.0
        seq = sequence_from_spec(GeneratorSpec("spikes", C=C))
        # past the end of the chain so far, so that the next call extends it
        horizon = int(_spike_chain(C)._arrays[0][-1]) + 1000
        before, heights = seq.support(horizon)
        kept = before.copy()
        other = sequence_from_spec(GeneratorSpec("spikes", C=C))
        after, _ = other.support(4 * horizon)
        np.testing.assert_array_equal(heights, np.sqrt(kept.astype(float)))
        assert after.size > before.size
        np.testing.assert_array_equal(before, kept)
        np.testing.assert_array_equal(after[: before.size], kept)
        np.testing.assert_array_equal(after, spike_positions(C, 4 * horizon))
        for view in (before, after):
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0] = 7

    def test_different_C_never_share(self):
        # 1.0 and the next double above it differ at the first gap:
        # ceil(1.0) = 1 against ceil(1 + 2**-52) = 2
        for C in (1.0, np.nextafter(1.0, 2.0), 2.0, 0.5):
            idx, _ = sequence_from_spec(GeneratorSpec("spikes", C=C)).support(5000)
            np.testing.assert_array_equal(idx, spike_positions(C, 5000))
        views = [sequence_from_spec(GeneratorSpec("spikes", C=C)).support(50)[0]
                 for C in (1.0, float(np.nextafter(1.0, 2.0)), 2.0)]
        assert not any(np.shares_memory(u, v) for u, v in zip(views, views[1:] + views[:1]))
        # the key is the exact float(C): an int C reads the chain of its float
        one, _ = sequence_from_spec(GeneratorSpec("spikes", C=1)).support(50)
        assert np.shares_memory(one, views[0])

    def test_cache_stays_within_its_bound(self):
        Cs = [1.0 + k / 64 for k in range(3 * _CACHED_CHAINS)]
        seqs = []
        for C in Cs:
            seqs.append(sequence_from_spec(GeneratorSpec("spikes", C=C)))
            seqs[-1].support(1000)
            info = _spike_chain.cache_info()
            assert info.maxsize == _CACHED_CHAINS and info.currsize <= _CACHED_CHAINS
        # a sequence whose chain left the cache keeps reading its own
        for C, seq in zip(Cs, seqs):
            np.testing.assert_array_equal(seq.support(20_000)[0], spike_positions(C, 20_000))

    def test_spike_indices_is_a_writeable_copy(self):
        idx = spike_indices(1.0, 10_000)
        assert idx.flags.writeable and idx.flags.owndata
        idx[:] = -1
        np.testing.assert_array_equal(spike_indices(1.0, 10_000), spike_positions(1.0, 10_000))
        shared, _ = sequence_from_spec(GeneratorSpec("spikes", C=1.0)).support(10_000)
        np.testing.assert_array_equal(shared, spike_positions(1.0, 10_000))

    @pytest.mark.parametrize("C", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_spike_indices_rejects_a_bad_C(self, C):
        # C <= 0 never advances the chain: the check comes before any walk,
        # and no chain is cached for it
        before = _spike_chain.cache_info()
        with pytest.raises(ParameterDomainError, match="C must be finite and positive"):
            spike_indices(C, 10)
        after = _spike_chain.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_threads_extending_one_chain(self):
        # every thread reads and extends the chains of two C at random
        # horizons; a lost or torn extension would hand out wrong positions
        Cs = (0.31, 0.47)
        top = 400_000
        expected = {C: np.array(spike_positions(C, top)) for C in Cs}
        wrong, done = [], []

        def work(seed):
            rng = np.random.default_rng(seed)
            for h in rng.integers(0, top, 60):
                C = Cs[h % 2]
                idx, vals = sequence_from_spec(GeneratorSpec("spikes", C=C)).support(int(h))
                ref = expected[C][: np.searchsorted(expected[C], h, side="right")]
                # positions and heights come from one swap of the pair
                if not (np.array_equal(idx, ref) and np.array_equal(vals, np.sqrt(ref))):
                    wrong.append((C, int(h)))
            done.append(seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(s,)) for s in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(done) == list(range(6)) and wrong == []

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(0.2, 6.0),
        st.lists(st.integers(-3, 60_000), min_size=1, max_size=6),
    )
    def test_any_order_of_horizons(self, C, horizons):
        for h in horizons:
            np.testing.assert_array_equal(spike_indices(C, h), spike_positions(C, h))


def spikes_spec(height_scale, C=1.0):
    """A spikes spec with any height scale; GeneratorSpec refuses non-finite
    ones, which a hand-built spec can still carry."""
    spec = GeneratorSpec("spikes", C=C)
    object.__setattr__(spec, "height_scale", height_scale)
    return spec


WINDOW_SPECS = {
    "alternating01": GeneratorSpec("alternating01"),
    "signed_linear": GeneratorSpec("signed_linear"),
    "geometric(0.5)": GeneratorSpec("geometric", a=0.5),
    "geometric(-1.5)": GeneratorSpec("geometric", a=-1.5),
    "islets": GeneratorSpec("islets"),
    **{f"spikes({hs})": spikes_spec(hs) for hs in (1.0, 2.5, -1.5, 0.0, math.inf, math.nan)},
    "spikes(C=0.5)": GeneratorSpec("spikes", C=0.5, height_scale=3.0),
    "spikes(C=7)": GeneratorSpec("spikes", C=7.0),
}


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


class TestWindowRule:
    """window(lo, hi) and peak(n) of every named family equal the prefix and
    support rules restricted to [lo, hi], and np.abs(prefix(n)).max(), bit
    for bit."""

    RANGES = [(0, 0), (0, 1), (0, 2), (1, 1), (2, 3), (3, 5), (5, 4), (0, 100), (14, 18),
              (4**5 - 5 * 32, 4**5 + 5 * 32), (1000, 1200), (4**6 + 384, 4**6 + 400), (20_000, 21_000)]

    @pytest.mark.parametrize("name", sorted(WINDOW_SPECS))
    def test_window_is_the_restricted_rule(self, name):
        seq = sequence_from_spec(WINDOW_SPECS[name])
        with np.errstate(over="ignore", invalid="ignore"):
            for lo, hi in self.RANGES:
                idx, vals = seq.window(lo, hi)
                assert idx.dtype == np.int64 and vals.dtype == float
                prefix = seq.prefix(max(hi, 0))
                if seq.sparse:
                    sup, sv = seq.support(hi)
                    keep = sup >= lo
                    np.testing.assert_array_equal(idx, sup[keep])
                    assert same_bits(vals, sv[keep])
                else:
                    np.testing.assert_array_equal(idx, np.arange(lo, hi + 1))
                scattered = np.zeros(max(hi - lo + 1, 0))
                scattered[idx - lo] = vals
                assert same_bits(scattered, prefix[lo : hi + 1]), (lo, hi)

    @pytest.mark.parametrize("name", sorted(WINDOW_SPECS))
    def test_peak_is_the_prefix_maximum(self, name):
        seq = sequence_from_spec(WINDOW_SPECS[name])
        ns = [0, 1, 2, 3, 4, 5, 6, 9, 30, 63, 64, 65, 999, 1024, 4**6 + 384, 20_000]
        with np.errstate(over="ignore", invalid="ignore"):
            for n in ns:
                expected = np.abs(seq.prefix(n)).max()
                got = seq.peak(n)
                assert type(got) is float
                if math.isnan(expected):
                    assert math.isnan(got), n
                else:
                    assert same_bits(got, expected), n
                assert math.isfinite(got) == bool(np.isfinite(seq.prefix(n)).all()), n

    def test_spike_peak_rounding_is_sign_symmetric(self):
        # |h| * root equals |h * root| for every height scale and root
        rng = np.random.default_rng(17)
        roots = np.sqrt(rng.integers(1, 10**12, 2000).astype(float))
        for h in rng.uniform(-1e3, 1e3, 50):
            assert same_bits(abs(h) * roots, np.abs(h * roots))

    @pytest.mark.parametrize("name", sorted(WINDOW_SPECS) + ["explicit", "rule"])
    def test_bounds_are_checked(self, name):
        # non-negative integers below 2**63, as for prefix; hi < lo is an empty window
        if name == "explicit":
            seq = RealSequence.from_values(np.arange(10.0))
        elif name == "rule":
            seq = RealSequence.from_function(lambda h: -np.arange(h + 1.0))
        else:
            seq = sequence_from_spec(WINDOW_SPECS[name])
        for lo, hi in [(-3, 2), (2, -1), (2.5, 4), (2, 4.0), (True, 3), (np.float64(1), 3),
                       (0, 2**63), (np.uint64(2**63), 3)]:
            with pytest.raises(ParameterDomainError):
                seq.window(lo, hi)
        for n in (-1, 2.5, 3.0, False, 2**63, np.uint64(2**64 - 1)):
            with pytest.raises(ParameterDomainError):
                seq.peak(n)
        with np.errstate(over="ignore", invalid="ignore"):
            for lo, hi in [(5, 4), (3, 0), (np.int64(9), np.int64(2))]:
                idx, vals = seq.window(lo, hi)
                assert len(idx) == len(vals) == 0 and idx.dtype == np.int64, (lo, hi)
            assert same_bits(seq.peak(np.int64(4)), np.abs(seq.prefix(4)).max())

    def test_from_function_takes_exactly_one_rule(self):
        def prefix(h):
            return np.zeros(h + 1)

        def support(h):
            return np.empty(0, dtype=np.int64), np.empty(0)

        with pytest.raises(ParameterDomainError):
            RealSequence.from_function()
        with pytest.raises(ParameterDomainError):
            RealSequence.from_function(prefix, support=support)
        with pytest.raises(ParameterDomainError):
            RealSequence.from_function(prefix, support)
        assert not RealSequence.from_function(prefix).sparse
        assert RealSequence.from_function(support=support).sparse

    @pytest.mark.parametrize("sparse", [False, True])
    def test_from_window_prefix_and_support_are_its_window(self, sparse):
        # every third index of a sparse sequence is support; a dense one
        # gives every index
        def window(lo, hi):
            idx = np.arange(lo, hi + 1)
            if sparse:
                idx = idx[idx % 3 == 1]
            return idx, np.where(idx % 2 == 0, 0.5, -0.25) * idx

        def peak(n):
            return 0.25 * n if n % 2 else 0.5 * n

        seq = RealSequence.from_window(window, peak, sparse=sparse, name="user")
        assert seq.sparse == sparse
        for h in (0, 1, 2, 7, 100):
            idx, vals = window(0, h)
            scattered = np.zeros(h + 1)
            scattered[idx] = vals
            assert same_bits(seq.prefix(h), scattered)
            if sparse:
                got_idx, got = seq.support(h)
                np.testing.assert_array_equal(got_idx, idx)
                assert same_bits(got, vals)
            else:
                assert same_bits(seq.prefix(h), vals)
                with pytest.raises(ParameterDomainError):
                    seq.support(h)
        claimed = RealSequence.from_window(window, peak, sparse=sparse, nonneg=True)
        with pytest.raises(ParameterDomainError):
            claimed.prefix(10)
        if sparse:
            with pytest.raises(ParameterDomainError):
                claimed.support(10)
        # terms 0 and 1 are >= 0: the claim is checked on what is read
        assert same_bits(claimed.prefix(0), [0.0])

    @pytest.mark.parametrize("sparse", [False, True])
    def test_lone_query_reads_the_rule_once(self, sparse):
        vals = np.random.default_rng(4).standard_normal(3001)
        vals[::4] = 0.0
        nz = np.flatnonzero(vals)
        reads = []

        def prefix(h):
            reads.append(h)
            return vals[: h + 1].copy()

        def support(h):
            reads.append(h)
            return nz[nz <= h], vals[nz[nz <= h]]

        seq = RealSequence.from_function(support=support) if sparse else RealSequence.from_function(prefix)
        for n in (0, 1, 40, 2999):
            del reads[:]
            got = transforms.binomial_mean_at(seq, 0.3, n)
            assert reads == [n]
            assert same_bits(got, binomial_prefix(seq, 0.3, n).values[n])

    @pytest.mark.parametrize("sparse", [False, True])
    def test_default_rule_reads_the_prefix_or_support(self, sparse):
        # a sequence without a closed form serves windows and peaks from one
        # read of its support, or of its prefix
        vals = np.random.default_rng(3).standard_normal(500)
        vals[::3] = 0.0
        if sparse:
            nz = np.flatnonzero(vals)
            seq = RealSequence.from_function(support=lambda h: (nz[nz <= h], vals[nz[nz <= h]]))
        else:
            seq = RealSequence.from_values(vals)
        for lo, hi in [(0, 0), (7, 40), (100, 499), (250, 249)]:
            idx, got = seq.window(lo, hi)
            expected = np.flatnonzero(vals[lo : hi + 1]) + lo if sparse else np.arange(lo, hi + 1)
            np.testing.assert_array_equal(idx, expected)
            assert same_bits(got, vals[idx])
        for n in (0, 1, 77, 499):
            assert same_bits(seq.peak(n), np.abs(vals[: n + 1]).max())


class TestIsletStructure:
    def test_ranges_match_pointwise(self):
        spec = GeneratorSpec("islets")
        seq = sequence_from_spec(spec)
        prefix = seq.prefix(1200)
        assert all(prefix[i] == generate(spec, i) for i in range(1201))
        idx, vals = seq.support(1200)
        np.testing.assert_array_equal(idx, np.nonzero(prefix)[0])
        assert np.all(vals == 1.0)

    def test_density_bound(self):
        for k in range(1, 11):
            count = islets_count_upto(4**k - 1)
            assert count <= 4 * 2**k * k

    def test_ranges_disjoint_and_sorted(self):
        ranges = islet_ranges(10**7)
        for (lo1, hi1), (lo2, hi2) in zip(ranges, ranges[1:]):
            assert hi1 < lo2
            assert lo1 <= hi1


class TestEstimateLimit:
    def test_constant_converges(self):
        verdict = estimate_limit([0.5] * 100, window=50, tol=1e-9)
        assert verdict.status == "converged"
        assert verdict.value == 0.5

    def test_growth_diverges(self):
        values = np.arange(10_000) / 2.0
        verdict = estimate_limit(values, growth_threshold=1e3)
        assert verdict.status == "diverges_to_infinity"

    def test_oscillation_not_converged(self):
        verdict = estimate_limit([0.0, 1.0] * 50)
        assert verdict.status == "not_converged"

    @settings(deadline=None, max_examples=40)
    @given(window=st.integers(2, 200), tol=st.floats(1e-12, 0.999))
    def test_raw_alternating_never_converges(self, window, tol):
        raw = sequence_from_spec(GeneratorSpec("alternating01")).prefix(399)
        verdict = estimate_limit(raw, window=window, tol=tol)
        assert verdict.status == "not_converged"

    def test_window_validation(self):
        with pytest.raises(ParameterDomainError):
            estimate_limit([1.0, 2.0, 3.0], window=1)
        with pytest.raises(HorizonError):
            estimate_limit([1.0, 2.0, 3.0], window=4)

    def test_non_finite_values_never_converge(self):
        assert estimate_limit([1.0, math.nan] * 10).status == "not_converged"
        assert estimate_limit([1.0, math.inf] * 10).status == "not_converged"
        # a tail pinned at +inf exceeds any growth threshold
        assert estimate_limit([math.inf] * 10).status == "diverges_to_infinity"

    def test_cesaro_of_alternating_at_large_horizon(self):
        seq = sequence_from_spec(GeneratorSpec("alternating01"))
        verdict = estimate_limit(cesaro_prefix(seq, 10**6).values)
        assert verdict.status == "converged"
        assert abs(verdict.value - 0.5) <= 1e-5

    def test_defaults_follow_length(self):
        verdict = estimate_limit([1.0] * 1000)
        assert verdict.window == 100
        assert math.isclose(verdict.tol, 1e-4 * 2.0)


class TestRunTable1:
    def test_param_validation(self):
        with pytest.raises(ParameterDomainError):
            run_table1(0.75, 0.25, 1000)
        with pytest.raises(ParameterDomainError):
            run_table1(0.3, 0.3, 1000)
        with pytest.raises(ParameterDomainError):
            run_table1(0.3, 0.7, 10)

    def test_grid_run(self):
        # horizon large enough for the Cesaro window spread of alternating01
        # (~1/(1.8 H)) to pass the default tolerance
        report = run_table1(0.3, 0.7, 5000)
        assert report.contradictions == 0
        labels = set(report.verdicts)
        assert {"alternating01", "islets", "signed_linear"} <= labels
        # alternating01 witnesses convergence of the means without raw convergence
        witnessed = {(c.family, c.source, c.target) for c in report.witnesses}
        assert ("alternating01", "binomial_p", "raw") in witnessed
        assert ("alternating01", "cesaro", "raw") in witnessed
        # means of alternating01 agree on 1/2
        per = report.verdicts["alternating01"]
        assert per["binomial_p"].converged and abs(per["binomial_p"].value - 0.5) < 1e-3
        assert per["cesaro"].converged and abs(per["cesaro"].value - 0.5) < 1e-3
        assert per["raw"].status == "not_converged"

    def test_pq_witness(self):
        report = run_table1(0.25, 0.75, 2000)
        wit = report.pq_witness
        assert wit["a"] == -3.0
        assert wit["p_ratio"] == 0.0 and wit["q_ratio"] == -2.0
        assert wit["witnessed"] is True

    def test_pq_witness_scores_equal_infinities_as_no_error(self):
        # (1 - q + q a)**n = (-1.8)**n overflows before n = 2000: the closed form
        # and the reference are the same signed infinities there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            witness = _geometric_pq_witness(0.4, 0.7, 2000)
        assert witness["q_mean_max_rel_err"] <= 2 * EPS and witness["witnessed"] is True

    def test_unchanged_at_the_criterion_7_pairs(self):
        # SHA-256 of verdicts, cells and both geometric witnesses.
        # Re-pinned when islets rows moved to the windowed kernel: only two
        # islets binomial_q fields changed (the (0.3, 0.6) tol and the
        # (0.4, 0.7) value), each closer to its exact-rational value.
        # Re-pinned when every dense row took a half-width fixed by n:
        # statuses, windows, cells, contradictions and witness flags kept
        # their values; only the signed_linear binomial values (|v| < 1e-14
        # against sum B |a_i| of order n p) with their tols and the pq
        # witness's error fields moved.  Re-pinned when geometric means took
        # their closed form: only geometric(a=-3) moved, its binomial_p
        # converged to 0 at all three pairs (it was not_converged), with two
        # cells each and a new witness; the pq witness's errors fell to
        # 0-1.7e-16, the H = 2000 ones from NaN, which marks (0.3, 0.6)
        # witnessed there.  Re-pinned when the pq witness came to score
        # equal infinities as no error: at (0.25, 0.75) and (0.4, 0.7),
        # where (-2)**n and (-1.8)**n pass the double range before n = 2000,
        # pq_witness_h's q error went from NaN to 0 and 1.9e-16 and both are
        # witnessed; the table itself did not move.  Re-pinned when dense
        # rows came to be split: statuses, windows, cells, contradictions
        # and witnesses kept their values; only the six signed_linear
        # binomial values (|v| < 6e-15 both before and after, against sum B
        # |a_i| of order n p) and their tols moved.  Re-pinned when every
        # routed row came to be split: only the islets binomial_q tol at
        # (0.3, 0.6) and value at (0.4, 0.7) moved, by one rounding each,
        # from 106 and 32 moved rows of their 201-row windows (worst error
        # against exact rationals 1.42 -> 1.57 and 6.57 -> 2.48 eps)
        expected = {
            (0.25, 0.75): "c1aa12ca5486cec8",
            (0.3, 0.6): "f83d52340db9e577",
            (0.4, 0.7): "4d1b99bc6fa811fe",
        }
        for (p, q), digest in expected.items():
            report = run_table1(p, q, 2000)
            with np.errstate(over="ignore"):
                witness = _geometric_pq_witness(p, q, 2000)
            body = {
                "verdicts": {
                    f: {t: [v.status, v.value, v.window, v.tol] for t, v in per.items()}
                    for f, per in report.verdicts.items()
                },
                "cells": [[c.family, c.source, c.target, c.outcome] for c in report.cells],
                "contradictions": report.contradictions,
                "pq_witness": report.pq_witness,
                "pq_witness_h": witness,
            }
            assert hashlib.sha256(json.dumps(body).encode()).hexdigest()[:16] == digest

    def test_geometric_binomial_p_converges_to_zero(self):
        # (1 - 4 p)**n = (-0.2)**n: full PMF rows gave -inf then NaN from
        # n = 647 on, and the series was judged not_converged
        report = run_table1(0.3, 0.6, 2500)
        verdict = report.verdicts["geometric(a=-3)"]["binomial_p"]
        assert verdict.status == "converged" and verdict.value == 0.0
        assert report.contradictions == 0

    @pytest.mark.parametrize(
        "p, q, horizon, window",
        [(0.3, 0.6, 400, None), (0.42, 0.83, 700, None), (0.25, 0.75, 333, 8), (0.3, 0.7, 500, 501)],
    )
    def test_tail_rows_equal_full_prefixes(self, p, q, horizon, window):
        # the binomial verdicts read only the judged rows; judged on full
        # prefixes they come out the same, field for field
        report = run_table1(p, q, horizon, window=window)
        for spec in default_families():
            seq = sequence_from_spec(spec)
            per = report.verdicts[spec.label]
            with np.errstate(over="ignore", invalid="ignore"):
                for name, prob in (("binomial_p", p), ("binomial_q", q)):
                    full = estimate_limit(binomial_prefix(seq, prob, horizon).values, window=window)
                    got = per[name]
                    assert (got.status, got.window) == (full.status, full.window), (spec, name)
                    assert same_bits(got.tol, full.tol)
                    assert got.value == full.value or (got.value is None and full.value is None)
                    if got.value is not None:
                        assert same_bits(got.value, full.value)

    def test_window_checks_come_from_the_raw_series(self):
        with pytest.raises(HorizonError):
            run_table1(0.3, 0.6, 100, window=102)
        with pytest.raises(ParameterDomainError):
            run_table1(0.3, 0.6, 100, window=1)

    def test_open_cell_never_flags(self):
        report = run_table1(0.3, 0.7, 2000)
        for cell in report.cells:
            if cell.relation == "open_if_nonneg":
                assert cell.outcome == "evidence_only"


class TestGrowthBound:
    def test_sqrt_growth_of_convergent_families(self):
        # families whose binomial means settle keep a_i = O(sqrt(i))
        for spec in (
            GeneratorSpec("alternating01"),
            GeneratorSpec("islets"),
            GeneratorSpec("geometric", a=1.0),
            GeneratorSpec("spikes", C=1.0),
        ):
            seq = sequence_from_spec(spec)
            values = seq.prefix(10_000)
            i = np.arange(10_001, dtype=float)
            assert np.max(np.abs(values) / np.sqrt(i + 1.0)) <= 1.0 + 1e-12


class TestProbeOpenProblem:
    def test_zero_heights_give_zero_values(self):
        report = probe_open_problem(0.4, 0.7, 1.0, 5000, height_scale=0.0)
        assert (report.samples["value"] == 0.0).all()
        assert report.amplitude_p == 0.0 and report.amplitude_q == 0.0

    def test_sample_structure(self):
        report = probe_open_problem(0.4, 0.7, 1.0, 20_000)
        spikes = spike_indices(1.0, int(0.4 * 20_000))
        series = report.samples["series"]
        assert np.count_nonzero(series == "p_aligned") == len(spikes)
        assert np.count_nonzero(series == "p_mid") == len(spikes) - 1
        assert (report.samples["eval_index"] <= 20_000).all()
        # the columns against the per-sample loop they replace
        cols = {k: v.tolist() for k, v in report.samples.items()}
        ref = []
        for prob, tag in ((0.4, "p"), (0.7, "q")):
            aligned = [int(s // prob) for s in spikes]
            for j, (s, m) in enumerate(zip(spikes, aligned)):
                ref.append((f"{tag}_aligned", j, int(s), m))
            for j, (lo, hi) in enumerate(zip(aligned, aligned[1:])):
                ref.append((f"{tag}_mid", j, int(spikes[j]), (lo + hi) // 2))
        names = ("series", "ordinal", "spike_index", "eval_index")
        assert list(zip(*(cols[k] for k in names))) == ref
        for tag, amplitude in (("p_", report.amplitude_p), ("q_", report.amplitude_q)):
            vals = [v for t, v in zip(cols["series"], cols["value"]) if t.startswith(tag)]
            assert amplitude == max(vals) - min(vals)
        assert report.amplitude_p >= 0.0 and report.amplitude_q >= 0.0

    def test_wide_spacing_reported_not_asserted(self):
        report = probe_open_problem(0.4, 0.7, 100.0, 100_000)
        assert math.isfinite(report.amplitude_p)
        assert math.isfinite(report.amplitude_q)

    def test_million_horizon_is_fast_enough(self):
        import time

        start = time.perf_counter()
        report = probe_open_problem(0.4, 0.7, 1.0, 10**6)
        assert time.perf_counter() - start < 30.0
        assert len(report.samples["value"]) > 1000
        assert report.amplitude_p > 0.0

    def test_samples_match_per_sample_sums(self, monkeypatch):
        # Each sample against the sum over the whole support <= n.  Rows the
        # ratio-product kernel weights, split or windowed (spike rows at
        # small n), are within 4 eps of sum B |a| of the exact rational sum;
        # the others, weighted in log space, within 4 eps of the log-space
        # sum they were always checked against.
        routed = set()  # (p, n) of every row reaching the ratio-product kernel
        block = transforms._block

        def recorded(buffer, first, n0, p, half, peak, triangle=None, *rest):
            if triangle is None:  # a windowed row
                routed.update((p, n) for n in n0.astype(np.int64).tolist())
            else:  # the rows a split block was asked for hold their peak
                b, j = np.nonzero(peak > 0)
                routed.update((p, n) for n in (n0[b] + j).astype(np.int64).tolist())
            return block(buffer, first, n0, p, half, peak, triangle, *rest)

        monkeypatch.setattr(transforms, "_block", recorded)
        for C, horizon in ((1.0, 200_000), (0.5, 20_000), (40.0, 50_000)):
            routed.clear()
            report = probe_open_problem(0.35, 0.8, C, horizon)
            seq = sequence_from_spec(GeneratorSpec("spikes", C=C))
            idx, av = seq.support(horizon)
            cols = report.samples
            checked = 0
            for series, n, value in zip(cols["series"], cols["eval_index"], cols["value"]):
                prob = 0.35 if series.startswith("p_") else 0.8
                n = int(n)
                k = int(np.searchsorted(idx, n, side="right"))
                if (prob, n) in routed:
                    exact = sparse_binomial_exact(idx[:k], av[:k], n, prob)
                    scale = sparse_binomial_exact(idx[:k], np.abs(av[:k]), n, prob)
                    assert abs(Fraction(value) - exact) <= Fraction(4 * EPS) * scale
                    checked += 1
                    continue
                terms = np.exp(log_pmf_many(n, prob, idx[:k])) * av[:k]
                old = float(np.exp(log_pmf_many(n, prob, idx[:k])) @ av[:k])
                assert abs(value - old) <= 4 * EPS * math.fsum(terms)
            assert checked >= 2

    def test_param_validation(self):
        with pytest.raises(ParameterDomainError):
            probe_open_problem(0.7, 0.4, 1.0, 1000)
        with pytest.raises(ParameterDomainError):
            probe_open_problem(0.3, 0.6, 0.0, 1000)
