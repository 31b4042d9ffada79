import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summakit import (
    GeneratorSpec,
    HorizonError,
    ParameterDomainError,
    cesaro_prefix,
    estimate_limit,
    generate,
    probe_open_problem,
    run_table1,
    sequence_from_spec,
)
from summakit.binomial_kernel import log_pmf_many
from summakit.sequences import islet_ranges, islets_count_upto, spike_indices

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
                np.testing.assert_array_equal(idx, spike_indices(C, h))
                np.testing.assert_array_equal(vals, 3.0 * np.sqrt(idx.astype(float)))
                prefix = seq.prefix(h)
                assert np.array_equal(np.flatnonzero(prefix), idx)

    def test_spike_support_is_read_only(self):
        seq = sequence_from_spec(GeneratorSpec("spikes", C=1.0))
        idx, _ = seq.support(100)
        with pytest.raises(ValueError):
            idx[0] = 7
        assert spike_indices(1.0, 100).flags.writeable


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
        assert all(s.value == 0.0 for s in report.samples)
        assert report.amplitude_p == 0.0 and report.amplitude_q == 0.0

    def test_sample_structure(self):
        report = probe_open_problem(0.4, 0.7, 1.0, 20_000)
        spikes = spike_indices(1.0, int(0.4 * 20_000))
        aligned_p = [s for s in report.samples if s.series == "p_aligned"]
        mids_p = [s for s in report.samples if s.series == "p_mid"]
        assert len(aligned_p) == len(spikes)
        assert len(mids_p) == len(spikes) - 1
        assert all(s.eval_index <= 20_000 for s in report.samples)
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
        assert len(report.samples) > 1000
        assert report.amplitude_p > 0.0

    def test_samples_match_per_sample_sums(self):
        # the sum over the whole support <= n that each sample used to be
        for C, horizon in ((1.0, 200_000), (0.5, 20_000), (40.0, 50_000)):
            report = probe_open_problem(0.35, 0.8, C, horizon)
            seq = sequence_from_spec(GeneratorSpec("spikes", C=C))
            idx, av = seq.support(horizon)
            for s in report.samples:
                prob = 0.35 if s.series.startswith("p_") else 0.8
                k = int(np.searchsorted(idx, s.eval_index, side="right"))
                terms = np.exp(log_pmf_many(s.eval_index, prob, idx[:k])) * av[:k]
                old = float(np.exp(log_pmf_many(s.eval_index, prob, idx[:k])) @ av[:k])
                assert abs(s.value - old) <= 4 * EPS * math.fsum(terms)

    def test_param_validation(self):
        with pytest.raises(ParameterDomainError):
            probe_open_problem(0.7, 0.4, 1.0, 1000)
        with pytest.raises(ParameterDomainError):
            probe_open_problem(0.3, 0.6, 0.0, 1000)
