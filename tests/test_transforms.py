import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summakit import (
    GeneratorSpec,
    HorizonError,
    ParameterDomainError,
    RealSequence,
    binomial_mean_at,
    binomial_prefix,
    cesaro_prefix,
    compose_check,
    epsilon,
    estimate_limit,
    pstar_prefix,
    sequence_from_spec,
    split_xyz,
    weights,
)
from summakit import transforms
from summakit.binomial_kernel import _row_mass, log_pmf_many

from oracles import sparse_binomial_scipy, weights_double_sum

EPS = np.finfo(float).eps


def constant(c, length=1001):
    return RealSequence.from_values(np.full(length, float(c)), nonneg=c >= 0, name=f"const({c})")


class TestRealSequence:
    def test_horizon_beyond_explicit_length(self):
        seq = RealSequence.from_values([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(seq.prefix(2), [1.0, 2.0, 3.0])
        with pytest.raises(HorizonError):
            seq.prefix(3)
        with pytest.raises(HorizonError):
            seq.prefix(5)

    def test_nonneg_claim_checked_lazily(self):
        seq = RealSequence.from_values([1.0, -1.0], nonneg=True)
        with pytest.raises(ParameterDomainError):
            seq.prefix(1)
        # the claim is not checked at construction, nor on terms not asked for
        np.testing.assert_array_equal(seq.prefix(0), [1.0])

    def test_nonneg_claim_checked_on_support(self):
        seq = RealSequence.from_function(
            lambda h: np.zeros(h + 1),
            support=lambda h: (np.array([1, 3]), np.array([2.0, -1.0])),
            nonneg=True,
        )
        assert seq.sparse
        with pytest.raises(ParameterDomainError):
            seq.support(4)

    def test_explicit_prefix_is_a_copy(self):
        values = np.array([1.0, 2.0])
        seq = RealSequence.from_values(values)
        seq.prefix(1)[0] = 7.0
        assert seq.prefix(1)[0] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ParameterDomainError):
            RealSequence.from_values([])

    def test_support_requires_declaration(self):
        with pytest.raises(ParameterDomainError):
            RealSequence.from_values([1.0, 2.0]).support(1)


class TestCesaro:
    def test_small_example(self):
        got = cesaro_prefix(RealSequence.from_values([1, 0, 1, 0]), 3).values
        np.testing.assert_allclose(got, [1.0, 0.5, 2.0 / 3.0, 0.5], rtol=0, atol=0)

    def test_identity_on_constants(self):
        got = cesaro_prefix(constant(0.37), 1000).values
        np.testing.assert_allclose(got, 0.37, rtol=1e-14)

    def test_signed_linear_alternates_exactly(self):
        seq = sequence_from_spec(GeneratorSpec("signed_linear"))
        got = cesaro_prefix(seq, 999).values
        for n in range(1, 1000, 2):
            assert got[n] == -0.5
        for n in range(0, 1000, 2):
            assert got[n] == (n // 2) / (n + 1)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ParameterDomainError):
            cesaro_prefix(constant(1.0), -1)


class TestBinomial:
    def test_alternating01_closed_form(self):
        seq = sequence_from_spec(GeneratorSpec("alternating01"))
        for p in (0.2, 0.5, 0.8):
            got = binomial_prefix(seq, p, 200).values
            n = np.arange(201, dtype=float)
            expected = (1.0 + (1.0 - 2.0 * p) ** n) / 2.0
            assert np.max(np.abs(got - expected)) <= 1e-12

    def test_geometric_closed_form(self):
        seq = sequence_from_spec(GeneratorSpec("geometric", a=0.5))
        got = binomial_prefix(seq, 0.3, 100).values
        expected = (0.3 * (0.5 - 1.0) + 1.0) ** np.arange(101, dtype=float)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_signed_linear_closed_form(self):
        # -n p (1-2p)^(n-1): at p = 1/2 that is (0, -1/2, 0, 0, ...)
        seq = sequence_from_spec(GeneratorSpec("signed_linear"))
        for p in (0.3, 0.5, 0.7):
            got = binomial_prefix(seq, p, 200).values
            n = np.arange(201, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                expected = -n * p * (1.0 - 2.0 * p) ** (n - 1.0)
            expected[0] = 0.0
            assert np.max(np.abs(got - expected)) <= 1e-9

    def test_nonneg_source_gives_nonneg_prefix(self):
        for fam in ("alternating01", "islets"):
            seq = sequence_from_spec(GeneratorSpec(fam))
            assert binomial_prefix(seq, 0.4, 300).values.min() >= 0.0

    def test_bad_p_rejected(self):
        with pytest.raises(ParameterDomainError):
            binomial_prefix(constant(1.0), 1.0, 10)

    def test_sparse_path_matches_dense(self):
        sparse = sequence_from_spec(GeneratorSpec("islets"))
        dense = RealSequence.from_values(sparse.prefix(400))
        got = binomial_prefix(sparse, 0.35, 400).values
        ref = binomial_prefix(dense, 0.35, 400).values
        assert np.max(np.abs(got - ref)) <= 1e-12


def full_row_loop(values, p):
    """The per-row reference: a full PMF row dotted with the terms, for every n."""
    out = np.empty(len(values))
    out[0] = values[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, len(values)):
            out[n] = _row_mass(n, p) @ values[: n + 1]
    return out


def full_row_exact(values, p):
    """Full-row means summed exactly (math.fsum), with sum_i B(n,i,p) |a_i|."""
    means, scales = [values[0]], [abs(values[0])]
    for n in range(1, len(values)):
        row = _row_mass(n, p)
        means.append(math.fsum(row * values[: n + 1]))
        scales.append(math.fsum(row * np.abs(values[: n + 1])))
    return np.array(means), np.array(scales)


def count_full_rows(monkeypatch):
    """Record the n of every full PMF row the dense kernel falls back to."""
    calls = []

    def counted(n, p):
        calls.append(n)
        return _row_mass(n, p)

    monkeypatch.setattr(transforms, "_row_mass", counted)
    return calls


class TestWindowedKernel:
    # The reference is the per-row _row_mass dot summed exactly: the BLAS dot
    # of a full row carries a few eps of summation error of its own.
    @settings(deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        horizon=st.integers(0, 400),
        p=st.floats(0.01, 0.99),
        signed=st.booleans(),
    )
    def test_matches_full_rows(self, seed, horizon, p, signed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1.0 if signed else 0.0, 1.0, horizon + 1)
        got = binomial_prefix(RealSequence.from_values(values), p, horizon).values
        ref, scale = full_row_exact(values, p)
        assert np.all(np.abs(got - ref) <= 4 * EPS * scale)

    @pytest.mark.parametrize("horizon", [0, 1, 2, 300])
    @pytest.mark.parametrize("p", [1e-6, 0.003, 0.997, 1 - 1e-6])
    def test_edge_horizons_and_extreme_p(self, horizon, p):
        values = np.random.default_rng(horizon).uniform(-1.0, 1.0, horizon + 1)
        got = binomial_prefix(RealSequence.from_values(values), p, horizon).values
        ref, scale = full_row_exact(values, p)
        assert np.all(np.abs(got - ref) <= 4 * EPS * scale)
        assert np.all(np.abs(got - full_row_loop(values, p)) <= 4 * EPS * scale)

    def test_bounded_rows_skip_the_full_row(self, monkeypatch):
        calls = count_full_rows(monkeypatch)
        seq = sequence_from_spec(GeneratorSpec("alternating01"))
        got = binomial_prefix(seq, 0.3, 3000).values
        n = np.arange(3001, dtype=float)
        assert np.max(np.abs(got - (1.0 + 0.4**n) / 2.0)) <= 1e-15
        assert calls == []

    def test_unbounded_fallback_is_bit_identical(self, monkeypatch):
        # (-3)**n overflows at n = 647 (to -inf), so row 647 must fall back;
        # from row 648 on both infinities are present and the rows are NaN
        # without building a full row.  Earlier rows certify only while the
        # tail the window drops, times 3**n, stays below 2**-53 of (1 + 2p)**n.
        calls = count_full_rows(monkeypatch)
        seq = sequence_from_spec(GeneratorSpec("geometric", a=-3.0))
        values = seq.prefix(2000)
        for p in (0.25, 0.6):
            calls.clear()
            got = binomial_prefix(seq, p, 2000).values
            ref = full_row_loop(values, p)
            fallback = np.zeros(2001, dtype=bool)
            fallback[calls] = True
            assert fallback[647] and not fallback[648:].any()
            assert not np.all(np.isfinite(ref[fallback]))
            assert np.isnan(ref[648:]).all()
            fallback[648:] = True
            np.testing.assert_array_equal(got[fallback], ref[fallback])
            windowed = np.flatnonzero(~fallback)
            scale = (1.0 + 2.0 * p) ** windowed
            assert np.all(np.abs(got[windowed] - ref[windowed]) <= 4 * EPS * scale)

    def test_non_finite_term_reaches_only_later_rows(self, monkeypatch):
        calls = count_full_rows(monkeypatch)
        values = np.concatenate([np.ones(150), [math.inf, 1.0]])
        got = binomial_prefix(RealSequence.from_values(values), 0.5, 151).values
        assert np.all(np.abs(got[:150] - 1.0) <= 4 * EPS)
        assert calls == [150, 151]
        assert np.isinf(got[150]) and np.isinf(got[151])

    def test_tilted_sequence_takes_the_fallback(self, monkeypatch):
        calls = count_full_rows(monkeypatch)
        seq = sequence_from_spec(GeneratorSpec("geometric", a=0.3))
        for p in (0.3, 0.7):
            calls.clear()
            got = binomial_prefix(seq, p, 1000).values
            # a > 0, so the closed form is also sum_i B(n,i,p) |a_i|
            expected = (p * (0.3 - 1.0) + 1.0) ** np.arange(1001, dtype=float)
            assert np.all(np.abs(got - expected) <= 1e-12 * expected)
            assert 1000 in calls and len(calls) >= 500

    def test_mean_at_uses_the_windowed_kernel(self, monkeypatch):
        calls = count_full_rows(monkeypatch)
        seq = sequence_from_spec(GeneratorSpec("alternating01"))
        for n in (1, 2, 17, 5000, 200_001):
            for p in (0.2, 0.5):
                expected = (1.0 + (1.0 - 2.0 * p) ** n) / 2.0
                assert abs(binomial_mean_at(seq, p, n) - expected) <= 4 * EPS
        assert calls == []
        geo = sequence_from_spec(GeneratorSpec("geometric", a=0.5))
        got = binomial_mean_at(geo, 0.4, 3000)
        assert calls == [3000]
        assert math.isclose(got, 0.8**3000, rel_tol=1e-12)

    def test_mean_at_matches_prefix(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(-1.0, 1.0, 1201)
        seq = RealSequence.from_values(values)
        prefix = binomial_prefix(seq, 0.45, 1200).values
        ref, scale = full_row_exact(values, 0.45)
        for n in (0, 1, 150, 700, 1200):
            got = binomial_mean_at(seq, 0.45, n)
            assert abs(got - ref[n]) <= 4 * EPS * scale[n]
            assert abs(got - prefix[n]) <= 8 * EPS * scale[n]


    @pytest.mark.parametrize("p", [0.25, 0.6, 0.9])
    def test_certain_nan_rows_match_full_rows(self, monkeypatch, p):
        # (-3)**n overflows at n = 647; every later row holds both infinities
        calls = count_full_rows(monkeypatch)
        seq = sequence_from_spec(GeneratorSpec("geometric", a=-3.0))
        got = binomial_prefix(seq, p, 4000).values
        ref = full_row_loop(seq.prefix(4000), p)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(ref))
        assert np.isnan(got[648:]).all() and max(calls) == 647

    def test_nan_term_skips_later_rows(self, monkeypatch):
        calls = count_full_rows(monkeypatch)
        values = np.ones(301)
        values[200] = math.nan
        got = binomial_prefix(RealSequence.from_values(values), 0.4, 300).values
        assert np.all(np.abs(got[:200] - 1.0) <= 4 * EPS)
        assert np.isnan(got[200:]).all() and calls == []


def count_sparse_fallbacks(monkeypatch):
    """Record the n of every row the sparse kernel sums over its whole support."""
    calls = []
    whole = transforms._whole_support_mean

    def counted(idx, av, p, n, k):
        calls.append(n)
        return whole(idx, av, p, n, k)

    monkeypatch.setattr(transforms, "_whole_support_mean", counted)
    return calls


def sparse_rows_old(idx, av, p, ns):
    """Per row: the sum over the whole support <= n as the sparse path used to
    compute it, the same terms summed exactly, and the exact sum of |terms|."""
    old, exact, scale = [], [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for n in ns:
            k = int(np.searchsorted(idx, n, side="right"))
            masses = np.exp(log_pmf_many(int(n), p, idx[:k]))
            terms = masses * av[:k]
            old.append(masses @ av[:k] if k else 0.0)
            finite = np.isfinite(terms).all()
            exact.append(math.fsum(terms) if finite else math.nan)
            scale.append(math.fsum(np.abs(terms)) if finite else math.nan)
    return np.array(old), np.array(exact), np.array(scale)


@st.composite
def sparse_supports(draw):
    """Sorted supports made of islands (possibly none, possibly at index 0)
    separated by gaps of any length, with bounded values."""
    horizon = draw(st.integers(0, 2000))
    islands = draw(
        st.lists(st.tuples(st.integers(0, 2200), st.integers(1, 80)), min_size=0, max_size=5)
    )
    idx = sorted({i for start, length in islands for i in range(start, start + length)})
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    signed = draw(st.booleans())
    av = rng.uniform(-1.0 if signed else 0.0, 1.0, len(idx))
    return horizon, np.array(idx, dtype=np.int64), av


class TestSparseKernel:
    @settings(deadline=None, max_examples=60)
    @given(
        support=sparse_supports(),
        p=st.one_of(st.sampled_from([1e-6, 1e-3, 0.999, 1 - 1e-6]), st.floats(0.01, 0.99)),
    )
    def test_matches_whole_support_sums(self, support, p):
        horizon, idx, av = support
        ns = np.arange(horizon + 1)
        with pytest.MonkeyPatch.context() as mp:
            calls = count_sparse_fallbacks(mp)
            got = transforms._binomial_means_sparse(idx, av, p, ns)
        old, exact, scale = sparse_rows_old(idx, av, p, ns)
        fallback = np.zeros(len(ns), dtype=bool)
        fallback[calls] = True
        np.testing.assert_array_equal(got[fallback], old[fallback])
        kept = ~fallback
        assert np.all(np.abs(got[kept] - exact[kept]) <= 4 * EPS * scale[kept])

    def test_any_order_of_rows(self):
        seq = sequence_from_spec(GeneratorSpec("islets"))
        idx, av = seq.support(5000)
        ns = np.random.default_rng(2).permutation(np.arange(5001))
        ns = np.concatenate([ns, ns[:100]])
        got = transforms._binomial_means_sparse(idx, av, 0.45, ns)
        ref = binomial_prefix(seq, 0.45, 5000).values
        np.testing.assert_array_equal(got, ref[ns])

    def test_growing_values_fall_back_bit_identically(self, monkeypatch):
        # 2**i grows faster than the masses fall past the window, so the
        # dropped tail times max |a_i| cannot be certified for most rows
        calls = count_sparse_fallbacks(monkeypatch)
        idx = np.arange(0, 1000, 3)
        av = 2.0**idx
        ns = np.arange(1001)
        got = transforms._binomial_means_sparse(idx, av, 0.3, ns)
        old, exact, scale = sparse_rows_old(idx, av, 0.3, ns)
        fallback = np.zeros(len(ns), dtype=bool)
        fallback[calls] = True
        assert fallback.sum() >= 500
        np.testing.assert_array_equal(got[fallback], old[fallback])
        assert np.all(np.abs(got[~fallback] - exact[~fallback]) <= 4 * EPS * scale[~fallback])

    def test_non_finite_value_reaches_only_later_rows(self):
        idx = np.arange(0, 401, 2)
        av = np.ones(len(idx))
        av[100] = math.inf  # index 200
        ns = np.arange(401)
        got = transforms._binomial_means_sparse(idx, av, 0.5, ns)
        old, exact, scale = sparse_rows_old(idx, av, 0.5, ns)
        assert np.all(np.abs(got[:200] - exact[:200]) <= 4 * EPS * scale[:200])
        assert np.isinf(got[200:]).all()
        np.testing.assert_array_equal(got[200:], old[200:])

    def test_islet_gap_rows_against_scipy(self, monkeypatch):
        # rows whose window falls in a gap between islets: only the nearest
        # islet and its 2**-64 extension carry them, without a fallback
        calls = count_sparse_fallbacks(monkeypatch)
        seq = sequence_from_spec(GeneratorSpec("islets"))
        got = binomial_prefix(seq, 0.5, 14_000).values
        assert calls == []
        gap = np.flatnonzero((got > 1e-300) & (got < 1e-200))
        assert len(gap) >= 500
        idx, av = seq.support(14_000)
        for n in gap[::25]:
            ref = sparse_binomial_scipy(idx, av, int(n), 0.5)
            assert abs(got[n] - ref) <= 1e-9 * ref

    def test_mean_at_uses_the_sparse_kernel(self, monkeypatch):
        calls = count_sparse_fallbacks(monkeypatch)
        spikes = sequence_from_spec(GeneratorSpec("spikes", C=1.0))
        islets = sequence_from_spec(GeneratorSpec("islets"))
        for seq in (spikes, islets):
            for n in (0, 1, 2, 77, 4**8 * 2, 2_000_001):
                idx, av = seq.support(n)
                old, exact, scale = sparse_rows_old(idx, av, 0.5, [n])
                assert abs(binomial_mean_at(seq, 0.5, n) - exact[0]) <= 4 * EPS * scale[0]
        assert calls == []


class TestCompose:
    def test_horizon_zero(self):
        assert compose_check(constant(3.0), 0.4, 0.6, 0) == 0.0

    def test_random_nonneg(self):
        rng = np.random.default_rng(7)
        seq = RealSequence.from_values(rng.random(201), nonneg=True)
        assert compose_check(seq, 0.3, 0.7, 200) <= 1e-10

    def test_signed_geometric_larger_magnitudes(self):
        seq = sequence_from_spec(GeneratorSpec("geometric", a=-3.0))
        assert compose_check(seq, 0.25, 0.5, 60) <= 1e-8

    @settings(deadline=None, max_examples=30)
    @given(
        values=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
        p=st.floats(0.05, 0.95),
        q=st.floats(0.05, 0.95),
    )
    def test_identity_random(self, values, p, q):
        seq = RealSequence.from_values(values, nonneg=True)
        assert compose_check(seq, p, q, len(values) - 1) <= 1e-11


class TestWeights:
    def test_left_endpoint(self):
        for n, p in [(10, 0.5), (50, 0.2), (300, 0.3)]:
            got = weights(n, p).weights[0]
            assert abs(got - (1.0 - (1.0 - p) ** (n + 1)) / p) <= 1e-12

    def test_right_endpoint_keeps_relative_accuracy(self):
        for n, p in [(5, 0.5), (50, 0.2), (300, 0.3)]:
            got = weights(n, p).weights[n]
            assert math.isclose(got, p**n, rel_tol=1e-12)

    def test_shape(self):
        for p in (0.1, 0.5, 0.9):
            w = weights(200, p).weights
            assert np.all(np.diff(w) <= 0.0)
            assert w.min() >= 0.0
            assert w.max() <= 1.0 / p

    def test_matches_double_sum_oracle(self):
        for n in (10, 50):
            for p in (0.2, 0.5, 0.8):
                got = weights(n, p).weights
                assert np.max(np.abs(got - weights_double_sum(n, p))) <= 1e-11

    def test_plateau_and_drop_at_n300(self):
        table = weights(300, 0.3)
        w = table.weights
        eps = epsilon(300)
        lo = max(0, math.floor(300 * 0.3 - eps))
        hi = math.floor(300 * 0.3 + eps)
        assert w[lo] >= 1.0 / 0.3 - 0.01
        assert w[hi] <= 0.01
        # frozen from the double-sum oracle: the drop passes 1e-4 at i = 123
        assert abs(w[120] - 3.5058466454693681e-04) <= 1e-11
        assert w[123] <= 1e-4

    def test_bad_params(self):
        with pytest.raises(ParameterDomainError):
            weights(-1, 0.5)
        with pytest.raises(ParameterDomainError):
            weights(10, 0.0)


class TestEpsilon:
    def test_values(self):
        assert epsilon(0) == 1.0
        assert epsilon(1) == 1.0
        assert math.isclose(epsilon(2), math.sqrt(2.0) * math.log(2.0), rel_tol=1e-15)
        assert math.isclose(epsilon(10_000), 100.0 * math.log(10_000.0), rel_tol=1e-15)
        with pytest.raises(ParameterDomainError):
            epsilon(-1)


class TestPstar:
    def test_identity_on_constants(self):
        got = pstar_prefix(constant(2.5), 0.4, 300).values
        np.testing.assert_allclose(got, 2.5, rtol=1e-12)

    def test_unit_impulse(self):
        seq = RealSequence.from_values([1.0] + [0.0] * 200)
        got = pstar_prefix(seq, 0.5, 200).values
        n = np.arange(201, dtype=float)
        expected = (2.0 - 0.5**n) / (n + 1.0)
        assert np.max(np.abs(got - expected)) <= 1e-13

    def test_weight_representation(self):
        # pstar at n equals the weighted average of the source terms
        rng = np.random.default_rng(11)
        values = rng.random(51)
        seq = RealSequence.from_values(values)
        n, p = 50, 0.4
        got = pstar_prefix(seq, p, n).values[n]
        expected = float(weights(n, p).weights @ values) / (n + 1)
        assert abs(got - expected) <= 1e-12

    def test_dominated_by_scaled_cesaro_for_nonneg(self):
        for fam in ("alternating01", "islets"):
            seq = sequence_from_spec(GeneratorSpec(fam))
            for p in (0.3, 0.7):
                ps = pstar_prefix(seq, p, 500).values
                ce = cesaro_prefix(seq, 500).values
                assert np.all(ps <= ce / p + 1e-12)


class TestSplit:
    def test_constant_means(self):
        seq = constant(1.0, 1001)
        for n in (10, 100, 1000):
            parts = split_xyz(seq, 0.5, n)
            assert abs(parts.total_mean - 1.0) <= 1e-12

    def test_alternating_matches_pstar(self):
        seq = sequence_from_spec(GeneratorSpec("alternating01"))
        parts = split_xyz(seq, 0.3, 300)
        ref = pstar_prefix(seq, 0.3, 300).values[300]
        assert abs(parts.total_mean - ref) <= 1e-10 * abs(ref)

    def test_small_n_clamps_to_empty_head(self):
        parts = split_xyz(constant(1.0, 10), 0.3, 5)
        assert parts.x == 0.0
        assert abs(parts.total_mean - 1.0) <= 1e-12

    def test_blocks_cover_everything_once(self):
        seq = sequence_from_spec(GeneratorSpec("signed_linear"))
        for n in (0, 1, 2, 7, 40, 333):
            for p in (0.1, 0.5, 0.9):
                parts = split_xyz(seq, p, n)
                whole = float(weights(n, p).weights @ seq.prefix(n))
                assert abs((parts.x + parts.y + parts.z) - whole) <= 1e-9 * (1 + abs(whole))

    def test_signed_source_mixed_tolerance(self):
        # signed sums leave a near-zero reference; agreement is relative with
        # an absolute floor at double-precision cancellation noise
        seq = sequence_from_spec(GeneratorSpec("signed_linear"))
        for p in (0.3, 0.5, 0.7):
            for n in (10, 100, 1000):
                parts = split_xyz(seq, p, n)
                ref = pstar_prefix(seq, p, n).values[n]
                assert abs(parts.total_mean - ref) <= max(1e-10 * abs(ref), 2e-13)


class TestSameLimitEmpirically:
    def test_cesaro_and_binomial_agree_on_convergent_input(self):
        seq = sequence_from_spec(GeneratorSpec("geometric", a=0.5))
        ce = estimate_limit(cesaro_prefix(seq, 3000).values)
        bi = estimate_limit(binomial_prefix(seq, 0.4, 3000).values)
        assert ce.status == "converged" and bi.status == "converged"
        assert abs(ce.value - bi.value) <= 1e-3
