import hashlib
import math
import resource
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    probe_open_problem,
    pstar_prefix,
    sequence_from_spec,
    split_xyz,
    weights,
)
from summakit import transforms
from summakit.sequences import islet_ranges, spike_indices
from summakit.binomial_kernel import _mode, _row_mass, _window_halfwidth, log_pmf_many

from oracles import (
    binomial_run_numerator,
    geometric_binomial_errors,
    pmf_row_exact_doubles,
    sparse_binomial_exact,
    sparse_binomial_scipy,
    weights_double_sum,
)

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
            support=lambda h: (np.array([1, 3]), np.array([2.0, -1.0])), nonneg=True
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

    @pytest.mark.parametrize(
        "indices, size, problem",
        [
            ([3, 1, 5], 3, "not strictly increasing"),
            ([1, 3, 3, 5], 4, "not strictly increasing"),
            ([-1, 3, 5], 3, "negative"),
            ([1, 5.7], 2, "not an integer"),
            ([1.0, math.nan], 2, "not an integer"),
            ([1.0, math.inf], 2, "not an integer"),
            ([1, 3, 5], 2, "not one value per index"),
            ([1, 3], 3, "not one value per index"),
        ],
    )
    def test_support_rule_checked(self, indices, size, problem):
        # unsorted indices used to raise a raw IndexError, a negative one was
        # dropped, a repeated one weighted twice and 5.7 read as 5; a value
        # short raised a raw IndexError, a value over was dropped
        seq = RealSequence.from_function(
            support=lambda h: (np.array(indices), np.ones(size)), name="bad rule"
        )
        for call in (
            lambda: seq.support(10),
            lambda: binomial_prefix(seq, 0.5, 10),
            lambda: binomial_mean_at(seq, 0.5, 4),
            lambda: binomial_mean_at(seq, 0.5, np.array([4, 9])),
        ):
            with pytest.raises(ParameterDomainError, match=f"'bad rule'.*{problem}"):
                call()

    @pytest.mark.parametrize(
        "rule, shape",
        [
            (lambda h: np.ones(h), r"\(5,\)"),
            (lambda h: np.ones(h + 2), r"\(7,\)"),
            (lambda h: np.ones((h + 1, 1)), r"\(6, 1\)"),
            (lambda h: 1.0, r"\(\)"),
        ],
    )
    def test_prefix_rule_length_checked(self, rule, shape):
        # a rule one term short gave prefix and cesaro_prefix 5 values, a raw
        # IndexError from binomial_prefix, a raw ValueError from the scalar
        # query and [nan] from the array query
        seq = RealSequence.from_function(prefix=rule, name="bad rule")
        for call in (
            lambda: seq.prefix(5),
            lambda: cesaro_prefix(seq, 5),
            lambda: binomial_prefix(seq, 0.5, 5),
            lambda: binomial_mean_at(seq, 0.5, 5),
            lambda: binomial_mean_at(seq, 0.5, np.array([5])),
        ):
            with pytest.raises(ParameterDomainError, match=f"'bad rule'.*shape {shape}.*5"):
                call()

    def test_integer_valued_float_indices_accepted(self):
        floats = RealSequence.from_function(
            support=lambda h: (np.array([1.0, 3.0]), np.array([2.0, -1.0]))
        )
        ints = sparse_sequence([1, 3], [2.0, -1.0], "ints")
        idx, vals = floats.support(4)
        assert idx.dtype == np.int64 and idx.tolist() == [1, 3]
        got = binomial_prefix(floats, 0.3, 10).values
        assert got.tobytes() == binomial_prefix(ints, 0.3, 10).values.tobytes()
        assert binomial_mean_at(floats, 0.3, 7) == got[7]


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


def full_row_exact(values, p, ns=None):
    """Full-row means summed exactly (math.fsum), with sum_i B(n,i,p) |a_i|,
    at the rows ns (every row by default).  Zero terms add nothing to an
    exact sum, so only the nonzero ones are summed."""
    nonzero = np.flatnonzero(values)
    means, scales = [], []
    for n in range(len(values)) if ns is None else ns:
        if n == 0:
            means.append(values[0])
            scales.append(abs(values[0]))
            continue
        keep = nonzero[: np.searchsorted(nonzero, n, side="right")]
        row = _row_mass(int(n), p)[keep]
        means.append(math.fsum(row * values[keep]))
        scales.append(math.fsum(row * np.abs(values[keep])))
    return np.array(means), np.array(scales)


def count_full_rows(monkeypatch):
    """Record the n of every full PMF row the dense kernel falls back to."""
    calls = []

    def counted(n, p):
        calls.append(n)
        return _row_mass(n, p)

    monkeypatch.setattr(transforms, "_row_mass", counted)
    return calls


def first_pass(ns, p, half):
    """Which windowed rows of a _block call are on their first window, W
    rounded up to a multiple of 16, and not weighted again wider."""
    return half <= np.ceil(_window_halfwidth(ns.astype(float), p) / 16.0) * 16.0


def asked(n0, peak):
    """The rows n0 + j of split blocks that were asked for: they hold their
    peak (> 0 in the tests that record them), the others 0."""
    b, j = np.nonzero(peak > 0)
    return (n0[b] + j).astype(np.int64), b, j


def count_widened(monkeypatch):
    """Record the n of every row the windowed kernel (a _block call with no
    triangle) weights again over a wider window than its first, once per
    widening pass."""
    rows = []
    block = transforms._block

    def counted(buffer, first, n0, p, half, peak, triangle=None, *rest):
        if triangle is None:
            rows.extend(n0[~first_pass(n0, p, half)].astype(np.int64).tolist())
        return block(buffer, first, n0, p, half, peak, triangle, *rest)

    monkeypatch.setattr(transforms, "_block", counted)
    return rows


class TestWindowedKernel:
    # The reference is the per-row _row_mass dot summed exactly: the BLAS dot
    # of a full row carries a few eps of summation error of its own.  The
    # _row_mass masses carry a few eps too, so a row that misses the bound
    # against them is checked again against exact-rational masses (too slow
    # for every row: up to 5 s per example at horizon 400).
    @settings(deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        horizon=st.integers(0, 400),
        p=st.floats(0.01, 0.99),
        signed=st.booleans(),
    )
    # row 158: 4.10 eps from the _row_mass reference, 1.54 eps from the exact one
    @example(seed=100, horizon=197, p=0.9261417986492599, signed=False)
    def test_matches_full_rows(self, seed, horizon, p, signed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1.0 if signed else 0.0, 1.0, horizon + 1)
        got = binomial_prefix(RealSequence.from_values(values), p, horizon).values
        ref, scale = full_row_exact(values, p)
        for n in np.flatnonzero(np.abs(got - ref) > 4 * EPS * scale):
            exact = math.fsum(pmf_row_exact_doubles(int(n), p) * values[: n + 1])
            assert abs(got[n] - exact) <= 4 * EPS * scale[n]

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
        # (-3)**n overflows at n = 647 (to -inf), so row 647 cannot certify
        # and is weighted over [0, n] at once; from row 648 on both
        # infinities are present and the rows are NaN without being built.
        # Earlier rows certify in their first window only while the tail it
        # drops, times 3**n, stays below 2**-53 of (1 + 2p)**n; the others
        # widen.  No row takes a full PMF row, and a widened row gives the
        # same bits in a prefix, an array call and a scalar call.
        calls = count_full_rows(monkeypatch)
        widened = count_widened(monkeypatch)
        with np.errstate(over="ignore"):
            values = (-3.0) ** np.arange(2001.0)
        seq = RealSequence.from_values(values)
        for p in (0.25, 0.6):
            del widened[:]
            got = binomial_prefix(seq, p, 2000).values
            rows = np.unique(widened)
            assert rows.max() == 647 and len(rows) >= 100
            ref = full_row_loop(values, p)
            assert not np.isfinite(got[647]) and not np.isfinite(ref[647])
            assert np.isnan(got[648:]).all() and np.isnan(ref[648:]).all()
            finite = np.arange(647)
            scale = (1.0 + 2.0 * p) ** finite
            assert np.all(np.abs(got[finite] - ref[finite]) <= 4 * EPS * scale)
            array = binomial_mean_at(seq, p, rows[::-1])[::-1]
            scalar = np.array([binomial_mean_at(seq, p, int(n)) for n in rows])
            assert array.tobytes() == got[rows].tobytes() == scalar.tobytes()
        assert calls == []

    def test_non_finite_term_reaches_only_later_rows(self, monkeypatch):
        # the rows holding the inf cannot certify (their peak is inf), but
        # at n = 150, p = 0.5 their first window (75 +- 96) already spans
        # [0, n] and drops nothing, so their values are final: no row widens
        calls = count_full_rows(monkeypatch)
        widened = count_widened(monkeypatch)
        values = np.concatenate([np.ones(150), [math.inf, 1.0]])
        got = binomial_prefix(RealSequence.from_values(values), 0.5, 151).values
        assert np.all(np.abs(got[:150] - 1.0) <= 4 * EPS)
        assert widened == [] and calls == []
        assert np.isinf(got[150]) and np.isinf(got[151])

    def test_undeclared_tilt_takes_the_fallback(self, monkeypatch):
        # a**n as an explicit vector declares no ratio: its rows miss the
        # window at n p and widen it, as for any explicit sequence
        calls = count_full_rows(monkeypatch)
        widened = count_widened(monkeypatch)
        seq = RealSequence.from_values(0.3 ** np.arange(1001.0), nonneg=True)
        for p in (0.3, 0.7):
            del widened[:]
            got = binomial_prefix(seq, p, 1000).values
            # a > 0, so the closed form is also sum_i B(n,i,p) |a_i|
            expected = (p * (0.3 - 1.0) + 1.0) ** np.arange(1001, dtype=float)
            assert np.all(np.abs(got - expected) <= 1e-12 * expected)
            assert 1000 in widened and len(set(widened)) >= 500
        assert calls == []

    def test_mean_at_uses_the_windowed_kernel(self, monkeypatch):
        calls = count_full_rows(monkeypatch)
        seq = sequence_from_spec(GeneratorSpec("alternating01"))
        for n in (1, 2, 17, 5000, 200_001):
            for p in (0.2, 0.5):
                expected = (1.0 + (1.0 - 2.0 * p) ** n) / 2.0
                assert abs(binomial_mean_at(seq, p, n) - expected) <= 4 * EPS
        assert calls == []
        # geometric a = 0.5 takes its closed form
        geo = sequence_from_spec(GeneratorSpec("geometric", a=0.5))
        got = binomial_mean_at(geo, 0.4, 3000)
        assert calls == []
        _, rel = geometric_binomial_errors(0.5, 0.4, [got], [3000])
        assert rel[0] <= 4 * EPS
        # the same terms as an explicit vector widen their window
        widened = count_widened(monkeypatch)
        explicit = RealSequence.from_values(geo.prefix(3000))
        assert binomial_mean_at(explicit, 0.4, 3000) == pytest.approx(got, rel=1e-12)
        assert 3000 in widened and calls == []

    def test_mean_at_matches_prefix(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(-1.0, 1.0, 1201)
        seq = RealSequence.from_values(values)
        prefix = binomial_prefix(seq, 0.45, 1200).values
        ref, scale = full_row_exact(values, 0.45)
        for n in (0, 1, 150, 700, 1200):
            got = binomial_mean_at(seq, 0.45, n)
            assert abs(got - ref[n]) <= 4 * EPS * scale[n]
            assert got == prefix[n]


    @pytest.mark.parametrize("p", [0.25, 0.6, 0.9])
    def test_certain_nan_rows_match_full_rows(self, monkeypatch, p):
        # (-3)**n overflows at n = 647; every later row holds both
        # infinities and is NaN without being built
        calls = count_full_rows(monkeypatch)
        widened = count_widened(monkeypatch)
        with np.errstate(over="ignore"):
            seq = RealSequence.from_values((-3.0) ** np.arange(4001.0))
        got = binomial_prefix(seq, p, 4000).values
        ref = full_row_loop(seq.prefix(4000), p)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(ref))
        assert np.isnan(got[648:]).all() and max(widened) == 647 and calls == []

    def test_nan_term_skips_later_rows(self, monkeypatch):
        calls = count_full_rows(monkeypatch)
        values = np.ones(301)
        values[200] = math.nan
        got = binomial_prefix(RealSequence.from_values(values), 0.4, 300).values
        assert np.all(np.abs(got[:200] - 1.0) <= 4 * EPS)
        assert np.isnan(got[200:]).all() and calls == []


TINY = np.finfo(float).tiny  # the smallest normal double
SUBNORMAL = 2.0**-1074  # the smallest subnormal double


def scaled_errors(a, p, got, ns=None):
    """Exact errors of binomial means of a**n (see geometric_binomial_errors),
    with the mask of rows whose sum B |a| = (p|a| + q)**n is a normal double."""
    err, rel = geometric_binomial_errors(a, p, got, ns)
    ns = np.arange(len(got)) if ns is None else np.asarray(ns)
    normal = ns * math.log(p * abs(a) + 1.0 - p) > math.log(TINY) + 1e-9
    return err, rel, normal


OVERFLOW = 2**1024 - 2**970  # the least real that rounds to inf


def closed_form_units(a, p, ns, got):
    """Errors of got[j] against the exact (1 - p + p a)**n, n = ns[j], with p
    and a at their binary values: relative, in units of 2**-52, where the
    power is at least the smallest normal double; absolute, in units of
    2**-1074, below it; 0 where it rounds to +-inf and got[j] is that
    infinity; inf for any other non-finite got[j].

    The base is big / 2**k, an integer over a power of two, so every row is
    done in integer arithmetic."""
    r = 1 - Fraction(p) + Fraction(p) * Fraction(a)
    k = r.denominator.bit_length() - 1
    big = r.numerator
    units = np.full(len(got), math.inf)
    prev, power = 0, 1  # power = big**n: r**n = power / 2**(k n)
    for j in np.argsort(ns, kind="stable"):
        n, v = int(ns[j]), float(got[j])
        power *= big ** (n - prev)
        prev = n
        scale, bits = k * n, power.bit_length()  # 2**(bits-1) <= |power| < 2**bits
        if bits > scale + 1024 or (bits == scale + 1024 and abs(power) >= OVERFLOW << scale):
            units[j] = 0.0 if v == (math.inf if power > 0 else -math.inf) else math.inf
        elif bits < scale - 1076:  # |r**n| < 2**-1076 rounds to 0
            units[j] = math.ldexp(abs(v), 1074) if math.isfinite(v) else math.inf
        elif math.isfinite(v):
            num, den = v.as_integer_ratio()
            g = den.bit_length() - 1  # v = num / 2**g
            diff = abs((num << scale) - (power << g))
            if power and bits > scale - 1022:
                units[j] = (diff << 52) / (abs(power) << g)
            else:
                units[j] = (diff << 1074) / (1 << (g + scale))
    return units


class TestGeometricMeans:
    """geometric a**n takes its closed form (q + p a)**n: the base as a
    double-double, raised by power_dd.  Bounds are against exact rationals:
    within 2**-52 relative where the power is a normal double and within
    one 2**-1074 below it, +-inf with the sign of (q + p a)**n where it
    overflows, and never NaN."""

    RATIOS = [-3.0, -1.5, -1.0, -0.7, -1e-3, -0.0, 0.0, 5e-324, 0.5, 1.0, 1.5,
              1e308, -1e308, 2.0**1000, -(2.0**1000)]
    # 0.25 makes 1 - p + p a exactly 0 at a = -3 and 0.5 at a = -1; at
    # a = -1.5, 0.4 (a double just above 2/5) leaves a base of about -2**-54
    PROBS = [2.0**-60, 1e-9, 0.25, 0.4, 0.5, 0.97, 1.0 - 2.0**-53]

    @pytest.mark.parametrize("a", RATIOS)
    def test_grid_matches_exact_rationals(self, monkeypatch, a):
        calls = count_full_rows(monkeypatch)
        seq = RealSequence.geometric(a)
        ns = np.array([1000, 0, 700, 1, 3, 200, 700])
        for p in self.PROBS:
            prefix = binomial_prefix(seq, p, 200).values
            batch = binomial_mean_at(seq, p, ns)
            scalar = np.array([binomial_mean_at(seq, p, int(n)) for n in ns])
            assert not np.isnan(prefix).any() and not np.isnan(batch).any()
            assert batch.tobytes() == scalar.tobytes()
            assert batch[ns <= 200].tobytes() == prefix[ns[ns <= 200]].tobytes()
            assert prefix[0] == 1.0
            assert closed_form_units(a, p, np.arange(201), prefix).max() <= 1.0, p
            assert closed_form_units(a, p, ns, batch).max() <= 1.0, p
        assert calls == []

    def test_overflow_and_underflow_keep_their_sign(self):
        # 1 - 0.97 * 4 = -2.88: +-inf from n = 672 on, alternating
        got = binomial_prefix(RealSequence.geometric(-3.0), 0.97, 700).values
        n = np.arange(701)
        assert np.isinf(got[672:]).all() and np.isfinite(got[:672]).all()
        np.testing.assert_array_equal(np.sign(got), np.where(n % 2, -1.0, 1.0))
        # 1 - p + p a = -0.001 + 2**-53 (1 + 0.001): 0 from n = 108 on, its
        # sign alternating too
        got = binomial_prefix(RealSequence.geometric(-1e-3), 1.0 - 2.0**-53, 200).values
        assert (got[108:] == 0.0).all() and (got[:108] != 0.0).all()
        np.testing.assert_array_equal(np.signbit(got), n[:201] % 2 == 1)
        # p a overflows the split of a plain TwoProduct: 5e307 at n = 1
        assert binomial_mean_at(RealSequence.geometric(1e308), 0.5, 1) == 5e307
        assert binomial_mean_at(RealSequence.geometric(-1e308), 0.5, 3) == -math.inf

    def test_zero_base(self):
        got = binomial_prefix(RealSequence.geometric(-3.0), 0.25, 50).values
        assert got[0] == 1.0 and (got[1:] == 0.0).all()

    @settings(deadline=None, max_examples=40)
    @given(a=st.floats(-4.0, 4.0), p=st.floats(0.01, 0.99), horizon=st.integers(0, 400))
    # row 12 was once 4.8 eps off, through a dense kernel at p' = 0.984
    @example(a=-0.75, p=0.98828125, horizon=12)
    def test_matches_exact_rationals(self, a, p, horizon):
        got = binomial_prefix(sequence_from_spec(GeneratorSpec("geometric", a=a)), p, horizon)
        assert closed_form_units(a, p, np.arange(horizon + 1), got.values).max() <= 1.0

    @pytest.mark.parametrize("p", [0.3, 0.6])
    @pytest.mark.parametrize("a", [0.5, 0.9, 0.99, -0.5])
    def test_long_prefixes_within_4_eps(self, a, p):
        # the full-row fallback of an explicit a**n drifted to 33-69 eps here
        got = binomial_prefix(sequence_from_spec(GeneratorSpec("geometric", a=a)), p, 3000)
        err, rel, normal = scaled_errors(a, p, got.values)
        assert np.all(rel[normal] <= 4 * EPS)
        assert np.all(err[~normal] <= SUBNORMAL)

    def test_underflow_no_worse_than_full_rows(self):
        # (0.5 * 0.9 + 0.1)**n = 0.55**n is subnormal from n = 1185 on.
        # There the values are within one 2**-1074 of the exact rational;
        # full PMF rows are up to 12 of them off.
        seq = sequence_from_spec(GeneratorSpec("geometric", a=0.5))
        got = binomial_prefix(seq, 0.9, 4000).values
        err, rel, normal = scaled_errors(0.5, 0.9, got)
        assert np.argmin(normal) == 1185 and not normal[1185:].any()
        assert np.all(rel[normal] <= 4 * EPS)
        assert np.all(err[~normal] <= SUBNORMAL)
        full_err, _ = geometric_binomial_errors(0.5, 0.9, full_row_loop(seq.prefix(4000), 0.9))
        assert err[~normal].max() <= full_err[~normal].max()

    def test_lone_point_query_builds_nothing_of_size_n(self):
        tracemalloc.start()
        try:
            got = binomial_mean_at(RealSequence.geometric(0.5), 0.3, 10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == 0.0 and peak < 2**20

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_non_finite_ratio_rejected(self, a):
        with pytest.raises(ParameterDomainError, match="ratio"):
            RealSequence.geometric(a)

    def test_prefix_rule(self):
        seq = RealSequence.geometric(-0.0)
        assert seq.prefix(3).tobytes() == np.array([1.0, -0.0, 0.0, -0.0]).tobytes()
        assert seq.nonneg and not RealSequence.geometric(-1.5).nonneg

    def test_bits_pinned(self):
        # SHA-256 of prefixes and point values (NaNs canonicalised).
        # geometric(a=1) and the explicit vectors are pinned from before
        # geometric means took their closed form; geometric(a=-3, -1, 0)
        # were re-pinned then, every moved value within 2**-52 relative of
        # its exact rational where that is a normal double and within one
        # 2**-1074 below.  explicit 0.5**n was re-pinned when rows its first
        # window rejects widened instead of taking a full PMF row: 1132 values
        # moved at p = 0.3 (worst error against the exact (1 - p/2)**n
        # 2.38e-14 -> 2.39e-14 relative) and 1245 at p = 0.6 (1.18e-13 ->
        # 1.09e-14).  Both explicit vectors were re-pinned when dense rows
        # came to be split (one mass row per block of _SPLIT rows): uniform
        # moved 1447 values at p = 0.3 and 1472 at 0.6, each by at most one
        # ulp, and on 54 rows each against exact rationals the worst error
        # went from 1.69 to 1.56 eps of sum B |a| at p = 0.3 and from 0.41
        # to 0.49 at 0.6; 0.5**n moved its rows up to 318 (227) and 239
        # (153) whose split certifies, worst relative error among them
        # 3.61e-15 -> 3.68e-15 and 8.9e-16 -> 9.8e-16, the rows' worst
        # overall unchanged (2.45e-14, 5.76e-15)
        expected = {
            "geometric(a=-3)": "ec62d210bd8c3904",
            "geometric(a=-1)": "fb7a88184f0012fd",
            "geometric(a=0)": "c8ef9286565bb43a",
            "geometric(a=1)": "0cdddae4893f8097",
            "explicit uniform": "45c1afb5236d9b45",
            "explicit 0.5**n": "5c2d810a43dbb13f",
        }
        rng = np.random.default_rng(2024)
        seqs = {
            f"geometric(a={a:g})": sequence_from_spec(GeneratorSpec("geometric", a=a))
            for a in (-3.0, -1.0, 0.0, 1.0)
        }
        seqs["explicit uniform"] = RealSequence.from_values(rng.uniform(-1, 1, 2001))
        seqs["explicit 0.5**n"] = RealSequence.from_values(0.5 ** np.arange(2001.0))
        ns = np.array([0, 1, 17, 648, 999, 2000, 1500, 3])

        def bits(v):
            v = np.asarray(v, dtype=float)
            return np.where(np.isnan(v), np.nan, v).tobytes()

        for name, seq in seqs.items():
            digest = hashlib.sha256()
            with np.errstate(over="ignore", invalid="ignore"):
                for p in (0.3, 0.6):
                    digest.update(bits(binomial_prefix(seq, p, 2000).values))
                    digest.update(bits(binomial_mean_at(seq, p, ns)))
                    digest.update(bits([binomial_mean_at(seq, p, int(n)) for n in ns]))
            assert digest.hexdigest()[:16] == expected[name], name


def count_sparse_fallbacks(monkeypatch):
    """Record the n of every row the sparse kernel sums over its whole support."""
    calls = []
    whole = transforms._whole_support_mean

    def counted(idx, av, p, n, k, *table):
        calls.append(n)
        return whole(idx, av, p, n, k, *table)

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


def count_routed(monkeypatch):
    """Record the n of every row that is split (asked for of a _block call
    with a triangle) or reaches _block as a windowed row on its first
    window: the rows weighted by the ratio-product kernel, split,
    certified or widened.  A split row the split does not certify is
    recorded twice."""
    routed = []
    block = transforms._block

    def counted(buffer, first, n0, p, half, peak, triangle=None, *rest):
        if triangle is None:
            routed.extend(n0[first_pass(n0, p, half)].astype(np.int64).tolist())
        else:
            routed.extend(asked(n0, peak)[0].tolist())
        return block(buffer, first, n0, p, half, peak, triangle, *rest)

    monkeypatch.setattr(transforms, "_block", counted)
    return routed


def count_terms(monkeypatch):
    """Record the number of terms of every log_pmf_many call of transforms."""
    terms = []
    kernel = transforms.log_pmf_many

    def counted(n, p, indices, **kwargs):
        terms.append(np.size(indices))
        return kernel(n, p, indices, **kwargs)

    monkeypatch.setattr(transforms, "log_pmf_many", counted)
    return terms


def routed_by_rule(seq, p, ns):
    """Which rows of ns the windowed kernel weights, counted on the dense
    prefix: n >= 1 and support on at least a quarter of the window m +- W's
    indices inside [0, n]."""
    ns = np.asarray(ns)
    m, half = _mode(ns.astype(float), p), _window_halfwidth(ns.astype(float), p)
    lo = np.maximum(m - half, 0).astype(np.int64)
    hi = np.minimum(m + half, ns).astype(np.int64)
    ones = np.concatenate([[0], np.cumsum(seq.prefix(int(ns.max())) != 0)])
    return (ns > 0) & (4 * (ones[hi + 1] - ones[lo]) >= hi - lo + 1)


def sparse_reference(idx, av, p, ns, routed, split=()):
    """sparse_rows_old, except that a routed row's exact sums come from the
    zero-filled prefix by routed_reference (split: count_split's records,
    if kept), the reference of the ratio-product kernel, not from
    log-space masses."""
    ns = np.asarray(ns)
    old, exact, scale = sparse_rows_old(idx, av, p, ns)
    dense = np.isin(ns, routed)
    if dense.any():
        values = np.zeros(ns.max() + 1)
        keep = idx <= ns.max()
        values[idx[keep]] = av[keep]
        exact[dense], scale[dense] = routed_reference(values, p, ns[dense], split)
    return old, exact, scale


@st.composite
def sparse_supports(draw, specials=()):
    """Sorted supports made of islands (possibly none, possibly at index 0)
    separated by gaps of any length, with bounded values, up to six of them
    replaced by values drawn from specials."""
    horizon = draw(st.integers(0, 2000))
    islands = draw(
        st.lists(st.tuples(st.integers(0, 2200), st.integers(1, 80)), min_size=0, max_size=5)
    )
    idx = sorted({i for start, length in islands for i in range(start, start + length)})
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    signed = draw(st.booleans())
    av = rng.uniform(-1.0 if signed else 0.0, 1.0, len(idx))
    if specials and idx:
        spots = st.tuples(st.integers(0, len(idx) - 1), st.sampled_from(specials))
        for i, value in draw(st.lists(spots, max_size=6)):
            av[i] = value
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
            routed = count_routed(mp)
            split = count_split(mp)
            got = transforms._binomial_means_sparse(idx, av, p, ns)
        old, exact, scale = sparse_reference(idx, av, p, ns, routed, split)
        fallback = np.zeros(len(ns), dtype=bool)
        fallback[calls] = True
        np.testing.assert_array_equal(got[fallback], old[fallback])
        kept = ~fallback
        assert np.all(np.abs(got[kept] - exact[kept]) <= 4 * EPS * scale[kept])

    @settings(deadline=None, max_examples=80)
    @given(
        support=sparse_supports(specials=(-0.0, math.inf, -math.inf, math.nan, 1e308, -1e308)),
        p=st.floats(0.01, 0.99),
    )
    def test_nan_rows_start_at_the_first_nan_or_infinity_pair(self, support, p):
        # the running extrema gate every row: rows from the first support
        # index whose prefix holds a NaN, or both a +inf and a -inf, are NaN
        # and not built, every row before it is built with the exact
        # max |a_i| as its peak, and +-1e308 must not read as a pair
        horizon, idx, av = support
        nan_from = inf_from = horizon + 1
        signs = set()
        for i, value in zip(idx.tolist(), av.tolist()):
            if inf_from > horizon and not math.isfinite(value):
                inf_from = i
            if math.isinf(value):
                signs.add(value)
            if math.isnan(value) or len(signs) == 2:
                nan_from = min(i, nan_from)
                break
        gated = int(np.searchsorted(idx, nan_from))
        built = []
        with pytest.MonkeyPatch.context() as mp:
            rows = transforms._sparse_rows

            def recorded(idx, av, peak, p, ns, *table):
                built.extend(ns.tolist())
                running = np.maximum.accumulate(np.abs(av[:gated]))
                np.testing.assert_array_equal(peak[:gated], running)
                return rows(idx, av, peak, p, ns, *table)

            mp.setattr(transforms, "_sparse_rows", recorded)
            got = transforms._binomial_means_sparse(idx, av, p, np.arange(horizon + 1))
        assert sorted(built) == list(range(1, nan_from))
        assert np.isnan(got[nan_from:]).all()
        if len(idx) and idx[0] == 0 and nan_from > 0:
            assert got[0].tobytes() == av[0].tobytes()
        # rows whose terms are all finite, +-1e308 included, are finite
        assert np.isfinite(got[:inf_from]).all()

    @pytest.mark.parametrize("p", [0.01, 0.5, 0.99])
    def test_huge_finite_terms_do_not_overflow(self, p):
        # the windowed sums of terms near the top of the double range used
        # to overflow before their division (+inf for 1e308 everywhere, NaN
        # for random signs); those rows are weighted at a power of two, and
        # a mean so weighted is held within its peak (means of DBL_MAX
        # rounded past it, to +inf, when scaled back)
        rng = np.random.default_rng(3)
        ns = np.array([1, 7, 400, 1000])
        top = np.finfo(float).max
        for values in (np.full(1001, 1e308), np.full(1001, top),
                       rng.choice([-1e308, 1e308], 1001)):
            peak = float(np.abs(values).max())
            seq = RealSequence.from_values(values)
            got = binomial_prefix(seq, p, 1000).values
            assert np.isfinite(got).all() and (np.abs(got) <= peak).all()
            assert binomial_mean_at(seq, p, ns).tobytes() == got[ns].tobytes()
            lone = np.array([binomial_mean_at(seq, p, int(n)) for n in ns])
            assert lone.tobytes() == got[ns].tobytes()
            for n in ns.tolist():  # every |a_i| is the peak: so is sum B |a|
                exact = sparse_binomial_exact(range(n + 1), values, n, p)
                assert abs(Fraction(got[n]) - exact) <= 4 * EPS * peak

    def test_bits_do_not_depend_on_block_sizes(self, monkeypatch):
        # a log-space row's terms, sums and certificate are its own: the
        # blocks of rows and of terms that carry it leave its bits alone
        spikes = sequence_from_spec(GeneratorSpec("spikes", C=1.0))
        islets = sequence_from_spec(GeneratorSpec("islets"))
        ns = np.random.default_rng(6).integers(1, 2_000_000, 40)
        ns = np.concatenate([ns, ns[:10], [0, 1, 2, 1]])

        def bits():
            return [binomial_prefix(spikes, 0.3, 4000).values.tobytes(),
                    binomial_prefix(islets, 0.6, 3000).values.tobytes(),
                    binomial_mean_at(spikes, 0.45, ns).tobytes()]

        expected = bits()
        for rows in (7, 64, transforms._BLOCK_ROWS):
            for terms in (64, transforms._BLOCK_TERMS):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(transforms, "_BLOCK_ROWS", rows)
                    mp.setattr(transforms, "_BLOCK_TERMS", terms)
                    assert bits() == expected, (rows, terms)

    def test_negated_spikes_give_negated_means(self):
        # a one-signed support certifies a row with |mean| as its sum B |a|,
        # which it is bit for bit, so spikes of height -sqrt(i) give the
        # negated means (and 0 where they are 0)
        ns = np.random.default_rng(7).integers(1, 2_000_000, 30)
        up, down = (sequence_from_spec(GeneratorSpec("spikes", C=1.0, height_scale=s))
                    for s in (1.0, -1.0))
        for p in (0.3, 0.7):
            np.testing.assert_array_equal(binomial_prefix(down, p, 6000).values,
                                          -binomial_prefix(up, p, 6000).values)
            np.testing.assert_array_equal(binomial_mean_at(down, p, ns), -binomial_mean_at(up, p, ns))

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
        # dropped tail times max |a_i| cannot be certified for most rows.
        # Every row n >= 1 is routed (a third of each window is support),
        # so those rows widen their window instead of summing the whole
        # support, and a widened row gives the same bits in any batch.
        calls = count_sparse_fallbacks(monkeypatch)
        widened = count_widened(monkeypatch)
        split = count_split(monkeypatch)
        idx = np.arange(0, 1000, 3)
        av = 2.0**idx
        ns = np.arange(1001)
        got = transforms._binomial_means_sparse(idx, av, 0.3, ns)
        rows = np.unique(widened)
        assert len(rows) >= 500 and calls == []
        values = np.zeros(1001)
        values[idx] = av
        ref, scale = routed_reference(values, 0.3, ns, split)
        assert np.all(np.abs(got - ref) <= 4 * EPS * scale)
        shuffled = np.random.default_rng(4).permutation(np.concatenate([rows, rows[::5]]))
        batch = transforms._binomial_means_sparse(idx, av, 0.3, shuffled)
        assert batch.tobytes() == got[shuffled].tobytes()
        scalar = [transforms._binomial_means_sparse(idx, av, 0.3, [n])[0] for n in rows[::7]]
        assert np.array(scalar).tobytes() == got[rows[::7]].tobytes()

    def test_non_finite_value_reaches_only_later_rows(self, monkeypatch):
        routed = count_routed(monkeypatch)
        idx = np.arange(0, 401, 2)
        av = np.ones(len(idx))
        av[100] = math.inf  # index 200
        ns = np.arange(401)
        got = transforms._binomial_means_sparse(idx, av, 0.5, ns)
        # half the indices are support: every row n >= 1 is routed, and the
        # rows holding the inf widen to [0, n] and are final there
        assert sorted(routed) == list(range(1, 401))
        finite = [n for n in routed if n < 200]
        old, exact, scale = sparse_reference(idx, av, 0.5, ns, finite)
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
        routed = count_routed(monkeypatch)
        spikes = sequence_from_spec(GeneratorSpec("spikes", C=1.0))
        islets = sequence_from_spec(GeneratorSpec("islets"))
        for seq in (spikes, islets):
            for n in (0, 1, 2, 77, 4**8 * 2, 2_000_001):
                idx, av = seq.support(n)
                del routed[:]
                got = binomial_mean_at(seq, 0.5, n)
                old, exact, scale = sparse_reference(idx, av, 0.5, [n], routed)
                assert abs(got - exact[0]) <= 4 * EPS * scale[0]
        assert calls == []


def sparse_sequence(idx, vals, name):
    """An explicit sparse sequence with support idx (sorted) and values vals."""
    idx, vals = np.asarray(idx, dtype=np.int64), np.asarray(vals, dtype=float)

    def support(h):
        k = np.searchsorted(idx, h, side="right")
        return idx[:k], vals[:k]

    return RealSequence.from_function(support=support, name=name)


def _signed_support():
    rng = np.random.default_rng(5)
    idx = np.unique(np.concatenate([rng.integers(10, 3000, 40), np.arange(1500, 1540)]))
    return idx, rng.normal(size=len(idx)) * 10.0 ** rng.integers(-3, 4, len(idx))


_SPARSE_IDX = [5, 40, 90, 150, 400, 1000]
SCALAR_PATH_CASES = {
    "spikes_C0.5": (GeneratorSpec("spikes", C=0.5), [0, 1, 77, 4000, 200_000, 1_500_000]),
    "spikes_C1": (GeneratorSpec("spikes", C=1.0), [0, 3, 150, 20_001, 700_001, 2_100_000]),
    "islets": (GeneratorSpec("islets"), [0, 2, 100, 4**5 * 2, 4**8, 4**9 * 3]),
    "signed": (_signed_support(), [0, 9, 10, 600, 1520, 2500, 3100]),
    # a term so large that the dropped tail cannot be certified
    "huge": ((_SPARSE_IDX, [1.0, -2.0, 1e300, 0.5, -1.0, 3.0]), [0, 4, 60, 120, 300, 1100]),
    "inf": ((_SPARSE_IDX, [1.0, -2.0, math.inf, 0.5, -1.0, 3.0]), [0, 4, 60, 89, 300, 1100]),
}


def count_handovers(monkeypatch):
    """Record the rows of every _binomial_means_sparse call: a lone row's
    hand-over to the batch kernel, or a batch read."""
    calls = []
    batch = transforms._binomial_means_sparse

    def counted(idx, av, p, ns):
        calls.append(np.asarray(ns).tolist())
        return batch(idx, av, p, ns)

    monkeypatch.setattr(transforms, "_binomial_means_sparse", counted)
    return calls


class TestSparseScalarPath:
    """A scalar sparse call runs on scalars (transforms._lone_row); two
    equal rows take the block path (_sparse_rows), where a row does not
    depend on its block, so both give the same bits from the same terms."""

    @pytest.mark.parametrize("p", [1e-3, 0.5, 0.999])
    @pytest.mark.parametrize("case", sorted(SCALAR_PATH_CASES))
    def test_matches_the_block_path(self, monkeypatch, case, p):
        source, ns = SCALAR_PATH_CASES[case]
        if isinstance(source, GeneratorSpec):
            seq = sequence_from_spec(source)
        else:
            seq = sparse_sequence(*source, case)
        fallbacks = count_sparse_fallbacks(monkeypatch)
        terms = count_terms(monkeypatch)
        handed = count_handovers(monkeypatch)
        for n in ns:
            del fallbacks[:], terms[:], handed[:]
            scalar = binomial_mean_at(seq, p, n)
            scalar_fallbacks, scalar_terms, scalar_handed = list(fallbacks), list(terms), list(handed)
            del fallbacks[:], terms[:]
            pair = binomial_mean_at(seq, p, np.array([n, n]))
            assert np.float64(scalar).tobytes() == pair[0].tobytes() == pair[1].tobytes(), n
            # the same rows certified, and one batch row's terms; a log-space
            # row the lone path hands over after its first window spends that
            # window's terms first (the pair's first call, halved)
            assert 2 * scalar_fallbacks == fallbacks, n
            assert scalar_handed in ([], [[n]]) and (scalar_handed or not scalar_fallbacks), n
            first = 0
            if scalar_handed and n > 0 and math.isfinite(seq.peak(n)) and terms:
                first = terms[0] // 2
                assert scalar_terms[0] == first, n
            assert sum(terms) % 2 == 0 and sum(scalar_terms) == first + sum(terms) // 2, n

    def test_cases_reach_the_fallback_and_the_extension(self, monkeypatch):
        fallbacks = count_sparse_fallbacks(monkeypatch)
        idx, vals = SCALAR_PATH_CASES["huge"][0]
        assert binomial_mean_at(sparse_sequence(idx, vals, "huge"), 0.5, 1100) > 0.0
        assert fallbacks == [1100]
        # n below the first support index, and a window (457..843) with no
        # support in it
        seq = sparse_sequence(idx, np.ones(len(idx)), "ones")
        assert binomial_mean_at(seq, 0.5, 4) == 0.0
        assert 0.0 < binomial_mean_at(seq, 0.5, 1300) < 1e-20
        assert fallbacks == [1100]
        inf = sparse_sequence(idx, SCALAR_PATH_CASES["inf"][0][1], "inf")
        assert binomial_mean_at(inf, 0.5, 89) < 1.0 and math.isinf(binomial_mean_at(inf, 0.5, 90))

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.8])
    def test_mixed_batches_equal_scalar_calls(self, monkeypatch, p):
        # routed rows inside islands, gap rows, and routed rows of other
        # half-widths (W rounded up to a multiple of 16), in any order and
        # with repeats: every entry is its scalar call, bit for bit
        routed = count_routed(monkeypatch)
        seq = sequence_from_spec(GeneratorSpec("islets"))
        island = [int(4**k / p) + d for k in (4, 5, 6, 7, 8) for d in (-40, 0, 1, 2, 17)]
        gap = [int(4**k / (2 * p)) + d for k in (5, 6, 7, 8) for d in (0, 1)]
        ns = np.array(island + gap + [0, 1, 2, 3, 9, 4**10 * 2])
        scalar = {}
        for n in ns:
            del routed[:]
            scalar[int(n)] = np.float64(binomial_mean_at(seq, p, int(n))).tobytes()
            if n in island:
                assert routed == [n]
            if n in gap:
                assert routed == []
        rng = np.random.default_rng(int(p * 10))
        for trial in range(6):
            batch = rng.choice(ns, size=rng.integers(2, 3 * len(ns)))
            del routed[:]
            got = binomial_mean_at(seq, p, batch)
            assert [v.tobytes() for v in got] == [scalar[int(n)] for n in batch]
        halves = np.ceil(_window_halfwidth(np.array(island, dtype=float), p) / 16.0)
        assert len(np.unique(halves)) >= 5


class TestRoutedRows:
    """Sparse rows whose window m +- W holds support on at least a quarter
    of its indices are weighted by the windowed dense kernel."""

    @pytest.mark.parametrize("p, horizon", [(0.3, 9104), (0.7, 6000)])
    def test_prefix_rows_match_full_rows(self, monkeypatch, p, horizon):
        routed = count_routed(monkeypatch)
        split = count_split(monkeypatch)
        seq = sequence_from_spec(GeneratorSpec("islets"))
        got = binomial_prefix(seq, p, horizon).values
        rows = np.unique(routed)[::7]
        assert len(rows) >= 200 and sum(ok for _, ok, _ in split) >= len(rows)
        ref, scale = routed_reference(seq.prefix(horizon), p, rows, split)
        assert np.all(np.abs(got[rows] - ref) <= 4 * EPS * scale)

    @pytest.mark.parametrize("n, p", [(5800, 0.640625), (6900, 0.6484375), (216_000, 0.3125)])
    def test_exact_rationals(self, monkeypatch, n, p):
        # dyadic p keeps the exact terms short; each window straddles an
        # island edge, so the mean is far from 0 and 1
        routed = count_routed(monkeypatch)
        seq = sequence_from_spec(GeneratorSpec("islets"))
        got = binomial_mean_at(seq, p, n)
        assert routed == [n] and 0.5 < got < 0.7
        idx, av = seq.support(n)
        # at n = 216000 only the 4**8 island counts: the one below it ends
        # over 200 sigma below the mode, with masses below 2**-1000
        keep = idx > 4**8 - 8 * 2**8 if n > 10**5 else idx >= 0
        exact = sparse_binomial_exact(idx[keep], av[keep], n, p)
        assert abs(Fraction(got) - exact) <= Fraction(4 * EPS) * exact

    def test_spikes_and_explore_keep_their_terms(self, monkeypatch):
        # log_pmf_many terms counted before any row was routed (reproduced
        # here with routing off).  Spike rows are routed only at small n,
        # where the gaps C sqrt(i) between spikes are short next to the
        # window; every other row keeps its log-space terms, so routing
        # removes exactly the terms the routed rows took in log space.
        terms = count_terms(monkeypatch)
        # (p, n) of every routed row, once for each time its call's ns holds
        # it: with routing off each of them takes its log-space terms (the
        # q-series of the first probe asks for rows 1 and 4 twice), whichever
        # blocks of rows the copies fall in
        routed = []
        routed_means = transforms._routed_means

        def recorded(idx, av, peak, p, ns):
            routed.extend((p, n) for n in ns.tolist())
            return routed_means(idx, av, peak, p, ns)

        monkeypatch.setattr(transforms, "_routed_means", recorded)

        def counted(run, share=transforms._ROUTE_SHARE):
            del terms[:], routed[:]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(transforms, "_ROUTE_SHARE", share)
                run()
            return sum(terms), sorted(routed)

        def moved(seq, rows):
            # the log-space terms the routed rows take with routing off
            total = 0
            for p in {p for p, _ in rows}:
                ns = np.array([n for q, n in rows if q == p])
                total += counted(lambda: binomial_mean_at(seq, p, ns), share=0)[0]
            return total

        prefixes = {(0.5, 0.3): 956_178, (1.0, 0.5): 420_789, (2.0, 0.8): 136_095}
        for (C, p), before in prefixes.items():
            seq = sequence_from_spec(GeneratorSpec("spikes", C=C))
            assert counted(lambda: binomial_prefix(seq, p, 20_000), share=0) == (before, [])
            total, rows = counted(lambda: binomial_prefix(seq, p, 20_000))
            ns = [n for _, n in rows]
            assert ns == np.flatnonzero(routed_by_rule(seq, p, np.arange(20_001))).tolist()
            assert 0 < len(ns) and max(ns) < 256
            assert total == before - moved(seq, rows)
        probes = {(0.4, 0.7, 0.5): 376_477, (0.2, 0.9, 2.0): 15_893}
        for (p, q, C), before in probes.items():
            seq = sequence_from_spec(GeneratorSpec("spikes", C=C))
            assert counted(lambda: probe_open_problem(p, q, C, 10**6), share=0) == (before, [])
            total, rows = counted(lambda: probe_open_problem(p, q, C, 10**6))
            assert 0 < len(rows) and max(n for _, n in rows) < 256
            assert total == before - moved(seq, rows)

    @pytest.mark.parametrize("p", [0.5, 0.7, 0.85])
    def test_island_rows_are_routed_and_gap_rows_are_not(self, monkeypatch, p):
        routed = count_routed(monkeypatch)
        split = count_split(monkeypatch)
        seq = sequence_from_spec(GeneratorSpec("islets"))
        n = np.arange(1, 150_000, 11)
        binomial_mean_at(seq, p, n)
        m, half = _mode(n.astype(float), p), _window_halfwidth(n.astype(float), p)
        lo = np.maximum(m - half, 0).astype(np.int64)
        hi = np.minimum(m + half, n).astype(np.int64)
        ones = np.concatenate([[0], np.cumsum(seq.prefix(int(n[-1])) != 0)])
        in_window = ones[hi + 1] - ones[lo]
        inside, empty = in_window == hi - lo + 1, in_window == 0
        assert inside.sum() >= 100 and empty.sum() >= 1000
        is_routed = np.isin(n, routed)
        assert is_routed[inside].all() and not is_routed[empty].any()
        # each row once, and a second time as a windowed row where the
        # split does not certify it
        assert is_routed.sum() == len(routed) - sum(not ok for _, ok, _ in split)

    def test_memory_at_two_million(self):
        # rows around the 4**10 island at n ~ 2e6: the windowed kernel's
        # buffer spans the rows' windows, not the prefix (16 MB of doubles)
        seq = sequence_from_spec(GeneratorSpec("islets"))
        ns = 2 * (4**10 + np.arange(-12_000, 12_000, 100))
        binomial_mean_at(seq, 0.5, ns[:2])
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KB on Linux
        tracemalloc.start()
        try:
            values = binomial_mean_at(seq, 0.5, ns)
            traced = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        grown = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak) / 1024
        assert values.max() > 0.99 and values.min() < 0.01
        assert traced < 6 and grown < 6


class TestOneKernel:
    """Every mean but the geometric closed form goes through the support
    kernel: a row its first window does not certify widens, never takes a
    full PMF row, and gives the same bits in any call."""

    def test_island_edge_rows_against_exact_rationals(self, monkeypatch):
        # a window reaching into an island is routed, but the mass it drops
        # times the peak is not below 2**-53 of the little mass it keeps, so
        # the row widens; log-space masses left such rows 1e-12 to 2e-11 off
        widened = count_widened(monkeypatch)
        p = 0.3
        got = binomial_prefix(sequence_from_spec(GeneratorSpec("islets")), p, 20_000).values
        ns = [11586, 11603, 11620, 11635, 15803, 15820, 15837, 15849]
        for n in ns:
            # Hoeffding: the mass below n p - 40 sigma is under
            # exp(-3200 p q) < 1e-290, far below 1e-13 of these means.
            # The exact mean is N / d**n; got[n] is num / den.
            cut = math.ceil(n * p - 40.0 * math.sqrt(n * p * (1.0 - p)))
            big = sum(binomial_run_numerator(n, p, max(lo, cut), min(hi, n))
                      for lo, hi in islet_ranges(n) if hi >= cut)
            num, den = float(got[n]).as_integer_ratio()
            d_n = p.as_integer_ratio()[1] ** n
            rel = abs(num * d_n - big * den) / (big * den)
            assert rel <= 1e-13, (n, rel)
        rows = np.unique(widened)
        assert set(ns) <= set(rows.tolist()) and len(rows) >= 100

    def test_no_mean_takes_a_full_row(self, monkeypatch):
        calls = count_full_rows(monkeypatch)
        horizon = 1500
        with np.errstate(over="ignore"):
            vectors = [a ** np.arange(horizon + 1.0) for a in (-3.0, 1.01, 0.5, -0.7, 1.002)]
        for at, term in ((900, math.inf), (1200, math.nan)):
            vectors.append(np.ones(horizon + 1))
            vectors[-1][at] = term
        seqs = [RealSequence.from_values(v) for v in vectors]
        seqs += [sequence_from_spec(GeneratorSpec(family))
                 for family in ("alternating01", "signed_linear", "islets")]
        seqs += [sequence_from_spec(GeneratorSpec("spikes", C=1.0)), RealSequence.geometric(-3.0),
                 sparse_sequence(_SPARSE_IDX, [1.0, -2.0, 1e300, 0.5, -1.0, 3.0], "huge")]
        ns = np.array([horizon, 0, 1, 647, 901, 1201, 2])
        with np.errstate(over="ignore", invalid="ignore"):
            for seq in seqs:
                for p in (0.05, 0.5, 0.97):
                    binomial_prefix(seq, p, horizon)
                    binomial_mean_at(seq, p, ns)
                    for n in ns:
                        binomial_mean_at(seq, p, int(n))
        assert calls == []

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_every_row_is_the_same_bits_in_any_call(self, p):
        # a +inf at 300 and a -inf at 700: rows 300-699 are +inf (their
        # windows widen up to [0, n]), every later row is the canonical NaN,
        # dense or sparse, in a prefix, an array call and a scalar call
        values = np.linspace(-1.0, 1.0, 1201)
        values[300], values[700] = math.inf, -math.inf
        idx = np.union1d(np.arange(0, 1201, 3), [300, 700])
        seqs = [RealSequence.from_values(values), sparse_sequence(idx, values[idx], "pair")]
        ns = np.random.default_rng(int(10 * p)).permutation(1201)
        nan = np.full(501, np.nan).tobytes()
        with np.errstate(invalid="ignore"):
            for seq in seqs:
                prefix = binomial_prefix(seq, p, 1200).values
                batch = binomial_mean_at(seq, p, ns)
                scalar = np.array([binomial_mean_at(seq, p, n) for n in range(1201)])
                assert batch.tobytes() == prefix[ns].tobytes()
                assert scalar.tobytes() == prefix.tobytes()
                assert np.isfinite(prefix[:300]).all() and (prefix[300:700] == math.inf).all()
                assert prefix[700:].tobytes() == nan

    @pytest.mark.parametrize("term", [math.nan, "pair"])
    def test_sparse_nan_builds_no_later_row(self, monkeypatch, term):
        # rows from the NaN (or the second infinity of a +inf/-inf pair) on
        # are NaN without a mass being taken for them
        built = []
        kernel, block = transforms.log_pmf_many, transforms._block

        def logs(n, p, indices, **kwargs):
            built.append(np.max(n))
            return kernel(n, p, indices, **kwargs)

        def ratios(buffer, first, n0, p, half, peak, triangle=None, count=1, *rest):
            built.append(n0.max() + count - 1)  # the last row its correlations reach
            return block(buffer, first, n0, p, half, peak, triangle, count, *rest)

        monkeypatch.setattr(transforms, "log_pmf_many", logs)
        monkeypatch.setattr(transforms, "_block", ratios)
        idx = np.array([0, 4, 30, 90, 150, 200, 201, 202, 203, 205, 400, 1000, 1001])
        vals = np.ones(len(idx))
        if term == "pair":
            vals[3], vals[5] = math.inf, -math.inf  # indices 90 and 200
        else:
            vals[5] = math.nan
        seq = sparse_sequence(idx, vals, "nan")
        got = binomial_prefix(seq, 0.4, 3000).values
        batch = binomial_mean_at(seq, 0.4, np.array([3000, 199, 200, 5]))
        assert np.isnan(got[200:]).all() and not np.isnan(got[:200]).any()
        assert batch.tobytes() == got[[3000, 199, 200, 5]].tobytes()
        assert max(built) == 199


class TestMeanAtArray:
    """binomial_mean_at over an array of n: any order, repeats, 0 and empty."""

    NS = np.array([1200, 0, 3, 700, 3, 1, 0, 1199, 150, 1200, 2])

    @pytest.mark.parametrize("p", [0.05, 0.45, 0.9])
    def test_dense_matches_exact_sums(self, p):
        values = np.random.default_rng(11).uniform(-1.0, 1.0, 1201)
        got = binomial_mean_at(RealSequence.from_values(values), p, self.NS)
        ref, scale = full_row_exact(values, p)
        assert got.shape == self.NS.shape
        assert np.all(np.abs(got - ref[self.NS]) <= 4 * EPS * scale[self.NS])

    @pytest.mark.parametrize("spec", [GeneratorSpec("islets"), GeneratorSpec("spikes", C=1.0)])
    @pytest.mark.parametrize("p", [0.05, 0.45, 0.9])
    def test_sparse_matches_exact_sums(self, monkeypatch, spec, p):
        routed = count_routed(monkeypatch)
        seq = sequence_from_spec(spec)
        ns = np.concatenate([self.NS, [4**5 * 2, 4**5, 20_001, 20_001]])
        got = binomial_mean_at(seq, p, ns)
        idx, av = seq.support(int(ns.max()))
        _, exact, scale = sparse_reference(idx, av, p, ns, routed)
        assert np.all(np.abs(got - exact) <= 4 * EPS * scale)
        # islets rows inside an island are routed; spike rows only at small
        # n, where the gaps between spikes are short next to the window
        assert sorted(set(routed)) == sorted(set(ns[routed_by_rule(seq, p, ns)]))
        assert max(routed) >= 1024 if spec.family == "islets" else max(routed) < 256

    def test_dense_matches_scalar_calls(self):
        seq = sequence_from_spec(GeneratorSpec("signed_linear"))
        got = binomial_mean_at(seq, 0.3, self.NS)
        scalar = [binomial_mean_at(seq, 0.3, int(n)) for n in self.NS]
        assert got.tobytes() == np.array(scalar).tobytes()

    @pytest.mark.parametrize("p", [0.03, 0.3, 0.6, 0.97])
    def test_dense_rows_do_not_depend_on_their_batch(self, monkeypatch, p):
        # rows certified in their first window and widened rows: the prefix
        # entry, the entry of an any-order array call with repeats and the
        # scalar call are the same bits, NaN positions included
        calls = count_full_rows(monkeypatch)
        widened = count_widened(monkeypatch)
        horizon = 5000
        rng = np.random.default_rng(int(p * 100))
        with np.errstate(over="ignore"):
            seqs = [RealSequence.from_values(a ** np.arange(horizon + 1.0))
                    for a in (-3.0, -1.0, -0.7, 0.999)]
        seqs += [
            sequence_from_spec(GeneratorSpec("geometric", a=1.0)),
            RealSequence.from_values(rng.uniform(-1.0, 1.0, horizon + 1)),
            RealSequence.from_values(0.5 ** np.arange(horizon + 1.0)),
            sequence_from_spec(GeneratorSpec("signed_linear")),
        ]
        ns = np.concatenate([[0, 1, horizon], rng.integers(0, horizon + 1, 40)])
        ns = rng.permutation(np.concatenate([ns, ns[::3]]))

        def bits(v):
            return np.where(np.isnan(v), np.nan, v).tobytes()

        with np.errstate(over="ignore", invalid="ignore"):
            for seq in seqs:
                prefix = binomial_prefix(seq, p, horizon).values[ns]
                batch = binomial_mean_at(seq, p, ns)
                scalar = np.array([binomial_mean_at(seq, p, int(n)) for n in ns])
                assert bits(batch) == bits(prefix) and bits(scalar) == bits(prefix), seq.name
        assert len(widened) > 0 and calls == []

    @pytest.mark.parametrize("family", ["alternating01", "islets"])
    def test_empty(self, family):
        seq = sequence_from_spec(GeneratorSpec(family))
        for ns in ([], np.array([], dtype=np.int64)):
            got = binomial_mean_at(seq, 0.5, ns)
            assert isinstance(got, np.ndarray) and got.shape == (0,)

    @pytest.mark.parametrize("n", [-1, np.array([3, -1]), 3.0, np.array([1.0, 2.0]),
                                   np.array([[1, 2]]), np.int64(-2), [True],
                                   np.array([2**63], dtype=np.uint64), True,
                                   2**63, np.uint64(2**63), 2**64 + 5])
    def test_bad_n_rejected(self, n):
        for seq in (constant(1.0), sequence_from_spec(GeneratorSpec("islets"))):
            with pytest.raises(ParameterDomainError):
                binomial_mean_at(seq, 0.5, n)

    @pytest.mark.parametrize("a0", [-0.0, math.inf, math.nan])
    def test_row_zero_is_a0_bit_for_bit(self, a0):
        values = np.ones(50)
        values[0] = a0
        seq = RealSequence.from_values(values)
        bits = np.float64(a0).tobytes()
        scalar = binomial_mean_at(seq, 0.3, 0)
        assert isinstance(scalar, float) and np.float64(scalar).tobytes() == bits
        got = binomial_mean_at(seq, 0.3, np.array([7, 0, 49, 0]))
        assert got[1].tobytes() == bits and got[3].tobytes() == bits
        assert binomial_prefix(seq, 0.3, 49).values[0].tobytes() == bits

    def test_scalar_call_does_not_dedup(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a one-row call deduplicated its rows")

        monkeypatch.setattr(np, "unique", refuse)
        for spec in (GeneratorSpec("alternating01"), GeneratorSpec("spikes", C=1.0)):
            seq = sequence_from_spec(spec)
            assert isinstance(binomial_mean_at(seq, 0.5, 5000), float)
            assert binomial_mean_at(seq, 0.5, np.array([5000])).shape == (1,)


def lone_families():
    """Named families with their window rules, and explicit sequences
    without one, which take the default rule."""
    out = {
        name: sequence_from_spec(spec)
        for name, spec in {
            "alternating01": GeneratorSpec("alternating01"),
            "signed_linear": GeneratorSpec("signed_linear"),
            "islets": GeneratorSpec("islets"),
            "spikes": GeneratorSpec("spikes", C=1.0, height_scale=2.5),
            "spikes(C=0.5)": GeneratorSpec("spikes", C=0.5, height_scale=-1.5),
            "geometric": GeneratorSpec("geometric", a=-0.7),
        }.items()
    }
    vals = np.random.default_rng(11).standard_normal(6001)
    vals[np.random.default_rng(12).random(6001) < 0.9] = 0.0
    nz = np.flatnonzero(vals)
    out["explicit"] = RealSequence.from_values(vals)
    out["explicit sparse"] = RealSequence.from_function(
        support=lambda h: (nz[nz <= h], vals[nz[nz <= h]])
    )
    return out


def lone_rows(p, horizon):
    """Rows 0 and 1, rows whose window is clipped at 0 or n, spike positions
    and the rows aligned on them, and island edges and the rows aligned on
    them."""
    spikes = np.concatenate([spike_indices(1.0, horizon), spike_indices(0.5, horizon)])
    edges = [e + d for lo, hi in islet_ranges(horizon) for e in (lo, hi) for d in (-1, 0, 1)]
    rows = {0, 1, 2, 3, 4, 7, 12, 30, 80, 250, horizon}
    rows.update(int(j) for j in spikes[::7])
    rows.update(int(j / p) for j in spikes[::11] if j / p <= horizon)
    rows.update(int(e / p) for e in edges if e / p <= horizon)
    rows.update(e for e in edges if e <= horizon)
    return np.array(sorted(rows))


def count_split(monkeypatch):
    """Record (n, certified, mean) for every row a split block (a _block
    call with a triangle) was asked for."""
    rows = []
    block = transforms._block

    def counted(buffer, first, n0, p, half, peak, triangle=None, *rest):
        value, certified = block(buffer, first, n0, p, half, peak, triangle, *rest)
        if triangle is not None:
            n, b, j = asked(n0, peak)
            rows.extend(zip(n.tolist(), certified[b, j].tolist(), value[b, j].tolist()))
        return value, certified

    monkeypatch.setattr(transforms, "_block", counted)
    return rows


def routed_reference(values, p, ns, split):
    """full_row_exact at the rows ns, except that a row a split block
    certified (split: count_split's records) takes split_reference."""
    certified = {n for n, ok, _ in split if ok}
    sums = [split_reference(values, p, n) if n in certified
            else [x[0] for x in full_row_exact(values, p, [n])] for n in np.asarray(ns).tolist()]
    return np.array(sums, dtype=float).reshape(-1, 2).T


def split_reference(values, p, n):
    """Row n = n0 + j as a split row weights it, summed exactly (math.fsum):
    sum_k B(j, k) sum_i M(n0, i) a_{i+k} over the whole row n0, M its
    _row_mass masses and B(j, .) the split's own triangle, with the same sum
    over |a_i|.  The masses are the split's own ratio products, so the gap
    is the split's truncation and rounding, as full_row_exact isolates the
    windowed kernel's; both share the products' drift in far tails."""
    j = n % transforms._SPLIT
    mass, row = _row_mass(n - j, p), transforms._triangle(p)[0][j]
    terms = np.concatenate([row[k] * mass * values[k : n - j + k + 1] for k in range(j + 1)])
    return math.fsum(terms), math.fsum(np.abs(terms))


def adversarial_vectors(horizon):
    """500-term blocks of 0 and of random signs of 1e6, and 1e-3 terms with
    1e12 at every 997th index: rows whose kept sum is tiny next to their
    peak, which only the certificate keeps from the split."""
    rng = np.random.default_rng(3)
    blocks = np.zeros(horizon + 1)
    for start in range(500, horizon + 1, 1000):
        blocks[start : start + 500] = rng.choice([-1e6, 1e6], len(blocks[start : start + 500]))
    spikes = np.full(horizon + 1, 1e-3)
    spikes[::997] = 1e12
    return {"blocks": blocks, "spikes": spikes}


class TestSplitRows:
    """A routed row n = n0 + j, n0 a multiple of _SPLIT, dense or sparse,
    takes B(n, .) = B(n0, .) * B(j, .): one windowed mass row per block of
    rows, certified against |mean| or else its sum B |a|; the rows it does
    not certify are weighted as windowed rows, and a lone row replays its
    block."""

    @pytest.mark.parametrize("p", [1e-6, 0.003, 0.3, 0.5, 0.97, 1 - 1e-6])
    def test_exact_rationals(self, monkeypatch, p):
        # the first and last row of blocks near 1, in the middle and at the
        # end, where H = 1003 leaves the last block short
        horizon, step = 1003, transforms._SPLIT
        rows = [1, step - 1, step, 2 * step - 1, 496, 503, 992, 999, 1000, horizon]
        rng = np.random.default_rng(int(p * 1e6))
        kinds = {"signed": rng.uniform(-1.0, 1.0, horizon + 1),
                 "nonneg": rng.uniform(0.0, 1.0, horizon + 1),
                 "signs": rng.choice([-1.0, 1.0], horizon + 1)}
        name = list(kinds)[[1e-6, 0.003, 0.3, 0.5, 0.97, 1 - 1e-6].index(p) % 3]
        values = kinds[name]
        split = count_split(monkeypatch)
        got = binomial_prefix(RealSequence.from_values(values), p, horizon).values
        certified = {n: ok for n, ok, _ in split}
        for n in rows:
            assert certified[n], (name, n)
            exact = sparse_binomial_exact(range(n + 1), values, n, p)
            scale = sparse_binomial_exact(range(n + 1), np.abs(values), n, p)
            assert abs(Fraction(got[n]) - exact) <= 2 * Fraction(EPS) * scale, (name, n)

    @pytest.mark.parametrize("p", [0.3, 0.8])
    def test_adversarial_vectors(self, monkeypatch, p):
        horizon = 12_000
        for name, values in adversarial_vectors(horizon).items():
            split = count_split(monkeypatch)
            got = binomial_prefix(RealSequence.from_values(values), p, horizon).values
            rows = np.array([n for n, ok, _ in split if ok])
            failed = np.array([n for n, ok, _ in split if not ok])
            # rows the split does not certify are weighted as unsplit rows:
            # with _SHIFT_FROM at 0 no row splits, and every shift is 0
            assert len(failed) > 100, name
            idx, peak = np.arange(horizon + 1), np.maximum.accumulate(np.abs(values))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(transforms, "_SHIFT_FROM", 0.0)
                unsplit = transforms._routed_means(idx, values, peak[failed], p, failed)
                scale = transforms._routed_means(idx, np.abs(values), peak[failed], p, failed)
            assert got[failed].tobytes() == unsplit.tobytes(), name
            # and uncertified, the split would have been far off on some
            raw = np.array([mean for _, ok, mean in split if not ok])
            assert (np.abs(raw - unsplit) > 1e6 * EPS * scale).any(), name
            for n in rows[::151]:
                ref, scale = split_reference(values, p, int(n))
                assert abs(got[n] - ref) <= 4 * EPS * scale, (name, n)

    @pytest.mark.parametrize("p", [0.05, 0.5, 0.93])
    def test_same_bits_across_block_edges(self, p):
        # rows around block edges near 1, 1e3 and 1e6: prefix entries (up
        # to 1e3), a shuffled array call with repeats and scalar calls
        step = transforms._SPLIT
        rng = np.random.default_rng(17)
        values = rng.uniform(-1.0, 1.0, 10**6 + 40)
        full = sparse_sequence(np.arange(1200), values[:1200], "all support")
        gapped = sparse_sequence(np.arange(1, 1200), values[1:1200], "support from 1")
        families = {"alternating01": sequence_from_spec(GeneratorSpec("alternating01")),
                    "signed_linear": sequence_from_spec(GeneratorSpec("signed_linear")),
                    "explicit": RealSequence.from_values(values),
                    "all support": full, "support from 1": gapped}
        for edge in (step, 125 * step, 125_000 * step):
            ns = np.arange(max(edge - step - 3, 0), edge + step + 3)
            for name, seq in families.items():
                if seq.sparse and edge > 1000:
                    continue
                batch = rng.permutation(np.concatenate([ns, ns[::3]]))
                array = binomial_mean_at(seq, p, batch)
                scalar = np.array([binomial_mean_at(seq, p, int(n)) for n in batch])
                assert array.tobytes() == scalar.tobytes(), (name, edge)
                if edge < 1100:
                    prefix = binomial_prefix(seq, p, int(ns[-1])).values
                    assert array.tobytes() == prefix[batch].tobytes(), (name, edge)

    @pytest.mark.parametrize("p", [0.3, 0.7])
    def test_island_and_spike_rows_split_in_any_call(self, monkeypatch, p):
        # rows n = 0 and 7 (mod 8) around the island centres 4**k / p and
        # spike rows at small n: split and certified, and the same bits in
        # a prefix (up to k = 7), a shuffled array call with repeats and
        # scalar calls
        split = count_split(monkeypatch)
        rng = np.random.default_rng(int(10 * p))
        islets = sequence_from_spec(GeneratorSpec("islets"))
        spikes = sequence_from_spec(GeneratorSpec("spikes", C=1.0))
        centres = [8 * (int(4**k / p) // 8) for k in range(5, 10)]
        rows = {"islets": np.add.outer(centres, [-8, -1, 0, 7, 8, 15]).ravel(),
                "spikes": np.array([n for n in range(1, 48) if n % 8 in (0, 7)])}
        for (name, ns), seq in zip(rows.items(), (islets, spikes)):
            del split[:]
            batch = rng.permutation(np.concatenate([ns, ns[::2]]))
            array = binomial_mean_at(seq, p, batch)
            assert {n for n, ok, _ in split if ok} == set(ns.tolist()), name
            scalar = np.array([binomial_mean_at(seq, p, int(n)) for n in batch])
            assert array.tobytes() == scalar.tobytes(), name
            short = batch <= 4**7 / p + 16
            prefix = binomial_prefix(seq, p, int(batch[short].max())).values
            assert array[short].tobytes() == prefix[batch[short]].tobytes(), name

    @pytest.mark.parametrize("p", [0.375, 0.5, 0.8125])
    def test_signed_support_with_gaps_takes_the_abs_pass(self, monkeypatch, p):
        # islands of (-1)**i with gaps between them: a row inside an island
        # has |mean| near (1 - 2p)**n, far below what its dropped mass
        # times its peak needs, so its split block weights sum B |a| too.
        # Dyadic p keeps q exact, so the split rows are within 4 eps of sum
        # B |a| of exact rationals as of their split_reference.
        abs_pass = []  # rows asked for of split blocks whose |a| pass ran
        block, sums, calls = transforms._block, transforms._triangle_sums, []

        def counted_sums(terms, total, triangle):
            calls.append(triangle is not None)
            return sums(terms, total, triangle)

        def counted(buffer, first, n0, p, half, peak, triangle=None, *rest):
            del calls[:]
            out = block(buffer, first, n0, p, half, peak, triangle, *rest)
            if sum(calls) == 2:
                abs_pass.extend(asked(n0, peak)[0].tolist())
            return out

        monkeypatch.setattr(transforms, "_triangle_sums", counted_sums)
        monkeypatch.setattr(transforms, "_block", counted)
        split = count_split(monkeypatch)
        horizon = 3000
        idx = np.concatenate([np.arange(40, 700), np.arange(760, 1900), np.arange(2000, 2900)])
        seq = sparse_sequence(idx, (-1.0) ** idx, "signed islands")
        got = binomial_prefix(seq, p, horizon).values
        certified = np.array(sorted(n for n, ok, _ in split if ok))
        assert len(set(abs_pass) & set(certified.tolist())) >= 100
        values, sample = seq.prefix(horizon), certified[::37]
        for n in sample.tolist():
            ref, scale = split_reference(values, p, n)
            assert abs(got[n] - ref) <= 4 * EPS * scale, n
            exact = sparse_binomial_exact(idx, values[idx], n, p)
            scale = sparse_binomial_exact(idx, np.ones(len(idx)), n, p)
            assert abs(Fraction(got[n]) - exact) <= 4 * Fraction(EPS) * scale, n
        lone = np.array([binomial_mean_at(seq, p, n) for n in sample.tolist()])
        assert lone.tobytes() == got[sample].tobytes()

    def test_lone_reach_holds_the_split_window(self):
        # a lone row reads its reach m +- 2W alone and splits from those
        # terms: they must hold its split block's window m0 - h0 .. m0 + h0
        # + j inside [0, n], which W >= 30 gives
        ns = np.unique(np.concatenate([np.arange(1, 5000), np.geomspace(5000, 1e12, 3000)
                                       .astype(np.int64)])).tolist()
        for p in (1e-6, 1e-3, 0.05, 0.3, 0.5, 0.77, 0.95, 0.999, 1 - 1e-9):
            for n in ns:
                m, half = _mode(n, p), _window_halfwidth(n, p)
                j, n0, h0 = transforms._split_start(n, p)
                m0 = _mode(n0, p)
                assert max(m - 2 * half, 0) <= max(m0 - h0, 0), (n, p)
                assert min(m0 + h0 + j, n) <= min(m + 2 * half, n), (n, p)
        # and a lone routed row reads its reach, once
        for n, p in ((7, 0.3), (1000, 0.05), (10**6 + 7, 0.5)):
            reads = []

            def window(lo, hi):
                reads.append((lo, hi))
                return np.arange(lo, hi + 1), np.ones(hi - lo + 1)

            assert binomial_mean_at(RealSequence.from_window(window, lambda n: 1.0), p, n) == 1.0
            m, half = _mode(n, p), _window_halfwidth(n, p)
            assert reads == [(max(m - 2 * half, 0), min(m + 2 * half, n))], (n, p)


class TestLoneQuery:
    """A scalar binomial_mean_at reads only its row's window through the
    sequence's window rule and does its bookkeeping on Python numbers; its
    masses and sums are the block rows', so every value keeps its bits."""

    @pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.77, 0.95])
    def test_scalar_array_and_prefix_agree(self, p):
        horizon = 6000
        ns = lone_rows(p, horizon)
        for name, seq in lone_families().items():
            prefix = binomial_prefix(seq, p, horizon).values
            array = binomial_mean_at(seq, p, ns)
            scalar = np.array([binomial_mean_at(seq, p, int(n)) for n in ns])
            assert array.tobytes() == prefix[ns].tobytes(), name
            assert scalar.tobytes() == prefix[ns].tobytes(), name

    def test_helpers_take_numbers_and_arrays_alike(self):
        # the lone row's mode, half-width, routing and certificate are the
        # block rows' helpers on numbers: the same values, as ints
        rng = np.random.default_rng(11)
        ns = np.concatenate([np.arange(1, 200), rng.integers(1, 10**12, 3000)])
        ps = np.concatenate([[0.05, 0.3, 0.5, 0.77, 0.95], rng.uniform(0.001, 0.999, 400)])
        for p in ps.tolist():
            rows = ns.astype(float)
            m, half = _mode(rows, p), _window_halfwidth(rows, p)
            lone = [(_mode(n, p), _window_halfwidth(n, p)) for n in ns.tolist()]
            assert [a for a, _ in lone] == m.tolist() and [b for _, b in lone] == half.tolist()
            assert all(type(a) is int and type(b) is int for a, b in lone)
            counts = rng.integers(0, 2 * half + 2)
            routed = transforms._routed(rows, m, half, counts)
            assert [transforms._routed(n, a, b, c) for n, (a, b), c in
                    zip(ns.tolist(), lone, counts.tolist())] == routed.tolist()
        value = np.array([0.5, math.inf, math.nan, -1.0, 2.0])
        scale, dropped = np.array([1.0, 1.0, 1.0, 2.0**53, 1.0]), np.array([0.0, 0.0, 0.0, 1.0, 2.0**-52])
        certified = transforms._certified(value, scale, dropped, 1.0)
        assert certified.tolist() == [True, False, False, True, False]
        assert [transforms._certified(*args, 1.0) for args in zip(value.tolist(), scale.tolist(),
                                                                  dropped.tolist())] == certified.tolist()

    def test_named_families_read_only_windows(self, monkeypatch):
        # no prefix or support read, and no window of more than O(sqrt(n))
        # terms: the nearest islands of a gap row are a few thousand apart
        read = []

        def refuse(self, horizon):
            raise AssertionError("a lone query read a prefix or a support")

        monkeypatch.setattr(RealSequence, "prefix", refuse)
        monkeypatch.setattr(RealSequence, "support", refuse)
        for spec, n in [(GeneratorSpec("spikes", C=1.0), 2_000_003), (GeneratorSpec("islets"), 4**10 * 2),
                        (GeneratorSpec("islets"), 4**10), (GeneratorSpec("alternating01"), 10**7),
                        (GeneratorSpec("signed_linear"), 10**7)]:
            seq = sequence_from_spec(spec)
            window, peak = seq._rule(n)

            def counted(lo, hi, window=window):
                out = window(lo, hi)
                read.append(len(out[0]))
                return out

            monkeypatch.setattr(seq, "_rule", lambda h, rules=(counted, peak): rules)
            del read[:]
            binomial_mean_at(seq, 0.4, n)
            assert 0 < max(read) <= 60 * math.sqrt(n), spec

    def test_lone_rows_read_at_most_twice(self, monkeypatch):
        # a gap row whose reach m +- 2W holds no island on a side reads
        # window(0, n) once and settles there; a row it hands over adds
        # only the batch's read of window(0, n).  Each row is the batch row
        # over window(0, n), bit for bit.
        handed = count_handovers(monkeypatch)
        cases = [("islets", p, [int(4**j / (2 * p)) for j in range(5, 11)]) for p in (0.3, 0.6)]
        spikes = spike_indices(7.0, 2_000_000)
        cases.append(("spikes", 0.9, [int(j / 0.9) for j in spikes[::25]]
                      + np.linspace(2e5, 2.1e6, 12).astype(int).tolist()))
        whole = 0
        for family, p, ns in cases:
            spec = GeneratorSpec(family, C=7.0) if family == "spikes" else GeneratorSpec(family)
            seq = sequence_from_spec(spec)
            rule = seq._rule
            for n in ns:
                window, peak = rule(n)
                reads = []

                def counted(lo, hi, window=window):
                    reads.append((lo, hi))
                    return window(lo, hi)

                seq._rule = lambda h, rules=(counted, peak): rules
                del handed[:]
                got = binomial_mean_at(seq, p, n)
                assert len(reads) <= 2 + len(handed) and handed in ([], [[n]]), (family, n)
                if handed:
                    assert reads[-1] == (0, n), (family, n)
                whole += reads[:2].count((0, n))
                ref = transforms._binomial_means_sparse(*window(0, n), p, np.array([n]))[0]
                assert np.float64(got).tobytes() == ref.tobytes(), (family, n)
        assert whole >= 5

    @pytest.mark.parametrize("family", ["alternating01", "signed_linear"])
    def test_dense_query_at_1e8(self, family):
        # exact means (1 + (1 - 2p)**n) / 2 and -n p (1 - 2p)**(n - 1), within
        # 4 eps of sum B |a|, in a few MB
        seq = sequence_from_spec(GeneratorSpec(family))
        n = 10**8
        for p in (0.05, 0.3, 0.5, 0.77):
            tracemalloc.start()
            try:
                got = binomial_mean_at(seq, p, n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 50e6
            r = Fraction(1 - 2 * Fraction(p))
            if family == "alternating01":
                exact = (1 + r**n) / 2 if r == 0 else Fraction(1, 2)  # |r|**n < 1e-2000
                scale = Fraction(1, 2)
            else:
                exact, scale = Fraction(0), n * Fraction(p)  # n p |r|**(n - 1) < 1e-2000
            assert abs(r) ** 1000 < Fraction(1, 10**20) or r == 0
            assert abs(Fraction(got) - exact) <= 4 * Fraction(EPS) * scale, p

    def test_non_finite_terms_stay_quiet(self):
        vals = np.ones(400)
        vals[150] = math.inf
        seq = RealSequence.from_values(vals)
        both = vals.copy()
        both[200] = -math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert binomial_mean_at(seq, 0.5, 300) == math.inf
            assert math.isnan(binomial_mean_at(RealSequence.from_values(both), 0.5, 300))
            assert binomial_mean_at(seq, 0.5, 100) == binomial_prefix(seq, 0.5, 100).values[100]
            big = RealSequence.from_values(np.full(400, 1e300))
            assert binomial_mean_at(big, 0.3, 399) == binomial_prefix(big, 0.3, 399).values[399]


class TestIndexBound:
    """Indices past 2**63 - 1 do not fit the kernels' int64 arrays: every
    entry point rejects them up front (point queries: test_bad_n_rejected;
    windows and peaks: test_sequences)."""

    @pytest.mark.parametrize("horizon", [2**63, np.uint64(2**63), 2**64 + 5])
    def test_prefixes(self, horizon):
        seq = RealSequence.geometric(0.5)
        for call in (lambda: binomial_prefix(seq, 0.3, horizon),
                     lambda: cesaro_prefix(seq, horizon), lambda: pstar_prefix(seq, 0.3, horizon),
                     lambda: seq.prefix(horizon), lambda: weights(horizon, 0.3)):
            with pytest.raises(ParameterDomainError, match="in \\[0, 2\\*\\*63\\)"):
                call()

    def test_largest_index_is_accepted(self):
        # 0.85**(2**63 - 1) rounds to 0; the closed form builds nothing of size n
        transforms._check_horizon(2**63 - 1)
        assert binomial_mean_at(RealSequence.geometric(0.5), 0.3, 2**63 - 1) == 0.0
        assert binomial_mean_at(RealSequence.geometric(0.5), 0.3, np.int64(2**63 - 1)) == 0.0


def one_exit_cases():
    """Sequences and rows that a lone query hands to the batch kernel: row 0
    with a_0 = -0.0, rows past a NaN term, a +inf term and a +inf/-inf pair,
    the rows of a term too large to certify, and rows of explicit 1.002**n
    that widen (the largest), with rows before them that do not."""
    out = {}
    for name, spots in {"nan": {150: math.nan}, "inf": {150: math.inf},
                        "pair": {150: math.inf, 200: -math.inf}}.items():
        vals = np.ones(400)
        for i, v in spots.items():
            vals[i] = v
        out[name] = (RealSequence.from_values(vals), [0, 100, 150, 199, 200, 300, 399])
    zero = np.arange(50.0)
    zero[0] = -0.0
    out["-0.0"] = (RealSequence.from_values(zero), [0, 1, 49])
    out["-0.0 sparse"] = (sparse_sequence([0, 3, 9], [-0.0, 1.0, 2.0], "-0.0"), [0, 1, 30])
    source, ns = SCALAR_PATH_CASES["huge"]
    out["huge"] = (sparse_sequence(*source, "huge"), ns)
    out["1.002**n"] = (RealSequence.from_values(1.002 ** np.arange(20_001.0)), [150, 8000, 20_000])
    return out


class TestOneExit:
    """A lone row its first window cannot settle (n = 0, a non-finite peak,
    a rejected window) is one batch row over window(0, n), bit for bit."""

    @pytest.mark.parametrize("p", [0.05, 0.5, 0.9])
    def test_scalar_is_the_batch_row(self, monkeypatch, p):
        handed = count_handovers(monkeypatch)
        for name, (seq, ns) in one_exit_cases().items():
            for n in ns:
                del handed[:]
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = binomial_mean_at(seq, p, n)
                assert handed in ([], [[n]]), (name, n)
                if n == 0 or not math.isfinite(seq.peak(n)):
                    assert handed == [[n]], (name, n)
                ref = transforms._binomial_means_sparse(*seq.window(0, n), p, np.array([n]))[0]
                assert np.float64(got).tobytes() == ref.tobytes(), (name, n)
        assert math.copysign(1.0, binomial_mean_at(one_exit_cases()["-0.0"][0], p, 0)) == -1.0

    def test_cases_hand_over(self, monkeypatch):
        # the huge and 1.002**n cases reach the hand-over from a rejected
        # window, not only from row 0 or a non-finite peak
        handed = count_handovers(monkeypatch)
        widened = count_widened(monkeypatch)
        cases = one_exit_cases()
        assert binomial_mean_at(cases["huge"][0], 0.5, 1100) > 0.0
        assert handed == [[1100]]
        del handed[:]
        assert binomial_mean_at(cases["1.002**n"][0], 0.05, 150) > 0.0
        assert handed == []
        assert binomial_mean_at(cases["1.002**n"][0], 0.05, 20_000) > 0.0
        assert handed == [[20_000]] and 20_000 in widened


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
        with pytest.raises(ParameterDomainError):
            weights(True, 0.5)


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
