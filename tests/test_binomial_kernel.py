import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summakit import (
    ParameterDomainError,
    PMFParams,
    PreconditionError,
    center_ratio,
    chernoff_bound,
    mode_index,
    peak_asymptotic_ratio,
    pmf,
    pmf_row,
    tail_mass_outside,
)

from summakit import binomial_kernel
from summakit.binomial_kernel import (
    _LOG_FACTORIALS,
    _STIRLING_FROM,
    _log_factorial,
    _mode,
    _row_mass,
    _tail_row,
    _tail_seed,
    _unit_window,
    log_pmf,
    log_pmf_many,
)
from summakit.summation import compensated_cumsum, suffix_sums, two_sum

from oracles import pmf_exact_double, pmf_row_exact_doubles, tails_exact

P_GRID = [k / 10 for k in range(1, 10)]


class TestParams:
    @pytest.mark.parametrize("p", [0.0, 1.0, 1.5, -0.2, math.nan])
    def test_bad_p_rejected(self, p):
        with pytest.raises(ParameterDomainError):
            PMFParams(10, p)

    def test_bad_n_rejected(self):
        with pytest.raises(ParameterDomainError):
            PMFParams(-1, 0.5)
        with pytest.raises(ParameterDomainError):
            PMFParams(2.5, 0.5)

    def test_valid_accepted(self):
        params = PMFParams(0, 0.3)
        assert params.n == 0 and params.p == 0.3


class TestPmf:
    def test_empty_product(self):
        assert pmf(PMFParams(0, 0.3), 0) == 1.0

    @pytest.mark.parametrize("i", [2.5, -0.5, 10.5, math.nan, math.inf, np.float64(3.25)])
    def test_non_integer_index_rejected(self, i):
        # 2.5 used to give 0.3516, above the row's largest mass of 0.2461
        params = PMFParams(10, 0.5)
        for fn in (pmf, log_pmf):
            with pytest.raises(ParameterDomainError, match="index must be an integer"):
                fn(params, i)

    def test_integer_valued_indices_accepted(self):
        params = PMFParams(10, 0.5)
        want = pmf(params, 2)
        for i in (2.0, np.int64(2), np.uint8(2), np.float64(2.0)):
            assert pmf(params, i) == want
            assert log_pmf(params, i) == log_pmf(params, 2)
        assert pmf(params, -1.0) == pmf(params, 11.0) == 0.0

    def test_small_exact(self):
        assert math.isclose(pmf(PMFParams(4, 0.5), 2), 0.375, rel_tol=1e-13)

    def test_outside_support_is_exactly_zero(self):
        params = PMFParams(5, 0.4)
        assert pmf(params, -1) == 0.0
        assert pmf(params, 6) == 0.0
        assert pmf(params, 100) == 0.0

    def test_matches_exact_rational_oracle(self):
        got = pmf(PMFParams(300, 0.2), 60)
        ref = pmf_exact_double(300, 0.2, 60)
        assert abs(got - ref) <= 1e-12 * ref

    def test_relative_accuracy_grid(self):
        # exact-rational agreement across the support, up to n = 300
        for p in P_GRID:
            for n in list(range(1, 41)) + [50, 100, 150, 200, 250, 300]:
                ref = pmf_row_exact_doubles(n, p)
                params = PMFParams(n, p)
                for i in range(n + 1):
                    assert abs(pmf(params, i) - ref[i]) <= 1e-12 * ref[i]

    def test_huge_n_does_not_overflow(self):
        value = pmf(PMFParams(10_000_000, 0.5), 5_000_000)
        assert 0.0 < value < 1.0
        assert math.isfinite(value)


class TestLogFactorial:
    def test_table_is_correctly_rounded(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref = [float(mpmath.loggamma(k + 1)) for k in range(len(_LOG_FACTORIALS))]
        np.testing.assert_array_equal(_LOG_FACTORIALS, ref)

    def test_within_2_ulp_of_mpmath(self):
        # x = 0..5000 covers the table and the start of Stirling's series,
        # where log x's rounding, times x, weighs most
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(8)
        x = np.concatenate([np.arange(5001.0), np.floor(rng.uniform(5001, 1e7, 1000))])
        got = _log_factorial(x)
        with mpmath.workdps(40):
            for xi, gi in zip(x, got):
                exact = mpmath.loggamma(mpmath.mpf(xi) + 1)
                assert abs(gi - exact) <= 2 * math.ulp(float(exact)), xi


class TestLogPmfMany:
    def test_array_n_equals_scalar_calls(self):
        rng = np.random.default_rng(3)
        ns = np.sort(rng.integers(0, 3_000_000, 40))
        for p in (1e-6, 0.3, 0.5, 1 - 1e-6):
            rows = np.repeat(ns, 7)
            indices = (rng.random(rows.size) * (rows + 1)).astype(np.int64)
            got = log_pmf_many(rows, p, indices)
            ref = [log_pmf_many(int(n), p, [i])[0] for n, i in zip(rows, indices)]
            np.testing.assert_array_equal(got, ref)

    def test_grouped_rows_equal_per_term_calls(self):
        # the sparse kernel's blocks: one n per row, log n! taken once a row
        rng = np.random.default_rng(29)
        cut = int(_STIRLING_FROM)
        for trial in range(40):
            rows = rng.integers(1, 40)
            ns = np.concatenate([rng.integers(0, cut, rows), rng.integers(cut, 3_000_000, rows)])
            rng.shuffle(ns)
            counts = rng.integers(1, 30, ns.size)
            flat = np.repeat(ns, counts)
            indices = (rng.random(flat.size) * (flat + 1)).astype(np.int64)
            p = (1e-6, 0.3, 0.5, 1 - 1e-6)[trial % 4]
            got = log_pmf_many(ns, p, indices, _counts=counts)
            np.testing.assert_array_equal(got, log_pmf_many(flat, p, indices))
            ref = [log_pmf_many(int(n), p, [i])[0] for n, i in zip(flat, indices)]
            np.testing.assert_array_equal(got, ref)

    def test_array_n_broadcasts(self):
        ns = np.array([[10], [20], [30]])
        got = log_pmf_many(ns, 0.4, np.arange(5))
        assert got.shape == (3, 5)
        for r, n in enumerate((10, 20, 30)):
            np.testing.assert_array_equal(got[r], log_pmf_many(n, 0.4, np.arange(5)))

    def test_log_pmf_is_the_array_entry(self):
        # one formula: the scalar log mass is log_pmf_many's entry bit for bit
        for n in (0, 1, 7, 300, 2_000_000):
            for p in (1e-6, 0.3, 1 - 1e-6):
                for i in sorted({0, n // 3, mode_index(PMFParams(n, p)), n - 1, n} - {-1}):
                    assert log_pmf(PMFParams(n, p), i) == log_pmf_many(n, p, [i])[0]

    @pytest.mark.parametrize("n", [1_000, 100_000, 2_000_000, 10_000_000])
    def test_matches_mpmath_within_9_sigma(self, n):
        # log-gamma differences lose accuracy only through lgamma(n + 1)'s
        # own size: at most 8 of its ulps, at the mode and out to +-9 sigma
        mpmath = pytest.importorskip("mpmath")
        tol = 8 * math.ulp(math.lgamma(n + 1))
        with mpmath.workdps(40):
            for p in (0.3, 0.5):
                sigma = math.sqrt(n * p * (1 - p))
                for k in (-9, -4.5, -1, 0, 1, 4.5, 9):
                    i = round(n * p + k * sigma)
                    mp_p = mpmath.mpf(p)
                    exact = (
                        mpmath.loggamma(n + 1) - mpmath.loggamma(i + 1) - mpmath.loggamma(n - i + 1)
                        + i * mpmath.log(mp_p) + (n - i) * mpmath.log1p(-mp_p)
                    )
                    assert abs(log_pmf_many(n, p, [i])[0] - float(exact)) <= tol


class TestPmfRow:
    def test_tiny_rows(self):
        np.testing.assert_allclose(pmf_row(PMFParams(2, 0.5)).mass, [0.25, 0.5, 0.25], rtol=1e-13)
        np.testing.assert_allclose(pmf_row(PMFParams(1, 0.3)).mass, [0.7, 0.3], rtol=1e-13)

    def test_row_300_02(self):
        row = pmf_row(PMFParams(300, 0.2)).mass
        assert int(np.argmax(row)) == 60
        assert abs(row.sum() - 1.0) <= 1e-12
        ref = pmf_row_exact_doubles(300, 0.2)
        np.testing.assert_allclose(row, ref, rtol=1e-12)

    def test_row_entries_match_pmf(self):
        params = PMFParams(137, 0.37)
        row = pmf_row(params).mass
        for i in range(0, 138, 7):
            assert math.isclose(row[i], pmf(params, i), rel_tol=1e-12)

    def test_row_and_point_masses_differ_as_documented(self):
        # pmf_row takes ratio products, pmf log-space masses: the gap grows
        # like pmf's own error, about eps n ln n, and the row is the closer
        # to the exact masses
        params = PMFParams(50, 0.3)
        row = pmf_row(params).mass
        point = np.array([pmf(params, i) for i in range(51)])
        exact = pmf_row_exact_doubles(50, 0.3)
        assert np.count_nonzero(row != point) == 50
        assert np.max(np.abs(row - point) / point) <= 3.5e-14
        assert np.max(np.abs(row - exact) / exact) <= 15 * 2.0**-52
        assert np.max(np.abs(point - exact) / exact) >= 100 * 2.0**-52
        for n, p in ((300, 0.3), (1000, 0.5), (2999, 0.3)):
            params = PMFParams(n, p)
            row = pmf_row(params).mass
            point = np.array([pmf(params, i) for i in range(n + 1)])
            normal = point >= np.finfo(float).tiny
            gap = np.abs(row - point)[normal] / point[normal]
            assert gap.max() <= 2 * 2.0**-52 * n * math.log(n)

    def test_full_grid_sums_and_positivity(self):
        # every n up to 2000: sums within 1e-12, no negative entries
        for p in P_GRID:
            for n in range(1, 2001):
                mass = pmf_row(PMFParams(n, p)).mass
                assert mass.min() >= 0.0
                assert abs(mass.sum() - 1.0) <= 1e-12

    def test_unimodal_shape(self):
        for p in (0.1, 0.5, 0.9):
            for n in (1, 2, 17, 100, 999):
                mass = pmf_row(PMFParams(n, p)).mass
                m = int(np.argmax(mass))
                assert np.all(np.diff(mass[: m + 1]) >= 0.0)
                assert np.all(np.diff(mass[m:]) <= 0.0)

    @settings(deadline=None, max_examples=50)
    @given(n=st.integers(1, 500), p=st.floats(0.01, 0.99, exclude_min=True, exclude_max=True))
    def test_row_properties_random(self, n, p):
        mass = pmf_row(PMFParams(n, p)).mass
        assert mass.min() >= 0.0
        assert abs(mass.sum() - 1.0) <= 1e-12


def full_row_formula(n, p):
    # _row_mass over the whole row as it stood before the lo and hi bounds
    q = 1.0 - p
    mass = np.empty(n + 1)
    m = int(_mode(n, p))
    mass[m] = 1.0
    np.cumprod((n + 1.0 - np.arange(m + 1, n + 1, dtype=float)) * p
               / (np.arange(m + 1, n + 1, dtype=float) * q), out=mass[m + 1 :])
    down = np.arange(m, 0, -1, dtype=float)
    np.cumprod(down * q / ((n + 1.0 - down) * p), out=mass[:m][::-1])
    mass /= mass.sum()
    return mass


def compare_slice(n, p):
    """compare's trial count and index range for the row of p at n."""
    return int(n / p), max(0, math.floor(n - 5.0 * math.sqrt(n))), math.ceil(n + 5.0 * math.sqrt(n))


SLICE_PROBS = (0.05, 0.2, 0.5, 0.85, 0.97, 0.99)
EPS = 2.0**-52


class TestRowSlice:
    def test_default_bounds_equal_the_full_row_formula(self):
        for n, p in [(0, 0.3), (1, 0.5), (2, 0.5), (137, 0.37), (3001, 0.9), (200_000, 0.2)]:
            want = full_row_formula(n, p)
            for got in (_row_mass(n, p), _row_mass(n, p, lo=0, hi=n), pmf_row(PMFParams(n, p)).mass):
                assert got.tobytes() == want.tobytes(), (n, p)

    @pytest.mark.parametrize("n", [0, 1, 9, 60, 300, 2000, 40_000, 200_000])
    def test_within_8_eps_of_the_full_row_slice(self, n):
        # n = 0 and 1 keep the window over the whole row; q = 0.99 puts
        # n + 5 sqrt(n) past the window, and past the row's last trial
        for p in SLICE_PROBS:
            N, lo, hi = compare_slice(n, p)
            got, want = _row_mass(N, p, lo=lo, hi=hi), _row_mass(N, p)[lo : hi + 1]
            assert got.size == want.size == max(0, min(hi, N) - lo + 1)
            assert np.all(np.abs(got - want) <= 8 * EPS * want), (n, p)

    def test_window_covering_the_row_is_the_full_row(self):
        for n, p in [(9, 0.4), (9, 0.7), (60, 0.5)]:
            N, lo, hi = compare_slice(n, p)
            assert _row_mass(N, p, lo=lo, hi=hi).tobytes() == _row_mass(N, p)[lo : hi + 1].tobytes()

    def test_bounds_past_the_last_trial_are_empty(self):
        assert _row_mass(303, 0.99, lo=304, hi=330).size == 0

    def test_small_n_matches_exact_rationals(self):
        # every span at n >= 100 stops short of 0 or N
        for n in (40, 100, 150):
            for p in SLICE_PROBS:
                N, lo, hi = compare_slice(n, p)
                got = _row_mass(N, p, lo=lo, hi=hi)
                ref = [pmf_exact_double(N, p, i) for i in range(lo, lo + got.size)]
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    def test_failed_certificate_builds_the_full_row(self, monkeypatch):
        from summakit import binomial_kernel

        n, p = 40_000, 0.3
        m = int(_mode(n, p))
        lo, hi = m - 5, m + 5
        full_rows = []

        def counted(*args, **kwargs):
            full_rows.append((args, kwargs))
            return _row_mass(*args, **kwargs)

        monkeypatch.setattr(binomial_kernel, "_row_mass", counted)
        _row_mass(n, p, lo=lo, hi=hi)
        assert full_rows == []
        # a window of 0: the span is the slice alone, which drops most mass
        monkeypatch.setattr(binomial_kernel, "_window_halfwidth", lambda n, p: 0.0)
        got = _row_mass(n, p, lo=lo, hi=hi)
        assert full_rows == [((n, p), {})]
        assert got.tobytes() == _row_mass(n, p)[lo : hi + 1].tobytes()


def modes_scalar(ns, p):
    return [mode_index(PMFParams(n, p)) for n in ns]


def modes_vectorised(ns, p):
    return _mode(np.array(ns, dtype=float), p).astype(np.int64).tolist()


MODES = (modes_scalar, modes_vectorised)


class TestMode:
    def test_examples(self):
        for modes in MODES:
            assert modes([300], 0.2) == [60]
            assert modes([1, 4], 0.5) == [0, 2]  # n = 1: tie broken downward
            assert modes([0], 1e-300) == [0]
            # (n+1)p rounds up to n + 1; the tie rule keeps the mode at n
            assert modes([2**20], 1.0 - 2.0**-53) == [2**20]

    def test_matches_argmax(self):
        # odd n at p = 0.5, and n = 4, 99 at p = 0.2, put (n+1)p on an integer
        ns = [1, 3, 4, 7, 17, 99, 250, 300]
        for p in P_GRID:
            rows = [pmf_row(PMFParams(n, p)).mass for n in ns]
            for modes in MODES:
                for row, m in zip(rows, modes(ns, p)):
                    assert row[m] >= row.max() * (1.0 - 1e-12)
                    assert np.all(row[:m] <= row[m] * (1.0 + 1e-12))

    def test_dyadic_ties_break_downward(self):
        # (n+1) p an exact integer: the two top masses tie, smaller index wins
        for n, p in [(3, 0.5), (7, 0.25), (15, 0.5), (99, 0.5), (4, 0.2)]:
            row = pmf_row(PMFParams(n, p)).mass
            for modes in MODES:
                (m,) = modes([n], p)
                assert (n + 1) * p == m + 1
                assert math.isclose(row[m], row[m + 1], rel_tol=1e-12)


class TestTailMass:
    def test_radius_zero_is_everything(self):
        assert abs(tail_mass_outside(PMFParams(10, 0.5), 0.0) - 1.0) <= 1e-12

    def test_small_support_all_inside(self):
        assert tail_mass_outside(PMFParams(2, 0.5), 1.5) == 0.0

    def test_negative_radius_rejected(self):
        with pytest.raises(ParameterDomainError):
            tail_mass_outside(PMFParams(10, 0.5), -1.0)

    @pytest.mark.parametrize("radius", [math.nan, np.float64(math.nan), np.array(math.nan)])
    def test_nan_radius_rejected(self, radius):
        # NaN >= r is false for every r: it used to select no mass and return 0
        with pytest.raises(ParameterDomainError):
            tail_mass_outside(PMFParams(10, 0.5), radius)

    def test_matches_exact_summation(self):
        n, p, radius = 400, 0.5, 40.0
        got = tail_mass_outside(PMFParams(n, p), radius)
        ref = pmf_row_exact_doubles(n, p)
        dist = np.abs(np.arange(n + 1) - n * p)
        expected = math.fsum(ref[dist >= radius])
        assert abs(got - expected) <= 1e-13
        assert got <= 2.0 * math.exp(-(8.0 / 3.0))


# _tail_row's slot holding no row
EMPTY_SLOT = (-1, 0.0, None, None, 0.0, 0, None, None)


def uncached_tail(n, p, radius):
    """tail_mass_outside from a fresh slot (a seed and its steps); the slot
    is left as it is."""
    with mock.patch.object(binomial_kernel, "_tail_slot", EMPTY_SLOT):
        return tail_mass_outside(PMFParams(n, p), radius)


class TestTailMassSweeps:
    def test_array_equals_scalar_loop(self):
        for n, p in [(0, 0.3), (1, 0.5), (400, 0.5), (2000, 0.17), (1999, 0.9)]:
            params = PMFParams(n, p)
            radii = np.concatenate([[0.0, 0.25, math.inf], np.sqrt(n) * np.arange(0.5, 6.0, 0.5)])
            got = tail_mass_outside(params, radii)
            assert isinstance(got, np.ndarray) and got.shape == radii.shape
            loop = [tail_mass_outside(params, float(r)) for r in radii]
            assert np.array_equal(got, loop)
            grid = radii[:12].reshape(3, 4)
            assert np.array_equal(tail_mass_outside(params, grid), got[:12].reshape(3, 4))
            zero_d = [tail_mass_outside(params, np.array(r)) for r in radii]
            assert all(type(t) is float for t in zero_d) and zero_d == loop
            ints = range(0, n + 2, max(1, n // 7))
            assert [tail_mass_outside(params, k) for k in ints] == [
                tail_mass_outside(params, float(k)) for k in ints
            ]

    def test_scalar_returns_float(self):
        got = tail_mass_outside(PMFParams(50, 0.4), 3)
        assert type(got) is float
        assert got == uncached_tail(50, 0.4, 3.0)

    def test_negative_radius_in_array_rejected(self):
        with pytest.raises(ParameterDomainError):
            tail_mass_outside(PMFParams(10, 0.5), np.array([1.0, -0.5]))

    def test_nan_radius_in_array_rejected(self):
        with pytest.raises(ParameterDomainError):
            tail_mass_outside(PMFParams(10, 0.5), np.array([[1.0, 2.0], [math.nan, 0.5]]))

    def test_interleaved_calls_match_uncached(self):
        pairs = [(300, 0.2), (301, 0.2), (300, 0.7), (300, 0.2), (5, 0.5), (301, 0.2)]
        with mock.patch.object(binomial_kernel, "_tail_slot", EMPTY_SLOT):
            for n, p in pairs * 2:
                for radius in (0.0, 1.5, 7.0, 30.0):
                    got = tail_mass_outside(PMFParams(n, p), radius)
                    assert got == uncached_tail(n, p, radius)

    def test_cached_row_is_read_only(self):
        tail_mass_outside(PMFParams(121, 0.35), 4.0)  # a stepped row
        left, right = _tail_row(121, 0.35)
        slot = binomial_kernel._tail_slot
        assert slot[2] is left and slot[3] is right  # read from the slot, not rebuilt
        with pytest.raises(ValueError):
            left[0] = 1.0
        with pytest.raises(ValueError):
            right[:] = 0.0
        assert tail_mass_outside(PMFParams(121, 0.35), 4.0) == uncached_tail(121, 0.35, 4.0)

    def test_p_alone_changes_the_slot_row(self):
        # one n at p = 0.3, 0.7 and 0.3 again, an array call in between:
        # the slot's n matches throughout, so only p tells the rows apart
        n, radii = 1501, [0.0, 2.0, 9.5, 20.0, 38.0, math.inf]
        fresh = {p: [uncached_tail(n, p, r) for r in radii] for p in (0.3, 0.7)}
        with mock.patch.object(binomial_kernel, "_tail_slot", EMPTY_SLOT):
            for p in (0.3, 0.7, 0.3):
                params = PMFParams(n, p)
                assert [tail_mass_outside(params, r) for r in radii] == fresh[p], p
                assert tail_mass_outside(params, np.array(radii)).tolist() == fresh[p], p
                assert [tail_mass_outside(params, r) for r in radii] == fresh[p], p

    def test_rows_do_not_depend_on_call_history(self):
        # rows n0 - 1 .. n0 + 4 of seed n0 = 2996 reach three seeds; each
        # visit order, with rows of a second p in between, reads every row
        # from the slot, from a step of it or from a new seed
        rows, p, other = range(2995, 3001), 0.3, 0.71
        alphas = np.arange(0.5, p * math.sqrt(rows[0]), 0.5)
        fresh = {n: [uncached_tail(n, p, float(math.sqrt(n) * a)) for a in alphas] for n in rows}
        shuffled = list(rows)
        np.random.default_rng(5).shuffle(shuffled)
        with mock.patch.object(binomial_kernel, "_tail_slot", EMPTY_SLOT):
            for order in (list(rows), list(rows)[::-1], shuffled):
                for n in order:
                    got = [tail_mass_outside(PMFParams(n, p), float(math.sqrt(n) * a)) for a in alphas]
                    assert got == fresh[n], n
                    radii = np.sqrt(n) * alphas
                    assert np.array_equal(tail_mass_outside(PMFParams(n, p), radii), fresh[n])
                    if n % 2:
                        tail_mass_outside(PMFParams(n, other), 3.0)


# the acceptance grid of the tail tests: radii 0, 0.25, criterion 4's
# alpha sqrt(n) for alpha = 0.5, 1, ... below p sqrt(n), the far tail
# n max(p, q) - 0.5 (the outermost index or two), and inf
TAIL_NS = (0, 1, 2, 5, 17, 60, 300, 1000, 2999)
TAIL_PS = (1 / 64, 0.1, 0.3, 0.5, 0.77, 61 / 64)
# a masked pairwise sum over _row_mass's row is off by up to 7.49e-14 on
# this grid, at n = 2999, p = 0.3 (the row's drift, see _tail_seed); the
# corrected sorted table measured 5.6e-15 there, the stepped tables 6.6e-15
TAIL_REL_BOUND = 7.5e-14


def tail_radii(n, p):
    alphas = np.arange(0.5, p * math.sqrt(n), 0.5)
    far = [n * max(p, 1.0 - p) - 0.5] if n else []
    return [0.0, 0.25, *(math.sqrt(n) * alphas).tolist(), *far, math.inf]


class TestTailAccuracy:
    def test_matches_exact_tails(self):
        # relative error where the exact tail is a normal double; below
        # 2**-1022 an absolute one of two subnormal units per index
        worst = 0.0
        for n in TAIL_NS:
            for p in TAIL_PS:
                radii = tail_radii(n, p)
                got = tail_mass_outside(PMFParams(n, p), np.array(radii))
                nums, den = tails_exact(n, p, radii)
                for g, num in zip(got.tolist(), nums):
                    a, b = g.as_integer_ratio()
                    gap = abs(a * den - num * b)
                    if num * 2**1022 >= den:
                        worst = max(worst, gap / (num * b))
                    else:
                        assert gap / (den * b) <= (n + 1) * 2.0**-1073, (n, p, g)
        assert worst <= TAIL_REL_BOUND

    def test_stepped_rows_match_exact_tails(self):
        # offsets 0..3 from seed 2996: the seed and one to three steps
        for n in range(2996, 3000):
            for p in (0.1, 0.3, 61 / 64):
                radii = tail_radii(n, p)
                got = uncached_tail(n, p, np.array(radii))
                nums, den = tails_exact(n, p, radii)
                for g, num in zip(got.tolist(), nums):
                    a, b = g.as_integer_ratio()
                    gap = abs(a * den - num * b)
                    if num * 2**1022 >= den:  # as in test_matches_exact_tails
                        assert gap / (num * b) <= TAIL_REL_BOUND, (n, p, g)
                    else:
                        assert gap / (den * b) <= (n + 1) * 2.0**-1073, (n, p, g)

    def test_edges_and_monotone(self):
        for n in TAIL_NS:
            for p in TAIL_PS:
                params = PMFParams(n, p)
                radii = sorted(tail_radii(n, p))
                tails = [tail_mass_outside(params, r) for r in radii]
                assert all(b <= a for a, b in zip(tails, tails[1:])), (n, p)
                assert tail_mass_outside(params, math.inf) == 0.0
                assert abs(tail_mass_outside(params, 0.0) - 1.0) <= 1e-12


@pytest.mark.parametrize("n", [0, 1, 2, 3, 600, 1500, 2996])
@pytest.mark.parametrize("p", [0.3, 0.5, 0.9, 61 / 64])
def test_seed_has_the_bits_of_the_two_scans(n, p):
    # the one two-row scan against compensated_cumsum and suffix_sums of
    # the seed's masses, each divided by the compensated total
    m = int(_mode(n, p))
    w, _ = _unit_window(n, m, p, m, n - m)
    q, e = two_sum(1.0, -p)
    if e:
        w *= 1.0 - (np.arange(n + 1.0) - n * p) * (e / q)
    left, right = _tail_seed(n, p)
    total = compensated_cumsum(w)[-1]
    assert np.array_equal(left, compensated_cumsum(w) / total)
    assert np.array_equal(right, suffix_sums(w) / total)
    assert not (left.flags.writeable or right.flags.writeable)


class TestTailInputs:
    PARAMS = PMFParams(300, 0.3)

    @pytest.mark.parametrize(
        "radius, entry",
        [(7, 7.0), (7.5, 7.5), (np.float64(7.5), 7.5), (np.array(7.5), 7.5), (-0.0, -0.0),
         (np.float64(-0.0), 0.0), (0, 0.0)],
    )
    def test_scalar_kinds_match_array_entry(self, radius, entry):
        got = tail_mass_outside(self.PARAMS, radius)
        assert type(got) is float
        row = tail_mass_outside(self.PARAMS, np.array([1.0, entry, 30.0]))
        assert got == row[1] and math.copysign(1.0, got) == 1.0

    # NaN of every kind and negative floats are in TestTailMass and
    # TestTailMassSweeps
    @pytest.mark.parametrize(
        "radius", [-1, np.float64(-1e-300), np.array(-2.0), np.array([[0.5, 1.0], [3.0, -0.5]])]
    )
    def test_negative_radius_of_any_kind_rejected(self, radius):
        with pytest.raises(ParameterDomainError):
            tail_mass_outside(self.PARAMS, radius)

    @pytest.mark.parametrize("n", [0, 1, 5, 7, 17, 60])
    @pytest.mark.parametrize("p", [0.1, 1 / 3, 0.7, 61 / 64])
    def test_boundary_radii_select_the_distance_set(self, n, p):
        # every double distance |i - n p| and its neighbours (on the right
        # fl(i - n p) rounds: at n = 7, p = 0.1 the distance of 7 is 6.3
        # rounded), against the exact tail of the set the distances select
        # and against the table entries of its two runs, bit for bit
        params = PMFParams(n, p)
        dist = np.abs(np.arange(n + 1.0) - n * p)
        near = [math.nextafter(d, side) for d in dist.tolist() for side in (-math.inf, math.inf)]
        radii = [d for d in [*dist.tolist(), *near] if d >= 0.0] + [0.0, -0.0, math.inf, 1e300]
        got = tail_mass_outside(params, np.array(radii))
        left, right = _tail_row(n, p)
        k = math.ceil(n * p)
        nums, den = tails_exact(n, p, radii)
        for r, g, num in zip(radii, got.tolist(), nums):
            assert tail_mass_outside(params, r) == g
            sel = dist >= r
            a, b = int(sel[:k].sum()) - 1, n + 1 - int(sel[k:].sum())
            assert sel[: a + 1].all() and sel[b:].all()  # two runs, 0..a and b..n
            assert g == (left[a] if a >= 0 else 0.0) + (right[b] if b <= n else 0.0), r
            x, y = g.as_integer_ratio()
            assert (num == x == 0) or abs(x * den - num * y) / (num * y) <= TAIL_REL_BOUND, (r, g)

    def test_sweep_builds_its_table_once(self):
        # rows 1..3 of seed 2500 take one seed and a step each, row 2504 seeds
        seeds = mock.patch.object(binomial_kernel, "_tail_seed", wraps=binomial_kernel._tail_seed)
        steps = mock.patch.object(binomial_kernel, "_tail_step", wraps=binomial_kernel._tail_step)
        counts = []
        with mock.patch.object(binomial_kernel, "_tail_slot", EMPTY_SLOT), seeds as seed, steps as step:
            for n in range(2501, 2505):
                for alpha in np.arange(1, 41) * 0.25:
                    tail_mass_outside(PMFParams(n, 0.37), math.sqrt(n) * float(alpha))
                counts.append((seed.call_count, step.call_count))
        assert counts == [(1, 1), (1, 2), (1, 3), (2, 3)]

    def test_table_is_two_read_only_doubles_per_index(self):
        n = 777
        tail_mass_outside(PMFParams(n, 0.61), 3.0)
        for table in _tail_row(n, 0.61):
            owner = table if table.base is None else table.base
            assert table.dtype == np.float64 and owner.nbytes == 8 * (n + 1)
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0.0


class TestChernoff:
    def test_formula_value(self):
        got = chernoff_bound(PMFParams(100, 0.5), 3.0)
        assert math.isclose(got, 2.0 * math.exp(-6.0), rel_tol=1e-15)

    def test_precondition_boundary(self):
        params = PMFParams(100, 0.5)  # p sqrt(n) = 5
        assert chernoff_bound(params, 4.999999) > 0.0
        with pytest.raises(PreconditionError):
            chernoff_bound(params, 5.0)
        with pytest.raises(PreconditionError):
            chernoff_bound(params, 0.0)

    def test_dominates_tail(self):
        params = PMFParams(2000, 0.2)
        alpha = 2.0
        bound = chernoff_bound(params, alpha)
        assert math.isclose(bound, 2.0 * math.exp(-20.0 / 3.0), rel_tol=1e-15)
        assert tail_mass_outside(params, math.sqrt(2000) * alpha) <= bound


class TestCenterRatio:
    def test_identical_indices(self):
        assert center_ratio(PMFParams(100, 0.5), 0) == 1.0

    def test_examples_respect_bound(self):
        r = center_ratio(PMFParams(10_000, 0.5), 50)
        assert 1.0 <= r <= math.e * (1.0 + 1e-9)
        r = center_ratio(PMFParams(10_000, 0.2), -30)
        assert r <= math.exp(900.0 / 1600.0) * (1.0 + 1e-9)

    @pytest.mark.parametrize("beta", [8.5, -3.5])
    def test_non_integer_beta_rejected(self, beta):
        # 8.5 used to give 0.00717, the ratio to a mass between two indices
        with pytest.raises(ParameterDomainError, match="index must be an integer"):
            center_ratio(PMFParams(400, 0.5), beta)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, 8.5])
    def test_beta_named_when_rejected(self, beta):
        # NaN and -inf used to read "denominator index nan falls outside the
        # support", and 8.5 was reported as index 191.5
        with pytest.raises(ParameterDomainError, match="beta"):
            center_ratio(PMFParams(400, 0.5), beta)

    def test_integer_valued_beta_accepted(self):
        params = PMFParams(400, 0.5)
        want = center_ratio(params, 8)
        assert center_ratio(params, 8.0) == center_ratio(params, np.int32(8)) == want

    def test_out_of_support_rejected(self):
        with pytest.raises(PreconditionError):
            center_ratio(PMFParams(10, 0.5), 10)  # denominator index -5
        with pytest.raises(PreconditionError):
            center_ratio(PMFParams(10, 0.5), -7)  # denominator index 12

    def test_bound_on_asserted_region(self):
        # the exponential bound is promised for n >= 100 and 8 <= |beta| <= sqrt(n)
        for n in (100, 400, 2500, 10_000):
            for p in (0.2, 0.5, 0.8):
                params = PMFParams(n, p)
                root = int(math.sqrt(n))
                for b in {8, root // 2, root}:
                    if b < 8:
                        continue
                    for beta in (b, -b):
                        if not 0 <= math.floor(n * p) - beta <= n:
                            continue
                        bound = math.exp(beta * beta / (p * (1 - p) * n))
                        assert center_ratio(params, beta) <= bound * (1.0 + 1e-9)


class TestPeak:
    def test_small_n_exact_oracle(self):
        got = peak_asymptotic_ratio(PMFParams(10, 0.5))
        ref = math.sqrt(2.0 * math.pi * 2.5) * math.comb(10, 5) / 1024.0
        assert math.isclose(got, ref, rel_tol=1e-12)

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.7])
    def test_approaches_one(self, p):
        assert abs(peak_asymptotic_ratio(PMFParams(10_000, p)) - 1.0) <= 0.01

    def test_requires_positive_n(self):
        with pytest.raises(PreconditionError):
            peak_asymptotic_ratio(PMFParams(0, 0.5))
