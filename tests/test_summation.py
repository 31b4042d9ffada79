import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from summakit import (
    GeneratorSpec,
    RealSequence,
    binomial_prefix,
    cesaro_prefix,
    estimate_limit,
    pstar_prefix,
    run_table1,
    sequence_from_spec,
)
from hypothesis import given
from hypothesis import strategies as st

from summakit.summation import (
    compensated_cumsum,
    power_dd,
    running_mean,
    suffix_sums,
    two_product,
    two_sum,
)
from summakit.binomial_kernel import _row_mass

U = Fraction(1, 2**53)


def exact_prefixes(values):
    """Exact prefix sums S_k and sums of |v| A_k of the given doubles."""
    s, a, sums, abs_sums = Fraction(0), Fraction(0), [], []
    for v in values.tolist():
        s += Fraction(v)
        a += abs(Fraction(v))
        sums.append(s)
        abs_sums.append(a)
    return sums, abs_sums


def sum2_bound(k, s, a):
    """Sum2's bound for k+1 terms: u |S| + gamma_k**2 * sum |v|."""
    gamma = k * U / (1 - k * U)
    return U * abs(s) + gamma**2 * a


def assert_mean_bounds(values, means):
    """Every mean within Sum2's bound on its prefix sum plus one rounding of
    the division."""
    exact, abs_sums = exact_prefixes(values)
    for k, (s, a) in enumerate(zip(exact, abs_sums)):
        bound = sum2_bound(k, s, a)
        mean_bound = (bound + U * (abs(s) + bound)) / (k + 1)
        assert abs(Fraction(means[k]) - s / (k + 1)) <= mean_bound, k


def assert_suffix_bounds(values, got):
    """got[k] within Sum2's bound on the exact sum of values[k:]."""
    exact, abs_sums = exact_prefixes(values[::-1].copy())
    n = len(values)
    for k in range(n):
        j = n - 1 - k  # values[k:] reversed is a prefix of j + 1 terms
        assert abs(Fraction(got[k]) - exact[j]) <= sum2_bound(j, exact[j], abs_sums[j]), k


def ill_conditioned():
    """10,000 values of mixed signs at scales 10**-8 to 10**7."""
    rng = np.random.default_rng(2)
    return (rng.random(10_000) - 0.3) * 10.0 ** rng.integers(-8, 8, size=10_000)


def test_running_mean_within_sum2_bound_on_ill_conditioned_input():
    values = ill_conditioned()
    assert_mean_bounds(values, running_mean(values))


def test_suffix_sums_within_sum2_bound_on_ill_conditioned_input():
    values = ill_conditioned()
    assert_suffix_bounds(values, suffix_sums(values))


def test_running_mean_tracks_exact_means_at_every_index():
    rng = np.random.default_rng(4)
    values = rng.random(5000)
    assert_mean_bounds(values, running_mean(values))


def test_suffix_sums_right_to_left():
    values = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(suffix_sums(values), [6.0, 5.0, 3.0], rtol=0, atol=0)


def test_suffix_sums_accuracy_at_every_index():
    rng = np.random.default_rng(6)
    values = rng.random(3000) * 1e-6
    assert_suffix_bounds(values, suffix_sums(values))


def test_suffix_sums_keep_the_right_tail_of_a_pmf_row():
    # the survival function behind weights(3000, 0.9): its right tail falls
    # to 0.9**3001, so only a relative bound at every index is meaningful
    mass = _row_mass(3001, 0.9)[1:]
    got = suffix_sums(mass)
    assert got[-1] == mass[-1] > 0.0
    assert_suffix_bounds(mass, got)


def test_empty_input_gives_empty_output():
    for f in (running_mean, suffix_sums):
        out = f([])
        assert isinstance(out, np.ndarray) and out.shape == (0,)


def test_infinite_term_stays_infinite():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(running_mean([1.0, math.inf, 3.0]), [1.0, math.inf, math.inf])
        np.testing.assert_array_equal(suffix_sums([1.0, math.inf, 3.0]), [math.inf, math.inf, 3.0])


def test_opposite_infinities_make_nan():
    # inf + -inf is the data's own invalid operation, and warns
    with pytest.warns(RuntimeWarning):
        means = running_mean([1.0, math.inf, -math.inf, 2.0])
    np.testing.assert_array_equal(means, [1.0, math.inf, math.nan, math.nan])
    with pytest.warns(RuntimeWarning):
        sums = suffix_sums([1.0, math.inf, -math.inf, 2.0])
    np.testing.assert_array_equal(sums, [math.nan, math.nan, -math.inf, 2.0])


@pytest.mark.parametrize("j", [0, 3, 7])
def test_nan_term_propagates(j):
    values = np.arange(1.0, 9.0)
    values[j] = math.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        means = running_mean(values)
        sums = suffix_sums(values)
    np.testing.assert_array_equal(means[:j], running_mean(values[:j]))
    assert np.isnan(means[j:]).all()
    assert np.isnan(sums[: j + 1]).all()
    np.testing.assert_array_equal(sums[j + 1 :], suffix_sums(values[j + 1 :]))


def test_rows_of_a_2d_scan_keep_their_1d_bits():
    # one finite row of ill-conditioned terms beside rows with an inf, a
    # NaN and inf - inf: each finite row keeps its compensation, and each
    # row equals its own 1-D scan bit for bit
    rng = np.random.default_rng(9)
    rows = np.stack([rng.standard_normal(40) * 10.0 ** rng.integers(-8, 9, 40) for _ in range(4)])
    rows[1, 5], rows[2, 30] = math.inf, math.nan
    rows[3, 7], rows[3, 8] = math.inf, -math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the inf - inf row's own
        got = compensated_cumsum(rows)
        want = [compensated_cumsum(row) for row in rows]
    for row, one in zip(got, want):
        np.testing.assert_array_equal(row, one)
    assert not np.array_equal(got[0], np.cumsum(rows[0]))  # compensated


HUGE_TERMS = [
    np.full(5, 1e308),
    np.full(7, np.finfo(float).max),
    np.array([1.7e308, -1e308, 1.7e308, 1.7e308, 3e-300, -1.7e308, 1.7e308]),
    np.random.default_rng(4).uniform(1e307, 1.79e308, 600),
    np.random.default_rng(5).uniform(-1.0, 1.0, 600) * 1.79e308,
]


def check_running_means(terms, means):
    """Each mean within one rounding of sum |terms| / (n + 1) of the exact
    mean of the terms."""
    assert np.isfinite(means).all()
    total, scale = Fraction(0), Fraction(0)
    for n, term in enumerate(terms):
        total += Fraction(term)
        scale += abs(Fraction(term))
        assert abs(Fraction(means[n]) - total / (n + 1)) <= Fraction(2.0**-52) * scale / (n + 1), n


@pytest.mark.parametrize("values", HUGE_TERMS)
def test_cesaro_means_of_huge_finite_terms(values):
    # the running sums pass the double range, the means of finite terms
    # cannot
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        means = cesaro_prefix(RealSequence.from_values(values), len(values) - 1).values
    check_running_means(values, means)


@pytest.mark.parametrize("values", HUGE_TERMS)
def test_pstar_means_of_huge_finite_terms(values):
    # the Cesaro means of binomial means near 1e308, DBL_MAX included
    seq = RealSequence.from_values(values)
    binomial = binomial_prefix(seq, 0.3, len(values) - 1).values
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        means = pstar_prefix(seq, 0.3, len(values) - 1).values
    check_running_means(binomial, means)


def test_plain_means_keep_their_bits():
    # a sum that stays in range takes the one plain scan: the scaled one is
    # only taken from the first sum that passes the double range
    values = np.random.default_rng(6).uniform(-1.0, 1.0, 1000) * 1e300
    plain = compensated_cumsum(values) / np.arange(1, 1001)
    assert running_mean(values).tobytes() == plain.tobytes()
    values[700:] = 1.79e308
    with np.errstate(over="ignore"):
        head = compensated_cumsum(values) / np.arange(1, 1001)
    first = int(np.isfinite(head).argmin())
    assert 700 < first < 1000
    means = running_mean(values)
    assert means[:first].tobytes() == head[:first].tobytes() and np.isfinite(means).all()


def test_overflowing_cesaro_means_diverge():
    spec = GeneratorSpec("geometric", a=3.0)
    # the sum of the finite terms passes the double range at n = 646, where
    # the mean is still finite; the terms are +inf from n = 647 on
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seq = sequence_from_spec(spec)
        means = cesaro_prefix(seq, 700).values
    assert np.isposinf(means[647:]).all() and np.isfinite(means[:647]).all()
    exact = sum(map(Fraction, seq.prefix(646))) / 647
    assert abs(Fraction(means[646]) - exact) <= Fraction(2.0**-52) * exact
    assert estimate_limit(means).status == "diverges_to_infinity"
    report = run_table1(0.3, 0.6, 700, families=[spec])
    assert report.verdicts[spec.label]["cesaro"].status == "diverges_to_infinity"


finite = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)


@given(finite, finite)
def test_two_sum_is_exact(a, b):
    s, err = two_sum(a, b)
    assert s == a + b and Fraction(s) + Fraction(err) == Fraction(a) + Fraction(b)


@given(st.floats(-1e150, 1e150), st.floats(-1e150, 1e150))
def test_two_product_is_exact(a, b):
    x, err = two_product(a, b)
    exact = Fraction(a) * Fraction(b)
    if abs(exact) >= 2.0**-960 or exact == 0:  # an error term can be subnormal below
        assert x == a * b and Fraction(x) + Fraction(err) == exact


@pytest.mark.parametrize(
    "hi, lo, top",
    [
        (0.75 + 2.0**-30, 2.0**-60, 100_000),  # needs its low part
        (0.3 * 0.9 + 0.7, -2.0**-56, 100_000),  # a geometric base q + p a
        (0.55, 0.0, 4095),
        (1.0 - 2.0**-40, 2.0**-95, 4095),  # close to 1
        (1e-3, 1e-21, 4095),  # far below 1
    ],
)
def test_power_dd_matches_exact_powers(hi, lo, top):
    # squarings double the relative error already present: about n * 2**-102
    ns = np.array([top, 0, 1, 2, 3, 7, 1000, 3])
    m_hi, m_lo, e = power_dd(hi, lo, ns)
    base = Fraction(hi) + Fraction(lo)
    assert np.all((0.5 <= m_hi) & (m_hi < 1.0)) and np.all(np.abs(m_lo) <= 2.0**-53)
    num, den = base.numerator, base.denominator  # den is a power of 2
    for n, a, b, k in zip(ns.tolist(), m_hi, m_lo, e.tolist()):
        got = Fraction(a) + Fraction(b)  # times 2**k
        exact_num, exact_den = num**n, den**n
        # |got 2**k - exact| / exact, scaled by powers of two only
        lhs = got.numerator * exact_den
        rhs = exact_num * got.denominator
        lhs, rhs = (lhs << k, rhs) if k >= 0 else (lhs, rhs << -k)
        assert abs(lhs - rhs) << 100 <= max(n, 1) * rhs


def test_power_dd_keeps_underflowing_powers():
    # 0.1**20000 is far below the double range; its mantissa stays exact
    m_hi, m_lo, e = power_dd(0.1, 0.0, np.array([20_000]))
    exact = Fraction(0.1) ** 20_000
    got = (Fraction(m_hi[0]) + Fraction(m_lo[0])) * Fraction(2) ** int(e[0])
    assert abs(got - exact) <= 20_000 * Fraction(1, 2**100) * exact
