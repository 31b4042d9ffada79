import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from summakit import GeneratorSpec, cesaro_prefix, estimate_limit, run_table1, sequence_from_spec
from summakit.summation import running_mean, suffix_sums
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


def test_overflowing_cesaro_means_diverge():
    spec = GeneratorSpec("geometric", a=3.0)
    # the data's sum overflows at n = 646, and still warns
    with pytest.warns(RuntimeWarning, match="overflow"):
        means = cesaro_prefix(sequence_from_spec(spec), 700).values
    assert np.isposinf(means[646:]).all() and np.isfinite(means[:646]).all()
    assert estimate_limit(means).status == "diverges_to_infinity"
    report = run_table1(0.3, 0.6, 700, families=[spec])
    assert report.verdicts[spec.label]["cesaro"].status == "diverges_to_infinity"
