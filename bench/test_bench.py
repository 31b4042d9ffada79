"""Tiny-size runs of the benchmark and checks of its references.

Every workload must report every metric BENCHMARK.json names, with its unit;
a deliberately perturbed program output must be counted as a failure; and
the 40-digit references must agree with the exact-rational oracles.
"""

import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TINY = dict(seconds=1, scale=0.02, setup_runs=1)
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _restore_environ():
    # load_program pins SUMMAKIT_THREADS; keep that out of other tests
    saved = dict(os.environ)
    yield
    os.environ.clear()
    os.environ.update(saved)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,group", [(False, "end_to_end"), (True, "per_layer")])
def test_tiny_run_reports_every_metric(workload, trace, group):
    result, facts = run.benchmark(workload, 5, trace=trace, **TINY)
    assert result["correct"] and result["failed"] == 0, facts["failures"]
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_perturbed_output_is_counted_as_failed(monkeypatch):
    cli = run.load_program()
    original = cli.binomial_prefix

    def perturbed(*args, **kwargs):
        prefix = original(*args, **kwargs)
        return dataclasses.replace(prefix, values=prefix.values * (1.0 + 1e-6))

    clean, _ = run.benchmark("dense_grid", 5, trace=False, **TINY)
    monkeypatch.setattr(cli, "binomial_prefix", perturbed)
    result, facts = run.benchmark("dense_grid", 5, trace=False, **TINY)
    assert clean["failed"] == 0
    assert result["failed"] >= 1 and not result["correct"]
    assert result["metrics"]["success_frac"]["value"] < clean["metrics"]["success_frac"]["value"]
    assert all("binomial" in f for f in facts["failures"])


def test_references_match_exact_oracles():
    run.load_program()
    import numpy as np
    from oracles import pmf_exact_double, pmf_row_exact_doubles, weights_double_sum

    import reference as ref

    n, p = 80, 0.3125  # dyadic, so n p is exact and tail boundaries are unambiguous
    for i in (0, 5, 24, 50, 80):
        assert float(ref.pmf(n, p, i)) == pmf_exact_double(n, p, i)
    w = weights_double_sum(n, p)
    assert max(ref.rel_err(w[i], ref.upper_tail(n + 1, p, i) / p) for i in range(n + 1)) < 1e-12
    row = pmf_row_exact_doubles(n, p)
    dist = np.abs(np.arange(n + 1) - n * p)
    for radius in (0.0, 3.5, 9.0, 20.0):
        exact = math.fsum(row[dist >= radius])
        assert ref.rel_err(exact, ref.tail_outside(n, p, radius)) < 1e-14
    a = -0.7
    terms = {"alternating01": (np.arange(n + 1) + 1) % 2, "geometric": a ** np.arange(n + 1),
             "signed_linear": np.where(np.arange(n + 1) % 2, -1.0, 1.0) * np.arange(n + 1)}
    for family, seq in terms.items():
        value, scale = ref.dense_binomial(family, a, p, n)
        assert ref.rel_err(math.fsum(row * seq), value, scale) < 1e-14
