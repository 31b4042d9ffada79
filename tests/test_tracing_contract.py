"""The mean paths compute their masses through the names that bench/tracing.py
patches: transforms.log_pmf_many or sequences.log_pmf_many for log-space
masses, and transforms._row_mass for full PMF rows, which no mean takes (a
row its window cannot certify widens the window instead; weights still
builds full rows).  A helper that reached the kernel another way would leave
the traced counts at 0 for its work.

Every log_pmf_many call makes one _log_factorial pass, so the passes count
every log mass computed, whichever way it was reached.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from summakit import GeneratorSpec, RealSequence, sequence_from_spec, sequences, transforms
from summakit import binomial_kernel
from summakit.transforms import binomial_mean_at, binomial_prefix


@pytest.fixture
def traced(monkeypatch):
    """Counting wrappers on the traced names, on _log_factorial, and on the
    rows the windowed kernel rejects."""
    seen = {"rows": [], "terms": [], "passes": 0, "rejected": []}

    def patch(owner, attr, record):
        fn = getattr(owner, attr)

        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            record(args, out)
            return out

        monkeypatch.setattr(owner, attr, counted)

    def log_terms(args, out):
        seen["terms"].append(out.size)

    def log_pass(args, out):
        seen["passes"] += 1

    patch(transforms, "_row_mass", lambda args, out: seen["rows"].append(args[0]))
    patch(transforms, "log_pmf_many", log_terms)
    patch(sequences, "log_pmf_many", log_terms)
    patch(binomial_kernel, "_log_factorial", log_pass)
    patch(
        transforms,
        "_windowed_block",
        lambda args, out: seen["rejected"].extend(args[4][~out[1]].tolist()),
    )
    return seen


def huge_support():
    """A sparse sequence with a term too large for any window to certify
    the rows past it."""
    idx = np.array([5, 40, 90, 150, 400, 1000])
    vals = np.array([1.0, -2.0, 1e300, 0.5, -1.0, 3.0])
    return RealSequence.from_function(support=lambda h: (idx[idx <= h], vals[idx <= h]))


def log_masses_all_traced(seen):
    assert seen["passes"] > 0
    assert len(seen["terms"]) == seen["passes"]
    assert all(size > 0 for size in seen["terms"])


def test_sparse_scalar_path(traced):
    spikes = sequence_from_spec(GeneratorSpec("spikes", C=1.0))
    for n in (0, 150, 20_001, 700_001):
        binomial_mean_at(spikes, 0.4, n)
    binomial_mean_at(huge_support(), 0.5, 300)  # whole-support fallback
    log_masses_all_traced(traced)
    assert traced["rows"] == []


def test_sparse_block_path(traced):
    spikes = sequence_from_spec(GeneratorSpec("spikes", C=1.0))
    binomial_prefix(spikes, 0.4, 3000)
    binomial_mean_at(spikes, 0.4, np.array([5, 20_001, 700_001]))
    binomial_prefix(huge_support(), 0.5, 1200)  # whole-support fallbacks
    log_masses_all_traced(traced)
    assert traced["rows"] == []


def test_dense_fallback_rows(traced):
    # the rows the windowed kernel rejects widen: no full row, no log mass
    seq = RealSequence.from_values((-3.0) ** np.arange(301.0))
    with np.errstate(over="ignore", invalid="ignore"):
        binomial_prefix(seq, 0.45, 300)
    assert len(traced["rejected"]) > 0
    assert traced["rows"] == [] and traced["passes"] == 0


@pytest.mark.parametrize("family", ["alternating01", "spikes"])
def test_batch_reads_go_through_prefix_or_support(monkeypatch, family):
    # the sequences.materialise span wraps RealSequence.prefix and .support,
    # both views of the window rule: a prefix or an array query reads the
    # sequence through one of them, once
    reads = []
    for attr in ("prefix", "support"):

        def counted(self, horizon, fn=getattr(RealSequence, attr), attr=attr):
            reads.append(attr)
            return fn(self, horizon)

        monkeypatch.setattr(RealSequence, attr, counted)
    seq = sequence_from_spec(GeneratorSpec(family, C=1.0 if family == "spikes" else None))
    expected = ["support" if seq.sparse else "prefix"]
    for call in (lambda: binomial_prefix(seq, 0.4, 3000),
                 lambda: binomial_mean_at(seq, 0.4, np.array([5, 2000, 3000]))):
        del reads[:]
        call()
        assert reads == expected, family


def test_traced_names_resolve():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import tracing
    finally:
        sys.path.pop(0)
    for owner, attr, name, count in tracing.summakit_targets():
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr)


def test_experiments(traced):
    sequences.run_table1(0.3, 0.6, 400)
    sequences.probe_open_problem(0.3, 0.6, 1.0, 3000)
    log_masses_all_traced(traced)
    assert sorted(traced["rows"]) == sorted(traced["rejected"])
