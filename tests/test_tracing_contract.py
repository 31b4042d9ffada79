"""The mean paths compute their masses through the names that bench/tracing.py
patches: transforms.log_pmf_many or sequences.log_pmf_many for log-space
masses, and transforms._row_mass for full PMF rows, which no mean takes (a
row its window cannot certify widens the window instead; weights still
builds full rows).  A helper that reached the kernel another way would leave
the traced counts at 0 for its work.

A log_pmf_many call makes one _log_factorial pass, or reads log k! from
the table its caller built in one pass (_log_factorials, once per prefix
kernel call), so the passes equal the per-term calls plus the tables built:
every log mass computed was reached through a traced name.
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
    """Counting wrappers on the traced names, on _log_factorial, on the
    log k! tables built, and on the rows the windowed kernel rejects."""
    seen = {"rows": [], "terms": [], "per_term": 0, "passes": 0, "tables": 0, "rejected": []}

    def patch(owner, attr, record):
        fn = getattr(owner, attr)

        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            record(args, kwargs, out)
            return out

        monkeypatch.setattr(owner, attr, counted)

    def log_terms(args, kwargs, out):
        seen["terms"].append(out.size)
        seen["per_term"] += kwargs.get("_table") is None

    def count(key):
        def record(args, kwargs, out):
            seen[key] += 1

        return record

    patch(transforms, "_row_mass", lambda args, kwargs, out: seen["rows"].append(args[0]))
    patch(transforms, "log_pmf_many", log_terms)
    patch(sequences, "log_pmf_many", log_terms)
    patch(binomial_kernel, "_log_factorial", count("passes"))
    patch(transforms, "_log_factorials", count("tables"))

    def rejected(args, kwargs, out):
        n0, triangle = args[2], args[6]
        if triangle is None:  # windowed rows
            seen["rejected"].extend(n0[~out[1][:, 0]].astype(np.int64).tolist())

    patch(transforms, "_block", rejected)
    return seen


def huge_support():
    """A sparse sequence with a term too large for any window to certify
    the rows past it."""
    idx = np.array([5, 40, 90, 150, 400, 1000])
    vals = np.array([1.0, -2.0, 1e300, 0.5, -1.0, 3.0])
    return RealSequence.from_function(support=lambda h: (idx[idx <= h], vals[idx <= h]))


def log_masses_all_traced(seen):
    assert seen["passes"] > 0
    assert seen["passes"] == seen["per_term"] + seen["tables"]
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


def test_one_table_per_prefix(traced):
    # a sparse prefix reads log k! from one table, built in one pass; point
    # queries over sampled rows, as explore makes them, and lone queries
    # evaluate it term by term and build none
    spikes = sequence_from_spec(GeneratorSpec("spikes", C=1.0))
    binomial_prefix(spikes, 0.4, 12_000)
    assert traced["tables"] == traced["passes"] == 1 and traced["per_term"] == 0
    assert len(traced["terms"]) > 1
    binomial_mean_at(spikes, 0.4, np.linspace(0, 2e6, 40).astype(np.int64))
    binomial_mean_at(spikes, 0.4, 700_001)
    binomial_mean_at(huge_support(), 0.5, 300)  # whole-support fallback
    assert traced["tables"] == 1 and traced["per_term"] == traced["passes"] - 1 > 0
    log_masses_all_traced(traced)


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
