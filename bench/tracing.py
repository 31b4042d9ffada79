"""Per-layer spans for summakit, recorded from outside its source tree.

``Tracer.installed`` replaces each traced function in the namespace where
its callers look it up (``transforms``, ``sequences`` and ``cli`` import by
name, so one function can need several patches) with a wrapper that records
a span, and restores the originals on exit.  A span carries its request id
and its parent; its self time is its duration minus the spans it encloses
and the tracer's bookkeeping for them.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import math
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# 2**-53 of the row maximum: smaller masses cannot change a double-precision
# weighted sum, so computing them is wasted work.
_USEFUL = 2.0**-53
_LOG_USEFUL = 53 * math.log(2.0)


def _row_counts(args, mass):
    return (("masses", mass.size), ("useful", int(np.count_nonzero(mass >= mass.max() * _USEFUL))))


def _log_pmf_counts(args, logs):
    useful = int(np.count_nonzero(logs >= logs.max() - _LOG_USEFUL)) if logs.size else 0
    return (("terms", logs.size), ("useful", useful))


def _pmf_row_counts(args, row):
    return (("masses", row.mass.size),)


def _element_counts(args, out):
    return (("elements", len(out)),)


def _squaring_counts(args, report):
    return (("squarings", report.iterations),)


def summakit_targets():
    """(owner, attribute, span name, counter) for every traced boundary."""
    from summakit import binomial_kernel, cli, sequences, transforms

    seq_cls = transforms.RealSequence
    return [
        (transforms, "_row_mass", "binomial_kernel.row", _row_counts),
        (transforms, "log_pmf_many", "binomial_kernel.log_pmf_many", _log_pmf_counts),
        (sequences, "log_pmf_many", "binomial_kernel.log_pmf_many", _log_pmf_counts),
        (binomial_kernel, "tail_mass_outside", "binomial_kernel.tail_mass_outside", None),
        (cli, "pmf_row", "binomial_kernel.pmf_row", _pmf_row_counts),
        (cli, "binomial_prefix", "transforms.binomial_prefix", None),
        (transforms, "binomial_prefix", "transforms.binomial_prefix", None),
        (sequences, "binomial_prefix", "transforms.binomial_prefix", None),
        (transforms, "binomial_mean_at", "transforms.binomial_mean_at", None),
        (cli, "cesaro_prefix", "transforms.cesaro_prefix", None),
        (cli, "pstar_prefix", "transforms.pstar_prefix", None),
        (cli, "weights", "transforms.weights", None),
        (transforms, "running_mean", "summation.running_mean", _element_counts),
        (sequences, "running_mean", "summation.running_mean", _element_counts),
        (transforms, "suffix_sums", "summation.suffix_sums", _element_counts),
        (seq_cls, "prefix", "sequences.materialise", None),
        (seq_cls, "support", "sequences.materialise", None),
        (sequences, "spike_indices", "sequences.materialise", None),
        (sequences, "islet_ranges", "sequences.materialise", None),
        (cli, "run_table1", "sequences.run_table1", None),
        (cli, "probe_open_problem", "sequences.probe_open_problem", None),
        (sequences, "estimate_limit", "sequences.estimate_limit", None),
        (cli, "load_matrix_csv", "markov.load_matrix_csv", None),
        (cli, "validate", "markov.validate", None),
        (cli, "limit_matrix", "markov.limit_matrix", _squaring_counts),
    ]


class Tracer:
    """Spans kept in memory, with self time and counters aggregated per name."""

    def __init__(self):
        self.request = 0
        self.spans = []  # (id, parent id or 0, request id, name, start ns, end ns)
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []  # open spans as [id, enclosed ns]
        self._ids = itertools.count(1)

    def wrap(self, name, fn, count=None):
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(self._ids), 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            self.self_ns[name] += end - start - frame[1]
            self.calls[name] += 1
            self.spans.append((frame[0], stack[-1][0] if stack else 0, self.request, name, start, end))
            if count is not None:
                for key, value in count(args, result):
                    self.counts[f"{name}.{key}"] += value
            if stack:
                # the parent's self time excludes this span and its bookkeeping
                stack[-1][1] += clock() - start
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        saved = []
        try:
            for owner, attr, name, count in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_s(self, name) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def write(self, path):
        """All spans as gzip CSV, times in ns from the first span's start."""
        t0 = min((s[4] for s in self.spans), default=0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,request,name,start_ns,end_ns\n")
            for sid, parent, req, name, start, end in self.spans:
                fh.write(f"{sid},{parent},{req},{name},{start - t0},{end - t0}\n")
