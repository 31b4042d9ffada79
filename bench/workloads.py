"""Seeded request mixes for the summakit benchmark, with their output checks.

Every workload is a list of requests drawn from one seed.  Most are
``summakit.cli.main`` argument vectors; the rest are direct library calls
for public functions that have no CLI command.  ``build`` takes the length
of one pass in seconds: request counts are rates per second of it, fixed so
that a pass took about that long when the mix was defined, and size ranges scale
with ``scale``.  Sizes are stratified in mirrored pairs, so seeds change the
inputs but hardly the total work.  Each request carries a check that
compares a seeded sample of its output with ``reference``.

Why each workload (the layer split is measured by the traced run):

* dense_grid -- dense transforms, Table 1 and Chernoff sweeps build one full
  PMF row per n (``_row_mass``), with small outputs; it exercises the row
  kernel that a windowed kernel would replace.  sparse_probe bypasses it.
* sparse_probe -- sparse transforms, the spike probe and point queries at n
  up to 2.1e6 weight only the support through ``log_pmf_many``; no PMF row
  is built.  It exercises the log-gamma point-mass kernel and its accuracy.
* bulk_output -- long Cesaro prefixes, PMF and weight tables, PMF slice
  comparisons and Markov limits: linear-time scans, one long row or BLAS,
  and megabytes of CSV/JSON.  It exercises the scans and the CLI rendering.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import reference as ref
from reference import CheckFailed, rel_err, require

# Failure thresholds.  The log_pmf_many paths carry ~1e-9 relative error at
# n ~ 2e6 and the rest ~1e-13 or better; accuracy_digits reports the actual
# error.
TOL_DENSE = 1e-10
TOL_SPARSE = 1e-7


@dataclass
class Request:
    """One closed-loop request: a CLI argv or a library call, and its check.

    ``check`` takes the request's output (stdout text, or the call's return
    value), raises CheckFailed on a wrong output and returns the relative
    errors of the values it compared.
    """

    kind: str
    check: Callable[[object], list]
    argv: Optional[list] = None
    call: Optional[Callable[[], object]] = None


def _count(rate, seconds):
    return max(1, round(rate * seconds))


def _spread(rng, k, lo, hi, ends=False):
    """k values over [lo, hi] in ascending order, one per equal stratum,
    jittered in mirrored pairs (u and 1-u) so their sum is fixed.  With ends,
    the outermost pair is exactly lo and hi.

    Parameters drawn together are zipped in rank order, so a seed moves each
    request only within its stratum and the total work hardly changes; build()
    shuffles the order the requests are sent in."""
    u = rng.random((k + 1) // 2)
    if ends:
        u[0] = 0.0
    pos = np.empty(k)
    for j, uj in enumerate(u):
        pos[j] = j + uj
        pos[k - 1 - j] = k - j - uj
    return lo + (hi - lo) * pos / k


def _ints(rng, k, lo, hi, floor, ends=False):
    return [max(floor, int(v)) for v in _spread(rng, k, lo, hi, ends)]


def _pick(rng, size, k):
    """Sorted sample of k distinct positions in range(size), always with the last."""
    k = min(k, size)
    picked = rng.choice(size - 1, size=k - 1, replace=False) if k > 1 else []
    return sorted({*map(int, picked), size - 1})


def _csv(text, columns):
    """A CSV output's rows as a 2-d float array, after checking its header."""
    header, _, body = text.partition("\n")
    if header != ",".join(columns):
        raise CheckFailed(f"unexpected CSV header {header[:80]!r}")
    return np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)


def _table(text, fmt, columns):
    """Rows of a CSV or JSON table output as a 2-d float array."""
    if fmt == "csv":
        return _csv(text, columns)
    body = json.loads(text)
    if body["columns"] != columns:
        raise CheckFailed(f"unexpected columns {body['columns']}")
    return np.asarray(body["rows"], dtype=float).reshape(-1, len(columns))


def _indexed(rows, size, what):
    """The value column of an (index, value) table, checking indices 0..size-1."""
    if len(rows) != size or not np.array_equal(rows[:, 0], np.arange(size)):
        raise CheckFailed(f"{what}: expected indices 0..{size - 1}")
    return rows[:, 1]


def _fmt(j):
    return "json" if j % 4 == 3 else "csv"


def _series_check(fmt, horizon, srng, reference, tol, what):
    def check(text):
        values = _indexed(_table(text, fmt, ["n", "value"]), horizon + 1, what)
        errs = [rel_err(values[n], *reference(n)) for n in _pick(srng, horizon + 1, 8)]
        return require(errs, tol, what)

    return check


def _sub(rng):
    return np.random.default_rng(int(rng.integers(2**62)))


# ------------------------------------------------------------------ dense_grid

DENSE_FAMILIES = ("alternating01", "geometric", "signed_linear")

TABLE1_GRID = {
    ("raw", "raw"): "implies",
    ("raw", "binomial_p"): "implies",
    ("raw", "binomial_q"): "implies",
    ("raw", "cesaro"): "implies",
    ("binomial_p", "raw"): "not_implies",
    ("binomial_p", "binomial_p"): "implies",
    ("binomial_p", "binomial_q"): "open_if_nonneg",
    ("binomial_p", "cesaro"): "implies_if_nonneg",
    ("binomial_q", "raw"): "not_implies",
    ("binomial_q", "binomial_p"): "implies",
    ("binomial_q", "binomial_q"): "implies",
    ("binomial_q", "cesaro"): "implies_if_nonneg",
    ("cesaro", "raw"): "not_implies",
    ("cesaro", "binomial_p"): "not_implies",
    ("cesaro", "binomial_q"): "not_implies",
    ("cesaro", "cesaro"): "implies",
}
# Table-1 families with a closed-form binomial mean, by their report label.
TABLE1_CLOSED = {
    "geometric(a=1)": ("geometric", 1.0),
    "alternating01": ("alternating01", None),
    "signed_linear": ("signed_linear", None),
    "geometric(a=-3)": ("geometric", -3.0),
}


def _dense_transform(j, horizon, p, a, srng):
    family = DENSE_FAMILIES[j % 3]
    kind = ("binomial", "pstar")[(j // 3) % 2]
    fmt = _fmt(j)
    argv = ["transform", "--family", family, "--kind", kind, "--p", repr(p),
            "--horizon", str(horizon), "--output", fmt]
    if family == "geometric":
        argv += ["--a", repr(a)]
    closed = ref.dense_binomial if kind == "binomial" else ref.dense_pstar
    check = _series_check(fmt, horizon, srng, lambda n: closed(family, a, p, n), TOL_DENSE,
                          f"{kind} {family}")
    return Request(f"transform-{kind}", check, argv=argv)


def _table1(p, q, horizon):
    window = max(2, math.ceil((horizon + 1) / 10))

    def check(text):
        # A contradiction flag is the limit heuristic's verdict at a finite
        # horizon (islets look convergent to 0 between islands), not an
        # arithmetic error, so only its count is checked.
        report = json.loads(text)["report"]
        cells = report["cells"]
        if report["contradictions"] != sum(c["outcome"] == "contradiction" for c in cells):
            raise CheckFailed("table1: contradiction count disagrees with the cells")
        if len(cells) != 6 * 16 or any(
            TABLE1_GRID[(c["source"], c["target"])] != c["relation"] for c in cells
        ):
            raise CheckFailed("table1: cells do not follow the implication grid")
        errs = []
        for label, (family, a) in TABLE1_CLOSED.items():
            for name, prob in (("binomial_p", p), ("binomial_q", q)):
                verdict = report["verdicts"][label][name]
                if verdict["status"] != "converged":
                    continue
                if verdict["window"] != window:
                    raise CheckFailed(f"table1: window {verdict['window']} != {window}")
                terms = [ref.dense_binomial(family, a, prob, m)
                         for m in range(horizon + 1 - window, horizon + 1)]
                errs.append(rel_err(verdict["value"], sum(t[0] for t in terms) / window,
                                    sum(t[1] for t in terms) / window))
        witness = report["pq_witness"]
        wa = ref.MP.mpf(witness["a"])
        errs.append(rel_err(witness["p_ratio"], p * (wa - 1) + 1, p * abs(wa - 1) + 1))
        errs.append(rel_err(witness["q_ratio"], q * (wa - 1) + 1, q * abs(wa - 1) + 1))
        if not witness["witnessed"]:
            raise CheckFailed("table1: p-vs-q witness not observed")
        return require(errs, TOL_DENSE, "table1")

    argv = ["table1", "--p", repr(p), "--q", repr(q), "--horizon", str(horizon),
            "--output", "json"]
    return Request("table1", check, argv=argv)


def _chernoff_sweep(p, n0, block, srng):
    """Criterion-4 grid for one p: alpha = 0.5, 1, ... below p sqrt(n), for
    each n in a block, comparing tail_mass_outside with chernoff_bound."""
    from summakit import binomial_kernel as bk

    def call():
        rows = []
        for n in range(n0, n0 + block):
            params = bk.PMFParams(n, p)
            alpha = 0.5
            while alpha < p * math.sqrt(n):
                tail = bk.tail_mass_outside(params, math.sqrt(n) * alpha)
                rows.append((n, alpha, tail, bk.chernoff_bound(params, alpha)))
                alpha += 0.5
        return rows

    def check(rows):
        expected = sum(math.ceil(2 * p * math.sqrt(n)) - 1 for n in range(n0, n0 + block)
                       if p * math.sqrt(n) > 0.5)
        if len(rows) != expected:
            raise CheckFailed(f"chernoff: {len(rows)} rows, expected {expected}")
        if any(not 0.0 <= tail <= bound for _, _, tail, bound in rows):
            raise CheckFailed("chernoff: a tail exceeds its bound")
        errs = []
        for k in (_pick(srng, len(rows), 3) if rows else []):
            n, alpha, tail, _ = rows[k]
            errs.append(rel_err(tail, ref.tail_outside(n, p, math.sqrt(n) * alpha)))
        return require(errs, TOL_DENSE, "chernoff sweep")

    return Request("chernoff", check, call=call)


def dense_grid(rng, seconds, scale, workdir):
    k = _count(4.0, seconds)
    horizons = _ints(rng, k, 1500 * scale, 4000 * scale, 8)
    reqs = [
        _dense_transform(j, h, float(p), float(a), _sub(rng))
        for j, (h, p, a) in enumerate(
            zip(horizons, _spread(rng, k, 0.05, 0.95), _spread(rng, k, -1.0, 1.0))
        )
    ]
    k = _count(0.25, seconds)
    for h, p, q in zip(_ints(rng, k, 2000 * scale, 3000 * scale, 20),
                       _spread(rng, k, 0.1, 0.45), _spread(rng, k, 0.55, 0.9)):
        reqs.append(_table1(float(p), float(q), h))
    k = _count(8.5, seconds)
    block = 12
    for n0, pk in zip(_ints(rng, k, 1, 3000 * scale - block, 1), _ints(rng, k, 4, 61, 4)):
        reqs.append(_chernoff_sweep(pk / 64, n0, block, _sub(rng)))
    return reqs


# ---------------------------------------------------------------- sparse_probe


def _sparse_transform(family, kind, horizon, C, p, fmt, srng):
    argv = ["transform", "--family", family, "--kind", kind, "--p", repr(p),
            "--horizon", str(horizon), "--output", fmt]
    if family == "spikes":
        argv += ["--C", repr(C)]
    idx, vals = ref.sparse_support(family, horizon, C)
    brute = ref.sparse_binomial if kind == "binomial" else ref.sparse_pstar

    def reference(n):
        return (brute(idx, vals, n, p),)

    check = _series_check(fmt, horizon, srng, reference, TOL_SPARSE, f"{kind} {family}")
    return Request(f"transform-{kind}", check, argv=argv)


def _explore(p, q, C, horizon, srng):
    def check(text):
        report = json.loads(text)["report"]
        samples = report["samples"]
        spikes = len(ref.spike_support(C, 1.0, int(p * horizon))[0])
        if len(samples) != 2 * (2 * spikes - 1):
            raise CheckFailed(f"explore: {len(samples)} samples for {spikes} spikes")
        idx, vals = ref.spike_support(C, 1.0, horizon)
        errs = []
        for k in _pick(srng, len(samples), 6):
            s = samples[k]
            prob = p if s["series"].startswith("p_") else q
            errs.append(rel_err(s["value"], ref.sparse_binomial(idx, vals, s["eval_index"], prob)))
        return require(errs, TOL_SPARSE, "explore")

    argv = ["explore", "--p", repr(p), "--q", repr(q), "--C", repr(C),
            "--horizon", str(horizon), "--output", "json"]
    return Request("explore", check, argv=argv)


def _mean_at_batch(family, C, p, ns):
    """binomial_mean_at point queries on one sparse sequence, as in criterion 8."""
    import summakit
    from summakit import transforms

    def call():
        seq = summakit.sequence_from_spec(summakit.GeneratorSpec(family, C=C))
        return [transforms.binomial_mean_at(seq, p, n) for n in ns]

    def check(values):
        idx, vals = ref.sparse_support(family, max(ns), C)
        errs = [rel_err(v, ref.sparse_binomial(idx, vals, n, p)) for v, n in zip(values, ns)]
        return require(errs, TOL_SPARSE, f"binomial_mean_at {family}")

    return Request("mean_at", check, call=call)


def sparse_probe(rng, seconds, scale, workdir):
    reqs = []
    for family, lo, hi in (("spikes", 5e3, 2e4), ("islets", 3e3, 1e4)):
        k = _count(1.0, seconds)
        for j, (h, C, p) in enumerate(zip(_ints(rng, k, lo * scale, hi * scale, 8),
                                          _spread(rng, k, 0.5, 2.0), _spread(rng, k, 0.2, 0.8))):
            kind = ("binomial", "pstar")[j % 2]
            C = float(C) if family == "spikes" else None
            reqs.append(_sparse_transform(family, kind, h, C, float(p), _fmt(j), _sub(rng)))
    k = _count(0.75, seconds)
    for h, C, p, q in zip(_ints(rng, k, 2e5 * scale, 1e6 * scale, 40), _spread(rng, k, 0.5, 2.0),
                          _spread(rng, k, 0.2, 0.5), _spread(rng, k, 0.55, 0.9)):
        reqs.append(_explore(float(p), float(q), float(C), h, _sub(rng)))
    # Point queries.  Islets at the island-aligned and gap-aligned indices
    # 4^j/p, 4^j/(2p) of criterion 8, where the binomial mean swings between
    # ~1 and ~0; their cost steps as islands enter the support, so the cheaper
    # spike batches (C = 1, as in criterion 8) are the majority and hold the
    # median request.
    for p in _spread(rng, _count(1.25, seconds), 0.5, 0.7):
        ns = [max(1, int(scale * 4**j / d)) for j in (8, 9, 10) for d in (p, 2 * p)]
        reqs.append(_mean_at_batch("islets", None, float(p), ns))
    for p in _spread(rng, _count(8.75, seconds), 0.3, 0.7):
        ns = _ints(rng, 4, 2e5 * scale, 2.1e6 * scale, 1)
        reqs.append(_mean_at_batch("spikes", 1.0, float(p), ns))
    return reqs


# ----------------------------------------------------------------- bulk_output

ALL_FAMILIES = ("alternating01", "geometric", "signed_linear", "islets", "spikes")
CHAIN_SHAPES = ("dense", "sparse", "blocks", "absorbing")


def _cesaro(j, horizon, a, C, fmt, srng):
    family = ALL_FAMILIES[j % 5]
    argv = ["transform", "--family", family, "--kind", "cesaro", "--horizon", str(horizon),
            "--output", fmt]
    if family == "geometric":
        argv += ["--a", repr(a)]
    if family == "spikes":
        argv += ["--C", repr(C)]
    check = _series_check(fmt, horizon, srng, lambda n: ref.cesaro(family, n, a, C), TOL_DENSE,
                          f"cesaro {family}")
    return Request("transform-cesaro", check, argv=argv)


def _around_mean(srng, n, p, k):
    """k indices within 25 standard deviations of n p, clamped to [0, n]."""
    sd = math.sqrt(n * p * (1 - p))
    return sorted({min(n, max(0, round(n * p + z * sd))) for z in srng.uniform(-25, 25, k)})


def _pmf(n, p, fmt, srng):
    def check(text):
        masses = _indexed(_table(text, fmt, ["i", "mass"]), n + 1, "pmf")
        errs = [rel_err(masses[i], ref.pmf(n, p, i)) for i in _around_mean(srng, n, p, 6)]
        return require(errs, TOL_DENSE, "pmf")

    argv = ["pmf", "--n", str(n), "--p", repr(p), "--output", fmt]
    return Request("pmf", check, argv=argv)


def _weights(n, p, fmt, srng):
    def check(text):
        w = _indexed(_table(text, fmt, ["i", "weight"]), n + 1, "weights")
        errs = [rel_err(w[i], ref.upper_tail(n + 1, p, i) / p) for i in _around_mean(srng, n, p, 3)]
        return require(errs, TOL_DENSE, "weights")

    argv = ["weights", "--n", str(n), "--p", repr(p), "--output", fmt]
    return Request("weights", check, argv=argv)


def _compare(n, p, q, srng):
    columns = ["i", "mass_p", "mass_q", "peak_ratio_measured", "peak_ratio_predicted"]
    lo = max(0, math.floor(n - 5.0 * math.sqrt(n)))
    hi = math.ceil(n + 5.0 * math.sqrt(n))
    trials = {p: int(n / p), q: int(n / q)}

    def peak(prob):
        # masses are unimodal, so the window maximum sits at the mode or the
        # window edge nearest to it
        N = trials[prob]
        mode = int(ref.MP.floor((N + 1) * ref.MP.mpf(prob)))
        return ref.pmf(N, prob, min(hi, max(lo, mode)))

    def check(text):
        rows = _csv(text, columns)
        if not np.array_equal(rows[:, 0], np.arange(lo, hi + 1)):
            raise CheckFailed("compare: unexpected index window")
        errs = []
        for k in _pick(srng, len(rows), 3):
            i = int(rows[k, 0])
            errs.append(rel_err(rows[k, 1], ref.pmf(trials[p], p, i)))
            errs.append(rel_err(rows[k, 2], ref.pmf(trials[q], q, i)))
        errs.append(rel_err(rows[0, 3], peak(p) / peak(q)))
        errs.append(rel_err(rows[0, 4], ref.MP.sqrt((1 - ref.MP.mpf(q)) / (1 - ref.MP.mpf(p)))))
        return require(errs, TOL_DENSE, "compare")

    argv = ["compare", "--n", str(n), "--p", repr(p), "--q", repr(q)]
    return Request("compare", check, argv=argv)


def _chain(rng, dim, shape):
    """A row-stochastic matrix of the given shape."""
    if shape == "dense":
        M = rng.random((dim, dim))
    elif shape == "sparse":
        M = np.zeros((dim, dim))
        for r in range(dim):
            M[r, rng.choice(dim, size=min(dim, 3), replace=False)] = rng.random(min(dim, 3)) + 0.1
    elif shape == "blocks":
        # cyclic permutations on random blocks: periodic, so many squarings
        M = np.zeros((dim, dim))
        order = rng.permutation(dim)
        start = 0
        while start < dim:
            size = min(dim - start, int(rng.integers(2, max(3, dim // 2) + 1)))
            block = order[start:start + size]
            M[block, np.roll(block, -1)] = 1.0
            start += size
    else:
        absorbing = rng.choice(dim, size=max(1, dim // 10), replace=False)
        M = rng.random((dim, dim)) * (rng.random((dim, dim)) < 0.05)
        M[:, absorbing] += 0.01
        M[absorbing] = 0.0
        M[absorbing, absorbing] = 1.0
    return M / M.sum(axis=1, keepdims=True)


def _markov(j, dim, rng, workdir, srng):
    P = _chain(rng, dim, CHAIN_SHAPES[j % 4])
    path = workdir / f"chain{j:03d}.csv"
    np.savetxt(path, P, fmt="%.17g", delimiter=",")
    P = np.loadtxt(path, delimiter=",", ndmin=2)

    def check(text):
        rows = _csv(text, [f"c{c}" for c in range(dim)])
        if len(rows) != dim:
            raise CheckFailed(f"markov-limit: {len(rows)} rows for dim {dim}")
        residual = ref.markov_residual(P, rows, _pick(srng, dim, 8))
        return require([residual], TOL_DENSE, "markov-limit residual")

    return Request("markov", check, argv=["markov-limit", str(path)])


def bulk_output(rng, seconds, scale, workdir):
    # Long tables: sizes stratified over [2e4, 2e5] with both ends always
    # present, so peak memory does not depend on the seed, dealt in size
    # order to cesaro, pmf and weights in turn, so the request mix near each
    # latency percentile does not either.  The smallest of each go out as JSON.
    reqs = []
    k = 3 * _count(0.625, seconds)
    sizes = _ints(rng, k, 2e4 * scale, 2e5 * scale, 8, ends=True)
    for rank, (n, p, a, C) in enumerate(zip(sizes, _spread(rng, k, 0.05, 0.95),
                                            _spread(rng, k, -1.0, 1.0), _spread(rng, k, 0.5, 2.0))):
        fmt = "json" if rank < 3 else "csv"
        if rank % 3 == 0:
            reqs.append(_cesaro(rank // 3, n, float(a), float(C), fmt, _sub(rng)))
        else:
            reqs.append((_pmf, _weights)[rank % 3 - 1](n, float(p), fmt, _sub(rng)))
    k = _count(5.0, seconds)
    for n, p, q in zip(_ints(rng, k, 2e4 * scale, 2e5 * scale, 8), _spread(rng, k, 0.2, 0.45),
                       _spread(rng, k, 0.55, 0.85)):
        reqs.append(_compare(n, float(p), float(q), _sub(rng)))
    k = _count(6.0, seconds)
    for j, dim in enumerate(_ints(rng, k, 50 * scale, 300 * scale, 2)):
        reqs.append(_markov(j, dim, rng, workdir, _sub(rng)))
    return reqs


WORKLOADS = {"dense_grid": dense_grid, "sparse_probe": sparse_probe, "bulk_output": bulk_output}


def build(name, seed, seconds, scale, workdir):
    """The workload's requests in seeded random order."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    reqs = WORKLOADS[name](rng, seconds, scale, workdir)
    return [reqs[i] for i in rng.permutation(len(reqs))]
