"""Named sequence families, a numerical limit-estimation heuristic, the
transform-implication experiment, and the spike-sequence explorer.

The implication experiment evaluates the raw sequence, its Cesaro means and
two binomial means on every family, judges each with the limit heuristic,
and checks the judged verdicts against the asserted implication grid between
the four transforms.  Verdicts are heuristics: a cell is only flagged as a
contradiction when two transforms *definitely* disagree (both judged
convergent with different limits, or one convergent and one divergent to
infinity); a not-converged verdict on the target side is inconclusive
evidence and never flags.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# unused here; bench/tracing.py patches sequences.log_pmf_many by name
from .binomial_kernel import log_pmf_many  # noqa: F401
from .exceptions import HorizonError, ParameterDomainError
from .transforms import RealSequence, binomial_mean_at, binomial_prefix
from .summation import running_mean

__all__ = [
    "GeneratorSpec",
    "ConvergenceVerdict",
    "CellCheck",
    "ImplicationReport",
    "OpenProblemReport",
    "sequence_from_spec",
    "islet_ranges",
    "spike_indices",
    "estimate_limit",
    "default_families",
    "run_table1",
    "probe_open_problem",
    "TABLE1",
]

_FAMILIES = ("alternating01", "geometric", "signed_linear", "islets", "spikes")


@dataclass(frozen=True)
class GeneratorSpec:
    """A named sequence family with its parameters.

    Families: alternating01 (1,0,1,0,...), geometric (a**n), signed_linear
    ((-1)**n * n), islets (blocks of ones around the powers 4**k), spikes
    (zeros except heights ~sqrt(n) spaced ~C*sqrt(n) apart).
    """

    family: str
    a: Optional[float] = None
    C: Optional[float] = None
    height_scale: float = 1.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ParameterDomainError(
                f"unknown family {self.family!r}; expected one of {_FAMILIES}"
            )
        if self.family == "geometric" and self.a is None:
            raise ParameterDomainError("geometric requires the ratio parameter a")
        for name in ("a", "C", "height_scale"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ParameterDomainError(f"{name} must be finite, got {value!r}")
        if self.family == "spikes" and (self.C is None or self.C <= 0):
            raise ParameterDomainError("spikes requires a positive spacing factor C")

    @property
    def label(self) -> str:
        if self.family == "geometric":
            return f"geometric(a={self.a:g})"
        if self.family == "spikes":
            return f"spikes(C={self.C:g}, height_scale={self.height_scale:g})"
        return self.family


def islet_ranges(horizon: int):
    """Inclusive (lo, hi) index ranges of the islets intersected with [0, horizon]."""
    out = []
    k = 1
    while True:
        center = 1 << (2 * k)
        half = (1 << k) * k
        lo = center - half + 1
        if lo > horizon:
            break
        out.append((lo, min(center + half - 1, horizon)))
        k += 1
    return out


class _SpikeChain:
    """Spike positions for one spacing factor C, and their square roots,
    extended on demand and shared by every spike sequence with that C (see
    _spike_chain): each horizon reads a prefix of the chain, so the chain
    is walked, and each root taken, only once.

    The chain is held only as read-only arrays, an int64 position and a
    float root a spike.  An extension builds the new positions in a local
    list and swaps in new arrays with one assignment of the pair, so a
    reader never sees positions and roots of different lengths; views
    handed out earlier keep the old arrays, whose contents never change.
    """

    def __init__(self, C: float):
        self._C = C
        # positions run past the largest horizon seen
        self._arrays = (np.ones(1, dtype=np.int64), np.ones(1))

    def between(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Positions in [lo, hi] and their square roots, as read-only views
        of the chain."""
        chain, roots = self._arrays
        if chain[-1] <= hi:
            j, C, ceil, sqrt = int(chain[-1]), self._C, math.ceil, math.sqrt
            grown = []
            while j <= hi:
                j += ceil(C * sqrt(j))
                grown.append(j)
            grown = np.array(grown, dtype=np.int64)
            chain = np.concatenate((chain, grown))
            roots = np.concatenate((roots, np.sqrt(grown.astype(float))))
            chain.flags.writeable = roots.flags.writeable = False
            self._arrays = chain, roots
        first, stop = chain.searchsorted((lo, hi + 1)).tolist()
        return chain[first:stop], roots[first:stop]


# spike chains held at once; each is keyed by the exact float(C)
_CACHED_CHAINS = 8


@functools.lru_cache(maxsize=_CACHED_CHAINS)
def _spike_chain(C: float) -> _SpikeChain:
    """The chain every spike sequence with spacing factor C reads."""
    return _SpikeChain(C)


def spike_indices(C: float, horizon: int) -> np.ndarray:
    """Spike positions n_1 < n_2 < ... <= horizon with gaps ceil(C*sqrt(n_j)).

    The chain starts at n_1 = 1.  Returns a writeable copy of a prefix of
    the chain that every spike sequence with this C shares.  C must be
    finite and positive: with C <= 0 the chain never advances.
    """
    C = float(C)
    if not 0.0 < C < math.inf:
        raise ParameterDomainError(f"C must be finite and positive, got {C!r}")
    return _spike_chain(C).between(0, horizon)[0].copy()


def _alternating01(lo, hi):
    i = np.arange(lo, hi + 1)
    return i, np.where(i % 2 == 0, 1.0, 0.0)


def _signed_linear(lo, hi):
    i = np.arange(lo, hi + 1)
    f = i.astype(float)
    return i, np.where(i % 2 == 0, f, -f)


def _islets(lo, hi):
    runs = [np.arange(max(a, lo), b + 1) for a, b in islet_ranges(hi) if b >= lo]
    idx = np.concatenate(runs) if runs else np.empty(0, dtype=np.int64)
    return idx, np.ones(len(idx))


def sequence_from_spec(spec: GeneratorSpec) -> RealSequence:
    """Wrap a family as a RealSequence: geometric sequences by their ratio
    (their means are a closed form), the others by closed-form window and
    peak rules (see RealSequence.from_window).

    A window of spikes reads the position chain that every spikes sequence
    with an equal float(C) shares, so a fresh sequence walks only past the
    positions that earlier ones walked; its heights are height_scale times
    the chain's square roots, which rise, so the peak up to n is that of
    the last spike: |height_scale| times its root, exactly (a product's
    rounding is sign-symmetric and monotone), +-inf past the double range.
    The first islet starts at 3.
    """
    f, name = spec.family, spec.label
    if f == "geometric":
        return RealSequence.geometric(spec.a, name=name)
    if f == "alternating01":
        return RealSequence.from_window(_alternating01, lambda n: 1.0, nonneg=True, name=name)
    if f == "signed_linear":
        return RealSequence.from_window(_signed_linear, float, name=name)
    if f == "islets":
        window, nonneg = _islets, True

        def peak(n):
            return 1.0 if n >= 3 else 0.0

    else:  # spikes
        chain, scale, nonneg = _spike_chain(float(spec.C)), spec.height_scale, spec.height_scale >= 0

        def window(lo, hi):
            idx, roots = chain.between(lo, hi)
            with np.errstate(over="ignore"):  # a height past the double range
                return idx, scale * roots

        def peak(n):
            roots = chain.between(0, n)[1]
            return abs(scale) * float(roots[-1]) if len(roots) else 0.0

    return RealSequence.from_window(window, peak, sparse=True, nonneg=nonneg, name=name)


@dataclass(frozen=True)
class ConvergenceVerdict:
    """Outcome of the limit-estimation heuristic over a value vector."""

    status: str  # 'converged' | 'diverges_to_infinity' | 'not_converged'
    value: Optional[float]
    window: int
    tol: float

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def estimate_limit(values, window=None, tol=None, growth_threshold=1e6) -> ConvergenceVerdict:
    """Judge the tail of a value vector.

    converged(mean of last window) when the window spread is at most tol;
    diverges_to_infinity when the window minimum exceeds growth_threshold;
    not_converged otherwise.  Defaults: window = ceil(len/10),
    tol = 1e-4 * (1 + |window mean|).
    """
    values = np.asarray(values, dtype=float)
    if window is None:
        window = max(2, math.ceil(len(values) / 10))
    window = int(window)
    if window < 2:
        raise ParameterDomainError(f"window must be at least 2, got {window}")
    if window > len(values):
        raise HorizonError(f"window {window} larger than the {len(values)} available values")
    tail = values[-window:]
    finite = bool(np.isfinite(tail).all())
    mean = float(tail.mean()) if finite else math.nan
    if tol is None:
        tol = 1e-4 * (1.0 + abs(mean)) if finite else 1e-4
    if finite and float(tail.max() - tail.min()) <= tol:
        return ConvergenceVerdict("converged", mean, window, tol)
    if float(tail.min()) > growth_threshold:
        return ConvergenceVerdict("diverges_to_infinity", None, window, tol)
    return ConvergenceVerdict("not_converged", None, window, tol)


# Asserted implication grid between the four transforms, for 0 < p < q < 1.
# 'implies' holds unconditionally; 'implies_if_nonneg' holds when every term
# is >= 0; 'open_if_nonneg' is conjectured under non-negativity but open (its
# cells are never flagged either way); 'not_implies' has known counterexamples.
TABLE1 = {
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


@dataclass(frozen=True)
class CellCheck:
    """Observed outcome for one (family, source transform, target transform) cell."""

    family: str
    source: str
    target: str
    relation: str
    outcome: str
    source_verdict: ConvergenceVerdict
    target_verdict: ConvergenceVerdict


@dataclass
class ImplicationReport:
    """All verdicts and cell outcomes of one implication-grid run."""

    p: float
    q: float
    horizon: int
    verdicts: dict  # family label -> transform name -> ConvergenceVerdict
    cells: list
    contradictions: int
    witnesses: list  # counterexample-pattern cells observed on not_implies entries
    pq_witness: dict  # closed-form geometric check of the p-vs-q asymmetry


def default_families():
    """Family instances exercised by the implication experiment."""
    return [
        GeneratorSpec("geometric", a=1.0),  # constant ones
        GeneratorSpec("alternating01"),
        GeneratorSpec("signed_linear"),
        GeneratorSpec("geometric", a=-3.0),
        GeneratorSpec("islets"),
        GeneratorSpec("spikes", C=1.0),
    ]


def _values_agree(v, w, value_tol):
    return abs(v - w) <= value_tol * (1.0 + max(abs(v), abs(w)))


def _cell_outcome(relation, nonneg, src, tgt, value_tol):
    if relation == "open_if_nonneg":
        return "evidence_only"
    if relation == "not_implies":
        if src.converged and tgt.status != "converged":
            return "witnessed"
        return "unwitnessed"
    if relation == "implies_if_nonneg" and not nonneg:
        return "condition_unmet"
    # an asserted implication
    if src.converged:
        if tgt.converged:
            return (
                "consistent"
                if _values_agree(src.value, tgt.value, value_tol)
                else "contradiction"
            )
        if tgt.status == "diverges_to_infinity":
            return "contradiction"
        return "inconclusive"
    if src.status == "diverges_to_infinity":
        if tgt.status == "diverges_to_infinity":
            return "consistent"
        if tgt.converged:
            return "contradiction"
        return "inconclusive"
    return "not_applicable"


def _geometric_pq_witness(p, q, horizon=20):
    """Closed-form check of the one-sided p-vs-q behaviour on a geometric
    sequence whose p-mean converges while its q-mean diverges.

    The binomial mean of a**n is (p(a-1)+1)**n, so any a with
    1 - 2/p < a < 1 - 2/q gives |p(a-1)+1| < 1 <= |q(a-1)+1|.  a = -3 is
    used when it fits (it does for all the stock parameter pairs).
    """
    lo, hi = 1.0 - 2.0 / p, 1.0 - 2.0 / q
    a = -3.0 if lo < -3.0 < hi else (lo + hi) / 2.0
    spec = GeneratorSpec("geometric", a=a)
    seq = sequence_from_spec(spec)
    rp = p * (a - 1.0) + 1.0
    rq = q * (a - 1.0) + 1.0
    ns = np.arange(horizon + 1, dtype=float)
    got_p = binomial_prefix(seq, p, horizon).values
    got_q = binomial_prefix(seq, q, horizon).values
    expect_p = np.power(rp, ns) if rp != 0.0 else np.where(ns == 0, 1.0, 0.0)
    with np.errstate(over="ignore"):  # |rq| >= 1: past the double range it is +-inf
        expect_q = np.power(rq, ns)
    err_p = float(np.max(np.abs(got_p - expect_p)))
    # equal values, infinities of one sign included, are no error
    differ = got_q != expect_q
    err_q = float(np.max(np.abs(np.abs(got_q[differ]) - np.abs(expect_q[differ]))
                         / np.abs(expect_q[differ]), initial=0.0))
    witnessed = abs(rp) < 1.0 <= abs(rq) and err_p <= 1e-9 and err_q <= 1e-9
    return {
        "family": spec.label,
        "a": a,
        "p_ratio": rp,
        "q_ratio": rq,
        "checked_horizon": horizon,
        "p_mean_max_abs_err": err_p,
        "q_mean_max_rel_err": err_q,
        "p_mean_converges": abs(rp) < 1.0,
        "q_mean_diverges": abs(rq) >= 1.0,
        "witnessed": witnessed,
    }


def run_table1(p, q, horizon, families=None, window=None, value_tol=1e-3) -> ImplicationReport:
    """Evaluate the four transforms on every family and check the implication grid.

    Verdicts come from estimate_limit with its default thresholds (override
    the window via ``window``); the binomial means are evaluated only at the
    rows the window judges.  Returns the full verdict table, per-cell
    outcomes, the number of contradiction flags (which a correct toolkit
    must keep at zero), counterexample witnesses observed on the
    known-to-fail cells, and the closed-form geometric p-vs-q witness.
    """
    if not (0.0 < p < q < 1.0):
        raise ParameterDomainError(f"need 0 < p < q < 1, got p={p!r}, q={q!r}")
    if not isinstance(horizon, (int, np.integer)) or horizon < 20:
        raise ParameterDomainError(f"horizon must be an integer >= 20, got {horizon!r}")
    if families is None:
        families = default_families()

    verdicts = {}
    nonneg_flags = {}
    for spec in families:
        seq = sequence_from_spec(spec)
        with np.errstate(over="ignore", invalid="ignore"):
            raw = seq.prefix(horizon)
            per = {"raw": estimate_limit(raw, window=window)}
            # a verdict reads only the last rows: the binomial means of those
            tail = np.arange(horizon + 1 - per["raw"].window, horizon + 1)
            for name, prob in (("binomial_p", p), ("binomial_q", q)):
                per[name] = estimate_limit(binomial_mean_at(seq, prob, tail), window=len(tail))
            per["cesaro"] = estimate_limit(running_mean(raw), window=window)
        verdicts[spec.label] = per
        nonneg_flags[spec.label] = seq.nonneg

    cells = []
    witnesses = []
    contradictions = 0
    for label, per in verdicts.items():
        for (src_name, tgt_name), relation in TABLE1.items():
            outcome = _cell_outcome(
                relation, nonneg_flags[label], per[src_name], per[tgt_name], value_tol
            )
            cell = CellCheck(
                label, src_name, tgt_name, relation, outcome, per[src_name], per[tgt_name]
            )
            cells.append(cell)
            if outcome == "contradiction":
                contradictions += 1
            elif outcome == "witnessed":
                witnesses.append(cell)

    return ImplicationReport(
        p=p,
        q=q,
        horizon=int(horizon),
        verdicts=verdicts,
        cells=cells,
        contradictions=contradictions,
        witnesses=witnesses,
        pq_witness=_geometric_pq_witness(p, q),
    )


@dataclass
class OpenProblemReport:
    """Probe data for the spike-spacing question; reports values only and
    makes no truth claim about the underlying conjecture.

    ``samples`` maps each column name to an array with one entry per probed
    value: ``series`` ('p_aligned' | 'p_mid' | 'q_aligned' | 'q_mid'),
    ``ordinal`` (which spike, 0-based, or the left spike for midpoints),
    ``spike_index``, ``eval_index`` and ``value``.
    """

    p: float
    q: float
    C: float
    height_scale: float
    horizon: int
    samples: dict
    amplitude_p: float
    amplitude_q: float


def probe_open_problem(p, q, C, horizon, height_scale=1.0) -> OpenProblemReport:
    """Tabulate both binomial means of a spike sequence at spike-aligned
    indices (where the weighting window is centred on a spike) and at the
    midpoints between them, and report each transform's oscillation
    amplitude (max - min) over its probed values."""
    if not (0.0 < p < q < 1.0):
        raise ParameterDomainError(f"need 0 < p < q < 1, got p={p!r}, q={q!r}")
    if C <= 0:
        raise ParameterDomainError(f"C must be positive, got {C!r}")
    if horizon < 4:
        raise ParameterDomainError(f"horizon must be at least 4, got {horizon!r}")
    spec = GeneratorSpec("spikes", C=float(C), height_scale=float(height_scale))
    seq = sequence_from_spec(spec)
    spikes, _ = seq.support(int(p * horizon))
    # each transform probes every spike, then every gap between two
    k, gaps = len(spikes), len(spikes[1:])
    ordinal = np.concatenate([np.arange(k), np.arange(gaps)])
    eval_index, values = [], []
    for prob in (p, q):
        aligned = (spikes // prob).astype(np.int64)
        mids = (aligned[:-1] + aligned[1:]) // 2
        eval_index.append(np.concatenate([aligned, mids]))
        values.append(binomial_mean_at(seq, prob, eval_index[-1]))
    amplitude_p, amplitude_q = (float(v.max() - v.min()) if v.size else 0.0 for v in values)
    samples = {
        "series": np.repeat(["p_aligned", "p_mid", "q_aligned", "q_mid"], [k, gaps, k, gaps]),
        "ordinal": np.tile(ordinal, 2),
        "spike_index": np.tile(spikes[ordinal], 2),
        "eval_index": np.concatenate(eval_index),
        "value": np.concatenate(values),
    }
    return OpenProblemReport(
        p=p,
        q=q,
        C=float(C),
        height_scale=float(height_scale),
        horizon=int(horizon),
        samples=samples,
        amplitude_p=amplitude_p,
        amplitude_q=amplitude_q,
    )
