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

import bisect
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# unused here; bench/tracing.py patches sequences.log_pmf_many by name
from .binomial_kernel import log_pmf_many  # noqa: F401
from .exceptions import HorizonError, ParameterDomainError
from .transforms import RealSequence, _binomial_means_sparse, binomial_prefix
from .summation import running_mean

__all__ = [
    "GeneratorSpec",
    "ConvergenceVerdict",
    "CellCheck",
    "ImplicationReport",
    "ProbeSample",
    "OpenProblemReport",
    "generate",
    "sequence_from_spec",
    "islet_ranges",
    "islets_count_upto",
    "spike_indices",
    "estimate_limit",
    "default_families",
    "run_table1",
    "probe_open_problem",
    "TABLE1",
    "TRANSFORM_NAMES",
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
        if self.family == "spikes" and (self.C is None or self.C <= 0):
            raise ParameterDomainError("spikes requires a positive spacing factor C")

    @property
    def label(self) -> str:
        if self.family == "geometric":
            return f"geometric(a={self.a:g})"
        if self.family == "spikes":
            return f"spikes(C={self.C:g}, height_scale={self.height_scale:g})"
        return self.family


def _is_islet(i: int) -> bool:
    # 4**k - 2**k * k > i for every k past ceil(log2(i)/2) + 1, so the scan
    # below is total.
    if i <= 0:
        return False
    kmax = (i.bit_length() + 1) // 2 + 1
    for k in range(1, kmax + 1):
        if abs(i - (1 << (2 * k))) < (1 << k) * k:
            return True
    return False


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


def islets_count_upto(n: int) -> int:
    """Number of ones in the islets sequence at indices 0..n."""
    return sum(hi - lo + 1 for lo, hi in islet_ranges(n))


class _SpikeChain:
    """Spike positions of one spike sequence, extended on demand: each
    horizon reads a prefix of the chain, so a sequence walks it only once."""

    def __init__(self, C: float):
        self._C = C
        self._chain = [1]  # always runs one position past the largest horizon seen
        self._array = np.ones(1, dtype=np.int64)

    def upto(self, horizon: int) -> np.ndarray:
        """Positions <= horizon, as a read-only view of the chain."""
        chain = self._chain
        if chain[-1] <= horizon:
            j, C, ceil, sqrt, append = chain[-1], self._C, math.ceil, math.sqrt, chain.append
            while j <= horizon:
                j += ceil(C * sqrt(j))
                append(j)
            self._array = np.array(chain, dtype=np.int64)
            self._array.flags.writeable = False
        return self._array[: bisect.bisect_right(chain, horizon)]


def spike_indices(C: float, horizon: int) -> np.ndarray:
    """Spike positions n_1 < n_2 < ... <= horizon with gaps ceil(C*sqrt(n_j)).

    The chain starts at n_1 = 1.
    """
    return _SpikeChain(C).upto(horizon).copy()


def generate(spec: GeneratorSpec, i: int) -> float:
    """Term i of the family, evaluated pointwise: the reference that the
    vectorized rules of sequence_from_spec are tested against."""
    if i < 0:
        raise ParameterDomainError(f"sequence index must be >= 0, got {i}")
    f = spec.family
    if f == "alternating01":
        return 1.0 if i % 2 == 0 else 0.0
    if f == "geometric":
        a = float(spec.a)
        try:
            return a**i
        except OverflowError:
            return math.inf if (a > 0 or i % 2 == 0) else -math.inf
    if f == "signed_linear":
        return float(-i if i % 2 else i)
    if f == "islets":
        return 1.0 if _is_islet(i) else 0.0
    # spikes: walk the deterministic index chain up to i
    j = 1
    while j < i:
        j += math.ceil(spec.C * math.sqrt(j))
    return spec.height_scale * math.sqrt(i) if j == i else 0.0


def sequence_from_spec(spec: GeneratorSpec) -> RealSequence:
    """Wrap a family as a RealSequence with a vectorized prefix rule and,
    for the sparse families, a support rule."""
    f = spec.family
    if f == "alternating01":
        return RealSequence.from_function(
            lambda h: np.where(np.arange(h + 1) % 2 == 0, 1.0, 0.0),
            nonneg=True,
            name=spec.label,
        )
    if f == "geometric":
        a = float(spec.a)

        def prefix(h):
            with np.errstate(over="ignore", invalid="ignore"):
                return np.power(a, np.arange(h + 1, dtype=float))

        return RealSequence.from_function(prefix, nonneg=a >= 0, name=spec.label)
    if f == "signed_linear":

        def prefix(h):
            i = np.arange(h + 1, dtype=float)
            return np.where(np.arange(h + 1) % 2 == 0, i, -i)

        return RealSequence.from_function(prefix, name=spec.label)
    if f == "islets":

        def prefix(h):
            out = np.zeros(h + 1)
            for lo, hi in islet_ranges(h):
                out[lo : hi + 1] = 1.0
            return out

        def support(h):
            ranges = islet_ranges(h)
            if not ranges:
                return np.empty(0, dtype=np.int64), np.empty(0)
            idx = np.concatenate([np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in ranges])
            return idx, np.ones(len(idx))

        return RealSequence.from_function(prefix, support, nonneg=True, name=spec.label)
    # spikes: one chain per sequence serves every horizon asked of it
    chain = _SpikeChain(spec.C)

    def heights(idx):
        return spec.height_scale * np.sqrt(idx.astype(float))

    def prefix(h):
        out = np.zeros(h + 1)
        idx = chain.upto(h)
        out[idx] = heights(idx)
        return out

    def support(h):
        idx = chain.upto(h)
        return idx, heights(idx)

    return RealSequence.from_function(
        prefix, support, nonneg=spec.height_scale >= 0, name=spec.label
    )


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


TRANSFORM_NAMES = ("raw", "binomial_p", "binomial_q", "cesaro")

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
    expect_q = np.power(rq, ns)
    err_p = float(np.max(np.abs(got_p - expect_p)))
    err_q = float(np.max(np.abs(np.abs(got_q) - np.abs(expect_q)) / np.abs(expect_q)))
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
    the window via ``window``).  Returns the full verdict table, per-cell
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
            per = {
                "raw": estimate_limit(raw, window=window),
                "binomial_p": estimate_limit(
                    binomial_prefix(seq, p, horizon).values, window=window
                ),
                "binomial_q": estimate_limit(
                    binomial_prefix(seq, q, horizon).values, window=window
                ),
                "cesaro": estimate_limit(running_mean(raw), window=window),
            }
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


@dataclass(frozen=True)
class ProbeSample:
    """One probed transform value of the spike-sequence explorer."""

    series: str  # 'p_aligned' | 'p_mid' | 'q_aligned' | 'q_mid'
    ordinal: int  # which spike (0-based), or the left spike for midpoints
    spike_index: int
    eval_index: int
    value: float


@dataclass
class OpenProblemReport:
    """Probe data for the spike-spacing question; reports values only and
    makes no truth claim about the underlying conjecture."""

    p: float
    q: float
    C: float
    height_scale: float
    horizon: int
    samples: list
    amplitude_p: float
    amplitude_q: float


def probe_open_problem(p, q, C, horizon, height_scale=1.0) -> OpenProblemReport:
    """Tabulate both binomial means of a spike sequence at spike-aligned
    indices (where the weighting window is centred on a spike) and at the
    midpoints between them, and report each transform's oscillation
    amplitude over the probed values."""
    if not (0.0 < p < q < 1.0):
        raise ParameterDomainError(f"need 0 < p < q < 1, got p={p!r}, q={q!r}")
    if C <= 0:
        raise ParameterDomainError(f"C must be positive, got {C!r}")
    if horizon < 4:
        raise ParameterDomainError(f"horizon must be at least 4, got {horizon!r}")
    spec = GeneratorSpec("spikes", C=float(C), height_scale=float(height_scale))
    seq = sequence_from_spec(spec)
    spikes = spike_indices(C, int(p * horizon))
    # one support pass and one kernel call per probability serve every index
    idx, av = seq.support(int(horizon))
    samples = []
    for prob, tag in ((p, "p"), (q, "q")):
        aligned = [int(s // prob) for s in spikes]
        mids = [(lo + hi) // 2 for lo, hi in zip(aligned, aligned[1:])]
        values = _binomial_means_sparse(idx, av, prob, aligned + mids).tolist()
        for j, (s, m) in enumerate(zip(spikes, aligned)):
            samples.append(ProbeSample(f"{tag}_aligned", j, int(s), m, values[j]))
        for j, mid in enumerate(mids):
            samples.append(
                ProbeSample(f"{tag}_mid", j, int(spikes[j]), mid, values[len(aligned) + j])
            )

    def amplitude(tag):
        vals = [s.value for s in samples if s.series.startswith(tag)]
        return float(max(vals) - min(vals)) if vals else 0.0

    return OpenProblemReport(
        p=p,
        q=q,
        C=float(C),
        height_scale=float(height_scale),
        horizon=int(horizon),
        samples=samples,
        amplitude_p=amplitude("p_"),
        amplitude_q=amplitude("q_"),
    )
