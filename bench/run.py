"""Seeded, closed-loop benchmark of summakit.

Run from the repository root:

    python3 bench/run.py --workload dense_grid --seed 1 --seconds 24 --trace 0

One client sends the workload's seeded requests one after another to
``summakit.cli.main`` (stdout captured in memory) or to library functions,
in this process.  Each output is checked against an independent reference
after its timer stops.  The second-to-last stdout line holds the run facts;
the last line is the result:

    {"correct": true, "attempted": 102, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the list
untraced and then traced, and reports the per-layer metrics, writing every
span to ``.bench_work/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREADS = "1"
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
SETUP_RUNS = 5
# Each request runs once per pass and is timed by its fastest pass, which
# filters short speed swings of a shared virtual machine.
PASSES = 3
# Time of speed_probe at the reference speed (2.2-4 ms on a shared 2-core Xeon VM).
# Latencies are reported at that speed: each is scaled by PROBE_REF_S over the
# median probe time around it, which cancels most of the machine's speed swings.
PROBE_REF_S = 0.003
_PROBE_X = np.linspace(0.5, 1.5, 400)
WARMUP_SCALE = 0.02

END_TO_END = {
    "wall_s": "s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "accuracy_digits": "digits",
    "success_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# (name, unit, better).  Span names are module.function of summakit;
# bench.client is the client loop of the library requests.
PER_LAYER = [
    ("binomial_kernel.row.calls", "count", "lower"),
    ("binomial_kernel.row.masses", "count", "lower"),
    ("binomial_kernel.row.self_s", "s", "lower"),
    ("binomial_kernel.row.useful_frac", "ratio", "higher"),
    ("binomial_kernel.log_pmf_many.calls", "count", "lower"),
    ("binomial_kernel.log_pmf_many.terms", "count", "lower"),
    ("binomial_kernel.log_pmf_many.self_s", "s", "lower"),
    ("binomial_kernel.log_pmf_many.useful_frac", "ratio", "higher"),
    ("binomial_kernel.tail_mass_outside.calls", "count", "lower"),
    ("binomial_kernel.tail_mass_outside.self_s", "s", "lower"),
    ("binomial_kernel.pmf_row.calls", "count", "lower"),
    ("binomial_kernel.pmf_row.masses", "count", "lower"),
    ("binomial_kernel.pmf_row.self_s", "s", "lower"),
    ("transforms.binomial_prefix.self_s", "s", "lower"),
    ("transforms.binomial_mean_at.self_s", "s", "lower"),
    ("transforms.cesaro_prefix.self_s", "s", "lower"),
    ("transforms.pstar_prefix.self_s", "s", "lower"),
    ("transforms.weights.self_s", "s", "lower"),
    ("summation.running_mean.elements", "count", "lower"),
    ("summation.running_mean.self_s", "s", "lower"),
    ("summation.suffix_sums.elements", "count", "lower"),
    ("summation.suffix_sums.self_s", "s", "lower"),
    ("sequences.materialise.self_s", "s", "lower"),
    ("sequences.run_table1.self_s", "s", "lower"),
    ("sequences.probe_open_problem.self_s", "s", "lower"),
    ("sequences.estimate_limit.self_s", "s", "lower"),
    ("markov.load_matrix_csv.self_s", "s", "lower"),
    ("markov.validate.self_s", "s", "lower"),
    ("markov.limit_matrix.self_s", "s", "lower"),
    ("markov.limit_matrix.squarings", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.bytes_out", "bytes", "lower"),
    ("bench.client.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def load_program():
    """Import summakit.cli from this checkout's src/, with fixed thread caps."""
    src = ROOT / "src"
    if not (src / "summakit" / "__init__.py").is_file():
        raise FileNotFoundError(f"no summakit sources under {src}")
    os.environ["SUMMAKIT_THREADS"] = THREADS
    for path in (HERE, ROOT / "tests", src):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import summakit.cli

    if Path(summakit.cli.__file__).resolve().parent != src / "summakit":
        raise ImportError(f"summakit was imported from {summakit.cli.__file__}, not {src}")
    return summakit.cli


def speed_probe():
    """Seconds taken by a fixed mix of interpreter loop, small numpy calls and
    float formatting, the kinds of work the requests do."""
    start = time.perf_counter()
    total = 0.0
    parts = []
    for i in range(600):
        total += float(np.cumprod(_PROBE_X)[i % 400])
        parts.append(format(total * 1e-3 + i, ".17g"))
    ",".join(parts)
    return time.perf_counter() - start


def run_pass(requests, main, on_done, tracer=None):
    """Send each request after the previous one finished; on_done(rid, req,
    latency_s, output, error, probe_s) runs after the request's timer stopped,
    with the speed probe timed just before the request."""
    for rid, req in enumerate(requests, 1):
        out, err = io.StringIO(), io.StringIO()
        output = error = None
        send = main if req.argv is not None else req.call
        if tracer is not None:
            tracer.request = rid
            send = tracer.wrap("cli.main" if req.argv is not None else "bench.client", send)
        probe = speed_probe()
        start = time.perf_counter()
        try:
            if req.argv is not None:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    status = send(req.argv)
                output = out.getvalue()
                if status != 0:
                    error = f"exit status {status}: {err.getvalue().strip()}"
            else:
                output = send()
        except Exception as exc:  # a crashing request is counted, not fatal
            error = f"raised {exc!r}"
        on_done(rid, req, time.perf_counter() - start, output, error, probe)


def check_output(req, output, error):
    """(relative errors, failure message or None) for one request."""
    from reference import CheckFailed

    if error is not None:
        return [], error
    try:
        return req.check(output), None
    except CheckFailed as exc:
        return [], str(exc)
    except Exception as exc:  # malformed output that the parser rejects
        return [], f"check raised {exc!r}"


class PassRecord:
    """Latencies, stdout digest and per-request output digests of one pass."""

    def __init__(self):
        self.latencies = []
        self.probes = []
        self.digests = []
        self.stdout = hashlib.sha256()
        self.bytes_out = 0

    def add(self, req, latency, output, probe):
        self.latencies.append(latency)
        self.probes.append(probe)
        data = (output if isinstance(output, str) else repr(output)).encode()
        self.digests.append(hashlib.sha256(data).hexdigest())
        if req.argv is not None:
            self.stdout.update(data)
            self.bytes_out += len(data)

    def scaled(self, window=4):
        """Latencies at the reference speed of PROBE_REF_S."""
        return [
            latency * PROBE_REF_S / statistics.median(self.probes[max(0, i - window):i + window + 1])
            for i, latency in enumerate(self.latencies)
        ]

    @property
    def wall_s(self):
        return math.fsum(self.latencies)


def percentile(values, q):
    """Harrell-Davis estimate of the q-th percentile: a Beta-weighted mean of
    the order statistics around it, steadier than any single one."""
    from scipy.stats.mstats import hdquantiles

    return float(hdquantiles(np.asarray(values), prob=[q / 100])[0])


def measure_setup(runs):
    """Median time, at the reference speed, of a fresh interpreter importing
    summakit.cli; also the unscaled times."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), SUMMAKIT_THREADS=THREADS)
    scaled, raw = [], []
    for _ in range(runs):
        probe = speed_probe()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import summakit.cli"], env=env, cwd=ROOT,
                       check=True, timeout=120)
        raw.append(time.perf_counter() - start)
        scaled.append(raw[-1] * PROBE_REF_S / probe)
    return statistics.median(scaled), raw


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def run_facts():
    import mpmath
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "SUMMAKIT_THREADS": os.environ.get("SUMMAKIT_THREADS"),
        "git_commit": _commit(),
        "src_sha256": _source_digest(),
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }


def digits(rel_err):
    """-log10 of a relative error, capped at 16."""
    return min(16.0, -math.log10(max(rel_err, 1e-16)))


def layer_metrics(tracer, untraced, traced):
    """Every PER_LAYER metric from one traced pass and its untraced twin."""
    out = {}
    for name, unit, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name == "cli.bytes_out":
            value = traced.bytes_out
        elif name == "trace.wall_s":
            value = traced.wall_s
        elif name == "trace.overhead_frac":
            value = math.fsum(traced.scaled()) / math.fsum(untraced.scaled()) - 1.0
        elif field == "self_s":
            value = tracer.self_s(span)
        elif field == "calls":
            value = tracer.calls.get(span, 0)
        elif field == "useful_frac":
            total = tracer.counts.get(f"{span}.masses", 0) + tracer.counts.get(f"{span}.terms", 0)
            value = tracer.counts.get(f"{span}.useful", 0) / total if total else 0.0
        else:
            value = tracer.counts.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out


def benchmark(workload, seed, seconds, trace, scale=1.0, setup_runs=SETUP_RUNS):
    """Run one workload; returns (result, facts) as printed by main."""
    cli = load_program()
    from tracing import Tracer, summakit_targets
    from workloads import build

    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    (workdir / "warmup").mkdir(parents=True, exist_ok=True)
    try:
        # let lazy imports and first-call costs finish before timing
        warmup = build(workload, seed, 1, min(scale, WARMUP_SCALE), workdir / "warmup")
        run_pass(warmup, cli.main, lambda rid, req, dt, out, err, probe: check_output(req, out, err))

        requests = build(workload, seed, seconds / PASSES, scale, workdir)
        failures = {}
        worst = {}  # request kind -> largest relative error checked
        checked_values = 0
        first = PassRecord()

        def checked(rid, req, latency, output, error, probe):
            nonlocal checked_values
            first.add(req, latency, output, probe)
            errs, failure = check_output(req, output, error)
            checked_values += len(errs)
            worst[req.kind] = max([worst.get(req.kind, 0.0), *errs])
            if failure is not None:
                failures[rid] = f"{req.kind}: {failure}"

        def replayed(record):
            # later passes must reproduce the checked first pass byte for byte
            def done(rid, req, latency, output, error, probe):
                record.add(req, latency, output, probe)
                if error is not None:
                    failures.setdefault(rid, f"{req.kind}: replay {error}")
                elif record.digests[-1] != first.digests[rid - 1]:
                    failures.setdefault(rid, f"{req.kind}: replay output differs from the checked one")

            return done

        run_pass(requests, cli.main, checked)
        facts = run_facts()
        facts.update(workload=workload, seed=seed, seconds=seconds, trace=trace, scale=scale,
                     requests=len(requests), stdout_sha256=first.stdout.hexdigest(),
                     stdout_bytes=first.bytes_out, checked_values=checked_values,
                     accuracy_digits_by_kind={k: digits(e) for k, e in sorted(worst.items())})
        if trace:
            tracer = Tracer()
            traced = PassRecord()
            with tracer.installed(summakit_targets()):
                run_pass(requests, cli.main, replayed(traced), tracer)
            trace_path = ROOT / ".bench_work" / f"trace-{workload}-{seed}.csv.gz"
            tracer.write(trace_path)
            facts.update(spans=len(tracer.spans), trace_file=str(trace_path.relative_to(ROOT)))
            metrics = layer_metrics(tracer, first, traced)
        else:
            records = [first]
            for _ in range(PASSES - 1):
                records.append(PassRecord())
                run_pass(requests, cli.main, replayed(records[-1]))
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setup_s, setup_times = measure_setup(setup_runs)
            best = [min(times) for times in zip(*(r.scaled() for r in records))]
            best_ms = [1000.0 * t for t in best]
            values = {
                "wall_s": math.fsum(best),
                "req_p50_ms": percentile(best_ms, 50),
                "req_p90_ms": percentile(best_ms, 90),
                "accuracy_digits": min(digits(e) for e in worst.values()),
                "success_frac": 1.0 - len(failures) / len(requests),
                "peak_rss_mb": peak_rss_mb,
                "setup_s": setup_s,
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
            facts.update(passes=PASSES, latency_samples=len(best),
                         p90_samples_beyond=len(best) - math.ceil(0.9 * len(best)),
                         pass_wall_s=[math.fsum(r.scaled()) for r in records],
                         unscaled_wall_s=math.fsum(min(t) for t in zip(*(r.latencies for r in records))),
                         probe_median_s=[statistics.median(r.probes) for r in records],
                         setup_runs_s=setup_times)
        facts["failures"] = [failures[k] for k in sorted(failures)][:20]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not failures,
        "attempted": len(requests),
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, facts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"bench: cannot load summakit: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result, facts = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(facts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
