"""Command-line surface: mass tables, weight tables, transforms, PMF slice
comparison, the Markov limit solver, and the two experiment reports.

Output goes to stdout (or --out PATH) as CSV with a header line or as a
single JSON object.  A CSV float cell is exactly Python's
``format(v, ".17g")``: 17 significant digits, so a file round-trips without
loss, with ``inf``, ``-inf``, ``nan`` and ``-0`` as Python prints them.  An
integer cell is ``str(i)``.  The JSON object is exactly what ``json.dumps``
writes for the command, its params and either the table's rows and column
names or the command's report: float tokens are ``repr(v)``, with ``NaN``,
``Infinity`` and ``-Infinity`` for the non-finite values.  ``_csv`` renders
the table column by column, as CSV, as the JSON rows, or as the report's
list of records (``explore``'s samples), which is spliced into the
``json.dumps`` text of the rest of the body; a report without a table
(``table1``, ``markov-limit``) is one ``json.dumps`` call.
Exit status: 0 success, 1 usage error (also an unreadable input or
unwritable --out), 2 domain/validation error, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .binomial_kernel import PMFParams, _row_mass, pmf_row
from .exceptions import (
    ConvergenceError,
    HorizonError,
    MatrixValidationError,
    ParameterDomainError,
    PreconditionError,
)
from .markov import limit_matrix, load_matrix_csv, validate
from .sequences import GeneratorSpec, probe_open_problem, run_table1, sequence_from_spec
from .transforms import binomial_prefix, cesaro_prefix, pstar_prefix, weights

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_NO_CONVERGENCE = 3


class _UsageError(Exception):
    pass


# Every negative float literal is a value, not an option: argparse on its own
# takes only -\d+ and -\d*\.\d+ for numbers, so "--a -1e-3" and "--a -inf"
# would read as a flag missing its argument.
_NEGATIVE_NUMBER = re.compile(
    r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    # argparse exits with status 2 on its own; route everything through the
    # usage-error path instead so the documented exit codes hold.
    def error(self, message):
        raise _UsageError(message)


@dataclass
class _Payload:
    command: str
    params: dict
    table: dict  # column name -> that column's cells (ndarray, range or list)
    report: dict | None = None  # the JSON body in place of rows and columns
    notes: list = field(default_factory=list)  # informational stderr lines
    records: str | None = None  # the report key that holds the table as records


def _plain(value):
    # json.dumps fallback; np.float64 is a float and never reaches it
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serialisable")


def _json(value) -> str:
    # a payload is built fresh for each call and holds no cycles
    return json.dumps(value, default=_plain, check_circular=False)


def _object(items) -> list:
    """json.dumps of a dict as parts to join, from the JSON text of each of
    its values (or the parts of it)."""
    parts = ["{"]
    for key, text in items:
        parts += [", " if len(parts) > 1 else "", _json(key), ": "]
        parts += text if isinstance(text, list) else [text]
    return parts + ["}"]


def _render(payload: _Payload, fmt: str) -> str:
    head = {"command": payload.command, "params": payload.params}
    if fmt == "json" and payload.report is not None and payload.records is None:
        return _json(head | {"report": payload.report}) + "\n"
    from ._csv import csv_text, json_rows  # loaded on first use, not at import

    if fmt == "csv":
        return csv_text(payload.table)
    body = [(k, _json(v)) for k, v in head.items()]
    if payload.report is None:
        body += [("rows", json_rows(payload.table, _json)), ("columns", _json(list(payload.table)))]
    else:
        report = [
            (k, json_rows(v, _json, keys=True) if k == payload.records else _json(v))
            for k, v in payload.report.items()
        ]
        body.append(("report", _object(report)))
    return "".join(_object(body) + ["\n"])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="summakit", description="summability transforms toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(sp):
        sp.add_argument("--output", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default=None, metavar="PATH", help="write here instead of stdout")

    for name, what in (("pmf", "binomial mass"), ("weights", "transform weight")):
        sp = sub.add_parser(name, help=f"{what} table for fixed n, p")
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--p", type=float, required=True)
        common(sp)

    sp = sub.add_parser("transform", help="transform prefix of a named sequence family")
    sp.add_argument(
        "--family",
        required=True,
        choices=("alternating01", "geometric", "signed_linear", "islets", "spikes"),
    )
    sp.add_argument("--a", type=float, default=None, help="geometric ratio")
    sp.add_argument("--C", type=float, default=None, help="spike spacing factor")
    sp.add_argument("--height-scale", type=float, default=1.0, help="spike height multiplier")
    sp.add_argument("--kind", required=True, choices=("cesaro", "binomial", "pstar"))
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--horizon", type=int, required=True)
    common(sp)

    sp = sub.add_parser("compare", help="aligned PMF slices of two binomial weightings")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--n", type=int, required=True)
    common(sp)

    sp = sub.add_parser("markov-limit", help="limit matrix of a stochastic matrix CSV")
    sp.add_argument("matrix_csv", help="header-free CSV, one matrix row per line")
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.add_argument("--max-squarings", type=int, default=64)
    sp.add_argument("--row-tol", type=float, default=1e-12)
    common(sp)

    sp = sub.add_parser("table1", help="transform implication grid experiment")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--horizon", type=int, required=True)
    common(sp)

    sp = sub.add_parser("explore", help="spike-sequence probe of the p-vs-q question")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--C", type=float, required=True)
    sp.add_argument("--height-scale", type=float, default=1.0)
    sp.add_argument("--horizon", type=int, required=True)
    common(sp)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use and kept: parse_args leaves a parser as it found it
    return build_parser()


def _cmd_pmf(args) -> _Payload:
    row = pmf_row(PMFParams(args.n, args.p)).mass
    return _Payload("pmf", {"n": args.n, "p": args.p}, {"i": range(args.n + 1), "mass": row})


def _cmd_weights(args) -> _Payload:
    table = weights(args.n, args.p)
    return _Payload(
        "weights", {"n": args.n, "p": args.p}, {"i": range(args.n + 1), "weight": table.weights}
    )


def _family_spec(args) -> GeneratorSpec:
    kwargs = {}
    if args.family == "geometric":
        if args.a is None:
            raise _UsageError("--a is required for the geometric family")
        kwargs["a"] = args.a
    if args.family == "spikes":
        if args.C is None:
            raise _UsageError("--C is required for the spikes family")
        kwargs["C"] = args.C
        kwargs["height_scale"] = args.height_scale
    return GeneratorSpec(args.family, **kwargs)


def _cmd_transform(args) -> _Payload:
    spec = _family_spec(args)
    seq = sequence_from_spec(spec)
    if args.kind != "cesaro" and args.p is None:
        raise _UsageError(f"--p is required for the {args.kind} transform")
    # overflow is reported below as a count, not as numpy's warning
    with np.errstate(over="ignore", invalid="ignore"):
        if args.kind == "cesaro":
            prefix = cesaro_prefix(seq, args.horizon)
        else:
            fn = binomial_prefix if args.kind == "binomial" else pstar_prefix
            prefix = fn(seq, args.p, args.horizon)
    params = {"family": spec.label, "kind": args.kind, "horizon": args.horizon}
    if prefix.p is not None:
        params["p"] = prefix.p
    notes = []
    bad = np.flatnonzero(~np.isfinite(prefix.values))
    if bad.size:
        notes.append(
            f"summakit: note: {bad.size} of {prefix.values.size} values are non-finite, "
            f"the first at n={bad[0]}"
        )
    table = {"n": range(args.horizon + 1), "value": prefix.values}
    return _Payload("transform", params, table, notes=notes)


def _cmd_compare(args) -> _Payload:
    """Masses of Binomial(n/p, p) and Binomial(n/q, q) at i in [n - 5 sqrt(n),
    n + 5 sqrt(n)] and their peak ratio.

    Each row is built only over that slice joined with its certified window
    (binomial_kernel._row_mass's lo and hi bounds): O(sqrt(n)) work and
    memory, not the O(n/p) of a full row.
    """
    p, q, n = args.p, args.q, args.n
    if not p < q:
        raise _UsageError(f"compare requires p < q, got p={p!r}, q={q!r}")
    if n < 0:
        raise ParameterDomainError(f"--n must be non-negative, got {n!r}")
    for flag, value in (("--p", p), ("--q", q)):
        if not 0.0 < value < 1.0:
            raise ParameterDomainError(f"{flag} must lie strictly inside (0, 1), got {value!r}")
    lo = max(0, math.floor(n - 5.0 * math.sqrt(n)))
    hi = math.ceil(n + 5.0 * math.sqrt(n))
    rows = [_row_mass(int(n / prob), prob, lo=lo, hi=hi) for prob in (p, q)]
    # indices past a row's last trial have mass 0
    mass_p, mass_q = (np.pad(row, (0, hi + 1 - lo - row.size)) for row in rows)
    measured = float(mass_p.max() / mass_q.max())
    predicted = math.sqrt((1.0 - q) / (1.0 - p))
    table = {
        "i": range(lo, hi + 1),
        "mass_p": mass_p,
        "mass_q": mass_q,
        "peak_ratio_measured": np.full(mass_p.size, measured),
        "peak_ratio_predicted": np.full(mass_p.size, predicted),
    }
    return _Payload("compare", {"p": p, "q": q, "n": n}, table)


def _cmd_markov_limit(args) -> _Payload:
    P = validate(load_matrix_csv(args.matrix_csv), row_tol=args.row_tol)
    report = limit_matrix(P, tol=args.tol, max_squarings=args.max_squarings)
    A = report.A.matrix
    diag = (
        f"iterations={report.iterations} residual_fix={report.residual_fix:.3e} "
        f"residual_idem={report.residual_idem:.3e}"
    )
    return _Payload(
        "markov-limit",
        {"matrix_csv": args.matrix_csv, "tol": args.tol, "max_squarings": args.max_squarings},
        {f"c{j}": col for j, col in enumerate(A.T)},
        report=vars(report) | {"A": A},
        notes=[diag],
    )


def _pick(obj, names):
    return {k: getattr(obj, k) for k in names}


_CELL_FIELDS = ("family", "source", "target", "relation", "outcome")


def _cmd_table1(args) -> _Payload:
    if not args.p < args.q:
        raise _UsageError(f"table1 requires p < q, got p={args.p!r}, q={args.q!r}")
    report = run_table1(args.p, args.q, args.horizon)
    cells = report.cells
    table = {k: [getattr(c, k) for c in cells] for k in _CELL_FIELDS}
    for side in ("source", "target"):
        verdicts = [getattr(c, f"{side}_verdict") for c in cells]
        table[f"{side}_status"] = [v.status for v in verdicts]
        table[f"{side}_value"] = ["" if v.value is None else v.value for v in verdicts]
    body = _pick(report, ("p", "q", "horizon", "contradictions")) | {
        "verdicts": {
            fam: {t: asdict(v) for t, v in per.items()} for fam, per in report.verdicts.items()
        },
        "cells": [_pick(c, _CELL_FIELDS) for c in cells],
        "witnesses": [_pick(c, _CELL_FIELDS[:3]) for c in report.witnesses],
        "pq_witness": report.pq_witness,
    }
    return _Payload(
        "table1", {"p": args.p, "q": args.q, "horizon": args.horizon}, table, report=body
    )


def _cmd_explore(args) -> _Payload:
    if not args.p < args.q:
        raise _UsageError(f"explore requires p < q, got p={args.p!r}, q={args.q!r}")
    report = probe_open_problem(
        args.p, args.q, args.C, args.horizon, height_scale=args.height_scale
    )
    samples = report.samples
    body = {k: v for k, v in vars(report).items() if k != "samples"} | {"samples": samples}
    return _Payload(
        "explore",
        _pick(args, ("p", "q", "C", "height_scale", "horizon")),
        samples,
        report=body,
        records="samples",
    )


_HANDLERS = {
    "pmf": _cmd_pmf,
    "weights": _cmd_weights,
    "transform": _cmd_transform,
    "compare": _cmd_compare,
    "markov-limit": _cmd_markov_limit,
    "table1": _cmd_table1,
    "explore": _cmd_explore,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        payload = _HANDLERS[args.command](args)
        text = _render(payload, args.output)
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except (_UsageError, OSError) as exc:  # OSError: unreadable input, unwritable --out
        print(f"summakit: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParameterDomainError, PreconditionError, MatrixValidationError, HorizonError) as exc:
        print(f"summakit: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        print(f"summakit: no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE

    if args.out is None:
        sys.stdout.write(text)
    for note in payload.notes:
        print(note, file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
