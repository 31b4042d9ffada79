import ast
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from summakit import GeneratorSpec, cli, sequence_from_spec
from summakit.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(out):
    lines = out.strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestPmfCommand:
    def test_small_table(self, capsys):
        code, out, _ = run_cli(capsys, "pmf", "--n", "2", "--p", "0.5")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["i", "mass"]
        assert [(int(r[0]), float(r[1])) for r in rows] == [(0, 0.25), (1, 0.5), (2, 0.25)]

    def test_figure_scale_table(self, capsys):
        code, out, _ = run_cli(capsys, "pmf", "--n", "300", "--p", "0.2")
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 301
        values = [float(r[1]) for r in rows]
        assert int(np.argmax(values)) == 60

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "pmf", "--n", "300", "--p", "1.5")
        assert code == 2
        assert err.strip()

    def test_unknown_flag_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "pmf", "--n", "2", "--p", "0.5", "--frobnicate")
        assert code == 1
        assert err.strip()

    def test_missing_command_exit_1(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    def test_json_shape(self, capsys):
        code, out, _ = run_cli(capsys, "pmf", "--n", "2", "--p", "0.5", "--output", "json")
        assert code == 0
        body = json.loads(out)
        assert body["command"] == "pmf"
        assert body["params"] == {"n": 2, "p": 0.5}
        assert body["rows"] == [[0, 0.25], [1, 0.5], [2, 0.25]]

    def test_csv_floats_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "pmf", "--n", "37", "--p", "0.3")
        _, rows = csv_rows(out)
        from summakit import PMFParams, pmf_row

        mass = pmf_row(PMFParams(37, 0.3)).mass
        for r in rows:
            assert float(r[1]) == mass[int(r[0])]


class TestWeightsCommand:
    def test_endpoints(self, capsys):
        code, out, _ = run_cli(capsys, "weights", "--n", "300", "--p", "0.3")
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 301
        first, last = float(rows[0][1]), float(rows[300][1])
        assert abs(first - (1 - 0.7**301) / 0.3) <= 1e-12
        assert math.isclose(last, 0.3**300, rel_tol=1e-12)
        assert float(rows[120][1]) <= 1e-3
        assert float(rows[123][1]) <= 1e-4

    def test_shape_small(self, capsys):
        code, out, _ = run_cli(capsys, "weights", "--n", "10", "--p", "0.5")
        _, rows = csv_rows(out)
        values = [float(r[1]) for r in rows]
        assert len(values) == 11
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 2.0 for v in values)


class TestTransformCommand:
    @pytest.mark.parametrize(
        "flags, name",
        [
            (("--family", "spikes", "--C", "nan"), "C"),
            (("--family", "spikes", "--C", "inf"), "C"),
            (("--family", "geometric", "--a", "nan"), "a"),
            (("--family", "spikes", "--C", "1", "--height-scale=-inf"), "height_scale"),
        ],
    )
    def test_non_finite_parameters_exit_2(self, capsys, flags, name):
        code, out, err = run_cli(
            capsys, "transform", *flags, "--kind", "binomial", "--p", "0.5", "--horizon", "50"
        )
        assert code == 2 and out == ""
        assert err.startswith("summakit: error: ") and f"{name} must be finite" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("kind", ["binomial", "cesaro", "pstar"])
    def test_horizon_past_int64_exit_2(self, capsys, kind):
        # the kernels hold indices as int64: 2**63 used to give an empty
        # prefix or a traceback
        code, out, err = run_cli(capsys, "transform", "--family", "geometric", "--a", "0.5",
                                 "--kind", kind, "--p", "0.3", "--horizon", str(2**63))
        assert code == 2 and out == ""
        assert err == ("summakit: error: horizon must be an integer in [0, 2**63), "
                       "got 9223372036854775808\n")

    def test_cesaro_alternating(self, capsys):
        code, out, _ = run_cli(
            capsys, "transform", "--family", "alternating01", "--kind", "cesaro", "--horizon", "4"
        )
        assert code == 0
        _, rows = csv_rows(out)
        values = [float(r[1]) for r in rows]
        np.testing.assert_allclose(values, [1.0, 0.5, 2 / 3, 0.5, 0.6], rtol=0, atol=0)

    def test_cesaro_of_huge_spikes_stays_finite(self, capsys):
        # every term is at most 2e307, so every mean is finite, though the
        # running sums pass the double range from n = 182 on
        argv = ("transform", "--family", "spikes", "--C", "1", "--height-scale", "1e306",
                "--kind", "cesaro", "--horizon", "400")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        _, rows = csv_rows(out)
        values = [float(r[1]) for r in rows]
        terms = sequence_from_spec(GeneratorSpec("spikes", C=1.0, height_scale=1e306)).prefix(400)
        total = Fraction(0)
        for n, (term, value) in enumerate(zip(terms, values)):
            total += Fraction(term)
            exact = total / (n + 1)
            assert abs(Fraction(value) - exact) <= Fraction(2.0**-52) * abs(exact), n

    def test_binomial_signed_linear_half(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "transform", "--family", "signed_linear", "--kind", "binomial",
            "--p", "0.5", "--horizon", "5",
        )
        assert code == 0
        _, rows = csv_rows(out)
        values = [float(r[1]) for r in rows]
        assert abs(values[0]) == 0.0
        assert abs(values[1] - (-0.5)) <= 1e-12
        assert all(abs(v) <= 1e-12 for v in values[2:])

    def test_binomial_geometric_root(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "transform", "--family", "geometric", "--a", "-3", "--kind", "binomial",
            "--p", "0.25", "--horizon", "5",
        )
        assert code == 0
        _, rows = csv_rows(out)
        values = [float(r[1]) for r in rows]
        assert values[0] == 1.0
        assert all(abs(v) <= 1e-9 for v in values[1:])

    def test_missing_p_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "transform", "--family", "islets", "--kind", "binomial", "--horizon", "10"
        )
        assert code == 1
        assert "--p" in err

    def test_geometric_requires_a(self, capsys):
        code, _, _ = run_cli(
            capsys, "transform", "--family", "geometric", "--kind", "cesaro", "--horizon", "10"
        )
        assert code == 1

    def test_pstar_constant(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "transform", "--family", "geometric", "--a", "1", "--kind", "pstar",
            "--p", "0.4", "--horizon", "20",
        )
        assert code == 0
        _, rows = csv_rows(out)
        values = [float(r[1]) for r in rows]
        np.testing.assert_allclose(values, 1.0, rtol=1e-12)


class TestCompareCommand:
    def test_figure_parameters(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--p", "0.4", "--q", "0.7", "--n", "300")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["i", "mass_p", "mass_q", "peak_ratio_measured", "peak_ratio_predicted"]
        measured = float(rows[0][3])
        predicted = float(rows[0][4])
        assert math.isclose(predicted, math.sqrt(0.3 / 0.6), rel_tol=1e-15)
        assert abs(measured - predicted) <= 0.02 * predicted
        # the p-slice peaks within one index of n
        i_vals = [int(r[0]) for r in rows]
        p_vals = [float(r[1]) for r in rows]
        assert abs(i_vals[int(np.argmax(p_vals))] - 300) <= 1

    @pytest.mark.parametrize("n, p, q", [(40_000, 0.2, 0.99), (2_000, 0.05, 0.97)])
    def test_slices_match_full_rows(self, capsys, n, p, q):
        # q = 0.99: the row of n/q trials ends before n + 5 sqrt(n), and the
        # indices past it print an exact 0
        from summakit import PMFParams, pmf_row

        code, out, _ = run_cli(capsys, "compare", "--n", str(n), "--p", repr(p), "--q", repr(q))
        assert code == 0
        _, rows = csv_rows(out)
        i = np.array([int(r[0]) for r in rows])
        lo, hi = i[0], i[-1]
        for col, prob in ((1, p), (2, q)):
            got = np.array([float(r[col]) for r in rows])
            full = pmf_row(PMFParams(int(n / prob), prob)).mass[lo : hi + 1]
            want = np.pad(full, (0, got.size - full.size))
            assert np.all(np.abs(got - want) <= 8 * 2.0**-52 * want)
            assert np.all(got[full.size :] == 0.0)
        assert int(n / q) < hi

    def test_huge_n_costs_only_its_slice(self, capsys):
        # full rows of n/p and n/q trials would hold 5e8 and 1.4e8 masses (5 GB)
        import resource
        import time

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KB on Linux
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "compare", "--n", "100000000", "--p", "0.2", "--q", "0.7")
        elapsed = time.perf_counter() - start
        grown_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak) / 1024
        assert code == 0
        assert out.count("\n") == 1 + 100_001
        assert elapsed < 5.0
        assert grown_mb < 200

    def test_equal_parameters_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "compare", "--p", "0.5", "--q", "0.5", "--n", "100")
        assert code == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--n", "10", "--p", "0", "--q", "0.5"), "--p must lie strictly inside (0, 1), got 0.0"),
            (("--n", "-5", "--p", "0.2", "--q", "0.5"), "--n must be non-negative, got -5"),
            (("--n", "10", "--p", "0.4", "--q", "1.5"), "--q must lie strictly inside (0, 1), got 1.5"),
        ],
    )
    def test_domain_checked_before_trial_counts(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "compare", *argv)
        assert code == 2
        assert out == ""
        assert err == f"summakit: error: {message}\n"


class TestMarkovLimitCommand:
    def test_identity(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,0\n0,1\n")
        code, out, err = run_cli(capsys, "markov-limit", str(path))
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["c0", "c1"]
        assert [[float(v) for v in r] for r in rows] == [[1.0, 0.0], [0.0, 1.0]]
        assert "residual_fix" in err

    def test_swap_chain(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n1,0\n")
        code, out, _ = run_cli(capsys, "markov-limit", str(path), "--output", "json")
        assert code == 0
        body = json.loads(out)
        np.testing.assert_allclose(body["report"]["A"], [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)
        assert body["report"]["residual_fix"] <= 1e-9

    def test_absorbing(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,0\n0.5,0.5\n")
        code, out, _ = run_cli(capsys, "markov-limit", str(path), "--output", "json")
        body = json.loads(out)
        np.testing.assert_allclose(body["report"]["A"], [[1.0, 0.0], [1.0, 0.0]], atol=1e-10)

    def test_validation_failure_exit_2(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.2,-0.2\n0,1\n")
        code, _, err = run_cli(capsys, "markov-limit", str(path))
        assert code == 2
        assert err.strip()

    def test_non_utf8_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(np.random.default_rng(0).bytes(200))
        code, out, err = run_cli(capsys, "markov-limit", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("summakit: error: ") and "is not UTF-8 text" in err
        assert str(path) in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "rows,option,value,message",
        [
            ("5,5\n-3,1\n", "--row-tol", "nan", "row_tol must be non-negative, got nan"),
            (".5,.5\n.2,.8\n", "--row-tol", "-1", "row_tol must be non-negative, got -1.0"),
            ("0,0\n.5,.5\n", "--row-tol", "1", "row 0 sums to 0 and cannot be normalized"),
            (".5,.5\n.2,.8\n", "--tol", "nan", "tol must be positive, got nan"),
            (".5,.5\n.2,.8\n", "--max-squarings", "0", "max_squarings must be at least 1, got 0"),
            (".9,.1,0\n0,.9,.1\n.1,0,.9\n", "--tol", "inf", "tol must be finite, got inf"),
        ],
        ids=["nan-row-tol", "negative-row-tol", "zero-row", "nan-tol", "no-squarings", "inf-tol"],
    )
    def test_bad_options_exit_2(self, capsys, tmp_path, rows, option, value, message):
        path = tmp_path / "m.csv"
        path.write_text(rows)
        code, out, err = run_cli(capsys, "markov-limit", str(path), option, value)
        assert code == 2
        assert out == ""
        assert err == f"summakit: error: {message}\n"

    def test_non_convergence_exit_3(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.9999,0.0001\n0.0001,0.9999\n")
        code, _, err = run_cli(capsys, "markov-limit", str(path), "--max-squarings", "3")
        assert code == 3
        assert err.strip()


class TestReportCommands:
    def test_table1_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "table1", "--p", "0.25", "--q", "0.75", "--horizon", "400",
            "--output", "json",
        )
        assert code == 0
        body = json.loads(out)
        report = body["report"]
        assert report["contradictions"] == 0
        assert report["pq_witness"]["witnessed"] is True
        assert {c["relation"] for c in report["cells"]} == {
            "implies", "implies_if_nonneg", "open_if_nonneg", "not_implies",
        }

    def test_table1_requires_ordered_params(self, capsys):
        code, _, _ = run_cli(capsys, "table1", "--p", "0.75", "--q", "0.25", "--horizon", "400")
        assert code == 1

    def test_explore_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "explore", "--p", "0.4", "--q", "0.7", "--C", "1", "--horizon", "2000",
            "--output", "json",
        )
        assert code == 0
        report = json.loads(out)["report"]
        assert set(report) == {
            "p", "q", "C", "height_scale", "horizon", "amplitude_p", "amplitude_q", "samples",
        }
        assert {s["series"] for s in report["samples"]} == {
            "p_aligned", "p_mid", "q_aligned", "q_mid",
        }

    def test_explore_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "explore", "--p", "0.4", "--q", "0.7", "--C", "2", "--horizon", "500"
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["series", "ordinal", "spike_index", "eval_index", "value"]
        assert rows


def _child_stdout(threads, code):
    """Stdout of a fresh interpreter that imports this summakit with
    SUMMAKIT_THREADS=threads and no *_NUM_THREADS set."""
    import os
    import subprocess
    import sys

    import summakit

    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["SUMMAKIT_THREADS"] = threads
    # the child finds the package where this process did, installed or not
    src = os.path.dirname(os.path.dirname(summakit.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", f"import summakit, os; print({code})"],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


class TestThreadCap:
    def test_env_var_propagates_to_blas_limits(self):
        assert _child_stdout("2", "os.environ['OPENBLAS_NUM_THREADS']") == "2"

    def test_zero_means_automatic(self):
        assert _child_stdout("0", "os.environ.get('OPENBLAS_NUM_THREADS', 'auto')") == "auto"


class TestNegativeFloatValues:
    """Every float flag takes a negative value in any float spelling after
    a space, as it does after '='."""

    BASE = {
        "pmf": ("--n", "3", "--p", "0.5"),
        "weights": ("--n", "3", "--p", "0.5"),
        "transform": ("--family", "spikes", "--kind", "binomial", "--horizon", "3"),
        "compare": ("--p", "0.3", "--q", "0.6", "--n", "3"),
        "markov-limit": ("m.csv",),
        "table1": ("--p", "0.3", "--q", "0.6", "--horizon", "3"),
        "explore": ("--p", "0.3", "--q", "0.6", "--C", "1", "--horizon", "3"),
    }
    FLAGS = [
        ("pmf", "--p"), ("weights", "--p"), ("transform", "--a"), ("transform", "--C"),
        ("transform", "--height-scale"), ("transform", "--p"), ("compare", "--p"),
        ("compare", "--q"), ("markov-limit", "--tol"), ("markov-limit", "--row-tol"),
        ("table1", "--p"), ("table1", "--q"), ("explore", "--p"), ("explore", "--q"),
        ("explore", "--C"), ("explore", "--height-scale"),
    ]

    @pytest.mark.parametrize("command, flag", FLAGS)
    @pytest.mark.parametrize("value", ["-1e-3", "-2E+1", "-.5e0", "-3.", "-inf", "-Infinity"])
    def test_parsed_as_a_value(self, command, flag, value):
        args = build_parser().parse_args([command, *self.BASE[command], flag, value])
        assert getattr(args, flag.lstrip("-").replace("-", "_")) == float(value)

    def test_exponent_notation_runs(self, capsys):
        tail = ("--horizon", "200", "--output", "json")
        spaced = run_cli(capsys, "explore", "--p", "0.4", "--q", "0.7", "--C", "1",
                         "--height-scale", "-2e0", *tail)
        joined = run_cli(capsys, "explore", "--p", "0.4", "--q", "0.7", "--C", "1",
                         "--height-scale=-2e0", *tail)
        assert spaced == joined and spaced[0] == 0 and spaced[1]

    def test_negative_infinity_reaches_the_domain_check(self, capsys):
        code, out, err = run_cli(capsys, "transform", "--family", "geometric", "--a", "-inf",
                                 "--kind", "binomial", "--p", "0.5", "--horizon", "5")
        assert code == 2 and out == "" and "a must be finite" in err


class TestRuntimeDependencies:
    def test_cli_import_loads_no_scipy(self):
        # numpy is the one runtime dependency; scipy is a test-only oracle
        code = "__import__('summakit.cli') and 'scipy' in __import__('sys').modules"
        assert _child_stdout("0", code) == "False"

    def test_sources_import_only_stdlib_numpy_and_summakit(self):
        # every import statement of the package, lazy ones included
        allowed = set(sys.stdlib_module_names) | {"numpy", "summakit"}
        sources = sorted((Path(cli.__file__).parent).glob("*.py"))
        assert len(sources) >= 9
        found = set()
        for path in sources:
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    found.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    found.add(node.module.split(".")[0])
        assert "numpy" in found and found - allowed == set()


class TestOutputDiscipline:
    def test_byte_identical_reruns(self, capsys):
        args = ("table1", "--p", "0.3", "--q", "0.6", "--horizon", "300", "--output", "json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_unreadable_input(self, capsys, tmp_path):
        path = tmp_path / "missing.csv"
        code, out, err = run_cli(capsys, "markov-limit", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("summakit: usage error: ")
        assert str(path) in err and err.count("\n") == 1

    def test_unwritable_out(self, capsys, tmp_path):
        path = tmp_path / "missing" / "out.csv"
        code, out, err = run_cli(capsys, "pmf", "--n", "2", "--p", "0.5", "--out", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("summakit: usage error: ")
        assert str(path) in err and err.count("\n") == 1

    def test_non_finite_transform_note(self, capsys):
        argv = ("transform", "--family", "geometric", "--a", "3", "--kind", "cesaro")
        code, out, err = run_cli(capsys, *argv, "--horizon", "700")
        assert code == 0
        _, rows = csv_rows(out)
        bad = [int(n) for n, v in rows if not math.isfinite(float(v))]
        assert bad and bad == list(range(bad[0], 701))
        assert err == (
            f"summakit: note: {len(bad)} of 701 values are non-finite, the first at n={bad[0]}\n"
        )
        _, _, err = run_cli(capsys, *argv, "--horizon", "600")
        assert err == ""

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, out, _ = run_cli(
            capsys, "pmf", "--n", "2", "--p", "0.5", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("i,mass\n")


class TestSharedParser:
    """main parses with one parser, built on first use; every call must
    behave as a call with a fresh parser would."""

    def _calls(self, out):
        return [
            ("pmf", "--n", "6", "--p", "0.3"),
            ("pmf", "--n", "6", "--p", "0.3", "--frobnicate"),
            ("transform", "--family", "spikes", "--kind", "binomial", "--horizon", "9"),
            ("weights", "--n", "5", "--p", "0.25", "--out", str(out)),
            ("pmf", "--n", "6", "--p", "1.5"),
            ("transform", "--family", "geometric", "--a", "-1e-3", "--kind", "cesaro",
             "--horizon", "12", "--output", "json"),
            (),
            ("compare", "--p", "0.3", "--q", "0.6", "--n", "40", "--out", str(out)),
            ("explore", "--p", "0.4", "--q", "0.7", "--C", "1", "--horizon", "300"),
            ("pmf", "--n", "6", "--p", "0.3", "--output", "xml"),
            ("pmf", "--n", "6", "--p", "0.3"),
        ]

    def _run_all(self, capsys, out, fresh):
        results = []
        for argv in self._calls(out):
            if fresh:
                cli._parser.cache_clear()
            code, stdout, stderr = run_cli(capsys, *argv)
            written = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            results.append((argv, code, stdout, stderr, written))
        return results

    def test_consecutive_calls_match_fresh_ones(self, capsys, tmp_path):
        out = tmp_path / "out.txt"
        shared = self._run_all(capsys, out, fresh=False)
        assert cli._parser() is cli._parser()
        fresh = self._run_all(capsys, out, fresh=True)
        assert shared == fresh
        assert [r[1] for r in shared] == [0, 1, 1, 0, 2, 0, 1, 0, 0, 1, 0]
        assert shared[0][2] == shared[-1][2]
        # a file is written by exactly the successful calls that name --out
        assert [r[4] is not None for r in shared] == [
            "--out" in argv and code == 0 for argv, code, *_ in shared
        ]
        assert shared[3][4].startswith(b"i,weight\n") and shared[3][2] == ""

    def test_help_exit_leaves_the_parser_usable(self, capsys):
        _, before, _ = run_cli(capsys, "pmf", "--n", "3", "--p", "0.5")
        with pytest.raises(SystemExit) as exc:
            main(["pmf", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: summakit pmf")
        code, after, _ = run_cli(capsys, "pmf", "--n", "3", "--p", "0.5")
        assert code == 0 and after == before

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()
        assert build_parser() is not cli._parser()


# -- byte format -------------------------------------------------------------
# Each case returns (argv, params, columns, rows, report) built from the
# library objects; the expected stdout is rendered row by row below, so the
# CLI's columnar renderer is checked against an independent reference.


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _pmf(n, p):
    from summakit import PMFParams, pmf_row

    mass = pmf_row(PMFParams(n, p)).mass
    rows = [(i, float(m)) for i, m in enumerate(mass)]
    return ("pmf", "--n", str(n), "--p", str(p)), {"n": n, "p": p}, ["i", "mass"], rows, None


def _case_pmf(tmp_path):
    return _pmf(5, 0.3)


def _case_pmf_long(tmp_path):
    # several CSV chunks; both tails reach subnormal masses and then 0
    case = _pmf(30000, 0.3)
    masses = [m for _, m in case[3]]
    assert masses[0] == 0.0 and masses[-1] == 0.0
    assert any(0.0 < m < 2.2250738585072014e-308 for m in masses)
    return case


def _case_weights(tmp_path):
    from summakit import weights

    table = weights(5, 0.3).weights
    rows = [(i, float(w)) for i, w in enumerate(table)]
    return ("weights", "--n", "5", "--p", "0.3"), {"n": 5, "p": 0.3}, ["i", "weight"], rows, None


def _cesaro_geometric(a, horizon):
    from summakit import GeneratorSpec, cesaro_prefix, sequence_from_spec

    spec = GeneratorSpec("geometric", a=float(a))
    with np.errstate(over="ignore", invalid="ignore"):
        values = cesaro_prefix(sequence_from_spec(spec), horizon).values
    argv = ("transform", "--family", "geometric", "--a", str(a), "--kind", "cesaro",
            "--horizon", str(horizon))
    params = {"family": spec.label, "kind": "cesaro", "horizon": horizon}
    return argv, params, ["n", "value"], [(n, float(v)) for n, v in enumerate(values)], None


def _case_transform(tmp_path):
    case = _cesaro_geometric(3, 700)
    assert not math.isfinite(case[3][-1][1])  # the inf cells are part of the format
    return case


def _case_transform_signed(tmp_path):
    # (-3)**n overflows to -inf and +inf in turn, so the means reach -inf and NaN
    case = _cesaro_geometric(-3, 1300)
    values = [v for _, v in case[3]]
    assert -math.inf in values and any(math.isnan(v) for v in values)
    return case


def _binomial_geometric(a, p, horizon):
    from summakit import GeneratorSpec, binomial_prefix, sequence_from_spec

    spec = GeneratorSpec("geometric", a=float(a))
    with np.errstate(over="ignore", invalid="ignore"):
        values = binomial_prefix(sequence_from_spec(spec), p, horizon).values
    argv = ("transform", "--family", "geometric", "--a", str(a), "--kind", "binomial",
            "--p", str(p), "--horizon", str(horizon))
    params = {"family": spec.label, "kind": "binomial", "horizon": horizon, "p": p}
    return argv, params, ["n", "value"], [(n, float(v)) for n, v in enumerate(values)], None


def _case_transform_infinities(tmp_path):
    # (q + p a)**n = (-2)**n: +inf and -inf in turn, "Infinity" and "-Infinity"
    case = _binomial_geometric(-5.0, 0.5, 1100)
    values = [v for _, v in case[3]]
    assert math.inf in values and -math.inf in values
    return case


def _case_transform_negative_zero(tmp_path):
    # (-0.5)**n underflows to -0.0 at odd n past 1074
    case = _binomial_geometric(-2.0, 0.5, 1500)
    assert any(v == 0.0 and math.copysign(1.0, v) < 0 for _, v in case[3])
    return case


def _case_compare(tmp_path):
    return _compare(9, 0.4, 0.7)


def _case_compare_long(tmp_path):
    # several chunks of rows, two of its five columns one value each
    case = _compare(200000, 0.3, 0.6)
    assert len(case[3]) * len(case[2]) > 2**14
    return case


def _compare(n, p, q):
    # the masses of the slice as the command computes them, over the slice
    # and its certified window (a full row's masses differ in the last bits
    # at n = 2e5)
    from summakit.binomial_kernel import _row_mass

    span = range(max(0, math.floor(n - 5 * math.sqrt(n))), math.ceil(n + 5 * math.sqrt(n)) + 1)
    rows = [_row_mass(int(n / prob), prob, lo=span[0], hi=span[-1]) for prob in (p, q)]
    at = [[float(row[i]) if i < len(row) else 0.0 for i in range(len(span))] for row in rows]
    measured = max(at[0]) / max(at[1])
    predicted = math.sqrt((1 - q) / (1 - p))
    rows = [(i, mp, mq, measured, predicted) for i, mp, mq in zip(span, *at)]
    columns = ["i", "mass_p", "mass_q", "peak_ratio_measured", "peak_ratio_predicted"]
    argv = ("compare", "--p", str(p), "--q", str(q), "--n", str(n))
    return argv, {"p": p, "q": q, "n": n}, columns, rows, None


def _case_markov_limit(tmp_path, text="0.5,0.5,0\n0.25,0.5,0.25\n0,0.5,0.5\n"):
    from summakit import limit_matrix, load_matrix_csv, validate

    path = tmp_path / "m.csv"
    path.write_text(text)
    report = limit_matrix(validate(load_matrix_csv(str(path))))
    A = report.A.matrix.tolist()
    body = {
        "A": A,
        "iterations": report.iterations,
        "residual_fix": float(report.residual_fix),
        "residual_idem": float(report.residual_idem),
    }
    params = {"matrix_csv": str(path), "tol": 1e-12, "max_squarings": 64}
    return ("markov-limit", str(path)), params, [f"c{j}" for j in range(len(A))], A, body


def _case_markov_identical_rows(tmp_path):
    # P = 1 pi^T with dyadic pi is its own limit, exactly: every row prints
    # the same strings
    row = "0.0625,0.1875,0.25,0.3125,0.1875"
    case = _case_markov_limit(tmp_path, "\n".join([row] * 5) + "\n")
    assert all(r == case[3][0] for r in case[3])
    return case


def _case_table1(tmp_path):
    from summakit.sequences import run_table1

    rep = run_table1(0.25, 0.75, 40)
    rows = [
        (c.family, c.source, c.target, c.relation, c.outcome,
         c.source_verdict.status, c.source_verdict.value,
         c.target_verdict.status, c.target_verdict.value)
        for c in rep.cells
    ]
    assert any(r[6] is None for r in rows)  # the "" cell is part of the format
    columns = ["family", "source", "target", "relation", "outcome",
               "source_status", "source_value", "target_status", "target_value"]
    body = {
        "p": rep.p,
        "q": rep.q,
        "horizon": rep.horizon,
        "contradictions": rep.contradictions,
        "verdicts": {
            fam: {t: {"status": v.status, "value": v.value, "window": v.window, "tol": v.tol}
                  for t, v in per.items()}
            for fam, per in rep.verdicts.items()
        },
        "cells": [
            {"family": c.family, "source": c.source, "target": c.target,
             "relation": c.relation, "outcome": c.outcome}
            for c in rep.cells
        ],
        "witnesses": [
            {"family": c.family, "source": c.source, "target": c.target} for c in rep.witnesses
        ],
        "pq_witness": rep.pq_witness,
    }
    argv = ("table1", "--p", "0.25", "--q", "0.75", "--horizon", "40")
    return argv, {"p": 0.25, "q": 0.75, "horizon": 40}, columns, rows, body


def _explore(p, q, C, horizon):
    from summakit.sequences import probe_open_problem

    rep = probe_open_problem(p, q, C, horizon)
    names = ["series", "ordinal", "spike_index", "eval_index", "value"]
    assert list(rep.samples) == names
    rows = list(zip(*(rep.samples[k].tolist() for k in names)))
    body = {
        "p": rep.p, "q": rep.q, "C": rep.C, "height_scale": rep.height_scale,
        "horizon": rep.horizon, "amplitude_p": rep.amplitude_p,
        "amplitude_q": rep.amplitude_q,
        "samples": [dict(zip(names, r)) for r in rows],
    }
    argv = ("explore", "--p", str(p), "--q", str(q), "--C", str(C), "--horizon", str(horizon))
    params = {"p": p, "q": q, "C": C, "height_scale": 1.0, "horizon": horizon}
    return argv, params, names, rows, body


def _case_explore(tmp_path):
    return _explore(0.4, 0.7, 1.0, 200)


def _case_explore_long(tmp_path):
    # several thousand samples, more than one chunk of five-column rows
    case = _explore(0.4, 0.7, 1.0, 600000)
    assert len(case[3]) > 3000
    return case


def _case_explore_empty(tmp_path):
    # no spike at or below int(0.1 * 4) = 0: a header-only CSV, "samples": []
    case = _explore(0.1, 0.2, 1.0, 4)
    assert case[3] == [] and case[4]["samples"] == []
    return case


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "case",
    [_case_pmf, _case_pmf_long, _case_weights, _case_transform, _case_transform_signed,
     _case_transform_infinities, _case_transform_negative_zero, _case_compare,
     _case_compare_long, _case_markov_limit, _case_markov_identical_rows, _case_table1,
     _case_explore, _case_explore_long, _case_explore_empty],
    ids=lambda f: f.__name__[len("_case_"):],
)
def test_output_bytes(capsys, tmp_path, case, fmt):
    argv, params, columns, rows, report = case(tmp_path)
    code, out, _ = run_cli(capsys, *argv, "--output", fmt)
    assert code == 0
    if fmt == "csv":
        expected = "".join(",".join(map(_cell, r)) + "\n" for r in [columns, *rows])
    else:
        body = {"command": argv[0], "params": params}
        if report is None:
            body["rows"] = [list(r) for r in rows]
            body["columns"] = columns
        else:
            body["report"] = report
        expected = json.dumps(body) + "\n"
    assert out == expected
