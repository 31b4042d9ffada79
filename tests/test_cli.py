import json
import math

import numpy as np
import pytest

from summakit.cli import main


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
    def test_cesaro_alternating(self, capsys):
        code, out, _ = run_cli(
            capsys, "transform", "--family", "alternating01", "--kind", "cesaro", "--horizon", "4"
        )
        assert code == 0
        _, rows = csv_rows(out)
        values = [float(r[1]) for r in rows]
        np.testing.assert_allclose(values, [1.0, 0.5, 2 / 3, 0.5, 0.6], rtol=0, atol=0)

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

    def test_equal_parameters_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "compare", "--p", "0.5", "--q", "0.5", "--n", "100")
        assert code == 1


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


class TestOutputDiscipline:
    def test_byte_identical_reruns(self, capsys):
        args = ("table1", "--p", "0.3", "--q", "0.6", "--horizon", "300", "--output", "json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, out, _ = run_cli(
            capsys, "pmf", "--n", "2", "--p", "0.5", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("i,mass\n")
