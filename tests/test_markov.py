import warnings

import numpy as np
import pytest

from summakit import (
    ConvergenceError,
    MatrixValidationError,
    cesaro_matrix,
    lazy,
    limit_matrix,
    load_matrix_csv,
    validate,
)
from summakit.markov import inf_norm

from oracles import limit_matrix_squaring


def random_stochastic(rng, dim, sparsity=0.0):
    M = rng.random((dim, dim)) ** 2
    if sparsity:
        M = M * (rng.random((dim, dim)) >= sparsity)
        for r in range(dim):
            if M[r].sum() == 0.0:
                M[r, rng.integers(dim)] = 1.0
    return M / M.sum(axis=1)[:, None]


def chain_of_shape(rng, dim, shape):
    """A row-stochastic matrix: dense, three entries a row, cyclic
    permutations on random blocks (periodic), or absorbing states reached
    through a sparse rest."""
    if shape == "dense":
        M = rng.random((dim, dim))
    elif shape == "sparse":
        M = np.zeros((dim, dim))
        for r in range(dim):
            k = min(dim, 3)
            M[r, rng.choice(dim, size=k, replace=False)] = rng.random(k) + 0.1
    elif shape == "blocks":
        M = np.zeros((dim, dim))
        order, start = rng.permutation(dim), 0
        while start < dim:
            block = order[start : start + int(rng.integers(2, max(3, dim // 2) + 1))]
            M[block, np.roll(block, -1)] = 1.0
            start += len(block)
    else:
        absorbing = rng.choice(dim, size=max(1, dim // 10), replace=False)
        M = rng.random((dim, dim)) * (rng.random((dim, dim)) < 0.05)
        M[:, absorbing] += 0.01
        M[absorbing] = 0.0
        M[absorbing, absorbing] = 1.0
    return M / M.sum(axis=1, keepdims=True)


class TestValidate:
    def test_identity_accepted_unchanged(self):
        P = validate(np.eye(3))
        np.testing.assert_array_equal(P.matrix, np.eye(3))
        assert P.dim == 3

    def test_rows_renormalized_within_tolerance(self):
        P = validate([[0.5, 0.5001], [0.3, 0.7]], row_tol=1e-3)
        np.testing.assert_allclose(P.matrix.sum(axis=1), 1.0, atol=1e-15)

    def test_negative_entry_rejected(self):
        with pytest.raises(MatrixValidationError, match="row 0"):
            validate([[1.2, -0.2], [0.0, 1.0]])
        # the first offending row is named with its own minimum, although
        # row 2 holds a more negative entry
        with pytest.raises(MatrixValidationError, match=r"row 1 .*-0\.3\b"):
            validate([[0.5, 0.5, 0.0], [1.1, 0.2, -0.3], [1.5, -0.5, 0.0]])

    def test_tiny_negative_clamped(self):
        P = validate([[1.0 + 5e-13, -5e-13], [0.5, 0.5]])
        assert P.matrix.min() >= 0.0

    def test_bad_row_sum_names_row(self):
        with pytest.raises(MatrixValidationError, match="row 1"):
            validate([[0.5, 0.5], [0.9, 0.3]])

    def test_shape_checked(self):
        with pytest.raises(MatrixValidationError):
            validate([[0.5, 0.5]])
        with pytest.raises(MatrixValidationError):
            validate(np.zeros((0, 0)))

    def test_non_finite_rejected(self):
        with pytest.raises(MatrixValidationError):
            validate([[np.inf, 0.0], [0.5, 0.5]])

    @pytest.mark.parametrize("row_tol", [np.nan, -1.0, -1e-300])
    def test_bad_row_tol_rejected(self, row_tol):
        # a NaN row_tol used to accept any row, a negative one to name a
        # non-negative entry as negative
        with pytest.raises(MatrixValidationError, match="row_tol must be non-negative"):
            validate([[5.0, 5.0], [-3.0, 1.0]], row_tol=row_tol)
        with pytest.raises(MatrixValidationError, match="row_tol must be non-negative"):
            validate([[0.5, 0.5], [0.2, 0.8]], row_tol=row_tol)

    def test_zero_row_rejected(self):
        # within a row_tol of 1, a zero row would be divided by its sum
        with pytest.raises(MatrixValidationError, match="row 0 sums to 0"):
            validate([[0.0, 0.0], [0.5, 0.5]], row_tol=1.0)
        with pytest.raises(MatrixValidationError, match="row 1 sums to 0"):
            validate([[0.5, 0.5], [-0.5, 0.0]], row_tol=2.0)

    def test_messages_print_plain_floats(self):
        with pytest.raises(MatrixValidationError) as err:
            validate(np.array([[1.2, -0.2], [0.0, 1.0]]), row_tol=np.float64(1e-3))
        assert str(err.value) == "row 0 has a negative entry -0.2 beyond tolerance 0.001"
        with pytest.raises(MatrixValidationError) as err:
            validate(np.array([[0.5, 0.5], [0.9, 0.3]]))
        assert str(err.value) == "row 1 sums to 1.2, off 1 by more than tolerance 1e-12"


class TestLazy:
    def test_identity_fixed(self):
        P = validate(np.eye(4))
        np.testing.assert_array_equal(lazy(P).matrix, np.eye(4))

    def test_swap_chain(self):
        P = validate([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(lazy(P).matrix, [[0.5, 0.5], [0.5, 0.5]])

    def test_absorbing(self):
        P = validate([[1.0, 0.0], [0.5, 0.5]])
        np.testing.assert_array_equal(lazy(P).matrix, [[1.0, 0.0], [0.25, 0.75]])

    def test_preserves_stochasticity_tightly(self):
        rng = np.random.default_rng(3)
        for dim in (1, 2, 5, 20):
            P = validate(random_stochastic(rng, dim))
            sums = lazy(P).matrix.sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) <= 1e-15 * dim


class TestLimitMatrix:
    def test_identity(self):
        report = limit_matrix(validate(np.eye(3)))
        np.testing.assert_array_equal(report.A.matrix, np.eye(3))
        assert report.residual_fix == 0.0
        assert report.residual_idem == 0.0

    def test_period_two_chain(self):
        report = limit_matrix(validate([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(report.A.matrix, np.full((2, 2), 0.5), atol=1e-12)

    def test_absorbing_closed_form(self):
        report = limit_matrix(validate([[1.0, 0.0], [0.5, 0.5]]))
        np.testing.assert_allclose(report.A.matrix, [[1.0, 0.0], [1.0, 0.0]], atol=1e-10)

    def test_cycle_averages_uniformly(self):
        P = np.zeros((5, 5))
        for i in range(5):
            P[i, (i + 1) % 5] = 1.0
        report = limit_matrix(validate(P))
        np.testing.assert_allclose(report.A.matrix, 0.2, atol=1e-12)

    def test_random_chains_residuals(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            dim = int(rng.integers(1, 21))
            P = validate(random_stochastic(rng, dim, sparsity=0.3))
            report = limit_matrix(P)
            assert report.residual_fix <= 1e-9
            assert report.residual_idem <= 1e-9
            assert np.max(np.abs(report.A.matrix.sum(axis=1) - 1.0)) <= 1e-10

    @pytest.mark.parametrize("shape", ["dense", "sparse", "blocks", "absorbing"])
    def test_bits_of_the_plain_squaring_loop(self, shape):
        # the reference loop of a fresh array a product: any rewrite of
        # limit_matrix keeps A, the squaring count and both residuals
        rng = np.random.default_rng(32)
        for dim in (1, 2, 5, 31, 120):
            P = validate(chain_of_shape(rng, dim, shape))
            report = limit_matrix(P)
            A, iterations, fix, idem = limit_matrix_squaring(P.matrix)
            assert np.array_equal(report.A.matrix, A), (shape, dim)
            assert (report.iterations, report.residual_fix, report.residual_idem) == (
                iterations, fix, idem), (shape, dim)

    def test_non_convergence_carries_residual(self):
        P = validate([[0.9999, 0.0001], [0.0001, 0.9999]])
        with pytest.raises(ConvergenceError) as err:
            limit_matrix(P, tol=1e-12, max_squarings=4)
        assert err.value.residual is not None
        assert err.value.residual > 1e-12

    def test_bad_tol_rejected(self):
        with pytest.raises(MatrixValidationError):
            limit_matrix(validate(np.eye(2)), tol=0.0)

    def test_nan_tol_rejected(self):
        # a NaN tol never stops the squarings
        with pytest.raises(MatrixValidationError, match="tol must be positive, got nan"):
            limit_matrix(validate(np.eye(2)), tol=np.float64(np.nan))

    def test_infinite_tol_rejected(self):
        # an infinite tol passes the stopping test after one squaring: on
        # this cycle that gives ((P + I) / 2)**2, not the limit
        P = validate([[0.9, 0.1, 0.0], [0.0, 0.9, 0.1], [0.1, 0.0, 0.9]])
        with pytest.raises(MatrixValidationError, match="tol must be finite, got inf"):
            limit_matrix(P, tol=float("inf"))

    @pytest.mark.parametrize("max_squarings", [0, -3])
    def test_no_squarings_rejected(self, max_squarings):
        with pytest.raises(MatrixValidationError, match="max_squarings must be at least 1"):
            limit_matrix(validate(np.eye(2)), max_squarings=max_squarings)

    def test_one_squaring_allowed(self):
        assert limit_matrix(validate(np.eye(2)), max_squarings=1).iterations == 1


class TestCesaroMatrix:
    def test_identity(self):
        P = validate(np.eye(3))
        np.testing.assert_array_equal(cesaro_matrix(P, 1000), np.eye(3))

    def test_single_step_average(self):
        P = validate([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(cesaro_matrix(P, 1), [[0.5, 0.5], [0.5, 0.5]])

    def test_approaches_limit_matrix(self):
        rng = np.random.default_rng(9)
        P = validate(random_stochastic(rng, 5))
        A = limit_matrix(P).A.matrix
        gap = np.max(np.abs(cesaro_matrix(P, 2000) - A))
        assert gap <= 0.01

    def test_negative_N_rejected(self):
        with pytest.raises(MatrixValidationError):
            cesaro_matrix(validate(np.eye(2)), -1)


class TestCsvIngest:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.5,0.5\n0.25,0.75\n")
        M = load_matrix_csv(path)
        np.testing.assert_array_equal(M, [[0.5, 0.5], [0.25, 0.75]])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0\n\n")
        np.testing.assert_array_equal(load_matrix_csv(path), [[1.0]])

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.5,0.5\n1.0\n")
        with pytest.raises(MatrixValidationError):
            load_matrix_csv(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.5,spam\n")
        with pytest.raises(MatrixValidationError, match="line 1"):
            load_matrix_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("\n")
        with pytest.raises(MatrixValidationError):
            load_matrix_csv(path)


def line_parse(path):
    # the loader's rule, one float() per cell: the reference for its fast path
    with open(path, encoding="utf-8") as fh:
        rows = [[float(tok) for tok in line.split(",")] for line in fh if line.strip()]
    return np.asarray(rows, dtype=float)


def random_cells(rng, shape):
    bits = rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64)
    special = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 1e-320]
    picks = rng.random(shape)
    cells = np.where(picks < 0.1, rng.choice(special, size=shape), bits)
    return cells


class TestCsvFastPath:
    """load_matrix_csv's loadtxt path against a float() per cell, bit for bit."""

    SPELLINGS = (repr, "{:.17g}".format, "{:.6e}".format, "{:.3f}".format, "{:+.12E}".format)

    @pytest.fixture
    def no_fallback(self, monkeypatch):
        from summakit import markov

        def refuse(path):
            raise AssertionError("fell back to the line parse")

        monkeypatch.setattr(markov, "_load_matrix_lines", refuse)

    def write(self, tmp_path, text, newline="\n"):
        path = tmp_path / "m.csv"
        path.write_bytes(text.replace("\n", newline).encode())
        return path

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_random_matrices(self, tmp_path, no_fallback, newline):
        rng = np.random.default_rng(17)
        for trial in range(40):
            shape = (rng.integers(1, 30), rng.integers(1, 30))
            fmt = self.SPELLINGS[trial % len(self.SPELLINGS)]
            cells = [[fmt(float(v)) for v in row] for row in random_cells(rng, shape)]
            pad = [" " * int(k) for k in rng.integers(0, 3, 2)]
            lines = [",".join(pad[0] + c + pad[1] for c in row) for row in cells]
            text = "\n".join(lines) + ("\n\n" if trial % 2 else "")
            path = self.write(tmp_path, text, newline)
            got = load_matrix_csv(path)
            assert got.shape == shape
            assert got.tobytes() == line_parse(path).tobytes()

    def test_inf_and_nan_spellings(self, tmp_path, no_fallback):
        path = self.write(tmp_path, "inf,-Infinity,+INF\nnan,-NaN,1e999\n1e-400,-0,0.5\n")
        assert load_matrix_csv(path).tobytes() == line_parse(path).tobytes()

    def test_whitespace_only_lines(self, tmp_path, no_fallback):
        # loadtxt would read "  " as a cell: such lines are dropped before it
        rng = np.random.default_rng(23)
        cells = random_cells(rng, (300, 300))
        matrix = "\n".join(",".join(repr(float(v)) for v in row) for row in cells) + "\n  \n"
        for newline in ("\n", "\r\n"):
            path = self.write(tmp_path, "0.5,0.5\n   \n\t\n0.25,0.75\n \n", newline)
            got = load_matrix_csv(path)
            assert got.tobytes() == np.array([[0.5, 0.5], [0.25, 0.75]]).tobytes()
            path = self.write(tmp_path, matrix, newline)
            assert load_matrix_csv(path).tobytes() == line_parse(path).tobytes()

    def test_spellings_only_float_reads(self, tmp_path):
        text = "1_0,\uff11.\uff15\n\u0661,2_5e-1\n"
        path = self.write(tmp_path, text)
        assert load_matrix_csv(path).tobytes() == np.array([[10.0, 1.5], [1.0, 2.5]]).tobytes()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0.5,0.5\n \n0.5,spam\n", "line 3 of {}: could not convert string to float: 'spam'"),
            ("0.5,0.5\r\n0.5,\r\n", "line 2 of {}: could not convert string to float: ''"),
            ("#1,0\n", "line 1 of {}: could not convert string to float: '#1'"),
            ("0.5,0.5\n1.0\n", "{} has ragged rows"),
            ("", "{} contains no matrix rows"),
            ("\n \r\n\t\n", "{} contains no matrix rows"),
        ],
    )
    def test_messages(self, tmp_path, text, message):
        path = self.write(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MatrixValidationError) as info:
                load_matrix_csv(path)
        assert str(info.value) == message.format(path)

    def test_not_utf8_message(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"0.5,\xff0.5\n")
        with pytest.raises(MatrixValidationError) as info:
            load_matrix_csv(path)
        assert str(info.value) == (
            f"{path} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 4: "
            "invalid start byte"
        )


def test_inf_norm_is_max_row_sum():
    assert inf_norm([[1.0, -2.0], [0.5, 0.25]]) == 3.0
