import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import tcc.centralizer
import tcc.cli
import tcc.comb
import tcc.linalg
from tcc import CombParams, Matrix, Prime, TwistSpec, analyze
from tcc.channel import COUNT_DIGIT_LIMIT
from tcc.cli import EXIT_FAILURE, EXIT_GUARD, EXIT_OK, EXIT_USAGE, _hypotheses_met, build_parser, main
from helpers import (
    DefectiveMatrixError,
    child_env,
    diagonal_dim,
    diagonalize,
    kronecker_code,
    recurrence_calls,
    similar_to_diagonal,
    verify_document,
    verify_table,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _matrix_file(p, data) -> str:
    """Matrix file text of the square integer array ``data`` over GF(p)."""
    n = len(data)
    return f"{p} {n} {n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in data.tolist())


class TestSpectrumCommand:
    def test_merged_eigenvalue_case(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--n", "2", "--p", "3", "--x", "1", "--y", "1")
        assert code == EXIT_OK
        assert "eigenvalue 0 with multiplicity 1" in out
        assert "eigenvalue 1 with multiplicity 1" in out
        assert "agrees" in out
        assert "diagonalizable: yes" in out

    def test_defective_case(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--n", "3", "--p", "3", "--x", "1", "--y", "1")
        assert code == EXIT_OK
        assert "eigenvalue 1 with multiplicity 2" in out
        assert "diagonalizable: no" in out

    def test_defective_case_json_omits_diagonal(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--n", "3", "--p", "3", "--x", "1", "--y", "1", "--json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["diagonalizable"] is False
        assert "diagonal" not in doc

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--n", "2", "--p", "3", "--x", "1", "--y", "1", "--json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["eigenvalues"] == [[0, 1], [1, 1]]
        assert doc["diagonalizable"] is True
        assert doc["diagonal"] == [0, 1]
        assert doc["scan_agrees"] is True
        # Machine output must round-trip.
        assert json.loads(json.dumps(doc)) == doc

    def test_order_one_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--n", "1", "--p", "3", "--x", "1", "--y", "1")
        assert code == EXIT_USAGE
        assert "order n" in err

    def test_non_prime_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--n", "2", "--p", "4", "--x", "1", "--y", "1")
        assert code == EXIT_USAGE
        assert "prime" in err

    def test_diagonal_matches_eigenbasis_oracle(self, capsys):
        # Every (n, p, x, y) with n <= 6 and p <= 7: "diagonal" is printed
        # exactly when the eigenbasis exists, and equals its D.
        diagonalizable = 0
        for p in (2, 3, 5, 7):
            for n in range(2, 7):
                for x in range(p):
                    for y in range(p):
                        argv = ["spectrum", "--n", str(n), "--p", str(p), "--x", str(x), "--y", str(y), "--json"]
                        code, out, _ = run_cli(capsys, *argv)
                        doc = json.loads(out)
                        try:
                            d = diagonalize(CombParams(n, x, y, Prime(p)))
                        except DefectiveMatrixError:
                            assert code == EXIT_OK and "diagonal" not in doc, argv
                            continue
                        assert code == EXIT_OK and doc["diagonal"] == d.diagonal.array.diagonal().tolist(), argv
                        diagonalizable += 1
        # Only x != 0 with p | n is defective: orders n times nonzero x times y, for p = 2, 3, 5.
        assert diagonalizable == 5 * (4 + 9 + 25 + 49) - 3 * 1 * 2 - 2 * 2 * 3 - 1 * 4 * 5 == 397

    def test_scan_skipped_for_large_prime(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--n", "2", "--p", "1009", "--x", "1", "--y", "1")
        assert code == EXIT_OK
        assert "skipped" in out
        assert "diagonalizable: yes" in out


class TestBuildCommand:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "build", "--n", "2", "--p", "3", "--x", "1", "--y", "1", "--a", "2")
        assert code == EXIT_OK
        assert "dim = 1" in out
        assert "[1 1 1 1]" in out

    def test_untwisted_centralizer_has_dim_at_least_two(self, capsys):
        code, out, _ = run_cli(
            capsys, "build", "--n", "2", "--p", "3", "--x", "1", "--y", "1", "--a", "1", "--json"
        )
        assert code == EXIT_OK
        assert json.loads(out)["dimension"] >= 2

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "build", "--n", "2", "--p", "3", "--x", "1", "--y", "1", "--a", "2", "--json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc == {"p": 3, "n": 2, "x": 1, "y": 1, "a": 2, "length": 4, "dimension": 1}

    @pytest.mark.parametrize(
        "flags, out",
        [
            # (n - 1)^2 + 1 rows over GF(7), and the full space at the largest prime.
            ("--p 7 --x 1 --y 1 --a 1", '{"p": 7, "n": 64, "x": 1, "y": 1, "a": 1, "length": 4096, "dimension": 3970}\n'),
            (
                "--p 2147483647 --x 0 --y 1 --a 1",
                '{"p": 2147483647, "n": 64, "x": 0, "y": 1, "a": 1, "length": 4096, "dimension": 4096}\n',
            ),
        ],
    )
    def test_order_64_comb_builds_check_every_row(self, capsys, monkeypatch, flags, out):
        # Both have s = 0, so each row's residual is read from its first row and column: 127 entries.
        shapes = []
        residual = tcc.centralizer._comb_residual

        def recorded(*args):
            result = residual(*args)
            shapes.append(result.shape)
            return result

        monkeypatch.setattr(tcc.centralizer, "_comb_residual", recorded)
        assert run_cli(capsys, "build", "--n", "64", *flags.split(), "--json") == (EXIT_OK, out, "")
        assert {shape[::2] for shape in shapes} == {(1, 127)}
        assert sum(shape[1] for shape in shapes) == json.loads(out)["dimension"]

    def test_matrix_file_input(self, capsys, tmp_path):
        path = tmp_path / "a.mat"
        path.write_text("3 2 2\n2 1\n1 2\n")
        code, out, _ = run_cli(capsys, "build", "--matrix-file", str(path), "--a", "2", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc == {"p": 3, "n": 2, "a": 2, "length": 4, "dimension": 1}
        assert "x" not in doc and "y" not in doc

    def test_malformed_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("3 2 2\n2 9\n1 2\n")
        code, _, err = run_cli(capsys, "build", "--matrix-file", str(path), "--a", "2")
        assert code == EXIT_USAGE
        assert "line 2, column 2" in err

    @pytest.mark.parametrize(
        "text, where",
        [
            ("13 2 2\n1_0 1\n1 \u0663\n", "line 2, column 1: '1_0' is not an integer"),
            ("13 2 2\n1 1\n1 \u0663\n", "line 3, column 2: '\u0663' is not an integer"),
            ("1_3 2 2\n1 1\n1 1\n", "line 1: header fields must be integers"),
        ],
    )
    def test_matrix_file_with_non_ascii_decimal_token(self, capsys, tmp_path, text, where):
        path = tmp_path / "a.mat"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "build", "--matrix-file", str(path), "--a", "2")
        assert (code, out, err) == (EXIT_USAGE, "", f"tcc: matrix file error: {where}\n")

    def test_form_feed_starts_no_row(self, capsys, tmp_path):
        # Only a line feed ends a row, so "2 1\f1 2" is one row of four entries.
        path = tmp_path / "a.mat"
        path.write_text("3 2 2\n2 1\x0c1 2\n")
        code, out, err = run_cli(capsys, "build", "--matrix-file", str(path), "--a", "2")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "tcc: matrix file error: line 2: expected 2 data rows, got 1\n"

    def test_matrix_file_beyond_the_largest_order_refused_at_its_header(self, capsys, tmp_path):
        path = tmp_path / "a.mat"
        path.write_text(_matrix_file(3, np.eye(65, dtype=int)))
        code, out, err = run_cli(capsys, "build", "--matrix-file", str(path), "--a", "1")
        message = "line 1: matrix shape must be within 1..64 per axis, got 65x65"
        assert (code, out, err) == (EXIT_USAGE, "", f"tcc: matrix file error: {message}\n")

    def test_missing_matrix_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "build", "--matrix-file", str(tmp_path / "nope"), "--a", "2")
        assert code == EXIT_USAGE
        assert "cannot read" in err

    def test_non_square_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "rect.mat"
        path.write_text("3 1 2\n1 2\n")
        code, _, err = run_cli(capsys, "build", "--matrix-file", str(path), "--a", "2")
        assert code == EXIT_USAGE
        assert "square" in err

    @pytest.mark.parametrize("command", ["build", "analyze"])
    def test_matrix_file_refuses_comb_flags(self, capsys, tmp_path, command):
        path = tmp_path / "a.mat"
        path.write_text("3 2 2\n2 1\n1 2\n")
        flags = ["--matrix-file", str(path), "--a", "2", "--json"]
        code, out, err = run_cli(capsys, command, *flags, "--n", "5", "--p", "7", "--x", "1", "--y", "1")
        assert (code, out) == (EXIT_USAGE, "")
        assert "--matrix-file cannot be combined with --n --p --x --y" in err
        code, out, err = run_cli(capsys, command, *flags, "--y", "0")
        assert (code, out) == (EXIT_USAGE, "")
        assert "--matrix-file cannot be combined with --y\n" in err

    def test_coefficients_reported_mod_p(self, capsys):
        code, out, _ = run_cli(capsys, "build", "--n", "2", "--p", "7", "--x", "-1", "--y", "9", "--a", "9", "--json")
        assert code == EXIT_OK
        assert json.loads(out) == {"p": 7, "n": 2, "x": 6, "y": 2, "a": 2, "length": 4, "dimension": 1}

    def test_params_or_file_required(self, capsys):
        code, _, err = run_cli(capsys, "build", "--a", "2")
        assert code == EXIT_USAGE
        assert "--matrix-file" in err

    def test_comb_flags_take_the_structured_solve(self, capsys, monkeypatch):
        def no_operator(spec):
            raise AssertionError("comb flags must not build T")

        monkeypatch.setattr(tcc.centralizer, "twisted_operator", no_operator)
        code, out, _ = run_cli(capsys, "build", "--n", "32", "--p", "7", "--x", "1", "--y", "1", "--a", "3", "--json")
        assert code == EXIT_OK
        assert json.loads(out) == {"p": 7, "n": 32, "x": 1, "y": 1, "a": 3, "length": 1024, "dimension": 31}

    def test_solver_fault_is_no_usage_error(self, capsys, monkeypatch):
        # A generator row outside C(A, a) is tcc's fault: it must not exit 1 as if the flags were wrong.
        original = tcc.centralizer._comb_rows

        def perturbed(*args):
            gen = original(*args)
            gen[0, 4] += 1
            return gen

        monkeypatch.setattr(tcc.centralizer, "_comb_rows", perturbed)
        with pytest.raises(RuntimeError, match="twisted commutation"):
            main(["build", "--n", "3", "--p", "5", "--x", "1", "--y", "2", "--a", "2"])
        assert capsys.readouterr() == ("", "")

    def test_malformed_generator_is_no_usage_error(self, capsys, monkeypatch):
        # An entry outside [0, p) is a fault of the solve too, though LinearCode refuses it with ValueError.
        original = tcc.centralizer._comb_rows

        def unreduced(*args):
            gen = original(*args)
            row, col = np.argwhere(gen == 2)[0]
            gen[row, col] += 1
            return gen

        monkeypatch.setattr(tcc.centralizer, "_comb_rows", unreduced)
        with pytest.raises(RuntimeError, match=r"residues in \[0, 3\); the solve is broken"):
            main(["build", "--n", "3", "--p", "3", "--x", "1", "--y", "1", "--a", "1"])
        assert capsys.readouterr() == ("", "")


class TestKroneckerGuard:
    @pytest.fixture
    def no_elimination(self, monkeypatch):
        def refuse(a, p):
            raise AssertionError("no elimination may start past the guard")

        monkeypatch.setattr(tcc.linalg, "_rref_array", refuse)

    def test_order_33_matrix_file_refused(self, capsys, tmp_path, no_elimination):
        # diag(2, 1, ..., 1) is no comb matrix, and its eigenvalue 1 of multiplicity 32
        # makes b = 32 Hessenberg blocks, so 2b > n leaves only the Kronecker kernel.
        path = tmp_path / "big.mat"
        path.write_text(_matrix_file(3, np.diag([2] + [1] * 32)))
        code, out, err = run_cli(capsys, "build", "--matrix-file", str(path), "--a", "1", "--json")
        assert code == EXIT_GUARD
        assert out == ""
        assert "guard exceeded" in err and "1089x1089" in err

    @pytest.mark.parametrize("n, p, x, y, a, dim", [(33, 3, 1, 1, 1, 1025), (64, 7, 1, 1, 4, 63)])
    def test_comb_matrix_file_beyond_32_solved(self, capsys, tmp_path, no_elimination, n, p, x, y, a, dim):
        # A comb matrix read from a file takes the closed form, as the same matrix from flags does.
        path = tmp_path / "comb.mat"
        path.write_text(_matrix_file(p, np.full((n, n), x) + y * np.eye(n, dtype=int)))
        code, out, err = run_cli(capsys, "build", "--matrix-file", str(path), "--a", str(a), "--json")
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out) == {"p": p, "n": n, "a": a, "length": n * n, "dimension": dim}
        flags = ["--n", str(n), "--p", str(p), "--x", str(x), "--y", str(y), "--a", str(a), "--json"]
        code, out, err = run_cli(capsys, "build", *flags)
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["dimension"] == dim

    def test_merged_comb_beyond_32_solved(self, capsys, monkeypatch):
        # 3 | 33, so x*J + y*I has no eigenbasis; the sum solve needs no T either.
        def no_operator(spec):
            raise AssertionError("comb flags must not build T")

        monkeypatch.setattr(tcc.centralizer, "twisted_operator", no_operator)
        code, out, err = run_cli(capsys, "build", "--n", "33", "--p", "3", "--x", "1", "--y", "1", "--a", "1", "--json")
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out) == {"p": 3, "n": 33, "x": 1, "y": 1, "a": 1, "length": 1089, "dimension": 1025}
        code, out, err = run_cli(capsys, "analyze", "--n", "33", "--p", "3", "--x", "1", "--y", "1", "--a", "2")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "tcc: zero code: C(A, a) contains only the zero matrix, nothing to analyze\n"


class TestBeyondOrder32:
    """A non-comb --matrix-file past order 32 is solved from ker A when a = 0, else by the Hessenberg recurrence when 2b <= n."""

    @pytest.fixture
    def no_operator(self, monkeypatch):
        def refuse(spec):
            raise AssertionError("the recurrence must not build T")

        monkeypatch.setattr(tcc.centralizer, "twisted_operator", refuse)

    @pytest.mark.parametrize(
        "n, p, a, diag",
        [
            # Random eigenvalues over GF(97), repeated at most a few times.
            (48, 97, 2, np.random.default_rng(48).integers(1, 97, size=48)),
            # 2^i for i < 64 are distinct mod 997, and d_i = 2 d_j exactly when i = j + 1.
            (64, 997, 2, [pow(2, i, 997) for i in range(64)]),
        ],
    )
    def test_similar_to_diagonal_builds(self, capsys, tmp_path, monkeypatch, no_operator, n, p, a, diag):
        prime = Prime(p)
        matrix = similar_to_diagonal(np.random.default_rng(n), diag, prime)
        path = tmp_path / "big.mat"
        path.write_text(_matrix_file(p, matrix.array))
        solved = recurrence_calls(monkeypatch)
        code, out, err = run_cli(capsys, "build", "--matrix-file", str(path), "--a", str(a), "--json")
        assert (code, err) == (EXIT_OK, "")
        dim = diagonal_dim(diag, a, p)
        assert json.loads(out) == {"p": p, "n": n, "a": a, "length": n * n, "dimension": dim}
        assert len(solved) == 1
        if n == 64:
            assert dim == 63

    def test_recurrence_beyond_its_guard_refused(self, capsys, tmp_path, monkeypatch):
        def refuse(a, p):
            raise AssertionError("no elimination may start past the guard")

        monkeypatch.setattr(tcc.linalg, "_rref_array", refuse)
        # 4 eigenvalues of multiplicity 16 give b = 16 blocks: 2b <= 64, but too many cells.
        path = tmp_path / "big.mat"
        path.write_text(_matrix_file(5, np.diag(np.arange(64) // 16)))
        code, out, err = run_cli(capsys, "build", "--matrix-file", str(path), "--a", "1", "--json")
        assert (code, out) == (EXIT_GUARD, "")
        assert "guard exceeded" in err and "1024x4096 generator" in err

    def test_untwisted_order_40_builds_from_the_kernel_of_a(self, capsys, tmp_path, monkeypatch, no_operator):
        # C(A, 0) = {B : A B = 0} is n copies of ker A: dimension n nullity(A) = 40 * 5.
        diag = [0] * 5 + list(range(1, 36))
        path = tmp_path / "big.mat"
        path.write_text(_matrix_file(97, similar_to_diagonal(np.random.default_rng(40), diag, Prime(97)).array))
        solved = recurrence_calls(monkeypatch)
        code, out, err = run_cli(capsys, "build", "--matrix-file", str(path), "--a", "0", "--json")
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out) == {"p": 97, "n": 40, "a": 0, "length": 1600, "dimension": 200}
        assert diagonal_dim(diag, 0, 97) == 200 and solved == []

    def test_untwisted_kernel_beyond_its_guard_refused(self, capsys, tmp_path, no_operator):
        # Nullity 9 at order 64: 576 rows of 4096 cells pass 2^21, refused before the generator is written.
        path = tmp_path / "big.mat"
        path.write_text(_matrix_file(5, np.diag([0] * 9 + [1] * 55)))
        code, out, err = run_cli(capsys, "build", "--matrix-file", str(path), "--a", "0", "--json")
        assert (code, out) == (EXIT_GUARD, "")
        assert "guard exceeded" in err and "nullity 9 has a 576x4096 generator" in err


class TestRecurrenceReads:
    """A recurrence code's rows are reduced to RREF only when a command prints its generator."""

    # This A similar to diag(1, 1, 2, 3, 4, 0) over GF(5) has b = 3 Hessenberg blocks, so C(A, 1),
    # of dimension 4 + 4, takes the recurrence, whose system is 18-square.
    DIAG = [1, 1, 2, 3, 4, 0]

    @pytest.fixture
    def spec(self):
        return TwistSpec(similar_to_diagonal(np.random.default_rng(6), self.DIAG, Prime(5)), 1)

    @pytest.fixture
    def path(self, tmp_path, spec):
        path = tmp_path / "a.mat"
        path.write_text(_matrix_file(5, spec.matrix.array))
        return str(path)

    @pytest.fixture
    def shapes(self, monkeypatch):
        shapes = []
        original = tcc.linalg._rref_array

        def recorded(a, p):
            shapes.append(a.shape)
            return original(a, p)

        monkeypatch.setattr(tcc.linalg, "_rref_array", recorded)
        return shapes

    def test_json_commands_run_no_n_squared_elimination(self, capsys, monkeypatch, spec, path, shapes):
        solved = recurrence_calls(monkeypatch)
        oracle = analyze(kronecker_code(spec))
        for command in ("build", "analyze"):
            shapes.clear()
            code, out, err = run_cli(capsys, command, "--matrix-file", path, "--a", "1", "--json")
            assert (code, err) == (EXIT_OK, ""), command
            assert json.loads(out)["dimension"] == diagonal_dim(self.DIAG, 1, 5) == 8
            assert shapes == [(18, 18)], command
        assert json.loads(out)["min_distance"] == oracle.min_distance
        assert len(solved) == 2

    def test_human_build_prints_the_reduced_generator(self, capsys, spec, path, shapes):
        code, out, err = run_cli(capsys, "build", "--matrix-file", path, "--a", "1")
        assert (code, err) == (EXIT_OK, "")
        assert shapes == [(18, 18), (8, 36)]
        generator = Matrix(kronecker_code(spec).generator, Prime(5))
        assert out == f"C(A, 1) over GF(5), n = 6\ndim = 8\ngenerator (RREF):\n{generator}\n"

    def test_dependent_rows_fail_before_anything_prints(self, capsys, monkeypatch, path):
        # A repeated member passes every membership check, and --json never reads the generator;
        # the human build reads it first, so the fault raises before any output.
        original = tcc.centralizer._recurrence_generator

        def repeated(*args):
            gen = original(*args)
            return np.vstack([gen, gen[:1]])

        monkeypatch.setattr(tcc.centralizer, "_recurrence_generator", repeated)
        with pytest.raises(RuntimeError, match="9 basis rows have rank 8; the solve is broken"):
            main(["build", "--matrix-file", path, "--a", "1"])
        assert capsys.readouterr() == ("", "")


class TestAnalyzeCommand:
    def test_nine_one_nine_over_gf7(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--n", "3", "--p", "7", "--x", "2", "--y", "1", "--a", "3", "--json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc == {
            "p": 7,
            "n": 3,
            "x": 2,
            "y": 1,
            "a": 3,
            "length": 9,
            "dimension": 1,
            "min_distance": 9,
            "mds": True,
            "detect": 8,
            "correct": 4,
            "rate": "1/9",
        }

    def test_human_rendering(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--n", "2", "--p", "3", "--x", "1", "--y", "1", "--a", "2")
        assert code == EXIT_OK
        assert "[4, 1, 4]" in out
        assert "MDS: yes" in out
        assert "rate: 1/4" in out

    def test_theorem_code_at_largest_prime(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--n", "3", "--p", "2147483647", "--x", "1", "--y", "2147483644", "--a", "2", "--json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert (doc["length"], doc["dimension"], doc["min_distance"]) == (9, 1, 9)
        assert doc["mds"] is True

    def test_zero_code_reported(self, capsys, tmp_path):
        path = tmp_path / "ident.mat"
        path.write_text("3 2 2\n1 0\n0 1\n")
        code, _, err = run_cli(capsys, "analyze", "--matrix-file", str(path), "--a", "0")
        assert code == EXIT_USAGE
        assert "zero code" in err

    def test_full_space_from_zero_matrix(self, capsys, tmp_path):
        path = tmp_path / "zero.mat"
        path.write_text("3 2 2\n0 0\n0 0\n")
        code, out, _ = run_cli(capsys, "analyze", "--matrix-file", str(path), "--a", "1", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert (doc["length"], doc["dimension"], doc["min_distance"]) == (4, 4, 1)
        assert doc["mds"] is True
        assert "x" not in doc and "y" not in doc  # unknown under --matrix-file, omitted


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--p-max", "3", "--n-max", "3")
        assert code == EXIT_OK
        assert "0 mismatches" in out

    def test_stock_sweep_verifies(self, capsys):
        # The headline check: defaults (p <= 7, n <= 5) must come back clean.
        code, out, _ = run_cli(capsys, "verify")
        assert code == EXIT_OK
        assert "2012 tuples, 162 met the hypotheses, 0 mismatches" in out

    def test_array_hypotheses_match_the_scalar_form_on_the_full_grid(self):
        # verify reads each slice's hypotheses as one array; simulate reads one tuple as ints.
        tuples = 0
        for p in (2, 3, 5, 7, 11, 13):
            x, y, a = np.indices((p, p, p)).reshape(3, -1)
            for n in range(2, 7):
                scalar = [_hypotheses_met(p, n, *t) for t in zip(x.tolist(), y.tolist(), a.tolist())]
                assert _hypotheses_met(p, n, x, y, a).tolist() == scalar, (p, n)
                assert {type(met) for met in scalar} == {bool}
                tuples += len(scalar)
        assert tuples == 20155
        # simulate's flags are unreduced ints: -1 * 3 + 3 = 0 and a = 7 = 2 over GF(5).
        assert _hypotheses_met(5, 3, -1, 3, 7) is True and _hypotheses_met(5, 3, -1, 3, 6) is False

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--p-max", "3", "--n-max", "2", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["tuples"] == len(doc["rows"]) == 8 + 27
        met = [row for row in doc["rows"] if row["hypotheses_met"]]
        assert all(row["matches_theorem"] for row in met)
        unmet = [row for row in doc["rows"] if not row["hypotheses_met"]]
        assert all("min_distance" not in row and "matches_theorem" not in row for row in unmet)

    def test_stock_json_sweep_pinned(self, capsys):
        # The sha256 of the whole --json document: every row's dimension,
        # distance and theorem verdict, byte for byte.
        code, out, _ = run_cli(capsys, "verify", "--p-max", "7", "--n-max", "5", "--json")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == "85282103cc5b228a88d257285d9a635de7c99188172e67b75e702fcdf20a14b7"

    def test_full_json_sweep_pinned(self, capsys, monkeypatch):
        # The largest sweep verify accepts: p <= 13 and n <= 6, 20,155 tuples.
        # Every comb generator is written in closed form, so nothing eliminates, and
        # each (p, n) slice hands its p^3 triples (x, y, a) to comb_codes: no matrix
        # is built and none is read back.  Each slice is one batch: 253 closed-form
        # groups, 30 of them zero codes, since every a outside {0, 1} shares the
        # "sums" rows when p does not divide n.  Every hypothesis tuple of a slice shares
        # span(J), so analyze runs once per slice that has any: p > 2, and p not
        # dividing n, else p | x n + y forces p | y.
        eliminations = []
        original = tcc.linalg._rref_array
        batches = []
        batch = tcc.cli.comb_codes
        groups = []
        basis = tcc.centralizer._basis
        analyses = []
        analyze = tcc.cli.analyze

        def counted(a, p):
            eliminations.append(a.shape)
            return original(a, p)

        def refuse(*args):
            raise AssertionError("verify builds no matrix and reads none back")

        def batched(n, prime, x, y, a):
            batches.append(len(x))
            return batch(n, prime, x, y, a)

        def checked(n, prime, gen, residual, checks):
            groups.append(len(gen))
            return basis(n, prime, gen, residual, checks)

        def analyzed(code):
            analyses.append(code)
            return analyze(code)

        monkeypatch.setattr(tcc.linalg, "_rref_array", counted)
        monkeypatch.setattr(tcc.cli, "comb_matrix", refuse)
        monkeypatch.setattr(tcc.comb, "comb_matrix", refuse)
        monkeypatch.setattr(tcc.centralizer, "_comb_form", refuse)
        monkeypatch.setattr(tcc.cli, "comb_codes", batched)
        monkeypatch.setattr(tcc.centralizer, "_basis", checked)
        monkeypatch.setattr(tcc.cli, "analyze", analyzed)
        code, out, _ = run_cli(capsys, "verify", "--p-max", "13", "--n-max", "6", "--json")
        assert code == EXIT_OK
        assert eliminations == []
        assert sum(batches) == 20155 and len(batches) == 5 * 6
        assert (len(groups), sum(rows > 0 for rows in groups)) == (253, 223)
        assert len(analyses) == 5 * 5 - len([(3, 3), (3, 6), (5, 5)]) == 22
        assert hashlib.sha256(out.encode()).hexdigest() == "fa09d78430516328b066f630a5f4ae17a13525054173e3daa4ff39d43fafaa15"

    def test_full_human_sweep_pinned(self, capsys):
        # The human table of the largest sweep, 20,155 rows, byte for byte.
        code, out, _ = run_cli(capsys, "verify", "--p-max", "13", "--n-max", "6")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == "e10dd2ef55f8e8a2748d80ad76b2cece6368c23bc8eeefee7f4780c15a548b94"

    @pytest.mark.parametrize("n_max", range(2, 7))
    @pytest.mark.parametrize("p_max", [2, 3, 5, 7])
    def test_rendered_rows_match_the_row_dicts(self, capsys, p_max, n_max):
        # Rows are rendered from fragments shared by many rows; one dict per row is the oracle.
        doc = verify_document(p_max, n_max)
        code, out, _ = run_cli(capsys, "verify", "--p-max", str(p_max), "--n-max", str(n_max), "--json")
        assert code == EXIT_OK
        assert json.loads(out) == doc
        assert out == json.dumps(doc) + "\n"
        code, out, _ = run_cli(capsys, "verify", "--p-max", str(p_max), "--n-max", str(n_max))
        assert code == EXIT_OK
        assert out == verify_table(doc)

    def test_theorem_mismatch_fails_the_sweep(self, capsys, monkeypatch):
        # A failed theorem check of one slice's group marks every hypothesis row of that slice.
        original = tcc.cli._theorem_check

        def failed(n, code):
            check = original(n, code)
            return {**check, "matches_theorem": False} if (code.prime.p, n) == (5, 3) else check

        monkeypatch.setattr(tcc.cli, "_theorem_check", failed)
        hits = [
            (x, y, a)
            for x in range(5)
            for y in range(5)
            for a in range(5)
            if (3 * x + y) % 5 == 0 and x != 0 and y != 0 and a > 1
        ]
        assert len(hits) == 12
        code, out, _ = run_cli(capsys, "verify", "--p-max", "13", "--n-max", "6", "--json")
        assert code == EXIT_FAILURE
        doc = json.loads(out)
        assert (doc["ok"], doc["tuples"], doc["hypothesis_tuples"]) == (False, 20155, 1314)
        failing = [(r["x"], r["y"], r["a"]) for r in doc["rows"] if r["hypotheses_met"] and not r["matches_theorem"]]
        assert failing == hits
        assert all((r["p"], r["n"]) == (5, 3) for r in doc["rows"] if r.get("matches_theorem") is False)
        assert doc == verify_document(13, 6)
        code, out, _ = run_cli(capsys, "verify", "--p-max", "13", "--n-max", "6")
        assert code == EXIT_FAILURE
        assert "summary: 20155 tuples, 1314 met the hypotheses, 12 mismatches\n" in out
        mismatches = [line for line in out.splitlines() if line.startswith("MISMATCH")]
        assert mismatches == [f"MISMATCH: p=5 n=3 x={x} y={y} a={a} dim=1" for x, y, a in hits]
        assert out.endswith("\n".join(mismatches) + "\n")

    def test_a_failed_group_names_only_its_hypothesis_rows(self, capsys, monkeypatch):
        # The sweep's theorem groups hold only hypothesis rows; drop a = 2 from the hypotheses so one does not.
        original_check, original_met = tcc.cli._theorem_check, tcc.cli._hypotheses_met
        monkeypatch.setattr(tcc.cli, "_theorem_check", lambda n, code: {**original_check(n, code), "matches_theorem": False})
        monkeypatch.setattr(tcc.cli, "_hypotheses_met", lambda p, n, x, y, a: original_met(p, n, x, y, a) & (a % p != 2))
        doc = verify_document(5, 3)
        code, out, _ = run_cli(capsys, "verify", "--p-max", "5", "--n-max", "3", "--json")
        assert code == EXIT_FAILURE
        assert json.loads(out) == doc
        code, out, _ = run_cli(capsys, "verify", "--p-max", "5", "--n-max", "3")
        assert code == EXIT_FAILURE
        assert out == verify_table(doc)
        named = [line for line in out.splitlines() if line.startswith("MISMATCH")]
        assert len(named) == doc["hypothesis_tuples"]
        assert sum(line.startswith("MISMATCH: p=5 n=3 ") for line in named) == 8
        assert not any(" a=2 " in line for line in named)

    def test_repeated_sweep_repeats_its_checks(self, capsys, monkeypatch):
        # Nothing outlives a solve: a second sweep in one process writes and checks every group again.
        counts = []
        basis = tcc.centralizer._basis
        residual = tcc.centralizer._comb_residual

        def checked(*args):
            counts[-1]["groups"] += 1
            return basis(*args)

        def reduced(*args):
            counts[-1]["residuals"] += 1
            return residual(*args)

        monkeypatch.setattr(tcc.centralizer, "_basis", checked)
        monkeypatch.setattr(tcc.centralizer, "_comb_residual", reduced)
        outs = []
        for _ in range(2):
            counts.append({"groups": 0, "residuals": 0})
            code, out, _ = run_cli(capsys, "verify", "--p-max", "5", "--n-max", "3", "--json")
            assert code == EXIT_OK
            outs.append(out)
        assert counts[0] == counts[1] and counts[0]["groups"] > 0 and counts[0]["residuals"] > 0
        assert outs[0] == outs[1]

    def test_broken_closed_form_case_fails_the_sweep(self, capsys, monkeypatch):
        # One case's rows moved off C(A, a) make the whole sweep a fault, not a mismatch row.
        original = tcc.centralizer._comb_rows

        def perturbed(n, p, case, *args):
            gen = original(n, p, case, *args)
            if case == "g u^T":
                gen[0, 0] = (gen[0, 0] + 1) % p
            return gen

        monkeypatch.setattr(tcc.centralizer, "_comb_rows", perturbed)
        with pytest.raises(RuntimeError, match="twisted commutation"):
            main(["verify", "--p-max", "5", "--n-max", "3"])
        assert capsys.readouterr() == ("", "")

    def test_sweep_caps_enforced(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--p-max", "17")
        assert code == EXIT_USAGE
        assert "--p-max" in err
        code, _, err = run_cli(capsys, "verify", "--n-max", "7")
        assert code == EXIT_USAGE
        assert "--n-max" in err


class TestSimulateCommand:
    def test_monte_carlo_within_capacity_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--n", "2", "--p", "3", "--x", "1", "--y", "1", "--a", "2",
            "--t", "1", "--trials", "100",
        )
        assert code == EXIT_OK
        assert "PASS" in out

    def test_zero_weight_full_success(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--n", "2", "--p", "3", "--x", "1", "--y", "1", "--a", "2",
            "--t", "0", "--trials", "50", "--json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["successes"] == doc["trials"] == 50

    def test_exhaustive_within_capacity(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--n", "3", "--p", "5", "--x", "3", "--y", "1", "--a", "2",
            "--t", "4", "--exhaustive", "--json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["verdict"] == "PASS"
        assert doc["trials"] == doc["successes"] == 161280
        assert "seed" not in doc

    def test_beyond_capacity_fails(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--n", "3", "--p", "5", "--x", "3", "--y", "1", "--a", "2",
            "--t", "9", "--trials", "50",
        )
        assert code == EXIT_FAILURE
        assert "exceeds correction capacity 4" in out

    def test_hypotheses_warning(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate", "--n", "3", "--p", "5", "--x", "1", "--y", "1", "--a", "2",
            "--t", "1", "--trials", "10",
        )
        # 5 does not divide x*n + y = 4: the note fires whatever the outcome.
        assert "hypotheses" in err
        assert code in (EXIT_OK, EXIT_FAILURE, EXIT_USAGE)

    def test_exhaustive_guard_exit_code(self, capsys):
        # The [9, 5, 3] code over GF(5) at t = 3 is past the outcome guard.
        code, _, err = run_cli(
            capsys,
            "simulate", "--n", "3", "--p", "5", "--x", "1", "--y", "1", "--a", "1",
            "--t", "3", "--exhaustive",
        )
        assert code == EXIT_GUARD
        assert "guard exceeded" in err

    def test_exhaustive_beyond_capacity_is_counted(self, capsys):
        # [16, 1, 16] over GF(3) at t = 10, once refused by the outcome guard; these are the counts
        # of helpers.enumerated_exhaustive_stats, which test_channel.py pins to the same figures.
        code, out, _ = run_cli(
            capsys,
            "simulate", "--n", "4", "--p", "3", "--x", "1", "--y", "2", "--a", "2",
            "--t", "10", "--exhaustive", "--json",
        )
        assert code == EXIT_FAILURE
        doc = json.loads(out)
        assert doc["verdict"] == "FAIL"
        outcomes = {key: doc[key] for key in ("trials", "successes", "ambiguous", "miscorrected")}
        assert outcomes == {"trials": 24600576, "successes": 6054048, "ambiguous": 10090080, "miscorrected": 8456448}

    def test_largest_counted_weight_prints(self, capsys):
        # The theorem code [4096, 1, 4096] at p = 2^31 - 1: its t = 399 count has 4,300 digits, the most
        # Python's int-to-str limit prints; one weight more is refused by its digit count.
        p = 2**31 - 1
        flags = ["simulate", "--n", "64", "--p", str(p), "--x", "1", "--y", str(p - 64), "--a", "2", "--exhaustive"]
        trials = math.comb(4096, 399) * (p - 1) ** 399 * p
        code, out, _ = run_cli(capsys, *flags, "--t", "399", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert (doc["verdict"], doc["trials"], doc["successes"]) == ("PASS", trials, trials)
        assert len(str(trials)) == COUNT_DIGIT_LIMIT == 4300
        code, out, _ = run_cli(capsys, *flags, "--t", "399")
        assert code == EXIT_OK
        assert f"trials {trials}: {trials} success, 0 ambiguous, 0 miscorrected\n" in out
        code, out, err = run_cli(capsys, *flags, "--t", "400")
        assert (code, out) == (EXIT_GUARD, "")
        assert err == (
            "tcc: guard exceeded: exhaustive count at weight t = 400 has about 4310 digits, "
            "beyond Python's 4300-digit int-to-str limit; use monte_carlo instead\n"
        )

    def test_counted_weights_past_128(self, capsys):
        # Within capacity a k = 1 count takes no recurrence step, so weights past the old t <= 128 bound answer.
        code, out, _ = run_cli(
            capsys,
            "simulate", "--n", "64", "--p", "7", "--x", "1", "--y", "6", "--a", "2",
            "--t", "2047", "--exhaustive", "--json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        trials = math.comb(4096, 2047) * 6**2047 * 7
        assert (doc["verdict"], doc["capacity"], doc["trials"], doc["successes"]) == ("PASS", 2047, trials, trials)
        p = 2**31 - 1
        code, out, _ = run_cli(
            capsys,
            "simulate", "--n", "17", "--p", str(p), "--x", "1", "--y", str(p - 17), "--a", "2",
            "--t", "129", "--exhaustive",
        )
        assert code == EXIT_OK
        trials = math.comb(289, 129) * (p - 1) ** 129 * p
        assert f"trials {trials}: {trials} success, 0 ambiguous, 0 miscorrected\n" in out

    def test_trials_guard_fires_before_any_trial(self, capsys, monkeypatch):
        def no_trial(*args):
            raise AssertionError("no trial may run past the guard")

        monkeypatch.setattr(np.random, "default_rng", no_trial)
        code, _, err = run_cli(
            capsys,
            "simulate", "--n", "2", "--p", "3", "--x", "1", "--y", "1", "--a", "2",
            "--t", "1", "--trials", str(2**24 + 1),
        )
        assert code == EXIT_GUARD
        assert "16777217 trials" in err

    def test_negative_seed_names_the_flag(self, capsys, monkeypatch):
        def no_trial(*args):
            raise AssertionError("no trial may run with a bad seed")

        monkeypatch.setattr(np.random, "default_rng", no_trial)
        code, out, err = run_cli(
            capsys,
            "simulate", "--n", "2", "--p", "3", "--x", "1", "--y", "1", "--a", "2",
            "--t", "1", "--seed", "-1",
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "tcc: error: --seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize("trials", ["0", "24", "1000"])
    def test_exhaustive_refuses_trials(self, capsys, monkeypatch, trials):
        def no_sweep(*args):
            raise AssertionError("no sweep may run with a --trials it would ignore")

        monkeypatch.setattr(tcc.cli, "exhaustive_stats", no_sweep)
        code, out, err = run_cli(
            capsys,
            "simulate", "--n", "2", "--p", "3", "--x", "1", "--y", "1", "--a", "2",
            "--t", "1", "--exhaustive", "--trials", trials, "--json",
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "tcc: error: --trials cannot be combined with --exhaustive, which sweeps every pattern\n"

    def test_theorem_code_at_largest_prime(self, capsys):
        flags = ["--n", "3", "--p", "2147483647", "--x", "1", "--y", "2147483644", "--a", "2", "--t", "4"]
        code, out, _ = run_cli(capsys, "simulate", *flags, "--trials", "1000", "--seed", "0", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["verdict"] == "PASS"
        assert doc["trials"] == doc["successes"] == 1000
        # The exhaustive sweep is counted, so it passes at every t up to capacity.
        for t in range(5):
            code, out, _ = run_cli(capsys, "simulate", *flags[:-2], "--t", str(t), "--exhaustive", "--json")
            assert code == EXIT_OK
            doc = json.loads(out)
            assert doc["verdict"] == "PASS"
            assert doc["trials"] == doc["successes"] == math.comb(9, t) * (2**31 - 2) ** t * (2**31 - 1)

    def test_seed_repeatability(self, capsys):
        argv = [
            "simulate", "--n", "3", "--p", "5", "--x", "3", "--y", "1", "--a", "2",
            "--t", "4", "--trials", "100", "--seed", "5", "--json",
        ]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2


class TestParser:
    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == EXIT_OK

    def test_one_parser_serves_every_call_after_a_usage_error(self, capsys, monkeypatch):
        # main reuses one parser: a usage error leaves it as it was, and it formats as a fresh one.
        monkeypatch.setenv("COLUMNS", "80")
        usage = (
            "usage: tcc build [-h] [--n N] [--p P] [--x X] [--y Y] [--json]\n"
            "                 [--matrix-file MATRIX_FILE] --a A\n"
            "tcc build: error: the following arguments are required: --a\n"
        )
        doc = '{"p": 3, "n": 2, "x": 1, "y": 1, "a": 2, "length": 4, "dimension": 1}\n'
        for _ in range(2):
            assert run_cli(capsys, "build", "--n", "2", "--p", "3") == (EXIT_USAGE, "", usage)
            assert run_cli(capsys, "build", "--n", "2", "--p", "3", "--x", "1", "--y", "1", "--a", "2", "--json") == (
                EXIT_OK,
                doc,
                "",
            )
        assert build_parser() is build_parser()
        assert build_parser().format_help() == build_parser.__wrapped__().format_help()

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tcc", "verify", "--p-max", "2", "--n-max", "2"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert "summary" in proc.stdout

    def test_import_leaves_numpy_random_unloaded(self):
        # Only monte_carlo and the Hessenberg reduction draw, so no command pays for
        # numpy.random (and its secrets, hashlib and hmac imports) before one does.
        probe = "import sys, tcc.cli; print('numpy.random' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=child_env())
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


# Exact stdout, stderr and exit code of build and analyze through each solve path: the
# comb solve with s != 0 and with s = 0 on a merged matrix, a zero code, the full space,
# a --matrix-file input (MATRIX) and the theorem code at p = 2^31 - 1.
PINNED_MATRIX_FILE = "5 3 3\n1 2 0\n0 1 3\n4 0 2\n"
PINNED_SOLVE = [
    ('build --n 2 --p 3 --x 1 --y 1 --a 2', 0, 'C(A, 2) over GF(3), n = 2\ndim = 1\ngenerator (RREF):\n[1 1 1 1]\n', ''),
    ('build --n 2 --p 3 --x 1 --y 1 --a 2 --json', 0, '{"p": 3, "n": 2, "x": 1, "y": 1, "a": 2, "length": 4, "dimension": 1}\n', ''),
    ('analyze --n 2 --p 3 --x 1 --y 1 --a 2', 0, 'code parameters [4, 1, 4] over GF(3)\nMDS: yes\ndetects up to 3 errors; corrects up to 1\nrate: 1/4\n', ''),
    ('analyze --n 2 --p 3 --x 1 --y 1 --a 2 --json', 0, '{"p": 3, "n": 2, "x": 1, "y": 1, "a": 2, "length": 4, "dimension": 1, "min_distance": 4, "mds": true, "detect": 3, "correct": 1, "rate": "1/4"}\n', ''),
    ('build --n 3 --p 3 --x 1 --y 1 --a 1', 0, 'C(A, 1) over GF(3), n = 3\ndim = 5\ngenerator (RREF):\n[1 0 0 0 0 1 0 1 0]\n[0 1 0 0 0 1 1 0 0]\n[0 0 1 0 0 1 1 1 2]\n[0 0 0 1 0 2 2 0 1]\n[0 0 0 0 1 2 0 2 1]\n', ''),
    ('build --n 3 --p 3 --x 1 --y 1 --a 1 --json', 0, '{"p": 3, "n": 3, "x": 1, "y": 1, "a": 1, "length": 9, "dimension": 5}\n', ''),
    ('analyze --n 3 --p 3 --x 1 --y 1 --a 1', 0, 'code parameters [9, 5, 3] over GF(3)\nMDS: no\ndetects up to 2 errors; corrects up to 1\nrate: 5/9\n', ''),
    ('analyze --n 3 --p 3 --x 1 --y 1 --a 1 --json', 0, '{"p": 3, "n": 3, "x": 1, "y": 1, "a": 1, "length": 9, "dimension": 5, "min_distance": 3, "mds": false, "detect": 2, "correct": 1, "rate": "5/9"}\n', ''),
    ('build --n 2 --p 5 --x 1 --y 1 --a 0', 0, 'C(A, 0) over GF(5), n = 2\ndim = 0\ngenerator: (zero code)\n', ''),
    ('build --n 2 --p 5 --x 1 --y 1 --a 0 --json', 0, '{"p": 5, "n": 2, "x": 1, "y": 1, "a": 0, "length": 4, "dimension": 0}\n', ''),
    ('analyze --n 2 --p 5 --x 1 --y 1 --a 0', 1, '', 'tcc: zero code: C(A, a) contains only the zero matrix, nothing to analyze\n'),
    ('analyze --n 2 --p 5 --x 1 --y 1 --a 0 --json', 1, '', 'tcc: zero code: C(A, a) contains only the zero matrix, nothing to analyze\n'),
    ('build --n 2 --p 3 --x 0 --y 1 --a 1', 0, 'C(A, 1) over GF(3), n = 2\ndim = 4\ngenerator (RREF):\n[1 0 0 0]\n[0 1 0 0]\n[0 0 1 0]\n[0 0 0 1]\n', ''),
    ('build --n 2 --p 3 --x 0 --y 1 --a 1 --json', 0, '{"p": 3, "n": 2, "x": 0, "y": 1, "a": 1, "length": 4, "dimension": 4}\n', ''),
    ('analyze --n 2 --p 3 --x 0 --y 1 --a 1', 0, 'code parameters [4, 4, 1] over GF(3)\nMDS: yes\ndetects up to 0 errors; corrects up to 0\nrate: 4/4\n', ''),
    ('analyze --n 2 --p 3 --x 0 --y 1 --a 1 --json', 0, '{"p": 3, "n": 2, "x": 0, "y": 1, "a": 1, "length": 4, "dimension": 4, "min_distance": 1, "mds": true, "detect": 0, "correct": 0, "rate": "4/4"}\n', ''),
    ('build --matrix-file MATRIX --a 1', 0, 'C(A, 1) over GF(5), n = 3\ndim = 3\ngenerator (RREF):\n[1 0 0 0 1 0 0 0 1]\n[0 1 0 4 0 4 3 0 0]\n[0 0 1 3 0 0 0 2 4]\n', ''),
    ('build --matrix-file MATRIX --a 1 --json', 0, '{"p": 5, "n": 3, "a": 1, "length": 9, "dimension": 3}\n', ''),
    ('analyze --matrix-file MATRIX --a 1', 0, 'code parameters [9, 3, 3] over GF(5)\nMDS: no\ndetects up to 2 errors; corrects up to 1\nrate: 3/9\n', ''),
    ('analyze --matrix-file MATRIX --a 1 --json', 0, '{"p": 5, "n": 3, "a": 1, "length": 9, "dimension": 3, "min_distance": 3, "mds": false, "detect": 2, "correct": 1, "rate": "3/9"}\n', ''),
    ('build --matrix-file MATRIX --a 2', 0, 'C(A, 2) over GF(5), n = 3\ndim = 0\ngenerator: (zero code)\n', ''),
    ('build --matrix-file MATRIX --a 2 --json', 0, '{"p": 5, "n": 3, "a": 2, "length": 9, "dimension": 0}\n', ''),
    ('analyze --matrix-file MATRIX --a 2', 1, '', 'tcc: zero code: C(A, a) contains only the zero matrix, nothing to analyze\n'),
    ('analyze --matrix-file MATRIX --a 2 --json', 1, '', 'tcc: zero code: C(A, a) contains only the zero matrix, nothing to analyze\n'),
    ('build --n 3 --p 2147483647 --x 1 --y 2147483644 --a 2', 0, 'C(A, 2) over GF(2147483647), n = 3\ndim = 1\ngenerator (RREF):\n[1 1 1 1 1 1 1 1 1]\n', ''),
    ('build --n 3 --p 2147483647 --x 1 --y 2147483644 --a 2 --json', 0, '{"p": 2147483647, "n": 3, "x": 1, "y": 2147483644, "a": 2, "length": 9, "dimension": 1}\n', ''),
    ('analyze --n 3 --p 2147483647 --x 1 --y 2147483644 --a 2', 0, 'code parameters [9, 1, 9] over GF(2147483647)\nMDS: yes\ndetects up to 8 errors; corrects up to 4\nrate: 1/9\n', ''),
    ('analyze --n 3 --p 2147483647 --x 1 --y 2147483644 --a 2 --json', 0, '{"p": 2147483647, "n": 3, "x": 1, "y": 2147483644, "a": 2, "length": 9, "dimension": 1, "min_distance": 9, "mds": true, "detect": 8, "correct": 4, "rate": "1/9"}\n', ''),
]


@pytest.mark.parametrize(
    "argv, exit_code, stdout, stderr", PINNED_SOLVE, ids=[argv for argv, _, _, _ in PINNED_SOLVE]
)
def test_pinned_solve_output(capsys, tmp_path, argv, exit_code, stdout, stderr):
    path = tmp_path / "a.mat"
    path.write_text(PINNED_MATRIX_FILE)
    assert run_cli(capsys, *argv.replace("MATRIX", str(path)).split()) == (exit_code, stdout, stderr)


# Exact exit code, stdout and stderr of the other commands: spectrum in the generic, defective
# and p > 997 cases, over GF(2), merged (p | x*n) at n = 4 and 6, scalar (x = 0) below and
# above the scan cap, and at the largest scanned size (n = 64, p = 997); simulate exhaustive,
# in Monte Carlo within and beyond capacity, on the k = 5 [9, 5, 3] code that the coset table
# classifies (bench channel-sim's two argv lines at --seed 1), and on a zero code; and a --t out
# of range on a code whose analysis would hit the distance guard, which must be refused first.
# A verify document or an n = 64 spectrum is long, so its stdout is pinned by sha256.
PINNED_COMMANDS = [
    ('spectrum --n 3 --p 5 --x 1 --y 1', 0, 'A = 1*J + 1*I over GF(5), n = 3\n[2 1 1]\n[1 2 1]\n[1 1 2]\nspectrum: eigenvalue 1 with multiplicity 2; eigenvalue 4 with multiplicity 1\neigen scan cross-check: agrees\ndiagonalizable: yes, D = diag(4, 1, 1)\n', ''),
    ('spectrum --n 3 --p 5 --x 1 --y 1 --json', 0, '{"p": 5, "n": 3, "x": 1, "y": 1, "eigenvalues": [[1, 2], [4, 1]], "diagonalizable": true, "diagonal": [4, 1, 1], "scan_agrees": true}\n', ''),
    ('spectrum --n 3 --p 3 --x 1 --y 1', 0, 'A = 1*J + 1*I over GF(3), n = 3\n[2 1 1]\n[1 2 1]\n[1 1 2]\nspectrum: eigenvalue 1 with multiplicity 2\neigen scan cross-check: agrees\ndiagonalizable: no (eigenspaces span 2 of 3 dimensions)\n', ''),
    ('spectrum --n 3 --p 3 --x 1 --y 1 --json', 0, '{"p": 3, "n": 3, "x": 1, "y": 1, "eigenvalues": [[1, 2]], "diagonalizable": false, "scan_agrees": true}\n', ''),
    ('spectrum --n 2 --p 1009 --x 1 --y 1', 0, 'A = 1*J + 1*I over GF(1009), n = 2\n[2 1]\n[1 2]\nspectrum: eigenvalue 1 with multiplicity 1; eigenvalue 3 with multiplicity 1\neigen scan cross-check: skipped (p > 997)\ndiagonalizable: yes, D = diag(3, 1)\n', ''),
    ('spectrum --n 2 --p 1009 --x 1 --y 1 --json', 0, '{"p": 1009, "n": 2, "x": 1, "y": 1, "eigenvalues": [[1, 1], [3, 1]], "diagonalizable": true, "diagonal": [3, 1]}\n', ''),
    ('spectrum --n 3 --p 2 --x 1 --y 0', 0, 'A = 1*J + 0*I over GF(2), n = 3\n[1 1 1]\n[1 1 1]\n[1 1 1]\nspectrum: eigenvalue 0 with multiplicity 2; eigenvalue 1 with multiplicity 1\neigen scan cross-check: agrees\ndiagonalizable: yes, D = diag(1, 0, 0)\n', ''),
    ('spectrum --n 3 --p 2 --x 1 --y 0 --json', 0, '{"p": 2, "n": 3, "x": 1, "y": 0, "eigenvalues": [[0, 2], [1, 1]], "diagonalizable": true, "diagonal": [1, 0, 0], "scan_agrees": true}\n', ''),
    ('spectrum --n 4 --p 2 --x 1 --y 1', 0, 'A = 1*J + 1*I over GF(2), n = 4\n[0 1 1 1]\n[1 0 1 1]\n[1 1 0 1]\n[1 1 1 0]\nspectrum: eigenvalue 1 with multiplicity 3\neigen scan cross-check: agrees\ndiagonalizable: no (eigenspaces span 3 of 4 dimensions)\n', ''),
    ('spectrum --n 4 --p 2 --x 1 --y 1 --json', 0, '{"p": 2, "n": 4, "x": 1, "y": 1, "eigenvalues": [[1, 3]], "diagonalizable": false, "scan_agrees": true}\n', ''),
    ('spectrum --n 6 --p 3 --x 2 --y 1', 0, 'A = 2*J + 1*I over GF(3), n = 6\n[0 2 2 2 2 2]\n[2 0 2 2 2 2]\n[2 2 0 2 2 2]\n[2 2 2 0 2 2]\n[2 2 2 2 0 2]\n[2 2 2 2 2 0]\nspectrum: eigenvalue 1 with multiplicity 5\neigen scan cross-check: agrees\ndiagonalizable: no (eigenspaces span 5 of 6 dimensions)\n', ''),
    ('spectrum --n 6 --p 3 --x 2 --y 1 --json', 0, '{"p": 3, "n": 6, "x": 2, "y": 1, "eigenvalues": [[1, 5]], "diagonalizable": false, "scan_agrees": true}\n', ''),
    ('spectrum --n 3 --p 5 --x 0 --y 2', 0, 'A = 0*J + 2*I over GF(5), n = 3\n[2 0 0]\n[0 2 0]\n[0 0 2]\nspectrum: eigenvalue 2 with multiplicity 3\neigen scan cross-check: agrees\ndiagonalizable: yes, D = diag(2, 2, 2)\n', ''),
    ('spectrum --n 3 --p 5 --x 0 --y 2 --json', 0, '{"p": 5, "n": 3, "x": 0, "y": 2, "eigenvalues": [[2, 3]], "diagonalizable": true, "diagonal": [2, 2, 2], "scan_agrees": true}\n', ''),
    ('spectrum --n 2 --p 1009 --x 0 --y 5', 0, 'A = 0*J + 5*I over GF(1009), n = 2\n[5 0]\n[0 5]\nspectrum: eigenvalue 5 with multiplicity 2\neigen scan cross-check: skipped (p > 997)\ndiagonalizable: yes, D = diag(5, 5)\n', ''),
    ('spectrum --n 2 --p 1009 --x 0 --y 5 --json', 0, '{"p": 1009, "n": 2, "x": 0, "y": 5, "eigenvalues": [[5, 2]], "diagonalizable": true, "diagonal": [5, 5]}\n', ''),
    ('spectrum --n 64 --p 997 --x 1 --y 1', 0, 'sha256:a479bd812b96856ff34261635003da3917d98ab44150bbd762c5615e45490a0d', ''),
    ('spectrum --n 64 --p 997 --x 1 --y 1 --json', 0, 'sha256:da8028d978addbe2749756794cb0a5ba1b6695737f3d5462772dfb0d7ba3c986', ''),
    ('simulate --n 2 --p 3 --x 1 --y 1 --a 2 --t 1 --exhaustive', 0, 'code [4, 1, 4] over GF(3), correction capacity 1\nmode: exhaustive\ntrials 24: 24 success, 0 ambiguous, 0 miscorrected\nPASS: 0 failures at t=1 (within capacity 1)\n', ''),
    ('simulate --n 2 --p 3 --x 1 --y 1 --a 2 --t 1 --exhaustive --json', 0, '{"p": 3, "n": 2, "x": 1, "y": 1, "a": 2, "t": 1, "length": 4, "dimension": 1, "min_distance": 4, "capacity": 1, "hypotheses_met": true, "mode": "exhaustive", "trials": 24, "successes": 24, "ambiguous": 0, "miscorrected": 0, "within_capacity": true, "verdict": "PASS"}\n', ''),
    ('simulate --n 3 --p 5 --x 3 --y 1 --a 2 --t 2 --trials 50 --seed 3', 0, 'code [9, 1, 9] over GF(5), correction capacity 4\nmode: monte-carlo (seed 3)\ntrials 50: 50 success, 0 ambiguous, 0 miscorrected\nPASS: 0 failures at t=2 (within capacity 4)\n', ''),
    ('simulate --n 3 --p 5 --x 3 --y 1 --a 2 --t 2 --trials 50 --seed 3 --json', 0, '{"p": 5, "n": 3, "x": 3, "y": 1, "a": 2, "t": 2, "length": 9, "dimension": 1, "min_distance": 9, "capacity": 4, "hypotheses_met": true, "mode": "monte-carlo", "seed": 3, "trials": 50, "successes": 50, "ambiguous": 0, "miscorrected": 0, "within_capacity": true, "verdict": "PASS"}\n', ''),
    ('simulate --n 3 --p 5 --x 3 --y 1 --a 2 --t 5 --trials 20', 2, 'code [9, 1, 9] over GF(5), correction capacity 4\nmode: monte-carlo (seed 0)\ntrials 20: 15 success, 5 ambiguous, 0 miscorrected\nFAIL: t=5 exceeds correction capacity 4 (5 failures)\n', ''),
    ('simulate --n 3 --p 5 --x 3 --y 1 --a 2 --t 5 --trials 20 --json', 2, '{"p": 5, "n": 3, "x": 3, "y": 1, "a": 2, "t": 5, "length": 9, "dimension": 1, "min_distance": 9, "capacity": 4, "hypotheses_met": true, "mode": "monte-carlo", "seed": 0, "trials": 20, "successes": 15, "ambiguous": 5, "miscorrected": 0, "within_capacity": false, "verdict": "FAIL"}\n', ''),
    ('simulate --n 3 --p 5 --x 1 --y 1 --a 1 --json --t 1 --trials 5000 --seed 1443403078', 0, '{"p": 5, "n": 3, "x": 1, "y": 1, "a": 1, "t": 1, "length": 9, "dimension": 5, "min_distance": 3, "capacity": 1, "hypotheses_met": false, "mode": "monte-carlo", "seed": 1443403078, "trials": 5000, "successes": 5000, "ambiguous": 0, "miscorrected": 0, "within_capacity": true, "verdict": "PASS"}\n', 'tcc: note: these parameters miss the MDS construction hypotheses (need p | x*n + y, x != 0, y != 0, a outside {0, 1}); no guarantee applies\n'),
    ('simulate --n 3 --p 5 --x 1 --y 1 --a 1 --json --t 2 --trials 5000 --seed 1414445336', 2, '{"p": 5, "n": 3, "x": 1, "y": 1, "a": 1, "t": 2, "length": 9, "dimension": 5, "min_distance": 3, "capacity": 1, "hypotheses_met": false, "mode": "monte-carlo", "seed": 1414445336, "trials": 5000, "successes": 1822, "ambiguous": 2547, "miscorrected": 631, "within_capacity": false, "verdict": "FAIL"}\n', 'tcc: note: these parameters miss the MDS construction hypotheses (need p | x*n + y, x != 0, y != 0, a outside {0, 1}); no guarantee applies\n'),
    ('simulate --n 2 --p 5 --x 1 --y 1 --a 0 --t 1', 1, '', 'tcc: note: these parameters miss the MDS construction hypotheses (need p | x*n + y, x != 0, y != 0, a outside {0, 1}); no guarantee applies\ntcc: zero code: C(A, a) contains only the zero matrix, nothing to simulate\n'),
    ('simulate --n 2 --p 5 --x 1 --y 1 --a 0 --t 1 --json', 1, '', 'tcc: note: these parameters miss the MDS construction hypotheses (need p | x*n + y, x != 0, y != 0, a outside {0, 1}); no guarantee applies\ntcc: zero code: C(A, a) contains only the zero matrix, nothing to simulate\n'),
    ('simulate --n 4 --p 7 --x 0 --y 1 --a 1 --t 17', 1, '', 'tcc: note: these parameters miss the MDS construction hypotheses (need p | x*n + y, x != 0, y != 0, a outside {0, 1}); no guarantee applies\ntcc: error: --t must lie in [0, 16], got 17\n'),
    ('simulate --n 4 --p 7 --x 0 --y 1 --a 1 --t 17 --json', 1, '', 'tcc: note: these parameters miss the MDS construction hypotheses (need p | x*n + y, x != 0, y != 0, a outside {0, 1}); no guarantee applies\ntcc: error: --t must lie in [0, 16], got 17\n'),
    ('verify --p-max 3 --n-max 3', 0, 'sha256:27fcfab2c408e294adf02d2284736902c43b364c53b6e9b7e35af73500205e8a', ''),
    ('verify --p-max 3 --n-max 3 --json', 0, 'sha256:48a6ed2c9eaf1fb8b1b9af1d06e7e40553e89018dcd52a75f7f184ae8f859c96', ''),
]


@pytest.mark.parametrize(
    "argv, exit_code, stdout, stderr", PINNED_COMMANDS, ids=[argv for argv, _, _, _ in PINNED_COMMANDS]
)
def test_pinned_command_output(capsys, argv, exit_code, stdout, stderr):
    code, out, err = run_cli(capsys, *argv.split())
    if stdout.startswith("sha256:"):
        out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
    assert (code, out, err) == (exit_code, stdout, stderr)
