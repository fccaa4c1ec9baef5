import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

import tcc.centralizer
import tcc.cli
import tcc.linalg
from tcc import CombParams, Prime
from tcc.cli import EXIT_FAILURE, EXIT_GUARD, EXIT_OK, EXIT_USAGE, main
from helpers import DefectiveMatrixError, child_env, diagonalize


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
        original = tcc.centralizer._comb_generator

        def perturbed(*args):
            gen = original(*args)
            gen[0, 4] += 1
            return gen

        monkeypatch.setattr(tcc.centralizer, "_comb_generator", perturbed)
        with pytest.raises(RuntimeError, match="twisted commutation"):
            main(["build", "--n", "3", "--p", "5", "--x", "1", "--y", "2", "--a", "2"])
        assert capsys.readouterr() == ("", "")


class TestKroneckerGuard:
    @pytest.fixture
    def no_elimination(self, monkeypatch):
        def refuse(a, p):
            raise AssertionError("no elimination may start past the guard")

        monkeypatch.setattr(tcc.linalg, "_rref_array", refuse)

    def test_order_33_matrix_file_refused(self, capsys, tmp_path, no_elimination):
        # diag(2, 1, ..., 1) is no comb matrix, so only the Kronecker kernel could solve it.
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
        # Every comb generator is written in closed form, so nothing eliminates,
        # and each of the 1,885 matrices (p, n, x, y) is built once for all its twists.
        eliminations = []
        original = tcc.linalg._rref_array
        matrices = []
        build = tcc.cli.comb_matrix

        def counted(a, p):
            eliminations.append(a.shape)
            return original(a, p)

        def built(params):
            matrices.append(params)
            return build(params)

        monkeypatch.setattr(tcc.linalg, "_rref_array", counted)
        monkeypatch.setattr(tcc.cli, "comb_matrix", built)
        code, out, _ = run_cli(capsys, "verify", "--p-max", "13", "--n-max", "6", "--json")
        assert code == EXIT_OK
        assert eliminations == []
        assert len(matrices) == len(set(matrices)) == 5 * (4 + 9 + 25 + 49 + 121 + 169) == 1885
        assert hashlib.sha256(out.encode()).hexdigest() == "fa09d78430516328b066f630a5f4ae17a13525054173e3daa4ff39d43fafaa15"

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
        code, _, err = run_cli(
            capsys,
            "simulate", "--n", "4", "--p", "3", "--x", "1", "--y", "2", "--a", "2",
            "--t", "10", "--exhaustive",
        )
        assert code == EXIT_GUARD
        assert "guard exceeded" in err

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
        # The exhaustive sweep stays refused by its work guard.
        code, _, err = run_cli(capsys, "simulate", *flags, "--exhaustive")
        assert code == EXIT_GUARD
        assert "exhaustive sweep means about 10^48 outcomes from about 10^39 decoded patterns" in err

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

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tcc", "verify", "--p-max", "2", "--n-max", "2"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert "summary" in proc.stdout


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
# in Monte Carlo within and beyond capacity, and on a zero code; and a --t out of range on a
# code whose analysis would hit the distance guard, which must be refused first.  A verify
# document or an n = 64 spectrum is long, so its stdout is pinned by sha256.
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
    ('simulate --n 3 --p 5 --x 3 --y 1 --a 2 --t 5 --trials 20', 2, 'code [9, 1, 9] over GF(5), correction capacity 4\nmode: monte-carlo (seed 0)\ntrials 20: 17 success, 3 ambiguous, 0 miscorrected\nFAIL: t=5 exceeds correction capacity 4 (3 failures)\n', ''),
    ('simulate --n 3 --p 5 --x 3 --y 1 --a 2 --t 5 --trials 20 --json', 2, '{"p": 5, "n": 3, "x": 3, "y": 1, "a": 2, "t": 5, "length": 9, "dimension": 1, "min_distance": 9, "capacity": 4, "hypotheses_met": true, "mode": "monte-carlo", "seed": 0, "trials": 20, "successes": 17, "ambiguous": 3, "miscorrected": 0, "within_capacity": false, "verdict": "FAIL"}\n', ''),
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
