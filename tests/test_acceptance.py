"""Acceptance gate: every criterion is exact, one pass line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the pass/fail lines
alongside the pytest verdicts.
"""

import json
import subprocess
import sys
import time

import numpy as np

import helpers
from tcc import (
    CombParams,
    Matrix,
    Prime,
    Spectrum,
    TwistSpec,
    analyze,
    centralizer_code,
    comb_matrix,
    comb_spectrum,
    eigen_scan,
    exhaustive_stats,
)
from tcc.cli import _hypotheses_met
from tcc.code import UNIQUE, decode_nearest, encode
from tcc.linalg import inverse

SWEEP_PRIMES = (2, 3, 5, 7, 11, 13)
SWEEP_ORDERS = (2, 3, 4, 5, 6)


def _hypothesis_tuples():
    """Every (p, n, x, y, a) with p | x*n + y, x != 0, y != 0, a outside {0, 1}."""
    for p in SWEEP_PRIMES:
        for n in SWEEP_ORDERS:
            for x in range(1, p):
                y = (-x * n) % p
                if y == 0:
                    continue
                for a in range(2, p):
                    yield p, n, x, y, a


def _mds_code(p, n, x, y, a):
    prime = Prime(p)
    matrix = comb_matrix(CombParams(n, x, y, prime))
    return centralizer_code(TwistSpec(matrix, a))


def test_criterion_1_theorem_sweep():
    started = time.monotonic()
    # The CLI's predicate accepts exactly the enumerated tuples on the whole grid.
    grid = [
        (p, n, x, y, a)
        for p in SWEEP_PRIMES
        for n in SWEEP_ORDERS
        for x in range(p)
        for y in range(p)
        for a in range(p)
    ]
    assert len(grid) == 20155
    assert [t for t in grid if _hypotheses_met(*t)] == list(_hypothesis_tuples())
    checked = 0
    for p, n, x, y, a in _hypothesis_tuples():
        code = _mds_code(p, n, x, y, a)
        label = (p, n, x, y, a)
        assert code.dim == 1, label
        assert code.generator.tolist() == [[1] * (n * n)], label
        report = analyze(code)
        assert report.min_distance == n * n, label
        assert report.mds, label
        assert report.detect == n * n - 1, label
        assert report.correct == (n * n - 1) // 2, label
        assert report.rate == (1, n * n), label
        checked += 1
    elapsed = time.monotonic() - started
    assert checked == 1314  # 6 + 48 + 150 + 450 + 660 across p = 3, 5, 7, 11, 13
    print(f"criterion 1 (theorem sweep, {checked} tuples in {elapsed:.1f}s): PASS")


def test_criterion_2_oracle_equivalence():
    started = time.monotonic()
    cases = 0
    for p in (2, 3):
        prime = Prime(p)
        for n in (2, 3):
            rng = np.random.default_rng(9000 + 10 * p + n)
            fixed = [
                comb_matrix(CombParams(n, x, y, prime))
                for x in range(p)
                for y in range(p)
            ]
            sampled = [helpers.rand_matrix(rng, n, n, prime) for _ in range(20)]
            for matrix in fixed + sampled:
                for a in range(p):
                    spec = TwistSpec(matrix, a)
                    code = centralizer_code(spec)
                    oracle = helpers.brute_force_centralizer(spec)
                    label = (p, n, a)
                    assert len(oracle) == p**code.dim, label
                    oracle_set = set(oracle)
                    for b in helpers.basis_matrices(code):
                        assert b in oracle_set, label
                    for member in oracle:
                        assert helpers.is_codeword(code, helpers.vec(member)), label
                    cases += 1
    elapsed = time.monotonic() - started
    assert cases == (4 + 20) * 2 * 2 + (9 + 20) * 3 * 2
    print(f"criterion 2 (oracle equivalence, {cases} cases in {elapsed:.1f}s): PASS")


def test_criterion_3_spectral_claims():
    for p in SWEEP_PRIMES:
        prime = Prime(p)
        for n in SWEEP_ORDERS:
            for x in range(p):
                for y in range(p):
                    params = CombParams(n, x, y, prime)
                    formula = comb_spectrum(params)
                    assert formula == eigen_scan(comb_matrix(params)), (p, n, x, y)
                    lam_ones = (x * n + y) % p
                    if x != 0 and lam_ones != y:
                        expected = Spectrum(tuple(sorted(((lam_ones, 1), (y, n - 1)))))
                        assert formula == expected, (p, n, x, y)
    print("criterion 3 (spectral claims): PASS")


def test_criterion_4_diagonalization_and_transfer():
    for p, n, x, y, a in _hypothesis_tuples():
        prime = Prime(p)
        params = CombParams(n, x, y, prime)
        label = (p, n, x, y, a)

        diag = helpers.diagonalize(params)
        expected_diag = np.full(n, y, dtype=np.int64)
        expected_diag[0] = 0
        assert diag.diagonal == Matrix(np.diag(expected_diag), prime), label
        matrix = comb_matrix(params)
        conjugated = helpers.matmul(helpers.matmul(diag.transform, matrix), inverse(diag.transform))
        assert conjugated == diag.diagonal, label

        d_spec = TwistSpec(diag.diagonal, a)
        target = TwistSpec(matrix, a)
        moved = helpers.conjugation_transfer(d_spec, centralizer_code(d_spec), diag.transform, target=target)
        assert moved == centralizer_code(target), label
    print("criterion 4 (diagonalization and conjugation transfer): PASS")


def test_criterion_5_exhaustive_correction():
    started = time.monotonic()

    small = _mds_code(3, 2, 1, 1, 2)
    assert (small.length, small.dim) == (4, 1)
    for m in range(3):
        message = np.array([m])
        sent = encode(small, message)
        for pos in range(4):
            for offset in (1, 2):
                corrupted = sent.copy()
                corrupted[pos] = (corrupted[pos] + offset) % 3
                result = decode_nearest(small, corrupted)
                assert result.status == UNIQUE, (m, pos, offset)
                assert np.array_equal(result.message, message), (m, pos, offset)
    assert helpers.exhaustive_correction_check(small, 1)

    large = _mds_code(5, 3, 3, 1, 2)
    assert (large.length, large.dim) == (9, 1)
    stats = exhaustive_stats(large, 4)
    assert stats.trials == 161280  # C(9,4) * 4^4 patterns * 5 messages
    assert stats.successes == stats.trials
    assert stats.ambiguous == 0 and stats.miscorrected == 0

    elapsed = time.monotonic() - started
    patterns = stats.trials // large.prime.p**large.dim
    print(f"criterion 5 (exhaustive correction, {stats.trials} outcomes, {patterns} decodes in {elapsed:.1f}s): PASS")


def test_criterion_6_exhaustive_detection():
    code = _mds_code(3, 2, 1, 1, 2)
    for t in (1, 2, 3):
        assert helpers.exhaustive_detection_check(code, t), t
    assert not helpers.exhaustive_detection_check(code, 4)
    # Exhibit one weight-4 pattern landing on a codeword: add 1111 to 0000.
    assert helpers.is_codeword(code, np.array([1, 1, 1, 1]))
    print("criterion 6 (exhaustive detection): PASS")


def test_criterion_7_reproducible_simulation():
    argv = [
        sys.executable, "-m", "tcc",
        "simulate", "--n", "3", "--p", "5", "--x", "3", "--y", "1", "--a", "2",
        "--t", "4", "--trials", "500", "--seed", "314159", "--json",
    ]
    first = subprocess.run(argv, capture_output=True, check=True, env=helpers.child_env())
    second = subprocess.run(argv, capture_output=True, check=True, env=helpers.child_env())
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert doc["verdict"] == "PASS"
    assert doc["successes"] == 500
    print("criterion 7 (byte-identical seeded simulation): PASS")


def test_criterion_8_property_suites():
    helpers.check_field_axioms(1000)
    helpers.check_rref_idempotent(1000)
    helpers.check_kernel(1000)
    helpers.check_vec_roundtrip(1000)
    helpers.check_kron_mixed_product(1000)
    helpers.check_operator_identity(1000)
    print("criterion 8 (randomized property suites, 6 x 1000 instances): PASS")
