import math

import numpy as np
import pytest

from tcc import (
    LinearCode,
    Matrix,
    MatrixFormatError,
    Prime,
    TwistSpec,
    is_prime,
    kernel_basis,
    parse_matrix_text,
    rank,
    rref,
    twisted_operator,
)
import tcc.linalg
from tcc.linalg import (
    FieldMismatchError,
    SingularMatrixError,
    _hessenberg,
    _rref_array,
    inverse,
    kronecker,
    matmul_mod,
)
from helpers import (
    GF3,
    GF5,
    blas_shapes,
    identity,
    literal_rref_array,
    matmul,
    object_matmul,
    rand_matrix,
    trial_division_is_prime,
    unvec,
    vec,
    zeros,
)


class TestPrime:
    def test_accepts_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 997, 2147483647):
            assert Prime(p).p == p

    @pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 15, 2**31])
    def test_rejects_non_primes_and_out_of_range(self, bad):
        with pytest.raises(ValueError):
            Prime(bad)

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            Prime(3.0)


class TestIsPrime:
    """Miller-Rabin with the witnesses 2, 3, 5 and 7 against trial division."""

    def test_matches_trial_division_below_200000(self):
        assert [n for n in range(-3, 200_000) if is_prime(n) != trial_division_is_prime(n)] == []

    @pytest.mark.parametrize("n", [2**31 - 1, 2**31 - 3, 2**31 - 19, 2**31 + 11, 3_215_031_749])
    def test_matches_trial_division_near_the_largest_prime(self, n):
        assert is_prime(n) == trial_division_is_prime(n)

    @pytest.mark.parametrize("n", [2047, 3277, 1_373_653, 25_326_001])
    def test_strong_pseudoprimes_are_composite(self, n):
        # Strong pseudoprimes to base 2, 2, {2, 3} and {2, 3, 5}: fewer witnesses would call them prime.
        assert not trial_division_is_prime(n)
        assert not is_prime(n)

    def test_refuses_past_its_exact_bound(self):
        # 3,215,031,751 is the least strong pseudoprime to all of 2, 3, 5 and 7.
        with pytest.raises(ValueError, match="exact only below 3215031751"):
            is_prime(3_215_031_751)


class TestMatrixBasics:
    @pytest.mark.parametrize("entry", [-1, 5])
    def test_refuses_an_entry_that_is_no_residue(self, entry):
        data = np.array([[0, 1], [entry, 4]], dtype=np.int64)
        with pytest.raises(ValueError) as err:
            Matrix(data, GF5)
        assert str(err.value) == "matrix entries must be residues in [0, 5)"
        assert data.flags.writeable

    def test_int64_array_held_without_a_copy(self):
        data = np.array([[0, 1], [2, 4]], dtype=np.int64)
        m = Matrix(data, GF5)
        assert np.shares_memory(m.array, data)
        assert not data.flags.writeable

    @pytest.mark.parametrize("entry", [-1, 3, 4, -(2**63), 2**63 - 1])
    def test_matrix_and_code_refuse_the_same_entries(self, entry):
        data = np.array([[1, entry, 0]], dtype=np.int64)
        with pytest.raises(ValueError, match=r"^matrix entries must be residues in \[0, 3\)$"):
            Matrix(data, GF3)
        with pytest.raises(ValueError, match=r"^generator entries must be residues in \[0, 3\)$"):
            LinearCode(GF3, 3, data)
        data[0, 1] = 2
        assert Matrix(data, GF3).array is data
        assert LinearCode(GF3, 3, data).generator is data

    def test_read_only_storage(self):
        m = identity(2, GF3)
        with pytest.raises(ValueError):
            m.array[0, 0] = 2

    def test_shape_validation(self):
        for data in (np.zeros((0, 3), dtype=np.int64), [1, 2, 3], np.zeros((2, 2, 2), dtype=np.int64)):
            with pytest.raises(ValueError, match=r"^matrix shape must be 2 axes of 1\.\.4096, got \("):
                Matrix(data, GF3)

    def test_identity_multiplication(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            a = rand_matrix(rng, 3, 3, GF5)
            assert matmul(a, identity(3, GF5)) == a

    def test_all_ones_squared(self):
        # J_n @ J_n = n * J_n: every entry sums n ones.
        for n in (2, 3, 4):
            j = Matrix(np.ones((n, n), dtype=np.int64), GF5)
            assert matmul(j, j) == Matrix(j.array * n, GF5)

    def test_combinatorial_annihilates_all_ones(self):
        # x=1, y=1, n=2 over GF(3): the characteristic divides x*n + y = 3.
        a = Matrix([[2, 1], [1, 2]], GF3)
        j = Matrix([[1, 1], [1, 1]], GF3)
        assert matmul(a, j) == zeros(2, 2, GF3)
        assert matmul(j, a) == zeros(2, 2, GF3)

    def test_text_matches_the_per_entry_formatter(self):
        # The rows print through tolist() and map(str); the pinned formatter took str(int(v)) per entry.
        rng = np.random.default_rng(71)
        big = Prime(2147483647)
        top = Matrix([[big.p - 1, 0, big.p - 2], [1, 2**31 - 3, 65536]], big)
        cases = [top, Matrix([[0]], GF3), Matrix(rng.integers(0, 7, size=(60, 400)), Prime(7))]
        cases.append(Matrix(rng.integers(0, big.p, size=(9, 33)), big))
        for m in cases:
            pinned = "\n".join("[" + " ".join(str(int(v)) for v in r) + "]" for r in m.array)
            assert str(m) == pinned
        assert str(top) == "[2147483646 0 2147483645]\n[1 2147483645 65536]"

    def test_huge_prime_product_is_exact(self):
        # 3 * (p - 1)^2 overflows int64, forcing the 16-bit limb split.
        big = Prime(2147483647)
        a = Matrix([[big.p - 1, big.p - 2, 1]], big)
        b = Matrix([[big.p - 1], [big.p - 1], [5]], big)
        expected = ((big.p - 1) * (big.p - 1) + (big.p - 2) * (big.p - 1) + 5) % big.p
        assert matmul(a, b).array[0, 0] == expected


class TestHessenberg:
    @pytest.mark.parametrize("p", [2, 3, 7, 997, 2**31 - 1])
    def test_similarity_to_upper_hessenberg(self, monkeypatch, p):
        # S and S^-1 come from the elementary operations themselves: nothing is inverted or eliminated.
        def refuse(*args):
            raise AssertionError("_hessenberg must not invert or eliminate")

        monkeypatch.setattr(tcc.linalg, "_rref_array", refuse)
        monkeypatch.setattr(tcc.linalg, "inverse", refuse)
        rng = np.random.default_rng(p % 1000)
        for n in (1, 2, 3, 5, 9, 16):
            for m in (rng.integers(0, p, size=(n, n)), np.diag(rng.integers(0, min(p, 3), size=n))):
                h, s, s_inv = _hessenberg(m, p)
                assert np.array_equal(matmul_mod(s, s_inv, p), np.eye(n, dtype=np.int64))
                assert np.array_equal(matmul_mod(matmul_mod(s, m, p), s_inv, p), h)
                assert not np.tril(h, -2).any()
                assert h.max(initial=0) < p and h.min(initial=0) >= 0

    @pytest.mark.parametrize(
        "diag, p, blocks",
        [
            ([2] + [1] * 32, 3, 32),
            (list(np.arange(64) // 16), 5, 16),
            (list(range(1, 25)), 997, 1),
            ([0, 0, 1, 1, 1, 2], 997, 3),
            ([5] * 7 + [1], 7, 7),
        ],
    )
    def test_blocks_of_a_diagonal_matrix_are_its_largest_multiplicity(self, diag, p, blocks):
        # Unmixed, a diagonal matrix would be n blocks; the seeded similarities merge them.
        # No similarity can go below the largest multiplicity; over a small field a
        # random start can miss, so b may exceed it there: diag(0, 0, 1, 1, 1, 2) gives b = 4 at p = 3.
        h = _hessenberg(np.diag(diag).astype(np.int64), p)[0]
        assert len(diag) - np.count_nonzero(np.diagonal(h, -1)) == blocks


def _bound_primes(inner):
    """The largest prime p with inner (p - 1)^2 < 2^52, and the prime after it."""
    top = math.isqrt((2**52 - 1) // inner) + 1
    below, above = top, top + 1
    while not is_prime(below):
        below -= 1
    while not is_prime(above):
        above += 1
    return below, above


class TestFloatProducts:
    """matmul_mod's float64 BLAS path against Python-int products, and the int64 paths it leaves alone."""

    PRIMES = [2, 3, 7, 997, 8191, 2**31 - 1]

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize(
        "rows, inner, cols, floats",
        [
            # Inner dimension 0, as a k = 1 code's message blocks have.
            (2, 0, 9, False),
            (40, 0, 16, False),
            (2, 8, 1024, True),
            (64, 8, 32, True),
            (576, 52, 92, True),
            (130, 24, 24, True),
            (17, 1000, 5, True),
            # Below the size crossover, or the inner one.
            (3, 64, 64, False),
            (625, 4, 9, False),
            # Wider than one block: cut into column blocks too.
            (2, 64, 2048, True),
            # One row or one column would be a gemv; past k = 2^18 // 9 a block cannot hold 3 columns.
            (1, 64, 512, False),
            (512, 64, 1, False),
            (2, 29128, 2, False),
        ],
    )
    def test_matches_python_ints(self, monkeypatch, p, rows, inner, cols, floats):
        calls = blas_shapes(monkeypatch)
        rng = np.random.default_rng([p, rows, inner, cols])
        a = rng.integers(0, p, size=(rows, inner))
        b = rng.integers(0, p, size=(inner, cols))
        out = matmul_mod(a, b, p)
        assert out.dtype == np.int64 and out.shape == (rows, cols)
        assert np.array_equal(out, object_matmul(a, b, p))
        # p = 2^31 - 1 is never exact in float64: (p - 1)^2 alone exceeds 2^52.
        assert bool(calls) == (floats and p < 2**31 - 1)

    @pytest.mark.parametrize("inner, rows, cols", [(8, 64, 32), (64, 16, 16), (1024, 4, 4), (4096, 2, 3)])
    def test_both_sides_of_the_exactness_bound(self, monkeypatch, inner, rows, cols):
        calls = blas_shapes(monkeypatch)
        below, above = _bound_primes(inner)
        assert inner * (below - 1) ** 2 < 2**52 <= inner * (above - 1) ** 2
        for p in (below, above):
            calls.clear()
            # All entries p - 1: every dot product is inner (p - 1)^2, its largest value.
            full = matmul_mod(np.full((rows, inner), p - 1), np.full((inner, cols), p - 1), p)
            assert np.array_equal(full, np.full((rows, cols), inner % p))
            rng = np.random.default_rng([p, inner])
            a = rng.integers(p - 8, p, size=(rows, inner))
            b = rng.integers(0, p, size=(inner, cols))
            assert np.array_equal(matmul_mod(a, b, p), object_matmul(a, b, p))
            assert len(calls) == (2 if p == below else 0), p

    @pytest.mark.parametrize(
        "inner, shapes",
        [
            # 2^18 // (64 * 64) = 64 rows a block.
            (64, [(rows, 64) for rows in (4, 63, 64, 65, 127, 128, 129, 191)]),
            # At most 2^18 // 192 = 1365 columns a block, and then 2^18 // (64 * width) rows.
            (64, [(2, 1365), (2, 1366), (3, 2731), (5, 4096), (9, 4096), (130, 1400)]),
            # k = 2^18 // 9, the widest admitted: blocks of 2 or 3 rows and columns.
            (29127, [(2, 2), (3, 3), (4, 4), (5, 7), (7, 5)]),
        ],
    )
    def test_blocks_straddle_their_boundaries(self, monkeypatch, inner, shapes):
        calls = blas_shapes(monkeypatch)
        for rows, cols in shapes:
            calls.clear()
            rng = np.random.default_rng([rows, cols])
            a = rng.integers(0, 997, size=(rows, inner))
            b = rng.integers(0, 997, size=(inner, cols))
            assert np.array_equal(matmul_mod(a, b, 997), object_matmul(a, b, 997)), (rows, cols)
            blocks = [(shape_a[0], shape_b[1]) for shape_a, shape_b in calls]
            assert sum(h * w for h, w in blocks) == rows * cols, (rows, cols)
            for h, w in blocks:
                assert h >= 2 and w >= 2 and h * inner * w <= tcc.linalg._BLAS_MAX_WORK, (rows, cols)

    @pytest.mark.parametrize("p", [7, 997, 2**31 - 1])
    def test_stacked_and_vector_operands_stay_on_int64(self, monkeypatch, p):
        calls = blas_shapes(monkeypatch)
        rng = np.random.default_rng(p)
        stack = rng.integers(0, p, size=(6, 24, 24))
        mat = rng.integers(0, p, size=(24, 24))
        vec_ = rng.integers(0, p, size=24)
        for got, want in [
            (matmul_mod(stack, mat, p), [object_matmul(m, mat, p) for m in stack]),
            (matmul_mod(mat, stack, p), [object_matmul(mat, m, p) for m in stack]),
            (matmul_mod(stack, vec_, p), [object_matmul(m, vec_, p) for m in stack]),
            (matmul_mod(vec_, mat, p), object_matmul(vec_, mat, p)),
            (matmul_mod(mat, vec_, p), object_matmul(mat, vec_, p)),
        ]:
            assert got.dtype == np.int64 and np.array_equal(got, np.asarray(want))
        assert calls == []


class TestRref:
    def test_identity_already_reduced(self):
        for n in (1, 2, 4):
            result = rref(identity(n, GF5))
            assert result.matrix == identity(n, GF5)
            assert result.rank == n
            assert result.pivots == tuple(range(n))

    def test_all_ones_has_rank_one(self):
        for p in (2, 3, 5):
            j = Matrix(np.ones((3, 3), dtype=np.int64), Prime(p))
            assert rank(j) == 1

    def test_singular_combinatorial_matrix(self):
        # det(J2 + I2) = 3 = 0 over GF(3) and the matrix is nonzero, so rank 1;
        # hand elimination: normalize row 0 (2^-1 = 2), then clear row 1.
        result = rref(Matrix([[2, 1], [1, 2]], GF3))
        assert result.matrix == Matrix([[1, 2], [0, 0]], GF3)
        assert result.rank == 1
        assert result.pivots == (0,)

    def test_pivots_strictly_increasing(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rand_matrix(rng, 4, 6, GF3)
            pivots = rref(m).pivots
            assert list(pivots) == sorted(pivots)


def _residues(rng, p, rows, cols, density=1.0):
    """Random residues, about a quarter of them near p - 1; each entry is zeroed with probability 1 - ``density``."""
    data = rng.integers(0, p, size=(rows, cols))
    top = rng.random(size=(rows, cols)) < 0.25
    data[top] = p - 1 - rng.integers(0, min(p, 4), size=int(top.sum()))
    data[rng.random(size=(rows, cols)) >= density] = 0
    return data


def _rank_deficient(rng, p, rank_, rows, cols):
    """rows x cols of rank at most ``rank_``: each row a random combination of ``rank_`` random rows."""
    return matmul_mod(_residues(rng, p, rows, rank_), _residues(rng, p, rank_, cols), p)


_PRIMES = [2, 3, 7, 65521, 2**31 - 1]


def _systems(p):
    """Named systems for one prime.

    At p = 2^31 - 1 the budget is 2 updates, so every block with three
    pivots or more is reduced in between.
    """
    rng = np.random.default_rng(p % 1000)
    twisted = TwistSpec(Matrix(_residues(rng, p, 8, 8), Prime(p)), int(rng.integers(0, p)))
    return {
        "sparse": _residues(rng, p, 80, 96, density=0.08),
        "dense": _residues(rng, p, 72, 72),
        "wide": _rank_deficient(rng, p, 40, 48, 120),
        "tall": _residues(rng, p, 120, 40),
        "zero": np.zeros((6, 9), dtype=np.int64),
        "rank_deficient": _rank_deficient(rng, p, 40, 64, 64),
        "small": _rank_deficient(rng, p, 6, 9, 9),
        "kronecker": twisted_operator(twisted).array[:, ::-1],
    }


class TestDelayedReduction:
    """_rref_array against the reduce-every-step oracle, entry for entry."""

    @pytest.mark.parametrize("p", _PRIMES)
    def test_matches_reduce_every_step(self, p):
        for name, system in _systems(p).items():
            expected, expected_pivots = literal_rref_array(system.copy(), p)
            got, pivots = _rref_array(system.copy(), p)
            assert pivots == expected_pivots, name
            assert np.array_equal(got, expected), name
            assert rref(Matrix(system, Prime(p))).matrix.array.tolist() == expected.tolist(), name
            if name in ("wide", "rank_deficient"):
                # Products through 40 inner rows; these seeded ones reach rank 40.
                assert rank(Matrix(system, Prime(p))) == 40, name


class TestKernel:
    def test_invertible_matrix_has_empty_kernel(self):
        assert kernel_basis(identity(3, GF5)).shape == (0, 3)

    def test_zero_matrix_kernel_is_everything(self):
        basis = kernel_basis(zeros(3, 3, Prime(7)))
        assert basis.tolist() == np.eye(3, dtype=np.int64).tolist()

    def test_all_ones_kernel_over_gf5(self):
        j = Matrix(np.ones((3, 3), dtype=np.int64), GF5)
        basis = kernel_basis(j)
        assert basis.shape == (2, 3)  # nullity = 3 - rank(J) = 2
        for v in basis:
            assert matmul_mod(j.array, v, 5).tolist() == [0, 0, 0]
            assert sum(v.tolist()) % 5 == 0

    def test_deterministic_free_column_order(self):
        j = Matrix(np.ones((3, 3), dtype=np.int64), GF5)
        assert kernel_basis(j).tolist() == [[4, 1, 0], [4, 0, 1]]

    def test_free_columns_between_pivots(self):
        # Pivots 0 and 2 leave free columns 1 and 3, each row a 1 there.
        m = Matrix([[1, 2, 0, 3], [0, 0, 1, 4]], GF5)
        assert kernel_basis(m).tolist() == [[3, 1, 0, 0], [2, 0, 1, 1]]


class TestInverse:
    def test_identity(self):
        assert inverse(identity(3, GF5)) == identity(3, GF5)

    def test_scalar_matrix(self):
        assert inverse(Matrix([[2, 0], [0, 2]], GF5)) == Matrix([[3, 0], [0, 3]], GF5)

    def test_holds_no_augmented_buffer(self):
        # The n x 2n elimination buffer must not outlive the call behind a view.
        m = Matrix([[1, 2, 0], [0, 1, 4], [2, 0, 1]], GF5)
        inv = inverse(m)
        base = inv.array.base
        assert base is None or base.shape[1] != 2 * m.rows
        assert matmul(inv, m) == identity(3, GF5)

    def test_rank_deficient_rejected(self):
        with pytest.raises(SingularMatrixError, match="not invertible"):
            inverse(Matrix([[1, 1], [1, 1]], GF3))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            inverse(Matrix([[1, 0, 0], [0, 1, 0]], GF3))


class TestKronecker:
    def test_identity_blocks(self):
        assert kronecker(identity(2, GF3), identity(2, GF3)) == identity(4, GF3)

    def test_all_ones_blocks(self):
        j2 = Matrix(np.ones((2, 2), dtype=np.int64), GF3)
        j4 = Matrix(np.ones((4, 4), dtype=np.int64), GF3)
        assert kronecker(j2, j2) == j4

    def test_block_structure(self):
        a = Matrix([[1, 2], [0, 1]], GF5)
        b = Matrix([[1, 1], [1, 0]], GF5)
        k = kronecker(a, b)
        assert k.array[:2, 2:].tolist() == (b.array * 2 % 5).tolist()

    def test_field_mismatch_rejected(self):
        with pytest.raises(FieldMismatchError):
            kronecker(identity(2, GF3), identity(2, GF5))


class TestVecUnvec:
    def test_first_unit_cell(self):
        e11 = Matrix([[1, 0], [0, 0]], GF3)
        assert vec(e11).tolist() == [1, 0, 0, 0]

    def test_all_ones(self):
        j2 = Matrix(np.ones((2, 2), dtype=np.int64), GF3)
        assert vec(j2).tolist() == [1, 1, 1, 1]

    def test_column_stacking_order(self):
        m = Matrix([[1, 2], [3, 4]], GF5)
        assert vec(m).tolist() == [1, 3, 2, 4]

    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = rand_matrix(rng, 3, 4, GF5)
            assert unvec(vec(m), 3, 4, GF5) == m

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            unvec(np.array([1, 2, 3]), 2, 2, GF5)


class TestMatrixTextFormat:
    def test_roundtrip(self):
        m = Matrix([[2, 1], [1, 2]], GF3)
        text = "3 2 2\n" + "\n".join(" ".join(str(v) for v in row) for row in m.array.tolist()) + "\n"
        assert parse_matrix_text(text) == m

    def test_parses_basic_input(self):
        m = parse_matrix_text("5 2 3\n0 1 2\n3 4 0\n")
        assert m.prime.p == 5
        assert m.array.tolist() == [[0, 1, 2], [3, 4, 0]]

    def test_out_of_range_entry_rejected_not_reduced(self):
        with pytest.raises(MatrixFormatError, match=r"line 2, column 3") as info:
            parse_matrix_text("3 2 3\n0 1 3\n0 0 0\n")
        assert info.value.line == 2
        assert info.value.column == 3

    def test_non_integer_entry(self):
        with pytest.raises(MatrixFormatError, match=r"line 3, column 1"):
            parse_matrix_text("3 2 2\n0 1\nx 0\n")

    def test_signed_and_zero_padded_entries_read(self):
        assert parse_matrix_text("+11 1 3\n+4 -0 007\n").array.tolist() == [[4, 0, 7]]

    @pytest.mark.parametrize("tok", ["1_0", "\u0663", "\uff13", "2.0", "0x1"])
    def test_non_ascii_decimal_entry_rejected(self, tok):
        # int() alone reads "1_0" as 10 and the Arabic-Indic and fullwidth threes as 3.
        with pytest.raises(MatrixFormatError, match=rf"line 3, column 2: '{tok}' is not an integer") as info:
            parse_matrix_text(f"13 2 2\n1 1\n1 {tok}\n")
        assert (info.value.line, info.value.column) == (3, 2)

    @pytest.mark.parametrize("header", ["1_3 1 1", "13 \u0661 1", "13 1 1_0"])
    def test_non_ascii_decimal_header_rejected(self, header):
        with pytest.raises(MatrixFormatError, match="line 1: header fields must be integers"):
            parse_matrix_text(f"{header}\n1\n")

    def test_bad_header(self):
        with pytest.raises(MatrixFormatError, match="line 1"):
            parse_matrix_text("3 2\n0 1\n")

    def test_non_prime_modulus(self):
        with pytest.raises(MatrixFormatError, match="line 1"):
            parse_matrix_text("4 1 1\n0\n")

    @pytest.mark.parametrize("rows, cols", [(65, 65), (1, 65), (65, 1), (4096, 4096), (0, 1)])
    def test_shape_beyond_the_largest_order_refused_at_the_header(self, rows, cols):
        # A file holds A, whose order is at most 64; the data lines, not integers here, are never read.
        text = f"3 {rows} {cols}\n" + "x\n" * rows
        message = rf"^line 1: matrix shape must be within 1\.\.64 per axis, got {rows}x{cols}$"
        with pytest.raises(MatrixFormatError, match=message) as info:
            parse_matrix_text(text)
        assert (info.value.line, info.value.column) == (1, None)

    def test_wrong_row_count(self):
        with pytest.raises(MatrixFormatError, match="expected 3 data rows"):
            parse_matrix_text("3 3 2\n0 1\n1 0\n")

    def test_wrong_entry_count(self):
        with pytest.raises(MatrixFormatError, match="expected 2 entries, got 3"):
            parse_matrix_text("3 1 2\n0 1 1\n")

    @pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_only_line_feed_starts_a_row(self, brk):
        # str.splitlines() would also break here and read [[1], [2]]; inside a line it is whitespace.
        with pytest.raises(MatrixFormatError, match="line 2: expected 2 data rows, got 1"):
            parse_matrix_text(f"3 2 1\n1{brk}2\n")
        assert parse_matrix_text(f"3 1 2\n1{brk}2\n").array.tolist() == [[1, 2]]

    def test_crlf_lines_parse(self):
        m = parse_matrix_text("5 2 3\r\n0 1 2\r\n3 4 0\r\n")
        assert (m.prime.p, m.array.tolist()) == (5, [[0, 1, 2], [3, 4, 0]])

    def test_good_rows_are_read_whole_and_never_walked(self, monkeypatch):
        walked = []
        original = tcc.linalg._integer

        def recorded(tok):
            walked.append(tok)
            return original(tok)

        monkeypatch.setattr(tcc.linalg, "_integer", recorded)
        rng = np.random.default_rng(24)
        data = rng.integers(0, 997, size=(24, 24))
        # Signs, zero padding and any whitespace between fields, as the format allows.
        fields = [[f"{'+' if v % 3 == 0 else ''}{v:0{1 + v % 4}d}" for v in row] for row in data.tolist()]
        text = "997 24 24\n" + "".join(" \t".join(row) + " \n" for row in fields)
        assert np.array_equal(parse_matrix_text(text).array, data)
        assert walked == ["997", "24", "24"]

    @pytest.mark.parametrize(
        "row, column, error",
        [
            ("1 7 x", 2, "entry 7 outside [0, 7)"),
            ("1 x 7", 2, "'x' is not an integer"),
            ("-1 1_0 1", 1, "entry -1 outside [0, 7)"),
            ("1 -2 1", 2, "entry -2 outside [0, 7)"),
            ("1 1 " + "9" * 5000, 3, "'" + "9" * 5000 + "' is not an integer"),
            ("1 1 " + "9" * 40, 3, "entry " + "9" * 40 + " outside [0, 7)"),
        ],
    )
    def test_a_bad_row_names_its_first_bad_field(self, row, column, error):
        # A field past int()'s 4300-digit limit is not an integer; one past int64 is out of range.
        with pytest.raises(MatrixFormatError) as info:
            parse_matrix_text(f"7 2 3\n0 1 2\n{row}\n")
        assert str(info.value) == f"line 3, column {column}: {error}"
        assert (info.value.line, info.value.column) == (3, column)
