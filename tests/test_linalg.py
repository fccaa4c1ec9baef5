import numpy as np
import pytest

from tcc import (
    FieldMismatchError,
    LinearCode,
    Matrix,
    MatrixFormatError,
    Prime,
    TwistSpec,
    kernel_basis,
    parse_matrix_text,
    rank,
    rref,
    twisted_operator,
)
from tcc.linalg import SingularMatrixError, _rref_array, inverse, kronecker, matmul_mod
from helpers import GF3, GF5, identity, literal_rref_array, matmul, rand_matrix, unvec, vec, zeros


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

    def test_huge_prime_product_is_exact(self):
        # 3 * (p - 1)^2 overflows int64, forcing the 16-bit limb split.
        big = Prime(2147483647)
        a = Matrix([[big.p - 1, big.p - 2, 1]], big)
        b = Matrix([[big.p - 1], [big.p - 1], [5]], big)
        expected = ((big.p - 1) * (big.p - 1) + (big.p - 2) * (big.p - 1) + 5) % big.p
        assert matmul(a, b).array[0, 0] == expected


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
