"""Edge cases at the largest accepted prime, p = 2^31 - 1.

Here (p - 1)^2 is just under 2^62, so a dot product of two terms still
fits one int64 product and one of three or more takes matmul_mod's
16-bit limb split.
Each primitive is checked against plain Python-int arithmetic, and the
closed-form comb solve and the Hessenberg recurrence against the
Kronecker kernel.
"""

import numpy as np
import pytest

from tcc import (
    CombParams,
    GuardExceededError,
    Matrix,
    Prime,
    TwistSpec,
    analyze,
    centralizer_code,
    comb_matrix,
    exhaustive_stats,
    kernel_basis,
    min_distance,
    rank,
    rref,
    twisted_operator,
)
from tcc.linalg import MAX_DIM, inverse, kronecker, matmul_mod
from helpers import (
    MATRIX_KINDS,
    code_from_rows,
    generator_read_twice,
    identity,
    is_codeword,
    kronecker_code,
    matmul,
    recurrence_calls,
    structured_matrices,
)

P = 2**31 - 1
BIG = Prime(P)


def rand_rows(rng, rows, cols):
    # Half the entries sit at the top of the field, where overflow would bite.
    data = rng.integers(0, P, size=(rows, cols))
    top = rng.random(size=(rows, cols)) < 0.5
    data[top] = P - 1 - rng.integers(0, 4, size=int(top.sum()))
    return data


def ref_matmul(a, b):
    a, b = a.tolist(), b.tolist()
    return [[sum(x * y for x, y in zip(row, col)) % P for col in zip(*b)] for row in a]


def ref_rref(rows):
    """Gauss-Jordan over Python ints."""
    m = [[v % P for v in row] for row in rows]
    r = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], -1, P)
        m[r] = [v * inv % P for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(v - f * w) % P for v, w in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return m


class TestMatmulObjectPath:
    """Products past the plain int64 limit, which take the 16-bit limb split."""

    @pytest.mark.parametrize("inner", [2, 3, 17])
    def test_matches_python_ints(self, inner):
        # inner = 2 is the plain product at its limit; 3 and up take the limb split.
        assert (inner * (P - 1) ** 2 >= 2**63) == (inner > 2)
        rng = np.random.default_rng(inner)
        a = rand_rows(rng, 4, inner)
        b = rand_rows(rng, inner, 5)
        out = matmul_mod(a, b, P)
        assert out.dtype == np.int64
        assert out.tolist() == ref_matmul(a, b)

    def test_batched_product(self):
        rng = np.random.default_rng(7)
        stack = rand_rows(rng, 3 * 4, 4).reshape(3, 4, 4)
        a = rand_rows(rng, 4, 4)
        out = matmul_mod(a, stack, P)
        for b, got in zip(stack, out):
            assert got.tolist() == ref_matmul(a, b)

    def test_extreme_entries(self):
        a = np.full((2, 8), P - 1, dtype=np.int64)
        # Eight products of (p - 1)^2 = 1 mod p.
        assert matmul_mod(a, a.T, P).tolist() == [[8, 8], [8, 8]]

    def test_limb_split_at_the_largest_inner_dimension(self):
        # inner = MAX_DIM with every entry p - 1: the limb sums reach their bound.
        a = np.full((2, MAX_DIM), P - 1, dtype=np.int64)
        b = np.full((MAX_DIM, 3), P - 1, dtype=np.int64)
        out = matmul_mod(a, b, P)
        assert out.dtype == np.int64
        assert out.tolist() == ref_matmul(a, b) == [[MAX_DIM] * 3] * 2

    def test_matrix_product_and_inverse(self):
        rng = np.random.default_rng(11)
        m = Matrix(rand_rows(rng, 5, 5), BIG)
        assert matmul(m, inverse(m)) == identity(5, BIG)


class TestRrefAndKronecker:
    @pytest.mark.parametrize("shape", [(3, 5), (5, 5), (6, 4)])
    def test_rref_matches_python_ints(self, shape):
        rng = np.random.default_rng(sum(shape))
        rows = rand_rows(rng, *shape)
        # A repeated row combination forces a rank drop.
        rows[-1] = (2 * rows[0] + (P - 1) * rows[1]) % P
        assert rref(Matrix(rows, BIG)).matrix.array.tolist() == ref_rref(rows.tolist())

    # At this prime _rref_array reduces its block after every 2 updates,
    # so a 24-row system is reduced about a dozen times on the way.
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_many_delayed_reductions_match_python_ints(self, seed):
        rng = np.random.default_rng(seed)
        rows = rand_rows(rng, 24, 40)
        # Two rows that are combinations of others force a rank drop to 22.
        rows[-1] = (3 * rows[0] + (P - 1) * rows[5]) % P
        rows[7] = (rows[2] + rows[3]) % P
        result = rref(Matrix(rows, BIG))
        assert result.rank == 22
        assert result.matrix.array.tolist() == ref_rref(rows.tolist())

    def test_all_top_entries_have_rank_one(self):
        rows = np.full((24, 40), P - 1, dtype=np.int64)
        expected = [[1] * 40] + [[0] * 40] * 23
        assert ref_rref(rows.tolist()) == expected
        assert rref(Matrix(rows, BIG)).matrix.array.tolist() == expected
        assert rank(Matrix(rows, BIG)) == 1

    def test_inverse_matches_python_ints(self):
        rng = np.random.default_rng(4)
        m = rand_rows(rng, 24, 24)
        augmented = [row + [int(i == j) for j in range(24)] for i, row in enumerate(m.tolist())]
        reduced = ref_rref(augmented)
        assert [row[:24] for row in reduced] == np.eye(24, dtype=np.int64).tolist()
        assert inverse(Matrix(m, BIG)).array.tolist() == [row[24:] for row in reduced]

    def test_kernel_basis_matches_python_ints(self):
        rng = np.random.default_rng(5)
        rows = rand_rows(rng, 24, 40)
        rows[-1] = (rows[0] + 2 * rows[1]) % P
        reduced = ref_rref(rows.tolist())
        pivots = [row.index(1) for row in reduced if any(row)]
        free = [c for c in range(40) if c not in pivots]
        expected = []
        for f in free:
            v = [0] * 40
            v[f] = 1
            for r, c in enumerate(pivots):
                v[c] = -reduced[r][f] % P
            expected.append(v)
        basis = kernel_basis(Matrix(rows, BIG))
        assert len(free) == 17
        assert basis.tolist() == expected
        assert ref_matmul(rows, basis.T) == [[0] * 17] * 24

    def test_kronecker_matches_python_ints(self):
        rng = np.random.default_rng(5)
        a = rand_rows(rng, 2, 3)
        b = rand_rows(rng, 3, 2)
        expected = [
            [int(a[i // 3, j // 2]) * int(b[i % 3, j % 2]) % P for j in range(6)] for i in range(6)
        ]
        assert kronecker(Matrix(a, BIG), Matrix(b, BIG)).array.tolist() == expected

    @pytest.mark.parametrize("n", [3, 8])
    @pytest.mark.parametrize("twist", [0, 1, 2, P - 1])
    def test_twisted_operator_matches_python_ints(self, n, twist):
        # T = I (x) A - a A^T (x) I entry by entry; its int64 terms reach about 2^62.
        a = rand_rows(np.random.default_rng(n), n, n).tolist()
        expected = [
            [((j == l) * a[i][k] - twist * a[l][j] * (i == k)) % P for l in range(n) for k in range(n)]
            for j in range(n)
            for i in range(n)
        ]
        assert twisted_operator(TwistSpec(Matrix(a, BIG), twist)).array.tolist() == expected


class TestCombSolve:
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("x, a", [(1, 2), (5, P - 1), (P - 3, 12345)])
    def test_theorem_tuples_match_kernel(self, n, x, a):
        y = (-x * n) % P
        spec = TwistSpec(comb_matrix(CombParams(n, x, y, BIG)), a)
        code = centralizer_code(spec)
        assert code == kronecker_code(spec)
        report = analyze(code)
        assert (report.length, report.dim, report.min_distance, report.mds) == (n * n, 1, n * n, True)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize(
        "x, y, a", [(1, 1, 1), (7, 0, 0), (0, 9, 1), (2, 3, 0), (P - 2, 5, 1), (P - 2, P - 5, P - 1)]
    )
    def test_other_tuples_match_kernel(self, n, x, y, a):
        # s = (1 - a) y = 0 with x != 0 (a = 1; y = a = 0), the scalar full
        # space (x = 0), the zero space, and x, y and a at the top of the field.
        spec = TwistSpec(comb_matrix(CombParams(n, x, y, BIG)), a)
        assert centralizer_code(spec) == kronecker_code(spec)


class TestRecurrence:
    def test_matches_kernel_on_structured_grid(self, monkeypatch):
        # Every case is routed through the recurrence, whose sums run through the limb split,
        # and its rows are reduced on the first read of the generator, and only then.
        forced = recurrence_calls(monkeypatch, force=True)
        rng = np.random.default_rng(53)
        kinds = 0
        for n in range(1, 6):
            for a in (1, 2, P - 1):
                for kind, m in structured_matrices(rng, n, BIG):
                    spec = TwistSpec(m, a)
                    forced.clear()
                    code = centralizer_code(spec)
                    generator, shapes = generator_read_twice(monkeypatch, code)
                    assert np.array_equal(generator, kronecker_code(spec).generator), (n, a, kind)
                    assert shapes == ([(code.dim, n * n)] if code.dim else []), (n, a, kind)
                    assert forced == [spec], (n, a, kind)
                    kinds += 1
        assert kinds == 5 * 3 * len(MATRIX_KINDS)

    def test_untwisted_is_n_copies_of_the_kernel(self):
        # C(A, 0) = {B : A B = 0} is read off ker A: n nullity(A) dimensions, as T's kernel says.
        rng = np.random.default_rng(59)
        singular = 0
        for n in range(1, 6):
            for kind, m in structured_matrices(rng, n, BIG):
                spec = TwistSpec(m, 0)
                code = centralizer_code(spec)
                assert code == kronecker_code(spec), (n, kind)
                assert code.dim == n * (n - rank(m)), (n, kind)
                singular += code.dim > 0
        assert singular >= 5  # every nilpotent A at least

    def test_random_order_32_is_the_polynomials_in_a(self, monkeypatch):
        # A random A has one Hessenberg block, so it takes the recurrence unforced.  Its
        # untwisted centralizer is then the 32 polynomials in A, I and A among them.
        solved = recurrence_calls(monkeypatch)
        a = Matrix(rand_rows(np.random.default_rng(32), 32, 32), BIG)
        spec = TwistSpec(a, 1)
        code = centralizer_code(spec)
        assert solved == [spec]
        assert code.dim == 32
        assert is_codeword(code, a.array.flatten(order="F"))
        assert is_codeword(code, np.eye(32, dtype=np.int64).flatten(order="F"))


class TestGuardMessages:
    # Past 4300 digits Python refuses to turn an int into a string, so
    # these guards must still fire with a readable size.
    def test_distance_count_beyond_string_limit(self):
        code = code_from_rows(identity(600, BIG))
        with pytest.raises(GuardExceededError, match=r"about 10\^5589 codewords"):
            min_distance(code)

    def test_sweep_count_beyond_string_limit(self):
        # A k = 1 sweep is counted under a guard on its count's digits, a [1000, 2] code under the outcome guard.
        rows = np.zeros((2, 1000), dtype=np.int64)
        rows[0, :500] = rows[1, 500:] = 1
        code = code_from_rows(Matrix(rows, BIG))
        with pytest.raises(GuardExceededError, match=r"about 10\^4984 outcomes from about 10\^4965 decoded patterns"):
            exhaustive_stats(code, 500)
        with pytest.raises(GuardExceededError, match=r"^exhaustive count at weight t = 500 has about 4975 digits"):
            exhaustive_stats(code_from_rows(Matrix(np.ones((1, 1000), dtype=np.int64), BIG)), 500)
