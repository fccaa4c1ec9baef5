import numpy as np
import pytest

import tcc.comb
from tcc import (
    CombParams,
    GuardExceededError,
    Matrix,
    Prime,
    Spectrum,
    comb_matrix,
    comb_spectrum,
    eigen_scan,
    inverse,
)
from tcc.linalg import matmul_mod
from helpers import (
    GF3,
    GF5,
    GF7,
    DefectiveMatrixError,
    all_ones,
    diagonalize,
    identity,
    literal_eigen_scan,
    matmul,
    rand_invertible,
)


def params(n, x, y, p):
    prime = Prime(p)
    return CombParams(n, x, y, prime)


class TestCombParams:
    def test_order_one_rejected(self):
        with pytest.raises(ValueError, match="order n"):
            params(1, 1, 1, 3)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            params(65, 1, 1, 3)
        assert params(64, 1, 1, 3).n == 64

    def test_coefficients_reduced_once(self):
        cp = CombParams(3, -1, 12, GF5)
        assert (cp.x, cp.y) == (4, 2)
        assert cp == CombParams(3, 4, 2, GF5)
        big = CombParams(2, np.int64(-8), np.int64(7), GF7)
        assert (big.x, big.y) == (6, 0)
        assert type(big.x) is int and type(big.y) is int

    @pytest.mark.parametrize("bad", [True, 2.7, "1"])
    def test_non_integer_coefficients_rejected(self, bad):
        with pytest.raises(TypeError, match="x must be an int"):
            CombParams(2, bad, 1, GF5)
        with pytest.raises(TypeError, match="y must be an int"):
            CombParams(2, 1, bad, GF5)


class TestCombMatrix:
    def test_direct_substitution(self):
        assert comb_matrix(params(2, 1, 1, 3)) == Matrix([[2, 1], [1, 2]], GF3)

    def test_degenerates_to_identity(self):
        for n in (2, 3, 5):
            assert comb_matrix(params(n, 0, 1, 7)) == identity(n, GF7)

    def test_degenerates_to_all_ones(self):
        assert comb_matrix(params(3, 1, 0, 5)) == all_ones(3, GF5)

    def test_matches_explicit_linear_combination(self):
        for n, x, y, p in [(2, 1, 1, 3), (3, 2, 4, 5), (4, 6, 3, 7), (5, 1, 1, 2)]:
            prime = Prime(p)
            built = comb_matrix(params(n, x, y, p))
            combined = Matrix((x * all_ones(n, prime).array + y * identity(n, prime).array) % p, prime)
            assert built == combined

    def test_symmetric(self):
        m = comb_matrix(params(4, 3, 2, 5))
        assert np.array_equal(m.array, m.array.T)


class TestSpectrumType:
    def test_requires_sorted_distinct(self):
        with pytest.raises(ValueError):
            Spectrum(((2, 1), (1, 1)))
        with pytest.raises(ValueError):
            Spectrum(((1, 1), (1, 2)))

    def test_requires_positive_multiplicities(self):
        with pytest.raises(ValueError):
            Spectrum(((0, 0),))

    def test_accessors(self):
        s = Spectrum(((0, 1), (1, 2)))
        assert s.total_multiplicity == 3


class TestEigenScan:
    def test_identity(self):
        for n, p in [(2, 3), (3, 5), (4, 2)]:
            assert eigen_scan(identity(n, Prime(p))) == Spectrum(((1, n),))

    def test_singular_combinatorial_over_gf3(self):
        # A and A - I are both nonzero rank-1 2x2 matrices, so both nullities are 1.
        a = comb_matrix(params(2, 1, 1, 3))
        assert eigen_scan(a) == Spectrum(((0, 1), (1, 1)))

    def test_shifted_all_ones_over_gf5(self):
        # x*n + y = 7 = 2 mod 5; RREF gives nullity(A - 2I) = 1, nullity(A - I) = 2.
        a = comb_matrix(params(3, 2, 1, 5))
        assert eigen_scan(a) == Spectrum(((1, 2), (2, 1)))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            eigen_scan(Matrix([[1, 0, 0], [0, 1, 0]], GF3))

    def test_large_prime_guarded(self):
        big = Prime(1009)
        with pytest.raises(GuardExceededError, match="comb_spectrum"):
            eigen_scan(identity(2, big))


class TestEigenScanAgainstLiteral:
    """The characteristic-polynomial scan reports exactly what one rank per field element reports."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_every_comb_matrix(self, p):
        prime = Prime(p)
        for n in range(2, 7):
            for x in range(p):
                for y in range(p):
                    a = comb_matrix(CombParams(n, x, y, prime))
                    assert eigen_scan(a) == literal_eigen_scan(a), (p, n, x, y)

    @staticmethod
    def seeded_matrices(seed, count=60):
        """Random, upper triangular, nilpotent and similar-to-diagonal matrices, n in 1..7."""
        rng = np.random.default_rng(seed)
        for index in range(count):
            prime = Prime(int(rng.choice([2, 3, 5, 7, 13, 31])))
            p, n = prime.p, int(rng.integers(1, 8))
            entries = rng.integers(0, p, size=(n, n))
            kind = index % 4
            if kind == 1:
                entries = np.triu(entries)
            elif kind == 2:
                entries = np.triu(entries, 1)
            elif kind == 3:
                # Few distinct eigenvalues, so most repeat.
                diag = Matrix(np.diag(rng.choice(rng.integers(0, p, size=2), size=n)), prime)
                change = rand_invertible(rng, n, prime)
                entries = matmul(matmul(inverse(change), diag), change).array
            yield Matrix(entries, prime)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_seeded_matrices(self, seed):
        for a in self.seeded_matrices(seed):
            assert eigen_scan(a) == literal_eigen_scan(a), a.array.tolist()

    @pytest.mark.parametrize("p", [2, 3])
    def test_order_one(self, p):
        for v in range(p):
            a = Matrix([[v]], Prime(p))
            assert eigen_scan(a) == literal_eigen_scan(a) == Spectrum(((v, 1),))

    def test_dense_order_64(self):
        rng = np.random.default_rng(64)
        prime = Prime(101)
        diag = Matrix(np.diag(rng.choice([3, 17, 17, 50], size=64)), prime)
        change = rand_invertible(rng, 64, prime)
        a = matmul(matmul(inverse(change), diag), change)
        assert eigen_scan(a) == literal_eigen_scan(a)
        assert [lam for lam, _ in eigen_scan(a).pairs] == sorted(set(np.diag(diag.array).tolist()))


class TestEigenScanWork:
    """One rank per distinct eigenvalue, and none where the characteristic polynomial has no root."""

    @pytest.fixture
    def ranked(self, monkeypatch):
        calls = []
        rank = tcc.comb.rank

        def counting(m):
            calls.append(m.shape)
            return rank(m)

        monkeypatch.setattr(tcc.comb, "rank", counting)
        return calls

    def test_benchmark_comb_matrix(self, ranked):
        assert eigen_scan(comb_matrix(params(64, 1, 1, 997))) == Spectrum(((1, 63), (65, 1)))
        assert ranked == [(64, 64)] * 2

    def test_scalar_matrix(self, ranked):
        assert eigen_scan(Matrix(np.diag([3] * 5), GF7)) == Spectrum(((3, 5),))
        assert len(ranked) == 1

    def test_no_root(self, ranked):
        # det(X*I - A) = X^2 - 2 = X^2 + 1 has no root in GF(3).
        assert eigen_scan(Matrix([[0, 2], [1, 0]], GF3)) == Spectrum(())
        assert ranked == []

    def test_guard_before_any_work(self, ranked, monkeypatch):
        monkeypatch.setattr(tcc.comb, "_char_poly", None)
        with pytest.raises(GuardExceededError, match=r"eigen scan over GF\(1009\) exceeds the p <= 997 cap"):
            eigen_scan(identity(64, Prime(1009)))
        assert ranked == []


class TestCombSpectrum:
    def test_merged_to_zero_eigenvalue(self):
        # p | x*n + y = 3, so the eigenvalues are {0, y} = {0, 1}.
        assert comb_spectrum(params(2, 1, 1, 3)) == Spectrum(((0, 1), (1, 1)))

    def test_generic_split(self):
        assert comb_spectrum(params(3, 2, 1, 5)) == Spectrum(((1, 2), (2, 1)))

    def test_merged_eigenvalues_defective(self):
        # x*n + y = 4 = y mod 3 and the all-ones vector already has zero
        # coordinate sum (3 | n), so the single eigenspace has dimension 2.
        assert comb_spectrum(params(3, 1, 1, 3)) == Spectrum(((1, 2),))

    def test_scalar_case(self):
        assert comb_spectrum(params(4, 0, 3, 5)) == Spectrum(((3, 4),))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_agrees_with_scan_on_a_small_grid(self, p):
        prime = Prime(p)
        for n in (2, 3, 4):
            for x in range(p):
                for y in range(p):
                    cp = CombParams(n, x, y, prime)
                    assert comb_spectrum(cp) == eigen_scan(comb_matrix(cp)), (p, n, x, y)


def all_ones_eigencheck(cp):
    """Whether A u = (x n + y) u for the all-ones vector u (it always should)."""
    ones = np.ones(cp.n, dtype=np.int64)
    p = cp.prime.p
    return np.array_equal(matmul_mod(comb_matrix(cp).array, ones, p), (cp.x * cp.n + cp.y) * ones % p)


class TestAllOnesEigencheck:
    def test_merged_case(self):
        assert all_ones_eigencheck(params(2, 1, 1, 3))

    def test_generic_case(self):
        assert all_ones_eigencheck(params(3, 2, 1, 5))

    def test_scalar_case(self):
        assert all_ones_eigencheck(params(4, 0, 3, 7))

    def test_holds_everywhere_small(self):
        for p in (2, 3, 5):
            prime = Prime(p)
            for n in (2, 3):
                for x in range(p):
                    for y in range(p):
                        assert all_ones_eigencheck(CombParams(n, x, y, prime))


class TestDiagonalize:
    def test_worked_example(self):
        d = diagonalize(params(2, 1, 1, 3))
        assert d.diagonal == Matrix([[0, 0], [0, 1]], GF3)
        a = comb_matrix(params(2, 1, 1, 3))
        assert matmul(matmul(d.transform, a), inverse(d.transform)) == d.diagonal

    def test_scalar_case_uses_identity_transform(self):
        d = diagonalize(params(3, 0, 2, 5))
        assert d.transform == identity(3, GF5)
        assert d.diagonal == Matrix(np.diag([2] * 3), GF5)

    def test_defective_case_rejected(self):
        with pytest.raises(DefectiveMatrixError, match="defective over GF\\(3\\)"):
            diagonalize(params(3, 1, 1, 3))

    def test_succeeds_iff_multiplicities_fill(self):
        for p in (2, 3, 5):
            prime = Prime(p)
            for n in (2, 3, 4):
                for x in range(p):
                    for y in range(p):
                        cp = CombParams(n, x, y, prime)
                        full = comb_spectrum(cp).total_multiplicity == n
                        if full:
                            d = diagonalize(cp)
                            a = comb_matrix(cp)
                            assert matmul(matmul(d.transform, a), inverse(d.transform)) == d.diagonal
                            diag_entries = sorted(int(v) for v in np.diag(d.diagonal.array))
                            expected = sorted(
                                lam for lam, mult in comb_spectrum(cp).pairs for _ in range(mult)
                            )
                            assert diag_entries == expected
                        else:
                            with pytest.raises(DefectiveMatrixError):
                                diagonalize(cp)

    def test_theorem_hypotheses_always_diagonalize(self):
        # Whenever p | x*n + y with x, y nonzero, D must be diag(0, y, ..., y).
        for p in (3, 5, 7):
            prime = Prime(p)
            for n in (2, 3, 4):
                for x in range(1, p):
                    y = (-x * n) % p
                    if y == 0:
                        continue
                    d = diagonalize(CombParams(n, x, y, prime))
                    expected = np.full(n, y, dtype=np.int64)
                    expected[0] = 0
                    assert d.diagonal == Matrix(np.diag(expected), prime)
