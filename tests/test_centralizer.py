import tracemalloc
from collections import Counter
from itertools import product

import numpy as np
import pytest

import tcc.centralizer
import tcc.linalg
from tcc import (
    CombParams,
    FieldMismatchError,
    GuardExceededError,
    LinearCode,
    Matrix,
    Prime,
    TwistSpec,
    centralizer_code,
    comb_matrix,
    kernel_basis,
    twisted_operator,
)
from tcc.centralizer import _basis, _closed_form_kernel, _sum_kernel, is_member
from tcc.linalg import matmul_mod
from helpers import (
    GF2,
    GF3,
    GF5,
    all_ones,
    basis_matrices,
    brute_force_centralizer,
    code_from_rows,
    conjugation_transfer,
    diagonalize,
    eliminated_comb_kernel,
    eliminated_sum_kernel,
    identity,
    kronecker_code,
    matmul,
    rand_matrix,
    unit_e11,
    vec,
    zeros,
)


def comb_spec(n, x, y, p, a):
    prime = Prime(p)
    matrix = comb_matrix(CombParams(n, x, y, prime))
    return TwistSpec(matrix, a)


def code_of(*members: Matrix) -> LinearCode:
    """The code spanned by the vec images of ``members``."""
    return code_from_rows(Matrix(np.vstack([vec(m) for m in members]), members[0].prime))


class TestTwistSpec:
    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            TwistSpec(Matrix([[1, 0, 0], [0, 1, 0]], GF3), 1)

    def test_twist_reduced_once(self):
        for twist, residue in [(-1, 2), (3, 0), (7, 1), (np.int64(-4), 2), (np.int64(5), 2)]:
            spec = TwistSpec(identity(2, GF3), twist)
            assert spec.twist == residue and type(spec.twist) is int, twist
        assert TwistSpec(identity(2, GF3), -1) == TwistSpec(identity(2, GF3), 2)

    @pytest.mark.parametrize("bad", [True, 2.7, "1"])
    def test_non_integer_twist_rejected(self, bad):
        with pytest.raises(TypeError, match="twist must be an int"):
            TwistSpec(identity(2, GF3), bad)


class TestTwistedOperator:
    def test_identity_twist_one_gives_zero(self):
        for n in (2, 3):
            op = twisted_operator(TwistSpec(identity(n, GF5), 1))
            assert op == zeros(n * n, n * n, GF5)

    def test_identity_twist_zero_gives_identity(self):
        op = twisted_operator(TwistSpec(identity(2, GF3), 0))
        assert op == identity(4, GF3)

    def test_defining_identity_on_random_input(self):
        rng = np.random.default_rng(11)
        a = rand_matrix(rng, 3, 3, GF5)
        spec = TwistSpec(a, 3)
        op = twisted_operator(spec)
        for _ in range(10):
            b = rand_matrix(rng, 3, 3, GF5)
            commutator = Matrix((matmul(a, b).array - 3 * matmul(b, a).array) % 5, GF5)
            assert np.array_equal(matmul_mod(op.array, vec(b), 5), vec(commutator))


class TestIsMember:
    def test_zero_always_member(self):
        rng = np.random.default_rng(3)
        for p, a in [(2, 0), (3, 2), (5, 4)]:
            prime = Prime(p)
            spec = TwistSpec(rand_matrix(rng, 3, 3, prime), a)
            assert is_member(zeros(3, 3, prime), spec)

    def test_all_ones_member_under_divisibility(self):
        # J A = A J = (x*n + y) J = 0 when p | x*n + y, so J is in C(A, a) for every a.
        j = all_ones(2, GF3)
        for a in range(3):
            assert is_member(j, comb_spec(2, 1, 1, 3, a))

    def test_first_unit_cell_not_member(self):
        # A E11 = [[2,0],[1,0]] but 2 E11 A = [[1,2],[0,0]] over GF(3).
        assert not is_member(unit_e11(2, GF3), comb_spec(2, 1, 1, 3, 2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            is_member(identity(3, GF3), comb_spec(2, 1, 1, 3, 2))

    def test_field_mismatch_rejected(self):
        with pytest.raises(FieldMismatchError):
            is_member(identity(2, GF5), comb_spec(2, 1, 1, 3, 2))


class TestCentralizerCode:
    def test_worked_example_spans_all_ones(self):
        code = centralizer_code(comb_spec(2, 1, 1, 3, 2))
        assert code.dim == 1
        assert np.array_equal(code.generator[0], vec(all_ones(2, GF3)))

    def test_solve_holds_one_copy_of_its_generator(self):
        # C(J + I, 1) at n = 48 over GF(7): (n - 1)^2 + 1 = 2210 rows of 2304 residues, 41 MB.
        # Beyond the generator itself only the check's chunk temporaries may remain.
        spec = comb_spec(48, 1, 1, 7, 1)
        tracemalloc.start()
        try:
            code = centralizer_code(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code.dim == 2210
        assert peak < 1.25 * code.generator.nbytes

    def test_kronecker_route_holds_at_most_three_copies_of_t(self):
        # T of a dense A at n = 24 is 576 x 576 int64, 2.65 MB.  T itself, the
        # buffer rref eliminates in and one update's temporary: no reduced copies.
        n = 24
        spec = TwistSpec(rand_matrix(np.random.default_rng(5), n, n, Prime(7)), 1)
        tracemalloc.start()
        try:
            code = centralizer_code(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code.dim == n
        assert peak < 3.5 * n**4 * 8

    def test_zero_matrix_gives_full_space(self):
        for n, p in [(2, 3), (3, 2)]:
            prime = Prime(p)
            spec = TwistSpec(zeros(n, n, prime), 1)
            assert centralizer_code(spec).dim == n * n

    def test_untwisted_identity_gives_full_space(self):
        spec = TwistSpec(identity(3, GF5), 1)
        assert centralizer_code(spec).dim == 9

    def test_identity_always_in_untwisted_centralizer(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = rand_matrix(rng, 3, 3, GF3)
            spec = TwistSpec(a, 1)
            assert is_member(identity(3, GF3), spec)
            assert centralizer_code(spec).dim >= 1

    def test_every_basis_matrix_is_member(self):
        rng = np.random.default_rng(29)
        for p in (2, 3):
            prime = Prime(p)
            for _ in range(8):
                spec = TwistSpec(rand_matrix(rng, 3, 3, prime), int(rng.integers(p)))
                code = centralizer_code(spec)
                for b in basis_matrices(code):
                    assert is_member(b, spec)

    def test_order_beyond_32_refused_before_elimination(self, monkeypatch):
        def no_operator(spec):
            raise AssertionError("T must not be built past the guard")

        monkeypatch.setattr(tcc.centralizer, "twisted_operator", no_operator)
        # diag(2, 1, ..., 1) is no comb matrix, so only the Kronecker kernel could solve it.
        spec = TwistSpec(Matrix(np.diag([2] + [1] * 32), GF3), 1)
        with pytest.raises(GuardExceededError, match="1089x1089"):
            centralizer_code(spec)

    def test_basis_rejects_non_member(self):
        # E11 is not in C(J + I, 2) over GF(3), nor in C of a non-comb matrix.
        e11 = code_of(unit_e11(2, GF3)).generator
        with pytest.raises(RuntimeError, match="twisted commutation"):
            _basis(comb_spec(2, 1, 1, 3, 2), e11)
        general = TwistSpec(Matrix([[1, 2], [0, 1]], GF3), 2)
        with pytest.raises(RuntimeError, match="twisted commutation"):
            _basis(general, e11)

    def test_basis_rejects_one_non_member_among_members(self, monkeypatch):
        # Two generator rows per checked stack.  C(E22, 0) = span(E11, E12),
        # and E22 is no member: its RREF row comes last, alone in the second stack.
        monkeypatch.setattr(tcc.centralizer, "_CHECK_CELLS", 2 * 2 * 2)
        spec = TwistSpec(Matrix([[0, 0], [0, 1]], GF3), 0)
        e12, e22 = Matrix([[0, 1], [0, 0]], GF3), Matrix([[0, 0], [0, 1]], GF3)
        assert _basis(spec, code_of(unit_e11(2, GF3), e12).generator) == centralizer_code(spec)
        code = code_of(unit_e11(2, GF3), e12, e22)
        members = [unit_e11(2, GF3), e12]
        assert [vec(m).tolist() for m in members] == code.generator[:2].tolist()
        with pytest.raises(RuntimeError, match="twisted commutation"):
            _basis(spec, code.generator)

    def test_broken_closed_form_row_is_a_fault(self, monkeypatch):
        # C(J + 2I, 2) over GF(5) at n = 3 is span(J); one entry moved off J is no member.
        original = tcc.centralizer._comb_generator

        def perturbed(*args):
            gen = original(*args)
            gen[0, 4] = (gen[0, 4] + 1) % 5
            return gen

        monkeypatch.setattr(tcc.centralizer, "_comb_generator", perturbed)
        with pytest.raises(RuntimeError, match="twisted commutation"):
            centralizer_code(comb_spec(3, 1, 2, 5, 2))

    def test_broken_kernel_row_is_a_fault(self, monkeypatch):
        # C([[1, 2], [0, 1]], 1) over GF(3) is span(I, E12); E21 appended last is no member.
        original = tcc.centralizer._rref_kernel

        def appended(eqs, prime):
            return np.vstack([original(eqs, prime), vec(Matrix([[0, 0], [1, 0]], GF3))])

        monkeypatch.setattr(tcc.centralizer, "_rref_kernel", appended)
        spec = TwistSpec(Matrix([[1, 2], [0, 1]], GF3), 1)
        with pytest.raises(RuntimeError, match="twisted commutation"):
            centralizer_code(spec)
        monkeypatch.undo()
        assert centralizer_code(spec).dim == 2

    def test_basis_vecs_form_rref(self):
        from tcc import rref

        spec = TwistSpec(zeros(2, 2, GF3), 0)
        code = centralizer_code(spec)
        stacked = Matrix(np.vstack([vec(b) for b in basis_matrices(code)]), GF3)
        assert rref(stacked).matrix == stacked == Matrix(code.generator, GF3)

    def test_one_elimination_gives_the_reduced_kernel(self, monkeypatch):
        # Oracle: the kernel rows of T reduced a second time by code_from_rows.
        rng = np.random.default_rng(43)
        shapes = []
        original = tcc.linalg._rref_array

        def recorded(a, p):
            shapes.append(a.shape)
            return original(a, p)

        for p in (2, 3, 5, 7):
            prime = Prime(p)
            for n in (2, 3, 4):
                for a in (0, 1, 2 % p, p - 1):
                    # A comb matrix would take the closed form, so draw until A is none.
                    while True:
                        m = rand_matrix(rng, n, n, prime)
                        x, d = m.array[0, 1], m.array[0, 0]
                        if m != comb_matrix(CombParams(n, x, d - x, prime)):
                            break
                    spec = TwistSpec(m, a)
                    kernel = kernel_basis(twisted_operator(spec))
                    shapes.clear()
                    monkeypatch.setattr(tcc.linalg, "_rref_array", recorded)
                    code = centralizer_code(spec)
                    monkeypatch.undo()
                    assert shapes == [(n * n, n * n)], (p, n, a)
                    if len(kernel):
                        assert code == code_from_rows(Matrix(kernel, prime)), (p, n, a)
                    else:
                        assert code.dim == 0, (p, n, a)


class TestBruteForce:
    def test_worked_example_exact_set(self):
        members = brute_force_centralizer(comb_spec(2, 1, 1, 3, 2))
        j = all_ones(2, GF3)
        expected = {zeros(2, 2, GF3), j, Matrix(2 * j.array, GF3)}
        assert set(members) == expected

    def test_identity_untwisted_is_everything(self):
        members = brute_force_centralizer(TwistSpec(identity(2, GF2), 1))
        assert len(members) == 16

    def test_canonical_enumeration_order(self):
        members = brute_force_centralizer(TwistSpec(identity(2, GF3), 1))
        flat = [tuple(m.array.flatten()) for m in members]
        assert flat == sorted(flat)  # row-major lexicographic, chunking invisible

    def test_invertible_with_zero_twist(self):
        spec = TwistSpec(Matrix([[1, 1], [0, 1]], GF3), 0)
        assert brute_force_centralizer(spec) == [zeros(2, 2, GF3)]

    def test_closed_under_addition_and_scaling(self):
        members = brute_force_centralizer(comb_spec(2, 1, 2, 3, 2))
        member_set = set(members)
        for u in members:
            assert Matrix(2 * u.array % 3, GF3) in member_set
            for v in members:
                assert Matrix((u.array + v.array) % 3, GF3) in member_set

    def test_guard(self):
        spec = TwistSpec(identity(3, GF5), 1)
        with pytest.raises(GuardExceededError, match="1953125"):
            brute_force_centralizer(spec)

    def test_agrees_with_kernel_solver_on_sample(self):
        rng = np.random.default_rng(37)
        for p, n in [(2, 2), (3, 2), (2, 3)]:
            prime = Prime(p)
            for _ in range(5):
                spec = TwistSpec(rand_matrix(rng, n, n, prime), int(rng.integers(p)))
                code = centralizer_code(spec)
                oracle = brute_force_centralizer(spec)
                assert len(oracle) == p**code.dim
                oracle_set = set(oracle)
                for b in basis_matrices(code):
                    assert b in oracle_set


class TestConjugationTransfer:
    def test_identity_transform_is_noop(self):
        spec = comb_spec(2, 1, 1, 3, 2)
        code = centralizer_code(spec)
        assert conjugation_transfer(spec, code, identity(2, GF3)) == code

    def test_worked_diagonal_example(self):
        params = CombParams(2, 1, 1, GF3)
        diag = diagonalize(params)
        a_spec = TwistSpec(comb_matrix(params), 2)
        d_spec = TwistSpec(diag.diagonal, 2)
        code_d = centralizer_code(d_spec)
        assert code_d.dim == 1
        assert np.array_equal(code_d.generator[0], vec(unit_e11(2, GF3)))
        moved = conjugation_transfer(d_spec, code_d, diag.transform, target=a_spec)
        assert moved == centralizer_code(a_spec)

    def test_diagonal_centralizer_is_first_unit_cell(self):
        # D = diag(0, y, ..., y) with y != 0 and a outside {0, 1}.
        for p, y, a in [(3, 1, 2), (5, 2, 3), (7, 4, 5)]:
            prime = Prime(p)
            entries = np.full(3, y, dtype=np.int64)
            entries[0] = 0
            d_spec = TwistSpec(Matrix(np.diag(entries), prime), a)
            code = centralizer_code(d_spec)
            assert code.dim == 1
            assert np.array_equal(code.generator[0], vec(unit_e11(3, prime)))

    def test_wrong_target_detected(self):
        params = CombParams(2, 1, 1, GF3)
        diag = diagonalize(params)
        d_spec = TwistSpec(diag.diagonal, 2)
        wrong = TwistSpec(identity(2, GF3), 2)
        with pytest.raises(ValueError, match="broke membership"):
            conjugation_transfer(d_spec, centralizer_code(d_spec), diag.transform, target=wrong)

    def test_dimension_preserved_on_samples(self):
        rng = np.random.default_rng(41)
        from helpers import rand_invertible

        for _ in range(5):
            d = rand_matrix(rng, 3, 3, GF3)
            d_spec = TwistSpec(d, 2)
            code_d = centralizer_code(d_spec)
            transform = rand_invertible(rng, 3, GF3)
            moved = conjugation_transfer(d_spec, code_d, transform)
            assert moved.dim == code_d.dim


class TestCombCentralizer:
    def test_matches_kronecker_kernel_on_small_grid(self):
        # Every (p, n, x, y, a) with p <= 7 and n <= 5: x = 0, the generic
        # split and the merged tuples, where x*J + y*I has no eigenbasis.
        merged = scalar = 0
        for p in (2, 3, 5, 7):
            prime = Prime(p)
            for n in range(2, 6):
                for x in range(p):
                    for y in range(p):
                        params = CombParams(n, x, y, prime)
                        scalar += x == 0
                        merged += x != 0 and (x * n) % p == 0
                        for a in range(p):
                            spec = TwistSpec(comb_matrix(params), a)
                            assert centralizer_code(spec) == kronecker_code(spec), (p, n, x, y, a)
        assert scalar == 4 * (2 + 3 + 5 + 7)
        # (x, y) pairs with p | n and x != 0: p = 2 at n = 2, 4; p = 3 at n = 3; p = 5 at n = 5.
        assert merged == 2 * (1 * 2) + 2 * 3 + 4 * 5

    @pytest.mark.parametrize("p", [11, 13])
    def test_matches_kronecker_kernel_at_larger_primes(self, p):
        prime = Prime(p)
        for n in range(2, 5):
            for x in range(p):
                for y in range(p):
                    params = CombParams(n, x, y, prime)
                    for a in range(p):
                        spec = TwistSpec(comb_matrix(params), a)
                        assert centralizer_code(spec) == kronecker_code(spec), (p, n, x, y, a)

    @pytest.mark.parametrize("n, p, x, y, a, dim", [(16, 2, 1, 0, 1, 226), (18, 3, 1, 1, 1, 290)])
    def test_matches_kronecker_kernel_on_large_merged_tuples(self, n, p, x, y, a, dim):
        spec = comb_spec(n, x, y, p, a)
        code = centralizer_code(spec)
        assert code.dim == dim
        assert code == kronecker_code(spec)

    def test_structured_path_builds_no_operator(self, monkeypatch):
        def no_operator(spec):
            raise AssertionError("the structured solve must not build T")

        monkeypatch.setattr(tcc.centralizer, "twisted_operator", no_operator)
        code = centralizer_code(comb_spec(32, 1, 1, 7, 3))
        # 1 = 3 * (32 + 1) mod 7: C(D, 3) is spanned by E_i1 for the n - 1 indices i > 1.
        assert code.dim == 31

    def test_no_comb_solve_eliminates(self, monkeypatch):
        def no_operator(spec):
            raise AssertionError("the structured solve must not build T")

        def refuse(a, p):
            raise AssertionError("every comb generator is written in closed form")

        monkeypatch.setattr(tcc.centralizer, "twisted_operator", no_operator)
        monkeypatch.setattr(tcc.linalg, "_rref_array", refuse)
        # Every tuple with p <= 7 and n <= 5, s = 0 or not; beyond 32 the full
        # space, s = 0 with a = 0, a = 1 and p | n, s != 0 and the zero code.
        dims = {
            (n, p, x, y, a): None
            for p in (2, 3, 5, 7)
            for n in range(2, 6)
            for x, y, a in product(range(p), repeat=3)
        }
        # y = 0 (A = x*J), x = 0 (scalar; y = 0 is the zero matrix, y = 1 is I) and p | x n.
        assert sum(y == 0 for _, _, _, y, _ in dims) == sum(x == 0 for _, _, x, _, _ in dims) == 4 * 87
        assert sum(x == y == 0 for _, _, x, y, _ in dims) == sum(x == 0 and y == 1 for _, _, x, y, _ in dims) == 68
        # Merged: (p - 1) x's times p^2 pairs (y, a) where p | n, so p = 2 at n = 2, 4; 3 at 3; 5 at 5.
        assert sum(x != 0 and x * n % p == 0 for n, p, x, _, _ in dims) == 1 * 4 * 2 + 2 * 9 + 4 * 25
        dims.update({(33, 3, 0, 1, 1): 1089, (33, 3, 1, 1, 2): 0, (64, 3, 1, 1, 2): 126, (64, 7, 1, 1, 0): 0})
        dims.update({(33, 7, 1, 0, 0): 1056, (33, 3, 1, 0, 2): 1025, (64, 2, 1, 1, 1): 3970})
        for (n, p, x, y, a), dim in dims.items():
            code = centralizer_code(comb_spec(n, x, y, p, a))
            assert dim in (None, code.dim), (n, p, x, y, a)

    def test_closed_form_kernel_matches_elimination(self):
        # Every s != 0 tuple with p <= 11 and n <= 7, then one tuple per case
        # at n = 33 and 64 over large primes; then the same for s = 0 below.
        def case(n, x, y, a, p):
            s = (1 - a) * y % p
            alpha, beta = (s - a * x * n) % p, (s + x * n) % p
            if alpha and beta:
                return "span(J)" if (x * n + y) % p == 0 else "zero"
            if beta:
                return "alpha = 0"
            if alpha:
                return "beta = 0, a = 0" if a == 0 else "beta = 0, a != 0"
            return "alpha = beta = 0"

        tuples = [
            (n, x, y, a, p)
            for p in (2, 3, 5, 7, 11)
            for n in range(2, 8)
            for x, y, a in product(range(p), repeat=3)
            if (1 - a) * y % p
        ]
        for n in (33, 64):
            for p in (65521, 2**31 - 1):
                half = pow(2, -1, p)
                tuples += [
                    (n, 1, -n % p, 2, p),  # p | x n + y
                    (n, 1, 1, 2, p),  # p does not divide x n + y
                    (n, 1, -2 * n % p, 2, p),  # alpha = 0
                    (n, 1, -n % p, 0, p),  # beta = 0, a = 0
                    (n, 1, n, 2, p),  # beta = 0, a != 0
                    (n, 1, -n * half % p, p - 1, p),  # alpha = beta = 0
                ]
        tally = Counter()
        for n, x, y, a, p in tuples:
            tally[case(n, x, y, a, p), n > 32] += 1
            kernel = _closed_form_kernel(n, x, y, a, p)
            assert np.array_equal(kernel, eliminated_comb_kernel(n, x, y, a, p)), (n, x, y, a, p)
        cases = {"span(J)", "zero", "alpha = 0", "beta = 0, a = 0", "beta = 0, a != 0", "alpha = beta = 0"}
        assert {c for c, _ in tally} == cases
        assert all(tally[c, True] == 4 for c in cases)

        # Every s = 0, x != 0 tuple with p <= 11 and n <= 7, through the whole
        # comb solve; the kernel depends only on (n, a, p), so each oracle runs once.
        oracle = {}
        tuples = 0
        for p in (2, 3, 5, 7, 11):
            for n in range(2, 8):
                for x, y, a in product(range(1, p), range(p), range(p)):
                    if (1 - a) * y % p:
                        continue
                    if (n, a, p) not in oracle:
                        oracle[n, a, p] = eliminated_sum_kernel(n, a, p)
                    code = centralizer_code(comb_spec(n, x, y, p, a))
                    assert np.array_equal(code.generator, oracle[n, a, p]), (n, x, y, a, p)
                    tuples += 1
        # (p - 1) x's times p y's at a = 1 plus p - 1 twists a != 1 at y = 0.
        assert tuples == 6 * sum((p - 1) * (2 * p - 1) for p in (2, 3, 5, 7, 11)) == 2022
        # a in {0, 1, 2} at n = 33 and 64, with p | n (3 | 33, 2 | 64) and p not dividing n.
        divides = Counter()
        for n in (33, 64):
            for p in (2, 3, 65521, 2**31 - 1):
                for a in (0, 1, 2 % p):
                    kernel = _sum_kernel(n, a, p)
                    assert np.array_equal(kernel, eliminated_sum_kernel(n, a, p)), (n, a, p)
                    divides[n % p == 0] += 1
        assert divides == {True: 6, False: 18}

    def test_dimension_closed_form(self):
        # [l1 = a l1] + (n-1)([l1 = a y] + [y = a l1]) + (n-1)^2 [y = a y], l1 = x n + y.
        for n, p, x, y, a in [(6, 11, 1, 1, 1), (6, 11, 2, 0, 0), (5, 7, 1, 2, 6), (9, 13, 3, 0, 4)]:
            lam = (x * n + y) % p
            expected = (
                (lam == a * lam % p)
                + (n - 1) * ((lam == a * y % p) + (y == a * lam % p))
                + (n - 1) ** 2 * (y == a * y % p)
            )
            code = centralizer_code(comb_spec(n, x, y, p, a))
            assert code.dim == expected, (n, p, x, y, a)
        # s = (1 - a) y = 0 and x != 0: n^2 - n for a = 0, else (n - 1)^2 + [a = 1 or p | n],
        # merged tuples (p | x n, no eigenbasis) included.
        for n, p, x, y, a, dim in [
            (4, 5, 1, 0, 0, 12),
            (4, 2, 1, 0, 0, 12),
            (6, 7, 2, 0, 3, 25),
            (6, 7, 5, 1, 1, 26),
            (5, 5, 1, 0, 2, 17),
            (5, 5, 4, 0, 4, 17),
            (33, 3, 1, 1, 1, 1025),
            (33, 3, 2, 0, 2, 1025),
            (33, 65521, 1, 0, 2, 1024),
        ]:
            code = centralizer_code(comb_spec(n, x, y, p, a))
            assert code.dim == dim, (n, p, x, y, a)


class TestCombDetection:
    """centralizer_code reads x*J + y*I from A itself; every other A takes the Kronecker kernel."""

    @pytest.fixture
    def operators(self, monkeypatch):
        built = []
        original = tcc.centralizer.twisted_operator

        def recorded(spec):
            built.append(spec)
            return original(spec)

        monkeypatch.setattr(tcc.centralizer, "twisted_operator", recorded)
        return built

    def test_comb_matrices_built_directly_take_the_closed_form(self, operators, monkeypatch):
        def refuse(a, p):
            raise AssertionError("a comb matrix is solved in closed form")

        monkeypatch.setattr(tcc.linalg, "_rref_array", refuse)
        # The zero matrix, I and J (x = 1, y = 0), none of them built by comb_matrix.
        for n, p, a in [(2, 2, 1), (5, 5, 0), (5, 7, 3), (33, 3, 2), (33, 7, 1)]:
            prime = Prime(p)
            zero, ident = zeros(n, n, prime), identity(n, prime)
            assert centralizer_code(TwistSpec(zero, a)).dim == n * n
            assert centralizer_code(TwistSpec(ident, a)).dim == (n * n if a == 1 else 0)
            ones = centralizer_code(TwistSpec(Matrix(np.ones((n, n)), prime), a))
            assert ones.dim == (n * n - n if a == 0 else (n - 1) ** 2 + (a == 1 or n % p == 0)), (n, p, a)
        assert operators == []

    def test_one_changed_entry_takes_the_kronecker_route(self, operators):
        # Each comb matrix with one entry moved, at the corners that the
        # detection reads (A[0, n - 1] and A[0, 0]) and at their mirrors.
        cases = 0
        for n, p in [(2, 2), (2, 3), (2, 5), (2, 7), (3, 2), (3, 3), (4, 2)]:
            prime = Prime(p)
            for x, y in product(range(p), repeat=2):
                comb = comb_matrix(CombParams(n, x, y, prime)).array
                for k, (i, j) in enumerate([(0, n - 1), (n - 1, 0), (0, 0), (n - 1, n - 1)]):
                    data = comb.copy()
                    data[i, j] = (data[i, j] + 1 + (x + k) % (p - 1)) % p
                    spec = TwistSpec(Matrix(data, prime), x + 2 * y + k)
                    operators.clear()
                    code = centralizer_code(spec)
                    assert operators == [spec], (n, p, x, y, i, j)
                    assert _matches_brute_force(spec, code), (n, p, x, y, i, j)
                    cases += 1
        assert cases == 4 * (4 + 9 + 25 + 49 + 4 + 9 + 4)

    def test_order_one_takes_the_kronecker_route(self, operators):
        # C([d], a) is everything when d (1 - a) = 0, else zero.
        for p in (2, 3, 5, 7):
            prime = Prime(p)
            for d, a in product(range(p), repeat=2):
                spec = TwistSpec(Matrix([[d]], prime), a)
                operators.clear()
                code = centralizer_code(spec)
                assert operators == [spec], (p, d, a)
                assert code.dim == (d * (1 - a) % p == 0), (p, d, a)
                assert _matches_brute_force(spec, code), (p, d, a)


def _matches_brute_force(spec: TwistSpec, code: LinearCode) -> bool:
    """The code spans exactly the members that brute force enumerates."""
    oracle = set(brute_force_centralizer(spec))
    return len(oracle) == spec.prime.p**code.dim and all(b in oracle for b in basis_matrices(code))
