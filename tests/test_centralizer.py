import tracemalloc
from collections import Counter
from itertools import product

import numpy as np
import pytest

import tcc.centralizer
import tcc.linalg
from tcc import (
    CombParams,
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
from tcc.centralizer import (
    _CASES,
    _comb_case,
    _comb_form,
    _comb_residual,
    _comb_rows,
    _sum_kernel,
    comb_codes,
    is_member,
)
from tcc.linalg import MAX_ORDER, FieldMismatchError, _hessenberg, matmul_mod
from helpers import (
    GF2,
    GF3,
    GF5,
    MATRIX_KINDS,
    SMALL_PRIMES,
    all_ones,
    basis_matrices,
    batch_codes,
    brute_force_centralizer,
    code_from_rows,
    comb_basis,
    conjugation_transfer,
    diagonal_dim,
    diagonalize,
    eliminated_comb_kernel,
    eliminated_sum_kernel,
    generator_read_twice,
    identity,
    kronecker_code,
    matmul,
    product_verdicts,
    rand_matrix,
    recurrence_calls,
    similar_to_diagonal,
    spec_basis,
    structured_matrices,
    unit_e11,
    vec,
    zeros,
)


def comb_spec(n, x, y, p, a):
    prime = Prime(p)
    matrix = comb_matrix(CombParams(n, x, y, prime))
    return TwistSpec(matrix, a)


def case_key(n, x, y, a, p):
    """_comb_case's case name for one residue triple, plus a for "sums", whose rows read it."""
    name = _CASES[_comb_case(n, x, y, a, p)]
    return (name, a) if name == "sums" else (name,)


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

    def test_kronecker_route_holds_at_most_three_copies_of_t(self, monkeypatch):
        # T of a dense A at n = 24 is 576 x 576 int64, 2.65 MB.  T itself, the
        # buffer rref eliminates in and one update's temporary: no reduced copies.
        # A random A is one Hessenberg block, so the crossover is moved to keep it on this route.
        monkeypatch.setattr(tcc.centralizer, "_CROSSOVER", MAX_ORDER + 1)
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
        # diag(2, 1, ..., 1) is no comb matrix, and its eigenvalue 1 of multiplicity 32
        # makes b = 32 Hessenberg blocks, so 2b > n leaves only the Kronecker kernel.
        spec = TwistSpec(Matrix(np.diag([2] + [1] * 32), GF3), 1)
        with pytest.raises(GuardExceededError, match="1089x1089"):
            centralizer_code(spec)

    def test_basis_rejects_non_member(self):
        # E11 is not in C(J + I, 2) over GF(3), nor in C of a non-comb matrix.
        e11 = code_of(unit_e11(2, GF3)).generator
        with pytest.raises(RuntimeError, match="twisted commutation"):
            comb_basis(2, 3, [(1, 1, 2)], e11)
        general = TwistSpec(Matrix([[1, 2], [0, 1]], GF3), 2)
        with pytest.raises(RuntimeError, match="twisted commutation"):
            spec_basis(general, e11)

    def test_basis_rejects_one_non_member_among_members(self, monkeypatch):
        # Two generator rows per checked stack.  C(E22, 0) = span(E11, E12),
        # and E22 is no member: its RREF row comes last, alone in the second stack.
        monkeypatch.setattr(tcc.centralizer, "_CHECK_CELLS", 2 * 2 * 2)
        spec = TwistSpec(Matrix([[0, 0], [0, 1]], GF3), 0)
        e12, e22 = Matrix([[0, 1], [0, 0]], GF3), Matrix([[0, 0], [0, 1]], GF3)
        assert spec_basis(spec, code_of(unit_e11(2, GF3), e12).generator) == centralizer_code(spec)
        code = code_of(unit_e11(2, GF3), e12, e22)
        members = [unit_e11(2, GF3), e12]
        assert [vec(m).tolist() for m in members] == code.generator[:2].tolist()
        with pytest.raises(RuntimeError, match="twisted commutation"):
            spec_basis(spec, code.generator)

    def test_broken_closed_form_row_is_a_fault(self, monkeypatch):
        # C(J + 2I, 2) over GF(5) at n = 3 is span(J); one entry moved off J is no member.
        original = tcc.centralizer._comb_rows

        def perturbed(*args):
            gen = original(*args)
            gen[0, 4] = (gen[0, 4] + 1) % 5
            return gen

        monkeypatch.setattr(tcc.centralizer, "_comb_rows", perturbed)
        with pytest.raises(RuntimeError, match="twisted commutation"):
            centralizer_code(comb_spec(3, 1, 2, 5, 2))

    def test_broken_kernel_row_is_a_fault(self, monkeypatch):
        # diag(1, 1, 2) over GF(3) has 2 Hessenberg blocks, so 2b > n = 3 takes the
        # Kronecker kernel.  C(A, 1) is the 5 block-diagonal units; E31 appended last is no member.
        original = tcc.centralizer._rref_kernel

        def appended(eqs, prime):
            return np.vstack([original(eqs, prime), vec(Matrix([[0, 0, 0], [0, 0, 0], [1, 0, 0]], GF3))])

        monkeypatch.setattr(tcc.centralizer, "_rref_kernel", appended)
        spec = TwistSpec(Matrix(np.diag([1, 1, 2]), GF3), 1)
        with pytest.raises(RuntimeError, match="twisted commutation"):
            centralizer_code(spec)
        monkeypatch.undo()
        assert centralizer_code(spec).dim == 5

    def test_broken_recurrence_row_is_a_fault(self, monkeypatch):
        # C([[1, 2], [0, 1]], 1) over GF(3) is span(I, E12), solved by the recurrence
        # (one Hessenberg block); E21 appended last is no member.
        original = tcc.centralizer._recurrence_generator

        def appended(*args):
            return np.vstack([original(*args), vec(Matrix([[0, 0], [1, 0]], GF3))])

        monkeypatch.setattr(tcc.centralizer, "_recurrence_generator", appended)
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
        # Most of these inputs have 2b <= n, so the crossover is moved to keep them on the Kronecker route.
        # With a = 0 the one elimination is of A itself, whose kernel gives C(A, 0).
        monkeypatch.setattr(tcc.centralizer, "_CROSSOVER", MAX_ORDER + 1)
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
                    with monkeypatch.context() as patch:
                        patch.setattr(tcc.linalg, "_rref_array", recorded)
                        code = centralizer_code(spec)
                    assert shapes == [(n, n) if a == 0 else (n * n, n * n)], (p, n, a)
                    if len(kernel):
                        assert code == code_from_rows(Matrix(kernel, prime)), (p, n, a)
                    else:
                        assert code.dim == 0, (p, n, a)


class TestBatch:
    """comb_codes: one generator and one code per group, checked once per coefficient direction."""

    def test_batch_matches_single_solves_and_kronecker_kernel(self):
        # Every triple at each small (n, p) in one call, and one triple of each case at the largest prime.
        names = set()
        for p in (2, 3, 5, 7, BIG):
            for n in (2, 3, 4):
                triples = list(product(range(p), repeat=3)) if p < BIG else list(case_triples(n, p).values())
                codes = batch_codes(n, p, triples)
                specs = [comb_spec(n, x, y, p, a) for x, y, a in triples]
                assert codes == [centralizer_code(spec) for spec in specs], (n, p)
                assert codes == [kronecker_code(spec) for spec in specs], (n, p)
                assert any(code.dim == 0 for code in codes)
                if p == BIG:
                    names |= {case_key(n, x, y, a, p)[0] for x, y, a in triples}
        assert names == CASE_NAMES

    def test_array_classifier_matches_the_scalar_one(self):
        # One classifier serves centralizer_code's ints and comb_codes's arrays, at p = 2^31 - 1 too.
        for p in (2, 3, 5, 7, BIG):
            for n in (2, 3, 4, 64):
                triples = list(product(range(p), repeat=3)) if p < BIG else list(case_triples(n, p).values())
                triples += [(p - 1, p - 1, p - 1), (p - 1, 1, p - 2)]
                x, y, a = np.array(triples, dtype=np.int64).T
                cases = _comb_case(n, x, y, a, p)
                assert cases.tolist() == [_comb_case(n, *triple, p) for triple in triples], (n, p)

    def test_one_triple_that_misses_the_shared_rows_is_a_fault(self, monkeypatch):
        # J spans C(J + 2I, a) over GF(5) at n = 3 for a = 2, 3, 4 (5 | 3 + 2); it is no
        # member of C(J + I, 2), since 5 does not divide 3 + 1.  Checked alone, each
        # of the three passes; in one group the odd triple fails it, wherever it sits.
        good = [(1, 2, a) for a in (2, 3, 4)]
        odd = (1, 1, 2)
        ones = np.ones((1, 9), dtype=np.int64)
        for triple in good:
            assert comb_basis(3, 5, [triple], ones).dim == 1
        for cells in (tcc.centralizer._CHECK_CELLS, 9):
            monkeypatch.setattr(tcc.centralizer, "_CHECK_CELLS", cells)
            assert comb_basis(3, 5, good, ones).dim == 1
            for at in range(4):
                with pytest.raises(RuntimeError, match="twisted commutation"):
                    comb_basis(3, 5, good[:at] + [odd] + good[at:], ones)

    def test_misfiled_triple_fails_its_group_check(self, monkeypatch):
        # Filed under span(J) with the three triples whose case it is, C(J + I, 2)
        # over GF(5) shares their row, and the batch check refuses the group.
        original = tcc.centralizer._comb_case

        def misfiled(n, x, y, a, p):
            odd = (n == 3) & (x == 1) & (y == 1) & (a == 2) & (p == 5)
            return np.where(odd, _CASES.index("J"), original(n, x, y, a, p))

        triples = [(1, 2, a) for a in (2, 3, 4)] + [(1, 1, 2)]
        assert [code.dim for code in batch_codes(3, 5, triples)] == [1, 1, 1, 0]
        monkeypatch.setattr(tcc.centralizer, "_comb_case", misfiled)
        with pytest.raises(RuntimeError, match="twisted commutation"):
            batch_codes(3, 5, triples)

    @pytest.mark.parametrize("n, p", [(3, 5), (2, 7), (4, 3)])
    def test_a_group_shares_one_generator_and_checks_each_direction_once(self, monkeypatch, n, p):
        # All p^3 triples in one batch: one row writer call per generator, and one check for each
        # line {lambda c : lambda != 0} through a coefficient triple c = (s, x, -a x) of the group.
        # The oracle groups triples by their Kronecker-kernel generator and spans each line
        # by brute force, with no inverse.
        written, checked = [], []
        rows, basis = tcc.centralizer._comb_rows, tcc.centralizer._basis

        def counted_rows(n, p, *case):
            written.append(case)
            return rows(n, p, *case)

        def counted_basis(n, prime, gen, residual, checks):
            checked.append(checks)
            return basis(n, prime, gen, residual, checks)

        triples = list(product(range(p), repeat=3))
        lines, coefs = {}, set()
        for x, y, a in triples:
            gen = kronecker_code(comb_spec(n, x, y, p, a)).generator
            c = ((1 - a) * y % p, x, -a * x % p)
            lines.setdefault((gen.shape, gen.tobytes()), set()).add(
                frozenset(tuple(lam * v % p for v in c) for lam in range(1, p))
            )
            coefs.add((gen.shape, gen.tobytes(), c))
        monkeypatch.setattr(tcc.centralizer, "_comb_rows", counted_rows)
        monkeypatch.setattr(tcc.centralizer, "_basis", counted_basis)
        codes = batch_codes(n, p, triples)
        assert len(written) == len(set(written)) == len(checked) == len({id(code) for code in codes}) == len(lines)
        assert sum(checked) == sum(len(group) for group in lines.values())
        if p > 2:
            assert sum(checked) < len(coefs)
        for (x, y, a), code in zip(triples, codes):
            assert code == kronecker_code(comb_spec(n, x, y, p, a))

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_sums_rows_are_shared_by_every_twist_outside_0_and_1_unless_p_divides_n(self, p):
        # s = 0 and x != 0 at y = 0: the rows read a only when a = 1 or p | n, through 1/a.
        for n in range(2, 7):
            a = np.arange(2, p)
            gens = [kronecker_code(comb_spec(n, 1, 0, p, twist)).generator.tobytes() for twist in a.tolist()]
            codes, group = comb_codes(n, Prime(p), np.ones_like(a), np.zeros_like(a), a)
            assert [codes[g].generator.tobytes() for g in group] == gens
            if n % p:
                assert len(set(gens)) == len(codes) == 1
            else:
                assert len(set(gens)) == len(codes) == len(a)

    @pytest.mark.parametrize("cells", [16, 64, 1 << 15])
    def test_group_products_stay_within_the_chunk_bound(self, monkeypatch, cells):
        # Every residual of a check covers at most _CHECK_CELLS entries, across coefficient
        # triples and rows.  A comb residual is its check's largest temporary and takes no
        # product; each product of a non-comb check is as large as its residual.
        residuals, products = [], []
        comb, spec_residual, original = (
            tcc.centralizer._comb_residual, tcc.centralizer._product_residual, tcc.centralizer.matmul_mod
        )

        def recorded(residual):
            def call(*args):
                out = residual(*args)
                residuals.append(out.size)
                return out

            return call

        def multiplied(a, b, p):
            out = original(a, b, p)
            products.append(out.size)
            return out

        general = TwistSpec(Matrix(np.diag([1, 1, 2, 3]), GF5), 1)
        gen = centralizer_code(general).generator
        monkeypatch.setattr(tcc.centralizer, "_CHECK_CELLS", cells)
        monkeypatch.setattr(tcc.centralizer, "_comb_residual", recorded(comb))
        monkeypatch.setattr(tcc.centralizer, "_product_residual", recorded(spec_residual))
        monkeypatch.setattr(tcc.centralizer, "matmul_mod", multiplied)
        triples = list(product(range(5), repeat=3))
        codes = batch_codes(4, 5, triples)
        assert residuals and max(residuals) <= cells and products == []
        residuals.clear()
        # C(diag(1, 1, 2, 3), 1)'s six rows, checked by products in row chunks.
        assert spec_basis(general, gen).dim == 6
        assert products and max(products) <= cells and len(products) == 2 * len(residuals)
        assert sum(residuals) == 6 * 16
        monkeypatch.undo()
        assert codes == [centralizer_code(comb_spec(4, x, y, 5, a)) for x, y, a in triples]


BIG = 2**31 - 1
CASE_NAMES = {"full", "sums", "J", "zero", "g u^T", "u h^T", "u h^T, sum h = 0", "g + h"}


def case_triples(n, p):
    """One residue triple (x, y, a) per closed-form case reachable at order n over GF(p), keyed by case_key.

    A case is fixed by which of s = (1 - a) y, alpha = s - a x n, beta = s + x n
    and x n + y vanish, so y runs over the values that zero one of them.
    """
    found = {}
    for x, a in product((0, 1, 2, p - 1), repeat=2):
        x, a = x % p, a % p
        ys = {0, 1, -x * n % p}
        if (1 - a) % p:
            inv = pow(1 - a, -1, p)
            ys |= {a * x * n * inv % p, -x * n * inv % p}
        for y in sorted(ys):
            found.setdefault(case_key(n, x, y, a, p), (x, y, a))
    return found


def case_specs(n, p):
    """case_triples's comb specs."""
    return {case: comb_spec(n, x, y, p, a) for case, (x, y, a) in case_triples(n, p).items()}


def case_groups(n, p):
    """Every residue triple of order n over GF(p) by its case_key, or case_triples's one each for p > 7."""
    if p > 7:
        return {case: [triple] for case, triple in case_triples(n, p).items()}
    groups = {}
    for x, y, a in product(range(p), repeat=3):
        groups.setdefault(case_key(n, x, y, a, p), []).append((x, y, a))
    return groups


def sums_verdicts(spec, gen):
    """For each row of ``gen``, whether the comb residual of A's comb form vanishes."""
    n, p, a = spec.n, spec.prime.p, spec.twist
    x, y = _comb_form(spec.matrix)
    coefs = np.array([[(1 - a) * y % p, x, -a * x % p]], dtype=np.int64)
    return ~_comb_residual(coefs, gen.reshape(-1, n, n), p)[0].reshape(len(gen), -1).any(axis=1)


def row_pool(rng, n, p, cases, few):
    """The first ``few`` rows of each case's generator, each again with one entry moved, and four random rows.

    At n = 64 the full space's rows are read off the identity, and the 3970 rows of
    "sums" are left to the CLI's order-64 build, which checks them all.
    """
    blocks = []
    for case in cases:
        if n == 64 and case[0] in ("full", "sums"):
            blocks.append(np.eye(few if case == ("full",) else 0, n * n, dtype=np.int64))
        else:
            blocks.append(_comb_rows(n, p, *case)[:few])
    members = np.concatenate(blocks)
    moved, rows = members.copy(), np.arange(len(members))
    at = rng.integers(n * n, size=len(members))
    moved[rows, at] = (moved[rows, at] + rng.integers(1, p, size=len(members))) % p
    return np.concatenate([members, moved, rng.integers(0, p, size=(4, n * n))])


class TestSumsResidual:
    """A comb spec's residual from B's row and column sums against the two products it replaces."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, BIG])
    def test_sums_residual_matches_the_products(self, p):
        rng = np.random.default_rng(p % 1009)
        names, verdicts = set(), set()
        for n in (2, 3, 4, 5, 6, 32, 64):
            specs = case_specs(n, p)
            names |= {case[0] for case in specs}
            pool = row_pool(rng, n, p, specs, None if n <= 6 else 3)
            for case, spec in specs.items():
                expected = product_verdicts(spec, pool)
                assert np.array_equal(sums_verdicts(spec, pool), expected), (n, case)
                verdicts |= set(expected.tolist())
        assert verdicts == {True, False}
        assert names == CASE_NAMES if p >= 5 else names < CASE_NAMES

    @pytest.mark.parametrize("cells", [9, 64, 1 << 15])
    def test_a_moved_entry_is_refused_at_every_chunk_size(self, monkeypatch, cells):
        # One entry of one row moved keeps only the full space's rows in C(A, a); every other
        # group refuses it, however its specs and rows are chunked.
        monkeypatch.setattr(tcc.centralizer, "_CHECK_CELLS", cells)
        rng = np.random.default_rng(cells)
        refused = 0
        for p in (2, 3, 5, 7, BIG):
            for n in (2, 3, 4):
                for case, group in case_groups(n, p).items():
                    gen = _comb_rows(n, p, *case)
                    assert comb_basis(n, p, group, gen).dim == len(gen)
                    if not len(gen):
                        continue
                    moved = gen.copy()
                    i, j = rng.integers(len(gen)), rng.integers(n * n)
                    moved[i, j] = (moved[i, j] + rng.integers(1, p)) % p
                    if all(product_verdicts(comb_spec(n, x, y, p, a), moved).all() for x, y, a in group):
                        assert case == ("full",) and comb_basis(n, p, group, moved).dim == len(gen)
                        continue
                    with pytest.raises(RuntimeError, match="twisted commutation"):
                        comb_basis(n, p, group, moved)
                    refused += 1
        assert refused > 100

    def test_largest_entries_at_the_largest_order_and_prime(self):
        # Every entry p - 1 at p = 2^31 - 1 and n = 64, so each sum is 64 (p - 1) before it is
        # reduced, against specs with x and a up to p - 1.  -J is a member exactly where J is:
        # for a = 1, and where y = -x n, as for y = n and 2n here.
        p, n = BIG, 64
        edge = np.full((1, n * n), p - 1, dtype=np.int64)
        moved = edge.copy()
        moved[0, 1] = p - 2
        pool = np.concatenate([edge, moved])
        specs = list(case_specs(n, p).values())
        specs += [comb_spec(n, x, y, p, a) for x, y, a in product((p - 2, p - 1), (p - 1, n, 2 * n), (1, p - 2, p - 1))]
        verdicts = set()
        for spec in specs:
            expected = product_verdicts(spec, pool)
            assert np.array_equal(sums_verdicts(spec, pool), expected)
            verdicts.add(tuple(expected.tolist()))
        assert verdicts == {(True, True), (True, False), (False, False)}

    def test_comb_checks_take_no_product(self, monkeypatch):
        batches = [(n, p, list(product(range(p), repeat=3))) for n, p in [(2, 3), (3, 7), (5, 5)]]
        batches.append((32, BIG, list(case_triples(32, BIG).values())))
        codes = [batch_codes(n, p, triples) for n, p, triples in batches]

        def refuse(*args):
            raise AssertionError("a comb check takes no product")

        monkeypatch.setattr(tcc.centralizer, "matmul_mod", refuse)
        assert [batch_codes(n, p, triples) for n, p, triples in batches] == codes

    @pytest.mark.parametrize("p", [2, 3, 7, BIG])
    def test_s_zero_residual_is_decided_by_its_first_row_and_column(self, p):
        # s = 0: the 2n - 1 returned entries vanish exactly where the whole residual
        # x (u r^T - a c u^T) does, from the two products, on members and non-members alike.
        rng = np.random.default_rng(p % 1013)
        verdicts = set()
        for n in (2, 3, 5, 8):
            twists = list(range(p)) if p < BIG else [0, 1, 2, p - 1, 12345]
            xs = [1, p - 1] + ([2] if p > 2 else [])
            specs = [comb_spec(n, x, 0, p, a) for x in xs for a in twists]
            specs += [comb_spec(n, x, 1, p, 1) for x in xs]
            pool = row_pool(rng, n, p, [case_key(n, 1, 0, a, p) for a in twists], None)
            # Rows with zero row and column sums but for one entry, then one random per line.
            edits = _sum_kernel(n, 0, p)[:3].copy()
            edits[:, 0] = (edits[:, 0] + 1) % p
            pool = np.concatenate([pool, edits, rng.integers(0, p, size=(20, n * n))])
            for spec in specs:
                x, y = _comb_form(spec.matrix)
                coefs = np.array([[0, x, -spec.twist * x % p]], dtype=np.int64)
                residual = _comb_residual(coefs, pool.reshape(-1, n, n), p)
                assert residual.shape == (1, len(pool), 2 * n - 1)
                expected = product_verdicts(spec, pool)
                assert np.array_equal(~residual[0].any(axis=1), expected), (n, x, spec.twist)
                verdicts |= set(expected.tolist())
        assert verdicts == {True, False}

    @pytest.mark.parametrize("p", [2, 3, 7, BIG])
    def test_every_nonzero_multiple_of_a_coefficient_row_gives_its_verdict(self, p):
        # The residual is linear in (s, x, -a x), so lambda c vanishes exactly where c does.
        rng = np.random.default_rng(p % 1019)
        verdicts = set()
        for n in (2, 3, 4):
            triples = list(case_triples(n, p).values())
            pool = row_pool(rng, n, p, case_triples(n, p), None).reshape(-1, n, n)
            lams = range(1, p) if p < BIG else [1, 2, p - 1, int(rng.integers(3, p - 1))]
            for x, y, a in triples:
                c = np.array([(1 - a) * y % p, x, -a * x % p], dtype=np.int64)
                multiples = np.array([c * lam % p for lam in lams])
                residual = _comb_residual(multiples, pool, p).reshape(len(multiples), len(pool), -1)
                passed = ~residual.any(axis=2)
                assert (passed == passed[0]).all(), (n, x, y, a)
                verdicts |= set(passed[0].tolist())
        assert verdicts == {True, False}


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
            gen = _comb_rows(n, p, *case_key(n, x, y, a, p))
            assert np.array_equal(gen, eliminated_comb_kernel(n, x, y, a, p)), (n, x, y, a, p)
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


class TestRecurrence:
    """The Hessenberg recurrence against the Kronecker kernel, with the route patched so every case with a != 0 takes it."""

    @pytest.fixture
    def forced(self, monkeypatch):
        return recurrence_calls(monkeypatch, force=True)

    def test_matches_kronecker_kernel_on_small_grid(self, forced, monkeypatch):
        # The recurrence's rows are reduced on the first read of the generator, and only then.
        rng = np.random.default_rng(47)
        kinds, blocks = Counter(), Counter()
        for p in SMALL_PRIMES:
            prime = Prime(p)
            for n in range(1, 7):
                # 2 = 0 at p = 2: C(A, 0) is read off ker A before any route by blocks.
                for a in sorted({1, 2 % p, p - 1}):
                    for kind, m in structured_matrices(rng, n, prime):
                        spec = TwistSpec(m, a)
                        forced.clear()
                        code = centralizer_code(spec)
                        generator, shapes = generator_read_twice(monkeypatch, code)
                        assert np.array_equal(generator, kronecker_code(spec).generator), (p, n, a, kind)
                        assert shapes == ([(code.dim, n * n)] if a and code.dim else []), (p, n, a, kind)
                        assert forced == ([spec] if a else []), (p, n, a, kind)
                        kinds[kind] += 1
                        if a:
                            blocks[hessenberg_blocks(spec) > 1] += 1
        assert kinds == {kind: 6 * (2 + 2 + 3 + 3) for kind in MATRIX_KINDS}
        # Many cases have zero subdiagonals, each a block of n fresh unknowns.
        assert blocks[True] > blocks[False] // 2

    @pytest.mark.parametrize("n, p, a", [(12, 5, 1), (16, 7, 3), (24, 7, 1), (32, 7, 1)])
    def test_similar_to_diagonal_matches_kronecker_kernel(self, forced, n, p, a):
        prime = Prime(p)
        rng = np.random.default_rng(n)
        diag = rng.integers(0, p, size=n)
        spec = TwistSpec(similar_to_diagonal(rng, diag, prime), a)
        code = centralizer_code(spec)
        assert forced == [spec]
        assert code.dim == diagonal_dim(diag, a, p)
        assert code == kronecker_code(spec)

    def test_eliminates_its_system_and_then_the_generator(self, monkeypatch):
        # Two eliminations: the (n b)-square system in the solve, then the k vec(B)
        # rows when the generator is first read; never T.
        shapes = []
        original = tcc.linalg._rref_array

        def recorded(a, p):
            shapes.append(a.shape)
            return original(a, p)

        def no_operator(spec):
            raise AssertionError("the recurrence must not build T")

        # diag(1, 1, 1, 2, 3, 4) has b = 3 blocks: C(A, 1) is 3^2 + 3 = 12-dimensional.
        diag = [1, 1, 1, 2, 3, 4]
        spec = TwistSpec(similar_to_diagonal(np.random.default_rng(3), diag, GF5), 1)
        monkeypatch.setattr(tcc.centralizer, "twisted_operator", no_operator)
        monkeypatch.setattr(tcc.linalg, "_rref_array", recorded)
        code = centralizer_code(spec)
        assert hessenberg_blocks(spec) == 3
        assert shapes == [(18, 18)]
        assert code.dim == diagonal_dim(diag, 1, 5) == 12
        assert code.generator.shape == (12, 36)
        assert shapes == [(18, 18), (12, 36)]

    def test_a_dependent_member_row_fails_the_generator_read(self, monkeypatch):
        # A repeated member passes every membership check, so the solve returns; the rank
        # found when the generator is first read is the fault, raised as RuntimeError.
        original = tcc.centralizer._recurrence_generator

        def repeated(*args):
            gen = original(*args)
            return np.vstack([gen, gen[-1:]])

        monkeypatch.setattr(tcc.centralizer, "_recurrence_generator", repeated)
        spec = TwistSpec(similar_to_diagonal(np.random.default_rng(3), [1, 1, 1, 2, 3, 4], GF5), 1)
        code = centralizer_code(spec)
        assert code.dim == 13
        with pytest.raises(RuntimeError, match=r"^13 basis rows have rank 12; the solve is broken$"):
            code.generator
        monkeypatch.undo()
        assert centralizer_code(spec).generator.shape == (12, 36)

    def test_other_routes_hand_over_their_rref(self, monkeypatch):
        # The comb closed form, ker A for a = 0 and the Kronecker kernel give RREF rows,
        # which no later read reduces again.
        specs = [
            comb_spec(4, 1, 1, 5, 3),
            comb_spec(3, 1, 1, 3, 1),
            TwistSpec(similar_to_diagonal(np.random.default_rng(5), [0, 0, 1, 2, 3], GF5), 0),
            TwistSpec(Matrix(np.diag([1, 1, 2]), GF3), 1),
        ]
        codes = [centralizer_code(spec) for spec in specs]
        oracles = [kronecker_code(spec).generator for spec in specs]

        def refuse(a, p):
            raise AssertionError("an RREF generator is never reduced again")

        monkeypatch.setattr(tcc.linalg, "_rref_array", refuse)
        for spec, code, oracle in zip(specs, codes, oracles):
            assert code.generator is code.basis, spec
            assert code.dim and np.array_equal(code.generator, oracle), spec

    def test_order_64_beyond_the_guard_refused_before_elimination(self, monkeypatch):
        def refuse(a, p):
            raise AssertionError("no elimination may start past the guard")

        monkeypatch.setattr(tcc.linalg, "_rref_array", refuse)
        monkeypatch.setattr(tcc.linalg, "inverse", refuse)
        # 4 eigenvalues of multiplicity 16: b = 16, 2b <= 64, and up to 1024 rows of 4096 cells.
        spec = TwistSpec(Matrix(np.diag(np.arange(64) // 16), GF5), 1)
        with pytest.raises(GuardExceededError, match="order 64 with 16 blocks may reduce a 1024x4096 generator"):
            centralizer_code(spec)


class TestCombDetection:
    """centralizer_code reads x*J + y*I from A itself; every other A takes the recurrence or the Kronecker kernel."""

    @pytest.fixture
    def operators(self, monkeypatch):
        built = []
        original = tcc.centralizer.twisted_operator

        def recorded(spec):
            built.append(spec)
            return original(spec)

        monkeypatch.setattr(tcc.centralizer, "twisted_operator", recorded)
        return built

    @pytest.fixture
    def recurrences(self, monkeypatch):
        return recurrence_calls(monkeypatch)

    @pytest.fixture
    def kernels(self, monkeypatch):
        shapes = []
        original = tcc.centralizer._rref_kernel

        def recorded(eqs, prime):
            shapes.append(eqs.shape)
            return original(eqs, prime)

        monkeypatch.setattr(tcc.centralizer, "_rref_kernel", recorded)
        return shapes

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

    def test_one_changed_entry_takes_the_route_its_blocks_pick(self, operators, recurrences, kernels):
        # Each comb matrix with one entry moved, at the corners that the
        # detection reads (A[0, n - 1] and A[0, 0]) and at their mirrors.
        # With a = 0 it takes ker A; else the recurrence when its b Hessenberg
        # blocks have 2b <= n, else T.
        cases = 0
        routes = Counter()
        for n, p in [(2, 2), (2, 3), (2, 5), (2, 7), (3, 2), (3, 3), (4, 2)]:
            prime = Prime(p)
            for x, y in product(range(p), repeat=2):
                comb = comb_matrix(CombParams(n, x, y, prime)).array
                for k, (i, j) in enumerate([(0, n - 1), (n - 1, 0), (0, 0), (n - 1, n - 1)]):
                    data = comb.copy()
                    data[i, j] = (data[i, j] + 1 + (x + k) % (p - 1)) % p
                    spec = TwistSpec(Matrix(data, prime), x + 2 * y + k)
                    operators.clear()
                    recurrences.clear()
                    kernels.clear()
                    code = centralizer_code(spec)
                    if spec.twist == 0:
                        route, want = "ker A", ([], [], [(n, n)])
                    elif 2 * hessenberg_blocks(spec) <= n:
                        route, want = "recurrence", ([spec], [], [])
                    else:
                        route, want = "T", ([], [spec], [(n * n, n * n)])
                    routes[route] += 1
                    assert (recurrences, operators, kernels) == want, (n, p, x, y, i, j)
                    assert _matches_brute_force(spec, code), (n, p, x, y, i, j)
                    cases += 1
        assert cases == 4 * (4 + 9 + 25 + 49 + 4 + 9 + 4)
        assert set(routes) == {"ker A", "recurrence", "T"}

    def test_order_one_takes_the_kronecker_route(self, operators, kernels):
        # C([d], a) is everything when d (1 - a) = 0, else zero.  For a != 0 it is
        # the kernel of the 1 x 1 T; for a = 0 the kernel of A itself, with no T.
        for p in (2, 3, 5, 7):
            prime = Prime(p)
            for d, a in product(range(p), repeat=2):
                spec = TwistSpec(Matrix([[d]], prime), a)
                operators.clear()
                kernels.clear()
                code = centralizer_code(spec)
                assert (operators, kernels) == ([spec] if a else [], [(1, 1)]), (p, d, a)
                assert code.dim == (d * (1 - a) % p == 0), (p, d, a)
                assert _matches_brute_force(spec, code), (p, d, a)


def hessenberg_blocks(spec: TwistSpec) -> int:
    """b: the blocks of A's Hessenberg form, which picks the route of a non-comb A when a != 0."""
    h = _hessenberg(spec.matrix.array, spec.prime.p)[0]
    return spec.n - np.count_nonzero(np.diagonal(h, -1))


def _matches_brute_force(spec: TwistSpec, code: LinearCode) -> bool:
    """The code spans exactly the members that brute force enumerates."""
    oracle = set(brute_force_centralizer(spec))
    return len(oracle) == spec.prime.p**code.dim and all(b in oracle for b in basis_matrices(code))
