"""Shared test utilities: seeded random algebra objects and property sweeps.

The check_* functions run the randomized property suites; they live here
so both the per-module tests and the acceptance gate can invoke them.
identity, zeros, all_ones and unit_e11 build the named matrices I, 0, J
and E11, matmul multiplies two matrices by matmul_mod, object_matmul
multiplies two arrays in Python ints, kept as the oracle for matmul_mod's
float64 and int64 paths, code_from_rows
reduces any spanning rows to a code's RREF generator, and is_codeword
tests membership through that generator.  A word is an int64 row of
residues and a generator a (k, N) stack of them, as everywhere in tcc.
vec and unvec are the column-stacking maps between n x n matrices and
code words, and basis_matrices unvecs a code's generator rows.
brute_force_centralizer enumerates every matrix, kept as the oracle for
the kernel solver, and literal_kernel_basis builds one kernel row per
free column, kept as the oracle for kernel_basis.  literal_rref_array
is Gauss-Jordan reducing the whole block mod p after every pivot, kept
as the oracle for the delayed reduction in tcc.linalg._rref_array.
kronecker_code solves any A, comb or not, through the kernel of the
twisted operator, kept as the oracle for the closed form that
comb_codes writes for a comb matrix and for centralizer_code's Hessenberg
recurrence.  spec_basis and comb_basis run centralizer._basis with the
product check of one spec and with the comb check of a list of residue
triples (x, y, a), as centralizer_code and comb_codes do; batch_codes
lists comb_codes's code for each triple of such a list.
product_verdicts tests each generator row by the two
products A B and a B A themselves, kept as the oracle for the residual
that centralizer._comb_residual reads from row and column sums.
structured_matrices and similar_to_diagonal draw the
recurrence's test inputs, diagonal_dim gives C(A, a)'s dimension for a
diagonalizable A, and recurrence_calls records (or forces) that route.
blas_shapes records the operand shapes of every float64 BLAS product.
generator_read_twice reads a code's generator twice and records the
eliminations each read runs, for the codes the recurrence leaves unreduced.
trial_division_is_prime is the trial-division test, kept as the oracle for
is_prime's Miller-Rabin test.
eliminated_comb_kernel eliminates the retired (2n - 1)-square system of a comb solve with
s != 0 and expands its kernel into vec rows, and eliminated_sum_kernel
the 2n - 1 sum constraints of one with s = 0 and x != 0, kept as the
oracles for their closed-form generators.
diagonalize builds an explicit eigenbasis of x*J + y*I, kept as the
oracle for the diagonal that spectrum prints.  literal_eigen_scan solves one rank problem
per field element, kept as the oracle for eigen_scan.  conjugation_transfer is the literal per-matrix
transfer of a centralizer code, kept as an oracle for the
diagonalization claims.  The literal_* channel runs decode one word
per (message, pattern) or per trial, kept as oracles for the batched
sweeps in tcc.channel; sampled_vote_errors places the hit counts and
votes that Monte Carlo samples for a k = 1 code as dense errors, for
those oracles.  enumerated_exhaustive_stats decodes every
weight-t pattern of a k = 1 code by the vote, kept as the oracle for the
counted k = 1 sweep; the exhaustive_*_check functions are the
acceptance gate's correction and detection sweeps.  verify_document
builds the verify --json document as one dict per row and verify_table
prints its human table row by row, kept as the oracles for the rows that
tcc.cli.cmd_verify renders from shared fragments.  child_env lets a
subprocess import the same tcc as the tests, installed or not.
"""

import math
import os
from dataclasses import astuple, dataclass
from itertools import combinations, product
from pathlib import Path

import numpy as np

import tcc
import tcc.cli
from tcc import (
    ChannelStats,
    CombParams,
    GuardExceededError,
    LinearCode,
    Matrix,
    Prime,
    Spectrum,
    TwistSpec,
    comb_matrix,
    exhaustive_stats,
    kernel_basis,
    rank,
    rref,
    twisted_operator,
)
from tcc.centralizer import _rref_kernel, is_member
from tcc.channel import EXHAUSTIVE_LIMIT, _pattern_blocks, _tally
from tcc.code import ENUMERATION_LIMIT, UNIQUE, decode_nearest, encode
from tcc.linalg import SingularMatrixError, count_text, inverse, kronecker, matmul_mod

SMALL_PRIMES = (2, 3, 5, 7)
BRUTE_FORCE_LIMIT = 1 << 20
_CHUNK = 1 << 15

GF2 = Prime(2)
GF3 = Prime(3)
GF5 = Prime(5)
GF7 = Prime(7)


def child_env() -> dict:
    """os.environ with the directory holding the imported tcc first on PYTHONPATH."""
    paths = [str(Path(tcc.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def rand_matrix(rng, rows, cols, prime) -> Matrix:
    return Matrix(rng.integers(0, prime.p, size=(rows, cols)), prime)


def rand_invertible(rng, n, prime) -> Matrix:
    while True:
        m = rand_matrix(rng, n, n, prime)
        try:
            inverse(m)
        except SingularMatrixError:
            continue
        return m


def identity(n, prime) -> Matrix:
    return Matrix(np.eye(n, dtype=np.int64), prime)


def zeros(rows, cols, prime) -> Matrix:
    return Matrix(np.zeros((rows, cols), dtype=np.int64), prime)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """The product a b over a's field, by matmul_mod on the arrays."""
    return Matrix(matmul_mod(a.array, b.array, a.prime.p), a.prime)


def object_matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p in Python ints (object dtype), as int64: no float and no overflow."""
    return np.asarray(np.asarray(a).astype(object) @ np.asarray(b).astype(object) % p, dtype=np.int64)


def all_ones(n, prime) -> Matrix:
    """J, the n x n all-ones matrix."""
    return Matrix(np.ones((n, n), dtype=np.int64), prime)


def unit_e11(n, prime) -> Matrix:
    """E11, the n x n matrix with a single 1 in the top-left corner."""
    data = np.zeros((n, n), dtype=np.int64)
    data[0, 0] = 1
    return Matrix(data, prime)


def vec(m: Matrix) -> np.ndarray:
    """Column-stacking vectorization: column 1, then column 2, and so on.

    With this convention vec(A X B) == kronecker(B.T, A) @ vec(X).
    """
    return m.array.flatten(order="F")


def unvec(v: np.ndarray, rows: int, cols: int, prime: Prime) -> Matrix:
    """Inverse of :func:`vec`; requires len(v) == rows * cols."""
    if len(v) != rows * cols:
        raise ValueError(f"vector of length {len(v)} cannot fill a {rows}x{cols} matrix")
    return Matrix(v.reshape((rows, cols), order="F"), prime)


def basis_matrices(code: LinearCode) -> list[Matrix]:
    """The members of C(A, a) whose vec images are the generator rows of its code."""
    n = math.isqrt(code.length)
    return [unvec(row, n, n, code.prime) for row in code.generator]


def brute_force_centralizer(spec: TwistSpec) -> list[Matrix]:
    """Oracle: enumerate all p^(n^2) matrices and keep the members.

    Exists to cross-check the kernel solver on tiny cases; hard-guarded so
    it cannot be reached with more than 2^20 candidates.  Results come in
    lexicographic order of the row-major entries, independent of chunking.
    """
    p = spec.prime.p
    n = spec.n
    cells = n * n
    total = p**cells
    if total > BRUTE_FORCE_LIMIT:
        raise GuardExceededError(
            f"brute force over GF({p})^({n}x{n}) means {count_text(total)} candidates, "
            f"beyond the {BRUTE_FORCE_LIMIT} guard"
        )
    a_arr = spec.matrix.array
    twist = spec.twist
    powers = p ** np.arange(cells - 1, -1, -1, dtype=np.int64)
    members = []
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        digits = (idx[:, None] // powers[None, :]) % p
        candidates = digits.reshape(-1, n, n)
        lhs = matmul_mod(a_arr, candidates, p)
        rhs = (matmul_mod(candidates, a_arr, p) * twist) % p
        for b in candidates[np.all(lhs == rhs, axis=(1, 2))]:
            members.append(Matrix(b, spec.prime))
    return members


def kronecker_code(spec: TwistSpec) -> LinearCode:
    """C(A, a) from the RREF kernel of the twisted operator, whatever A is."""
    return spec_basis(spec, _rref_kernel(twisted_operator(spec).array, spec.prime))


def spec_basis(spec: TwistSpec, gen: np.ndarray) -> LinearCode:
    """The code of ``gen`` once every row passes the product check of ``spec``."""
    return tcc.centralizer._basis(
        spec.n, spec.prime, gen, lambda lo, hi, members: tcc.centralizer._product_residual(spec, members), 1
    )


def comb_basis(n: int, p: int, triples, gen: np.ndarray) -> LinearCode:
    """The code of ``gen`` once every row passes the comb check of each residue triple (x, y, a), in order."""
    coefs = np.array([((1 - a) * y % p, x, -a * x % p) for x, y, a in triples], dtype=np.int64)
    return tcc.centralizer._basis(
        n, Prime(p), gen, lambda lo, hi, members: tcc.centralizer._comb_residual(coefs[lo:hi], members, p), len(coefs)
    )


def batch_codes(n: int, p: int, triples) -> list[LinearCode]:
    """comb_codes's code for each residue triple (x, y, a) of ``triples``, in order."""
    x, y, a = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    codes, group = tcc.centralizer.comb_codes(n, Prime(p), x, y, a)
    return [codes[g] for g in group]


def product_verdicts(spec: TwistSpec, gen: np.ndarray) -> np.ndarray:
    """For each row vec(B) of ``gen``, whether A B = a B A, from the two products themselves."""
    n, p, a = spec.n, spec.prime.p, spec.matrix.array
    bs = gen.reshape(-1, n, n).transpose(0, 2, 1)
    return np.all(matmul_mod(a, bs, p) == matmul_mod(bs, a, p) * spec.twist % p, axis=(1, 2))


# Kinds of fixed matrix whose Hessenberg forms need not be one block.
MATRIX_KINDS = ("random", "diagonal", "block-diagonal", "nilpotent", "scalar-plus-rank-1")


def structured_matrices(rng, n: int, prime: Prime):
    """One seeded (kind, A) of each of MATRIX_KINDS, redrawn until A is no comb matrix.

    Nilpotent means strictly upper triangular; block-diagonal has two random
    diagonal blocks.  Each kind but the random one can have an eigenvalue of
    geometric multiplicity above 1, so its Hessenberg form has several blocks.
    """
    p = prime.p

    def draw(kind):
        if kind == "random":
            return rng.integers(0, p, size=(n, n))
        if kind == "diagonal":
            return np.diag(rng.integers(0, p, size=n))
        if kind == "nilpotent":
            return np.triu(rng.integers(0, p, size=(n, n)), 1)
        if kind == "scalar-plus-rank-1":
            rank_1 = np.outer(rng.integers(0, p, size=n), rng.integers(0, p, size=n)) % p
            return (int(rng.integers(p)) * np.eye(n, dtype=np.int64) + rank_1) % p
        cut = int(rng.integers(1, n)) if n > 1 else 1
        m = np.zeros((n, n), dtype=np.int64)
        m[:cut, :cut] = rng.integers(0, p, size=(cut, cut))
        m[cut:, cut:] = rng.integers(0, p, size=(n - cut, n - cut))
        return m

    for kind in MATRIX_KINDS:
        while True:
            m = Matrix(draw(kind), prime)
            x, d = int(m.array[0, -1]), int(m.array[0, 0])
            if n == 1 or m != comb_matrix(CombParams(n, x, d - x, prime)):
                break
        yield kind, m


def similar_to_diagonal(rng, diag, prime: Prime) -> Matrix:
    """A seeded dense P D P^-1 for D = diag(diag)."""
    transform = rand_invertible(rng, len(diag), prime)
    scaled = Matrix(transform.array * np.asarray(diag, dtype=np.int64) % prime.p, prime)
    return matmul(scaled, inverse(transform))


def diagonal_dim(diag, a: int, p: int) -> int:
    """#{(i, j) : d_i = a d_j}, the dimension of C(D, a) for D = diag(diag), so of C(P D P^-1, a)."""
    return sum(int(di) % p == a * int(dj) % p for di in diag for dj in diag)


def recurrence_calls(monkeypatch, force: bool = False) -> list:
    """The specs that centralizer_code solves by the Hessenberg recurrence, recorded as it runs.

    With force, the route is patched so that every non-comb solve with a != 0 takes the recurrence.
    """
    solved = []
    original = tcc.centralizer._recurrence_generator

    def recorded(spec, *args):
        solved.append(spec)
        return original(spec, *args)

    monkeypatch.setattr(tcc.centralizer, "_recurrence_generator", recorded)
    if force:
        monkeypatch.setattr(tcc.centralizer, "_CROSSOVER", 0)
    return solved


def blas_shapes(monkeypatch) -> list:
    """The (a.shape, b.shape) of every float64 BLAS product tcc.linalg runs, recorded as it runs."""
    shapes = []
    original = tcc.linalg._blas_product

    def recorded(a, b, out):
        shapes.append((a.shape, b.shape))
        return original(a, b, out)

    monkeypatch.setattr(tcc.linalg, "_blas_product", recorded)
    return shapes


def generator_read_twice(monkeypatch, code: LinearCode) -> tuple[np.ndarray, list]:
    """code.generator, read twice to the same array, and the shapes that tcc.linalg._rref_array eliminated meanwhile."""
    shapes = []
    original = tcc.linalg._rref_array

    def recorded(a, p):
        shapes.append(a.shape)
        return original(a, p)

    with monkeypatch.context() as patch:
        patch.setattr(tcc.linalg, "_rref_array", recorded)
        generator = code.generator
        assert code.generator is generator is code.basis
    return generator, shapes


def trial_division_is_prime(n: int) -> bool:
    """Primality by trial division up to sqrt(n)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def code_from_rows(rows: Matrix) -> LinearCode:
    """The code spanned by any set of rows, canonicalized by RREF."""
    reduced, rk, _ = rref(rows)
    return LinearCode(rows.prime, rows.cols, reduced.array[:rk])


def is_codeword(code: LinearCode, word: np.ndarray) -> bool:
    """Membership of a row of residues via the RREF generator: re-encode the pivot coordinates."""
    if len(word) != code.length:
        raise ValueError(f"word length {len(word)} does not match code length {code.length}")
    # Each RREF row's first nonzero entry is its pivot; the zero code re-encodes to zeros.
    coeffs = word[(code.generator != 0).argmax(axis=1)]
    recon = matmul_mod(coeffs, code.generator, code.prime.p)
    return bool(np.array_equal(recon, word))


def _rand_prime(rng) -> Prime:
    return Prime(int(rng.choice(SMALL_PRIMES)))


def check_field_axioms(count=1000, seed=101):
    """The multiplicative field laws of GF(p) as tcc computes them: 1x1 matrices under matmul and inverse."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        prime = _rand_prime(rng)
        a, b, c = (Matrix([[int(v)]], prime) for v in rng.integers(0, prime.p, size=3))
        assert matmul(a, b) == matmul(b, a)
        assert matmul(matmul(a, b), c) == matmul(a, matmul(b, c))
        if a != zeros(1, 1, prime):
            assert matmul(a, inverse(a)) == identity(1, prime)


def check_rref_idempotent(count=1000, seed=102):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        prime = _rand_prime(rng)
        m = rand_matrix(rng, int(rng.integers(1, 7)), int(rng.integers(1, 8)), prime)
        reduced = rref(m)
        again = rref(reduced.matrix)
        assert again.matrix == reduced.matrix
        assert again.rank == reduced.rank
        assert again.pivots == reduced.pivots


def check_kernel(count=1000, seed=103):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        prime = _rand_prime(rng)
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        m = rand_matrix(rng, rows, cols, prime)
        basis = kernel_basis(m)
        assert basis.shape == (cols - rref(m).rank, cols) and basis.dtype == np.int64
        assert not matmul_mod(m.array, basis.T, prime.p).any()
        assert basis.tolist() == literal_kernel_basis(m)


def literal_kernel_basis(m: Matrix) -> list[list[int]]:
    """kernel_basis one free column at a time: a 1 there, the negated RREF entries on the pivots."""
    reduced, _, pivots = rref(m)
    rows = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [0] * m.cols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = -int(reduced.array[r, f]) % m.prime.p
        rows.append(v)
    return rows


def literal_rref_array(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """_rref_array reducing the whole block mod p after every pivot step; returns (a, pivot cols)."""
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = (a[r] * inv) % p
        col_vals = a[:, c].copy()
        col_vals[r] = 0
        hit = col_vals.nonzero()[0]
        # Entrywise products stay below (p-1)^2 < 2^63, so no overflow here.
        if hit.size * 2 > rows:
            a -= col_vals[:, None] * a[r]
            a %= p
        elif hit.size:
            a[hit] = (a[hit] - col_vals[hit, None] * a[r]) % p
        pivots.append(c)
        r += 1
    return a, pivots


def eliminated_comb_kernel(n: int, x: int, y: int, a: int, p: int) -> np.ndarray:
    """The generator written in closed form for a comb matrix with s = (1 - a) y != 0, by elimination.

    Every member is B[i, j] = g_i + h_j with h_0 = 0.  Unknowns
    v = (g_0 .. g_(n-1), w_1 .. w_(n-1)) with w_j = B[0, j] = g_0 + h_j.
    Rows i < n: alpha g_i + x (sum g - a sum h) = 0; rows n - 1 + j:
    beta h_j = 0.  The RREF kernel in v is then expanded into vec rows.
    """
    s = (1 - a) * y % p
    alpha, beta = (s - a * x * n) % p, (s + x * n) % p
    eqs = np.zeros((2 * n - 1, 2 * n - 1), dtype=np.int64)
    eqs[:n, :n] = x
    eqs[:n, n:] = -a * x % p
    eqs[np.arange(n), np.arange(n)] += alpha
    eqs[np.arange(n, 2 * n - 1), np.arange(n, 2 * n - 1)] = beta
    # h_j = v_(n-1+j) - v_0 moves the weight of each h_j onto v_0 too.
    eqs[:, 0] -= eqs[:, n:].sum(axis=1)
    v = _rref_kernel(eqs % p, Prime(p))
    h = np.zeros((len(v), n), dtype=np.int64)
    h[:, 1:] = v[:, n:] - v[:, :1]
    # Column-stacked, entry j n + i is B[i, j] = g_i + h_j.  A row's first nonzero
    # entry is its first nonzero in v, as B[:, 0] = g and B[0, j] = w_j, so RREF holds.
    return (h[:, :, None] + v[:, None, :n]).reshape(len(v), n * n) % p


def eliminated_sum_kernel(n: int, a: int, p: int) -> np.ndarray:
    """The kernel written in closed form for a comb matrix with s = 0 and x != 0, by elimination.

    Row j is r_j - a c_0 and row n - 1 + i is a (c_i - c_0), for column sums
    r and row sums c; entry [., j, i] weighs B[i, j], at vec index j n + i.
    """
    sums = np.zeros((2 * n - 1, n, n), dtype=np.int64)
    sums[np.arange(n), np.arange(n)] = 1
    sums[:n, :, 0] -= a
    sums[np.arange(n, 2 * n - 1), :, np.arange(1, n)] = a
    sums[n:, :, 0] = -a
    return _rref_kernel(sums.reshape(2 * n - 1, n * n) % p, Prime(p))


class DefectiveMatrixError(ValueError):
    """The matrix admits no eigenbasis over its field."""


@dataclass(frozen=True)
class Diagonalization:
    """An invertible row eigenbasis P and diagonal D with P A P^-1 = D."""

    transform: Matrix
    diagonal: Matrix


def diagonalize(params: CombParams) -> Diagonalization:
    """Explicit diagonalization P A P^-1 = diag(x n + y, y, ..., y) of A = x*J + y*I.

    P's rows are an eigenbasis (A is symmetric, so row and column
    eigenvectors coincide): the all-ones vector first, then the kernel
    basis of J spanning the y-eigenspace.  Raises DefectiveMatrixError in
    the merged-eigenvalue case, where the eigenspaces do not fill GF(p)^n.

    Eliminating the off-diagonal x's by sequential row operations would
    only triangularize A (the first row keeps its x's when x != 0); the
    similar diagonal matrix shares that triangle's diagonal but is reached
    here through the eigenbasis.
    """
    prime = params.prime
    p = prime.p
    n = params.n
    a = comb_matrix(params)
    if params.x == 0:
        return Diagonalization(identity(n, prime), a)
    lam_ones = (params.x * n + params.y) % p
    lam_rest = params.y
    if lam_ones == lam_rest:
        raise DefectiveMatrixError(
            f"x*J + y*I with x={params.x}, y={params.y}, n={n} "
            f"is defective over GF({p}): its single eigenvalue has multiplicity {n - 1}"
        )
    ones = np.ones((n, n), dtype=np.int64)
    transform = Matrix(np.vstack([ones[0], kernel_basis(Matrix(ones, prime))]), prime)
    diag_entries = np.full(n, lam_rest, dtype=np.int64)
    diag_entries[0] = lam_ones
    diagonal = Matrix(np.diag(diag_entries), prime)
    # Construction sanity: distinct eigenvalues force P invertible and P A = D P.
    if matmul(matmul(transform, a), inverse(transform)) != diagonal:
        raise RuntimeError("eigenbasis construction failed to diagonalize")
    return Diagonalization(transform, diagonal)


def literal_eigen_scan(m: Matrix) -> Spectrum:
    """eigen_scan one field element at a time: the nullity of m - lambda*I for every lambda in GF(p)."""
    n = m.rows
    ident = np.eye(n, dtype=np.int64)
    pairs = []
    for lam in range(m.prime.p):
        nullity = n - rank(Matrix((m.array - lam * ident) % m.prime.p, m.prime))
        if nullity:
            pairs.append((lam, nullity))
    return Spectrum(tuple(pairs))


def check_vec_roundtrip(count=1000, seed=104):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        prime = _rand_prime(rng)
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        m = rand_matrix(rng, rows, cols, prime)
        assert unvec(vec(m), rows, cols, prime) == m


def check_kron_mixed_product(count=1000, seed=105):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        prime = _rand_prime(rng)
        r1, c1, r2, c2 = (int(v) for v in rng.integers(1, 4, size=4))
        k1, k2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a = rand_matrix(rng, r1, k1, prime)
        c = rand_matrix(rng, k1, c1, prime)
        b = rand_matrix(rng, r2, k2, prime)
        d = rand_matrix(rng, k2, c2, prime)
        assert matmul(kronecker(a, b), kronecker(c, d)) == kronecker(matmul(a, c), matmul(b, d))


def check_operator_identity(count=1000, seed=106):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        prime = _rand_prime(rng)
        n = int(rng.integers(2, 5))
        a = rand_matrix(rng, n, n, prime)
        b = rand_matrix(rng, n, n, prime)
        twist = int(rng.integers(0, prime.p))
        op = twisted_operator(TwistSpec(a, twist))
        commutator = Matrix((matmul(a, b).array - twist * matmul(b, a).array) % prime.p, prime)
        assert np.array_equal(matmul_mod(op.array, vec(b), prime.p), vec(commutator))


def check_inverse_roundtrip(count=1000, seed=107):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        prime = _rand_prime(rng)
        n = int(rng.integers(1, 5))
        m = rand_invertible(rng, n, prime)
        ident = identity(n, prime)
        assert matmul(m, inverse(m)) == ident
        assert matmul(inverse(m), m) == ident


def check_vec_sandwich(count=1000, seed=108):
    """vec(A X B) == (B^T kron A) @ vec(X), the column-stacking identity."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        prime = _rand_prime(rng)
        r, s, t, u = (int(v) for v in rng.integers(1, 4, size=4))
        a = rand_matrix(rng, r, s, prime)
        x = rand_matrix(rng, s, t, prime)
        b = rand_matrix(rng, t, u, prime)
        sandwich = kronecker(Matrix(b.array.T, prime), a)
        assert np.array_equal(vec(matmul(matmul(a, x), b)), matmul_mod(sandwich.array, vec(x), prime.p))


def conjugation_transfer(
    spec_d: TwistSpec,
    code_d: LinearCode,
    transform: Matrix,
    target: TwistSpec | None = None,
) -> LinearCode:
    """Carry the code C(D, a) of ``spec_d`` over to C(A, a) along D = P A P^-1.

    Each member B maps to P^-1 B P.  When ``target`` names the intended
    (A, a), every image is verified against it, which catches a transform
    that does not actually conjugate A to D; with no target, A is derived
    as P^-1 D P.  The result is RREF-normalized and dimension-preserving.
    """
    d = spec_d.matrix
    if transform.shape != d.shape:
        raise ValueError(f"transform shape {transform.shape} does not match order {d.rows}")
    p_inv = inverse(transform)
    if target is None:
        target = TwistSpec(matmul(matmul(p_inv, d), transform), spec_d.twist)
    elif target.twist != spec_d.twist or target.matrix.shape != d.shape:
        raise ValueError("target spec does not match the code being transferred")
    carried = []
    for b in basis_matrices(code_d):
        image = matmul(matmul(p_inv, b), transform)
        if not is_member(image, target):
            raise ValueError("conjugation transfer broke membership; is D = P A P^-1?")
        carried.append(vec(image))
    if not carried:
        zero = np.zeros((0, target.n * target.n), dtype=np.int64)
        return LinearCode(target.prime, target.n * target.n, zero)
    code = code_from_rows(Matrix(np.vstack(carried), target.prime))
    if code.dim != code_d.dim:
        raise ValueError("conjugation transfer changed the dimension")
    return code


def hamming_distance(u: np.ndarray, v: np.ndarray) -> int:
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return int(np.count_nonzero(u != v))


def _pattern_count(length: int, t: int, p: int) -> int:
    return math.comb(length, t) * (p - 1) ** t


def _weight_patterns(length: int, t: int, p: int):
    for positions in combinations(range(length), t):
        for offsets in product(range(1, p), repeat=t):
            yield list(positions), offsets


def _messages(code: LinearCode):
    """Every message in enumeration order, with its codeword."""
    for digits in product(range(code.prime.p), repeat=code.dim):
        message = np.array(digits, dtype=np.int64)
        yield message, encode(code, message)


def _classify(code: LinearCode, received: np.ndarray, message: np.ndarray) -> str:
    result = decode_nearest(code, received)
    if result.status != UNIQUE:
        return "ambiguous"
    return "success" if np.array_equal(result.message, message) else "miscorrected"


def _stats(counts: dict) -> ChannelStats:
    return ChannelStats(sum(counts.values()), counts["success"], counts["ambiguous"], counts["miscorrected"])


def literal_exhaustive_stats(code: LinearCode, t: int) -> ChannelStats:
    """exhaustive_stats, one decode_nearest call per (message, pattern) pair."""
    p = code.prime.p
    counts = {"success": 0, "ambiguous": 0, "miscorrected": 0}
    for message, word in _messages(code):
        for positions, offsets in _weight_patterns(code.length, t, p):
            corrupted = word.copy()
            corrupted[positions] = (corrupted[positions] + offsets) % p
            counts[_classify(code, corrupted, message)] += 1
    return _stats(counts)


def enumerated_exhaustive_stats(code: LinearCode, t: int) -> ChannelStats:
    """exhaustive_stats by decoding every weight-t pattern over 0, scaled by p^k.

    Each (positions, offsets) block of _pattern_blocks goes to _tally, which
    decodes a k = 1 code by code._vote: the sweep a k = 1 code took before it
    was counted.
    """
    p = code.prime.p
    # Read at call time, so a test that patches the block size patches the oracle too.
    step = max(1, tcc.channel._BATCH_CELLS // code.length)
    stats = ChannelStats(0, 0, 0, 0)
    for positions, offsets in _pattern_blocks(code.length, t, p, step):
        stats += _tally(code, positions, offsets)
    return ChannelStats(*(count * p**code.dim for count in astuple(stats)))


def sampled_vote_errors(code: LinearCode, t: int, trials: int, seed: int = 0):
    """monte_carlo's trials of a k = 1 code as dense (rows, N) error blocks, one per chunk.

    Per chunk of _DRAW_CELLS // max(t, 1) trials, each trial's hit count h
    and its t votes are drawn as monte_carlo draws them: one hypergeometric
    block, then one block of votes in 1..p-1.  A generator seeded
    [seed, 2] then places the error: h positions on supp g, where the
    first h votes go as vote * g_i, and t - h positions off it, each given
    a uniform nonzero symbol.
    """
    p, length, g = code.prime.p, code.length, code.generator[0]
    on, off = np.flatnonzero(g), np.flatnonzero(g == 0)
    rng, places = np.random.default_rng(seed), np.random.default_rng([seed, 2])
    # Read at call time, so a test that patches the chunk size patches the oracle too.
    draw = max(1, tcc.channel._DRAW_CELLS // max(t, 1))
    for done in range(0, trials, draw):
        rows = min(draw, trials - done)
        hits, votes = rng.hypergeometric(len(on), len(off), t, size=rows), rng.integers(1, p, size=(rows, t))
        errors = np.zeros((rows, length), dtype=np.int64)
        for error, h, vote in zip(errors, hits, votes):
            where = places.choice(on, h, replace=False)
            error[where] = vote[:h] * g[where] % p
            error[places.choice(off, t - h, replace=False)] = places.integers(1, p, size=t - h)
        yield errors


def literal_monte_carlo(code: LinearCode, t: int, trials: int, seed: int = 0) -> ChannelStats:
    """monte_carlo, one decode_nearest call per trial on a random codeword plus its error.

    A k = 1 code's errors are sampled_vote_errors'.  Any other code's follow
    monte_carlo's draw: per chunk of _DRAW_CELLS // N trials, one (rows, N)
    block of uniform keys, then one (rows, t) block of offsets.  A trial's
    positions are its t smallest keys' indices, sorted here by argsort, and
    take its offsets in index order.  Messages come from an independent
    generator, so decoding over a random codeword is checked against
    monte_carlo's decoding over 0.
    """
    p, length = code.prime.p, code.length
    rng, messages = np.random.default_rng(seed), np.random.default_rng([seed, 1])
    counts = {"success": 0, "ambiguous": 0, "miscorrected": 0}

    def classify(error):
        message = messages.integers(0, p, size=code.dim)
        counts[_classify(code, (encode(code, message) + error) % p, message)] += 1

    if code.dim == 1:
        for errors in sampled_vote_errors(code, t, trials, seed):
            for error in errors:
                classify(error)
        return _stats(counts)
    # Read at call time, so a test that patches the chunk size patches the oracle too.
    draw = max(1, tcc.channel._DRAW_CELLS // length)
    for done in range(0, trials, draw):
        rows = min(draw, trials - done)
        # At t = 0 monte_carlo draws nothing; any keys leave the error 0.
        keys, offsets = rng.random((rows, length)), rng.integers(1, p, size=(rows, t))
        for row in range(rows):
            error = np.zeros(length, dtype=np.int64)
            error[np.sort(np.argsort(keys[row], kind="stable")[:t])] = offsets[row]
            classify(error)
    return _stats(counts)


def exhaustive_correction_check(code: LinearCode, t: int) -> bool:
    """True iff every message survives every weight-t error pattern."""
    stats = exhaustive_stats(code, t)
    return stats.successes == stats.trials


def exhaustive_detection_check(code: LinearCode, t: int) -> bool:
    """True iff no error of weight 1..t maps a codeword onto another codeword."""
    p = code.prime.p
    if t > code.length:
        raise ValueError(f"weight {t} exceeds code length {code.length}")
    if t == 0:
        return True
    work = sum(_pattern_count(code.length, w, p) for w in range(1, t + 1)) * p**code.dim
    if work > EXHAUSTIVE_LIMIT:
        raise GuardExceededError(
            f"exhaustive detection sweep means {count_text(work)} membership checks, "
            f"beyond the {EXHAUSTIVE_LIMIT} guard"
        )
    if p**code.dim > ENUMERATION_LIMIT:
        raise GuardExceededError(
            f"detection sweep would enumerate p^k = {count_text(p**code.dim)} codewords, "
            f"beyond the {ENUMERATION_LIMIT} guard"
        )
    for _, word in _messages(code):
        for w in range(1, t + 1):
            for positions, offsets in _weight_patterns(code.length, w, p):
                corrupted = word.copy()
                corrupted[positions] = (corrupted[positions] + offsets) % p
                if is_codeword(code, corrupted):
                    return False
    return True


def verify_document(p_max: int, n_max: int) -> dict:
    """The `verify --json` document built as one dict per row, kept as the oracle for its rendered rows.

    Each row's keys and values come from the same solve and theorem check
    that tcc.cli.cmd_verify runs, looked up at call time so that a patched
    check reaches both; only the rendering differs.
    """
    rows = []
    for p in (q for q in range(2, p_max + 1) if trial_division_is_prime(q)):
        x, y, a = np.indices((p, p, p)).reshape(3, -1)
        for n in range(2, n_max + 1):
            codes, group = tcc.cli.comb_codes(n, Prime(p), x, y, a)
            hyp = tcc.cli._hypotheses_met(p, n, x, y, a)
            checks = {g: tcc.cli._theorem_check(n, codes[g]) for g in set(group[hyp].tolist())}
            for xi, yi, ai, met, g in zip(x.tolist(), y.tolist(), a.tolist(), hyp.tolist(), group.tolist()):
                row = {"p": p, "n": n, "x": xi, "y": yi, "a": ai, "hypotheses_met": met, "dim": codes[g].dim}
                if met:
                    row.update(checks[g])
                rows.append(row)
    mismatches = [row for row in rows if row["hypotheses_met"] and not row["matches_theorem"]]
    return {
        "p_max": p_max,
        "n_max": n_max,
        "tuples": len(rows),
        "hypothesis_tuples": sum(1 for row in rows if row["hypotheses_met"]),
        "ok": not mismatches,
        "rows": rows,
    }


def verify_table(doc: dict) -> str:
    """The human `verify` output of a verify_document, printed row by row, kept as the oracle for its table."""
    lines = [f"{'p':>3} {'n':>2} {'x':>3} {'y':>3} {'a':>3}  {'hyp':<3} {'dim':>4} {'d':>4}  {'mds':<3} {'ok':<3}"]
    for row in doc["rows"]:
        d = str(row.get("min_distance", "-"))
        mds = "-" if "mds" not in row else ("yes" if row["mds"] else "no")
        okc = "-" if "matches_theorem" not in row else ("yes" if row["matches_theorem"] else "NO")
        hyp = "yes" if row["hypotheses_met"] else "no"
        lines.append(
            f"{row['p']:>3} {row['n']:>2} {row['x']:>3} {row['y']:>3} {row['a']:>3}  "
            f"{hyp:<3} {row['dim']:>4} {d:>4}  {mds:<3} {okc:<3}"
        )
    mismatches = [row for row in doc["rows"] if row["hypotheses_met"] and not row["matches_theorem"]]
    lines.append(
        f"summary: {doc['tuples']} tuples, {doc['hypothesis_tuples']} met the hypotheses, "
        f"{len(mismatches)} mismatches"
    )
    lines += ["MISMATCH: p={p} n={n} x={x} y={y} a={a} dim={dim}".format_map(row) for row in mismatches]
    return "\n".join(lines) + "\n"
