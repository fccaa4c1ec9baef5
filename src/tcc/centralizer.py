"""Twisted centralizers C(A, a) = {B : AB = aBA} as solvable linear systems.

The membership condition is linear in B, so column-stacking turns it into
an ordinary kernel problem: with T = (I (x) A) - a * (A^T (x) I) we have
T vec(B) = vec(AB - aBA), and C(A, a) is exactly unvec of ker(T).  That
costs about n^6, so comb matrices x*J + y*I are solved from row and
column sums instead, through a system of at most 2n - 1 rows.  Both
routes eliminate their system once with its columns reversed, so the
kernel comes out as the RREF generator of the linear code of length n^2
spanned by the vec images; no second reduction runs.  The Kronecker
kernel serves --matrix-file input and checks the comb solve in the tests.
"""

from dataclasses import dataclass

import numpy as np

from .code import LinearCode
from .linalg import FieldMismatchError, GuardExceededError, Matrix, Prime, kernel_basis, kronecker, matmul_mod
from .comb import MAX_ORDER, CombParams, comb_matrix

# Largest operator the Kronecker kernel builds: n = 32, a 1024 x 1024 T.
KRONECKER_MAX_CELLS = 1 << 10
# Membership checks run over stacks of at most this many matrix entries.
_CHECK_CELLS = 1 << 20


@dataclass(frozen=True)
class TwistSpec:
    """A fixed square matrix and the twist constant defining AB = aBA.

    The twist is stored as a residue in [0, p) of the matrix's field.
    """

    matrix: Matrix
    twist: int

    def __post_init__(self):
        if not self.matrix.is_square:
            raise ValueError(f"the fixed matrix must be square, got {self.matrix.rows}x{self.matrix.cols}")
        if self.matrix.rows > MAX_ORDER:
            raise ValueError(f"order {self.matrix.rows} exceeds the cap {MAX_ORDER}")
        object.__setattr__(self, "twist", self.matrix.prime.residue(self.twist, "twist"))

    @property
    def n(self) -> int:
        return self.matrix.rows

    @property
    def prime(self) -> Prime:
        return self.matrix.prime


@dataclass(frozen=True)
class CentralizerBasis:
    """C(A, a) as a code of length n^2: its RREF generator rows are the vec images of a basis.

    The RREF normalization makes bases canonical: two centralizers are
    equal iff their codes are identical, with no span chasing.
    """

    spec: TwistSpec
    code: LinearCode

    def __post_init__(self):
        n = self.spec.n
        if self.code.length != n * n:
            raise ValueError(f"expected a code of length {n * n} for order {n}, got {self.code.length}")
        if self.code.prime != self.spec.prime:
            raise FieldMismatchError(f"code over GF({self.code.prime.p}) against a GF({self.spec.prime.p}) centralizer")
        if self.code.generator is None:
            return
        rows = self.code.generator.array
        step = max(1, _CHECK_CELLS // (n * n))
        for start in range(0, len(rows), step):
            # A row is vec(B), column by column, so its row-major reshape is B^T.
            stack = rows[start : start + step].reshape(-1, n, n).transpose(0, 2, 1)
            if not _all_members(stack, self.spec):
                raise ValueError("basis matrix fails the twisted commutation condition")

    @property
    def dim(self) -> int:
        return self.code.dim


def twisted_operator(spec: TwistSpec) -> Matrix:
    """The n^2 x n^2 matrix T with T vec(B) = vec(AB - a BA)."""
    a = spec.matrix
    ident = Matrix.identity(spec.n, spec.prime)
    return kronecker(ident, a) - kronecker(a.T, ident) * spec.twist


def _basis(spec: TwistSpec, gen: np.ndarray) -> CentralizerBasis:
    """The basis whose code has the RREF generator rows ``gen``, which may be none."""
    generator = Matrix(gen, spec.prime) if len(gen) else None
    return CentralizerBasis(spec, LinearCode(spec.prime, spec.n * spec.n, generator))


def centralizer_code(spec: TwistSpec) -> CentralizerBasis:
    """Solve AB = aBA: the kernel of the twisted operator, in RREF.

    Dimension equals n^2 - rank(T).  One elimination of T with its columns
    reversed gives the kernel already in RREF, as for the comb solve.  T
    has n^2 x n^2 entries and its elimination costs about n^6, so orders
    beyond 32 are refused before T is built.
    """
    cells = spec.n * spec.n
    if cells > KRONECKER_MAX_CELLS:
        raise GuardExceededError(
            f"the Kronecker kernel for order {spec.n} needs T of {cells}x{cells}, "
            f"beyond the {KRONECKER_MAX_CELLS}x{KRONECKER_MAX_CELLS} guard"
        )
    return _basis(spec, _rref_kernel(twisted_operator(spec).array, spec.prime))


def comb_centralizer(params: CombParams, twist: int) -> CentralizerBasis:
    """C(x*J + y*I, a) from row and column sums, with no n^2 x n^2 operator.

    With u the all-ones vector, c = B u and r = u^T B, we have
    AB - aBA = s*B + x*(u r - a c u^T) for s = (1 - a) y.  For s = 0 the
    code is the full space (x = 0) or the kernel of the 2n - 1 sum
    constraints r_j = a c_0 and a c_i = a c_0.  For s != 0 every member is
    B[i, j] = g_i + h_j, fixed by its entries B[:, 0] and B[0, 1:] (h_0 = 0),
    which solve a (2n - 1)-square system; as every member's first nonzero
    entry is one of them, the expanded kernel rows stay in RREF.
    """
    spec = TwistSpec(comb_matrix(params), twist)
    p, n, x, a = params.prime.p, params.n, params.x, spec.twist
    s = (1 - a) * params.y % p
    if s == 0 and x == 0:
        return _basis(spec, np.eye(n * n, dtype=np.int64))
    if s == 0:
        # Row j is r_j - a c_0, row n - 1 + i is a (c_i - c_0); entry [., j, i] weighs B[i, j].
        sums = np.zeros((2 * n - 1, n, n), dtype=np.int64)
        sums[np.arange(n), np.arange(n)] = 1
        sums[:n, :, 0] -= a
        sums[np.arange(n, 2 * n - 1), :, np.arange(1, n)] = a
        sums[n:, :, 0] = -a
        return _basis(spec, _rref_kernel(sums.reshape(2 * n - 1, n * n), params.prime))
    # Unknowns v = (g_0 .. g_(n-1), g_0 + h_1 .. g_0 + h_(n-1)).  Rows i < n:
    # alpha g_i + x (sum g - a sum h) = 0; rows n - 1 + j: beta h_j = 0.
    alpha, beta = (s - a * x * n) % p, (s + x * n) % p
    eqs = np.zeros((2 * n - 1, 2 * n - 1), dtype=np.int64)
    eqs[:n, :n] = x
    eqs[:n, n:] = -a * x % p
    eqs[np.arange(n), np.arange(n)] += alpha
    eqs[np.arange(n, 2 * n - 1), np.arange(n, 2 * n - 1)] = beta
    # h_j = v_(n-1+j) - v_0 moves the weight of each h_j onto v_0 too.
    eqs[:, 0] -= eqs[:, n:].sum(axis=1)
    v = _rref_kernel(eqs, params.prime)
    h = np.zeros((len(v), n), dtype=np.int64)
    h[:, 1:] = v[:, n:] - v[:, :1]
    # Column-stacked, entry j n + i is B[i, j] = g_i + h_j.
    return _basis(spec, (h[:, :, None] + v[:, None, :n]).reshape(len(v), n * n))


def _rref_kernel(eqs: np.ndarray, prime: Prime) -> np.ndarray:
    """The kernel of ``eqs`` in RREF, from one elimination of its reversed columns.

    A kernel row of the reversed system ends in a 1 on its free column and
    is 0 on the other free columns, so reversed back it starts with that 1.
    """
    return kernel_basis(Matrix(eqs[:, ::-1], prime))[::-1, ::-1]


def _all_members(stack: np.ndarray, spec: TwistSpec) -> bool:
    """Exact entrywise test of A @ B == a * (B @ A) for every B in a (k, n, n) stack."""
    a = spec.matrix.array
    p = spec.prime.p
    return np.array_equal(matmul_mod(a, stack, p), (matmul_mod(stack, a, p) * spec.twist) % p)


def is_member(b: Matrix, spec: TwistSpec) -> bool:
    """Exact entrywise test of A @ B == a * (B @ A)."""
    if b.shape != spec.matrix.shape:
        raise ValueError(f"expected a {spec.n}x{spec.n} matrix, got {b.rows}x{b.cols}")
    if b.prime != spec.prime:
        raise FieldMismatchError(f"matrix over GF({b.prime.p}) against a GF({spec.prime.p}) centralizer")
    return _all_members(b.array[None], spec)
