"""Twisted centralizers C(A, a) = {B : AB = aBA} as solvable linear systems.

The membership condition is linear in B, so column-stacking turns it into
an ordinary kernel problem: with T = (I (x) A) - a * (A^T (x) I) we have
T vec(B) = vec(AB - aBA), and C(A, a) is exactly unvec of ker(T).  That
costs about n^6, so centralizer_code first reads A itself: a comb matrix
x*J + y*I is solved from row and column sums instead, in closed form,
with every generator written directly as the RREF generator of the
linear code of length n^2 spanned by the vec images, and no comb solve
eliminates.  Every other A takes the Kronecker kernel; its elimination
runs with the columns reversed, so its kernel comes out in RREF too and
no second reduction runs.  Either way the code holds the array as it is.
"""

from dataclasses import dataclass

import numpy as np

from .code import LinearCode
from .linalg import (
    MAX_ORDER,
    FieldMismatchError,
    GuardExceededError,
    Matrix,
    Prime,
    kernel_basis,
    matmul_mod,
)

# Largest operator the Kronecker kernel builds: n = 32, a 1024 x 1024 T.
KRONECKER_MAX_CELLS = 1 << 10
# Membership checks run over stacks of at most this many matrix entries.
_CHECK_CELLS = 1 << 15


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
        rows = self.code.generator
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
    a, ident = spec.matrix.array, np.eye(spec.n, dtype=np.int64)
    # Both terms are below (p - 1)^2 < 2^62, so their difference fits int64 before it is reduced.
    return Matrix((np.kron(ident, a) - spec.twist * np.kron(a.T, ident)) % spec.prime.p, spec.prime)


def _basis(spec: TwistSpec, gen: np.ndarray) -> CentralizerBasis:
    """The basis whose code has the RREF generator rows ``gen``, held without a copy; no rows is the zero code."""
    return CentralizerBasis(spec, LinearCode(spec.prime, spec.n * spec.n, gen))


def centralizer_code(spec: TwistSpec) -> CentralizerBasis:
    """Solve AB = aBA in RREF, in closed form when A = x*J + y*I with n >= 2.

    A is a comb matrix exactly when it equals x*J + (d - x)*I entrywise,
    for x = A[0, n - 1] and d = A[0, 0].  Then, with u the all-ones vector,
    c = B u and r = u^T B, we have AB - aBA = s*B + x*(u r - a c u^T) for
    s = (1 - a) y.  For s != 0 every member is B[i, j] = g_i + h_j with
    h_0 = 0, and AB = aBA reads alpha g_i + beta h_j + x (sum g - a sum h) = 0
    for alpha = s - a x n and beta = s + x n.  The dimension is then

    * alpha, beta != 0: 1 (span(J)) if p | x n + y, else 0, since
      alpha + x n = (1 - a)(x n + y): the paper's theorem and its converse;
    * alpha = 0, beta != 0: n - 1 (B = g u^T with sum g = 0);
    * alpha != 0, beta = 0: n for a = 0 (B = u h^T), else n - 1;
    * alpha = beta = 0, which forces a = -1: 2n - 2.

    For s = 0 the code is the full space n^2 when x = 0.  Otherwise
    AB - aBA = x (u r - a c u^T), so every column sum equals a times every
    row sum, and the dimension is n^2 - n for a = 0 (zero column sums),
    else (n - 1)^2 + [a = 1 or p | n].  Each is written in RREF directly.

    Any other A, and every 1 x 1 A, takes the kernel of T, of dimension
    n^2 - rank(T), from one elimination of T with its columns reversed;
    at about n^6 that is refused beyond order 32, before T is built.
    """
    n, p, flat = spec.n, spec.prime.p, spec.matrix.array.ravel().tolist()
    x, d = flat[n - 1], flat[0]
    # Row-major, the entries after A[0, 0] are n - 1 runs of n off-diagonal x's, each closed by a diagonal d.
    if n >= 2 and flat[1:] == ([x] * n + [d]) * (n - 1):
        return _basis(spec, _comb_generator(n, x, (d - x) % p, spec.twist, p))
    cells = n * n
    if cells > KRONECKER_MAX_CELLS:
        raise GuardExceededError(
            f"the Kronecker kernel for order {n} needs T of {cells}x{cells}, "
            f"beyond the {KRONECKER_MAX_CELLS}x{KRONECKER_MAX_CELLS} guard"
        )
    return _basis(spec, _rref_kernel(twisted_operator(spec).array, spec.prime))


def _comb_generator(n: int, x: int, y: int, a: int, p: int) -> np.ndarray:
    """The RREF generator rows of C(x*J + y*I, a), in closed form."""
    s = (1 - a) * y % p
    if s == 0 and x == 0:
        return np.eye(n * n, dtype=np.int64)
    if s == 0:
        return _sum_kernel(n, a, p)
    v = _closed_form_kernel(n, x, y, a, p)
    h = np.zeros((len(v), n), dtype=np.int64)
    h[:, 1:] = v[:, n:] - v[:, :1]
    # Column-stacked, entry j n + i is B[i, j] = g_i + h_j.  A row's first
    # nonzero entry is its first nonzero in v, as B[:, 0] = g and B[0, j] = w_j.
    return (h[:, :, None] + v[:, None, :n]).reshape(len(v), n * n) % p


def _closed_form_kernel(n: int, x: int, y: int, a: int, p: int) -> np.ndarray:
    """The RREF kernel, for s = (1 - a) y != 0, in v = (g_0 .. g_(n-1), w_1 .. w_(n-1)).

    Here w_j = B[0, j] = g_0 + h_j, and e_i below is the i-th unit row.
    """
    s = (1 - a) * y % p
    alpha, beta = (s - a * x * n) % p, (s + x * n) % p
    eye = np.eye(2 * n - 1, dtype=np.int64)
    if alpha and beta:
        # h = 0 and g is constant, which (1 - a)(x n + y) must annihilate.
        return eye[:0] if (x * n + y) % p else np.ones((1, 2 * n - 1), dtype=np.int64)
    if beta:
        # sum g = 0 and h = 0, so w_j = g_0: rows e_i - e_(n-1), w = 1 on row 0.
        v = eye[: n - 1].copy()
        v[:, n - 1] = -1
        v[0, n:] = 1
        return v % p
    if alpha:
        # g is constant; h is free for a = 0, else sum w = -g_0.
        v = eye[n - 1 : 2 * n - 1 if a == 0 else 2 * n - 2].copy()
        v[0, :n] = 1
        if a:
            v[:, -1] = -1
        return v % p
    # a = -1: the one constraint sum g + sum h = 0 is c.v = 0, c = (2 - n, 1, .., 1).
    v = eye[:-1].copy()
    v[:, -1] = -1
    v[0, -1] = n - 2
    return v % p


def _sum_kernel(n: int, a: int, p: int) -> np.ndarray:
    """The RREF generator for s = 0 and x != 0: column sums r_j = a c_i for all row sums c_i.

    Row j (n - 1) + i, for i < n - 1, is E_ij - E_(n-1)j when a = 0 (zero
    column sums); for a != 0 and j < n - 1 it also has -E_i(n-1) + E_(n-1)(n-1)
    (zero row and column sums).  When a != 0 and a = 1 or p | n, one member
    E with column sums 1 and row sums 1/a joins them: its pivot B[n - 1, 0]
    sits at vec index n - 1, so it is row n - 1, the rows after it move down
    one, and it is added to the rows before it.
    """
    m = n - 1
    extra = a != 0 and (a == 1 or n % p == 0)
    j, i = np.divmod(np.arange(m * (n if a == 0 else m)), m)
    rows = np.arange(len(j)) + extra * (j > 0)
    gen = np.zeros((len(j) + extra, n * n), dtype=np.int64)
    gen[rows, j * n + i] = 1
    gen[rows, j * n + m] = p - 1
    if a:
        gen[rows, m * n + i] = p - 1
        gen[rows, m * n + m] = 1
    if extra:
        inv = pow(a, -1, p)
        # Entry j n + i is B[i, j]: 1 in row n - 1 left of the corner, 1/a above it.
        gen[m, m : m * n : n] = 1
        gen[m, m * n : m * n + m] = inv
        gen[m, m * n + m] = (inv - m) % p
        gen[:m] = (gen[:m] + gen[m]) % p
    return gen


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
