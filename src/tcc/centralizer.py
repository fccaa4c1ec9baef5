"""Twisted centralizers C(A, a) = {B : AB = aBA} as solvable linear systems.

The membership condition is linear in B, so column-stacking turns it into
an ordinary kernel problem: with T = (I (x) A) - a * (A^T (x) I) we have
T vec(B) = vec(AB - aBA), and C(A, a) is exactly unvec of ker(T).  That
costs about n^6, so comb matrices x*J + y*I take a structured route
through their eigenbasis instead.  Either way the solved space is the
linear code of length n^2 spanned by the vec images, canonicalized once
by LinearCode.from_generator; the Kronecker kernel checks the structured
solve.
"""

from dataclasses import dataclass

import numpy as np

from .code import LinearCode
from .linalg import (
    FieldMismatchError,
    GuardExceededError,
    Matrix,
    Prime,
    inverse,
    kernel_basis,
    kronecker,
    matmul_mod,
    rref,
)
from .comb import MAX_ORDER, CombParams, DefectiveMatrixError, Diagonalization, comb_matrix, diagonalize

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


def _solved(spec: TwistSpec, rows: list[np.ndarray]) -> CentralizerBasis:
    """The basis whose code is spanned by the stacked vec images in ``rows``."""
    if not rows:
        return CentralizerBasis(spec, LinearCode(spec.prime, spec.n * spec.n, None, ()))
    return CentralizerBasis(spec, LinearCode.from_generator(Matrix(np.vstack(rows), spec.prime)))


def centralizer_code(spec: TwistSpec) -> CentralizerBasis:
    """Solve AB = aBA: the kernel of the twisted operator, RREF-normalized.

    Dimension equals n^2 - rank(T); ordering is inherited from the
    deterministic kernel basis, then canonicalized by row reduction.
    T has n^2 x n^2 entries and its elimination costs about n^6, so
    orders beyond 32 are refused before T is built.
    """
    cells = spec.n * spec.n
    if cells > KRONECKER_MAX_CELLS:
        raise GuardExceededError(
            f"the Kronecker kernel for order {spec.n} needs T of {cells}x{cells}, "
            f"beyond the {KRONECKER_MAX_CELLS}x{KRONECKER_MAX_CELLS} guard"
        )
    return _solved(spec, [v.array for v in kernel_basis(twisted_operator(spec))])


def comb_centralizer(params: CombParams, twist: int) -> CentralizerBasis:
    """C(x*J + y*I, a) through the eigenbasis, with no n^2 x n^2 operator.

    With P A P^-1 = D diagonal, B -> P^-1 B P carries C(D, a) onto C(A, a),
    and C(D, a) is spanned by the unit matrices E_ij with d_i = a d_j.  For
    eigenvalue groups I, J with lambda_I = a lambda_J the images of those
    E_ij column-stack to rowspace(P[J, :]) (x) rowspace(P^-1[:, I]^T), so
    the Kronecker products of the two small RREFs span C(A, a).  Those rows
    are sparse, and LinearCode.from_generator reduces their stack to
    exactly the code centralizer_code returns.  The merged case, where A
    has no eigenbasis, falls back to centralizer_code.
    """
    spec = TwistSpec(comb_matrix(params), twist)
    try:
        diag = diagonalize(params)
    except DefectiveMatrixError:
        return centralizer_code(spec)
    return _solved(spec, _eigen_span(diag, spec.twist))


def _eigen_span(diag: Diagonalization, twist: int) -> list[np.ndarray]:
    """Blocks of rows spanning vec(P^-1 C(D, a) P) for P A P^-1 = D, a = twist."""
    prime = diag.transform.prime
    p = prime.p
    transform = diag.transform.array
    p_inv = inverse(diag.transform).array
    d = np.diag(diag.diagonal.array)
    groups = [np.flatnonzero(d == lam) for lam in np.unique(d)]
    blocks = []
    for i_idx in groups:
        for j_idx in groups:
            if d[i_idx[0]] == (twist * int(d[j_idx[0]])) % p:
                left = rref(Matrix(transform[j_idx], prime)).matrix
                right = rref(Matrix(p_inv[:, i_idx].T, prime)).matrix
                blocks.append(kronecker(left, right).array)
    return blocks


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
