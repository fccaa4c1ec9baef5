"""Combinatorial matrices x*J + y*I over GF(p): spectra and diagonalization.

J is the all-ones matrix, I the identity.  Row sums show that the all-ones
vector u satisfies A u = (x n + y) u, and the y-eigenspace is the null
space of x*J, i.e. the zero-coordinate-sum hyperplane.  So the spectrum is
{x n + y, y} with geometric multiplicities 1 and n - 1, except that over
GF(p) the two eigenvalues can merge (p | x n), in which case the matrix is
defective unless it is scalar.  Multiplicities here are always computed
from ranks, never assumed from the generic split.

A note on constructions: eliminating the off-diagonal x's by sequential
row operations only triangularizes A (the first row keeps its x's when
x != 0); the similar diagonal matrix diag(x n + y, y, ..., y) shares that
triangle's diagonal but is reached here through an explicit eigenbasis.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import GuardExceededError, Matrix, Prime, inverse, kernel_basis, rank

# The scan solves p rank problems; past this it is the wrong tool.
EIGEN_SCAN_MAX_P = 997

MAX_ORDER = 64


class DefectiveMatrixError(ValueError):
    """The matrix admits no eigenbasis over its field."""


@dataclass(frozen=True)
class CombParams:
    """Order and coefficients of x*J + y*I over GF(p); n = 1 is rejected as degenerate.

    x and y are stored as residues in [0, p).
    """

    n: int
    x: int
    y: int
    prime: Prime

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise TypeError("order n must be an int")
        if not 2 <= self.n <= MAX_ORDER:
            raise ValueError(f"order n must lie in [2, {MAX_ORDER}], got {self.n}")
        object.__setattr__(self, "x", self.prime.residue(self.x, "x"))
        object.__setattr__(self, "y", self.prime.residue(self.y, "y"))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue -> geometric multiplicity pairs, ascending by eigenvalue."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        values = [lam for lam, _ in self.pairs]
        if values != sorted(set(values)):
            raise ValueError(f"eigenvalues must be distinct and ascending, got {values}")
        if any(mult < 1 for _, mult in self.pairs):
            raise ValueError("every geometric multiplicity must be at least 1")

    @property
    def total_multiplicity(self) -> int:
        return sum(mult for _, mult in self.pairs)


@dataclass(frozen=True)
class Diagonalization:
    """An invertible row eigenbasis P and diagonal D with P A P^-1 = D."""

    transform: Matrix
    diagonal: Matrix


def comb_matrix(params: CombParams) -> Matrix:
    """The symmetric matrix with x + y on the diagonal and x elsewhere."""
    n = params.n
    data = np.full((n, n), params.x, dtype=np.int64)
    np.fill_diagonal(data, params.x + params.y)
    return Matrix(data, params.prime)


def eigen_scan(m: Matrix) -> Spectrum:
    """Spectrum of any square matrix by scanning every field element.

    For each lambda in GF(p) the geometric multiplicity is the nullity of
    m - lambda*I, computed exactly via rank; only nonzero multiplicities
    are reported.  Cost is O(p * n^3), so p is capped.
    """
    if not m.is_square:
        raise ValueError(f"eigen scan needs a square matrix, got {m.rows}x{m.cols}")
    p = m.prime.p
    if p > EIGEN_SCAN_MAX_P:
        raise GuardExceededError(
            f"eigen scan over GF({p}) exceeds the p <= {EIGEN_SCAN_MAX_P} cap; "
            "comb_spectrum covers combinatorial matrices at any p"
        )
    n = m.rows
    ident = Matrix.identity(n, m.prime)
    pairs = []
    for lam in range(p):
        nullity = n - rank(m - ident * lam)
        if nullity:
            pairs.append((lam, nullity))
    return Spectrum(tuple(pairs))


def comb_spectrum(params: CombParams) -> Spectrum:
    """Spectrum of x*J + y*I from the structure of J, in O(n^3).

    Generic case (x != 0, eigenvalues distinct mod p): {(x n + y, 1),
    (y, n - 1)}.  Scalar case (x == 0): {(y, n)}.  Merged case (x != 0
    but p | x n): a single eigenvalue y whose multiplicity is computed
    from the rank of A - y*I rather than assumed.
    """
    p = params.prime.p
    n = params.n
    lam_ones = (params.x * n + params.y) % p
    lam_rest = params.y
    if params.x == 0:
        return Spectrum(((lam_rest, n),))
    if lam_ones != lam_rest:
        pairs = sorted(((lam_ones, 1), (lam_rest, n - 1)))
        return Spectrum(tuple(pairs))
    shifted = comb_matrix(params) - Matrix.identity(n, params.prime) * lam_rest
    return Spectrum(((lam_rest, n - rank(shifted)),))


def diagonalize(params: CombParams) -> Diagonalization:
    """Explicit diagonalization P A P^-1 = diag(x n + y, y, ..., y).

    P's rows are an eigenbasis (A is symmetric, so row and column
    eigenvectors coincide): the all-ones vector first, then the kernel
    basis of J spanning the y-eigenspace.  Raises DefectiveMatrixError in
    the merged-eigenvalue case, where the eigenspaces do not fill GF(p)^n.
    """
    prime = params.prime
    p = prime.p
    n = params.n
    a = comb_matrix(params)
    if params.x == 0:
        return Diagonalization(Matrix.identity(n, prime), a)
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
    if (transform @ a) @ inverse(transform) != diagonal:
        raise RuntimeError("eigenbasis construction failed to diagonalize")
    return Diagonalization(transform, diagonal)
