"""Combinatorial matrices x*J + y*I over GF(p) and their spectra.

J is the all-ones matrix, I the identity.  Row sums show that the all-ones
vector u satisfies A u = (x n + y) u, and the y-eigenspace is the null
space of x*J, i.e. the zero-coordinate-sum hyperplane.  So the spectrum is
{x n + y, y} with geometric multiplicities 1 and n - 1, except that over
GF(p) the two eigenvalues can merge (p | x n), in which case the matrix is
defective unless it is scalar: A - y*I = x*J has rank 1, so the single
eigenvalue y has multiplicity n - 1.  When A is diagonalizable it is
similar to diag(x n + y, y, ..., y).  eigen_scan, which computes
multiplicities from ranks for any square matrix, checks these formulas.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import MAX_ORDER, GuardExceededError, Matrix, Prime, _hessenberg, matmul_mod, rank

# The scan evaluates a degree-n polynomial at all p residues and solves one rank
# problem per root.  That would stay cheap well past this cap; the cap is kept so
# that `spectrum` output keeps its bytes (it prints "skipped (p > 997)" above it).
EIGEN_SCAN_MAX_P = 997


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


def comb_matrix(params: CombParams) -> Matrix:
    """The symmetric matrix with x + y on the diagonal and x elsewhere."""
    n = params.n
    data = np.full((n, n), params.x, dtype=np.int64)
    np.fill_diagonal(data, (params.x + params.y) % params.prime.p)
    return Matrix(data, params.prime)


def _char_poly(m: Matrix) -> np.ndarray:
    """Coefficients of det(X*I - m) mod p, constant term first.

    m is first reduced to upper Hessenberg form H by similarity (_hessenberg).
    The characteristic polynomials p_k of H's leading k x k blocks then
    follow the Hessenberg recurrence (Cohen, GTM 138, Algorithm 2.2.9),
    0-indexed:
    p_{k+1} = (X - h_kk) p_k - sum_{i<k} h_ik (h_{i+1,i} ... h_{k,k-1}) p_i.
    """
    p, n = m.prime.p, m.rows
    h = _hessenberg(m.array, p, mix=False)[0]
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    # chain[i] = h_{i+1,i} ... h_{k,k-1}, the subdiagonal product from row i+1 down to row k.
    chain = np.zeros(0, dtype=np.int64)
    for k in range(n):
        if k:
            chain = np.append(chain, 1) * h[k, k - 1] % p
        step = np.zeros(n + 1, dtype=np.int64)
        step[1:] = polys[k, :-1]
        step -= h[k, k] * polys[k] + matmul_mod(h[:k, k] * chain % p, polys[:k], p)
        polys[k + 1] = step % p
    return polys[n]


def eigen_scan(m: Matrix) -> Spectrum:
    """Spectrum of any square matrix by testing every field element.

    The characteristic polynomial det(X*I - m) is evaluated at all p
    residues at once; where it is nonzero, m - lambda*I is invertible and
    lambda is no eigenvalue.  At each root the geometric multiplicity is
    the nullity of m - lambda*I, computed exactly via rank.  Cost is
    O(n^3 + p * n) plus one O(n^3) rank per distinct eigenvalue.
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
    field = np.arange(p, dtype=np.int64)
    values = np.zeros(p, dtype=np.int64)
    for coeff in _char_poly(m)[::-1]:
        values = (values * field + coeff) % p
    ident = np.eye(n, dtype=np.int64)
    roots = np.flatnonzero(values == 0).tolist()
    return Spectrum(tuple((lam, n - rank(Matrix((m.array - lam * ident) % p, m.prime))) for lam in roots))


def comb_spectrum(params: CombParams) -> Spectrum:
    """Spectrum of x*J + y*I from the structure of J, in O(1).

    Generic case (x != 0, eigenvalues distinct mod p): {(x n + y, 1),
    (y, n - 1)}.  Scalar case (x == 0): {(y, n)}.  Merged case (x != 0
    but p | x n): a single eigenvalue y of multiplicity n - 1, the
    nullity of the rank-1 matrix A - y*I = x*J.
    """
    p = params.prime.p
    n = params.n
    lam_ones = (params.x * n + params.y) % p
    lam_rest = params.y
    if params.x == 0:
        return Spectrum(((lam_rest, n),))
    if lam_ones == lam_rest:
        return Spectrum(((lam_rest, n - 1),))
    return Spectrum(tuple(sorted(((lam_ones, 1), (lam_rest, n - 1)))))
