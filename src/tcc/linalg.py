"""Exact dense linear algebra over prime fields GF(p).

Matrices are values that carry their field with them, and every
operation is a pure function on residues in [0, p): products (matmul_mod,
on int64 arrays), Gauss-Jordan elimination, kernel bases, inverses,
Kronecker products and the Hessenberg reduction, the primitives of
spectra, solves and codes.  Whatever
makes an array reduces it; a Matrix, like a code's generator, checks it
once (_held_residues) and holds it read-only, with no copy.

Every result is exact.  numpy runs int64 products without BLAS, so a
large 2-D product whose dot products stay below 2^52 runs as a float64
BLAS product instead, as in FFLAS-FFPACK, and is reduced in float64 to
the same int64 residues (matmul_mod proves both steps exact).  Each BLAS call
is kept small enough for OpenBLAS to run it on the calling thread.
"""

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Desk-scale caps: order-64 square matrices flatten to length-4096 words.
MAX_ORDER = 64
MAX_DIM = MAX_ORDER**2
MAX_PRIME = 2**31 - 1
# Seed of the block-start similarities in _hessenberg; no result depends on it.
_HESSENBERG_SEED = 0
# A matrix file integer: int() alone would also read "1_0" and non-ASCII digits.
_INTEGER = re.compile(r"[+-]?[0-9]+")
# A matrix file row's fields, joined by single spaces.
_INTEGERS = re.compile(r"[+-]?[0-9]+(?: [+-]?[0-9]+)*")
# A 2-D product takes float64 BLAS from this many multiply-adds (m k n) and
# this inner dimension up.  Below either, the conversions, the reduction and
# the call cost about what BLAS saves, so the product stays in int64.
_FLOAT_MIN_WORK = 1 << 14
_FLOAT_MIN_INNER = 8
# Most multiply-adds in one BLAS call: OpenBLAS runs a dgemm of m k n <= 2^18
# on the calling thread, where a larger one wakes threads that keep spinning.
_BLAS_MAX_WORK = 1 << 18


class FieldMismatchError(ValueError):
    """Operands live over different prime fields."""


class SingularMatrixError(ValueError):
    """Square matrix has no inverse over its field."""


class GuardExceededError(RuntimeError):
    """An exhaustive computation would exceed its hard work limit."""


def count_text(count: int) -> str:
    """A guard's computed size for its message.

    Counts such as p^k can run to thousands of digits, past what Python
    converts to a string, so beyond 30 digits only the magnitude is given.
    """
    return str(count) if count < 10**30 else f"about 10^{int(math.log10(count))}"


class MatrixFormatError(ValueError):
    """Matrix text input is malformed; carries the offending line/column."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n below 3,215,031,751.

    The witnesses 2, 3, 5 and 7 decide every n below that bound exactly
    (Pomerance, Selfridge and Wagstaff, Math. Comp. 35, 1980), and it
    exceeds MAX_PRIME; past it the answer is not exact, so ValueError.
    """
    if n >= 3_215_031_751:
        raise ValueError(f"is_prime is exact only below 3215031751, got {n}")
    bases = (2, 3, 5, 7)
    if n < 2 or n in bases:
        return n in bases
    if any(n % q == 0 for q in bases):
        return False
    # n - 1 = d 2^s with d odd.
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for q in bases:
        x = pow(q, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Prime:
    """A validated prime field characteristic."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or isinstance(self.p, bool):
            raise TypeError(f"field characteristic must be an int, got {type(self.p).__name__}")
        if not 2 <= self.p <= MAX_PRIME:
            raise ValueError(f"field characteristic must lie in [2, {MAX_PRIME}], got {self.p}")
        if not is_prime(self.p):
            raise ValueError(f"field characteristic must be prime, got {self.p}")

    def residue(self, value, name: str) -> int:
        """``value`` reduced mod p; ints and numpy integers only, never bool."""
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise TypeError(f"{name} must be an int, got {type(value).__name__}")
        return int(value) % self.p

    def __repr__(self):
        return f"Prime({self.p})"


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (possibly batched) matrix product mod p of reduced residues, as int64.

    A 2-D (m, k) by (k, n) product with k (p-1)^2 < 2^52 runs in float64
    BLAS (_float_matmul_mod) when it is large enough to gain: m and n at
    least 2, _FLOAT_MIN_INNER <= k <= _BLAS_MAX_WORK // 9, and m k n at
    least _FLOAT_MIN_WORK.  It is exact: every product of two residues is
    at most (p-1)^2 and every partial sum is a sum of such nonnegative
    products, so all are integers below 2^52, exact in float64 in any
    order of summation.  Each entry x of the product is then reduced in
    float64 as x - p floor(fl(x/p)), which is x mod p for every integer
    0 <= x < 2^52.  Write x = q p + r with 0 <= r < p; then x/p lies in
    [q, q + 1 - 1/p], and q and q + 1 are doubles.  Rounding to nearest is
    monotone, so fl(x/p) >= q, and it reaches q + 1 only if x/p is within
    half a spacing of q + 1.  The doubles just below q + 1 are at most
    (q + 1) 2^-52 apart, so that needs 1/p <= (q + 1) 2^-53, that is
    (q + 1) p >= 2^53; but (q + 1) p <= x + p < 2^52 + 2^31.  So the floor
    is q, q p <= x is exact, and so is x - q p.

    Every other product stays in int64: one plain product when its dot
    products cannot overflow.  Otherwise b splits into 16-bit limbs,
    b = hi * 2^16 + lo: for p < 2^31 and an inner dimension up to
    MAX_DIM = 2^12, each limb's dot products stay below
    2^12 * 2^31 * 2^16 = 2^59, so the recombined sum fits int64 too.
    """
    inner = a.shape[-1]
    if (
        a.ndim == b.ndim == 2
        and inner * (p - 1) ** 2 < 2**52
        and min(a.shape[0], b.shape[1]) >= 2
        and _FLOAT_MIN_INNER <= inner <= _BLAS_MAX_WORK // 9
        and a.shape[0] * inner * b.shape[1] >= _FLOAT_MIN_WORK
    ):
        return _float_matmul_mod(a, b, p)
    if inner * (p - 1) ** 2 < 2**63:
        return (a @ b) % p
    return ((a @ (b >> 16)) % p * 65536 + a @ (b & 65535)) % p


def _spans(size: int, most: int) -> list[tuple[int, int]]:
    """[0, size) cut into the fewest near-equal spans of at most ``most``; each has at least 2 when size >= 2 and most >= 3."""
    count = -(-size // most)
    return [(i * size // count, (i + 1) * size // count) for i in range(count)]


def _float_matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for 2-D residue arrays whose float64 product is exact, as matmul_mod admits them.

    The product runs in blocks of near-equal rows and columns, one
    _blas_product call each.  A block is at most _BLAS_MAX_WORK // (3 k)
    columns wide, at least 3 since k <= _BLAS_MAX_WORK // 9, and as many
    rows tall as keep rows * k * columns <= _BLAS_MAX_WORK, so OpenBLAS
    runs it on the calling thread; it has at least 2 rows and 2 columns,
    so it is never a gemv, whose threads start at other sizes.  Each block
    is reduced (see matmul_mod) into the one int64 result, so no float
    temporary is larger than a block.
    """
    rows, inner, cols = a.shape[0], a.shape[1], b.shape[1]
    out = np.empty((rows, cols), dtype=np.int64)
    fb = b.astype(np.float64)
    col_spans = _spans(cols, _BLAS_MAX_WORK // (3 * inner))
    width = -(-cols // len(col_spans))
    row_spans = _spans(rows, _BLAS_MAX_WORK // (inner * width))
    height = -(-rows // len(row_spans))
    prod, quot = np.empty((height, width)), np.empty((height, width))
    for lo, hi in row_spans:
        fa = a[lo:hi].astype(np.float64)
        for left, right in col_spans:
            x, q = prod[: hi - lo, : right - left], quot[: hi - lo, : right - left]
            _blas_product(fa, fb[:, left:right], x)
            np.divide(x, p, out=q)
            np.floor(q, out=q)
            q *= p
            x -= q
            out[lo:hi, left:right] = x
    return out


def _blas_product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out = a @ b in float64: the one place tcc calls BLAS."""
    np.matmul(a, b, out=out)


def _held_residues(arr: np.ndarray, p: int, name: str) -> np.ndarray:
    """``arr`` itself, marked read-only, once every entry is a residue in [0, p); else ValueError."""
    # Viewed as uint64 a negative entry is at least 2^63, so one maximum checks both ends.
    if arr.size and arr.view(np.uint64).max() >= p:
        raise ValueError(f"{name} entries must be residues in [0, {p})")
    arr.flags.writeable = False
    return arr


class Matrix:
    """Immutable dense matrix over GF(p), a validated value.

    Entries must already be residues in [0, p), else ValueError; an int64
    array is held with no copy, shared and marked read-only.  Equal field and
    entries make equal, hashable matrices; arithmetic runs on ``array``.
    """

    __slots__ = ("prime", "_data")

    def __init__(self, data, prime: Prime):
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 2 or not all(1 <= size <= MAX_DIM for size in arr.shape):
            raise ValueError(f"matrix shape must be 2 axes of 1..{MAX_DIM}, got {arr.shape}")
        self.prime = prime
        self._data = _held_residues(arr, prime.p, "matrix")

    @property
    def array(self) -> np.ndarray:
        return self._data

    @property
    def rows(self) -> int:
        return self._data.shape[0]

    @property
    def cols(self) -> int:
        return self._data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._data.shape

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.prime == other.prime and np.array_equal(self._data, other._data)

    def __hash__(self):
        return hash((self.prime, self.shape, self._data.tobytes()))

    def __repr__(self):
        return f"Matrix(GF({self.prime.p}), {self.rows}x{self.cols})"

    def __str__(self):
        return "\n".join("[" + " ".join(map(str, r)) + "]" for r in self._data.tolist())


class RrefResult(NamedTuple):
    matrix: "Matrix"
    rank: int
    pivots: tuple[int, ...]


def _rref_array(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """In-place Gauss-Jordan on a writable int64 array of residues; returns (a, pivot cols).

    Reduction is delayed, as in FFLAS-FFPACK (Dumas, Giorgi and Pernet,
    ACM TOMS 35(3), 2008).  A pivot step reduces only its column, which
    gives the pivot and the multipliers, and the pivot row it normalises.
    Each update subtracts a multiplier times a pivot-row entry, both
    residues, so after u unreduced updates every entry lies in
    (-u (p-1)^2, p).  The block is therefore reduced only once
    u = (2^63 - 1 - p) // (p-1)^2 updates have piled up (2 at p = 2^31 - 1,
    about 2.6e17 at p = 7), and once at the end.

    Updates touch only the trailing columns >= c: the pivot row is 0 mod p
    left of its pivot, no later step reads those columns, and the final
    reduction brings them to residues.
    """
    rows, cols = a.shape
    budget = (2**63 - 1 - p) // (p - 1) ** 2
    pending = 0
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = a[:, c] % p
        nz = col[r:].nonzero()[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
            col[r], col[pr] = col[pr], col[r]
        block = a[:, c:]
        row = block[r]
        row %= p
        row *= pow(int(col[r]), -1, p)
        row %= p
        col[r] = 0
        hit = col.nonzero()[0]
        if hit.size:
            if pending == budget:
                block %= p
                pending = 0
            pending += 1
            # Mostly-zero pivot columns take the compressed update; dense ones
            # update in place to avoid the gather/scatter copies.
            if hit.size * 2 > rows:
                block -= col[:, None] * row
            else:
                block[hit] -= col[hit, None] * row
        pivots.append(c)
        r += 1
    a %= p
    return a, pivots


def rref(m: Matrix) -> RrefResult:
    """Reduced row-echelon form via Gauss-Jordan elimination.

    The RREF over a field is unique, so this doubles as a canonical form:
    two row spaces are equal iff their RREFs are identical.  Pivot columns
    are returned in strictly increasing order; rank is their count.
    """
    a, pivots = _rref_array(m.array.copy(), m.prime.p)
    return RrefResult(Matrix(a, m.prime), len(pivots), tuple(pivots))


def _hessenberg(m: np.ndarray, p: int, mix: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H, S, S^-1) with H = S m S^-1 upper Hessenberg, for a square array of residues.

    Each pivoted row operation below the subdiagonal is paired with its
    inverse column operation.  They run on one array [[H, S], [S^-1, 0]]:
    a row operation on its top n rows acts on H and S, a column operation on
    its left n columns on H and S^-1, so nothing is inverted.  A column
    already zero below its subdiagonal leaves h_(j+1, j) = 0, and a new
    block starts at j + 1.  With ``mix``, before each block starts, at
    column s, a seeded similarity adds random multiples of row s to the rows
    below it, so the block grows from a random vector of the quotient by the
    blocks before it.  Then the number of blocks is, in practice, the
    largest geometric multiplicity of m's eigenvalues; for a diagonal m,
    left unmixed, it would be n.
    """
    n = len(m)
    w = np.zeros((2 * n, 2 * n), dtype=np.int64)
    w[:n, :n] = m
    w[:n, n:] = w[n:, :n] = np.eye(n, dtype=np.int64)
    rng = np.random.default_rng(_HESSENBERG_SEED)

    def row_op(i: int, mult: np.ndarray):
        # Rows i+1 .. n-1 gain mult * row i; column i loses columns i+1 .. n-1 weighted by mult.
        w[i + 1 : n] = (w[i + 1 : n] + mult[:, None] * w[i]) % p
        w[:, i] = (w[:, i] - matmul_mod(w[:, i + 1 : n], mult, p)) % p

    for j in range(n - 1):
        if mix and (j == 0 or w[j, j - 1] == 0):
            row_op(j, rng.integers(0, p, n - j - 1))
        nz = w[j + 1 : n, j].nonzero()[0]
        if nz.size == 0:
            continue
        r = j + 1 + int(nz[0])
        w[[j + 1, r]] = w[[r, j + 1]]
        w[:, [j + 1, r]] = w[:, [r, j + 1]]
        row_op(j + 1, (p - w[j + 2 : n, j]) * pow(int(w[j + 1, j]), -1, p) % p)
    return w[:n, :n], w[:n, n:], w[n:, :n]


def rank(m: Matrix) -> int:
    return rref(m).rank


def kernel_basis(m: Matrix) -> np.ndarray:
    """Deterministic basis of the right null space of ``m``, one row per vector.

    One basis row per RREF free column, taken in increasing column order:
    the free coordinate is set to 1 and each pivot coordinate absorbs the
    negated RREF entry.  Returns an int64 array of shape (cols - rank(m),
    cols) whose every row v satisfies m @ v == 0.
    """
    reduced, _, pivots = rref(m)
    free = np.delete(np.arange(m.cols), pivots)
    basis = np.zeros((len(free), m.cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, list(pivots)] = (-reduced.array[: len(pivots), free].T) % m.prime.p
    return basis


def inverse(m: Matrix) -> Matrix:
    """Inverse over GF(p); raises SingularMatrixError when rank is deficient."""
    if not m.is_square:
        raise ValueError(f"only square matrices have inverses, got {m.rows}x{m.cols}")
    n = m.rows
    aug = np.hstack([m.array, np.eye(n, dtype=np.int64)])
    reduced, pivots = _rref_array(aug, m.prime.p)
    if len(pivots) < n or pivots[n - 1] != n - 1:
        raise SingularMatrixError("matrix not invertible")
    # A copy: a view of the right half would keep the whole n x 2n buffer alive.
    return Matrix(reduced[:, n:].copy(), m.prime)


def kronecker(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product: block (i, j) equals a[i, j] * b."""
    if a.prime != b.prime:
        raise FieldMismatchError(f"cannot mix GF({a.prime.p}) and GF({b.prime.p}) operands")
    return Matrix(np.kron(a.array, b.array) % a.prime.p, a.prime)


def _integer(tok: str) -> int:
    if not _INTEGER.fullmatch(tok):
        raise ValueError(tok)
    return int(tok)


def _row_entries(parts: list[str], p: int) -> list[int] | None:
    """A data row's entries from one match and one conversion, or None unless each is an integer in [0, p)."""
    if not _INTEGERS.fullmatch(" ".join(parts)):
        return None
    try:
        vals = list(map(int, parts))
    except ValueError:
        # Past int()'s digit limit.
        return None
    return vals if min(vals) >= 0 and max(vals) < p else None


def parse_matrix_text(text: str) -> Matrix:
    """Parse the plain matrix interchange format.

    Line 1 is ``p rows cols``, each axis at most MAX_ORDER, since a file
    holds A; each of the following ``rows`` lines holds ``cols``
    whitespace-separated integers in [0, p).  Lines end at a line feed
    only, never at another Unicode line break.  Every field is an ASCII
    decimal integer with an optional sign.  Out-of-range entries are
    rejected rather than silently reduced.
    """
    lines = text.split("\n")
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise MatrixFormatError("line 1: empty input, expected 'p rows cols' header", line=1)

    header = lines[0].split()
    if len(header) != 3:
        raise MatrixFormatError(
            f"line 1: expected 'p rows cols' header, got {len(header)} fields", line=1
        )
    try:
        p, rows, cols = (_integer(tok) for tok in header)
    except ValueError:
        raise MatrixFormatError("line 1: header fields must be integers", line=1) from None
    try:
        prime = Prime(p)
    except (TypeError, ValueError) as exc:
        raise MatrixFormatError(f"line 1: {exc}", line=1) from None
    if not (1 <= rows <= MAX_ORDER and 1 <= cols <= MAX_ORDER):
        raise MatrixFormatError(
            f"line 1: matrix shape must be within 1..{MAX_ORDER} per axis, got {rows}x{cols}", line=1
        )
    if len(lines) - 1 != rows:
        raise MatrixFormatError(
            f"line {len(lines)}: expected {rows} data rows, got {len(lines) - 1}",
            line=len(lines),
        )

    data = np.zeros((rows, cols), dtype=np.int64)
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != cols:
            raise MatrixFormatError(
                f"line {i}: expected {cols} entries, got {len(parts)}", line=i
            )
        vals = _row_entries(parts, p)
        if vals is not None:
            data[i - 2] = vals
            continue
        # Only a bad row is walked token by token, to name its first bad field.
        for j, tok in enumerate(parts, start=1):
            try:
                val = _integer(tok)
            except ValueError:
                raise MatrixFormatError(
                    f"line {i}, column {j}: '{tok}' is not an integer", line=i, column=j
                ) from None
            if not 0 <= val < p:
                raise MatrixFormatError(
                    f"line {i}, column {j}: entry {val} outside [0, {p})", line=i, column=j
                )
            data[i - 2, j - 1] = val
    return Matrix(data, prime)

