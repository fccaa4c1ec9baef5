"""Linear codes of length n^2 built from centralizer bases.

A dimension-k basis of n x n matrices becomes a [n^2, k] code over GF(p)
by column-stacking each basis matrix into a generator row.  Parameters
follow the standard rules: a code of minimum distance d detects up to
d - 1 symbol errors and corrects up to floor((d - 1) / 2); it is MDS when
d meets the Singleton bound N - k + 1 exactly.

Nearest-codeword decoding enumerates the full message space behind a
hard guard; minimum distance needs only one codeword per projective point,
since scaling by a nonzero constant keeps the weight.  That is deliberate:
the codes this toolkit produces have tiny dimension, where exhaustive
search is exact and cheap, so no pruning machinery is warranted.
"""

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .centralizer import CentralizerBasis
from .linalg import (
    FieldMismatchError,
    GuardExceededError,
    Matrix,
    Prime,
    Vector,
    count_text,
    matmul_mod,
    rref,
    vec,
)

ENUMERATION_LIMIT = 1 << 20
_BLOCK = 1 << 14
# Cache the codeword table only while it stays comfortably in memory.
_TABLE_CELL_LIMIT = 1 << 22

UNIQUE = "unique"
AMBIGUOUS = "ambiguous"


class LinearCode:
    """[N, k] linear code over GF(p) with a canonical (RREF) generator.

    The zero code (k = 0) is representable and carries no generator.
    """

    def __init__(self, prime: Prime, length: int, generator: Matrix | None, pivots: tuple[int, ...]):
        if generator is not None:
            if generator.prime != prime or generator.cols != length:
                raise ValueError("generator does not match the declared code")
            if len(pivots) != generator.rows:
                raise ValueError("generator must have full row rank")
        self.prime = prime
        self.length = length
        self.generator = generator
        self.pivots = pivots
        self._table: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return 0 if self.generator is None else self.generator.rows

    @classmethod
    def from_generator(cls, rows: Matrix) -> "LinearCode":
        """Build a code from any spanning set of rows, canonicalized by RREF."""
        reduced, rk, pivots = rref(rows)
        if rk == 0:
            return cls(rows.prime, rows.cols, None, ())
        gen = Matrix(reduced.array[:rk], rows.prime)
        return cls(rows.prime, rows.cols, gen, pivots)

    def __repr__(self):
        return f"LinearCode([{self.length}, {self.dim}] over GF({self.prime.p}))"


@dataclass(frozen=True)
class CodeReport:
    """The [N, k, d] parameters with the derived detection figures."""

    length: int
    dim: int
    min_distance: int
    mds: bool
    detect: int
    correct: int
    rate: tuple[int, int]  # exact (k, N), never a float


@dataclass(frozen=True)
class DecodeResult:
    status: str  # UNIQUE or AMBIGUOUS
    codeword: Vector
    message: Vector
    distance: int


def code_from_basis(basis: CentralizerBasis) -> LinearCode:
    """Vectorize a centralizer basis into a code of length n^2."""
    n = basis.spec.n
    prime = basis.spec.prime
    if basis.dim == 0:
        return LinearCode(prime, n * n, None, ())
    rows = Matrix(np.vstack([vec(b).array for b in basis.basis]), prime)
    return LinearCode.from_generator(rows)


def _guard_messages(code: LinearCode, context: str) -> int:
    count = code.prime.p**code.dim
    if count > ENUMERATION_LIMIT:
        raise GuardExceededError(
            f"{context} would enumerate p^k = {count_text(count)} codewords, beyond the {ENUMERATION_LIMIT} guard"
        )
    return count


def _message_block(p: int, k: int, start: int, stop: int) -> np.ndarray:
    """Messages start..stop-1 as base-p digit rows (most significant first)."""
    idx = np.arange(start, stop, dtype=np.int64)
    if k == 0:
        return np.zeros((len(idx), 0), dtype=np.int64)
    powers = p ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return (idx[:, None] // powers[None, :]) % p


def _codeword_blocks(code: LinearCode, count: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    p = code.prime.p
    k = code.dim
    gen = code.generator.array if code.generator is not None else None
    for start in range(0, count, _BLOCK):
        msgs = _message_block(p, k, start, min(start + _BLOCK, count))
        if gen is None:
            words = np.zeros((len(msgs), code.length), dtype=np.int64)
        else:
            words = matmul_mod(msgs, gen, p)
        yield start, msgs, words


def min_distance(code: LinearCode) -> int:
    """Minimum Hamming weight over all nonzero codewords, by enumeration.

    Every nonzero codeword is a nonzero multiple of exactly one codeword
    whose message has 1 as its first nonzero digit, so only those
    (p^k - 1) / (p - 1) codewords are scored; for k = 1 that is the
    generator row alone.
    """
    if code.dim == 0:
        raise ValueError("zero code has no minimum distance")
    p = code.prime.p
    k = code.dim
    count = (p**k - 1) // (p - 1)
    if count > ENUMERATION_LIMIT:
        raise GuardExceededError(
            f"minimum distance would enumerate (p^k - 1)/(p - 1) = {count_text(count)} codewords, "
            f"beyond the {ENUMERATION_LIMIT} guard"
        )
    gen = code.generator.array
    best = code.length + 1
    for lead in range(k):
        # Messages (0, ..., 0, 1, free digits): the lead row plus any
        # combination of the rows after it.
        free = k - 1 - lead
        for start in range(0, p**free, _BLOCK):
            msgs = _message_block(p, free, start, min(start + _BLOCK, p**free))
            words = (gen[lead] + matmul_mod(msgs, gen[lead + 1 :], p)) % p
            best = min(best, int(np.count_nonzero(words, axis=1).min()))
    return best


def analyze(code: LinearCode) -> CodeReport:
    """Full parameter report: [N, k, d], MDS flag, capacities, exact rate."""
    if code.dim == 0:
        raise ValueError("zero code has no parameters to report")
    n_len = code.length
    k = code.dim
    d = min_distance(code)
    if d > n_len - k + 1:
        raise RuntimeError(f"Singleton bound violated (d={d} > {n_len - k + 1}); distance search is broken")
    return CodeReport(
        length=n_len,
        dim=k,
        min_distance=d,
        mds=(d == n_len - k + 1),
        detect=d - 1,
        correct=(d - 1) // 2,
        rate=(k, n_len),
    )


def encode(code: LinearCode, msg: Vector) -> Vector:
    """Generator-matrix encoding: msg @ G."""
    if msg.prime != code.prime:
        raise FieldMismatchError(f"message over GF({msg.prime.p}) for a GF({code.prime.p}) code")
    if len(msg) != code.dim:
        raise ValueError(f"message length {len(msg)} does not match code dimension {code.dim}")
    if code.generator is None:
        return Vector(np.zeros(code.length, dtype=np.int64), code.prime)
    return Vector(matmul_mod(msg.array, code.generator.array, code.prime.p), code.prime)


def is_codeword(code: LinearCode, word: Vector) -> bool:
    """Membership via the RREF generator: re-encode the pivot coordinates."""
    if word.prime != code.prime:
        raise FieldMismatchError(f"word over GF({word.prime.p}) for a GF({code.prime.p}) code")
    if len(word) != code.length:
        raise ValueError(f"word length {len(word)} does not match code length {code.length}")
    if code.generator is None:
        return word.weight() == 0
    coeffs = word.array[list(code.pivots)]
    recon = matmul_mod(coeffs, code.generator.array, code.prime.p)
    return bool(np.array_equal(recon, word.array))


def hamming_distance(u: Vector, v: Vector) -> int:
    if u.prime != v.prime:
        raise FieldMismatchError("Hamming distance needs operands over the same field")
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return int(np.count_nonzero(u.array != v.array))


def _codeword_table(code: LinearCode, count: int) -> np.ndarray | None:
    if count * code.length > _TABLE_CELL_LIMIT:
        return None
    if code._table is None:
        blocks = [words for _, _, words in _codeword_blocks(code, count)]
        code._table = np.vstack(blocks)
    return code._table


def decode_nearest(code: LinearCode, word: Vector) -> DecodeResult:
    """Exhaustive nearest-codeword decoding with explicit tie reporting.

    Scores every codeword by Hamming distance.  A strict minimizer comes
    back as UNIQUE; ties come back as AMBIGUOUS carrying the first
    minimizer in message enumeration order, never silently broken, since
    uniqueness inside the packing radius is exactly what correction
    guarantees rest on.
    """
    if word.prime != code.prime:
        raise FieldMismatchError(f"word over GF({word.prime.p}) for a GF({code.prime.p}) code")
    if len(word) != code.length:
        raise ValueError(f"word length {len(word)} does not match code length {code.length}")
    count = _guard_messages(code, "nearest-codeword decoding")

    table = _codeword_table(code, count)
    if table is not None:
        dists = np.count_nonzero(table != word.array[None, :], axis=1)
        best = int(dists.min())
        hits = np.nonzero(dists == best)[0]
        best_idx, n_hits = int(hits[0]), len(hits)
    else:
        best = code.length + 1
        best_idx = 0
        n_hits = 0
        for start, _, words in _codeword_blocks(code, count):
            dists = np.count_nonzero(words != word.array[None, :], axis=1)
            block_best = int(dists.min())
            if block_best < best:
                best = block_best
                best_idx = start + int(np.nonzero(dists == block_best)[0][0])
                n_hits = int(np.count_nonzero(dists == block_best))
            elif block_best == best:
                n_hits += int(np.count_nonzero(dists == block_best))

    message = Vector(_message_block(code.prime.p, code.dim, best_idx, best_idx + 1)[0], code.prime)
    return DecodeResult(
        status=UNIQUE if n_hits == 1 else AMBIGUOUS,
        codeword=encode(code, message),
        message=message,
        distance=best,
    )
