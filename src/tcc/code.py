"""Linear codes over GF(p): the codes C(A, a) and their parameters.

A solved centralizer is a [n^2, k] code whose generator rows, a (k, n^2)
int64 array of residues like every word, are the column-stacked members of
a basis.  Parameters follow the standard rules: a code of minimum distance
d detects up to d - 1 symbol errors and corrects up to floor((d - 1) / 2);
it is MDS when d meets the Singleton bound N - k + 1 exactly.

Nearest-codeword decoding classifies whole (B, N) blocks of received
words at once.  A k = 1 code, the theorem's whole family, decodes by a
plurality vote over the support of its generator at any prime; larger
dimensions score every codeword behind a hard guard on p^k.  Minimum
distance needs only one codeword per projective point, since scaling by a
nonzero constant keeps the weight.  That is deliberate: the codes this
toolkit produces have tiny dimension, where exhaustive search is exact and
cheap, so no pruning machinery is warranted.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (
    GuardExceededError,
    Prime,
    _held_residues,
    count_text,
    matmul_mod,
)

ENUMERATION_LIMIT = 1 << 20
_BLOCK = 1 << 14
# Cells of one (received words x codewords) distance block of the table decoder.
_SCORE_CELLS = 1 << 18

UNIQUE = "unique"
AMBIGUOUS = "ambiguous"


@dataclass(frozen=True, eq=False)
class LinearCode:
    """[N, k] linear code over GF(p) with a canonical (RREF) generator.

    The generator is a (k, N) int64 array of residues, held read-only with no
    copy after the check a Matrix makes (_held_residues); the zero code's is
    (0, N).  Equal codes have equal generators.
    """

    prime: Prime
    length: int
    generator: np.ndarray

    def __post_init__(self):
        g = self.generator
        if not isinstance(g, np.ndarray) or g.dtype != np.int64 or g.ndim != 2 or g.shape[1] != self.length:
            raise ValueError("generator does not match the declared code")
        _held_residues(g, self.prime.p, "generator")

    def __eq__(self, other):
        if not isinstance(other, LinearCode):
            return NotImplemented
        return self.prime == other.prime and np.array_equal(self.generator, other.generator)

    @property
    def dim(self) -> int:
        return len(self.generator)

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
    codeword: np.ndarray
    message: np.ndarray
    distance: int


def code_from_basis(code: LinearCode) -> LinearCode:
    """``code`` itself: centralizer_code already returns the checked RREF code.

    Nothing calls it.  It stays only because the benchmark trace wraps it,
    until ROADMAP items 1 and 5 retire it.
    """
    return code


def _message_block(p: int, k: int, start: int, stop: int) -> np.ndarray:
    """Messages start..stop-1 as base-p digit rows (most significant first)."""
    idx = np.arange(start, stop, dtype=np.int64)
    powers = p ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return (idx[:, None] // powers[None, :]) % p


def _encode_rows(code: LinearCode, msgs: np.ndarray) -> np.ndarray:
    """Codewords of a (B, k) block of message digit rows."""
    return matmul_mod(msgs, code.generator, code.prime.p)


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
    best = code.length + 1
    for lead in range(k):
        # Messages (0, ..., 0, 1, free digits): the lead row plus any
        # combination of the rows after it.
        free = k - 1 - lead
        for start in range(0, p**free, _BLOCK):
            msgs = _message_block(p, free, start, min(start + _BLOCK, p**free))
            words = (code.generator[lead] + matmul_mod(msgs, code.generator[lead + 1 :], p)) % p
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


def encode(code: LinearCode, msg: np.ndarray) -> np.ndarray:
    """Generator-matrix encoding of one message row of residues: msg @ G."""
    if len(msg) != code.dim:
        raise ValueError(f"message length {len(msg)} does not match code dimension {code.dim}")
    return _encode_rows(code, msg[None, :])[0]


def _vote(code: LinearCode, words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest codewords of a k = 1 code by plurality vote.

    For the generator g, the distance from r to c*g is
    #{i outside supp g : r_i != 0} + |supp g| - #{i in supp g : r_i / g_i = c},
    so the nearest codewords are the most-voted c (c = 0 collects the zeros
    on supp g) and the first minimiser is the smallest of them.
    """
    p = code.prime.p
    g = code.generator[0]
    support = np.flatnonzero(g)
    outside = np.flatnonzero(g == 0)
    # One inverse per distinct generator value, spread back over the support.
    values, where = np.unique(g[support], return_inverse=True)
    inverses = np.array([pow(int(v), -1, p) for v in values], dtype=np.int64)[where]
    # Both factors are below 2^31, so each product stays below 2^62.
    votes = np.sort(words[:, support] * inverses % p, axis=1)
    place = np.arange(len(support))
    new_run = np.ones(votes.shape, dtype=bool)
    new_run[:, 1:] = votes[:, 1:] != votes[:, :-1]
    # Length of the run of equal votes up to each place; the longest runs
    # reach their length exactly once, at their last place.
    run = place - np.maximum.accumulate(np.where(new_run, place, 0), axis=1) + 1
    most = run.max(axis=1)
    top = run == most[:, None]
    first = votes[np.arange(len(votes)), top.argmax(axis=1)]
    best = len(support) - most + np.count_nonzero(words[:, outside], axis=1)
    return best, first, np.count_nonzero(top, axis=1)


def _scan(code: LinearCode, words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest codewords by scoring every codeword, streamed in message order."""
    count = code.prime.p**code.dim
    if count > ENUMERATION_LIMIT:
        raise GuardExceededError(
            f"nearest-codeword decoding would enumerate p^k = {count_text(count)} codewords, "
            f"beyond the {ENUMERATION_LIMIT} guard"
        )
    rows = len(words)
    best = np.full(rows, code.length + 1, dtype=np.int64)
    first = np.zeros(rows, dtype=np.int64)
    ties = np.zeros(rows, dtype=np.int64)
    for start in range(0, count, _BLOCK):
        table = _encode_rows(code, _message_block(code.prime.p, code.dim, start, min(start + _BLOCK, count)))
        columns = np.ascontiguousarray(table.T)
        step = max(1, _SCORE_CELLS // len(table))
        for lo in range(0, rows, step):
            block = words[lo : lo + step]
            # One position at a time: no (rows, codewords, N) temporary; N < 2^15.
            dists = np.zeros((len(block), len(table)), dtype=np.int16)
            for i in range(code.length):
                dists += block[:, i, None] != columns[i]
            there = slice(lo, lo + len(block))
            low = dists.min(axis=1)
            hits = np.count_nonzero(dists == low[:, None], axis=1)
            better = low < best[there]
            ties[there] = np.where(better, hits, ties[there] + (low == best[there]) * hits)
            first[there] = np.where(better, start + dists.argmin(axis=1), first[there])
            best[there] = np.minimum(low, best[there])
    return best, first, ties


def _nearest(code: LinearCode, words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of a (B, N) block of received words: the best distance, the
    first minimiser's index in message order and the number of minimisers."""
    if code.dim == 1:
        return _vote(code, words)
    return _scan(code, words)


def decode_nearest(code: LinearCode, word: np.ndarray) -> DecodeResult:
    """Nearest-codeword decoding of one row of residues, with explicit tie reporting.

    A strict minimizer comes back as UNIQUE; ties come back as AMBIGUOUS
    carrying the first minimizer in message enumeration order, never
    silently broken, since uniqueness inside the packing radius is exactly
    what correction guarantees rest on.
    """
    if len(word) != code.length:
        raise ValueError(f"word length {len(word)} does not match code length {code.length}")
    best, first, ties = _nearest(code, word[None, :])
    index = int(first[0])
    message = _message_block(code.prime.p, code.dim, index, index + 1)[0]
    return DecodeResult(
        status=UNIQUE if ties[0] == 1 else AMBIGUOUS,
        codeword=encode(code, message),
        message=message,
        distance=int(best[0]),
    )
