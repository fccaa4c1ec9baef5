"""Fixed-weight symbol-error channel: exhaustive sweeps and Monte Carlo.

The error model corrupts exactly t positions, each to a uniformly chosen
different symbol.  Worst-case weight-t guarantees are what the codes
promise, so fixed-weight sweeps test them directly; an i.i.d. flip
channel would not.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .code import LinearCode, _codeword_blocks, _encode_rows, _message_block, _nearest
from .linalg import GuardExceededError, count_text

EXHAUSTIVE_LIMIT = 1 << 24
# Cells of one (B, N) block of received words handed to the decoder.
_BATCH_CELLS = 1 << 14


@dataclass(frozen=True)
class ChannelStats:
    """Decoding outcome counts; merging is plain summation."""

    trials: int
    successes: int
    ambiguous: int
    miscorrected: int

    def __post_init__(self):
        if self.successes + self.ambiguous + self.miscorrected != self.trials:
            raise ValueError("outcome counts must sum to the trial count")

    def __add__(self, other: "ChannelStats") -> "ChannelStats":
        return ChannelStats(
            self.trials + other.trials,
            self.successes + other.successes,
            self.ambiguous + other.ambiguous,
            self.miscorrected + other.miscorrected,
        )


def inject_errors(word: np.ndarray, p: int, t: int, rng: np.random.Generator) -> np.ndarray:
    """Corrupt exactly t positions of a row of residues mod p, each to a uniformly chosen other symbol."""
    if t > len(word):
        raise ValueError(f"cannot corrupt {t} of {len(word)} positions")
    out = word.copy()
    positions = rng.choice(len(word), size=t, replace=False)
    # Adding a uniform nonzero offset is uniform over the p - 1 other symbols.
    out[positions] = (out[positions] + rng.integers(1, p, size=t)) % p
    return out


def _tally(code: LinearCode, received: np.ndarray, sent: np.ndarray) -> ChannelStats:
    """Decode a (B, N) block and classify each row against its sent message digits."""
    _, first, ties = _nearest(code, received)
    # The decoder has passed its guard, so p^k fits in int64 here.
    powers = code.prime.p ** np.arange(code.dim - 1, -1, -1, dtype=np.int64)
    unique = ties == 1
    trials, successes = len(received), int(np.count_nonzero(unique & (first == sent @ powers)))
    ambiguous = trials - int(np.count_nonzero(unique))
    return ChannelStats(trials, successes, ambiguous, trials - successes - ambiguous)


def exhaustive_stats(code: LinearCode, t: int) -> ChannelStats:
    """Decode every message under every weight-t error pattern.

    Guarded by the exact work product C(N, t) * (p-1)^t * p^k, so a sweep
    can never silently explode.  For each position set, the (p-1)^t offset
    rows are added to every codeword and decoded in bounded blocks.
    """
    p = code.prime.p
    if t > code.length:
        raise ValueError(f"weight {t} exceeds code length {code.length}")
    work = math.comb(code.length, t) * (p - 1) ** t * p**code.dim
    if work > EXHAUSTIVE_LIMIT:
        raise GuardExceededError(
            f"exhaustive sweep means {count_text(work)} decodes, beyond the {EXHAUSTIVE_LIMIT} guard; "
            "use monte_carlo instead"
        )
    offset_count = (p - 1) ** t
    stats = ChannelStats(0, 0, 0, 0)
    for _, msgs, words in _codeword_blocks(code, p**code.dim):
        step = max(1, _BATCH_CELLS // (code.length * len(words)))
        for positions in combinations(range(code.length), t):
            cols = list(positions)
            for lo in range(0, offset_count, step):
                # Offsets lo.. in product order: base-(p-1) digits shifted into 1..p-1.
                offsets = _message_block(p - 1, t, lo, min(lo + step, offset_count)) + 1
                received = np.repeat(words, len(offsets), axis=0)
                received[:, cols] = (received[:, cols] + np.tile(offsets, (len(words), 1))) % p
                stats += _tally(code, received, np.repeat(msgs, len(offsets), axis=0))
    return stats


def monte_carlo(code: LinearCode, t: int, trials: int, seed: int = 0) -> ChannelStats:
    """Seeded random (message, weight-t error) trials, decoded in blocks.

    Each trial draws its message digits, positions and offsets in the order
    inject_errors does, so the block size never changes a seed's trials.
    Reproducible for a fixed seed within one build of this package; no
    cross-implementation stream equality is promised.  The trial count
    shares the exhaustive sweep's decode budget.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if trials > EXHAUSTIVE_LIMIT:
        raise GuardExceededError(
            f"Monte Carlo run of {count_text(trials)} trials, beyond the {EXHAUSTIVE_LIMIT}-decode guard"
        )
    if t > code.length:
        raise ValueError(f"weight {t} exceeds code length {code.length}")
    rng = np.random.default_rng(seed)
    p, k, length = code.prime.p, code.dim, code.length
    block = min(trials, max(1, _BATCH_CELLS // length))
    msgs = np.empty((block, k), dtype=np.int64)
    errors = np.empty((block, length), dtype=np.int64)
    stats = ChannelStats(0, 0, 0, 0)
    for done in range(0, trials, block):
        rows = min(block, trials - done)
        errors[:rows] = 0
        for row in range(rows):
            msgs[row] = rng.integers(0, p, size=k)
            # Two statements: an assignment evaluates its value before its target.
            positions = rng.choice(length, size=t, replace=False)
            errors[row, positions] = rng.integers(1, p, size=t)
        received = (_encode_rows(code, msgs[:rows]) + errors[:rows]) % p
        stats += _tally(code, received, msgs[:rows])
    return stats
