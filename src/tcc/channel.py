"""Fixed-weight symbol-error channel: exhaustive sweeps and Monte Carlo.

The error model corrupts exactly t positions, each to a uniformly chosen
different symbol.  Worst-case weight-t guarantees are what the codes
promise, so fixed-weight sweeps test them directly; an i.i.d. flip
channel would not.  Both sweeps decode errors over the zero codeword:
for a linear code, c + e decodes uniquely exactly when e does, and back
to c exactly when e's unique nearest codeword is 0.
"""

import math
from dataclasses import astuple, dataclass
from itertools import combinations

import numpy as np

from .code import LinearCode, _message_block, _nearest
from .linalg import GuardExceededError, count_text

EXHAUSTIVE_LIMIT = 1 << 24
# Cells of one (B, N) block of exhaustive-sweep error patterns handed to the decoder.
_BATCH_CELLS = 1 << 14
# Cells of one (rows, N) chunk of Monte Carlo draws, each decoded whole; fixed, so a seed's trials follow N alone.
_DRAW_CELLS = 1 << 14


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


def _draw(rng: np.random.Generator, rows: int, length: int, t: int, p: int) -> np.ndarray:
    """A (rows, length) block of weight-t errors mod p in two generator calls, for both inject_errors and monte_carlo.

    A row's positions are the indices of its t smallest uniform keys, a uniform t-subset, and
    its t offsets in 1..p-1, uniform over the other symbols, go to them in index order.
    """
    errors = np.zeros((rows, length), dtype=np.int64)
    if t:  # argpartition has no kth = -1
        positions = np.sort(np.argpartition(rng.random((rows, length)), t - 1, axis=1)[:, :t], axis=1)
        np.put_along_axis(errors, positions, rng.integers(1, p, size=(rows, t)), axis=1)
    return errors


def inject_errors(word: np.ndarray, p: int, t: int, rng: np.random.Generator) -> np.ndarray:
    """Corrupt exactly t positions of a row of residues mod p, each to a uniformly chosen other symbol, by _draw."""
    if not 0 <= t <= len(word):
        raise ValueError(f"cannot corrupt {t} of {len(word)} positions")
    return (word + _draw(rng, 1, len(word), t, p)[0]) % p


def _tally(code: LinearCode, errors: np.ndarray) -> ChannelStats:
    """Decode a (B, N) block of errors over the zero codeword and classify each row."""
    _, first, ties = _nearest(code, errors)
    unique = ties == 1
    trials, successes = len(errors), int(np.count_nonzero(unique & (first == 0)))
    ambiguous = trials - int(np.count_nonzero(unique))
    return ChannelStats(trials, successes, ambiguous, trials - successes - ambiguous)


def _pattern_blocks(length: int, t: int, p: int, step: int):
    """Every weight-t error pattern, position set by position set, in blocks of step rows.

    Each position set runs through one (p-1)^t-row offset table in product
    order (base-(p-1) digits in 1..p-1); a nonzero code's is 19 MB at most under
    the sweep guard ([9,1,9], GF(5), t = 9).  Blocks span sets; only the last is short.
    """
    offsets = _message_block(p - 1, t, 0, (p - 1) ** t) + 1
    errors, rows = np.zeros((step, length), dtype=np.int64), 0
    for positions in combinations(range(length), t):
        lo = 0
        while lo < len(offsets):
            hi = min(len(offsets), lo + step - rows)
            errors[rows : rows + hi - lo, list(positions)] = offsets[lo:hi]
            rows, lo = rows + hi - lo, hi
            if rows == step:
                yield errors
                errors, rows = np.zeros((step, length), dtype=np.int64), 0
    if rows:
        yield errors[:rows]


def exhaustive_stats(code: LinearCode, t: int) -> ChannelStats:
    """Decode every message under every weight-t error pattern.

    Guarded by the outcome count C(N, t) * (p-1)^t * p^k, so a sweep can
    never silently explode.  Only the error patterns are decoded, in blocks
    of at most _BATCH_CELLS cells; every message shares their outcomes, so
    the counts scale by p^k.
    """
    p = code.prime.p
    if not 0 <= t <= code.length:
        raise ValueError(f"weight {t} must lie in [0, {code.length}]")
    patterns = math.comb(code.length, t) * (p - 1) ** t
    work = patterns * p**code.dim
    if work > EXHAUSTIVE_LIMIT:
        raise GuardExceededError(
            f"exhaustive sweep means {count_text(work)} outcomes from {count_text(patterns)} decoded patterns, "
            f"beyond the {EXHAUSTIVE_LIMIT} guard; use monte_carlo instead"
        )
    if code.dim == 0:  # 0 is the only codeword: every pattern decodes to it uniquely, with no offset table
        return ChannelStats(patterns, patterns, 0, 0)
    stats = ChannelStats(0, 0, 0, 0)
    for errors in _pattern_blocks(code.length, t, p, max(1, _BATCH_CELLS // code.length)):
        stats += _tally(code, errors)
    return ChannelStats(*(count * p**code.dim for count in astuple(stats)))


def monte_carlo(code: LinearCode, t: int, trials: int, seed: int = 0) -> ChannelStats:
    """Seeded random weight-t error trials, decoded in blocks over the zero codeword.

    Trials are drawn by _draw in chunks of _DRAW_CELLS // N rows, each
    decoded whole; no message is drawn, as only the error is decoded.
    Reproducible for a fixed seed within one build of this package, not
    across releases: earlier ones drew each trial's message, positions and
    offsets in turn, so their seeded counts differ.  The trial count shares
    the exhaustive sweep's decode budget.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if trials > EXHAUSTIVE_LIMIT:
        raise GuardExceededError(
            f"Monte Carlo run of {count_text(trials)} trials, beyond the {EXHAUSTIVE_LIMIT}-decode guard"
        )
    if not 0 <= t <= code.length:
        raise ValueError(f"weight {t} must lie in [0, {code.length}]")
    rng = np.random.default_rng(seed)
    p, length = code.prime.p, code.length
    draw = max(1, _DRAW_CELLS // length)
    stats = ChannelStats(0, 0, 0, 0)
    for done in range(0, trials, draw):
        stats += _tally(code, _draw(rng, min(draw, trials - done), length, t, p))
    return stats
