"""Fixed-weight symbol-error channel: exhaustive sweeps and Monte Carlo.

The error model corrupts exactly t positions, each to a uniformly chosen
different symbol.  Worst-case weight-t guarantees are what the codes
promise, so fixed-weight sweeps test them directly; an i.i.d. flip
channel would not.
"""

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .code import UNIQUE, LinearCode, decode_nearest, encode, is_codeword, _codeword_blocks, _guard_messages
from .linalg import GuardExceededError, Vector, count_text

EXHAUSTIVE_LIMIT = 1 << 24


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


def inject_errors(word: Vector, t: int, rng: np.random.Generator) -> Vector:
    """Corrupt exactly t positions, each to a uniformly chosen other symbol."""
    if t > len(word):
        raise ValueError(f"cannot corrupt {t} of {len(word)} positions")
    p = word.prime.p
    out = word.array.copy()
    positions = rng.choice(len(word), size=t, replace=False)
    # Adding a uniform nonzero offset is uniform over the p - 1 other symbols.
    out[positions] = (out[positions] + rng.integers(1, p, size=t)) % p
    return Vector(out, word.prime)


def _pattern_count(length: int, t: int, p: int) -> int:
    return math.comb(length, t) * (p - 1) ** t


def _weight_patterns(length: int, t: int, p: int):
    for positions in combinations(range(length), t):
        for offsets in product(range(1, p), repeat=t):
            yield list(positions), offsets


def _classify(code: LinearCode, received: Vector, message: Vector) -> str:
    result = decode_nearest(code, received)
    if result.status != UNIQUE:
        return "ambiguous"
    return "success" if result.message == message else "miscorrected"


def exhaustive_stats(code: LinearCode, t: int) -> ChannelStats:
    """Decode every message under every weight-t error pattern.

    Guarded by the exact work product C(N, t) * (p-1)^t * p^k, so a sweep
    can never silently explode.
    """
    p = code.prime.p
    if t > code.length:
        raise ValueError(f"weight {t} exceeds code length {code.length}")
    work = _pattern_count(code.length, t, p) * p**code.dim
    if work > EXHAUSTIVE_LIMIT:
        raise GuardExceededError(
            f"exhaustive sweep means {count_text(work)} decodes, beyond the {EXHAUSTIVE_LIMIT} guard; "
            "use monte_carlo instead"
        )
    counts = {"success": 0, "ambiguous": 0, "miscorrected": 0}
    msg_count = p**code.dim
    for start, msgs, words in _codeword_blocks(code, msg_count):
        for msg_row, word_row in zip(msgs, words):
            message = Vector(msg_row, code.prime)
            for positions, offsets in _weight_patterns(code.length, t, p):
                corrupted = word_row.copy()
                corrupted[positions] = (corrupted[positions] + offsets) % p
                counts[_classify(code, Vector(corrupted, code.prime), message)] += 1
    trials = sum(counts.values())
    return ChannelStats(trials, counts["success"], counts["ambiguous"], counts["miscorrected"])


def exhaustive_correction_check(code: LinearCode, t: int) -> bool:
    """True iff every message survives every weight-t error pattern."""
    stats = exhaustive_stats(code, t)
    return stats.successes == stats.trials


def exhaustive_detection_check(code: LinearCode, t: int) -> bool:
    """True iff no error of weight 1..t maps a codeword onto another codeword."""
    p = code.prime.p
    if t > code.length:
        raise ValueError(f"weight {t} exceeds code length {code.length}")
    if t == 0:
        return True
    work = sum(_pattern_count(code.length, w, p) for w in range(1, t + 1)) * p**code.dim
    if work > EXHAUSTIVE_LIMIT:
        raise GuardExceededError(
            f"exhaustive detection sweep means {count_text(work)} membership checks, "
            f"beyond the {EXHAUSTIVE_LIMIT} guard"
        )
    msg_count = _guard_messages(code, "detection sweep")
    for _, _, words in _codeword_blocks(code, msg_count):
        for word_row in words:
            for w in range(1, t + 1):
                for positions, offsets in _weight_patterns(code.length, w, p):
                    corrupted = word_row.copy()
                    corrupted[positions] = (corrupted[positions] + offsets) % p
                    if is_codeword(code, Vector(corrupted, code.prime)):
                        return False
    return True


def monte_carlo(code: LinearCode, t: int, trials: int, seed: int = 0) -> ChannelStats:
    """Seeded random (message, weight-t error) trials, classified per decode.

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
    p = code.prime.p
    counts = {"success": 0, "ambiguous": 0, "miscorrected": 0}
    for _ in range(trials):
        message = Vector(rng.integers(0, p, size=code.dim), code.prime)
        received = inject_errors(encode(code, message), t, rng)
        counts[_classify(code, received, message)] += 1
    return ChannelStats(trials, counts["success"], counts["ambiguous"], counts["miscorrected"])
