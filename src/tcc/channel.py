"""Fixed-weight symbol-error channel: exhaustive sweeps and Monte Carlo.

The error model corrupts exactly t positions, each to a uniformly chosen
different symbol.  Worst-case weight-t guarantees are what the codes
promise, so fixed-weight sweeps test them directly; an i.i.d. flip
channel would not.  Both sweeps classify errors over the zero codeword:
for a linear code, c + e decodes uniquely exactly when e does, and back
to c exactly when e's unique nearest codeword is 0.

Errors of a code with k != 1 have one format, (positions, offsets), both
(rows, t): each row's sorted positions and the nonzero symbols added
there.  Monte Carlo draws them (_draw), the exhaustive sweep enumerates
them (_pattern_blocks), and both hand each block to the classifier that
_classifier(code) picks.

A k = 1 code never builds an error pattern.  It decodes by code._vote's
plurality vote, which depends only on how many errors fall on the
generator's support and on the values e_i / g_i there.  So its exhaustive
sweep is counted, not enumerated: exact sums of counts of words with
bounded letter multiplicities, in Python ints, polynomial in t and free
of p (MacWilliams and Sloane, The Theory of Error-Correcting Codes,
ch. 1).  Its Monte Carlo samples that statistic, a hypergeometric hit
count and t votes (monte_carlo), and classifies it (_vote_stats).

For any code the outcome depends only on e's weight and its coset
e + C: whether the coset holds one word of least weight, and whether e
has that weight.  So a k >= 2 code with fewer cosets than codewords
classifies each error by one syndrome lookup in a coset table (a standard
array) built once per sweep, summing the t rows of H^T the error hits.
Other k != 1 codes, and a table whose build would pass its pattern budget,
go through _tally, the one place an error becomes a dense word: for
code._nearest, which scores every codeword.
"""

import math
from dataclasses import astuple, dataclass
from functools import partial
from itertools import combinations, islice

import numpy as np

from .code import ENUMERATION_LIMIT, LinearCode, _message_block, _nearest
from .linalg import GuardExceededError, count_text

EXHAUSTIVE_LIMIT = 1 << 24
# Recurrence steps a k = 1 sweep may take (_count_steps): the most that any sweep at t <= 128 takes,
# at t = 128, |supp g| = 146 and N >= 274.  That count took 0.26 s at p = 2^31 - 1 on a 2-core VM.
COUNT_STEP_LIMIT = 341_797
# Digits a k = 1 sweep's trial count may have: Python's default int-to-str limit, so simulate can print it.
COUNT_DIGIT_LIMIT = 4300
# Exhaustive-sweep error patterns reach the classifier in blocks of B = _BATCH_CELLS // N, B * N cells as words.
_BATCH_CELLS = 1 << 14
# Cells of one Monte Carlo chunk, each classified whole: (rows, N) keys, or (rows, t) votes for a k = 1 code.
# Fixed, so a seed's trials follow N alone, or t alone for a k = 1 code.
_DRAW_CELLS = 1 << 14
# Error patterns the coset table's build may enumerate before the sweep gives it up for code._scan.
_TABLE_PATTERNS = EXHAUSTIVE_LIMIT


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


def _draw(rng: "np.random.Generator", rows: int, length: int, t: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(positions, offsets) of rows weight-t errors mod p, both (rows, t), in two generator calls.

    A row's positions are the indices of its t smallest uniform keys, a
    uniform t-subset, sorted; its t offsets in 1..p-1, uniform over the
    other symbols, go to them in that order.  At t = 0 nothing is drawn.
    inject_errors and monte_carlo on a code of k != 1 draw here.
    """
    if not t:  # argpartition has no kth = -1
        empty = np.zeros((rows, 0), dtype=np.int64)
        return empty, empty
    positions = np.sort(np.argpartition(rng.random((rows, length)), t - 1, axis=1)[:, :t], axis=1)
    return positions, rng.integers(1, p, size=(rows, t))


def _dense(positions: np.ndarray, offsets: np.ndarray, length: int) -> np.ndarray:
    """The (rows, length) error block of _draw's positions and offsets."""
    errors = np.zeros((len(positions), length), dtype=np.int64)
    np.put_along_axis(errors, positions, offsets, axis=1)
    return errors


def inject_errors(word: np.ndarray, p: int, t: int, rng: "np.random.Generator") -> np.ndarray:
    """Corrupt exactly t positions of a row of residues mod p, each to a uniformly chosen other symbol, by _draw."""
    if not 0 <= t <= len(word):
        raise ValueError(f"cannot corrupt {t} of {len(word)} positions")
    return (word + _dense(*_draw(rng, 1, len(word), t, p), len(word))[0]) % p


def _outcomes(unique: np.ndarray, right: np.ndarray) -> ChannelStats:
    """Per error: a success when its nearest codeword is unique and 0 (right), ambiguous when not unique."""
    trials, successes = len(unique), int(np.count_nonzero(unique & right))
    ambiguous = trials - int(np.count_nonzero(unique))
    return ChannelStats(trials, successes, ambiguous, trials - successes - ambiguous)


def _tally(code: LinearCode, positions: np.ndarray, offsets: np.ndarray) -> ChannelStats:
    """Decode errors over the zero codeword as one dense (rows, N) block and classify each row."""
    _, first, ties = _nearest(code, _dense(positions, offsets, code.length))
    return _outcomes(ties == 1, first == 0)


def _vote_stats(support: int, votes: np.ndarray) -> ChannelStats:
    """Classify a k = 1 code's (rows, t) votes, sampled by monte_carlo, by code._vote's rule.

    A 0 slot is an error off supp g, which votes for no codeword; the rest
    vote for e_i / g_i, never 0.  So 0 keeps z = w - #(nonzero votes)
    votes.  With M the largest multiplicity of a nonzero vote, the error is
    a success when z > M, miscorrected when M > z and one value reaches M,
    and ambiguous otherwise.
    """
    rows, t = votes.shape
    if not t:  # no errors: 0 keeps all w >= 1 votes
        return ChannelStats(rows, rows, 0, 0)
    votes = np.sort(votes, axis=1).ravel()
    # Runs of equal votes, each within one row; a row's 0 votes come first, as one run.
    begins = np.empty(len(votes), dtype=bool)
    np.not_equal(votes[1:], votes[:-1], out=begins[1:])
    begins[::t] = True
    begins = np.flatnonzero(begins)
    lengths = np.diff(begins, append=len(votes))
    firsts = np.searchsorted(begins, np.arange(0, len(votes), t))
    off = votes[begins] == 0
    zeros = support - t + np.where(off[firsts], lengths[firsts], 0)
    lengths[off] = 0
    most = np.maximum.reduceat(lengths, firsts)
    row = begins // t
    unique = np.bincount(row[lengths == most[row]], minlength=rows) == 1
    successes = int(np.count_nonzero(zeros > most))
    miscorrected = int(np.count_nonzero((most > zeros) & unique))
    return ChannelStats(rows, successes, rows - successes - miscorrected, miscorrected)


def _pattern_blocks(length: int, t: int, p: int, step: int):
    """Every weight-t error pattern as (positions, offsets) blocks of step rows, both (rows, t).

    Pattern r takes position set r // (p-1)^t, in combinations order, and
    row r % (p-1)^t of one offset table, in product order (base-(p-1) digits
    in 1..p-1).  Each block gathers both by index.  Position sets are drawn
    from combinations only as blocks reach them, so at most step are held.
    Blocks span sets; only the last is short.
    """
    table = _message_block(p - 1, t, 0, (p - 1) ** t) + 1
    total = math.comb(length, t) * len(table)
    sets = combinations(range(length), t)
    held, first = np.zeros((0, t), dtype=np.int64), 0  # the position sets drawn and not yet passed, from set `first`
    for lo in range(0, total, step):
        which, digit = np.divmod(np.arange(lo, min(lo + step, total), dtype=np.int64), len(table))
        held, first = held[which[0] - first :], int(which[0])
        more = list(islice(sets, int(which[-1]) + 1 - first - len(held)))
        held = np.concatenate([held, np.array(more, dtype=np.int64).reshape(len(more), t)])
        yield held[which - first], table[digit]


def _capped_words(length: int, letters: int, cap: int) -> list[int]:
    """W(m) for m = 0..length: the words of m symbols over `letters` letters using no letter more than cap times.

    W(m) = m! [x^m] E^letters for E = sum_{i <= cap} x^i / i!.  As E F' = letters E' F
    for F = E^letters, m W(m) = sum_{i=1}^{min(m, cap)} ((letters + 1) i - m) C(m, i) W(m - i),
    an exact division: O(length * cap) steps, none depending on p.
    """
    words = [1]
    for m in range(1, length + 1):
        total, binomial = 0, 1
        for i in range(1, min(m, cap) + 1):
            binomial = binomial * (m - i + 1) // i
            total += ((letters + 1) * i - m) * binomial * words[m - i]
        words.append(total // m)
    return words


def _counted_stats(code: LinearCode, t: int, patterns: int) -> ChannelStats:
    """A k = 1 code's exhaustive sweep, counted by code._vote's rule with no pattern enumerated.

    Say j of the t errors fall on supp g (w places).  Value 0 keeps z = w - j
    votes, and the j values e_i / g_i form a word over q = p - 1 letters with
    largest multiplicity M, reached by r letters.  The error is a success when
    z > M, miscorrected when M > z and r = 1, and ambiguous otherwise.  Each j
    has C(w, j) C(N - w, t - j) q^(t - j) placements; of its q^j words, the
    successes are those with no letter z or more times, and the miscorrections number
    q C(j, M) W_{M-1}(j - M, q - 1) for each M > z (_capped_words).  When
    2j < w, z > j >= M, so every word succeeds: only the j with 2j >= w are
    visited, and the successes are the rest of the C(N, t) q^t patterns (Vandermonde's identity).
    """
    p, length = code.prime.p, code.length
    q, support = p - 1, int(np.count_nonzero(code.generator[0]))
    top = min(support, t)
    tables = {}  # M -> W_{M-1}(m, q - 1) for m up to top - M, shared by every j
    ambiguous = miscorrected = 0
    for j in range(max(t - (length - support), (support + 1) // 2), top + 1):
        placements = math.comb(support, j) * math.comb(length - support, t - j) * q ** (t - j)
        zeros, right, wrong = support - j, _capped_words(j, q, support - j - 1)[j], 0
        for most in range(zeros + 1, j + 1):
            if most not in tables:
                tables[most] = _capped_words(top - most, q - 1, most - 1)
            wrong += q * math.comb(j, most) * tables[most][j - most]
        miscorrected += placements * wrong
        ambiguous += placements * (q**j - right - wrong)
    successes = patterns - ambiguous - miscorrected
    return ChannelStats(patterns * p, successes * p, ambiguous * p, miscorrected * p)


def _capped_steps(length: int, cap: int) -> int:
    """The steps _capped_words(length, _, cap) takes: length rows, and min(m, cap) terms in row m."""
    cap = max(cap, 0)
    low = min(length, cap)
    return length + low * (low + 1) // 2 + cap * (length - low)


def _count_steps(length: int, support: int, t: int) -> int:
    """The recurrence steps _counted_stats takes, in O(t) Python-int operations.

    Only the j with 2j >= w recur, each on its own _capped_words row; they
    share one table for each multiplicity in w - top + 1 .. top.
    """
    top = min(support, t)
    if 2 * top < support:
        return 0
    first = max(t - (length - support), (support + 1) // 2)
    steps = sum(_capped_steps(j, support - j - 1) for j in range(first, top + 1))
    return steps + sum(_capped_steps(top - most, most - 1) for most in range(support - top + 1, top + 1))


def _parity_check(code: LinearCode) -> np.ndarray:
    """H^T as an (N, N-k) array: H is -P^T on the RREF generator's pivot columns and I on its free ones.

    P is the generator's free columns, so G H^T = I (-P) + P I = 0.
    """
    p, g = code.prime.p, code.generator
    pivots = (g != 0).argmax(axis=1)
    free = np.setdiff1d(np.arange(code.length), pivots)
    parity = np.zeros((code.length, len(free)), dtype=np.int64)
    parity[pivots] = (p - g[:, free]) % p
    parity[free, np.arange(len(free))] = 1
    return parity


def _cosets(parity: np.ndarray, digits: np.ndarray, p: int, positions: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each error's coset sum_i s_i p^i, its syndrome s = e H^T summed from the t rows of H^T it hits.

    A table has p^(N-k) <= 2^20, so when N > k each term is below 2^40; when N = k there are none.
    """
    syndromes = np.zeros((len(positions), parity.shape[1]), dtype=np.int64)
    for where, values in zip(positions.T, offsets.T):
        syndromes += parity[where] * values[:, None]
    return syndromes % p @ digits


def _coset_table(code: LinearCode):
    """A k >= 2 code's standard array: (H^T, syndrome digit weights, least weight, count) per coset, or None.

    An error e names its coset by sum_i s_i p^i, s = e H^T.  Patterns are
    enumerated weight by weight until every coset is reached, at the
    covering radius; each coset keeps the least weight that reaches it and
    how many words of that weight do.  None, leaving the code to _tally,
    unless 2k > N (fewer cosets than codewords) and p^(N-k) <=
    ENUMERATION_LIMIT, or when the build would pass _TABLE_PATTERNS.
    """
    p, length, k = code.prime.p, code.length, code.dim
    if k < 2 or 2 * k <= length or p ** (length - k) > ENUMERATION_LIMIT:
        return None
    parity, digits, cells = _parity_check(code), p ** np.arange(length - k, dtype=np.int64), p ** (length - k)
    least, count = np.full(cells, -1, dtype=np.int64), np.zeros(cells, dtype=np.int64)
    # A block of max(_BATCH_CELLS, cells) cells keeps each bincount's O(cells) pass below the block's own cost.
    step = max(1, max(_BATCH_CELLS, cells) // length)
    weight, enumerated = 0, 0
    while (least < 0).any():
        enumerated += math.comb(length, weight) * (p - 1) ** weight
        if enumerated > _TABLE_PATTERNS:
            return None
        reached = np.zeros(cells, dtype=np.int64)
        for positions, offsets in _pattern_blocks(length, weight, p, step):
            reached += np.bincount(_cosets(parity, digits, p, positions, offsets), minlength=cells)
        new = (least < 0) & (reached > 0)
        least[new], count[new] = weight, reached[new]
        weight += 1
    return parity, digits, least, count


def _classifier(code: LinearCode):
    """The one classifier of a run's (positions, offsets) error blocks over the zero codeword, for k != 1.

    With a coset table, an error is unique when its coset has one word of
    least weight, and right when t is that weight: _tally's rule
    (_outcomes) with no minimiser index.  Any other code's is _tally.  A
    k = 1 code has no error blocks: it is counted or sampled.
    """
    p = code.prime.p
    table = _coset_table(code)
    if table is None:
        return partial(_tally, code)
    parity, digits, least, count = table

    def lookup(positions: np.ndarray, offsets: np.ndarray) -> ChannelStats:
        coset = _cosets(parity, digits, p, positions, offsets)
        return _outcomes(count[coset] == 1, least[coset] == positions.shape[1])

    return lookup


def exhaustive_stats(code: LinearCode, t: int) -> ChannelStats:
    """Decode every message under every weight-t error pattern.

    Every message shares the error patterns' outcomes, so the counts are
    the C(N, t) (p-1)^t patterns' (computed once) scaled by p^k.  A k = 1
    code's are counted in closed form (_counted_stats), guarded by its
    recurrence steps (_count_steps, free of p) and by the digits of its
    trial count, which simulate prints.  Other codes hand every pattern, in
    _pattern_blocks, to _classifier's one classifier, guarded by the outcome
    count C(N, t) * (p-1)^t * p^k.  Either guard fires before any work, so
    a sweep can never silently explode.
    """
    p = code.prime.p
    if not 0 <= t <= code.length:
        raise ValueError(f"weight {t} must lie in [0, {code.length}]")
    patterns = math.comb(code.length, t) * (p - 1) ** t
    if code.dim == 1:
        steps = _count_steps(code.length, int(np.count_nonzero(code.generator[0])), t)
        if steps > COUNT_STEP_LIMIT:
            raise GuardExceededError(
                f"exhaustive count at weight t = {t} takes {steps} recurrence steps, "
                f"beyond the {COUNT_STEP_LIMIT} guard; use monte_carlo instead"
            )
        # An upper bound on the digits of C(N, t) (p-1)^t p, at most one above the true count.
        digits = int((patterns * p).bit_length() * math.log10(2)) + 1
        if digits > COUNT_DIGIT_LIMIT:
            raise GuardExceededError(
                f"exhaustive count at weight t = {t} has about {digits} digits, "
                f"beyond Python's {COUNT_DIGIT_LIMIT}-digit int-to-str limit; use monte_carlo instead"
            )
        return _counted_stats(code, t, patterns)
    work = patterns * p**code.dim
    if work > EXHAUSTIVE_LIMIT:
        raise GuardExceededError(
            f"exhaustive sweep means {count_text(work)} outcomes from {count_text(patterns)} decoded patterns, "
            f"beyond the {EXHAUSTIVE_LIMIT} guard; use monte_carlo instead"
        )
    if code.dim == 0:  # 0 is the only codeword: every pattern decodes to it uniquely, with no offset table
        return ChannelStats(patterns, patterns, 0, 0)
    classify, stats = _classifier(code), ChannelStats(0, 0, 0, 0)
    for block in _pattern_blocks(code.length, t, p, max(1, _BATCH_CELLS // code.length)):
        stats += classify(*block)
    return ChannelStats(*(count * p**code.dim for count in astuple(stats)))


def monte_carlo(code: LinearCode, t: int, trials: int, seed: int = 0) -> ChannelStats:
    """Seeded random weight-t error trials, classified in chunks over the zero codeword.

    No message is drawn, as only the error is classified.  A k = 1 code's
    trials come in chunks of _DRAW_CELLS // max(t, 1) rows, each classified
    whole by _vote_stats, and each trial draws only the statistic code._vote
    reads: its hit count h, hypergeometric, then t votes in 1..p-1, of
    which slots h and on are set to 0.  That is the law of a weight-t error
    e on a uniform t-subset P with uniform nonzero symbols: h = |P & supp g|
    is hypergeometric, and given h, the h votes e_i g_i^-1 on supp g are
    independent and uniform on 1..p-1, since multiplying by a fixed nonzero
    residue permutes the nonzero residues.  The vote's outcome depends on
    nothing else of e.  Any other code's trials are drawn by _draw in
    chunks of _DRAW_CELLS // N rows, and each chunk's (positions, offsets)
    goes whole to _classifier's one classifier for the run.  Reproducible
    for a fixed seed within one build of this package, not across
    releases: earlier ones drew each trial's message, positions and
    offsets in turn, and drew a k = 1 code's positions and offsets too, so
    their seeded counts beyond capacity differ.  The trial count shares
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
    rng, p, length, stats = np.random.default_rng(seed), code.prime.p, code.length, ChannelStats(0, 0, 0, 0)
    if code.dim == 1:
        support, draw = int(np.count_nonzero(code.generator[0])), max(1, _DRAW_CELLS // max(t, 1))
        for done in range(0, trials, draw):
            rows = min(draw, trials - done)
            hits = rng.hypergeometric(support, length - support, t, size=rows)
            votes = rng.integers(1, p, size=(rows, t))
            votes[np.arange(t) >= hits[:, None]] = 0
            stats += _vote_stats(support, votes)
        return stats
    classify, draw = _classifier(code), max(1, _DRAW_CELLS // length)
    for done in range(0, trials, draw):
        stats += classify(*_draw(rng, min(draw, trials - done), length, t, p))
    return stats
