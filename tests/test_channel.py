import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import tcc.channel
import tcc.code
from tcc import (
    ChannelStats,
    CombParams,
    GuardExceededError,
    LinearCode,
    Matrix,
    Prime,
    TwistSpec,
    centralizer_code,
    comb_matrix,
    exhaustive_stats,
    monte_carlo,
)
from tcc.channel import COUNT_DIGIT_LIMIT, COUNT_STEP_LIMIT, EXHAUSTIVE_LIMIT, inject_errors
from tcc.cli import main
from tcc.code import AMBIGUOUS, ENUMERATION_LIMIT, UNIQUE, decode_nearest, encode
from tcc.linalg import matmul_mod
from helpers import (
    _weight_patterns,
    code_from_rows,
    enumerated_exhaustive_stats,
    exhaustive_correction_check,
    exhaustive_detection_check,
    hamming_distance,
    literal_exhaustive_stats,
    literal_monte_carlo,
    sampled_vote_errors,
)

BIG_PRIME = 2**31 - 1


def comb_code(n, x, y, p, a):
    prime = Prime(p)
    matrix = comb_matrix(CombParams(n, x, y, prime))
    return centralizer_code(TwistSpec(matrix, a))


@pytest.fixture(scope="module")
def four_one_four():
    return comb_code(2, 1, 1, 3, 2)


@pytest.fixture(scope="module")
def nine_one_nine():
    # x*n + y = 10 = 0 over GF(5).
    return comb_code(3, 3, 1, 5, 2)


@pytest.fixture(scope="module")
def four_two():
    # [4, 2] over GF(3), off the theorem's hypotheses (a = 1).
    return comb_code(2, 1, 1, 3, 1)


@pytest.fixture
def drawn_votes(monkeypatch):
    """Every (rows, t) chunk of votes that monte_carlo hands to _vote_stats, recorded as it is classified."""
    chunks = []
    vote_stats = tcc.channel._vote_stats

    def recording(support, votes):
        chunks.append(votes.copy())
        return vote_stats(support, votes)

    monkeypatch.setattr(tcc.channel, "_vote_stats", recording)
    return chunks


@pytest.fixture
def drawn_errors(monkeypatch):
    """Every (positions, offsets) chunk that monte_carlo hands to _tally, recorded as it is classified."""
    chunks = []
    tally = tcc.channel._tally

    def recording(code, positions, offsets):
        chunks.append((positions.copy(), offsets.copy()))
        return tally(code, positions, offsets)

    monkeypatch.setattr(tcc.channel, "_tally", recording)
    return chunks


class TestChannelStats:
    def test_counts_must_sum(self):
        with pytest.raises(ValueError):
            ChannelStats(trials=3, successes=1, ambiguous=1, miscorrected=0)

    def test_merge_is_summation(self):
        a = ChannelStats(5, 3, 1, 1)
        b = ChannelStats(2, 2, 0, 0)
        assert a + b == ChannelStats(7, 5, 1, 1)


class TestInjectErrors:
    def test_zero_weight_is_identity(self):
        rng = np.random.default_rng(0)
        word = np.array([1, 2, 0, 4])
        assert np.array_equal(inject_errors(word, 5, 0, rng), word)

    def test_full_weight_over_gf2_is_complement(self):
        rng = np.random.default_rng(0)
        word = np.array([1, 0, 1, 1, 0])
        flipped = inject_errors(word, 2, 5, rng)
        assert flipped.tolist() == [0, 1, 0, 0, 1]

    def test_distance_equals_weight(self):
        rng = np.random.default_rng(99)
        word = rng.integers(0, 5, size=9)
        for _ in range(10_000):
            t = int(rng.integers(0, 10))
            corrupted = inject_errors(word, 5, t, rng)
            assert hamming_distance(word, corrupted) == t

    def test_weight_beyond_length_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            inject_errors(np.array([0, 0]), 3, 3, rng)

    def test_negative_weight_rejected(self):
        # argpartition would read a negative t as a kth counted from the end.
        with pytest.raises(ValueError, match="cannot corrupt -1 of 2 positions"):
            inject_errors(np.array([0, 0]), 3, -1, np.random.default_rng(0))

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("t", [0, 3, 4])
    def test_draws_the_monte_carlo_error(self, four_two, drawn_errors, seed, t):
        # One channel: over 0, inject_errors is the error a one-trial monte_carlo run on a k = 2 code classifies.
        monte_carlo(four_two, t, 1, seed)
        assert [(positions.shape, offsets.shape) for positions, offsets in drawn_errors] == [((1, t), (1, t))]
        positions, offsets = drawn_errors[0]
        error = np.zeros(4, dtype=np.int64)
        error[positions[0]] = offsets[0]
        zeros = np.zeros(4, dtype=np.int64)
        assert np.array_equal(inject_errors(zeros, 3, t, np.random.default_rng(seed)), error)


class TestExhaustiveCorrection:
    def test_weight_one_always_corrected(self, four_one_four):
        assert exhaustive_correction_check(four_one_four, 1)

    def test_weight_two_fails(self, four_one_four):
        # Weight-2 patterns reach distance-2 ties (e.g. 1100 between 0000 and 1111).
        assert not exhaustive_correction_check(four_one_four, 2)

    def test_weight_zero_trivially_passes(self, four_one_four):
        assert exhaustive_correction_check(four_one_four, 0)

    def test_stats_count_every_pattern(self, four_one_four):
        stats = exhaustive_stats(four_one_four, 1)
        # C(4, 1) * 2 patterns for each of the 3 messages.
        assert stats.trials == 24
        assert stats.successes == 24

    def test_failures_classified(self, four_one_four):
        stats = exhaustive_stats(four_one_four, 2)
        assert stats.trials == 72
        assert stats.successes + stats.ambiguous + stats.miscorrected == 72
        assert stats.successes < 72
        assert stats.ambiguous > 0

    def test_guard_suggests_monte_carlo(self):
        # [9, 5, 3] over GF(5) at t = 3 is past the outcome guard, a k = 1 code past COUNT_STEP_LIMIT.
        with pytest.raises(GuardExceededError, match="monte_carlo"):
            exhaustive_stats(comb_code(3, 1, 1, 5, 1), 3)
        long_row = code_from_rows(Matrix(np.ones((1, 300), dtype=np.int64), Prime(3)))
        with pytest.raises(GuardExceededError, match="monte_carlo"):
            exhaustive_stats(long_row, 300)

    def test_negative_weight_rejected(self, four_one_four):
        with pytest.raises(ValueError, match=r"weight -1 must lie in \[0, 4\]"):
            exhaustive_stats(four_one_four, -1)


class TestExhaustiveDetection:
    def test_detects_up_to_distance_minus_one(self, four_one_four):
        assert exhaustive_detection_check(four_one_four, 3)

    def test_full_weight_reaches_other_codeword(self, four_one_four):
        # Adding 1111 maps each codeword onto another one.
        assert not exhaustive_detection_check(four_one_four, 4)

    def test_zero_weight_vacuous(self, four_one_four):
        assert exhaustive_detection_check(four_one_four, 0)

    def test_guard(self):
        code = comb_code(4, 1, 2, 3, 2)
        with pytest.raises(GuardExceededError):
            exhaustive_detection_check(code, 12)


class TestMonteCarlo:
    def test_reproducible_for_fixed_seed(self, nine_one_nine):
        first = monte_carlo(nine_one_nine, 3, 200, seed=42)
        second = monte_carlo(nine_one_nine, 3, 200, seed=42)
        assert first == second

    def test_beyond_capacity_stats_still_well_formed(self, nine_one_nine):
        stats = monte_carlo(nine_one_nine, 9, 50, seed=1)
        assert stats.trials == 50
        assert stats.successes + stats.ambiguous + stats.miscorrected == 50

    def test_zero_weight_always_succeeds(self, four_one_four):
        stats = monte_carlo(four_one_four, 0, 100, seed=0)
        assert stats.successes == 100

    def test_within_capacity_never_fails(self, nine_one_nine):
        stats = monte_carlo(nine_one_nine, 4, 300, seed=31_337)
        assert stats == ChannelStats(300, 300, 0, 0)

    def test_full_weight_always_fails(self, nine_one_nine):
        # Rewriting all 9 symbols leaves some wrong constant word within
        # distance 8, while the sent word sits at distance 9.
        stats = monte_carlo(nine_one_nine, 9, 100, seed=7)
        assert stats.successes == 0

    def test_trial_count_guarded_before_any_trial(self, four_one_four, monkeypatch):
        def no_trial(*args):
            raise AssertionError("no trial may run past the guard")

        monkeypatch.setattr(np.random, "default_rng", no_trial)
        with pytest.raises(GuardExceededError, match="16777217 trials"):
            monte_carlo(four_one_four, 1, tcc.channel.EXHAUSTIVE_LIMIT + 1, seed=0)

    def test_at_least_one_trial_required(self, four_one_four):
        with pytest.raises(ValueError):
            monte_carlo(four_one_four, 1, 0, seed=0)

    def test_negative_weight_rejected(self, four_one_four):
        with pytest.raises(ValueError, match=r"weight -1 must lie in \[0, 4\]"):
            monte_carlo(four_one_four, -1, 10, seed=0)

    @pytest.mark.parametrize("t", [2, 5])
    def test_draw_chunk_matches_the_literal_oracle(self, nine_one_nine, four_two, monkeypatch, t):
        # A seed's trials follow _DRAW_CELLS by design; at every chunk size the counts are the oracle's.
        # The [9,1,9] code's chunks are sized by t: 2,000 trials fill one default chunk and 154 or 400 of 27 cells.
        for code, trials in ((nine_one_nine, 2000), (four_two, 300)):
            for cells in (1 << 14, 3 * code.length):
                monkeypatch.setattr(tcc.channel, "_DRAW_CELLS", cells)
                want = literal_monte_carlo(code, min(t, code.length), trials, seed=11)
                assert monte_carlo(code, min(t, code.length), trials, seed=11) == want
            monkeypatch.undo()

    def test_draws_every_position_set_and_offset(self, four_two, drawn_errors):
        # A k >= 2 code's trials are drawn as (positions, offsets).
        assert monte_carlo(four_two, 2, 300, seed=3).trials == 300
        positions = np.concatenate([positions for positions, _ in drawn_errors])
        offsets = np.concatenate([offsets for _, offsets in drawn_errors])
        assert positions.shape == offsets.shape == (300, 2)
        errors = np.zeros((300, 4), dtype=np.int64)
        for error, where, values in zip(errors, positions, offsets):
            error[where] = values
        assert (np.count_nonzero(errors, axis=1) == 2).all()
        assert {tuple(np.flatnonzero(row)) for row in errors} == set(itertools.combinations(range(4), 2))
        for column in errors.T:
            assert set(column[column != 0]) == {1, 2}

    def test_samples_every_hit_count_and_vote(self, drawn_votes):
        # A k = 1 code's trials are sampled as votes: 4 errors on 6 places, 3 of them on supp g,
        # hit supp g 1 to 3 times, and each hit votes for one of 1..4.
        code = LinearCode(Prime(5), 6, np.array([[1, 1, 1, 0, 0, 0]], dtype=np.int64))
        assert monte_carlo(code, 4, 300, seed=3).trials == 300
        votes = np.concatenate(drawn_votes)
        assert votes.shape == (300, 4)
        hits = np.count_nonzero(votes, axis=1)
        assert set(hits.tolist()) == {1, 2, 3}
        assert np.array_equal(votes != 0, np.arange(4) < hits[:, None])  # a row's votes come first, then its 0 slots
        assert set(votes[votes != 0].tolist()) == {1, 2, 3, 4}

    def test_dimension_one_draws_no_error(self, nine_one_nine, monkeypatch):
        def refuse(*args):
            raise AssertionError("a k = 1 code samples its votes, with no error pattern and no classifier pick")

        monkeypatch.setattr(tcc.channel, "_draw", refuse)
        monkeypatch.setattr(tcc.channel, "_classifier", refuse)
        for t in (0, 4, 5, 9):
            assert monte_carlo(nine_one_nine, t, 100, seed=t).trials == 100


class TestPatternBlocks:
    """The exhaustive sweep's (positions, offsets) blocks hold every weight-t pattern once, in the oracle's order."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("step", [1, 7, 4096])
    def test_every_pattern_once_in_order(self, p, step):
        for length in range(1, 7):
            for t in range(length + 1):
                blocks = list(tcc.channel._pattern_blocks(length, t, p, step))
                rows = [len(positions) for positions, _ in blocks]
                assert all(positions.shape == offsets.shape == (len(positions), t) for positions, offsets in blocks)
                assert rows[:-1] == [step] * (len(rows) - 1) and 0 < rows[-1] <= step, (length, t)
                got = [(where.tolist(), tuple(values.tolist())) for block in blocks for where, values in zip(*block)]
                assert got == list(_weight_patterns(length, t, p)), (length, t)

    def test_draws_position_sets_only_as_blocks_reach_them(self):
        # C(64, 32) is about 1.8 * 10^18 position sets: the first block needs the first 7 of them.
        first = next(tcc.channel._pattern_blocks(64, 32, 2, 7))
        want = list(itertools.islice(_weight_patterns(64, 32, 2), 7))
        assert [(where.tolist(), tuple(values.tolist())) for where, values in zip(*first)] == want


class TestOneClassifier:
    """Every Monte Carlo run and every enumerated sweep of a k != 1 code classifies all its blocks through
    one _classifier call; a k = 1 code's runs make none, as they are counted or sampled."""

    @pytest.fixture
    def picked(self, monkeypatch):
        """Per _classifier call: the classifier it returned and the shape of each (positions, offsets) block handed to it."""
        calls = []
        pick = tcc.channel._classifier

        def recording(code):
            classify, rows = pick(code), []
            calls.append((classify, rows))

            def counting(positions, offsets):
                assert positions.shape == offsets.shape
                rows.append(positions.shape)
                return classify(positions, offsets)

            return counting

        monkeypatch.setattr(tcc.channel, "_classifier", recording)
        return calls

    def test_one_classifier_per_run(self, nine_one_nine, four_two, picked, monkeypatch):
        # Small chunks and blocks, so each run hands its classifier many of them.
        monkeypatch.setattr(tcc.channel, "_DRAW_CELLS", 27)
        monkeypatch.setattr(tcc.channel, "_BATCH_CELLS", 40)
        assert monte_carlo(nine_one_nine, 2, 50, seed=1).trials == 50  # sampled
        assert exhaustive_stats(nine_one_nine, 2).successes > 0  # counted
        assert picked == []
        nine_five_three = comb_code(3, 1, 1, 5, 1)
        for code, kind in ((nine_five_three, "table"), (four_two, "tally")):
            picked.clear()
            assert monte_carlo(code, 2, 50, seed=1).trials == 50
            assert len(picked) == 1 and len(picked[0][1]) > 1
            assert sum(rows for rows, _ in picked[0][1]) == 50 and {t for _, t in picked[0][1]} == {2}
            classify = picked[0][0]
            func = getattr(classify, "func", None)
            assert {"table": None, "tally": tcc.channel._tally}[kind] is func
            picked.clear()
            stats = exhaustive_stats(code, 2)
            patterns = math.comb(code.length, 2) * (code.prime.p - 1) ** 2
            assert stats.trials == patterns * code.prime.p**code.dim
            assert len(picked) == 1 and len(picked[0][1]) > 1
            assert sum(rows for rows, _ in picked[0][1]) == patterns and {t for _, t in picked[0][1]} == {2}


class TestBatchedAgainstLiteral:
    """The batched sweeps count exactly what one decode per word counts."""

    @pytest.mark.parametrize("t", range(5))
    def test_exhaustive_four_one_four(self, four_one_four, t):
        assert exhaustive_stats(four_one_four, t) == literal_exhaustive_stats(four_one_four, t)

    @pytest.mark.parametrize("t", range(3))
    def test_exhaustive_nine_one_nine(self, nine_one_nine, t):
        assert exhaustive_stats(nine_one_nine, t) == literal_exhaustive_stats(nine_one_nine, t)

    @pytest.mark.parametrize("t", range(5))
    def test_exhaustive_multi_dimensional(self, four_two, t):
        assert four_two.dim == 2
        assert exhaustive_stats(four_two, t) == literal_exhaustive_stats(four_two, t)

    @pytest.mark.parametrize("t", range(5))
    def test_exhaustive_zero_code(self, t):
        zero = LinearCode(Prime(7), 4, np.zeros((0, 4), dtype=np.int64))
        assert exhaustive_stats(zero, t) == literal_exhaustive_stats(zero, t)

    def test_exhaustive_multi_dimensional_failures(self, four_two):
        stats = exhaustive_stats(four_two, 2)
        assert stats.ambiguous > 0 and stats.miscorrected > 0

    def test_exhaustive_across_offset_blocks(self, four_two, monkeypatch):
        # One offset row per decoder call: the chunking must not change the counts.
        monkeypatch.setattr(tcc.channel, "_BATCH_CELLS", 1)
        for t in range(5):
            assert exhaustive_stats(four_two, t) == literal_exhaustive_stats(four_two, t)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_monte_carlo_sixteen_one_sixteen(self, seed):
        code = comb_code(4, 1, 1, 5, 2)
        assert code.dim == 1
        assert monte_carlo(code, 9, 300, seed) == literal_monte_carlo(code, 9, 300, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_monte_carlo_multi_dimensional(self, seed):
        code = comb_code(3, 1, 1, 5, 1)  # [9, 5, 3] over GF(5)
        assert code.dim == 5
        stats = monte_carlo(code, 2, 300, seed)
        assert stats == literal_monte_carlo(code, 2, 300, seed)
        assert stats.ambiguous > 0 and stats.miscorrected > 0

    @pytest.mark.parametrize("cells", [1 << 14, 12])
    def test_monte_carlo_across_trial_blocks(self, four_two, monkeypatch, cells):
        # 12 cells make draw chunks of 3 rows, so 50 trials take 17 of them.
        monkeypatch.setattr(tcc.channel, "_DRAW_CELLS", cells)
        assert monte_carlo(four_two, 2, 50, 9) == literal_monte_carlo(four_two, 2, 50, 9)

    @pytest.mark.parametrize("t", [0, 4])
    def test_monte_carlo_edge_weights(self, four_one_four, four_two, t):
        for code in (four_one_four, four_two):
            stats = monte_carlo(code, t, 100, 5)
            assert stats == literal_monte_carlo(code, t, 100, 5)
            assert t or stats == ChannelStats(100, 100, 0, 0)


def dense_monte_carlo(code, t, trials, seed, decode):
    """A k = 1 code's monte_carlo trials as dense (rows, N) error blocks (sampled_vote_errors),
    each decoded whole by decode (code._scan or code._vote)."""
    stats = ChannelStats(0, 0, 0, 0)
    for errors in sampled_vote_errors(code, t, trials, seed):
        _, first, ties = decode(code, errors)
        rows, unique = len(errors), ties == 1
        successes, ambiguous = int(np.count_nonzero(unique & (first == 0))), rows - int(np.count_nonzero(unique))
        stats += ChannelStats(rows, successes, ambiguous, rows - successes - ambiguous)
    return stats


class TestDrawnVote:
    """k = 1 Monte Carlo classifies each trial from its sampled votes; the dense decoders check it."""

    @staticmethod
    def row_with_zeros(p, length, support, seed):
        rng = np.random.default_rng(seed)
        row = np.zeros(length, dtype=np.int64)
        row[rng.choice(length, support, replace=False)] = rng.integers(1, p, size=support)
        code = code_from_rows(Matrix([row.tolist()], Prime(p)))
        assert (code.dim, int(np.count_nonzero(code.generator))) == (1, support)
        return code

    @pytest.mark.parametrize("p", [2, 3, 7, 997, BIG_PRIME])
    def test_oracle_grid(self, p):
        # 24 positions, 17 on supp g: at t = 24, 700 trials span two default chunks, of 682 and 18 rows.
        code = self.row_with_zeros(p, 24, 17, p % 1000)
        for t in (0, 1, 17, 18, 24):
            stats = monte_carlo(code, t, 700, seed=t)
            assert stats == literal_monte_carlo(code, t, 700, seed=t), t
            if p <= ENUMERATION_LIMIT:
                assert stats == dense_monte_carlo(code, t, 700, t, tcc.code._scan), t
            assert t or stats == ChannelStats(700, 700, 0, 0)

    @pytest.mark.parametrize("t", [0, 1, 5, 6, 8])
    def test_small_chunks(self, monkeypatch, t):
        # 24 cells: 50 trials take chunks of 24 rows at t <= 1 and of 3 rows at t = 8.
        monkeypatch.setattr(tcc.channel, "_DRAW_CELLS", 24)
        code = self.row_with_zeros(7, 8, 5, 8)
        stats = monte_carlo(code, t, 50, seed=2)
        assert stats == literal_monte_carlo(code, t, 50, seed=2) == dense_monte_carlo(code, t, 50, 2, tcc.code._scan)

    def test_random_codes_match_the_dense_vote(self):
        # Every outcome occurs; each run is checked against code._vote on the same drawn blocks.
        rng = np.random.default_rng(27)
        seen = ChannelStats(0, 0, 0, 0)
        for case in range(300):
            p = int(rng.choice([2, 3, 5, 7, 13, 997, BIG_PRIME]))
            length = int(rng.integers(1, 65))
            code = self.row_with_zeros(p, length, int(rng.integers(1, length + 1)), case)
            t = int(rng.integers(0, length + 1))
            stats = monte_carlo(code, t, 200, seed=case)
            assert stats == dense_monte_carlo(code, t, 200, case, tcc.code._vote), (p, length, t)
            seen += stats
        assert min(seen.successes, seen.ambiguous, seen.miscorrected) > 0


class TestSampledLaw:
    """k = 1 Monte Carlo samples each trial's hit count and votes; their law is the literal channel's."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_model_is_the_literal_law(self, p):
        # The sampler's model: j hits with probability C(w, j) C(N - w, t - j) / C(N, t), then each of the
        # (p - 1)^j vote words alike, each classified by _vote_stats; against every decode, as Fractions.
        for length in range(1, 7):
            for support in range(1, length + 1):
                code = TestDrawnVote.row_with_zeros(p, length, support, 10 * length + support)
                for t in range(length + 1):
                    model = [Fraction(0)] * 3
                    for j in range(max(0, t - (length - support)), min(support, t) + 1):
                        words = [word + (0,) * (t - j) for word in itertools.product(range(1, p), repeat=j)]
                        votes = np.array(words, dtype=np.int64).reshape(len(words), t)
                        stats = tcc.channel._vote_stats(support, votes)
                        chance = Fraction(math.comb(support, j) * math.comb(length - support, t - j), math.comb(length, t))
                        for i, count in enumerate((stats.successes, stats.ambiguous, stats.miscorrected)):
                            model[i] += chance * Fraction(count, len(votes))
                    want = literal_exhaustive_stats(code, t)
                    assert model == [
                        Fraction(count, want.trials) for count in (want.successes, want.ambiguous, want.miscorrected)
                    ], (length, support, t)

    def test_sixteen_one_sixteen_within_four_sigma(self):
        code = comb_code(4, 1, 1, 5, 2)
        exact, trials = exhaustive_stats(code, 9), 200_000
        stats = monte_carlo(code, 9, trials, seed=0)
        for got, total in ((stats.ambiguous, exact.ambiguous), (stats.miscorrected, exact.miscorrected)):
            share = total / exact.trials
            assert abs(got - trials * share) <= 4 * math.sqrt(trials * share * (1 - share)), (got, trials * share)


def _oracle_weights(code):
    """The weights whose outcome product C(N, t) (p-1)^t p stays within 2^22, where the enumeration oracle is quick."""
    p = code.prime.p
    return [t for t in range(code.length + 1) if math.comb(code.length, t) * (p - 1) ** t * p <= 1 << 22]


class TestCountedSweep:
    """A k = 1 sweep is counted in closed form; decoding every pattern by the vote checks it."""

    def test_capped_words_count_words(self):
        for letters, cap, length in itertools.product(range(4), range(4), range(6)):
            brute = sum(
                all(word.count(c) <= cap for c in range(letters))
                for word in itertools.product(range(letters), repeat=length)
            )
            assert tcc.channel._capped_words(length, letters, cap)[length] == brute
        # Errors on all of supp g leave 0 no vote, and no nonempty word keeps every letter below 0 uses.
        assert tcc.channel._capped_words(4, 3, -1) == [1, 0, 0, 0, 0]

    def test_every_comb_code_up_to_order_three(self):
        codes = {}
        for p in (2, 3, 5, 7):
            for n, x, y, a in itertools.product(range(2, 4), range(p), range(p), range(p)):
                code = comb_code(n, x, y, p, a)
                if code.dim == 1:
                    codes[p, code.generator.tobytes()] = code
        assert len(codes) == 12  # full-support generators: the random rows below bring the zeros
        for code in codes.values():
            for t in _oracle_weights(code):
                assert exhaustive_stats(code, t) == enumerated_exhaustive_stats(code, t)

    def test_random_rows_with_zero_entries(self):
        rng = np.random.default_rng(24)
        for p, length in itertools.product((2, 3, 5, 7), range(2, 9)):
            row = np.where(rng.random(length) < 0.6, rng.integers(1, p, size=length), 0)
            row[rng.choice(length, 2, replace=False)] = [0, 1]  # at least one zero and one nonzero entry
            code = code_from_rows(Matrix([row.tolist()], Prime(p)))
            for t in _oracle_weights(code):
                assert exhaustive_stats(code, t) == enumerated_exhaustive_stats(code, t)

    def test_sixteen_one_sixteen_beyond_capacity(self):
        # enumerated_exhaustive_stats decodes these 8,200,192 patterns in about 6 s (2-core VM),
        # so its counts are pinned.
        code = comb_code(4, 1, 2, 3, 2)
        assert (code.length, code.dim) == (16, 1)
        assert exhaustive_stats(code, 10) == ChannelStats(24600576, 6054048, 10090080, 8456448)

    def test_enumerates_and_decodes_nothing(self, nine_one_nine, monkeypatch):
        def refuse(*args):
            raise AssertionError("a k = 1 sweep enumerates and decodes no pattern")

        monkeypatch.setattr(tcc.channel, "_pattern_blocks", refuse)
        monkeypatch.setattr(tcc.code, "_vote", refuse)
        assert exhaustive_stats(nine_one_nine, 4) == ChannelStats(161280, 161280, 0, 0)
        assert exhaustive_stats(comb_code(4, 1, 2, 3, 2), 10).trials == 24600576

    @pytest.mark.parametrize("p", [2, BIG_PRIME])
    def test_step_guard_fires_before_counting(self, monkeypatch, p):
        # [300, 1, 300]: t = 212 takes 336,244 recurrence steps, t = 213 takes 350,996.
        code = code_from_rows(Matrix(np.ones((1, 300), dtype=np.int64), Prime(p)))
        assert exhaustive_stats(code, 212).trials > 0

        def refuse(*args):
            raise AssertionError("no count may start past the guard")

        monkeypatch.setattr(tcc.channel, "_counted_stats", refuse)
        with pytest.raises(GuardExceededError) as refused:
            exhaustive_stats(code, 213)
        assert str(refused.value) == (
            "exhaustive count at weight t = 213 takes 350996 recurrence steps, beyond the 341797 guard; "
            "use monte_carlo instead"
        )

    def test_step_count_is_the_recurrence_it_guards(self, monkeypatch):
        steps = []
        capped = tcc.channel._capped_words

        def counting(length, letters, cap):
            steps.append(sum(1 + max(0, min(m, cap)) for m in range(1, length + 1)))
            return capped(length, letters, cap)

        monkeypatch.setattr(tcc.channel, "_capped_words", counting)
        for length, support in ((9, 9), (12, 7), (16, 16), (20, 5), (40, 31)):
            row = np.zeros(length, dtype=np.int64)
            row[np.random.default_rng(length).choice(length, support, replace=False)] = 1
            code = code_from_rows(Matrix([row.tolist()], Prime(5)))
            for t in range(length + 1):
                steps.clear()
                exhaustive_stats(code, t)
                assert sum(steps) == tcc.channel._count_steps(length, support, t), (length, support, t)

    def test_step_limit_admits_every_sweep_the_weight_bound_did(self):
        # The limit is the costliest sweep at t <= 128, where the last bound stood, so none of them is refused.
        # Steps grow with N until N = w + t and vanish once w > 2t.
        costliest = max(tcc.channel._count_steps(w + t, w, t) for t in range(129) for w in range(1, 2 * t + 1))
        assert costliest == COUNT_STEP_LIMIT == tcc.channel._count_steps(274, 146, 128)

    def test_digit_guard_fires_before_counting(self, monkeypatch):
        # [4096, 1, 4096] over GF(2^31 - 1): t = 399's count has 4,300 digits, the most Python prints by default.
        code = code_from_rows(Matrix(np.ones((1, 4096), dtype=np.int64), Prime(BIG_PRIME)))
        stats = exhaustive_stats(code, 399)
        assert len(str(stats.trials)) == COUNT_DIGIT_LIMIT and stats.successes == stats.trials

        def refuse(*args):
            raise AssertionError("no count may start past the guard")

        monkeypatch.setattr(tcc.channel, "_counted_stats", refuse)
        with pytest.raises(GuardExceededError) as refused:
            exhaustive_stats(code, 400)
        assert str(refused.value) == (
            "exhaustive count at weight t = 400 has about 4310 digits, "
            "beyond Python's 4300-digit int-to-str limit; use monte_carlo instead"
        )

    def test_theorem_code_of_order_sixty_four_up_to_capacity(self, monkeypatch):
        # Within capacity every count is C(N, t) (p-1)^t p successes and takes no recurrence step.
        code = comb_code(64, 1, 6, 7, 2)
        assert (code.length, code.dim) == (4096, 1)
        for t in [*range(0, 2048, 89), 2047]:
            stats = exhaustive_stats(code, t)
            assert stats.successes == stats.trials == math.comb(4096, t) * 6**t * 7
        with pytest.raises(GuardExceededError, match="t = 2048 takes 2100223 recurrence steps"):
            exhaustive_stats(code, 2048)
        # The guards admit every weight up to capacity.
        counted = []
        monkeypatch.setattr(tcc.channel, "_counted_stats", lambda code, t, patterns: counted.append(t))
        for t in range(2048):
            exhaustive_stats(code, t)
        assert counted == list(range(2048))

    def test_counts_the_patterns_once(self, monkeypatch):
        # The n = 16 theorem code has w = N = 256, so no j recurs below t = 128 and C(N, t) is the only binomial.
        code = comb_code(16, 1, 1, 17, 2)
        assert (code.length, code.dim, int(np.count_nonzero(code.generator))) == (256, 1, 256)
        calls = []

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def comb(self, *args):
                calls.append(args)
                return math.comb(*args)

        monkeypatch.setattr(tcc.channel, "math", CountingMath())
        for t in (0, 1, 64, 127):
            calls.clear()
            stats = exhaustive_stats(code, t)
            assert calls == [(256, t)]
            assert stats.successes == stats.trials == math.comb(256, t) * 16**t * 17

    def test_theorem_code_of_order_sixteen_at_largest_prime(self):
        code = comb_code(16, 1, BIG_PRIME - 16, BIG_PRIME, 2)
        assert (code.length, code.dim) == (256, 1)
        for t in range(128):
            stats = exhaustive_stats(code, t)
            assert stats.successes == stats.trials == math.comb(256, t) * (BIG_PRIME - 1) ** t * BIG_PRIME


class TestErrorsOnly:
    """By linearity both sweeps decode error patterns alone, over the zero codeword."""

    @pytest.fixture
    def decoded_rows(self, monkeypatch):
        rows = []
        nearest = tcc.channel._nearest

        def counting(code, words):
            rows.append(len(words))
            return nearest(code, words)

        monkeypatch.setattr(tcc.channel, "_nearest", counting)
        return rows

    @pytest.mark.parametrize("t", range(5))
    def test_exhaustive_decodes_each_pattern_once(self, four_one_four, four_two, decoded_rows, t):
        # A k = 1 sweep is counted and decodes nothing; [4, 2] has no coset table and decodes every pattern.
        for code, decoded in ((four_one_four, 0), (four_two, 1)):
            decoded_rows.clear()
            stats = exhaustive_stats(code, t)
            patterns = math.comb(code.length, t) * (code.prime.p - 1) ** t
            assert sum(decoded_rows) == decoded * patterns
            assert stats.trials == patterns * code.prime.p**code.dim

    @pytest.mark.parametrize("cells", [1, 9, 40, 1 << 14])
    def test_exhaustive_blocks_fill_across_position_sets(self, four_two, decoded_rows, monkeypatch, cells):
        # Every block but the last is full, whatever the position sets hold.
        monkeypatch.setattr(tcc.channel, "_BATCH_CELLS", cells)
        step = max(1, cells // four_two.length)
        for t in range(5):
            decoded_rows.clear()
            exhaustive_stats(four_two, t)
            patterns = math.comb(4, t) * 2**t
            assert len(decoded_rows) == -(-patterns // step)
            assert decoded_rows[:-1] == [step] * (len(decoded_rows) - 1)

    def test_exhaustive_decoder_calls_on_channel_sweeps(self, nine_one_nine, decoded_rows):
        # The [9,5,3] code's 625 cosets classify its 576 patterns with no decode; [9,1,9]'s 32,256 are counted.
        nine_five_three = comb_code(3, 1, 1, 5, 1)
        assert exhaustive_stats(nine_five_three, 2) == ChannelStats(1800000, 675000, 900000, 225000)
        assert exhaustive_stats(nine_one_nine, 4) == ChannelStats(161280, 161280, 0, 0)
        assert decoded_rows == []

    def test_monte_carlo_encodes_no_message(self, nine_one_nine, monkeypatch):
        def refuse(*args):
            raise AssertionError("no message may be encoded")

        for module in (tcc.code, tcc.channel):
            if hasattr(module, "_encode_rows"):
                monkeypatch.setattr(module, "_encode_rows", refuse)
        assert monte_carlo(nine_one_nine, 4, 300, seed=31_337) == ChannelStats(300, 300, 0, 0)


class TestNineFiveThree:
    """Exhaustive counts on the k = 5 [9, 5, 3] code over GF(5), where the literal oracle takes minutes."""

    @pytest.mark.parametrize(
        "t, expected",
        [(1, ChannelStats(112500, 112500, 0, 0)), (2, ChannelStats(1800000, 675000, 900000, 225000))],
    )
    def test_pinned_counts(self, t, expected):
        code = comb_code(3, 1, 1, 5, 1)
        assert (code.length, code.dim) == (9, 5)
        assert exhaustive_stats(code, t) == expected

    def test_weight_three_exits_at_the_guard(self, capsys):
        flags = "--n 3 --p 5 --x 1 --y 1 --a 1 --t 3 --exhaustive".split()
        assert main(["simulate", *flags]) == 3
        assert capsys.readouterr().err.splitlines()[-1] == (
            "tcc: guard exceeded: exhaustive sweep means 16800000 outcomes from 5376 decoded patterns, "
            "beyond the 16777216 guard; use monte_carlo instead"
        )


def high_rate_comb_codes():
    """Every distinct comb code with p <= 7 and n <= 4 that has k >= 2 and fewer cosets than codewords (2k > N)."""
    codes = {}
    for p in (2, 3, 5, 7):
        for n, x, y, a in itertools.product(range(2, 5), range(p), range(p), range(p)):
            code = comb_code(n, x, y, p, a)
            if code.dim >= 2 and 2 * code.dim > code.length:
                codes.setdefault((p, code.length, code.generator.tobytes()), code)
    return list(codes.values())


HIGH_RATE = high_rate_comb_codes()


class TestCosetTable:
    """k >= 2 codes with fewer cosets than codewords classify errors by syndrome; _scan checks the table."""

    @pytest.mark.parametrize(
        "code", HIGH_RATE, ids=[f"GF{c.prime.p}-N{c.length}-k{c.dim}-{i}" for i, c in enumerate(HIGH_RATE)]
    )
    def test_table_matches_scan_on_every_sweep(self, code, monkeypatch):
        p, k, length = code.prime.p, code.dim, code.length
        assert not matmul_mod(code.generator, tcc.channel._parity_check(code), p).any()
        sweeps = [t for t in range(length + 1) if math.comb(length, t) * (p - 1) ** t * p**k <= EXHAUSTIVE_LIMIT]
        if p**k > ENUMERATION_LIMIT and tcc.channel._coset_table(code) is None:
            return  # beyond both routes: its sweeps exit 3, as they did before the table
        table = [exhaustive_stats(code, t) for t in sweeps]
        assert not sweeps or table[0] == ChannelStats(p**k, p**k, 0, 0)
        # No build may run now: every sweep goes through _nearest, which scores every codeword.
        monkeypatch.setattr(tcc.channel, "_TABLE_PATTERNS", 0)
        if p**k <= ENUMERATION_LIMIT:
            assert [exhaustive_stats(code, t) for t in sweeps] == table
            return
        # _scan refuses p^k codewords, so these sweeps answer only through the table.
        for t in sweeps:
            with pytest.raises(GuardExceededError, match="nearest-codeword decoding"):
                exhaustive_stats(code, t)

    @pytest.mark.parametrize(
        "code", HIGH_RATE, ids=[f"GF{c.prime.p}-N{c.length}-k{c.dim}-{i}" for i, c in enumerate(HIGH_RATE)]
    )
    def test_cosets_are_the_dense_syndrome_product(self, code):
        # One helper sums the syndromes for the table's build and its lookup; a dense product checks it.
        table = tcc.channel._coset_table(code)
        if table is None:
            return
        parity, digits, p, length = table[0], table[1], code.prime.p, code.length
        rng = np.random.default_rng(length * p + code.dim)
        for t in sorted({0, 1, 2, length // 2, length - 1, length}):
            positions, offsets = tcc.channel._draw(rng, 60, length, t, p)
            dense = matmul_mod(tcc.channel._dense(positions, offsets, length), parity, p) @ digits
            assert np.array_equal(tcc.channel._cosets(parity, digits, p, positions, offsets), dense), t

    def test_high_rate_family(self):
        # 24 of these codes have 137 sweeps within the guard: _scan answers 134, the table alone 2
        # ([9, 9] and [16, 10] over GF(5) at t = 0), and neither route the [16, 9] one's.
        assert len(HIGH_RATE) == 32

    @pytest.fixture
    def scanned(self, monkeypatch):
        calls = []
        scan = tcc.code._scan

        def recording(code, words):
            calls.append(code)
            return scan(code, words)

        monkeypatch.setattr(tcc.code, "_scan", recording)
        return calls

    def test_nine_five_three_never_scans(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the coset table classifies this code")

        monkeypatch.setattr(tcc.code, "_scan", refuse)
        code = comb_code(3, 1, 1, 5, 1)
        assert exhaustive_stats(code, 1) == ChannelStats(112500, 112500, 0, 0)
        assert exhaustive_stats(code, 2) == ChannelStats(1800000, 675000, 900000, 225000)
        assert monte_carlo(code, 2, 5000, 0) == ChannelStats(5000, 1886, 2497, 617)

    def test_as_many_or_more_cosets_than_codewords_scan(self, four_two, scanned):
        # [4, 2]: N - k = k.  The alpha = 0 family ([9, 2] here) has k = n - 1 and N - k = n^2 - n + 1.
        low_rate = comb_code(3, 1, 4, 5, 2)
        assert (low_rate.length, low_rate.dim) == (9, 2)
        for code in (four_two, low_rate):
            assert tcc.channel._coset_table(code) is None
            scanned.clear()
            exhaustive_stats(code, 2)
            monte_carlo(code, 2, 50, 0)
            assert scanned and all(seen is code for seen in scanned)

    def test_dimension_one_votes(self, nine_one_nine, scanned, drawn_votes, monkeypatch):
        def refuse(*args):
            raise AssertionError("the channel classifies a k = 1 code from its drawn symbols, with no dense vote")

        monkeypatch.setattr(tcc.code, "_vote", refuse)
        assert tcc.channel._coset_table(nine_one_nine) is None
        exhaustive_stats(nine_one_nine, 2)  # counted: no vote
        monte_carlo(nine_one_nine, 5, 100, 0)
        assert sum(len(votes) for votes in drawn_votes) == 100
        assert scanned == []

    def test_build_over_its_limit_falls_back_to_scan(self, scanned, monkeypatch):
        code = comb_code(3, 1, 1, 5, 1)
        want = [exhaustive_stats(code, 1), exhaustive_stats(code, 2), monte_carlo(code, 2, 300, 4)]
        assert scanned == []
        # Radius 3 takes 1 + 36 + 576 + 5,376 patterns; the cap stops the build before weight 2.
        monkeypatch.setattr(tcc.channel, "_TABLE_PATTERNS", 600)
        assert tcc.channel._coset_table(code) is None
        assert [exhaustive_stats(code, 1), exhaustive_stats(code, 2), monte_carlo(code, 2, 300, 4)] == want
        assert len(scanned) == 3

    def test_build_stops_at_the_covering_radius(self, monkeypatch):
        levels = []
        blocks = tcc.channel._pattern_blocks

        def recording(length, t, p, step):
            levels.append(t)
            return blocks(length, t, p, step)

        monkeypatch.setattr(tcc.channel, "_pattern_blocks", recording)
        _, _, least, count = tcc.channel._coset_table(comb_code(3, 1, 1, 5, 1))
        assert levels == [0, 1, 2, 3]
        assert (len(least), least.max()) == (625, 3)
        assert (least[0], count[0]) == (0, 1)
        # Every weight-1 error has its own coset: the code's distance is 3.
        assert np.count_nonzero(least == 1) == 36 and (count[least == 1] == 1).all()

    def test_answers_beyond_the_scan_guard(self):
        # Every word of the full space [9, 9] is a codeword, so a nonzero error is always miscorrected.
        # 5^9 codewords are beyond _scan's guard; one coset is not.
        full = comb_code(3, 0, 1, 5, 1)
        assert (full.length, full.dim) == (9, 9)
        assert exhaustive_stats(full, 0) == ChannelStats(5**9, 5**9, 0, 0)
        assert monte_carlo(full, 1, 100, 0) == ChannelStats(100, 0, 0, 100)
        with pytest.raises(GuardExceededError, match="p\\^k = 1953125 codewords"):
            decode_nearest(full, np.zeros(9, dtype=np.int64))

    def test_largest_prime_is_refused_the_table(self, monkeypatch):
        code = comb_code(3, 1, 1, BIG_PRIME, 1)
        assert (code.length, code.dim) == (9, 5)

        def refuse(*args):
            raise AssertionError("p^(N - k) cosets exceed the table's bound; no pattern may be enumerated")

        monkeypatch.setattr(tcc.channel, "_pattern_blocks", refuse)
        assert tcc.channel._coset_table(code) is None
        with pytest.raises(GuardExceededError) as refused:
            monte_carlo(code, 1, 10, 0)
        assert str(refused.value) == (
            "nearest-codeword decoding would enumerate p^k = about 10^46 codewords, beyond the 1048576 guard"
        )


class TestVoteDecoder:
    """k = 1 codes decode by plurality vote; _scan, which scores every codeword, checks it."""

    @staticmethod
    def assert_same(code, words):
        vote = tcc.code._vote(code, words)
        scan = tcc.code._scan(code, words)
        for got, want in zip(vote, scan):
            assert np.array_equal(got, want)

    def test_every_word_of_four_one_four(self, four_one_four):
        words = np.array(list(itertools.product(range(3), repeat=4)), dtype=np.int64)
        self.assert_same(four_one_four, words)

    @pytest.mark.parametrize("row", [[1, 1, 1, 1, 1, 1, 1, 1, 1], [1, 0, 66, 5, 0, 2, 17, 0, 40]])
    def test_random_words_at_prime_67(self, row):
        prime = Prime(67)
        code = code_from_rows(Matrix([row], prime))
        rng = np.random.default_rng(67)
        sent = rng.integers(0, 67, size=(400, 1)) * code.generator[0] % 67
        errors = np.where(rng.random((400, 9)) < rng.random((400, 1)), rng.integers(1, 67, size=(400, 9)), 0)
        words = np.vstack([(sent + errors) % 67, rng.integers(0, 67, size=(100, 9))])
        self.assert_same(code, words)

    def test_dispatch_on_dimension(self, four_one_four, four_two, monkeypatch):
        def refuse(*args):
            raise AssertionError("wrong decoder")

        monkeypatch.setattr(tcc.code, "_scan", refuse)
        decode_nearest(four_one_four, np.array([1, 0, 2, 1]))
        monkeypatch.undo()
        monkeypatch.setattr(tcc.code, "_vote", refuse)
        decode_nearest(four_two, np.array([1, 0, 2, 1]))

    def test_largest_prime(self):
        # Generator entries near p make each vote's product approach 2^62.
        prime = Prime(BIG_PRIME)
        gen = [1, BIG_PRIME - 1, 2, 0, BIG_PRIME - 2, 3, 0, 5, 7]
        code = code_from_rows(Matrix([gen], prime))
        message = np.array([BIG_PRIME - 5])
        sent = encode(code, message)
        rng = np.random.default_rng(5)
        received = inject_errors(sent, BIG_PRIME, 3, rng)
        result = decode_nearest(code, received)
        assert result.status == UNIQUE
        assert np.array_equal(result.message, message)
        assert result.distance == 3
        # Zeroing the support leaves the zero codeword nearest.
        assert decode_nearest(code, np.zeros(9, dtype=np.int64)).message.tolist() == [0]

    def test_tie_takes_smallest_vote(self):
        prime = Prime(7)
        code = code_from_rows(Matrix([[1, 1, 1, 1]], prime))
        result = decode_nearest(code, np.array([5, 5, 3, 3]))
        assert result.status == AMBIGUOUS
        assert result.message.tolist() == [3]
        assert result.distance == 2

    def test_theorem_code_at_largest_prime(self):
        code = comb_code(3, 1, BIG_PRIME - 3, BIG_PRIME, 2)
        assert code.dim == 1
        stats = monte_carlo(code, 4, 200, seed=0)
        assert stats == ChannelStats(200, 200, 0, 0)
        # The counted sweep passes up to capacity, with C(9, t) (p - 1)^t p outcomes.
        for t in range(5):
            outcomes = math.comb(9, t) * (BIG_PRIME - 1) ** t * BIG_PRIME
            assert exhaustive_stats(code, t) == ChannelStats(outcomes, outcomes, 0, 0)


# Seeded `simulate --json` stdout; each Monte Carlo count is literal_monte_carlo's for the same code, t, trials and seed.
PINNED = [
    (
        '--n 3 --p 5 --x 3 --y 1 --a 2 --t 4 --exhaustive --seed 0 --json',
        0,
        '{"p": 5, "n": 3, "x": 3, "y": 1, "a": 2, "t": 4, "length": 9, "dimension": 1, "min_distance": 9, "capacity": 4, "hypotheses_met": true, "mode": "exhaustive", "trials": 161280, "successes": 161280, "ambiguous": 0, "miscorrected": 0, "within_capacity": true, "verdict": "PASS"}\n',
    ),
    (
        '--n 3 --p 5 --x 3 --y 1 --a 2 --t 4 --exhaustive --seed 12345 --json',
        0,
        '{"p": 5, "n": 3, "x": 3, "y": 1, "a": 2, "t": 4, "length": 9, "dimension": 1, "min_distance": 9, "capacity": 4, "hypotheses_met": true, "mode": "exhaustive", "trials": 161280, "successes": 161280, "ambiguous": 0, "miscorrected": 0, "within_capacity": true, "verdict": "PASS"}\n',
    ),
    (
        '--n 3 --p 5 --x 3 --y 1 --a 2 --t 4 --exhaustive --seed 2147483647 --json',
        0,
        '{"p": 5, "n": 3, "x": 3, "y": 1, "a": 2, "t": 4, "length": 9, "dimension": 1, "min_distance": 9, "capacity": 4, "hypotheses_met": true, "mode": "exhaustive", "trials": 161280, "successes": 161280, "ambiguous": 0, "miscorrected": 0, "within_capacity": true, "verdict": "PASS"}\n',
    ),
    (
        '--n 4 --p 5 --x 1 --y 1 --a 2 --t 7 --trials 10000 --seed 0 --json',
        0,
        '{"p": 5, "n": 4, "x": 1, "y": 1, "a": 2, "t": 7, "length": 16, "dimension": 1, "min_distance": 16, "capacity": 7, "hypotheses_met": true, "mode": "monte-carlo", "seed": 0, "trials": 10000, "successes": 10000, "ambiguous": 0, "miscorrected": 0, "within_capacity": true, "verdict": "PASS"}\n',
    ),
    (
        '--n 4 --p 5 --x 1 --y 1 --a 2 --t 7 --trials 10000 --seed 12345 --json',
        0,
        '{"p": 5, "n": 4, "x": 1, "y": 1, "a": 2, "t": 7, "length": 16, "dimension": 1, "min_distance": 16, "capacity": 7, "hypotheses_met": true, "mode": "monte-carlo", "seed": 12345, "trials": 10000, "successes": 10000, "ambiguous": 0, "miscorrected": 0, "within_capacity": true, "verdict": "PASS"}\n',
    ),
    (
        '--n 4 --p 5 --x 1 --y 1 --a 2 --t 7 --trials 10000 --seed 2147483647 --json',
        0,
        '{"p": 5, "n": 4, "x": 1, "y": 1, "a": 2, "t": 7, "length": 16, "dimension": 1, "min_distance": 16, "capacity": 7, "hypotheses_met": true, "mode": "monte-carlo", "seed": 2147483647, "trials": 10000, "successes": 10000, "ambiguous": 0, "miscorrected": 0, "within_capacity": true, "verdict": "PASS"}\n',
    ),
    (
        '--n 4 --p 5 --x 1 --y 1 --a 2 --t 9 --trials 10000 --seed 0 --json',
        2,
        '{"p": 5, "n": 4, "x": 1, "y": 1, "a": 2, "t": 9, "length": 16, "dimension": 1, "min_distance": 16, "capacity": 7, "hypotheses_met": true, "mode": "monte-carlo", "seed": 0, "trials": 10000, "successes": 9960, "ambiguous": 39, "miscorrected": 1, "within_capacity": false, "verdict": "FAIL"}\n',
    ),
    (
        '--n 4 --p 5 --x 1 --y 1 --a 2 --t 9 --trials 10000 --seed 12345 --json',
        2,
        '{"p": 5, "n": 4, "x": 1, "y": 1, "a": 2, "t": 9, "length": 16, "dimension": 1, "min_distance": 16, "capacity": 7, "hypotheses_met": true, "mode": "monte-carlo", "seed": 12345, "trials": 10000, "successes": 9943, "ambiguous": 52, "miscorrected": 5, "within_capacity": false, "verdict": "FAIL"}\n',
    ),
    (
        '--n 4 --p 5 --x 1 --y 1 --a 2 --t 9 --trials 10000 --seed 2147483647 --json',
        2,
        '{"p": 5, "n": 4, "x": 1, "y": 1, "a": 2, "t": 9, "length": 16, "dimension": 1, "min_distance": 16, "capacity": 7, "hypotheses_met": true, "mode": "monte-carlo", "seed": 2147483647, "trials": 10000, "successes": 9946, "ambiguous": 44, "miscorrected": 10, "within_capacity": false, "verdict": "FAIL"}\n',
    ),
    (
        '--n 3 --p 5 --x 1 --y 1 --a 1 --t 1 --trials 5000 --seed 0 --json',
        0,
        '{"p": 5, "n": 3, "x": 1, "y": 1, "a": 1, "t": 1, "length": 9, "dimension": 5, "min_distance": 3, "capacity": 1, "hypotheses_met": false, "mode": "monte-carlo", "seed": 0, "trials": 5000, "successes": 5000, "ambiguous": 0, "miscorrected": 0, "within_capacity": true, "verdict": "PASS"}\n',
    ),
    (
        '--n 3 --p 5 --x 1 --y 1 --a 1 --t 1 --trials 5000 --seed 12345 --json',
        0,
        '{"p": 5, "n": 3, "x": 1, "y": 1, "a": 1, "t": 1, "length": 9, "dimension": 5, "min_distance": 3, "capacity": 1, "hypotheses_met": false, "mode": "monte-carlo", "seed": 12345, "trials": 5000, "successes": 5000, "ambiguous": 0, "miscorrected": 0, "within_capacity": true, "verdict": "PASS"}\n',
    ),
    (
        '--n 3 --p 5 --x 1 --y 1 --a 1 --t 1 --trials 5000 --seed 2147483647 --json',
        0,
        '{"p": 5, "n": 3, "x": 1, "y": 1, "a": 1, "t": 1, "length": 9, "dimension": 5, "min_distance": 3, "capacity": 1, "hypotheses_met": false, "mode": "monte-carlo", "seed": 2147483647, "trials": 5000, "successes": 5000, "ambiguous": 0, "miscorrected": 0, "within_capacity": true, "verdict": "PASS"}\n',
    ),
    (
        '--n 3 --p 5 --x 1 --y 1 --a 1 --t 2 --trials 5000 --seed 0 --json',
        2,
        '{"p": 5, "n": 3, "x": 1, "y": 1, "a": 1, "t": 2, "length": 9, "dimension": 5, "min_distance": 3, "capacity": 1, "hypotheses_met": false, "mode": "monte-carlo", "seed": 0, "trials": 5000, "successes": 1886, "ambiguous": 2497, "miscorrected": 617, "within_capacity": false, "verdict": "FAIL"}\n',
    ),
    (
        '--n 3 --p 5 --x 1 --y 1 --a 1 --t 2 --trials 5000 --seed 12345 --json',
        2,
        '{"p": 5, "n": 3, "x": 1, "y": 1, "a": 1, "t": 2, "length": 9, "dimension": 5, "min_distance": 3, "capacity": 1, "hypotheses_met": false, "mode": "monte-carlo", "seed": 12345, "trials": 5000, "successes": 1908, "ambiguous": 2456, "miscorrected": 636, "within_capacity": false, "verdict": "FAIL"}\n',
    ),
    (
        '--n 3 --p 5 --x 1 --y 1 --a 1 --t 2 --trials 5000 --seed 2147483647 --json',
        2,
        '{"p": 5, "n": 3, "x": 1, "y": 1, "a": 1, "t": 2, "length": 9, "dimension": 5, "min_distance": 3, "capacity": 1, "hypotheses_met": false, "mode": "monte-carlo", "seed": 2147483647, "trials": 5000, "successes": 1873, "ambiguous": 2520, "miscorrected": 607, "within_capacity": false, "verdict": "FAIL"}\n',
    ),
    (
        '--n 3 --p 5 --x 3 --y 1 --a 2 --t 4 --trials 500 --seed 314159 --json',
        0,
        '{"p": 5, "n": 3, "x": 3, "y": 1, "a": 2, "t": 4, "length": 9, "dimension": 1, "min_distance": 9, "capacity": 4, "hypotheses_met": true, "mode": "monte-carlo", "seed": 314159, "trials": 500, "successes": 500, "ambiguous": 0, "miscorrected": 0, "within_capacity": true, "verdict": "PASS"}\n',
    ),
]


@pytest.mark.parametrize("flags, exit_code, stdout", PINNED, ids=[flags for flags, _, _ in PINNED])
def test_pinned_simulate_output(capsys, flags, exit_code, stdout):
    assert main(["simulate", *flags.split()]) == exit_code
    assert capsys.readouterr().out == stdout
