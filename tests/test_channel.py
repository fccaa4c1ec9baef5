import itertools
import math

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
from tcc.channel import inject_errors
from tcc.cli import main
from tcc.code import AMBIGUOUS, UNIQUE, decode_nearest, encode
from helpers import (
    code_from_rows,
    exhaustive_correction_check,
    exhaustive_detection_check,
    hamming_distance,
    literal_exhaustive_stats,
    literal_monte_carlo,
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
        code = comb_code(4, 1, 2, 3, 2)  # [16, 1, 16] over GF(3)
        with pytest.raises(GuardExceededError, match="monte_carlo"):
            exhaustive_stats(code, 10)

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
    def test_seed_does_not_follow_the_decode_block(self, nine_one_nine, four_two, monkeypatch, t):
        # 2,000 trials on the [9,1,9] code span two draw chunks of 1,820 rows.
        for code, trials in ((nine_one_nine, 2000), (four_two, 300)):
            default = monte_carlo(code, min(t, code.length), trials, seed=11)
            for cells in (1, 3 * code.length):
                monkeypatch.setattr(tcc.channel, "_BATCH_CELLS", cells)
                assert monte_carlo(code, min(t, code.length), trials, seed=11) == default
            monkeypatch.undo()

    def test_draws_every_position_set_and_offset(self, monkeypatch):
        blocks = []
        tally = tcc.channel._tally

        def recording(code, errors):
            blocks.append(errors.copy())
            return tally(code, errors)

        monkeypatch.setattr(tcc.channel, "_tally", recording)
        repetition = LinearCode(Prime(5), 4, np.ones((1, 4), dtype=np.int64))
        assert monte_carlo(repetition, 2, 300, seed=3).trials == 300
        errors = np.concatenate(blocks)
        assert len(errors) == 300
        assert (np.count_nonzero(errors, axis=1) == 2).all()
        assert {tuple(np.flatnonzero(row)) for row in errors} == set(itertools.combinations(range(4), 2))
        for column in errors.T:
            assert set(column[column != 0]) == {1, 2, 3, 4}


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

    def test_exhaustive_across_offset_blocks(self, four_one_four, monkeypatch):
        # One offset row per decoder call: the chunking must not change the counts.
        monkeypatch.setattr(tcc.channel, "_BATCH_CELLS", 1)
        for t in range(5):
            assert exhaustive_stats(four_one_four, t) == literal_exhaustive_stats(four_one_four, t)

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

    def test_monte_carlo_across_trial_blocks(self, four_two, monkeypatch):
        monkeypatch.setattr(tcc.channel, "_BATCH_CELLS", 3 * four_two.length)
        assert monte_carlo(four_two, 2, 50, 9) == literal_monte_carlo(four_two, 2, 50, 9)

    @pytest.mark.parametrize("t", [0, 4])
    def test_monte_carlo_edge_weights(self, four_one_four, four_two, t):
        for code in (four_one_four, four_two):
            stats = monte_carlo(code, t, 100, 5)
            assert stats == literal_monte_carlo(code, t, 100, 5)
            assert t or stats == ChannelStats(100, 100, 0, 0)


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
        for code in (four_one_four, four_two):
            decoded_rows.clear()
            stats = exhaustive_stats(code, t)
            patterns = math.comb(code.length, t) * (code.prime.p - 1) ** t
            assert sum(decoded_rows) == patterns
            assert stats.trials == patterns * code.prime.p**code.dim

    @pytest.mark.parametrize("cells", [1, 9, 40, 1 << 14])
    def test_exhaustive_blocks_fill_across_position_sets(
        self, four_one_four, four_two, decoded_rows, monkeypatch, cells
    ):
        # Every block but the last is full, whatever the position sets hold.
        monkeypatch.setattr(tcc.channel, "_BATCH_CELLS", cells)
        for code in (four_one_four, four_two):
            step = max(1, cells // code.length)
            for t in range(5):
                decoded_rows.clear()
                exhaustive_stats(code, t)
                patterns = math.comb(code.length, t) * (code.prime.p - 1) ** t
                assert len(decoded_rows) == -(-patterns // step)
                assert decoded_rows[:-1] == [step] * (len(decoded_rows) - 1)

    def test_exhaustive_decoder_calls_on_channel_sweeps(self, nine_one_nine, decoded_rows):
        # 576 patterns fit one block of 1,820 rows; 32,256 patterns take 18 blocks.
        nine_five_three = comb_code(3, 1, 1, 5, 1)
        assert exhaustive_stats(nine_five_three, 2) == ChannelStats(1800000, 675000, 900000, 225000)
        assert decoded_rows == [576]
        decoded_rows.clear()
        exhaustive_stats(nine_one_nine, 4)
        assert decoded_rows == [1820] * 17 + [32256 - 17 * 1820]

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


class TestVoteDecoder:
    """k = 1 codes decode by plurality vote; the table decoder checks it."""

    @staticmethod
    def assert_same(code, words):
        vote = tcc.code._vote(code, words)
        table = tcc.code._scan(code, words)
        for got, want in zip(vote, table):
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
        with pytest.raises(GuardExceededError, match="exhaustive sweep"):
            exhaustive_stats(code, 4)


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
        '{"p": 5, "n": 4, "x": 1, "y": 1, "a": 2, "t": 9, "length": 16, "dimension": 1, "min_distance": 16, "capacity": 7, "hypotheses_met": true, "mode": "monte-carlo", "seed": 0, "trials": 10000, "successes": 9957, "ambiguous": 42, "miscorrected": 1, "within_capacity": false, "verdict": "FAIL"}\n',
    ),
    (
        '--n 4 --p 5 --x 1 --y 1 --a 2 --t 9 --trials 10000 --seed 12345 --json',
        2,
        '{"p": 5, "n": 4, "x": 1, "y": 1, "a": 2, "t": 9, "length": 16, "dimension": 1, "min_distance": 16, "capacity": 7, "hypotheses_met": true, "mode": "monte-carlo", "seed": 12345, "trials": 10000, "successes": 9945, "ambiguous": 51, "miscorrected": 4, "within_capacity": false, "verdict": "FAIL"}\n',
    ),
    (
        '--n 4 --p 5 --x 1 --y 1 --a 2 --t 9 --trials 10000 --seed 2147483647 --json',
        2,
        '{"p": 5, "n": 4, "x": 1, "y": 1, "a": 2, "t": 9, "length": 16, "dimension": 1, "min_distance": 16, "capacity": 7, "hypotheses_met": true, "mode": "monte-carlo", "seed": 2147483647, "trials": 10000, "successes": 9950, "ambiguous": 46, "miscorrected": 4, "within_capacity": false, "verdict": "FAIL"}\n',
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
