import numpy as np
import pytest

import tcc.channel
from tcc import (
    ChannelStats,
    CombParams,
    Felt,
    GuardExceededError,
    Prime,
    TwistSpec,
    Vector,
    centralizer_code,
    code_from_basis,
    comb_matrix,
    exhaustive_correction_check,
    exhaustive_detection_check,
    exhaustive_stats,
    hamming_distance,
    inject_errors,
    monte_carlo,
)
from helpers import GF2, GF3, GF5


def comb_code(n, x, y, p, a):
    prime = Prime(p)
    matrix = comb_matrix(CombParams(n, Felt(x, prime), Felt(y, prime)))
    return code_from_basis(centralizer_code(TwistSpec(matrix, Felt(a, prime))))


@pytest.fixture(scope="module")
def four_one_four():
    return comb_code(2, 1, 1, 3, 2)


@pytest.fixture(scope="module")
def nine_one_nine():
    # x*n + y = 10 = 0 over GF(5).
    return comb_code(3, 3, 1, 5, 2)


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
        word = Vector([1, 2, 0, 4], GF5)
        assert inject_errors(word, 0, rng) == word

    def test_full_weight_over_gf2_is_complement(self):
        rng = np.random.default_rng(0)
        word = Vector([1, 0, 1, 1, 0], GF2)
        flipped = inject_errors(word, 5, rng)
        assert flipped == Vector([0, 1, 0, 0, 1], GF2)

    def test_distance_equals_weight(self):
        rng = np.random.default_rng(99)
        word = Vector(rng.integers(0, 5, size=9), GF5)
        for _ in range(10_000):
            t = int(rng.integers(0, 10))
            corrupted = inject_errors(word, t, rng)
            assert hamming_distance(word, corrupted) == t

    def test_weight_beyond_length_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            inject_errors(Vector([0, 0], GF3), 3, rng)


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

        monkeypatch.setattr(tcc.channel, "encode", no_trial)
        with pytest.raises(GuardExceededError, match="16777217 trials"):
            monte_carlo(four_one_four, 1, tcc.channel.EXHAUSTIVE_LIMIT + 1, seed=0)

    def test_at_least_one_trial_required(self, four_one_four):
        with pytest.raises(ValueError):
            monte_carlo(four_one_four, 1, 0, seed=0)
