import itertools

import numpy as np
import pytest

import tcc.code
from tcc import (
    CombParams,
    GuardExceededError,
    LinearCode,
    Matrix,
    Prime,
    TwistSpec,
    analyze,
    centralizer_code,
    comb_matrix,
    min_distance,
)
from tcc.code import AMBIGUOUS, UNIQUE, decode_nearest, encode
from helpers import GF2, GF3, GF5, code_from_rows, hamming_distance, identity, is_codeword, rand_matrix, zeros


def repetition_code(p=3):
    return code_from_rows(Matrix([[1, 1, 1, 1]], Prime(p)))


def comb_code(n, x, y, p, a):
    prime = Prime(p)
    matrix = comb_matrix(CombParams(n, x, y, prime))
    return centralizer_code(TwistSpec(matrix, a))


class TestCodeConstruction:
    def test_from_worked_centralizer(self):
        code = comb_code(2, 1, 1, 3, 2)
        assert (code.length, code.dim) == (4, 1)
        assert code.generator.tolist() == [[1, 1, 1, 1]]

    def test_empty_basis_gives_zero_code(self):
        # A invertible with a = 0 forces B = 0, the genuine zero code.
        spec = TwistSpec(identity(2, GF3), 0)
        zero_code = centralizer_code(spec)
        assert zero_code.dim == 0
        assert zero_code.generator.shape == (0, 4)

    def test_full_space_generator_is_identity(self):
        spec = TwistSpec(zeros(2, 2, GF3), 1)
        code = centralizer_code(spec)
        assert code.generator.tolist() == np.eye(4, dtype=np.int64).tolist()

    def test_code_from_rows_canonicalizes(self):
        # Dependent rows collapse to the RREF of the row space.
        rows = Matrix([[2, 2, 2, 2], [1, 1, 1, 1]], GF3)
        code = code_from_rows(rows)
        assert code.dim == 1
        assert code.generator.tolist() == [[1, 1, 1, 1]]


class TestGenerator:
    def test_held_as_given_and_made_read_only(self):
        gen = np.array([[1, 0, 2], [0, 1, 1]], dtype=np.int64)
        code = LinearCode(GF3, 3, gen)
        assert code.generator is gen
        assert code.dim == 2
        assert not gen.flags.writeable

    @pytest.mark.parametrize(
        "gen",
        [
            np.array([[1, 1, 1]], dtype=np.int32),
            np.array([1, 1, 1], dtype=np.int64),
            np.array([[1, 1, 1, 1]], dtype=np.int64),
            Matrix([[1, 1, 1]], GF3),
        ],
        ids=["int32", "one-dimensional", "four-columns", "matrix"],
    )
    def test_rejects_what_is_no_int64_stack_of_rows(self, gen):
        with pytest.raises(ValueError, match="generator does not match the declared code"):
            LinearCode(GF3, 3, gen)

    @pytest.mark.parametrize("entry", [-1, 3, 4])
    def test_rejects_an_unreduced_entry(self, entry):
        # Reduced silently, it would pass a membership check mod p and print a wrong row.
        gen = np.array([[1, entry, 0]], dtype=np.int64)
        with pytest.raises(ValueError, match=r"generator entries must be residues in \[0, 3\)"):
            LinearCode(GF3, 3, gen)
        assert gen.flags.writeable

    def test_equal_codes_have_equal_generators(self):
        code = repetition_code()
        assert code == code_from_rows(Matrix([[2, 2, 2, 2], [1, 1, 1, 1]], GF3))
        assert code != repetition_code(5)
        assert code != code_from_rows(Matrix([[1, 1, 1, 0]], GF3))
        assert code != code_from_rows(Matrix([[1, 1, 1, 1, 1]], GF3))

    def test_zero_code_has_no_rows_and_encodes_to_zeros(self):
        zero = centralizer_code(TwistSpec(identity(2, GF3), 0))
        assert zero.generator.shape == (0, 4)
        assert zero == LinearCode(GF3, 4, np.zeros((0, 4), dtype=np.int64))
        msgs = np.zeros((3, 0), dtype=np.int64)
        assert tcc.code._encode_rows(zero, msgs).tolist() == [[0] * 4] * 3
        assert encode(zero, msgs[0]).tolist() == [0] * 4
        result = decode_nearest(zero, np.array([0, 2, 0, 1], dtype=np.int64))
        assert (result.status, result.codeword.tolist(), result.distance) == (UNIQUE, [0] * 4, 2)
        with pytest.raises(ValueError, match="^zero code has no minimum distance$"):
            min_distance(zero)
        with pytest.raises(ValueError, match="^zero code has no parameters to report$"):
            analyze(zero)


class TestMinDistance:
    def test_repetition_code(self):
        assert min_distance(repetition_code()) == 4

    def test_identity_generator(self):
        code = code_from_rows(identity(5, GF3))
        assert min_distance(code) == 1

    def test_nine_one_nine_over_gf7(self):
        # x*n + y = 7 = 0 over GF(7); the 7 codewords are the constant words.
        code = comb_code(3, 2, 1, 7, 3)
        assert (code.length, code.dim) == (9, 1)
        assert min_distance(code) == 9

    def test_zero_code_rejected(self):
        spec = TwistSpec(identity(2, GF3), 0)
        code = centralizer_code(spec)
        with pytest.raises(ValueError, match="zero code has no minimum distance"):
            min_distance(code)

    def test_enumeration_guard(self):
        code = code_from_rows(identity(25, GF3))
        with pytest.raises(GuardExceededError):
            min_distance(code)

    def test_guard_counts_projective_points(self):
        # (3^13 - 1) / 2 = 797161 representatives fit the 2^20 guard that
        # 3^13 = 1594323 messages would not; one more dimension does not.
        assert min_distance(code_from_rows(identity(13, GF3))) == 1
        with pytest.raises(GuardExceededError, match="2391484"):
            min_distance(code_from_rows(identity(14, GF3)))

    def test_one_codeword_at_the_largest_prime(self):
        big = Prime(2147483647)
        code = code_from_rows(Matrix([[3, 0, 5, 1, 0, 2]], big))
        assert min_distance(code) == 4

    def test_matches_every_message_enumeration(self):
        # Oracle: the literal minimum over all p^k - 1 nonzero messages.
        rng = np.random.default_rng(53)
        for p, k, length in [(2, 4, 7), (3, 3, 6), (5, 2, 5), (7, 3, 5)]:
            prime = Prime(p)
            for _ in range(5):
                code = code_from_rows(rand_matrix(rng, k, length, prime))
                if code.dim == 0:
                    continue
                weights = [
                    np.count_nonzero(encode(code, np.array(np.unravel_index(m, (p,) * code.dim))))
                    for m in range(1, p**code.dim)
                ]
                assert min_distance(code) == min(weights), (p, k, length)


class TestAnalyze:
    def test_four_one_four(self):
        code = repetition_code()
        report = analyze(code)
        assert (report.length, report.dim, report.min_distance) == (4, 1, 4)
        assert report.mds
        assert report.detect == 3
        assert report.correct == 1
        assert report.rate == (1, 4)
        assert analyze(code) == report  # recomputation is stable

    def test_nine_one_nine(self):
        report = analyze(comb_code(3, 2, 1, 7, 3))
        assert (report.length, report.dim, report.min_distance) == (9, 1, 9)
        assert report.detect == 8
        assert report.correct == 4
        assert report.rate == (1, 9)

    def test_identity_generator_is_trivially_mds(self):
        report = analyze(code_from_rows(identity(5, GF3)))
        assert (report.length, report.dim, report.min_distance) == (5, 5, 1)
        assert report.mds

    def test_zero_code_rejected(self):
        spec = TwistSpec(identity(2, GF3), 0)
        with pytest.raises(ValueError, match="zero code"):
            analyze(centralizer_code(spec))

    def test_singleton_bound_on_samples(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            rows = rand_matrix(rng, int(rng.integers(1, 4)), 6, GF3)
            code = code_from_rows(rows)
            if code.dim == 0:
                continue
            report = analyze(code)
            assert report.min_distance <= code.length - code.dim + 1


class TestEncode:
    def test_scalar_multiple_of_all_ones(self):
        assert encode(repetition_code(), np.array([2])).tolist() == [2, 2, 2, 2]

    def test_zero_message(self):
        assert encode(repetition_code(), np.array([0])).tolist() == [0, 0, 0, 0]

    def test_linearity(self):
        rng = np.random.default_rng(17)
        code = code_from_rows(rand_matrix(rng, 2, 5, GF5))
        for _ in range(20):
            u = rng.integers(0, 5, size=code.dim)
            v = rng.integers(0, 5, size=code.dim)
            assert np.array_equal(encode(code, (u + v) % 5), (encode(code, u) + encode(code, v)) % 5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="message length"):
            encode(repetition_code(), np.array([1, 2]))


class TestIsCodeword:
    def test_codewords_accepted(self):
        code = repetition_code()
        for m in range(3):
            assert is_codeword(code, encode(code, np.array([m])))

    def test_non_codeword_rejected(self):
        assert not is_codeword(repetition_code(), np.array([1, 1, 0, 1]))

    def test_zero_code_contains_only_zero(self):
        spec = TwistSpec(identity(2, GF3), 0)
        code = centralizer_code(spec)
        assert is_codeword(code, np.array([0, 0, 0, 0]))
        assert not is_codeword(code, np.array([1, 0, 0, 0]))


class TestDecodeNearest:
    def test_single_error_corrected(self):
        # Distances to 0000, 1111, 2222 are 3, 4, 1.
        result = decode_nearest(repetition_code(), np.array([2, 2, 0, 2]))
        assert result.status == UNIQUE
        assert result.codeword.tolist() == [2, 2, 2, 2]
        assert result.message.tolist() == [2]
        assert result.distance == 1

    def test_exact_codeword(self):
        code = repetition_code()
        word = encode(code, np.array([1]))
        result = decode_nearest(code, word)
        assert result.status == UNIQUE
        assert np.array_equal(result.codeword, word)
        assert result.distance == 0

    def test_symmetric_tie_reported(self):
        code = code_from_rows(Matrix([[1, 1, 1, 1]], GF2))
        result = decode_nearest(code, np.array([1, 1, 0, 0]))
        assert result.status == AMBIGUOUS
        assert result.distance == 2

    def test_guard(self):
        code = code_from_rows(identity(25, GF3))
        with pytest.raises(GuardExceededError):
            decode_nearest(code, np.zeros(25, dtype=np.int64))

    def test_ties_found_across_enumeration_blocks(self):
        # Parity-extended [20, 19, 2] code over GF(2): 2^19 messages span many
        # enumeration blocks and the table cache limit, and the word hitting
        # only the parity column ties the zero codeword with all 19 weight-1
        # messages.  The block-wise min reduction must still see every tie.
        gen = np.hstack([np.eye(19, dtype=np.int64), np.ones((19, 1), dtype=np.int64)])
        code = code_from_rows(Matrix(gen, GF2))
        assert min_distance(code) == 2
        word = np.zeros(20, dtype=np.int64)
        word[19] = 1
        result = decode_nearest(code, word)
        assert result.status == AMBIGUOUS
        assert result.distance == 1
        assert result.message.tolist() == [0] * 19  # first minimizer in order

    def test_blocks_do_not_change_the_table_decoder(self, monkeypatch):
        # [4, 2] over GF(3): every received word, scored against the whole
        # table at once and then two codewords and one word at a time, so
        # that minimisers and ties are split across enumeration blocks.
        code = comb_code(2, 1, 1, 3, 1)
        assert code.dim == 2
        words = np.array(list(itertools.product(range(3), repeat=4)), dtype=np.int64)
        whole = tcc.code._scan(code, words)
        assert np.count_nonzero(whole[2] > 1) > 0
        monkeypatch.setattr(tcc.code, "_BLOCK", 2)
        monkeypatch.setattr(tcc.code, "_SCORE_CELLS", 1)
        for got, want in zip(tcc.code._scan(code, words), whole):
            assert np.array_equal(got, want)
        for word, dist in zip(words, whole[0]):
            assert dist == min(hamming_distance(word, encode(code, np.array(m)))
                               for m in itertools.product(range(3), repeat=2))


class TestHammingDistance:
    def test_basic(self):
        assert hamming_distance(np.array([1, 2, 0]), np.array([1, 0, 0])) == 1
        assert hamming_distance(np.array([0, 0]), np.array([0, 0])) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance(np.array([1]), np.array([1, 0]))
