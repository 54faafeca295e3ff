import pytest

from fsdsq.census import s_sequence
from fsdsq.double_squares import Factorization, FsDoubleSquare
from fsdsq.pairs import (PairKind, _equal_checks, _unequal_checks,
                         find_double_square_pairs, ordering_case)
from fsdsq.words import Word

W = Word.from_text

V = "abaaabaabaaabb"
W1 = "a" + (V + "ab" + V) * 2
W2 = "a" + (V + V + "ab" + V) * 2
EQUAL_17 = "abaababaabaababaa"


class TestOrderingCase:
    # one length tuple (sq1, SQ1, sq2, SQ2) per case of the taxonomy
    CASES = {
        1: (1, 4, 2, 4),
        2: (2, 4, 1, 4),
        3: (1, 2, 1, 3),
        4: (1, 3, 1, 2),
        5: (2, 4, 1, 2),
        6: (2, 4, 1, 3),
        7: (3, 4, 1, 2),
        8: (2, 3, 1, 4),
        9: (1, 4, 2, 3),
        10: (1, 2, 2, 3),
        11: (1, 3, 2, 4),
        12: (1, 2, 1, 2),
        13: (1, 2, 3, 4),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_each_case(self, case):
        sq1, SQ1, sq2, SQ2 = self.CASES[case]
        assert ordering_case(sq1, SQ1, sq2, SQ2) == case

    def test_exhaustive_totality(self):
        # every admissible tuple lands in exactly one case
        for sq1 in range(1, 6):
            for SQ1 in range(sq1 + 1, 7):
                for sq2 in range(1, 6):
                    for SQ2 in range(sq2 + 1, 7):
                        case = ordering_case(sq1, SQ1, sq2, SQ2)
                        assert 1 <= case <= 13

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            ordering_case(2, 2, 1, 3)


class TestFindPairs:
    def test_equal_pair(self):
        pairs = find_double_square_pairs(W(EQUAL_17))
        assert len(pairs) == 1
        pair = pairs[0]
        assert pair.position == 1
        assert pair.kind is PairKind.EQUAL
        assert pair.case == 12
        assert pair.all_checks_pass

    def test_unequal_pairs(self):
        for text in (W1, W2):
            pairs = find_double_square_pairs(W(text))
            assert len(pairs) == 1
            pair = pairs[0]
            assert pair.kind is PairKind.UNEQUAL
            assert pair.case == 13
            assert pair.all_checks_pass
            assert pair.first.sq_len < pair.first.SQ_len < pair.second.sq_len < pair.second.SQ_len

    def test_lone_double_square_yields_no_pair(self):
        assert find_double_square_pairs(W("abaababaab")) == []
        # two adjacent census-2 positions form a run of 2's of length >= 2
        assert s_sequence(W("abaababaab")).longest_run[1] < 2
        assert s_sequence(W(EQUAL_17)).longest_run[1] >= 2

    def test_w1_lengths(self):
        pair = find_double_square_pairs(W(W1))[0]
        assert (pair.first.sq_len, pair.first.SQ_len) == (4, 7)
        assert (pair.second.sq_len, pair.second.SQ_len) == (16, 30)

    def test_second_ends_after_first_everywhere(self):
        for text in (EQUAL_17, W1, W2):
            for pair in find_double_square_pairs(W(text)):
                assert pair.second.position + 2 * pair.second.SQ_len - 1 \
                    > pair.first.position + 2 * pair.first.SQ_len - 1


class TestEqualChecks:
    def test_all_pass_on_known_word(self):
        pair = find_double_square_pairs(W(EQUAL_17))[0]
        checks = pair.checks
        assert [c.name for c in checks] == [
            "longer_squares_conjugate", "shorter_squares_conjugate",
            "single_letter_shift", "x1_x2_common_prefix",
            "second_ends_after_first"]
        assert all(c.passed for c in checks)

    def test_synthetic_non_conjugate_pair_fails(self):
        # same root lengths, but the second square is not a rotation of the
        # first: the conjugacy checks must come back false
        real = find_double_square_pairs(W(EQUAL_17))[0]
        fake_second = FsDoubleSquare(
            position=2, factorization=Factorization(W("ab"), W("b"), 1, 1))
        results = {c.name: c.passed for c in _equal_checks(real.first, fake_second)}
        assert results["longer_squares_conjugate"] is False
        assert results["shorter_squares_conjugate"] is False

    def test_kind_precondition(self):
        # an unequal pair carries the unequal checks, never the equal ones
        pair = find_double_square_pairs(W(W1))[0]
        assert pair.kind is PairKind.UNEQUAL
        assert pair.checks == _unequal_checks(pair.first, pair.second)
        assert "longer_squares_conjugate" not in {c.name for c in pair.checks}


class TestUnequalChecks:
    def test_all_pass_on_w1_w2(self):
        for text in (W1, W2):
            pair = find_double_square_pairs(W(text))[0]
            checks = {c.name: c.passed for c in pair.checks}
            assert checks == {
                "short_root_floor": True,
                "period_strictly_grows": True,
                "long_root_doubles": True,
                "short_root_exceeds_sum": True,
                "second_ends_after_first": True,
            }

    def test_w1_inequality_values(self):
        pair = find_double_square_pairs(W(W1))[0]
        f, g = pair.first.factorization, pair.second.factorization
        assert pair.second.SQ_len > 2 * pair.first.SQ_len  # 30 > 14
        assert len(g.period) > len(f.period)               # 14 > 3
        assert pair.second.sq_len > pair.first.SQ_len + pair.first.sq_len  # 16 > 11

    def test_kind_precondition(self):
        # an equal pair carries the equal checks, never the unequal ones
        pair = find_double_square_pairs(W(EQUAL_17))[0]
        assert pair.kind is PairKind.EQUAL
        assert pair.checks == _equal_checks(pair.first, pair.second)
        assert "short_root_floor" not in {c.name for c in pair.checks}
