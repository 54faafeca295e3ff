import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsdsq.double_squares import (Factorization, FsDoubleSquare, MateLabel,
                                  canonical_factorization, classify_mate_detail,
                                  find_fs_double_squares)
from fsdsq.errors import FactorizationError
from fsdsq.words import is_primitive

from named_words import EQUAL_17, W, W1
from oracles import all_words, oracle_s


class TestCanonicalFactorization:
    @pytest.mark.parametrize("sq,SQ,expected", [
        ("aba", "abaab", ("a", "b", 1, 1)),
        ("aaba", "aabaaab", ("a", "ab", 1, 1)),
        ("aabaaba", "aabaabaaab", ("a", "ab", 2, 1)),
    ])
    def test_examples(self, sq, SQ, expected):
        f = canonical_factorization(W(sq), W(SQ))
        assert (f.x1.text, f.x2.text, f.p1, f.p2) == expected
        assert f.short_root == W(sq)
        assert f.long_root == W(SQ)
        assert is_primitive(f.period)

    def test_unbalanced_rejected(self):
        with pytest.raises(FactorizationError, match="balanced"):
            canonical_factorization(W("ab"), W("abab"))
        with pytest.raises(FactorizationError, match="balanced"):
            canonical_factorization(W("abaab"), W("abaab"))

    def test_non_prefix_rejected(self):
        with pytest.raises(FactorizationError, match="prefix"):
            canonical_factorization(W("abb"), W("abab"))

    def test_empty_x1_rejected(self):
        # |sq| a multiple of the recovered period leaves nothing for x1
        with pytest.raises(FactorizationError, match="x1 would be empty"):
            canonical_factorization(W("abab"), W("ababab"))

    def test_validation_in_type(self):
        with pytest.raises(FactorizationError):
            Factorization(W(""), W("b"), 1, 1)
        with pytest.raises(FactorizationError):
            Factorization(W("a"), W("b"), 1, 2)
        with pytest.raises(FactorizationError):
            Factorization(W("a"), W("a"), 1, 1)  # x1x2 = "aa" not primitive


    def test_roots_built_once_and_outside_equality(self):
        f = Factorization(W("a"), W("ab"), 2, 1)
        fresh = Factorization(W("a"), W("ab"), 2, 1)
        assert f.long_root is f.long_root
        assert (f.period.text, f.short_root.text, f.long_root.text) == (
            "aab", "aabaaba", "aabaabaaab")
        assert f == fresh and hash(f) == hash(fresh) and repr(f) == repr(fresh)


class TestDetection:
    def test_smallest(self):
        found = find_fs_double_squares(W("abaababaab"))
        assert [f.to_json_dict() for f in found] == [
            {"position": 1, "sq_len": 3, "SQ_len": 5,
             "x1": "a", "x2": "b", "p1": 1, "p2": 1}]

    def test_fourteen_letter_word(self):
        found = find_fs_double_squares(W("aabaaabaabaaab"))
        assert [f.to_json_dict() for f in found] == [
            {"position": 1, "sq_len": 4, "SQ_len": 7,
             "x1": "a", "x2": "ab", "p1": 1, "p2": 1}]

    def test_no_double_square(self):
        assert find_fs_double_squares(W("ab")) == []
        assert find_fs_double_squares(W("")) == []
        assert find_fs_double_squares(W("aaaaaa")) == []

    def test_equal_17(self):
        found = find_fs_double_squares(W(EQUAL_17))
        assert [(f.position, f.sq_len, f.SQ_len) for f in found] == [
            (1, 5, 8), (2, 5, 8)]

    def test_w1(self):
        found = find_fs_double_squares(W(W1))
        assert [(f.position, f.sq_len, f.SQ_len) for f in found] == [
            (1, 4, 7), (2, 16, 30)]

    def test_positions_match_census(self):
        for text in (EQUAL_17, W1, "abaababaab", "aabaaabaabaaab"):
            s = oracle_s(text)
            positions = [i + 1 for i, v in enumerate(s) if v == 2]
            found = find_fs_double_squares(W(text))
            assert [f.position for f in found] == positions

    def test_roundtrip_exhaustive_small(self):
        # every census-2 position factors, reconstructs, and respects
        # primitivity, for all binary words up to length 14
        hits = 0
        for n in range(1, 15):
            for text in all_words(2, n):
                for fs in find_fs_double_squares(W(text)):
                    hits += 1
                    f = fs.factorization
                    assert f.short_root == W(text)[fs.position - 1:fs.position - 1 + fs.sq_len]
                    assert f.long_root == W(text)[fs.position - 1:fs.position - 1 + fs.SQ_len]
                    assert is_primitive(f.period)
                    assert f.p1 >= f.p2 >= 1
                    assert is_primitive(f.long_root)
                    if f.p1 > 1:
                        assert is_primitive(f.short_root)
        assert hits > 50


@st.composite
def factorizations(draw):
    x1 = draw(st.text(alphabet="abc", min_size=1, max_size=4))
    x2 = draw(st.text(alphabet="abc", min_size=1, max_size=4))
    if not is_primitive(W(x1 + x2)):
        x2 = x2 + ("b" if (x1 + x2)[-1] != "b" else "c")
    p2 = draw(st.integers(min_value=1, max_value=3))
    p1 = draw(st.integers(min_value=p2, max_value=4))
    return Factorization(W(x1), W(x2), p1, p2)


class TestRecoveryRoundTrip:
    @given(factorizations())
    @settings(max_examples=150)
    def test_recovery_inverts_construction(self, fact):
        # building the two roots from any valid split and recovering must
        # give back the identical split: the recovery is unambiguous
        recovered = canonical_factorization(fact.short_root, fact.long_root)
        assert recovered == fact


def _fs(word_text: str, position: int) -> FsDoubleSquare:
    found = find_fs_double_squares(W(word_text))
    return next(f for f in found if f.position == position)


class TestMates:
    def test_equal_pair_is_alpha(self):
        first, second = find_fs_double_squares(W(EQUAL_17))
        assert classify_mate_detail(first, second).label is MateLabel.ALPHA

    def test_unequal_pair_is_delta(self):
        first, second = find_fs_double_squares(W(W1))
        detail = classify_mate_detail(first, second)
        assert detail.label is MateLabel.DELTA
        assert detail.delta_rule is not None

    def test_distant_unrelated_pair_is_epsilon(self):
        # two structurally unrelated double squares over disjoint letters
        word = "abaababaab" + "ccdcccdccdcccd"
        squares = find_fs_double_squares(W(word))
        assert [q.position for q in squares] == [1, 11]
        assert classify_mate_detail(squares[0], squares[1]).label is MateLabel.EPSILON

    def test_order_precondition(self):
        first, second = find_fs_double_squares(W(EQUAL_17))
        with pytest.raises(ValueError):
            classify_mate_detail(second, first)
        with pytest.raises(ValueError):
            classify_mate_detail(first, first)

    def test_adjacent_pairs_alpha_or_delta_small_sweep(self):
        seen = set()
        for n in range(1, 19):
            for text in ("abaababaabaababaa", "abaababaabaababaab"):
                if len(text) != n:
                    continue
                squares = find_fs_double_squares(W(text))
                for a, b in zip(squares, squares[1:]):
                    if b.position == a.position + 1:
                        seen.add(classify_mate_detail(a, b).label)
        assert seen <= {MateLabel.ALPHA, MateLabel.DELTA}
