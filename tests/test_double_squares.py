import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsdsq.double_squares
import fsdsq.words
from fsdsq.census import s_sequence
from fsdsq.construct import build_run
from fsdsq.double_squares import (FsDoubleSquare, MateLabel, classify_mate_detail,
                                  find_fs_double_squares)
from fsdsq.errors import CounterexampleError, FactorizationError

from named_words import (CASE_10, EQUAL_17, SEEDS, UNEQUAL_39, UNEQUAL_67, W, W1,
                         W2)
from oracles import (all_words, canonical_words, oracle_factorization, oracle_is_primitive,
                     oracle_s)
from structure import double_square, squares_of
from test_census import _fibonacci, periodic_with_mutations


def _record(sq: str, SQ: str) -> FsDoubleSquare:
    """The record at position 1 of the roots sq and SQ, read off SQ's bytes."""
    assert SQ.startswith(sq)
    return FsDoubleSquare(W(SQ).codes, 0, 1, len(sq), len(SQ))


class TestCanonicalFactorization:
    @pytest.mark.parametrize("sq,SQ,expected", [
        ("aba", "abaab", ("a", "b", 1, 1)),
        ("aaba", "aabaaab", ("a", "ab", 1, 1)),
        ("aabaaba", "aabaabaaab", ("a", "ab", 2, 1)),
    ])
    def test_examples(self, sq, SQ, expected):
        fs = _record(sq, SQ)
        x1, x2, p1, p2 = expected
        assert (fs.x1.text, fs.x2.text, fs.p1, fs.p2) == expected
        assert ((x1 + x2) * p1 + x1, sq + (x1 + x2) * p2) == (sq, SQ)
        assert oracle_is_primitive(x1 + x2)

    def test_unbalanced_rejected(self):
        with pytest.raises(FactorizationError, match="balanced"):
            _record("ab", "abab")
        with pytest.raises(FactorizationError, match="balanced"):
            _record("abaab", "abaab")

    def test_empty_x1_rejected(self):
        # |sq| a multiple of the recovered period leaves nothing for x1
        with pytest.raises(FactorizationError, match="x1 would be empty"):
            _record("abab", "ababab")

    def test_unreconstructable_rejected(self):
        # SQ[3:] = ab has root ab, which rebuilds sq as aba, not abb
        with pytest.raises(FactorizationError, match="do not reconstruct"):
            _record("abb", "abbab")

    def test_validation_in_type(self):
        # splits that break the canonical form give roots the constructor refuses
        with pytest.raises(FactorizationError, match="balanced"):
            double_square(1, "", "b", 1, 1)  # roots b, bb
        with pytest.raises(FactorizationError, match="balanced"):
            double_square(1, "a", "b", 1, 2)  # p1 < p2: roots aba, abaabab
        with pytest.raises(FactorizationError, match="x1 would be empty"):
            double_square(1, "a", "a", 1, 1)  # x1 x2 = aa: roots aa, aaa

    def test_outcome_exhaustive_small(self):
        # every balanced prefix pair of every binary word of 3 to 12 letters
        # and canonical ternary word of 3 to 8: the constructor refuses
        # exactly the pairs the brute-force oracle cannot split, and factors
        # the others as the oracle's one split
        outcomes = {"factored": 0, "refused": 0}
        texts = [text for nl in range(3, 13) for text in all_words(2, nl)]
        texts += [text for nl in range(3, 9) for text in canonical_words(3, nl)]
        for text in texts:
            codes, nl = W(text).codes, len(text)
            for ns in range(nl // 2 + 1, nl):
                splits = oracle_factorization(text[:ns], text)
                try:
                    fs = FsDoubleSquare(codes, 0, 1, ns, nl)
                except FactorizationError:
                    assert splits == []
                    outcomes["refused"] += 1
                    continue
                outcomes["factored"] += 1
                assert splits == [(fs.x1.text, fs.x2.text, fs.p1, fs.p2)]
        assert outcomes == {"factored": 142, "refused": 42_812}


class TestDetection:
    def test_smallest(self):
        found = squares_of(W("abaababaab"))
        assert [f.to_json_dict() for f in found] == [
            {"position": 1, "sq_len": 3, "SQ_len": 5,
             "x1": "a", "x2": "b", "p1": 1, "p2": 1}]

    def test_fourteen_letter_word(self):
        found = squares_of(W("aabaaabaabaaab"))
        assert [f.to_json_dict() for f in found] == [
            {"position": 1, "sq_len": 4, "SQ_len": 7,
             "x1": "a", "x2": "ab", "p1": 1, "p2": 1}]

    def test_roots_past_the_end_are_a_counterexample(self):
        # a hand-made root map, not a census: the long root would run past the word
        with pytest.raises(CounterexampleError, match="runs past the end"):
            find_fs_double_squares(W("abaab"), {4: [2, 3]})

    def test_no_double_square(self):
        assert squares_of(W("ab")) == []
        assert squares_of(W("")) == []
        assert squares_of(W("aaaaaa")) == []

    def test_equal_17(self):
        found = squares_of(W(EQUAL_17))
        assert [(f.position, f.sq_len, f.SQ_len) for f in found] == [
            (1, 5, 8), (2, 5, 8)]

    def test_w1(self):
        found = squares_of(W(W1))
        assert [(f.position, f.sq_len, f.SQ_len) for f in found] == [
            (1, 4, 7), (2, 16, 30)]

    def test_positions_match_census(self):
        for text in (EQUAL_17, W1, "abaababaab", "aabaaabaabaaab"):
            s = oracle_s(text)
            positions = [i + 1 for i, v in enumerate(s) if v == 2]
            found = squares_of(W(text))
            assert [f.position for f in found] == positions

    def test_roundtrip_exhaustive_small(self):
        # every census-2 position factors, reconstructs, and respects
        # primitivity, for all binary words up to length 14
        hits = 0
        for n in range(1, 15):
            for text in all_words(2, n):
                for fs in squares_of(W(text)):
                    hits += 1
                    i = fs.position - 1
                    x1, x2 = fs.x1.text, fs.x2.text
                    sq = (x1 + x2) * fs.p1 + x1
                    SQ = sq + (x1 + x2) * fs.p2
                    assert (sq, SQ) == (text[i:i + fs.sq_len], text[i:i + fs.SQ_len])
                    assert oracle_is_primitive(x1 + x2)
                    assert fs.p1 >= fs.p2 >= 1
                    assert oracle_is_primitive(SQ)
                    if fs.p1 > 1:
                        assert oracle_is_primitive(sq)
        assert hits > 50


class TestPrimitivityLemma:
    def test_roots_primitive_exhaustive_small(self):
        # u = x1 x2 primitive makes the long root primitive, and the short
        # root too when p1 >= 2, by the lemma of ``double_squares``
        cases = 0
        for alphabet_size, top in ((2, 9), (3, 6)):
            for ell in range(2, top + 1):
                for u in filter(oracle_is_primitive, all_words(alphabet_size, ell)):
                    for r in range(1, ell):
                        for p1 in range(1, 4):
                            for p2 in range(1, p1 + 1):
                                sq = u * p1 + u[:r]
                                assert oracle_is_primitive(sq + u * p2)
                                if p1 >= 2:
                                    assert oracle_is_primitive(sq)
                                cases += 1
        assert cases == 69_708

    def test_at_most_two_primitive_root_calls_per_double_square(self, monkeypatch):
        words = [W(text) for n in range(1, 15) for text in all_words(2, n)]
        words += [build_run(50).word]
        words += [W(text) for text in (EQUAL_17, W1, W2, CASE_10, UNEQUAL_39, UNEQUAL_67,
                                       *SEEDS)]
        censuses = [(w, s_sequence(w).roots) for w in words]
        calls = 0
        root = fsdsq.words.root_length

        def counted(codes):
            nonlocal calls
            calls += 1
            return root(codes)

        # a caller that looked it up in ``words`` would count too
        monkeypatch.setattr(fsdsq.words, "root_length", counted)
        monkeypatch.setattr(fsdsq.double_squares, "root_length", counted)
        squares = [fs for w, roots in censuses for fs in find_fs_double_squares(w, roots)]
        assert len(squares) > 200
        assert any(fs.p1 > 1 for fs in squares)
        # one divisor scan per double square, of SQ[|sq|:], and no primitivity test
        assert calls == len(squares)


def _check_against_oracle(text: str) -> int:
    """One record per census-2 position of ``text``, split as the brute-force
    ``oracle_factorization`` splits its roots, and that split alone; returns
    the number of records."""
    report = s_sequence(W(text))
    found = find_fs_double_squares(report.word, report.roots)
    assert [fs.position for fs in found] == [k for k, ps in report.roots.items() if len(ps) == 2]
    for fs in found:
        i = fs.position - 1
        d = fs.to_json_dict()
        x1, x2, p1, p2 = d["x1"], d["x2"], d["p1"], d["p2"]
        assert oracle_factorization(text[i:i + fs.sq_len], text[i:i + fs.SQ_len]) == [
            (x1, x2, p1, p2)]
        assert (fs.x1_len, fs.period_len, fs.p1, fs.p2) == (len(x1), len(x1 + x2), p1, p2)
        assert fs.prefix(fs.SQ_len) == W(text[i:i + fs.SQ_len]).codes
    return len(found)


closed_form_and_periodic_words = st.one_of(
    st.integers(min_value=1, max_value=42).map(lambda t: build_run(t).word.text),
    st.integers(min_value=0, max_value=300).map(_fibonacci),
    periodic_with_mutations(),
)


class TestAgainstOracle:
    def test_exhaustive_small(self):
        # every binary word to 14 and canonical ternary word to 9
        texts = [text for n in range(1, 15) for text in all_words(2, n)]
        texts += [text for n in range(1, 10) for text in canonical_words(3, n)]
        assert sum(map(_check_against_oracle, texts)) == 168

    @given(closed_form_and_periodic_words)
    @settings(max_examples=40, deadline=None)
    def test_closed_form_and_periodic_words(self, text):
        _check_against_oracle(text)

    def test_hand_built_record_is_the_found_one(self):
        texts = [EQUAL_17, W1, W2, CASE_10, UNEQUAL_39, UNEQUAL_67, *SEEDS]
        found = [fs for text in texts for fs in squares_of(W(text))]
        found += squares_of(build_run(12).word)
        assert len(found) == 40
        for fs in found:
            hand = double_square(fs.position, fs.x1.text, fs.x2.text, fs.p1, fs.p2)
            assert hand == fs
            assert hand.to_json_dict() == fs.to_json_dict()
            assert (hand.sq_len, hand.SQ_len, hand.x1_len, hand.period_len, hand.end) == (
                fs.sq_len, fs.SQ_len, fs.x1_len, fs.period_len, fs.end)


class TestEquality:
    """Records are equal when their position, numbers and the letters of
    x1 x2 are, whichever word they were read from."""

    def test_equal_records_from_different_words(self):
        # "c" starts no later copy of a square, so position 1 keeps roots 3 and 5
        (first,), (second,) = squares_of(W("abaababaab")), squares_of(W("abaababaabc"))
        assert first.codes != second.codes
        assert first == second
        assert first.to_json_dict() == second.to_json_dict()

    def test_equal_records_at_different_offsets(self):
        # position 2 of the 17-letter pair word against the same split read
        # off a word that starts with its long root
        fs = squares_of(W(EQUAL_17))[1]
        hand = double_square(2, fs.x1.text, fs.x2.text, fs.p1, fs.p2)
        assert (hand.offset, fs.offset) == (0, 1)
        assert hand == fs

    def test_unequal_records(self):
        (fs,) = squares_of(W("abaababaab"))
        (renamed,) = squares_of(W("babbababba"))
        # the same numbers over other letters
        assert (renamed.sq_len, renamed.SQ_len, renamed.x1_len, renamed.period_len) == (
            fs.sq_len, fs.SQ_len, fs.x1_len, fs.period_len)
        assert renamed != fs
        # the same split at another position
        (moved,) = squares_of(W("c" + "abaababaab"))
        assert moved.position == 2 and moved != fs
        # another split at the same position
        (other,) = squares_of(W("aabaaabaabaaab"))
        assert other.position == fs.position and other != fs
        first, second = squares_of(W(EQUAL_17))
        assert first != second
        assert fs != fs.to_json_dict()

    def test_records_stay_unhashable(self):
        (fs,) = squares_of(W("abaababaab"))
        with pytest.raises(TypeError):
            hash(fs)


class TestRepr:
    def test_found_and_hand_built_records(self):
        (fs,) = squares_of(W("abaababaab"))
        assert repr(fs) == "FsDoubleSquare(1, x1=Word('a'), x2=Word('b'), p1=1, p2=1)"
        hand = double_square(2, "ab", "b", 1, 1)
        assert repr(hand) == "FsDoubleSquare(2, x1=Word('ab'), x2=Word('b'), p1=1, p2=1)"


@st.composite
def factorizations(draw):
    x1 = draw(st.text(alphabet="abc", min_size=1, max_size=4))
    x2 = draw(st.text(alphabet="abc", min_size=1, max_size=4))
    if not oracle_is_primitive(x1 + x2):
        x2 = x2 + ("b" if (x1 + x2)[-1] != "b" else "c")
    p2 = draw(st.integers(min_value=1, max_value=3))
    p1 = draw(st.integers(min_value=p2, max_value=4))
    return x1, x2, p1, p2


class TestRecoveryRoundTrip:
    @given(factorizations())
    @settings(max_examples=150)
    def test_recovery_inverts_construction(self, split):
        # building the two roots from any valid split and recovering must
        # give back the identical split: the recovery is unambiguous
        double_square(1, *split)


def _fs(word_text: str, position: int) -> FsDoubleSquare:
    found = squares_of(W(word_text))
    return next(f for f in found if f.position == position)


class TestMates:
    def test_equal_pair_is_alpha(self):
        first, second = squares_of(W(EQUAL_17))
        assert classify_mate_detail(first, second).label is MateLabel.ALPHA

    def test_unequal_pair_is_delta(self):
        first, second = squares_of(W(W1))
        detail = classify_mate_detail(first, second)
        assert detail.label is MateLabel.DELTA
        assert detail.delta_rule is not None

    def test_distant_unrelated_pair_is_epsilon(self):
        # two structurally unrelated double squares over disjoint letters
        word = "abaababaab" + "ccdcccdccdcccd"
        squares = squares_of(W(word))
        assert [q.position for q in squares] == [1, 11]
        assert classify_mate_detail(squares[0], squares[1]).label is MateLabel.EPSILON

    def test_longer_short_root_same_long_root_is_beta(self):
        # roots 4/7 (abba/abbaabb) at 1 and 5/7 (ababa/ababaab) at 2
        first = double_square(1, "a", "bb", 1, 1)
        second = double_square(2, "a", "b", 2, 1)
        assert (first.sq_len, first.SQ_len, second.sq_len, second.SQ_len) == (4, 7, 5, 7)
        assert classify_mate_detail(first, second).label is MateLabel.BETA

    def test_hand_built_pair_fits_no_mate(self):
        # roots 7/9 at 1: epsilon needs k >= (3 - 1)*2 + lcp(ab, ba) = 4, and k = 2;
        # the second short root has 11 letters, past 9, and matches no delta rule
        first = double_square(1, "a", "b", 3, 1)
        second = double_square(2, "c", "d", 5, 1)
        assert (first.sq_len, first.SQ_len, second.sq_len) == (7, 9, 11)
        assert fsdsq.double_squares._delta_prefix_rule(first, second) is None
        assert classify_mate_detail(first, second) is None

    @pytest.mark.parametrize("k,label", [(3, None), (4, MateLabel.EPSILON),
                                         (5, MateLabel.EPSILON)])
    def test_epsilon_threshold_counts_the_lcp(self, k, label):
        # roots 8/11 split as (ab, a, 2, 1): epsilon needs k >= (2 - 1)*3 +
        # lcp(aba, aab) = 4; the second square over other letters has a
        # short root of 13 letters, past 11, and matches no delta rule
        first = double_square(1, "ab", "a", 2, 1)
        second = double_square(k, "c", "d", 6, 1)
        assert (first.sq_len, first.SQ_len, second.sq_len) == (8, 11, 13)
        mate = classify_mate_detail(first, second)
        assert (mate and mate.label) is label

    def test_order_precondition(self):
        first, second = squares_of(W(EQUAL_17))
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
                squares = squares_of(W(text))
                for a, b in zip(squares, squares[1:]):
                    if b.position == a.position + 1:
                        seen.add(classify_mate_detail(a, b).label)
        assert seen <= {MateLabel.ALPHA, MateLabel.DELTA}
