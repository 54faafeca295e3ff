import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsdsq.words import Word, are_conjugate, lcp, root_length

from named_words import EQUAL_17, W
from oracles import (all_words, canonical_words, oracle_is_primitive,
                     oracle_lce, oracle_primitive_root, oracle_rotations)

texts = st.text(alphabet="abc", min_size=0, max_size=24)
nonempty_texts = st.text(alphabet="abc", min_size=1, max_size=24)


class TestWord:
    def test_roundtrip(self):
        assert W("abaab").text == "abaab"
        assert W("").text == ""
        assert list(W("abc")) == [0, 1, 2]

    def test_all_letters_roundtrip(self):
        letters = "abcdefghijklmnopqrstuvwxyz"
        assert W(letters).codes == bytes(range(26))
        assert Word(range(26)).text == letters

    def test_rejects_bad_characters(self):
        # the message names the first character outside a..z
        for text, bad in [("aB", "B"), ("a b", " "), ("abéc", "é"), ("a?Zb", "?"),
                          ("ab{", "{"), ("`a", "`")]:
            with pytest.raises(ValueError) as exc:
                W(text)
            assert str(exc.value) == f"invalid word character {bad!r}: lowercase letters only"

    @pytest.mark.parametrize("codes", [[0, 26], [25, 255, 0]])
    def test_text_rejects_codes_past_z(self, codes):
        with pytest.raises(ValueError) as exc:
            Word(codes).text
        assert str(exc.value) == "word uses codes beyond the 26-letter textual alphabet"
        assert repr(Word(codes)) == f"Word({codes!r})"

    def test_slicing_and_concat(self):
        w = W("abaab")
        assert w[1:3] == W("ba")
        assert w[0] == 0
        assert w + W("ab") == W("abaabab")
        assert W("ab") * 3 == W("ababab")

    @given(nonempty_texts)
    def test_text_roundtrip(self, text):
        assert W(text).text == text


def _root(text: str) -> tuple[str, int]:
    """The primitive root of ``text`` and its exponent, from ``root_length``."""
    d = root_length(W(text).codes)
    return text[:d], len(text) // d


class TestPrimitivity:
    @pytest.mark.parametrize("text,expected", [
        ("aba", True),
        ("abab", False),
        ("aabaaab", True),
        ("a", True),
        ("aa", False),
        ("aaa", False),
    ])
    def test_examples(self, text, expected):
        assert (root_length(W(text).codes) == len(text)) is expected
        assert oracle_is_primitive(text) is expected

    def test_empty_word_errors(self):
        with pytest.raises(ValueError, match="empty word"):
            root_length(b"")

    @pytest.mark.parametrize("text,root,exponent", [
        ("abab", "ab", 2),
        ("aaa", "a", 3),
        ("aabaab", "aab", 2),
        ("aba", "aba", 1),
        # a long word whose only period dividing its length is the length
        pytest.param("a" * 999 + "ba", "a" * 999 + "ba", 1, id="a999ba"),
        pytest.param(("a" * 999 + "ba") * 3, "a" * 999 + "ba", 3, id="a999ba-cubed"),
    ])
    def test_primitive_root_examples(self, text, root, exponent):
        assert _root(text) == (root, exponent)

    @given(nonempty_texts)
    def test_root_reconstructs(self, text):
        root, exponent = _root(text)
        assert oracle_is_primitive(root)
        assert root * exponent == text

    def test_exhaustive_against_oracle(self):
        for alphabet_size, max_len in ((2, 12), (3, 8)):
            for n in range(1, max_len + 1):
                for text in all_words(alphabet_size, n):
                    assert _root(text) == oracle_primitive_root(text)


class TestConjugacy:
    @pytest.mark.parametrize("u,v,expected", [
        ("abaab", "aabab", True),
        ("ab", "ab", True),
        ("ab", "ba", True),
        ("ab", "aa", False),
        ("abc", "ab", False),
    ])
    def test_examples(self, u, v, expected):
        assert are_conjugate(W(u), W(v)) is expected
        if len(u) == len(v):
            assert (v in oracle_rotations(u)) is expected

    def test_all_rotations_are_conjugate(self):
        # positive side, exhaustive for ternary canonical words up to 10
        for n in range(1, 11):
            for text in canonical_words(3, n):
                w = W(text)
                for k in range(n):
                    assert are_conjugate(w, W(text[k:] + text[:k]))

    def test_non_rotations_are_not_conjugate(self):
        # negative side, exhaustive over all same-length pairs (smaller cap)
        for n in range(1, 7):
            words = list(all_words(2, n))
            for u in words:
                rot = oracle_rotations(u)
                for v in words:
                    assert are_conjugate(W(u), W(v)) == (v in rot)

    def test_all_equal_length_pairs_against_rotations(self):
        # the one-letter rotation is tried first; every pair of binary words
        # of one length up to 8 against the rotations the oracle lists
        for n in range(1, 9):
            words = list(all_words(2, n))
            for u in words:
                rot = oracle_rotations(u)
                codes = W(u).codes
                for v in words:
                    expected = v in rot
                    assert are_conjugate(W(u), W(v)) is expected
                    assert are_conjugate(codes, W(v).codes) is expected

    @given(nonempty_texts, st.integers(min_value=0, max_value=30))
    def test_rotation_property(self, text, k):
        k %= len(text)
        assert are_conjugate(W(text), W(text[k:] + text[:k]))


class TestLcp:
    @pytest.mark.parametrize("u,v,expected", [
        ("ab", "ba", 0),
        ("abaab", "ababa", 3),
        ("abaab", "abaab", 5),
        ("", "abc", 0),
    ])
    def test_examples(self, u, v, expected):
        assert lcp(W(u), W(v)) == expected
        assert lcp(W(u).codes, W(v).codes) == lcp(W(u), W(v).codes) == expected

    @given(texts, texts)
    def test_symmetric_and_bounded(self, a, b):
        value = lcp(W(a), W(b))
        assert value == lcp(W(b), W(a))
        assert value <= min(len(a), len(b))
        assert a[:value] == b[:value]
        if value < min(len(a), len(b)):
            assert a[value] != b[value]


class TestLce:
    """Common extensions of two suffixes, as ``lcp`` of the suffixes."""

    @staticmethod
    def lce(text: str, i: int, j: int) -> int:
        w = W(text)
        return lcp(w[i - 1:], w[j - 1:])

    def test_examples(self):
        assert self.lce("aaaa", 1, 2) == 3
        assert self.lce("abab", 1, 3) == 2
        # oracle-derived: suffixes 1 and 9 of the 17-letter word agree for
        # the whole 9-letter suffix
        assert oracle_lce(EQUAL_17, 1, 9) == 9
        assert self.lce(EQUAL_17, 1, 9) == 9

    def test_identity_and_symmetry_invariants(self):
        for text in (EQUAL_17, "aaaa", "abcabc"):
            n = len(text)
            for i in range(1, n + 1):
                assert self.lce(text, i, i) == n - i + 1
                for j in range(1, n + 1):
                    value = self.lce(text, i, j)
                    assert value == self.lce(text, j, i)
                    assert value == oracle_lce(text, i, j)
                    # symbols after the extension differ or run off the end
                    if i + value <= n and j + value <= n:
                        assert text[i + value - 1] != text[j + value - 1]

    def test_exhaustive_small(self):
        for n in range(1, 7):
            for text in all_words(2, n):
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        assert self.lce(text, i, j) == oracle_lce(text, i, j)

    @given(nonempty_texts)
    @settings(max_examples=60)
    def test_random_against_oracle(self, text):
        n = len(text)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert self.lce(text, i, j) == oracle_lce(text, i, j)
