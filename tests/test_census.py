import random

from hypothesis import given, settings
from hypothesis import strategies as st

from fsdsq.census import (_census_scan, _census_step, _later_matches, render_census_tsv,
                          runs_of_two, s_sequence)
from fsdsq.construct import build_run
from fsdsq.words import Word

from named_words import CASE_10, EQUAL_17, EQUAL_17_S, W
from oracles import (all_words, canonical_words, oracle_later_match,
                     oracle_longest_run, oracle_rightmost, oracle_runs_of_two,
                     oracle_s, oracle_squares)


def square_starts(text: str, roots: dict[int, list[int]]) -> dict[str, int]:
    """Each square value of ``roots`` mapped to its 1-based start."""
    return {text[pos - 1:pos - 1 + 2 * p]: pos for pos, ps in roots.items() for p in ps}


def rightmost_map(w: Word) -> dict[str, int]:
    """Each distinct square value mapped to the 1-based start of its last
    occurrence, read from the census roots."""
    return square_starts(w.text, s_sequence(w).roots)


def assert_scan_matches_oracles(text: str) -> None:
    """``_census_scan`` of ``text`` against the cubic oracles: s and the
    rightmost start of every distinct square."""
    s, roots = _census_scan(W(text).codes)
    rightmost = oracle_rightmost(text)
    assert s == oracle_s(text, rightmost)
    assert square_starts(text, roots) == rightmost


def later_match_lengths(codes: bytes) -> list[int]:
    """m_0 .. m_n by driving the census step right to left."""
    n = len(codes)
    m = [0] * (n + 1)
    step = _census_step(codes)
    later, j = -1, n
    for i in range(n - 1, -1, -1):
        later, j, _ = step(i, later, j)
        m[i] = later
    return m


def automaton_later_match_lengths(codes: bytes) -> list[int]:
    """m_0 .. m_n from the census's suffix automaton."""
    return _later_matches(codes) + [0]


def step_scan(codes: bytes) -> tuple[list[int], dict[int, list[int]]]:
    """``_census_scan`` with m_i from the step's own probes, as the sweep's
    walk finds it, in place of the automaton."""
    n = len(codes)
    s = [0] * n
    roots: dict[int, list[int]] = {}
    step = _census_step(codes)
    m, j = -1, n
    for i in range(n - 1, -1, -1):
        m, j, ps = step(i, m, j)
        if ps:
            s[i] = len(ps)
            roots[i + 1] = ps
    return s, dict(sorted(roots.items()))


def random_word(letters: str, n: int, seed: int) -> str:
    rng = random.Random(seed)
    return "".join(rng.choice(letters) for _ in range(n))


class TestOracleSquares:
    """Pinned values of the square-occurrence oracle the census is checked
    against."""

    def test_aaaa(self):
        assert oracle_squares("aaaa") == [(1, 1), (1, 2), (2, 1), (3, 1)]

    def test_square_free(self):
        assert oracle_squares("abcab") == []
        assert oracle_squares("a") == []
        assert oracle_squares("") == []

    def test_smallest_double_square_word(self):
        # six occurrences, including roots 3 and 5 at the start
        assert oracle_squares("abaababaab") == [(1, 3), (1, 5), (3, 1), (4, 2), (5, 2), (8, 1)]


class TestRightmostMap:
    def test_examples(self):
        assert rightmost_map(W("aaaa")) == {"aa": 3, "aaaa": 1}
        assert rightmost_map(W("abab")) == {"abab": 1}
        assert rightmost_map(W("abaababaab")) == {
            "abaaba": 1, "abaababaab": 1, "abab": 4, "baba": 5, "aa": 8}

    @given(st.text(alphabet="abc", min_size=0, max_size=18))
    @settings(max_examples=80)
    def test_matches_oracle(self, text):
        assert rightmost_map(W(text)) == oracle_rightmost(text)


class TestRunsOfTwo:
    """``runs_of_two`` of the census roots, and of a map of the positions
    with s_i >= 2 alone in descending order, as the sweep keeps it, against
    a scan of the oracle's s."""

    @staticmethod
    def check(text: str) -> None:
        roots = s_sequence(W(text)).roots
        expected = tuple(oracle_runs_of_two(oracle_s(text)))
        assert runs_of_two(roots) == expected
        doubles = {k: ps for k, ps in reversed(roots.items()) if len(ps) >= 2}
        assert runs_of_two(doubles) == expected

    def test_small_words(self):
        for n in range(1, 13):
            for text in all_words(2, n):
                self.check(text)
        for n in range(1, 9):
            for text in canonical_words(3, n):
                self.check(text)

    def test_closed_form_words(self):
        for target in range(1, 13):
            text = build_run(target).word.text
            self.check(text)
            assert runs_of_two(s_sequence(W(text)).roots)[0] == (1, target)

    def test_keys_with_other_counts_break_runs(self):
        roots = {1: [1, 2], 2: [3, 5], 3: [1, 2, 4], 4: [3, 6], 5: [2], 6: [1, 4], 7: [2, 5]}
        assert runs_of_two(roots) == ((1, 2), (4, 1), (6, 2))
        assert runs_of_two({}) == ()


class TestSSequence:
    def test_golden_equal_17(self):
        assert list(s_sequence(W(EQUAL_17)).s) == EQUAL_17_S

    def test_tiny(self):
        assert list(s_sequence(W("ab")).s) == [0, 0]
        assert list(s_sequence(W("")).s) == []

    def test_smallest_double_square(self):
        s = s_sequence(W("abaababaab")).s
        assert s[0] == 2

    def test_report_invariants(self):
        for text in (EQUAL_17, "abaababaab", "aaaaaa", "ab"):
            report = s_sequence(W(text))
            assert sum(report.s) == report.distinct_square_count
            assert max(report.s, default=0) <= 2
            for start, length in report.runs_of_two:
                assert all(report.s[i] == 2 for i in range(start - 1, start - 1 + length))
            lengths = [r[1] for r in report.runs_of_two]
            assert report.longest_run[1] == (max(lengths) if lengths else 0)

    def test_longest_run_examples(self):
        assert s_sequence(W(EQUAL_17)).longest_run == (1, 2)
        assert s_sequence(W("ab")).longest_run == (0, 0)
        assert s_sequence(W(EQUAL_17)).leading_run == 2
        assert s_sequence(W("ab")).leading_run == 0
        # a run of 2's that does not start at position 1 is not leading
        assert s_sequence(W("c" + EQUAL_17)).longest_run == (2, 2)
        assert s_sequence(W("c" + EQUAL_17)).leading_run == 0

    def test_first_longest_run_wins_a_tie(self):
        # two census-2 positions that are not adjacent: two runs of length 1
        report = s_sequence(W("abbababbabbababba"))
        assert report.s[0] == report.s[7] == 2
        assert report.runs_of_two == ((1, 1), (8, 1))
        assert report.longest_run == (1, 1) == oracle_longest_run("abbababbabbababba")

    def test_roots_match_rightmost_map(self):
        for text in (EQUAL_17, "abaababaab", "aaaaaa", "ab", ""):
            report = s_sequence(W(text))
            assert list(report.roots) == sorted(report.roots)
            assert {pos: len(ps) for pos, ps in report.roots.items()} == {
                i + 1: v for i, v in enumerate(report.s) if v}
            assert rightmost_map(W(text)) == oracle_rightmost(text)

    def test_exhaustive_ternary_oracle(self):
        for n in range(1, 10):
            for text in canonical_words(3, n):
                assert_scan_matches_oracles(text)

    def test_case_ten_word_against_oracle(self):
        # a pair of ordering case 10 at position 1: roots (5, 8) then (8, 15)
        assert_scan_matches_oracles(CASE_10)
        roots = s_sequence(W(CASE_10)).roots
        assert (roots[1], roots[2]) == ([5, 8], [8, 15])

    def test_closed_form_words_against_oracle(self):
        # long periodic stretches, where the witness-period rule fires
        for target in range(1, 13):
            assert_scan_matches_oracles(build_run(target).word.text)

    def test_root_below_witness_distance(self):
        # At position 1 the nearest later match of length m = 5 starts at
        # d = 5: root 3 < d comes from the find window, root 5 = d is the
        # one multiple of d.
        codes = W("abaababaab").codes
        step = _census_step(codes)
        m, j = -1, len(codes)
        for i in range(len(codes) - 1, 0, -1):
            m, j, _ = step(i, m, j)
        assert step(0, m, j) == (5, 5, [3, 5])
        assert s_sequence(W("abaababaab")).roots[1] == [3, 5]

    @given(st.text(alphabet="abcd", min_size=0, max_size=40))
    @settings(max_examples=120)
    def test_random_against_oracle(self, text):
        report = s_sequence(W(text))
        assert list(report.s) == oracle_s(text)
        assert report.longest_run == oracle_longest_run(text)

    def test_fibonacci_words_match_fraenkel_simpson(self):
        # Fraenkel & Simpson (TCS 1999): with f_1 = b, f_2 = a and
        # f_k = f_{k-1} f_{k-2}, of length F_k, the word f_k has exactly
        # 2(F_{k-2} - 1) distinct squares.  No position of these words
        # starts two rightmost squares.
        f = {1: "b", 2: "a"}
        for k in range(3, 22):
            f[k] = f[k - 1] + f[k - 2]
        for k in range(6, 22):
            report = s_sequence(W(f[k]))
            assert report.distinct_square_count == 2 * (len(f[k - 2]) - 1)
            assert max(report.s) <= 1

    def test_unary_words_never_reach_two(self):
        for n in range(1, 13):
            assert max(s_sequence(W("a" * n)).s, default=0) <= 1


class TestTsvRendering:
    def test_exact_format(self):
        out = render_census_tsv(s_sequence(W("abab")))
        assert out == "index\tletter\ts_i\n1\ta\t1\n2\tb\t0\n3\ta\t0\n4\tb\t0\n"

    def test_row_count(self):
        out = render_census_tsv(s_sequence(W(EQUAL_17)))
        rows = out.strip().split("\n")
        assert rows[0] == "index\tletter\ts_i"
        assert len(rows) == 18
        assert [int(r.split("\t")[2]) for r in rows[1:]] == EQUAL_17_S


def _fibonacci(n: int) -> str:
    a, b = "a", "ab"
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def _thue_morse(n: int) -> str:
    return "".join("ab"[bin(i).count("1") & 1] for i in range(n))


@st.composite
def periodic_with_mutations(draw):
    """A short random base repeated to length n, then 0-4 point mutations:
    long periodic stretches (the witness step) and search windows holding
    several candidate roots."""
    base = draw(st.text(alphabet="abc", min_size=1, max_size=6))
    n = draw(st.integers(min_value=1, max_value=300))
    letters = list((base * (n // len(base) + 1))[:n])
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        letters[draw(st.integers(min_value=0, max_value=n - 1))] = draw(
            st.sampled_from("abc"))
    return "".join(letters)


structured_words = st.one_of(
    periodic_with_mutations(),
    st.integers(min_value=0, max_value=300).map(_fibonacci),
    st.integers(min_value=0, max_value=300).map(_thue_morse),
    st.integers(min_value=0, max_value=300).map(lambda n: "a" * n),
    # unstructured words, where most witness searches miss
    st.integers(min_value=2, max_value=4).flatmap(
        lambda k: st.text(alphabet="abcd"[:k], max_size=300)),
)


class TestLaterMatch:
    """m_i from the census step, driven right to left."""

    def test_examples(self):
        assert later_match_lengths(W("aaaa").codes) == [3, 2, 1, 0, 0]
        assert later_match_lengths(W("abab").codes) == [2, 1, 0, 0, 0]
        assert later_match_lengths(W("abc").codes) == [0, 0, 0, 0]
        assert later_match_lengths(b"") == [0]

    def test_exhaustive_binary_oracle(self):
        for n in range(1, 13):
            for text in all_words(2, n):
                assert later_match_lengths(W(text).codes) == oracle_later_match(text)

    def test_exhaustive_ternary_oracle(self):
        for n in range(1, 9):
            for text in canonical_words(3, n):
                assert later_match_lengths(W(text).codes) == oracle_later_match(text)

    def test_automaton_examples(self):
        assert automaton_later_match_lengths(W("aaaa").codes) == [3, 2, 1, 0, 0]
        assert automaton_later_match_lengths(W("abab").codes) == [2, 1, 0, 0, 0]
        assert automaton_later_match_lengths(W("abc").codes) == [0, 0, 0, 0]
        assert automaton_later_match_lengths(b"") == [0]
        # codes past the 26 letters, as a ``Word`` may hold
        assert automaton_later_match_lengths(bytes([255, 0, 255])) == [1, 0, 0, 0]

    @staticmethod
    def check_automaton(text: str) -> None:
        """The automaton's m against the oracle and against the step."""
        codes = W(text).codes
        m = automaton_later_match_lengths(codes)
        assert m == oracle_later_match(text)
        assert m == later_match_lengths(codes)

    def test_automaton_exhaustive_binary_oracle(self):
        for n in range(1, 13):
            for text in all_words(2, n):
                self.check_automaton(text)

    def test_automaton_exhaustive_ternary_oracle(self):
        for n in range(1, 9):
            for text in canonical_words(3, n):
                self.check_automaton(text)


class TestScanMatchesStep:
    """``_census_scan``, with m_i from the automaton, against the scan that
    takes m_i from the step's probes, on long words."""

    @staticmethod
    def check(text: str) -> None:
        codes = W(text).codes
        assert _census_scan(codes) == step_scan(codes)

    def test_closed_form_words(self):
        for target in range(1, 41):
            self.check(build_run(target).word.text)

    def test_fibonacci_prefixes(self):
        for n in [*range(1, 201), *range(200, 3001, 50)]:
            self.check(_fibonacci(n))

    def test_unary(self):
        self.check("a" * 10_000)

    def test_random_words(self):
        for letters in ("ab", "abc", "abcdefghijklmnopqrstuvwxyz"):
            self.check(random_word(letters, 1500, len(letters)))


class TestFindCost:
    """Every substring search of the full census is bounded, so the scan
    stays near linear on random words: a deterministic count in place of a
    timing gate."""

    def test_every_find_has_an_end(self):
        calls: list[tuple[int, int | None]] = []

        class RecordedCodes(bytes):
            def find(self, sub, start=None, end=None):
                calls.append((start, end))
                return super().find(sub, start, end)

        text = random_word("ab", 10_000, 1)
        codes = W(text).codes
        assert _census_scan(RecordedCodes(codes)) == _census_scan(codes)
        assert calls and all(start is not None and end is not None for start, end in calls)
        assert sum(end - start for start, end in calls) <= 64 * len(codes)


class TestStructuredWords:
    """Long structured words against the oracles: m, s and the rightmost map."""

    @given(structured_words)
    @settings(max_examples=60, deadline=None)
    def test_against_oracles(self, text):
        w = W(text)
        assert later_match_lengths(w.codes) == oracle_later_match(text)
        assert automaton_later_match_lengths(w.codes) == oracle_later_match(text)
        assert list(s_sequence(w).s) == oracle_s(text)
        assert rightmost_map(w) == oracle_rightmost(text)
