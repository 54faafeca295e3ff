import random
from itertools import cycle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fsdsq.census
import fsdsq.sweep
from fsdsq.census import (_census_scan, _census_step, _common_suffix, _later_matches,
                          render_census_tsv, runs_of_two, s_sequence)
from fsdsq.construct import build_run
from fsdsq.words import Word

from named_words import CASE_10, EQUAL_17, EQUAL_17_S, W
from oracles import (all_words, canonical_words, oracle_is_primitive, oracle_later_match,
                     oracle_longest_run, oracle_rightmost, oracle_runs_of_two,
                     oracle_s, oracle_squares)


def square_starts(text: str, roots: dict[int, list[int]]) -> dict[str, int]:
    """Each square value of ``roots`` mapped to its 1-based start."""
    return {text[pos - 1:pos - 1 + 2 * p]: pos for pos, ps in roots.items() for p in ps}


def rightmost_map(w: Word) -> dict[str, int]:
    """Each distinct square value mapped to the 1-based start of its last
    occurrence, read from the census roots."""
    return square_starts(w.text, s_sequence(w).roots)


def root_map(s: list[int], min_roots: list[int],
             doubles: dict[int, list[int]]) -> dict[int, list[int]]:
    """The roots of every position with s_i > 0, from the three lists of
    ``_census_scan``, which must agree with each other."""
    assert list(doubles) == [pos for pos, count in enumerate(s, 1) if count >= 2]
    assert all(len(ps) == s[pos - 1] and ps[0] == min_roots[pos - 1]
               for pos, ps in doubles.items())
    assert all((count == 0) == (p == 0) for count, p in zip(s, min_roots))
    return {pos: doubles[pos] if count > 1 else [p]
            for pos, (count, p) in enumerate(zip(s, min_roots), 1) if count}


def assert_scan_matches_oracles(text: str) -> None:
    """``_census_scan`` of ``text`` against the cubic oracles: s and the
    rightmost start of every distinct square."""
    s, min_roots, doubles = _census_scan(W(text).codes)
    roots = root_map(s, min_roots, doubles)
    rightmost = oracle_rightmost(text)
    assert s == oracle_s(text, rightmost)
    assert square_starts(text, roots) == rightmost


def later_match_lengths(codes: bytes) -> list[int]:
    """m_0 .. m_n by driving the census step right to left."""
    return [m for m, _ in probe_states(codes)] + [0]


def automaton_later_match_lengths(codes: bytes) -> list[int]:
    """m_0 .. m_n from the census's suffix automaton, which yields them
    right to left."""
    return list(_later_matches(codes))[::-1] + [0]


def step_scan(codes: bytes) -> tuple[list[int], list[int], dict[int, list[int]]]:
    """``_census_scan`` with m_i from the step's own probes, as the sweep's
    walk finds it, in place of the automaton, and the step at every
    position."""
    n = len(codes)
    s = [0] * n
    min_roots = [0] * n
    doubles: dict[int, list[int]] = {}
    step = _census_step(codes)
    m, j = -1, n
    for i in range(n - 1, -1, -1):
        m, j, ps = step(i, m, j)
        if ps:
            s[i] = len(ps)
            min_roots[i] = ps[0]
            if len(ps) >= 2:
                doubles[i + 1] = ps
    return s, min_roots, dict(sorted(doubles.items()))


def scan_states(codes: bytes) -> list[tuple[int, int]]:
    """(m_i, j_i) of every position as ``_census_scan`` drives the step,
    with m_i from the automaton."""
    n = len(codes)
    later = list(_later_matches(codes))[::-1]
    step = _census_step(codes)
    states = [(0, 0)] * n
    m, j = -1, n
    for i in range(n - 1, -1, -1):
        m, j, _ = step(i, m, j, later[i])
        states[i] = (m, j)
    return states


def probe_states(codes: bytes) -> list[tuple[int, int]]:
    """(m_i, j_i) of every position as the sweep's walk drives the step,
    with m_i from its probes: j_i is the nearest start of a later match of
    length m_i, at any distance."""
    step = _census_step(codes)
    states = [(0, 0)] * len(codes)
    m, j = -1, len(codes)
    for i in range(len(codes) - 1, -1, -1):
        m, j, _ = step(i, m, j)
        states[i] = (m, j)
    return states


def oracle_witnesses(text: str) -> list[tuple[int, int]]:
    """(m_i, j_i) by brute force: j_i is the nearest start k in
    (i, i + m_i] of a copy of text[i:i+m_i], or -1 if there is none."""
    m = oracle_later_match(text)
    return [(m[i], next((k for k in range(i + 1, i + m[i] + 1)
                         if text[k:k + m[i]] == text[i:i + m[i]]), -1))
            for i in range(len(text))]


def fibonacci_words(last: int) -> dict[int, str]:
    """f_1 = b, f_2 = a and f_k = f_{k-1} f_{k-2}, for k up to ``last``."""
    f = {1: "b", 2: "a"}
    for k in range(3, last + 1):
        f[k] = f[k - 1] + f[k - 2]
    return f


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
        # d = 5: root 3 = d - 2 is the one candidate of the window, which
        # ends there as 2 does not divide 5, and root 5 = d is the one
        # multiple of d.
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
        f = fibonacci_words(21)
        for k in range(6, 22):
            report = s_sequence(W(f[k]))
            assert report.distinct_square_count == 2 * (len(f[k - 2]) - 1)
            assert max(report.s) <= 1

    @pytest.mark.slow
    def test_long_fibonacci_words_match_fraenkel_simpson(self):
        # f_22 ... f_25, up to 75,025 letters
        f = fibonacci_words(25)
        for k in range(22, 26):
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


class TestWitnessMiss:
    """After the bounded witness search of position i + 1 misses and
    m_i = m_{i+1} + 1, the step compares the one start at distance m_i in
    place of a search; every witness of the scan is the nearest one."""

    @staticmethod
    def compares(text: str) -> list[tuple[int, int]]:
        """(i, j_i) at each position where the step compares."""
        states = scan_states(W(text).codes)
        return [(i, states[i][1]) for i in range(len(text) - 1)
                if states[i + 1][1] == -1 and states[i][0] == states[i + 1][0] + 1]

    @staticmethod
    def check(text: str) -> None:
        codes = W(text).codes
        assert scan_states(codes) == oracle_witnesses(text)
        assert _census_scan(codes) == step_scan(codes)

    def test_compare_finds_the_witness(self):
        # m_1 = 0 misses; m_0 = 1 and "a" recurs at distance 1
        assert self.compares("aa") == [(0, 1)]
        self.check("aa")

    def test_compare_misses(self):
        # m_1 = 0 misses; m_0 = 1, but "a" recurs only at distance 2
        assert self.compares("aba") == [(0, -1)]
        self.check("aba")

    def test_exhaustive_against_oracle(self):
        for n in range(1, 13):
            for text in all_words(2, n):
                self.check(text)
        for n in range(1, 9):
            for text in canonical_words(3, n):
                self.check(text)

    def test_fibonacci_prefix(self):
        # most searches miss on Fibonacci words, and the compare follows
        text = _fibonacci(300)
        assert len(self.compares(text)) > 100
        self.check(text)


class TestWindowEnds:
    """The window ends of the module docstring, checked with the step's
    (m_i, j_i) and the cubic oracle's rightmost roots, not with the step's
    window: with the nearest witness at d <= m_i no root p < d has d - p
    dividing d, and with a farther one m_i is no root."""

    @staticmethod
    def check(text: str) -> None:
        roots: list[list[int]] = [[] for _ in text]
        for value, start in oracle_rightmost(text).items():
            roots[start - 1].append(len(value) // 2)
        codes = W(text).codes
        for states in (scan_states(codes), probe_states(codes)):
            for i, (m, j) in enumerate(states):
                d = j - i if j >= 0 else m + 1  # the scan's miss: d > m
                if d <= m:
                    assert not [p for p in roots[i] if p < d and d % (d - p) == 0]
                else:
                    assert m not in roots[i]

    def test_exhaustive(self):
        for n in range(1, 15):
            for text in all_words(2, n):
                self.check(text)
        for n in range(1, 10):
            for text in canonical_words(3, n):
                self.check(text)

    def test_even_distance(self):
        # At position 1, m = 8 and the nearest witness is at d = 8: of the
        # candidates 5, 6 and 7, the window keeps 5 = d - 3 alone, as 1 and
        # 2 divide 8 and 3 does not.  5 is a root, and so is 8 = d.
        text = "abaababaabaababa"
        assert scan_states(W(text).codes)[0] == (8, 8)
        assert s_sequence(W(text)).roots[1] == [5, 8]
        self.check(text)

    def test_miss(self):
        # At position 1, m = 4 and the nearest copy of abaa is at distance
        # 5: the window ends at m - 1 = 3, which is the one root.
        text = "abaababaa"
        assert scan_states(W(text).codes)[0] == (4, -1)
        assert probe_states(W(text).codes)[0] == (4, 5)
        assert s_sequence(W(text)).roots[1] == [3]
        self.check(text)


class TestFitBound:
    """The fit bound of the window ends, from the quadratic oracle's m_i and
    a brute-force nearest later match, not from the step: when that match
    starts farther than m_i >= 1 right of i, n - i >= 2m_i + 1, so the
    window end m_i - 1 needs no test against the end of the word."""

    @staticmethod
    def misses(text: str) -> list[tuple[int, int]]:
        """(m_i, n - i) of each position of ``text`` whose nearest later
        match is farther than m_i >= 1, each checked against the bound."""
        n = len(text)
        out = []
        for i, m in enumerate(oracle_later_match(text)[:n]):
            if m:
                k = next(k for k in range(i + 1, n) if text[k:k + m] == text[i:i + m])
                if k - i > m:
                    assert n - i >= 2 * m + 1
                    out.append((m, n - i))
        return out

    def test_exhaustive(self):
        found = []
        for n in range(1, 15):
            for text in all_words(2, n):
                found += self.misses(text)
        for n in range(1, 10):
            for text in canonical_words(3, n):
                found += self.misses(text)
        assert any(rest == 2 * m + 1 for m, rest in found)  # the bound is met

    def test_tight(self):
        # At position 1, m = 4 and the nearest copy of abaa is at distance
        # 5, the farthest that fits: n - i = 9 = 2m + 1.
        assert self.misses("abaababaa")[0] == (4, 9)


class TestScanMatchesStep:
    """``_census_scan``, with m_i from the automaton, against the scan that
    takes m_i from the step's probes, on long words."""

    @staticmethod
    def check(text: str) -> None:
        codes = W(text).codes
        assert _census_scan(codes) == step_scan(codes)

    def test_closed_form_words(self):
        for target in [*range(1, 41), 100, 200, 300]:
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

    @staticmethod
    def recorded_finds(text: str) -> list[tuple[int, int | None]]:
        """(start, end) of every ``find`` of the census of ``text``."""
        calls: list[tuple[int, int | None]] = []

        class RecordedCodes(bytes):
            def find(self, sub, start=None, end=None):
                calls.append((start, end))
                return super().find(sub, start, end)

        codes = W(text).codes
        assert _census_scan(RecordedCodes(codes)) == _census_scan(codes)
        return calls

    def test_every_find_has_an_end(self):
        text = random_word("ab", 10_000, 1)
        calls = self.recorded_finds(text)
        assert calls and all(start is not None and end is not None for start, end in calls)
        assert sum(end - start for start, end in calls) <= 64 * len(text)

    def test_find_counts_on_periodic_words(self):
        # A witness miss followed by m_i = m_{i+1} + 1 costs a compare, not
        # a find: 2,924 and 1,105 finds without that step.  So does a window
        # of one candidate (the module docstring's window ends).
        assert len(self.recorded_finds(_fibonacci(2000))) == 2201
        assert len(self.recorded_finds(build_run(100).word.text)) == 792

    @pytest.mark.parametrize("alphabet_size,max_len,ceiling", [
        (2, 12, 5292), (3, 8, 1866), (4, 7, 926),
    ])
    def test_find_counts_of_the_walk(self, alphabet_size, max_len, ceiling, monkeypatch):
        # The sweep's walk skips the probes of a letter absent from the
        # suffix and, with no room after the witness, the longest one: 5,939,
        # 2,528 and 1,579 finds without them.  A ceiling, never raised.
        finds = 0

        class RecordedBuffer(bytearray):
            def find(self, *args):
                nonlocal finds
                finds += 1
                return super().find(*args)

        monkeypatch.setattr(fsdsq.sweep, "bytearray", RecordedBuffer, raising=False)
        report = fsdsq.sweep.exhaustive_verify(alphabet_size, max_len)
        assert report.findings == ()
        assert finds <= ceiling


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


@pytest.fixture
def census_steps(monkeypatch):
    """``census_steps(text)``: how many times ``_census_scan`` of ``text``
    calls the census step."""
    make = fsdsq.census._census_step
    calls = 0

    def counting(codes):
        step = make(codes)

        def counted(*args):
            nonlocal calls
            calls += 1
            return step(*args)

        return counted

    monkeypatch.setattr(fsdsq.census, "_census_step", counting)

    def steps(text: str) -> int:
        nonlocal calls
        calls = 0
        _census_scan(W(text).codes)
        return calls

    return steps


@pytest.fixture
def automaton_letters(monkeypatch):
    """``automaton_letters(text)``: how many letters of ``text`` the suffix
    automaton of ``_census_scan`` consumes, and the leftmost position that
    the scan runs the step at (n if none)."""
    later, make = fsdsq.census._later_matches, fsdsq.census._census_step
    letters = leftmost = 0

    def counted_later(codes):
        nonlocal letters
        for m in later(codes):
            letters += 1
            yield m

    def recorded_step(codes):
        step = make(codes)

        def recorded(i, *args):
            nonlocal leftmost
            leftmost = min(leftmost, i)
            return step(i, *args)

        return recorded

    monkeypatch.setattr(fsdsq.census, "_later_matches", counted_later)
    monkeypatch.setattr(fsdsq.census, "_census_step", recorded_step)

    def count(text: str) -> tuple[int, int]:
        nonlocal letters, leftmost
        letters, leftmost = 0, len(text)
        codes = W(text).codes
        assert _census_scan(codes) == step_scan(codes)
        return letters, leftmost

    return count


def periodic_block(base: str, offset: int, length: int) -> str:
    """``length`` letters of base base base ... from ``offset``."""
    return (base * ((offset + length) // len(base) + 1))[offset:offset + length]


@st.composite
def chain_words(draw):
    """A random prefix, a periodic block of period 1..12 that starts and
    ends at any offset of its period, and a random suffix: up to 400
    letters."""
    base = draw(st.text(alphabet="abc", min_size=1, max_size=12))
    offset = draw(st.integers(min_value=0, max_value=len(base) - 1))
    prefix = draw(st.text(alphabet="abc", max_size=20))
    suffix = draw(st.text(alphabet="abc", max_size=20))
    length = draw(st.integers(min_value=0, max_value=400 - len(prefix) - len(suffix)))
    return prefix + periodic_block(base, offset, length) + suffix


class TestPeriodicChain:
    """The scan crosses a periodic chain without the step (the module
    docstring's chain fact): against the scan that runs the step at every
    position and against the cubic oracle."""

    @staticmethod
    def check(text: str) -> None:
        codes = W(text).codes
        s, min_roots, doubles = _census_scan(codes)
        assert (s, min_roots, doubles) == step_scan(codes)
        roots = root_map(s, min_roots, doubles)
        rightmost = oracle_rightmost(text)
        assert s == oracle_s(text, rightmost)
        assert square_starts(text, roots) == rightmost

    def test_every_period_and_offset(self, census_steps):
        # Both ends of the block fall at every offset of its period; the
        # random prefix ends the chain wherever its last letter breaks the
        # period.
        rng = random.Random(27)
        for d in range(1, 13):
            base = random_word("abc", d, rng.random())
            while not oracle_is_primitive(base):
                base = random_word("abc", d, rng.random())
            crossed = 0
            for offset in range(d):
                for length in range(2 * d, 4 * d + 3):
                    text = (random_word("abc", rng.randrange(4), rng.random())
                            + periodic_block(base, offset, length)
                            + random_word("abc", rng.randrange(4), rng.random()))
                    self.check(text)
                    crossed += len(text) - census_steps(text)
            assert crossed > 0, d

    @given(chain_words())
    @settings(max_examples=60, deadline=None)
    def test_chain_words(self, text):
        self.check(text)

    def test_step_counts(self, census_steps):
        # a^n: the step runs at the last two positions and one chain crosses
        # the rest
        assert census_steps("a" * 10_000) == 2
        assert [census_steps("a" * n) for n in range(1, 6)] == [1, 2, 2, 2, 2]
        # 703 and 2000 positions: 3 and 10 chains cross 200 and 411 of them
        assert census_steps(build_run(100).word.text) == 503
        assert census_steps(_fibonacci(2000)) == 1589

    def test_automaton_letters(self, automaton_letters):
        # a count, not a timing: the automaton stops at the last position
        # the step reads, so a chain that reaches position 0 leaves the
        # letters left of the step to no one
        assert automaton_letters("a" * 10_000) == (2, 9_998)
        assert [automaton_letters("a" * n)[0] for n in range(1, 6)] == [1, 2, 2, 2, 2]
        assert automaton_letters("ab" * 5_000) == (4, 9_996)
        u, v = "abaab", "bba"
        for k in (10, 100, 2_000):
            # |v| letters, then u^k to its first crossed position
            assert automaton_letters(u * k + v) == (15, 5 * k - 12)
            # the chain stops at v, so the step reads position 0
            assert automaton_letters(v + u * k) == (5 * k + 3, 0)

    # ``automaton_letters`` resets its counts on every call
    @given(chain_words())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_automaton_stops_at_the_last_step(self, automaton_letters, text):
        letters, leftmost = automaton_letters(text)
        assert letters == len(text) - leftmost

    def test_common_suffix(self):
        for n in range(1, 9):
            for text in all_words(2, n):
                codes = W(text).codes
                for j in range(1, n + 1):
                    for i in range(j):
                        k = next((k for k in range(i) if text[i - k - 1] != text[j - k - 1]), i)
                        assert _common_suffix(codes, i, j) == k


def characteristic_prefix(exponents: list[int], n: int) -> str:
    """The first ``n`` letters of the characteristic word with directive
    ``exponents``, repeated: s_0 = b, s_1 = a and s_k = s_{k-1}^(a_k) s_{k-2}.
    All exponents 1 give the Fibonacci words."""
    prev, cur = "b", "a"
    for a in cycle(exponents):
        if len(cur) >= n:
            return cur[:n]
        prev, cur = cur, cur * a + prev


def closed_form(target: int) -> str:
    """The closed-form word of ``build_run(target)``, T >= 2, without its census."""
    x1 = "a" * (target - 1) + "b"
    root = x1 + "a" + x1 + x1 + "a"
    return root + root + root[:target - 1]


@st.composite
def long_words(draw):
    """Words of 10^3 to 10^4 letters: random, characteristic (Fibonacci-like),
    the closed form (T <= 400, to keep its quadratic census cheap) and a^n,
    the last two with up to four point mutations."""
    kind = draw(st.sampled_from(["random", "characteristic", "closed form", "unary"]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    if kind == "random":
        return random_word("abcd"[:draw(st.integers(min_value=2, max_value=4))],
                           draw(st.integers(min_value=1000, max_value=10_000)), rng.random())
    if kind == "characteristic":
        exponents = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4))
        return characteristic_prefix(exponents, draw(st.integers(min_value=1000, max_value=10_000)))
    if kind == "closed form":
        letters = list(closed_form(draw(st.integers(min_value=143, max_value=400))))
    else:
        letters = ["a"] * draw(st.integers(min_value=1000, max_value=10_000))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        letters[rng.randrange(len(letters))] = rng.choice("abc")
    return "".join(letters)


def assert_relations(codes: bytes, ks: list[int], renaming: bytes) -> None:
    """The census of ``codes[k:]`` is that of ``codes`` from k on for each k
    of ``ks``, renaming the letters by ``renaming`` changes no census, and
    the reverse has as many distinct squares."""
    s, min_roots, doubles = _census_scan(codes)
    # a square's last occurrence at i >= k is its last one in w[k:]
    for k in ks:
        assert _census_scan(codes[k:]) == (
            s[k:], min_roots[k:], {pos - k: ps for pos, ps in doubles.items() if pos > k})
    assert _census_scan(codes.translate(renaming)) == (s, min_roots, doubles)
    assert sum(_census_scan(codes[::-1])[0]) == sum(s)


class TestMetamorphic:
    """Relations between censuses that need no oracle, on long words: a
    suffix's census is the word's census from there on, renaming letters
    changes nothing, and reversal keeps the number of distinct squares."""

    @given(long_words(), st.data())
    @settings(max_examples=12, deadline=None)
    def test_relations(self, text, data):
        codes = W(text).codes
        k = data.draw(st.integers(min_value=0, max_value=len(codes)), label="k")
        renaming = bytes(data.draw(st.permutations(range(256)), label="renaming"))
        assert_relations(codes, [k], renaming)

    @pytest.mark.slow
    @pytest.mark.parametrize("kind", ["a^n", "(ab)^n", "u^k v", "v u^k"])
    def test_relations_at_a_million_letters(self, kind):
        # u = abaab and v = bbaba; the reverse of u^k v is a v u^k word,
        # whose automaton reads every letter
        n = 10**6
        u, v = "abaab", "bbaba"
        text = {"a^n": "a" * n, "(ab)^n": "ab" * (n // 2),
                "u^k v": u * (n // 5 - 1) + v, "v u^k": v + u * (n // 5 - 1)}[kind]
        assert len(text) == n
        assert_relations(W(text).codes, [1, 3, 4, n // 2 + 1, n - 7],
                         bytes(range(255, -1, -1)))
