from os.path import commonprefix

import pytest

import fsdsq.pairs
from fsdsq.census import s_sequence
from fsdsq.construct import build_run
from fsdsq.double_squares import FsDoubleSquare, classify_mate_detail
from fsdsq.pairs import (Check, PairKind, _equal_checks, _unequal_checks,
                         find_double_square_pairs, ordering_case)
from fsdsq.sweep import exhaustive_verify
from fsdsq.words import Word, are_conjugate, lcp

from named_words import CASE_10, EQUAL_17, UNEQUAL_39, UNEQUAL_67, W, W1, W2
from oracles import oracle_factorization, oracle_rotations
from structure import double_square, pairs_of, squares_of
from test_census import _fibonacci


def _square_equal_checks(first: FsDoubleSquare, second: FsDoubleSquare) -> tuple[Check, ...]:
    """The equal checks decided on the squares themselves: the reference
    for ``_equal_checks``, which decides each on the roots."""
    u, v = Word(first.prefix(first.SQ_len)), Word(second.prefix(second.SQ_len))
    su, sv = Word(first.prefix(first.sq_len)), Word(second.prefix(second.sq_len))
    a = su[:1]
    return (
        Check("longer_squares_conjugate", are_conjugate(u + u, v + v)),
        Check("shorter_squares_conjugate", are_conjugate(su + su, sv + sv)),
        Check("single_letter_shift", u + a == a + v and u + u + a == a + v + v),
        Check("x1_x2_common_prefix", lcp(first.x1, first.x2) >= 1),
        Check("second_ends_after_first", second.end > first.end),
    )


def _equal_pairs(w: Word) -> list:
    return [p for p in pairs_of(w) if p.kind is PairKind.EQUAL]


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
        pairs = pairs_of(W(EQUAL_17))
        assert len(pairs) == 1
        pair = pairs[0]
        assert pair.position == 1
        assert pair.kind is PairKind.EQUAL
        assert pair.case == 12
        assert pair.all_checks_pass

    def test_unequal_pairs(self):
        for text in (W1, W2):
            pairs = pairs_of(W(text))
            assert len(pairs) == 1
            pair = pairs[0]
            assert pair.kind is PairKind.UNEQUAL
            assert pair.case == 13
            assert pair.all_checks_pass
            assert pair.first.sq_len < pair.first.SQ_len < pair.second.sq_len < pair.second.SQ_len

    def test_lone_double_square_yields_no_pair(self):
        assert pairs_of(W("abaababaab")) == []
        # two adjacent census-2 positions form a run of 2's of length >= 2
        assert s_sequence(W("abaababaab")).longest_run[1] < 2
        assert s_sequence(W(EQUAL_17)).longest_run[1] >= 2

    def test_w1_lengths(self):
        pair = pairs_of(W(W1))[0]
        assert (pair.first.sq_len, pair.first.SQ_len) == (4, 7)
        assert (pair.second.sq_len, pair.second.SQ_len) == (16, 30)

    def test_second_ends_after_first_everywhere(self):
        for text in (EQUAL_17, W1, W2):
            for pair in pairs_of(W(text)):
                assert pair.second.position + 2 * pair.second.SQ_len - 1 \
                    > pair.first.position + 2 * pair.first.SQ_len - 1


class TestEqualChecks:
    def test_all_pass_on_known_word(self):
        pair = pairs_of(W(EQUAL_17))[0]
        checks = pair.checks
        assert [c.name for c in checks] == [
            "longer_squares_conjugate", "shorter_squares_conjugate",
            "single_letter_shift", "x1_x2_common_prefix",
            "second_ends_after_first"]
        assert all(c.passed for c in checks)

    def test_synthetic_non_conjugate_pair_fails(self):
        # same root lengths, but the second square is not a rotation of the
        # first: the conjugacy checks must come back false
        real = pairs_of(W(EQUAL_17))[0]
        fake_second = double_square(2, "ab", "b", 1, 1)
        results = {c.name: c.passed for c in _equal_checks(real.first, fake_second)}
        assert results["longer_squares_conjugate"] is False
        assert results["shorter_squares_conjugate"] is False

    def test_root_checks_match_square_checks(self, monkeypatch):
        # every equal pair of the small sweeps, of the closed forms and of
        # Fibonacci prefixes.  The sweeps find none: no canonical word this
        # short has two adjacent FS-double squares.
        swept = []

        def collect(squares):
            pairs = find_double_square_pairs(squares)
            swept.extend(p for p in pairs if p.kind is PairKind.EQUAL)
            return pairs

        with monkeypatch.context() as patch:
            patch.setattr(fsdsq.pairs, "find_double_square_pairs", collect)
            exhaustive_verify(alphabet_size=2, max_len=14)
            exhaustive_verify(alphabet_size=3, max_len=9)
        closed = [p for t in range(1, 61) for p in _equal_pairs(build_run(t).word)]
        fib = [p for n in range(50, 3001, 50) for p in _equal_pairs(W(_fibonacci(n)))]
        assert (len(swept), len(closed), len(fib)) == (0, 1770, 6443)
        for pair in swept + closed + fib:
            assert pair.checks == _square_equal_checks(pair.first, pair.second)

    def test_root_checks_match_square_checks_on_failing_pairs(self):
        # a long root that is no rotation of the first one, in either order,
        # and one rotated by two letters: the first square of the closed form
        # at T = 4, factored (aaab, a, 1, 1), against the third, (abaa, a, 1, 1)
        real = pairs_of(W(EQUAL_17))[0]
        run = pairs_of(build_run(4).word)[0]
        pairs = [
            (real.first, double_square(2, "ab", "b", 1, 1)),
            (double_square(1, "ab", "b", 1, 1), real.second),
            (run.first, double_square(2, "abaa", "a", 1, 1)),
        ]
        failed = []
        for first, second in pairs:
            checks = _equal_checks(first, second)
            assert checks == _square_equal_checks(first, second)
            failed.append([c.name for c in checks if not c.passed])
        assert failed == [
            ["longer_squares_conjugate", "shorter_squares_conjugate", "single_letter_shift"],
            ["longer_squares_conjugate", "shorter_squares_conjugate", "single_letter_shift",
             "x1_x2_common_prefix"],
            ["single_letter_shift"],
        ]

    def test_kind_precondition(self):
        # an unequal pair carries the unequal checks, never the equal ones
        pair = pairs_of(W(W1))[0]
        assert pair.kind is PairKind.UNEQUAL
        assert pair.checks == _unequal_checks(pair.first, pair.second)
        assert "longer_squares_conjugate" not in {c.name for c in pair.checks}


class TestUnequalChecks:
    def test_all_pass_on_w1_w2(self):
        for text in (W1, W2):
            pair = pairs_of(W(text))[0]
            checks = {c.name: c.passed for c in pair.checks}
            assert checks == {
                "short_root_floor": True,
                "period_strictly_grows": True,
                "long_root_doubles": True,
                "short_root_exceeds_sum": True,
                "second_ends_after_first": True,
            }

    def test_w1_inequality_values(self):
        pair = pairs_of(W(W1))[0]
        assert pair.second.SQ_len > 2 * pair.first.SQ_len  # 30 > 14
        assert pair.second.period_len > pair.first.period_len  # 14 > 3
        assert pair.second.sq_len > pair.first.SQ_len + pair.first.sq_len  # 16 > 11

    def test_kind_precondition(self):
        # an equal pair carries the equal checks, never the unequal ones
        pair = pairs_of(W(EQUAL_17))[0]
        assert pair.kind is PairKind.EQUAL
        assert pair.checks == _equal_checks(pair.first, pair.second)
        assert "short_root_floor" not in {c.name for c in pair.checks}


def _reference_delta_rule(split: tuple[str, str, int, int], sv: str) -> str | None:
    """The delta prefix rules of ``classify_mate_detail`` on strings, suffixes
    longest first for the rotated rule and shortest first for the power rule."""
    x1, x2, p1, p2 = split
    period = x1 + x2
    tail = period * (p1 + p2 - 1) + x1
    for k in range(len(x1), -1, -1):
        if sv.startswith(x1[len(x1) - k:] + x2 + x1 + tail):
            return "rotated_suffix" if k else "rotated_suffix_empty"
    for k in range(len(period) + 1):
        for i in range(1, len(sv) + 1):
            cand = period[len(period) - k:] + period * i + x1 + tail
            if len(cand) < len(sv) and sv.startswith(cand):
                return "power_prefix"
    return None


def _roots(text: str, fs: FsDoubleSquare) -> tuple[int, str, str]:
    i = fs.position - 1
    return fs.position, text[i:i + fs.sq_len], text[i:i + fs.SQ_len]


def _reference_pair(first: tuple[int, str, str], second: tuple[int, str, str]):
    """The case, checks and mate of two double squares, given as (position,
    sq, SQ), each from its definition on the roots and squares: splits from
    ``oracle_factorization``, conjugacy from ``oracle_rotations``."""
    (pos1, su, u), (pos2, sv, v) = first, second
    a, A, b, B = len(su), len(u), len(sv), len(v)
    [(x1, x2, p1, p2)] = oracle_factorization(su, u)
    [(y1, y2, _, _)] = oracle_factorization(sv, v)
    ends = pos2 + 2 * B - 1 > pos1 + 2 * A - 1
    case = ordering_case(a, A, b, B)
    checks = {12: [
        ("longer_squares_conjugate", v + v in oracle_rotations(u + u)),
        ("shorter_squares_conjugate", sv + sv in oracle_rotations(su + su)),
        ("single_letter_shift", u + u + u[0] == u[0] + v + v),
        ("x1_x2_common_prefix", commonprefix([x1, x2]) != ""),
        ("second_ends_after_first", ends),
    ], 13: [
        ("short_root_floor", b >= A + a + (p2 - 1) * len(x1 + x2)),
        ("period_strictly_grows", len(y1 + y2) > len(x1 + x2)),
        ("long_root_doubles", B > 2 * A),
        ("short_root_exceeds_sum", b > A + a),
        ("second_ends_after_first", ends),
    ]}.get(case, [])
    k = pos2 - pos1 + 1
    ell = len(x1 + x2)
    rule = _reference_delta_rule((x1, x2, p1, p2), sv) if b > A else None
    if (b, B) == (a, A):
        mate = ("alpha", None)
    elif a < b and B == A:
        mate = ("beta", None)
    elif k < p1 * ell and b == A:
        mate = ("gamma", None)
    elif rule is not None:
        mate = ("delta", rule)
    elif k >= (p1 - 1) * ell + len(commonprefix([x1 + x2, x2 + x1])):
        mate = ("epsilon", None)
    else:
        mate = None
    return case, checks, mate


class TestAgainstReference:
    """The integer checks and mates against ``_reference_pair``."""

    @staticmethod
    def compare(text: str, pairs) -> None:
        for pair in pairs:
            case, checks, mate = _reference_pair(_roots(text, pair.first),
                                                 _roots(text, pair.second))
            assert pair.case == case, text
            assert [(c.name, c.passed) for c in pair.checks] == checks, text
            got = pair.mate and (pair.mate.label.value, pair.mate.delta_rule)
            assert got == mate, text

    def test_sweep_pairs(self, monkeypatch):
        # every canonical binary word to 18, which holds every binary word to
        # 14 (with no pair) up to renaming; the first pairs come at 17
        seen = []

        def collect(squares):
            pairs = find_double_square_pairs(squares)
            if pairs:
                word = Word(squares[0].codes).text
                seen.append(word)
                self.compare(word, pairs)
            return pairs

        monkeypatch.setattr(fsdsq.pairs, "find_double_square_pairs", collect)
        exhaustive_verify(alphabet_size=2, max_len=18)
        assert len(seen) == 4

    def test_named_and_closed_form_words(self):
        texts = [EQUAL_17, W1, W2, CASE_10, UNEQUAL_39, UNEQUAL_67]
        texts += [build_run(t).word.text for t in range(1, 41)]
        counts = {}
        for text in texts:
            pairs = pairs_of(W(text))
            self.compare(text, pairs)
            for pair in pairs:
                key = pair.mate and pair.mate.label.value
                counts[key] = counts.get(key, 0) + 1
        assert counts == {"alpha": 781, "delta": 4, "gamma": 1}

    @pytest.mark.parametrize("first,second,mate", [
        ((1, ("a", "bb", 1, 1)), (2, ("a", "b", 2, 1)), ("beta", None)),
        ((1, ("a", "b", 3, 1)), (2, ("c", "d", 5, 1)), None),
        ((1, ("a", "b", 1, 1)), (9, ("a", "bb", 1, 1)), ("epsilon", None)),
        ((1, ("a", "b", 1, 1)), (2, ("abaabab", "b", 1, 1)), ("delta", "rotated_suffix")),
        ((1, ("a", "bb", 1, 1)), (2, ("babbaabba", "a", 1, 1)), ("delta", "power_prefix")),
        # the power candidate b abb a abba is the whole second short root, not a proper prefix
        ((1, ("a", "bb", 1, 1)), (2, ("ba", "bbaab", 1, 1)), ("epsilon", None)),
        # case 10 at distance 2 with p1 |x1 x2| = 2: gamma needs 2 < 2
        ((1, ("a", "b", 1, 1)), (2, ("a", "b", 2, 1)), ("epsilon", None)),
    ])
    def test_hand_built_pairs(self, first, second, mate):
        # the mates that no word above reaches, on records built from splits
        records = [double_square(pos, *split) for pos, split in (first, second)]
        roots = [(fs.position, Word(fs.prefix(fs.sq_len)).text,
                  Word(fs.prefix(fs.SQ_len)).text) for fs in records]
        case, checks, ref_mate = _reference_pair(*roots)
        got = classify_mate_detail(*records)
        assert (got and (got.label.value, got.delta_rule)) == ref_mate == mate
        for pair in find_double_square_pairs(records):
            assert (pair.case, [(c.name, c.passed) for c in pair.checks]) == (case, checks)

    def test_hand_built_pairs_match_found_pairs(self):
        # records read off a word and records built from their splits, whose
        # bytes are the long root alone, give the same pairs, checks and mates
        for text in (EQUAL_17, W1, CASE_10, UNEQUAL_39, build_run(9).word.text):
            found = pairs_of(W(text))
            hand = find_double_square_pairs([
                double_square(q.position, q.x1.text, q.x2.text, q.p1, q.p2)
                for q in squares_of(W(text))])
            assert len(found) >= 1
            assert [p.to_json_dict() for p in hand] == [p.to_json_dict() for p in found]
            assert hand == found
