import dataclasses
from fractions import Fraction

import pytest

import fsdsq.construct
from fsdsq.census import s_sequence
from fsdsq.construct import (_closed_form_census, _run_report, build_run, extend_equal_run,
                             extend_unequal)
from fsdsq.errors import CounterexampleError, NoExtensionError
from fsdsq.pairs import PairKind
from fsdsq.words import lcp

from named_words import EQUAL_17, EQUAL_17_S, SEEDS, W, W1, W2
from oracles import oracle_s
from structure import pairs_of, squares_of


def _report(text):
    return _run_report(s_sequence(W(text)), ())


class TestRatioReport:
    def test_equal_17(self):
        rep = _report(EQUAL_17)
        assert rep.T == 2
        assert rep.ratio == Fraction(2, 17)
        assert 7 * rep.T < rep.n
        assert rep.findings == ()

    def test_trivial(self):
        rep = _report("ab")
        assert rep.T == 0
        assert rep.ratio == 0
        assert rep.findings == ()

    def test_w2(self):
        rep = _report(W2)
        assert rep.T == 2
        assert rep.ratio == Fraction(2, 89)

    def test_verified_against_census(self):
        # each constructor's T is the census run length of the word it built
        seed = W("aabaaabaabaaab")
        for rep, text in ((build_run(1), "abaababaab"), (build_run(2), EQUAL_17),
                          (extend_unequal(seed, "short"), W1),
                          (extend_unequal(seed, "long"), W2)):
            assert rep.word.text == text
            assert rep.T == s_sequence(W(text)).longest_run[1]


class TestExtendEqualRun:
    def test_equal_17_from_its_square(self):
        rep = extend_equal_run(W("abaababaabaababa"))
        assert rep.word.text == EQUAL_17
        assert rep.T == 2
        assert [s.kind for s in rep.steps] == ["equal"]
        assert rep.steps[0].letters == "a"
        assert rep.T == s_sequence(rep.word).longest_run[1]

    def test_smallest_has_no_extension(self):
        # in aabaaabaabaaab the period x1 x2 and its rotation x2 x1 share a
        # prefix, yet no appended letter grows the run either
        for text in ("abaababaab", "aabaaabaabaaab"):
            with pytest.raises(NoExtensionError):
                extend_equal_run(W(text))

    def test_rejects_non_square_seed(self):
        with pytest.raises(ValueError):
            extend_equal_run(W(EQUAL_17))  # 17 letters, not exactly SQ^2
        with pytest.raises(ValueError):
            extend_equal_run(W("abcabc"))

    def test_growth_respects_conjugate_ceiling(self):
        # the chain of equal-length double squares is limited by the common
        # prefix of the period and its rotation (plus the starting square),
        # capped by |x1| when p1 == p2
        for text in SEEDS:
            seed = W(text)
            fs = squares_of(seed)[0]
            f = fs.factorization
            ell = lcp(f.period, f.x2 + f.x1)
            ceiling = min(ell + 1, len(f.x1)) if f.p1 == f.p2 else ell + 1
            try:
                rep = extend_equal_run(seed)
            except NoExtensionError:
                # the first appended letter already fails to grow the run
                lead = s_sequence(seed).leading_run
                assert s_sequence(seed + seed[:1]).leading_run <= lead
                continue
            leading = 0
            for v in s_sequence(rep.word).s:
                if v != 2:
                    break
                leading += 1
            assert 1 <= leading <= ceiling

    def test_ceiling_tight_for_equal_17_seed(self):
        seed = W("abaababaabaababa")
        fs = squares_of(seed)[0]
        f = fs.factorization
        assert (f.x1.text, f.x2.text, f.p1, f.p2) == ("ab", "a", 1, 1)
        ell = lcp(f.period, f.x2 + f.x1)
        assert ell == 1
        rep = extend_equal_run(seed)
        measured = s_sequence(rep.word).longest_run[1]
        # the inclusive bound min(lcp+1, |x1|) is met with equality here,
        # while the strict variant min(lcp, |x1|-1) = 1 is exceeded
        assert measured == min(ell + 1, len(f.x1)) == 2
        assert measured > min(ell, len(f.x1) - 1)


class TestExtendUnequal:
    def test_short_variant_reproduces_w1(self):
        rep = extend_unequal(W("aabaaabaabaaab"), "short")
        assert rep.word.text == W1
        assert rep.T == 2 == s_sequence(rep.word).longest_run[1]
        assert [s.kind for s in rep.steps] == ["unequal"]

    def test_long_variant_reproduces_w2(self):
        rep = extend_unequal(W("aabaaabaabaaab"), "long")
        assert rep.word.text == W2
        assert rep.T == 2 == s_sequence(rep.word).longest_run[1]
        assert rep.ratio == Fraction(2, 89)

    def test_unary_rejected(self):
        with pytest.raises(ValueError):
            extend_unequal(W("aaaa"))

    def test_word_without_final_double_square_rejected(self):
        with pytest.raises(ValueError):
            extend_unequal(W("abab"))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            extend_unequal(W("aabaaabaabaaab"), "medium")

    @pytest.mark.parametrize("variant", ["short", "long"])
    def test_no_accepted_template_is_no_extension(self, monkeypatch, variant):
        tried = []

        def reject(candidate, frontier):
            tried.append(len(candidate))
            return None

        monkeypatch.setattr(fsdsq.construct, "_accepts_unequal", reject)
        with pytest.raises(NoExtensionError, match=f"no {variant} unequal extension"):
            extend_unequal(W("aabaaabaabaaab"), variant)
        assert len(tried) == 14  # one candidate per prefix of v, then no more

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("variant", ["short", "long"])
    def test_all_seeds_extend(self, seed, variant):
        rep = extend_unequal(W(seed), variant)
        pairs = pairs_of(rep.word)
        unequal = [p for p in pairs if p.kind is PairKind.UNEQUAL]
        assert unequal, "extension must create an unequal adjacent pair"
        for pair in unequal:
            assert pair.second.SQ_len > 2 * pair.first.SQ_len
            assert pair.all_checks_pass
        assert 7 * rep.T < rep.n


class TestBuildRun:
    def test_target_one(self):
        rep = build_run(1)
        assert rep.word.text == "abaababaab"
        assert rep.T == 1
        assert rep.ratio == Fraction(1, 10)

    def test_target_two(self):
        # the shortest word with two adjacent census-2 positions
        rep = build_run(2)
        assert rep.word.text == EQUAL_17
        assert rep.T == 2
        assert rep.ratio == Fraction(2, 17)
        assert 7 * rep.T < rep.n
        assert rep.findings == ()

    def test_target_four(self):
        rep = build_run(4)
        assert (rep.n, rep.T) == (31, 4)
        assert 7 * rep.T < rep.n
        # the run is re-verified by the census, not trusted from construction
        assert rep.T == s_sequence(rep.word).longest_run[1]

    def test_closed_form_to_forty(self):
        for t in range(1, 41):
            rep = build_run(t)
            assert rep.n == 7 * t + 3
            assert rep.word.text[0] == "a"
            assert rep.steps == ()
            assert s_sequence(rep.word).longest_run == (1, t)
            # the squares of the run are conjugates: every adjacent pair is
            # equal and passes the conjugacy and shift checks
            pairs = pairs_of(rep.word)
            assert [p.position for p in pairs] == list(range(1, t))
            for pair in pairs:
                assert pair.kind is PairKind.EQUAL
                assert pair.all_checks_pass

    def test_closed_form_census_predictor(self):
        # the whole census of SQ SQ SQ[:T-1], against the census and, for
        # short words, the cubic oracle; every run position has roots 2T+1
        # and 3T+2
        assert _closed_form_census(1) == (2, 0, 0, 1, 1, 0, 0, 1, 0, 0)
        assert _closed_form_census(2) == tuple(EQUAL_17_S)
        for t in range(1, 301):
            predicted = _closed_form_census(t)
            assert len(predicted) == 7 * t + 3
            word = build_run(t).word
            report = s_sequence(word)
            assert report.s == predicted, t
            assert all(report.roots[i] == [2 * t + 1, 3 * t + 2] for i in range(1, t + 1)), t
            if t <= 20:
                assert tuple(oracle_s(word.text)) == predicted, t

    def test_target_three_hundred(self):
        rep = build_run(300)
        assert (rep.n, rep.T) == (2103, 300)
        assert s_sequence(rep.word).longest_run == (1, 300)

    def test_doubling_steps(self):
        # along a chain of unequal moves, each new frontier square is more
        # than twice as long as the previous one; read off the word's pairs
        w = W("aabaaabaabaaab")
        sizes = []
        for _ in range(3):
            w = extend_unequal(w).word
            sizes.append(len(w))
        assert sizes == [61, 244, 973]
        unequal = [p for p in pairs_of(w) if p.kind is PairKind.UNEQUAL]
        assert [p.position for p in unequal] == [1, 2, 3]
        for pair in unequal:
            assert pair.second.SQ_len > 2 * pair.first.SQ_len
            assert pair.all_checks_pass
        for a, b in zip(unequal, unequal[1:]):
            assert b.first == a.second

    def test_one_census_per_word(self, census_calls):
        rep = build_run(4)
        assert census_calls == [rep.word.codes]

    def test_census_mismatch_is_a_finding(self, monkeypatch):
        other = s_sequence(W(EQUAL_17))
        monkeypatch.setattr(fsdsq.construct, "s_sequence", lambda word: other)
        with pytest.raises(CounterexampleError, match="s_3 = 0, not the predicted 2"):
            build_run(3)

    def test_mismatch_outside_the_run_is_a_finding(self, monkeypatch):
        # the run of 2's is intact; only s_20 differs from the prediction
        census = fsdsq.construct.s_sequence

        def planted(word):
            report = census(word)
            s = list(report.s)
            s[19] += 1
            return dataclasses.replace(report, s=tuple(s))

        monkeypatch.setattr(fsdsq.construct, "s_sequence", planted)
        with pytest.raises(CounterexampleError, match="has s_20 = 2, not the predicted 1"):
            build_run(4)

    @pytest.mark.slow
    def test_closed_form_census_at_two_thousand(self):
        assert s_sequence(build_run(2000).word).s == _closed_form_census(2000)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            build_run(0)
        with pytest.raises(ValueError):
            build_run(-1)
