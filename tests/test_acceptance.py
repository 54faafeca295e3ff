"""Acceptance suite: one test per numbered criterion, each printing a
PASS line with the measured values.  The brute-force oracle outranks any
published table: a disagreement is logged and the oracle wins."""

import json
import time

import pytest

from fsdsq.census import s_sequence
from fsdsq.construct import build_run, extend_unequal
from fsdsq.double_squares import MateLabel, classify_mate_detail, find_fs_double_squares
from fsdsq.pairs import PairKind, find_double_square_pairs
from fsdsq.sweep import SweepConfig, exhaustive_verify

from named_words import EQUAL_17, EQUAL_17_S, SEEDS, W, W1, W1_S, W2, W2_S
from oracles import all_words, canonical_words, oracle_rightmost, oracle_s

def _golden_census(text: str, published: list[int], budget_ms: float, label: str):
    word = W(text)
    oracle = oracle_s(text)
    if oracle != published:
        diffs = [i + 1 for i, (a, b) in enumerate(zip(oracle, published)) if a != b]
        print(f"DISCREPANCY {label}: oracle differs from published table "
              f"at positions {diffs}; oracle is ground truth")
    s_sequence(word)  # warm caches before timing
    start = time.perf_counter()
    got = list(s_sequence(word).s)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    assert got == oracle
    assert elapsed_ms < budget_ms
    return elapsed_ms


def test_criterion_01_golden_equal_2fs():
    elapsed = _golden_census(EQUAL_17, EQUAL_17_S, 1.0, "equal-17")
    print(f"ACCEPTANCE 1 PASS: 17-letter census matches the table exactly "
          f"({elapsed:.3f} ms)")


def test_criterion_02_golden_w1_w2():
    e1 = _golden_census(W1, W1_S, 10.0, "w1")
    e2 = _golden_census(W2, W2_S, 10.0, "w2")
    print(f"ACCEPTANCE 2 PASS: w1 (61) and w2 (89) censuses match the tables "
          f"({e1:.3f} ms, {e2:.3f} ms)")


def test_criterion_03_oracle_equivalence():
    """s and the rightmost start of every distinct square, against the
    cubic oracle."""
    start = time.perf_counter()
    mismatches = 0
    words = [text for n in range(1, 15) for text in all_words(2, n)]
    words += [text for n in range(1, 11) for text in canonical_words(3, n)]
    for text in words:
        report = s_sequence(W(text))
        starts = {text[pos - 1:pos - 1 + 2 * p]: pos
                  for pos, ps in report.roots.items() for p in ps}
        rightmost = oracle_rightmost(text)
        if list(report.s) != oracle_s(text, rightmost) or starts != rightmost:
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 300
    print(f"ACCEPTANCE 3 PASS: fast census and rightmost squares equal the cubic "
          f"oracle on {len(words)} words ({elapsed:.1f} s)")


@pytest.fixture(scope="session")
def sweep18():
    start = time.perf_counter()
    report = exhaustive_verify(SweepConfig(alphabet_size=2, max_len=18,
                                           parallelism=8))
    return report, time.perf_counter() - start


def test_criterion_04_census_caps_to_18(sweep18):
    sweep18, elapsed = sweep18
    assert elapsed < 1800
    census_findings = [f for f in sweep18.findings
                       if f.property in ("census_max_two", "distinct_below_twice_length")]
    assert census_findings == []
    assert sweep18.total_words == 2 ** 18 - 1
    for n, st in sweep18.per_length.items():
        assert st.max_distinct_squares < 2 * n
    print(f"ACCEPTANCE 4 PASS: binary sweep to 18 ({sweep18.total_words} words, "
          f"{elapsed:.1f} s at 8 workers): max s_i <= 2 and "
          f"distinct squares < 2n everywhere")


def test_criterion_05_pair_dichotomy(sweep18):
    sweep18 = sweep18[0]
    shape_findings = [f for f in sweep18.findings
                      if f.property in ("pair_shapes", "equal_pair_checks",
                                        "unequal_pair_checks", "pair_end_order")]
    assert shape_findings == []
    pairs = sum(st.pairs_equal + st.pairs_unequal for st in sweep18.per_length.values())
    assert pairs > 0, "dichotomy check must not be vacuous"
    # supplementary ternary sweep, same properties, smaller cap
    ternary = exhaustive_verify(SweepConfig(alphabet_size=3, max_len=12))
    assert ternary.findings == ()
    print(f"ACCEPTANCE 5 PASS: every adjacent pair ({pairs} binary, plus ternary "
          f"to 12) is equal or unequal; no infeasible ordering, no failed check")


def test_criterion_06_adjacent_mates(sweep18):
    sweep18 = sweep18[0]
    mate_findings = [f for f in sweep18.findings if f.property == "adjacent_mates"]
    assert mate_findings == []
    # direct spot checks on the worked words
    labels = set()
    for text in (EQUAL_17, W1, W2):
        squares = find_fs_double_squares(W(text))
        for a, b in zip(squares, squares[1:]):
            if b.position == a.position + 1:
                labels.add(classify_mate_detail(a, b).label)
    assert labels == {MateLabel.ALPHA, MateLabel.DELTA}
    print("ACCEPTANCE 6 PASS: adjacent double squares classify as alpha or "
          "delta only; no beta, gamma or unclassifiable")


def test_criterion_07_unequal_inequalities():
    instances = 0
    for text in (W1, W2):
        pair = find_double_square_pairs(W(text))[0]
        assert pair.kind is PairKind.UNEQUAL and pair.all_checks_pass
    for seed in SEEDS:
        for variant in ("short", "long"):
            report = extend_unequal(W(seed), variant)
            instances += 1
            pairs = find_double_square_pairs(report.word)
            unequal = [p for p in pairs if p.kind is PairKind.UNEQUAL]
            assert unequal
            for pair in unequal:
                f, g = pair.first, pair.second
                fx = f.factorization
                assert g.SQ_len > 2 * f.SQ_len
                assert len(g.factorization.period) > len(fx.period)
                assert g.sq_len >= f.SQ_len + f.sq_len + (fx.p2 - 1) * len(fx.period)
                assert pair.all_checks_pass
    assert instances >= 20
    print(f"ACCEPTANCE 7 PASS: length inequalities hold on w1, w2 and "
          f"{instances} generated unequal extensions")


def test_criterion_08_run_bound():
    start = time.perf_counter()
    sweep = exhaustive_verify(SweepConfig(alphabet_size=2, max_len=18, parallelism=8))
    assert sweep.findings == ()
    for n, st in sweep.per_length.items():
        assert 7 * st.max_run < n
    report = build_run(4)
    assert report.T >= 4
    assert 7 * report.T < report.n
    assert report.T == s_sequence(report.word).longest_run[1]
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    print(f"ACCEPTANCE 8 PASS: 7T < n at every length to 18; build_run(4) "
          f"gives T={report.T}, n={report.n} ({elapsed:.1f} s)")


def test_criterion_09_factorization_roundtrip(sweep18):
    sweep18 = sweep18[0]
    fact_findings = [f for f in sweep18.findings if f.property == "factorization_roundtrip"]
    assert fact_findings == []
    positions = sum(st.double_square_positions for st in sweep18.per_length.values())
    assert positions > 0
    print(f"ACCEPTANCE 9 PASS: all {positions} census-2 positions in the sweep "
          f"factor exactly with primitive period and p1 >= p2 >= 1")


def test_criterion_10_minimal_pair_length():
    value = exhaustive_verify(SweepConfig(2, 17)).min_length_per_run.get(2)
    witness = build_run(2).word
    assert value is not None and value <= 17
    assert len(witness) == value
    s = s_sequence(witness).s
    assert any(s[i] == 2 and s[i + 1] == 2 for i in range(len(s) - 1))
    print(f"ACCEPTANCE 10 PASS: minimal adjacent-pair length (binary) = {value}, "
          f"witness {witness.text} (derived constant)")


def test_criterion_11_determinism(sweep18, tmp_path, crash_after):
    baseline = json.dumps(sweep18[0].to_json_dict(), sort_keys=True)

    other_jobs = exhaustive_verify(SweepConfig(alphabet_size=2, max_len=18,
                                               parallelism=2))
    assert json.dumps(other_jobs.to_json_dict(), sort_keys=True) == baseline

    ck = str(tmp_path / "sweep18.ck")
    with crash_after(20):
        exhaustive_verify(SweepConfig(alphabet_size=2, max_len=18, checkpoint_path=ck))
    resumed = exhaustive_verify(SweepConfig(alphabet_size=2, max_len=18,
                                            checkpoint_path=ck, parallelism=4))
    assert json.dumps(resumed.to_json_dict(), sort_keys=True) == baseline
    print("ACCEPTANCE 11 PASS: reports are byte-identical across worker counts "
          "and a mid-run checkpoint/resume")
